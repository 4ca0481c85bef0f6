"""PT — prefetch throttling (paper Sec. III-B1).

The policy treats each core's four prefetchers as one on/off entity.
Profiling epoch structure:

* interval 1: **always all-on** (some cores may have been throttled in
  the previous epoch; statistics need prefetchers running) — also the
  detection interval;
* interval 2: Agg-set prefetchers **off** — doubles as the
  friendliness probe and as the all-off candidate;
* then one interval per remaining on/off combination of the Agg set.
  With more Agg cores than ``max_exhaustive``, the cores are first
  clustered into at most ``n_groups`` groups by their L2 PTR (M-3)
  using 1-D k-means, and combinations are tried at group granularity
  (2^3 = 8 settings instead of 2^N).

The combination with the highest harmonic-mean IPC (the paper's proxy
for ANTT / harmonic speedup) wins and is applied for the next
execution epoch.

The plan is a :class:`~repro.core.pipeline.DecisionPipeline`
composition — Sense, Classify (with the friendliness probe doubling as
the all-off candidate), and the exhaustive/k-means throttle sweep.
"""

from __future__ import annotations

from repro.core.allocation import ResourceConfig
from repro.core.epoch import EpochContext
from repro.core.pipeline import (
    ClassifyStage,
    DecisionPipeline,
    SenseStage,
    SweepScorer,
    ThrottleSweepStage,
    off_combinations,
    throttle_groups,
)
from repro.core.policy_base import Policy, check_param

__all__ = ["PrefetchThrottlingPolicy", "off_combinations", "throttle_groups"]


class PrefetchThrottlingPolicy(Policy):
    """The paper's PT mechanism."""

    name = "pt"

    def __init__(
        self,
        *,
        max_exhaustive: int = 3,
        n_groups: int = 3,
        friendly_threshold: float = 0.50,
        selection_margin: float = 0.03,
        fine_grained: bool = False,
    ) -> None:
        self.max_exhaustive = check_param("max_exhaustive", max_exhaustive, int, 0)
        self.n_groups = check_param("n_groups", n_groups, int, 1)
        self.friendly_threshold = check_param("friendly_threshold", friendly_threshold, float, 0)
        # Intel exposes the four prefetchers individually (MSR 0x1A4);
        # the paper treats them as one on/off entity but notes the
        # framework supports finer exploration.  With ``fine_grained``
        # the winning off-set is additionally probed with only the L2
        # prefetchers disabled and only the L1 prefetchers disabled.
        self.fine_grained = check_param("fine_grained", fine_grained, bool)
        # A throttled combination must beat the all-on interval's hm-IPC
        # by this relative margin to be adopted: see SweepScorer.
        self.selection_margin = check_param("selection_margin", selection_margin, float, 0)
        self.last_agg_set: tuple[int, ...] = ()

    def _pipeline(self) -> DecisionPipeline:
        return DecisionPipeline([
            SenseStage(),
            ClassifyStage(
                probe_friendliness=True,
                friendly_threshold=self.friendly_threshold,
                empty_decision="baseline",  # nothing to throttle this epoch
            ),
            ThrottleSweepStage(
                max_exhaustive=self.max_exhaustive,
                n_groups=self.n_groups,
                fine_grained=self.fine_grained,
                scorer=SweepScorer(self.selection_margin),
            ),
        ])

    def plan(self, ctx: EpochContext) -> ResourceConfig:
        state = self._pipeline().run(ctx)
        self.last_agg_set = state.agg_set
        return state.decision
