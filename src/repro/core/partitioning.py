"""CP — prefetch-aware cache partitioning (paper Sec. III-B2).

Two plans, both leaving every prefetcher enabled:

* **Pref-CP** — the whole Agg set shares one small partition (the low
  ways); neutral cores keep the full mask (overlapping partitioning, as
  the paper uses).
* **Pref-CP2** — the Agg set is split into prefetch-friendly and
  prefetch-unfriendly subsets, each in its own *separate* small
  partition; neutral cores keep the full mask.

Partition sizing follows the paper's empirical rule: 1.5x the number
of cores in the partition, in ways ("a partition size of 1.5 times the
size of the Agg set works well"), clamped to the CAT constraints.

Both plans are :class:`~repro.core.pipeline.DecisionPipeline`
compositions over the shared :class:`~repro.core.pipeline.
PartitionStage`; the sizing/layout math itself lives in
:mod:`repro.core.pipeline` and is re-exported here under its
historical names.
"""

from __future__ import annotations

from repro.core.allocation import ResourceConfig
from repro.core.epoch import EpochContext
from repro.core.pipeline import (
    CLOS_AGG,
    CLOS_NEUTRAL,
    CLOS_UNFRIENDLY,
    LAYOUT_AGG,
    LAYOUT_SPLIT,
    PARTITION_FACTOR,
    ClassifyStage,
    DecisionPipeline,
    PartitionStage,
    SenseStage,
    contiguous_mask,
    partition_layout,
    partition_ways,
)
from repro.core.policy_base import Policy, check_param

__all__ = [
    "CLOS_AGG",
    "CLOS_NEUTRAL",
    "CLOS_UNFRIENDLY",
    "PARTITION_FACTOR",
    "PrefCPPolicy",
    "PrefCP2Policy",
    "contiguous_mask",
    "partition_layout",
    "partition_ways",
]


class PrefCPPolicy(Policy):
    """Pref-CP: Agg set into one small partition; prefetchers untouched."""

    name = "pref-cp"

    def __init__(self, *, partition_factor: float = PARTITION_FACTOR) -> None:
        self.partition_factor = check_param("partition_factor", partition_factor, float, 0, strict=True)
        self.last_agg_set: tuple[int, ...] = ()

    def _pipeline(self) -> DecisionPipeline:
        return DecisionPipeline([
            SenseStage(),
            ClassifyStage(empty_decision="baseline"),
            PartitionStage(LAYOUT_AGG, factor=self.partition_factor, decide="always"),
        ])

    def plan(self, ctx: EpochContext) -> ResourceConfig:
        state = self._pipeline().run(ctx)
        self.last_agg_set = state.agg_set
        return state.decision


class PrefCP2Policy(Policy):
    """Pref-CP2: separate small partitions for friendly and unfriendly."""

    name = "pref-cp2"

    def __init__(self, *, friendly_threshold: float = 0.50) -> None:
        self.friendly_threshold = check_param("friendly_threshold", friendly_threshold, float, 0)
        self.last_agg_set: tuple[int, ...] = ()
        self.last_split: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())

    def _pipeline(self) -> DecisionPipeline:
        return DecisionPipeline([
            SenseStage(),
            ClassifyStage(
                probe_friendliness=True,
                friendly_threshold=self.friendly_threshold,
                empty_decision="baseline",
            ),
            PartitionStage(LAYOUT_SPLIT, decide="always"),
        ])

    def plan(self, ctx: EpochContext) -> ResourceConfig:
        state = self._pipeline().run(ctx)
        self.last_agg_set = state.agg_set
        if state.agg_set:
            self.last_split = (state.friendly, state.unfriendly)
        return state.decision
