"""CMM-a/b/c — coordinated throttling + partitioning (Sec. III-B3, Fig. 6).

All three variants first partition, then apply *group-level prefetch
throttling only to the prefetch-unfriendly Agg cores* (friendly cores
always keep their prefetchers — the whole point of coordinating the two
resources is not having to sacrifice useful prefetching):

* **CMM-a** — the entire Agg set goes into one small partition;
* **CMM-b** — only the prefetch-*friendly* cores go into the small
  partition; unfriendly + neutral share the whole cache;
* **CMM-c** — friendly cores in one small partition, unfriendly cores
  in a second, separate small partition;
* **(d)** — when the Agg set is empty there is nothing to throttle:
  CMM falls back to the Dunn clustering partitioner.

Throttle combinations are sampled *with the partitions already
applied* so the hm-IPC scores reflect the coordinated configuration.

The plan is a :class:`~repro.core.pipeline.DecisionPipeline`: Sense →
Classify (with friendliness probe) → Dunn fallback (option d) →
Partition (variant layout; decides alone when no unfriendly cores
exist) → coordinated throttle sweep.
"""

from __future__ import annotations

from repro.core.allocation import ResourceConfig
from repro.core.epoch import EpochContext
from repro.core.pipeline import (
    LAYOUT_AGG,
    LAYOUT_FRIENDLY,
    LAYOUT_SPLIT,
    PARTITION_FACTOR,
    ClassifyStage,
    CoordinatedThrottleStage,
    DecisionPipeline,
    DunnStage,
    PartitionStage,
    SenseStage,
    SweepScorer,
    partition_layout,
)
from repro.core.policy_base import Policy, check_param

VARIANTS = ("a", "b", "c")

#: CMM variant letter → partition layout of Fig. 6.
VARIANT_LAYOUTS = {"a": LAYOUT_AGG, "b": LAYOUT_FRIENDLY, "c": LAYOUT_SPLIT}


class CMMPolicy(Policy):
    """One of the coordinated variants of Fig. 6."""

    def __init__(
        self,
        variant: str = "a",
        *,
        friendly_threshold: float = 0.50,
        max_exhaustive: int = 3,
        n_groups: int = 3,
        dunn_k: int = 4,
        selection_margin: float = 0.03,
        partition_factor: float | None = None,
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        self.variant = variant
        self.name = f"cmm-{variant}"
        self.friendly_threshold = check_param("friendly_threshold", friendly_threshold, float, 0)
        self.max_exhaustive = check_param("max_exhaustive", max_exhaustive, int, 0)
        self.n_groups = check_param("n_groups", n_groups, int, 1)
        self.dunn_k = check_param("dunn_k", dunn_k, int, 1)
        # Same hysteresis as PT: a throttled combination must beat the
        # partitioned-but-unthrottled interval by this relative margin.
        self.selection_margin = check_param("selection_margin", selection_margin, float, 0)
        self.partition_factor = check_param(
            "partition_factor",
            PARTITION_FACTOR if partition_factor is None else partition_factor,
            float, 0, strict=True,
        )
        self.last_agg_set: tuple[int, ...] = ()
        self.last_split: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())

    # ------------------------------------------------------ partitions

    def _partitioned(
        self,
        base: ResourceConfig,
        friendly: tuple[int, ...],
        unfriendly: tuple[int, ...],
        llc_ways: int,
    ) -> ResourceConfig:
        """The variant's partition layout (kept for tests/benchmarks)."""
        return partition_layout(
            VARIANT_LAYOUTS[self.variant],
            base,
            tuple(sorted(friendly + unfriendly)),
            friendly,
            unfriendly,
            llc_ways,
            factor=self.partition_factor,
        )

    # ------------------------------------------------------------ plan

    def _pipeline(self) -> DecisionPipeline:
        return DecisionPipeline([
            SenseStage(),
            ClassifyStage(
                probe_friendliness=True,
                friendly_threshold=self.friendly_threshold,
                empty_decision=None,  # option (d) decides instead
            ),
            DunnStage(k=self.dunn_k, only_when_agg_empty=True),
            PartitionStage(
                VARIANT_LAYOUTS[self.variant],
                factor=self.partition_factor,
                decide="no_unfriendly",  # "If no such cores are found, only CP"
            ),
            CoordinatedThrottleStage(
                max_exhaustive=self.max_exhaustive,
                n_groups=self.n_groups,
                scorer=SweepScorer(self.selection_margin),
            ),
        ])

    def plan(self, ctx: EpochContext) -> ResourceConfig:
        state = self._pipeline().run(ctx)
        self.last_agg_set = state.agg_set
        if state.agg_set:
            self.last_split = (state.friendly, state.unfriendly)
        return state.decision
