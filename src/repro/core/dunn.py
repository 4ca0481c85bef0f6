"""Dunn — the clustering CP baseline of Selfa et al. (PACT'17).

The paper compares its CP plans against "the best known algorithm,
Dunn": cores are k-means-clustered on their STALLS_L2_PENDING counts;
each cluster is assigned a number of LLC ways that grows with its
stall count (more stalled -> more ways); the resulting partitions
partially overlap — "in fact they are nested".

We implement the nested-mask variant: clusters sorted by ascending
stalls get masks over the lowest W_1 <= W_2 <= ... <= W_k ways, with
W_k = all ways and W_j proportional to the cluster's share of total
stalls (cumulative), floored at ``min_ways``.  Dunn ignores
prefetching entirely — which is precisely the weakness the paper's
Pref-CP plans exploit.

The clustering/way-assignment math lives in
:mod:`repro.core.pipeline` (shared with CMM's option-d fallback) and
is re-exported here under its historical names; the policy itself is a
two-stage :class:`~repro.core.pipeline.DecisionPipeline`.
"""

from __future__ import annotations

from repro.core.allocation import ResourceConfig
from repro.core.epoch import EpochContext
from repro.core.pipeline import (
    DecisionPipeline,
    DunnStage,
    SenseStage,
    dunn_config,
    dunn_way_assignment,
)
from repro.core.policy_base import Policy, check_param

__all__ = ["DunnPolicy", "dunn_config", "dunn_way_assignment"]


class DunnPolicy(Policy):
    """Selfa et al.'s fairness clustering, as the paper's CP baseline."""

    name = "dunn"

    def __init__(self, *, k: int = 4) -> None:
        self.k = check_param("k", k, int, 1)

    def _pipeline(self) -> DecisionPipeline:
        return DecisionPipeline([SenseStage(), DunnStage(k=self.k)])

    def plan(self, ctx: EpochContext) -> ResourceConfig:
        return self._pipeline().run(ctx).decision
