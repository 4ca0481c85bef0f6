"""PPM-group — the SPAC-style baseline the paper argues against.

Panda et al. (SPAC) classify cores by L2 prefetches-per-demand-miss
(Table I's M-6, L2 PPM) into two groups — *aggressive* and *meek* —
and throttle at group granularity.  The paper's Sec. III-A critique:
"Using this metric on the Intel L2 cache side cannot accurately
identify the Pref Agg cores", which motivates the Fig. 5 multi-stage
detector.

This policy implements the PPM two-group scheme faithfully so the
critique is testable on the substrate: cores with above-average PPM
form the aggressive group; the 2^2 group on/off settings are sampled
and scored by hm-IPC like PT.  On our workloads PPM systematically
misses `Rand Access`-like cores (their PPM is ~1: one adjacent-line
prefetch per demand miss) while flagging streamers (PPM >> 1), so it
forfeits exactly the throttling opportunities PT exploits — see
``benchmarks/bench_baseline_ppm.py``.

The plan composes the shared :class:`~repro.core.pipeline.SenseStage`
with two policy-specific stages (the PPM group split and its small
fixed-candidate sweep) — a worked example of extending the pipeline
with custom stages; see ``docs/architecture.md``.
"""

from __future__ import annotations

from repro.core.allocation import ResourceConfig
from repro.core.epoch import EpochContext, IntervalResult
from repro.core.metrics_defs import CoreSummary
from repro.core.pipeline import (
    DecisionPipeline,
    PipelineState,
    SenseStage,
    Stage,
    SweepScorer,
)
from repro.core.policy_base import Policy, check_param

__all__ = ["PPMGroupThrottlingPolicy", "ppm_groups"]


def ppm_groups(summaries: list[CoreSummary], *, ppm_floor: float = 0.05) -> tuple[list[int], list[int]]:
    """Split active cores into (aggressive, meek) by L2 PPM above mean."""
    active = [s for s in summaries if s.active]
    if not active:
        return [], []
    mean = sum(s.metrics.l2_ppm for s in active) / len(active)
    aggressive = [s.cpu for s in active if s.metrics.l2_ppm > mean and s.metrics.l2_ppm > ppm_floor]
    meek = [s.cpu for s in active if s.cpu not in aggressive]
    return sorted(aggressive), sorted(meek)


class _PPMGroupStage(Stage):
    """Classify by L2 PPM into (aggressive, meek); baseline when none."""

    name = "classify:ppm"

    def run(self, state: PipelineState) -> dict:
        aggressive, meek = ppm_groups(state.r_on.summaries)
        state.scratch["ppm_groups"] = (tuple(aggressive), tuple(meek))
        detail = {"aggressive": aggressive, "meek": meek}
        if not aggressive:
            state.decision = state.base
            detail["reason"] = "no-aggressive-group"
        return detail


class _PPMSweepStage(Stage):
    """The 2^2 group on/off sweep ({on,on} measured by the sense stage)."""

    name = "decide:ppm-sweep"

    def __init__(self, scorer: SweepScorer) -> None:
        self.scorer = scorer

    def run(self, state: PipelineState) -> dict:
        ctx, base = state.ctx, state.base
        aggressive, meek = state.scratch["ppm_groups"]
        candidates: list[tuple[int, ...]] = [aggressive]
        if meek:
            candidates += [meek, tuple(sorted(aggressive + meek))]
        best: IntervalResult | None = None
        scored = []
        truncated = False
        for off in candidates:
            if ctx.budget_left() <= 1:
                truncated = True
                break
            result = ctx.sample(base.with_prefetch_off(off))
            scored.append({"off": list(off), "hm_ipc": result.hm_ipc, "source": "sweep"})
            if self.scorer.better(result, best):
                best = result
        detail = {"candidates": scored, "margin": self.scorer.selection_margin, "truncated": truncated}
        if best is None:
            state.decision = base
            detail["reason"] = "budget-exhausted"
            return detail
        reference = self.scorer.rereference(ctx, base, state.r_on.hm_ipc)
        adopted = self.scorer.accepts(best.hm_ipc, reference)
        state.decision = best.config if adopted else base
        detail.update(
            reference_hm=reference,
            best_hm=best.hm_ipc,
            reason="adopted" if adopted else "margin-not-met",
        )
        return detail


class PPMGroupThrottlingPolicy(Policy):
    """Two-group (aggressive/meek) prefetch throttling keyed on L2 PPM."""

    name = "ppm-group"

    def __init__(self, *, selection_margin: float = 0.03) -> None:
        self.selection_margin = check_param("selection_margin", selection_margin, float, 0)
        self.last_groups: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())

    def _pipeline(self) -> DecisionPipeline:
        return DecisionPipeline([
            SenseStage(),
            _PPMGroupStage(),
            _PPMSweepStage(SweepScorer(self.selection_margin)),
        ])

    def plan(self, ctx: EpochContext) -> ResourceConfig:
        state = self._pipeline().run(ctx)
        self.last_groups = state.scratch.get("ppm_groups", ((), ()))
        return state.decision
