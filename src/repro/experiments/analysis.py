"""Post-hoc analysis helpers: prefetch accuracy and decision timelines.

Real PMUs cannot measure prefetch *accuracy* (the paper's footnote 2);
the simulator can, via the used-bit bookkeeping in ``CacheStats``.
These helpers expose that ground truth for evaluation and debugging —
the CMM front-end itself never sees it, staying faithful to the
software constraints the paper operates under.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import RunStats
from repro.sim.machine import Machine


@dataclass(frozen=True)
class CoreAccuracy:
    """Ground-truth prefetch effectiveness of one core."""

    core: int
    l1_accuracy: float      # fraction of L1 prefetch fills demand-used
    l2_accuracy: float      # fraction of L2 prefetch fills demand-used
    llc_pref_fills: int     # prefetch fills that reached the shared LLC
    l2_pref_fills: int


def prefetch_accuracy(machine: Machine) -> list[CoreAccuracy]:
    """Per-core ground-truth prefetch accuracy from cache bookkeeping."""
    out = []
    llc_pref_fills = machine.llc_stats().pref_fills
    for core, cs in enumerate(machine.cores):
        if not cs.active:
            continue
        out.append(
            CoreAccuracy(
                core=core,
                l1_accuracy=cs.l1.stats.prefetch_accuracy,
                l2_accuracy=cs.l2.stats.prefetch_accuracy,
                llc_pref_fills=llc_pref_fills,
                l2_pref_fills=cs.l2.stats.pref_fills,
            )
        )
    return out


@dataclass(frozen=True)
class EpochDecision:
    """One epoch's back-end decision, summarised for inspection."""

    epoch: int
    sampling_intervals: int
    throttled_cores: tuple[int, ...]
    partitioned_cores: tuple[int, ...]  # cores in a non-default CLOS
    clos_cbm: tuple[tuple[int, int], ...]


def decision_timeline(stats: RunStats) -> list[EpochDecision]:
    """The sequence of configurations a controller run applied."""
    out = []
    for i, rec in enumerate(stats.epochs):
        cfg = rec.chosen
        out.append(
            EpochDecision(
                epoch=i,
                sampling_intervals=rec.sampling_intervals,
                throttled_cores=cfg.throttled_cores(),
                partitioned_cores=tuple(
                    c for c, clos in enumerate(cfg.core_clos) if clos != 0
                ),
                clos_cbm=cfg.clos_cbm,
            )
        )
    return out


def timeline_summary(stats: RunStats) -> str:
    """Human-readable one-line-per-epoch decision dump."""
    lines = []
    for d in decision_timeline(stats):
        cbms = ", ".join(f"clos{c}=0x{m:x}" for c, m in d.clos_cbm)
        lines.append(
            f"epoch {d.epoch}: {d.sampling_intervals} samples, "
            f"throttled={list(d.throttled_cores)}, "
            f"partitioned={list(d.partitioned_cores)}, {cbms}"
        )
    return "\n".join(lines)
