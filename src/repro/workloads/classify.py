"""Measured benchmark classification — the criteria of Figs. 1-3.

The paper classifies benchmarks from single-core measurements
(Sec. IV-B):

1. *prefetch aggressive* — demand bandwidth above 1500 MB/s AND
   bandwidth increase from prefetching above 50 % (Fig. 1);
2. *prefetch friendly* — IPC speedup from prefetching above 30 %
   (Fig. 2);
3. *LLC sensitive* — needs at least 8 ways to reach 80 % of its best
   performance (Fig. 3).

This module measures those quantities on the simulator by running a
benchmark alone (prefetchers on/off, way sweeps via CAT) and applies
the same thresholds.  Tests verify the measured classes match each
registry entry's intended flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.params import MachineParams
from repro.sim.pmu import Event, PmuSample
from repro.workloads.speclike import BenchmarkSpec, benchmark, build_trace

if TYPE_CHECKING:
    from repro.sim.machine import Machine

#: Paper thresholds.
BW_DEMAND_MIN_MBS = 1500.0
BW_INCREASE_MIN = 0.50
IPC_SPEEDUP_MIN = 0.30
LLC_SENSITIVE_MIN_WAYS = 8
LLC_SENSITIVE_PERF_FRAC = 0.80

DEFAULT_WAY_SWEEP = (1, 2, 4, 6, 8, 12, 16, 20)

#: The quantum every profile run uses, whatever the scale's own quantum
#: (alone runs use the scale's: 512 at tiny).  The two never need to be
#: reconciled for one simulation to serve both: the single-core plane
#: (:mod:`repro.sim.singlecore`) chunks a shared pass at the union of
#: every row's quantum boundaries and warm-up split, and per-quantum
#: counters are exact sums of their chunks', so every row keeps its own
#: quanta and no result digest changes.
PROFILE_QUANTUM = 1024


@dataclass
class AloneProfile:
    """Single-core measurements of one benchmark."""

    name: str
    ipc_on: float
    ipc_off: float
    demand_bw_off_mbs: float   # demand bandwidth, prefetchers off
    total_bw_on_mbs: float     # demand+prefetch bandwidth, prefetchers on
    demand_bw_on_mbs: float
    ipc_by_ways: dict[int, float] = field(default_factory=dict)

    @property
    def prefetch_speedup(self) -> float:
        return self.ipc_on / self.ipc_off - 1.0 if self.ipc_off > 0 else 0.0

    @property
    def bw_increase(self) -> float:
        base = self.demand_bw_off_mbs
        return (self.total_bw_on_mbs - base) / base if base > 0 else 0.0

    def min_ways_for_frac(self, frac: float = LLC_SENSITIVE_PERF_FRAC) -> int:
        """Fewest swept ways reaching ``frac`` of the best swept IPC."""
        if not self.ipc_by_ways:
            raise ValueError("no way sweep recorded")
        best = max(self.ipc_by_ways.values())
        for w in sorted(self.ipc_by_ways):
            if self.ipc_by_ways[w] >= frac * best:
                return w
        return max(self.ipc_by_ways)


@dataclass(frozen=True)
class MeasuredClass:
    pref_aggressive: bool
    pref_friendly: bool
    llc_sensitive: bool


def run_alone(
    spec: BenchmarkSpec | str,
    params: MachineParams,
    n_accesses: int,
    *,
    seed: int = 0,
    prefetch_mask: int = 0x0,
    ways: int | None = None,
    quantum: int = PROFILE_QUANTUM,
    warmup: int = 0,
    trace_store=None,
    engine: str | None = None,
) -> tuple[Machine, tuple]:
    """Run a benchmark alone on core 0.

    ``warmup`` accesses are executed before the PMU snapshot so caches
    reach steady state; the returned snapshot marks the measured
    window's start.  Returns ``(machine, snapshot)``.

    ``trace_store`` serves the trace from the materialized plane
    (:mod:`repro.sim.tracestore`) — a profile way-sweep re-runs the
    *same* trace a dozen times, which the store generates exactly once.
    ``engine`` names the machine's simulation engine (``None`` resolves
    as a bare :class:`~repro.sim.machine.Machine` does).
    """
    from repro.sim.cat import low_ways_mask
    from repro.sim.machine import Machine

    if isinstance(spec, str):
        spec = benchmark(spec)
    m = Machine(params, quantum=quantum, engine=engine)
    trace = None
    if trace_store is not None:
        trace = trace_store.trace_for(
            spec,
            llc_lines=params.llc.lines,
            base_line=m.core_base_line(0),
            seed=seed,
            length=warmup + n_accesses,
        )
    if trace is None:
        trace = build_trace(
            spec, llc_lines=params.llc.lines, base_line=m.core_base_line(0), seed=seed
        )
    m.attach_trace(0, trace)
    m.prefetch_msr.set_mask(0, prefetch_mask)
    if ways is not None:
        m.cat.set_cbm(1, low_ways_mask(ways, params.llc.ways))
        m.cat.assign_core(0, 1)
    if warmup > 0:
        m.run_accesses(warmup)
    snap = m.pmu.snapshot()
    m.run_accesses(n_accesses)
    return m, snap


def _ipc_and_bw(sample: PmuSample, params: MachineParams) -> tuple[float, float, float]:
    cyc = sample.get(0, Event.CYCLES)
    if cyc <= 0:
        return 0.0, 0.0, 0.0
    ipc = sample.get(0, Event.INSTRUCTIONS) / cyc
    secs = cyc / params.cycles_per_second
    demand_mbs = sample.get(0, Event.MEM_DEMAND_BYTES) / secs / 1e6
    pref_mbs = sample.get(0, Event.MEM_PREF_BYTES) / secs / 1e6
    return ipc, demand_mbs, demand_mbs + pref_mbs


def profile_from_samples(
    name: str,
    params: MachineParams,
    on: PmuSample,
    off: PmuSample,
    by_ways: dict[int, PmuSample],
) -> AloneProfile:
    """An :class:`AloneProfile` from its runs' measured-window PMU deltas.

    ``on``/``off`` are the prefetchers-on/off runs and ``by_ways`` the
    way-sweep runs, however they were simulated (scalar machines in
    :func:`profile_benchmark`, the single-core plane in the experiment
    engine).
    """
    ipc_on, demand_on, total_on = _ipc_and_bw(on, params)
    ipc_off, demand_off, _ = _ipc_and_bw(off, params)
    return AloneProfile(
        name=name,
        ipc_on=ipc_on,
        ipc_off=ipc_off,
        demand_bw_off_mbs=demand_off,
        total_bw_on_mbs=total_on,
        demand_bw_on_mbs=demand_on,
        ipc_by_ways={w: _ipc_and_bw(s, params)[0] for w, s in by_ways.items()},
    )


def profile_benchmark(
    spec: BenchmarkSpec | str,
    params: MachineParams,
    n_accesses: int,
    *,
    seed: int = 0,
    warmup: int | None = None,
    way_sweep: tuple[int, ...] | None = None,
    trace_store=None,
    engine: str | None = None,
) -> AloneProfile:
    """Measure everything Figs. 1-3 need for one benchmark.

    ``warmup`` defaults to ``n_accesses`` (one full measured-window
    length) so pointer-chase working sets are resident before timing.
    """
    if isinstance(spec, str):
        spec = benchmark(spec)
    if warmup is None:
        warmup = n_accesses

    def measure(**kw) -> PmuSample:
        m, snap = run_alone(
            spec, params, n_accesses, seed=seed, warmup=warmup, trace_store=trace_store,
            engine=engine, **kw
        )
        return m.pmu.delta_since(snap)

    return profile_from_samples(
        spec.name,
        params,
        measure(prefetch_mask=0x0),
        measure(prefetch_mask=0xF),
        {w: measure(ways=w) for w in swept_ways(way_sweep, params)},
    )


def swept_ways(way_sweep: tuple[int, ...] | None, params: MachineParams) -> list[int]:
    """The way-sweep points a profile measures: those the LLC has."""
    return [w for w in way_sweep or () if w <= params.llc.ways]


def classify(profile: AloneProfile) -> MeasuredClass:
    """Apply the paper's thresholds to a measured profile."""
    aggressive = (
        profile.demand_bw_off_mbs > BW_DEMAND_MIN_MBS and profile.bw_increase > BW_INCREASE_MIN
    )
    friendly = aggressive and profile.prefetch_speedup > IPC_SPEEDUP_MIN
    sensitive = False
    if profile.ipc_by_ways:
        sensitive = profile.min_ways_for_frac() >= LLC_SENSITIVE_MIN_WAYS
    return MeasuredClass(aggressive, friendly, sensitive)
