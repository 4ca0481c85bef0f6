"""Run (workload x mechanism) and compute the paper's metrics.

The runner builds a fresh machine per run (no state leaks between
mechanisms), attaches one benchmark trace per core, wraps the machine
in a :class:`SimulatedPlatform`, and drives it with a
:class:`CMMController` carrying the requested policy.

Execution and caching live in :mod:`repro.experiments.engine`:
an :class:`~repro.experiments.engine.ExperimentSession` deduplicates,
parallelises and persists runs, batching mix-affine ones through
:mod:`repro.experiments.batch`.  This module keeps the result types
(:class:`RunResult`, :class:`WorkloadEval`) and the machine factory;
the simulator, controller and platform load inside the functions that
run them, so replaying cached results never imports them.
The pre-engine shims (``run_mechanism``, ``run_policy_object``,
``evaluate_workload``, ``ALONE_CACHE``) were removed in 2.0 and
``AloneCache`` after 2.3.0 — see CHANGELOG.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.runstats import RunStats
from repro.core.trace import traces_to_dicts
from repro.experiments.config import ScaleConfig
from repro.sim.pmu import Event
from repro.workloads.mixes import WorkloadMix
from repro.workloads.speclike import build_trace

if TYPE_CHECKING:
    from repro.sim.machine import Machine


def mechanism_trace_length(sc: ScaleConfig) -> int:
    """Upper bound on per-core accesses a mechanism run can consume.

    Warm-up plus, per epoch, the policy's worst-case profiling budget
    and the execution interval (:class:`~repro.core.epoch.EpochConfig`
    defaults).  The trace plane materializes this many accesses up
    front; a run that somehow outruns it just drops back to live
    generation, so the bound is a sizing hint, not a correctness limit.
    """
    from repro.core.epoch import EpochConfig

    cfg = EpochConfig(exec_units=sc.exec_units, sample_units=sc.sample_units)
    per_epoch = cfg.max_sampling_intervals * cfg.sample_units + cfg.exec_units
    return cfg.warmup_units + sc.n_epochs * per_epoch


def drive_mechanism(machine: Machine, mechanism: str, sc: ScaleConfig, params: tuple = ()) -> RunStats:
    """Drive one machine with a named policy, its constructor given the
    ``(name, value)`` pairs ``params`` — the scalar semantics.

    The single place controller construction for a mechanism run lives:
    the session's scalar and pool paths and the lockstep drivers all
    call this, so every path is the same controller fed the same
    :class:`~repro.core.epoch.EpochConfig`.
    """
    from repro.core.controller import CMMController
    from repro.core.epoch import EpochConfig
    from repro.core.policies import make_policy
    from repro.platform.simulated import SimulatedPlatform

    controller = CMMController(
        SimulatedPlatform(machine),
        make_policy(mechanism, **dict(params)),
        epoch_cfg=EpochConfig(exec_units=sc.exec_units, sample_units=sc.sample_units),
    )
    return controller.run(sc.n_epochs)


def mechanism_payload(stats: RunStats) -> dict:
    """A mechanism run's result payload, the same from every execution path.

    The session stores ``"traces"`` *beside* the result (<key>.traces.json).
    """
    return {
        "n_cores": stats.n_cores,
        "cycles_per_second": stats.cycles_per_second,
        "wall_cycles": stats.wall_cycles,
        "totals": stats.totals.tolist(),
        "n_epochs": len(stats.epochs),
        "traces": traces_to_dicts(stats.traces),
    }


def build_machine(
    mix: WorkloadMix, sc: ScaleConfig, *, trace_store=None, engine=None
) -> Machine:
    """A fresh machine with the mix's benchmarks attached, one per core.

    ``trace_store`` (a :class:`~repro.sim.tracestore.TraceStore` or a
    worker-side manifest view) serves materialized traces instead of
    synthesising fresh generators — bit-identical either way.  ``None``
    (the default) keeps the classic live-generation path.  ``engine``
    pins a simulation engine (differential tests, bench lanes); ``None``
    keeps the normal params/env/auto resolution.
    """
    from repro.sim.machine import Machine

    params = sc.params()
    if mix.n_cores > params.n_cores:
        raise ValueError(f"mix {mix.name} needs {mix.n_cores} cores, machine has {params.n_cores}")
    m = Machine(params, quantum=sc.quantum, engine=engine)
    length = mechanism_trace_length(sc) if trace_store is not None else 0
    for core, bench in enumerate(mix.benchmarks):
        trace = None
        if trace_store is not None:
            trace = trace_store.trace_for(
                bench,
                llc_lines=params.llc.lines,
                base_line=m.core_base_line(core),
                seed=mix.seed + core,
                length=length,
            )
        if trace is None:
            trace = build_trace(
                bench,
                llc_lines=params.llc.lines,
                base_line=m.core_base_line(core),
                seed=mix.seed + core,
            )
        m.attach_trace(core, trace)
    return m


@dataclass
class RunResult:
    """Outcome of one (workload, mechanism) run."""

    mix: WorkloadMix
    mechanism: str
    stats: RunStats

    @property
    def ipc(self) -> np.ndarray:
        return self.stats.ipc_all()[: self.mix.n_cores]

    @property
    def mem_bandwidth_mbs(self) -> float:
        return self.stats.mem_bandwidth_mbs()

    @property
    def total_stalls(self) -> float:
        return self.stats.total(Event.STALLS_L2_PENDING)

    @property
    def stalls_per_kinst(self) -> float:
        """L2-pending stall cycles per kilo-instruction.

        Normalizing by work (not run length) keeps the comparison fair:
        managed runs include profiling intervals the baseline lacks.
        """
        inst = self.stats.total(Event.INSTRUCTIONS)
        return 1000.0 * self.total_stalls / inst if inst > 0 else 0.0


@dataclass
class WorkloadEval:
    """One workload evaluated under several mechanisms."""

    mix: WorkloadMix
    baseline: RunResult
    runs: dict[str, RunResult]
    alone_ipc: np.ndarray
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)

    def metric(self, mechanism: str, name: str) -> float:
        return self.metrics[mechanism][name]
