"""Batched multi-run execution: ``repro.simulate_batch`` and the
session's mix-affine group dispatch.

This is the experiment-layer face of the sim-layer batch kernel
(:mod:`repro.sim.batch`).  A *batch* is a set of runs over the **same
workload mix** — the natural shape of the paper's sweeps (one mix under
PT / Dunn / CMM / partition-size ablations).  All runs share one
:class:`~repro.sim.batch.BatchKernel` (a single materialized trace per
core) and advance on one run-axis plane: a
:class:`~repro.sim.batch.GroupedCore` per core and one grouped LLC.

Three entry points:

* :func:`simulate_batch` — public API (re-exported as
  ``repro.simulate_batch``): takes *static* :class:`BatchRunSpec` rows
  (a prefetch-mask / CAT configuration run for a fixed access count)
  and returns one :class:`~repro.core.controller.RunStats` per spec.
  Specs sharing a mix, a prefetch-mask vector and an access count go
  through :func:`~repro.sim.batch.run_static_sweep`; a singleton, or a
  sweep that failed (counted by ``batch.degradation_count()``), runs on
  its own scalar ``fast`` :class:`~repro.sim.machine.Machine`.
  Mechanism runs are session plans (``session.execute`` /
  ``session.sweep``), which are cached, keyed and batched below.
* :func:`compute_mechanism_group` — the executor's
  (:mod:`repro.experiments.pool`) mechanism-group task: it runs a
  mix-affine group of planned mechanism runs in **masked lockstep**:
  every run's controller loop advances together with per-run
  prefetch-mask and CAT-allow tensors applied per quantum, so runs
  stay batched even after their policies diverge.  Payloads are
  byte-identical to the scalar ``_compute_mechanism`` path; a group
  that fails raises and the executor re-runs its members there.
* :func:`compute_single_core_group` — the executor's single-core shard
  task: profile and alone runs of one scale on the single-core plane.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.controller import RunStats
from repro.core.policy_base import check_param
from repro.experiments.config import ScaleConfig, get_scale
from repro.experiments.runner import (
    build_machine, drive_mechanism, mechanism_payload, mechanism_trace_length,
)
from repro.sim.batch import BatchKernel, LockstepGroup, note_degradation, run_static_sweep
from repro.sim.machine import CORE_ADDRESS_STRIDE_LINES
from repro.sim.tracestore import TraceStore
from repro.workloads.mixes import WorkloadMix

__all__ = ["BatchRunSpec", "simulate_batch", "compute_mechanism_group"]


@dataclass(frozen=True)
class BatchRunSpec:
    """One static run in a batch: a control configuration run for
    ``n_accesses`` accesses per core.

    ``masks`` are per-core MSR 0x1A4 prefetcher masks; ``clos_cbms`` are
    ``(clos, cbm)`` CAT writes and ``core_clos`` the per-core CLOS
    assignment — all applied before the run starts.
    """

    mix: WorkloadMix
    n_accesses: int
    masks: tuple[int, ...] = ()
    clos_cbms: tuple[tuple[int, int], ...] = ()
    core_clos: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_param("n_accesses", self.n_accesses, int, 0, strict=True)


def _mix_key(mix: WorkloadMix) -> tuple:
    return (mix.name, mix.seed, tuple(mix.benchmarks))


def _forkable_trace(trace_store, spec, **kw):
    """A forkable trace: ``trace_store``'s, or one made here when a worker's manifest misses it."""
    return trace_store.trace_for(spec, **kw) or TraceStore().trace_for(spec, **kw)


def build_batch_kernel(
    mix: WorkloadMix, sc: ScaleConfig, trace_store, *, length: int | None = None
) -> BatchKernel:
    """A shared kernel for ``mix`` over ``trace_store``'s traces.

    Every core's trace is a forkable
    :class:`~repro.sim.tracestore.MaterializedTrace`; the request
    mirrors :func:`repro.experiments.runner.build_machine` byte for
    byte (same llc_lines / base_line / seed / length), which is what
    makes batch results bit-identical to scalar ones.
    """
    params = sc.params()
    if mix.n_cores > params.n_cores:
        raise ValueError(f"mix {mix.name} needs {mix.n_cores} cores, machine has {params.n_cores}")
    length = length if length is not None else mechanism_trace_length(sc)
    kernel = BatchKernel(params, quantum=sc.quantum)
    for core, bench in enumerate(mix.benchmarks):
        trace = _forkable_trace(
            trace_store,
            bench,
            llc_lines=params.llc.lines,
            base_line=core * CORE_ADDRESS_STRIDE_LINES,
            seed=mix.seed + core,
            length=length,
        )
        kernel.add_core(core, trace)
    return kernel


def _run_static(machine, spec: BatchRunSpec) -> RunStats:
    for cpu, mask in enumerate(spec.masks):
        machine.prefetch_msr.set_mask(cpu, mask)
    for clos, cbm in spec.clos_cbms:
        machine.cat.set_cbm(clos, cbm)
    for cpu, clos in enumerate(spec.core_clos):
        machine.cat.assign_core(cpu, clos)
    snap = machine.pmu.snapshot()
    machine.run_accesses(spec.n_accesses)
    sample = machine.pmu.delta_since(snap)
    return RunStats(
        n_cores=machine.params.n_cores,
        cycles_per_second=machine.params.cycles_per_second,
        totals=sample.deltas,
        wall_cycles=sample.wall_cycles,
        epochs=[],
    )


def simulate_batch(
    specs,
    sc: ScaleConfig | None = None,
    *,
    trace_store=None,
) -> list[RunStats]:
    """Run every spec, batching runs that share a mix; one RunStats each.

    ``trace_store`` defaults to the default session's store.
    """
    specs = list(specs)
    if not specs:
        return []
    sc = sc or get_scale()
    if trace_store is None:
        from repro.experiments.engine import default_session

        trace_store = default_session().trace_store
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        if not isinstance(spec, BatchRunSpec):
            raise TypeError(f"simulate_batch takes BatchRunSpec rows, got {type(spec).__name__}")
        groups.setdefault(_mix_key(spec.mix), []).append(i)

    out: list[RunStats | None] = [None] * len(specs)
    for indices in groups.values():
        results: dict[int, RunStats] = {}
        if len(indices) >= 2:  # a singleton has nothing to share
            mix = specs[indices[0]].mix
            length = max(specs[i].n_accesses for i in indices)
            kernel = build_batch_kernel(mix, sc, trace_store, length=length)
            results = _run_lockstep_sweeps(kernel, specs, indices)
        for i in indices:
            if i in results:
                out[i] = results[i]
            else:
                machine = build_machine(specs[i].mix, sc, trace_store=trace_store)
                out[i] = _run_static(machine, specs[i])
    return out


def _run_lockstep_sweeps(kernel: BatchKernel, specs, indices):
    """Run static sub-groups in lockstep; return ``{index: RunStats}``.

    Static specs sharing one (pf-mask vector, access count) pair have
    identical core phases and merged request streams, so they advance
    through :func:`repro.sim.batch.run_static_sweep`'s grouped SoA LLC
    in a single pass — the sweep shape where the batch engine's ~Nx
    throughput comes from.  Sub-groups of one are left to the caller's
    per-run path, as are the indices of a sweep that fails (bit-identical,
    counted by :func:`~repro.sim.batch.note_degradation`).
    """
    results: dict[int, RunStats] = {}
    sweeps: dict[tuple, list[int]] = {}
    for i in indices:
        spec = specs[i]
        sweeps.setdefault((spec.masks, spec.n_accesses), []).append(i)
    params = kernel.params
    for (masks, n_acc), idxs in sweeps.items():
        if len(idxs) < 2:
            continue
        configs = [(specs[i].clos_cbms, specs[i].core_clos) for i in idxs]
        try:
            rows = run_static_sweep(kernel, configs, masks, n_acc)
        except Exception:
            note_degradation()
            continue  # per-run fallback handles these indices
        for i, row in zip(idxs, rows):
            results[i] = RunStats(
                n_cores=params.n_cores,
                cycles_per_second=params.cycles_per_second,
                totals=row.pmu_counts,
                wall_cycles=row.wall_cycles,
                epochs=[],
            )
    return results


def compute_single_core_group(runs, trace_store) -> list[tuple[dict, float, list]]:
    """Profile and alone runs of one scale on the single-core plane.

    ``runs`` are :class:`~repro.experiments.engine.PlannedRun` rows of
    kind ``profile`` or ``alone`` sharing one scale.  All their
    simulations go through one :func:`repro.sim.singlecore.
    run_single_core` call: a profile is an on row, an off row and one
    row per way-sweep point, an alone run one row on the same trace
    (its window is a prefix of the profile's on-pass).  Returns
    ``(payload, seconds, answered)`` per run, payloads byte-identical to
    the scalar ``_compute_profile`` / ``_compute_alone`` ones;
    ``answered`` holds the ``(alone run, payload)`` of each profiled
    benchmark with no alone run in ``runs``, for the session to store.
    """
    from repro.experiments.engine import KIND_ALONE, KIND_PROFILE, PlannedRun, _profile_payload
    from repro.sim.msr import PF_ALL_OFF
    from repro.sim.singlecore import SingleCoreRow, run_single_core
    from repro.workloads.classify import PROFILE_QUANTUM, profile_from_samples, swept_ways

    t0 = time.perf_counter()
    sc = runs[0].sc
    params = sc.params()
    planned_alone = dict.fromkeys(r.bench for r in runs if r.kind == KIND_ALONE)
    extra = {
        r.bench: PlannedRun(KIND_ALONE, sc, bench=r.bench)
        for r in runs if r.kind == KIND_PROFILE and r.bench not in planned_alone
    }
    rows: dict[SingleCoreRow, int] = {}

    def row(bench: str, quantum: int, window: int, mask: int = 0x0, ways: int | None = None) -> int:
        """A warm-up lap of ``window`` accesses, then a measured one."""
        key = SingleCoreRow(bench, mask, ways, quantum, window, window)
        return rows.setdefault(key, len(rows))

    n = sc.profile_accesses
    alone_row = {
        bench: row(bench, sc.quantum, sc.alone_accesses) for bench in (*planned_alone, *extra)
    }
    profile_rows = {}
    for r in runs:
        if r.kind == KIND_PROFILE:
            profile_rows[r] = (
                row(r.bench, PROFILE_QUANTUM, n),
                row(r.bench, PROFILE_QUANTUM, n, PF_ALL_OFF),
                {w: row(r.bench, PROFILE_QUANTUM, n, ways=w) for w in swept_ways(r.way_sweep, params)},
            )
    traces = {}
    for bench in dict.fromkeys(key.trace for key in rows):
        length = max(key.end for key in rows if key.trace == bench)
        traces[bench] = _forkable_trace(
            trace_store, bench, llc_lines=params.llc.lines, base_line=0, seed=0, length=length
        )
    samples = run_single_core(params, list(rows), traces)

    def alone_payload(bench: str) -> dict:
        return {"ipc": samples[alone_row[bench]].ipc(0)}

    out = []
    for r in runs:
        if r.kind == KIND_ALONE:
            payload, answered = alone_payload(r.bench), []
        else:
            on, off, ways = profile_rows[r]
            payload = _profile_payload(profile_from_samples(
                r.bench, params, samples[on], samples[off],
                {w: samples[i] for w, i in ways.items()},
            ))
            x = extra.get(r.bench)
            answered = [(x, alone_payload(r.bench))] if x is not None else []
        out.append((payload, answered))
    per_run = (time.perf_counter() - t0) / len(runs)
    return [(payload, per_run, answered) for payload, answered in out]


def compute_mechanism_group(runs, trace_store) -> list[tuple[dict, float]]:
    """Run a mix-affine group of planned mechanism runs in masked lockstep.

    ``runs`` are :class:`~repro.experiments.engine.PlannedRun` rows of
    kind ``mechanism`` sharing one mix and scale; their mechanisms and
    params may differ.  Every run gets its own unmodified controller loop
    on a :class:`~repro.sim.batch.LockstepMachine`; the group shares one
    :class:`~repro.sim.batch.GroupedCore` per core and one grouped LLC.
    Returns ``(payload, seconds)`` per run, the payload byte-identical to
    the scalar ``_compute_mechanism`` one.  A group that cannot complete
    batched raises :class:`~repro.sim.batch.LockstepError`; the executor
    re-runs its members per run.
    """
    sc = runs[0].sc
    kernel = build_batch_kernel(runs[0].mix, sc, trace_store)
    t0 = time.perf_counter()
    group = LockstepGroup(kernel, len(runs))
    drivers = [
        (lambda m, _r=r: drive_mechanism(m, _r.mechanism, sc, _r.params)) for r in runs
    ]
    all_stats = group.run(drivers)
    per_run = (time.perf_counter() - t0) / len(runs)
    return [(mechanism_payload(stats), per_run) for stats in all_stats]
