"""Batched multi-run execution: ``repro.simulate_batch`` and the
session's mix-affine group dispatch.

This is the experiment-layer face of the sim-layer batch kernel
(:mod:`repro.sim.batch`).  A *batch* is a set of runs over the **same
workload mix** — the natural shape of the paper's sweeps (one mix under
PT / Dunn / CMM / partition-size ablations).  All runs share one
:class:`~repro.sim.batch.BatchKernel` (a single materialized trace per
core) and advance on one run-axis plane: a
:class:`~repro.sim.batch.GroupedCore` per core and one grouped LLC.
Static specs sharing a prefetch-mask vector and access count go
through :func:`~repro.sim.batch.run_static_sweep`; groups of 2+
mechanism runs execute in **masked lockstep**
(:func:`_lockstep_mechanisms`), every run's controller loop advancing
together with per-run prefetch-mask and CAT-allow tensors applied per
quantum, so runs stay batched even after their policies diverge.

The fallback ladder has two rungs.  Whatever the plane does not take —
a singleton, a sweep or lockstep group that failed — runs per run on a
plain scalar ``fast`` :class:`~repro.sim.machine.Machine`.  The trace
store always serves forkable materialized traces, so every group of
two or more starts on the first rung.  Results are bit-identical on
either rung; a group that *fell* to the second one is counted
(``batch.degradation_count()``, ``RunStats.batch_degradations``).

Two entry points:

* :func:`simulate_batch` — public API (re-exported as
  ``repro.simulate_batch``): takes :class:`BatchRunSpec` rows (either a
  named mechanism driven by the CMM controller, or a *static*
  prefetch-mask / CAT configuration run for a fixed access count) and
  returns one :class:`~repro.core.controller.RunStats` per spec.
  Specs are grouped by mix; a singleton group runs on its own
  scalar-fast machine.
* :func:`compute_mechanism_group` — used by
  ``ExperimentSession._execute_serial`` to batch a mix-affine group of
  planned mechanism runs; payloads are byte-identical to the scalar
  ``_compute_mechanism`` path, so the result cache cannot tell (and
  does not care) which path produced an entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.controller import RunStats
from repro.experiments.config import ScaleConfig, get_scale
from repro.experiments.runner import (
    build_machine, drive_mechanism, mechanism_payload, mechanism_trace_length,
)
from repro.sim.batch import (
    BatchKernel,
    LockstepError,
    LockstepGroup,
    note_degradation,
    run_static_sweep,
)
from repro.sim.machine import CORE_ADDRESS_STRIDE_LINES
from repro.workloads.mixes import WorkloadMix

__all__ = ["BatchRunSpec", "simulate_batch", "compute_mechanism_group"]


@dataclass(frozen=True)
class BatchRunSpec:
    """One run in a batch: a mechanism, or a static control configuration.

    Exactly one of ``mechanism`` (controller-driven, ``sc.n_epochs``
    epochs) or ``n_accesses`` (static: apply ``masks`` / CAT and run
    that many accesses per core) must be set.  ``masks`` are per-core
    MSR 0x1A4 prefetcher masks; ``clos_cbms`` are ``(clos, cbm)`` CAT
    writes and ``core_clos`` the per-core CLOS assignment — all applied
    before the run starts (mechanism runs take control afterwards).
    """

    mix: WorkloadMix
    mechanism: str | None = None
    n_accesses: int | None = None
    masks: tuple[int, ...] = ()
    clos_cbms: tuple[tuple[int, int], ...] = ()
    core_clos: tuple[int, ...] = ()
    label: str | None = None

    def __post_init__(self) -> None:
        if (self.mechanism is None) == (self.n_accesses is None):
            raise ValueError("set exactly one of mechanism= or n_accesses=")

    @property
    def name(self) -> str:
        return self.label or self.mechanism or f"static:{self.n_accesses}"


def _mix_key(mix: WorkloadMix) -> tuple:
    return (mix.name, mix.seed, tuple(mix.benchmarks))


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
        trace = trace_store.trace_for(
            bench,
            llc_lines=params.llc.lines,
            base_line=core * CORE_ADDRESS_STRIDE_LINES,
            seed=mix.seed + core,
            length=length,
        )
        kernel.add_core(core, trace)
    return kernel


def _lockstep_mechanisms(kernel: BatchKernel, policies, sc: ScaleConfig) -> list[RunStats]:
    """Run ``(mechanism, params)`` pairs in masked lockstep; one RunStats each.

    Every run gets its own unmodified controller loop on a
    :class:`~repro.sim.batch.LockstepMachine`; the group shares one
    :class:`~repro.sim.batch.GroupedCore` per core and one grouped LLC,
    so runs stay batched even after their per-quantum decisions diverge.
    Raises :class:`~repro.sim.batch.LockstepError` when the group cannot
    complete batched; callers fall back per-run (bit-identical results).
    """
    group = LockstepGroup(kernel, len(policies))
    drivers = [
        (lambda m, _mech=mech, _params=params: drive_mechanism(m, _mech, sc, _params))
        for mech, params in policies
    ]
    return group.run(drivers)


def _apply_static(machine, spec: BatchRunSpec) -> None:
    for cpu, mask in enumerate(spec.masks):
        machine.prefetch_msr.set_mask(cpu, mask)
    for clos, cbm in spec.clos_cbms:
        machine.cat.set_cbm(clos, cbm)
    for cpu, clos in enumerate(spec.core_clos):
        machine.cat.assign_core(cpu, clos)


def _run_static(machine, spec: BatchRunSpec) -> RunStats:
    _apply_static(machine, spec)
    snap = machine.pmu.snapshot()
    machine.run_accesses(spec.n_accesses)
    sample = machine.pmu.delta_since(snap)
    return RunStats(
        n_cores=machine.params.n_cores,
        cycles_per_second=machine.params.cycles_per_second,
        totals=sample.deltas,
        wall_cycles=sample.wall_cycles,
        epochs=[],
        trace_fallbacks=machine.trace_fallbacks(),
        batch_degradations=machine.batch_degradations(),
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
        mix = specs[indices[0]].mix
        lens = [specs[i].n_accesses for i in indices if specs[i].n_accesses is not None]
        if any(specs[i].mechanism is not None for i in indices):
            lens.append(mechanism_trace_length(sc))
        length = max(lens)
        # A singleton has nothing to share: straight to its own machine.
        kernel = (
            build_batch_kernel(mix, sc, trace_store, length=length) if len(indices) >= 2 else None
        )
        done: set[int] = set()
        degraded: set[int] = set()
        if kernel is not None:
            results, degraded = _run_lockstep_sweeps(kernel, specs, indices)
            for i, stats in results.items():
                out[i] = stats
                done.add(i)
            mech_idx = [i for i in indices if specs[i].mechanism is not None]
            if len(mech_idx) >= 2:
                try:
                    mech_stats = _lockstep_mechanisms(
                        kernel, [(specs[i].mechanism, ()) for i in mech_idx], sc
                    )
                except LockstepError:
                    note_degradation()
                    degraded.update(mech_idx)
                else:
                    for i, stats in zip(mech_idx, mech_stats):
                        out[i] = stats
                        done.add(i)
        for i in indices:
            if i in done:
                continue
            spec = specs[i]
            machine = build_machine(mix, sc, trace_store=trace_store)
            if i in degraded:
                machine._batch_degradations = 1
            if spec.mechanism is not None:
                out[i] = drive_mechanism(machine, spec.mechanism, sc)
            else:
                out[i] = _run_static(machine, spec)
    return out


def _run_lockstep_sweeps(kernel: BatchKernel, specs, indices):
    """Run static sub-groups in lockstep; return ``(results, degraded)``.

    Static specs sharing one (pf-mask vector, access count) pair have
    identical core phases and merged request streams, so they advance
    through :func:`repro.sim.batch.run_static_sweep`'s grouped SoA LLC
    in a single pass — the sweep shape where the batch engine's ~Nx
    throughput comes from.  Sub-groups of one are left to the caller's
    per-run path, as are the indices of a sweep that fails, which land
    in the ``degraded`` set (bit-identical, counted).
    """
    results: dict[int, RunStats] = {}
    degraded: set[int] = set()
    sweeps: dict[tuple, list[int]] = {}
    for i in indices:
        spec = specs[i]
        if spec.n_accesses is not None:
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
            degraded.update(idxs)
            continue  # per-run fallback handles these indices
        for i, row in zip(idxs, rows):
            results[i] = RunStats(
                n_cores=params.n_cores,
                cycles_per_second=params.cycles_per_second,
                totals=row.pmu_counts,
                wall_cycles=row.wall_cycles,
                epochs=[],
                trace_fallbacks=row.trace_fallbacks,
            )
    return results, degraded


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
    from repro.sim.singlecore import ALL_OFF, SingleCoreRow, run_single_core
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
                row(r.bench, PROFILE_QUANTUM, n, ALL_OFF),
                {w: row(r.bench, PROFILE_QUANTUM, n, ways=w) for w in swept_ways(r.way_sweep, params)},
            )
    traces = {}
    for bench in dict.fromkeys(key.trace for key in rows):
        length = max(key.end for key in rows if key.trace == bench)
        traces[bench] = trace_store.trace_for(
            bench, llc_lines=params.llc.lines, base_line=0, seed=0, length=length
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
    """Batch-execute a mix-affine group of planned mechanism runs.

    ``runs`` are :class:`~repro.experiments.engine.PlannedRun` rows of
    kind ``mechanism`` sharing one mix and scale; their mechanisms and
    params may differ.  Returns ``(payload, seconds)`` per run, where the
    payload dict is byte-identical to the scalar ``_compute_mechanism`` one.

    A group of 2+ runs executes in masked lockstep — one grouped SoA
    pass even though the mechanisms diverge.  A
    :class:`~repro.sim.batch.LockstepError` degrades the group to
    per-run scalar machines, counted as a degradation per run.
    """
    r0 = runs[0]
    sc = r0.sc
    kernel = build_batch_kernel(r0.mix, sc, trace_store)
    degraded = False
    if len(runs) >= 2:
        t0 = time.perf_counter()
        try:
            all_stats = _lockstep_mechanisms(kernel, [(r.mechanism, r.params) for r in runs], sc)
        except LockstepError:
            note_degradation()
            degraded = True
        else:
            per_run = (time.perf_counter() - t0) / len(runs)
            return [(mechanism_payload(stats), per_run) for stats in all_stats]
    out: list[tuple[dict, float]] = []
    for r in runs:
        t0 = time.perf_counter()
        machine = build_machine(r.mix, sc, trace_store=trace_store)
        if degraded:
            machine._batch_degradations = 1
        stats = drive_mechanism(machine, r.mechanism, sc, r.params)
        out.append((mechanism_payload(stats), time.perf_counter() - t0))
    return out
