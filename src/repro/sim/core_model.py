"""Per-core timing model and the per-quantum fixed-point solver.

The core is a simple in-order engine with memory-level parallelism:

``cycles = exec + l2_hit_stalls + l2_miss_stalls``

* ``exec``            = instructions x cpi_exec,
* ``l2_hit_stalls``   = demand L2 hits x lat_l2 / mlp,
* ``l2_miss_stalls``  = (demand LLC hits x lat_llc
                        + demand memory accesses x lat_mem x qf) / mlp,

with per-core ``mlp`` supplied by the workload (streaming code overlaps
many misses, a pointer chase overlaps none),

where ``qf`` is the DRAM queue factor of ``repro.sim.memory``.  The
``l2_miss_stalls`` term is exactly what the STALLS_L2_PENDING PMU event
counts (cycles stalled with an L2 miss outstanding) — the event Selfa
et al.'s Dunn policy clusters on and the paper's Fig. 15 reports.

Because queue factor and cycle counts are mutually dependent
(more queuing -> longer quantum -> lower utilisation), the solver
iterates the pair to a damped fixed point.

:func:`solve_quantum` solves one quantum from per-core Python values
(the scalar machine's path), or a batch of independent quanta at once:
(rows, cores) arrays whose leading axis is runs (a static sweep) or
quanta (a single-core row).  Every row of a batch is bit-equal to the
scalar solve of that row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.sim.memory import RHO_CLIP
from repro.sim.params import MachineParams


def _scalar_sum(vals: list) -> float:
    """Python-float replica of NumPy's pairwise summation for n <= 128.

    NumPy sums < 8 elements sequentially and 8..128 elements with an
    8-accumulator unrolled loop collapsed as ``((r0+r1)+(r2+r3)) +
    ((r4+r5)+(r6+r7))`` plus a sequential remainder; this reproduces
    that tree so scalar means match ``ndarray.mean`` bit for bit.
    Verified against this interpreter's NumPy at import (see
    ``_SCALAR_SUM_EXACT``); larger inputs must use NumPy directly.
    It only adds and never updates an element in place, so a list of
    equal-length arrays sums elementwise through the same tree.
    """
    n = len(vals)
    if n < 8:
        s = 0.0
        for v in vals:
            s += v
        return s
    r0, r1, r2, r3, r4, r5, r6, r7 = vals[:8]
    i = 8
    last = n - (n % 8)
    while i < last:
        r0 = r0 + vals[i]
        r1 = r1 + vals[i + 1]
        r2 = r2 + vals[i + 2]
        r3 = r3 + vals[i + 3]
        r4 = r4 + vals[i + 4]
        r5 = r5 + vals[i + 5]
        r6 = r6 + vals[i + 6]
        r7 = r7 + vals[i + 7]
        i += 8
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    while i < n:
        res += vals[i]
        i += 1
    return res


def _check_scalar_sum() -> bool:
    rng = np.random.default_rng(20190527)
    for n in (1, 2, 3, 7, 8, 9, 16, 17, 31, 64, 100, 128):
        for _ in range(8):
            v = rng.uniform(1e-9, 1e9, n)
            if _scalar_sum(v.tolist()) != float(v.sum()):
                return False
    return True


# If this NumPy build's reduction order ever differs from the replica
# (e.g. a SIMD dispatch change), fall back to NumPy means so results
# stay anchored to the array formulation.
_SCALAR_SUM_EXACT = _check_scalar_sum()


@dataclass
class QuantumCounts:
    """Functional outcome of one quantum for one core (demand side)."""

    n_access: int = 0          # demand accesses issued
    n_l2_hit_d: int = 0        # demand accesses that hit L2 (after L1 miss)
    n_llc_hit_d: int = 0       # demand accesses that hit the LLC
    n_mem_d: int = 0           # demand accesses served by DRAM
    demand_bytes: float = 0.0  # bytes moved by demand DRAM fills
    pref_bytes: float = 0.0    # bytes moved by prefetch DRAM fills

    @property
    def total_bytes(self) -> float:
        return self.demand_bytes + self.pref_bytes


@dataclass
class QuantumTiming:
    """Solved timing for one quantum across the machine.

    For a batch solve every array gains the batch's leading axis:
    ``(rows, cores)`` arrays and a ``(rows,)`` ``machine_cycles``.
    """

    cycles: np.ndarray          # per core
    stalls_l2_pending: np.ndarray
    queue_factor: np.ndarray    # per core effective factor
    machine_cycles: float | np.ndarray

    def __post_init__(self) -> None:
        self.cycles = np.asarray(self.cycles, dtype=np.float64)


_COUNT_FIELDS = tuple(f.name for f in fields(QuantumCounts))


def solve_quantum(
    params: MachineParams,
    counts: list[QuantumCounts] | QuantumCounts,
    inst_per_mem,
    mlp,
    active: list[bool],
    *,
    iterations: int = 6,
) -> QuantumTiming:
    """Fixed-point solve of per-core cycles and DRAM queue factors.

    ``counts`` is one quantum's per-core list, with per-core
    ``inst_per_mem``, ``mlp`` and ``active`` lists.  Or it is a batch:
    one :class:`QuantumCounts` whose fields broadcast to ``(rows,
    cores)`` arrays, a leading axis of independent runs or quanta in
    front of the cores axis; ``inst_per_mem`` and ``mlp`` then broadcast
    to the same shape, and ``active`` is per core, shared by every row.
    Each row of a batch's result is bit-equal to the scalar solve of
    that row.
    """
    if isinstance(counts, QuantumCounts):
        return _solve_rows(params, counts, inst_per_mem, mlp, active, iterations)
    return _solve_cores(params, counts, inst_per_mem, mlp, active, iterations)


def _solve_rows(params, counts, inst_per_mem, mlp, active, iterations) -> QuantumTiming:
    """The batch form: every row at once, in the scalar path's IEEE operations.

    Work arrays are core-major ``(cores, rows)``, so a core's column is
    one contiguous row.  Elementwise terms keep the scalar grouping and
    its branches become ``np.where``; the two reductions (socket bytes,
    the active-core cycle mean) run :func:`_scalar_sum` over the core
    rows, which adds them in the same pairwise tree as the scalar path.
    """
    n = len(active)
    cnt = [np.asarray(getattr(counts, f)) for f in _COUNT_FIELDS]
    ipm = np.asarray(inst_per_mem, dtype=np.float64)
    mlp = np.asarray(mlp, dtype=np.float64)
    shape = np.broadcast_shapes(*(c.shape for c in cnt), ipm.shape, mlp.shape)
    if len(shape) != 2 or shape[1] != n:
        raise ValueError(f"a batch solve needs (rows, {n}) inputs, got {shape}")
    if not _SCALAR_SUM_EXACT or n > 128:
        # The sums must come from NumPy: solve row by row on the scalar path.
        cols = [np.broadcast_to(x, shape).tolist() for x in (*cnt, ipm, mlp)]
        rows = [
            _solve_cores(
                params,
                [QuantumCounts(*c) for c in zip(*(f[b] for f in cols[:6]))],
                cols[6][b], cols[7][b], active, iterations,
            )
            for b in range(shape[0])
        ]
        return QuantumTiming(
            cycles=np.array([t.cycles for t in rows]).reshape(shape),
            stalls_l2_pending=np.array([t.stalls_l2_pending for t in rows]).reshape(shape),
            queue_factor=np.array([t.queue_factor for t in rows]).reshape(shape),
            machine_cycles=np.array([t.machine_cycles for t in rows], dtype=np.float64),
        )
    n_acc, l2_hit, llc_hit, mem_d, dem_b, pref_b, ipm, mlp = (
        np.ascontiguousarray(np.broadcast_to(x, shape).T) for x in (*cnt, ipm, mlp)
    )
    par = np.where(mlp > 1.0, mlp, 1.0)
    exec_cycles = n_acc * (1.0 + ipm) * params.cpi_exec
    l2_stall = l2_hit * float(params.lat_l2) / par
    llc_stall = llc_hit * float(params.lat_llc) / par
    mem_lat = mem_d * float(params.lat_mem)
    core_bytes = dem_b + pref_b
    total_bytes = _scalar_sum(list(core_bytes))
    act_idx = [i for i in range(n) if active[i]]
    n_act = len(act_idx)
    mem_bpc = params.mem_bytes_per_cycle
    core_bpc = params.core_bytes_per_cycle
    gain = params.queue_gain
    cap = params.max_queue_factor

    qf = np.ones((n, shape[0]))
    machine_cycles = np.ones(shape[0])
    for it in range(iterations + 1):
        mem_stall = mem_lat * qf / par
        cy = exec_cycles + l2_stall + llc_stall + mem_stall
        cycles = np.where(cy > 1.0, cy, 1.0)
        if n_act:
            machine_cycles = _scalar_sum([cycles[i] for i in act_idx]) / n_act
        if it == iterations:
            break
        mc = np.where(machine_cycles > 1e-9, machine_cycles, 1e-9)
        rho_socket = total_bytes / (mem_bpc * mc)
        # cycles >= 1.0 here, so the scalar path's 1e-9 guard never fires.
        rho = core_bytes / (core_bpc * cycles)
        rho = np.where(rho < rho_socket, rho_socket, rho)
        rho = np.where(rho < 0.0, 0.0, np.where(rho > RHO_CLIP, RHO_CLIP, rho))
        f = 1.0 + gain * rho / (1.0 - rho)
        f = np.where(f > cap, cap, f)
        qf = 0.5 * qf + 0.5 * f

    return QuantumTiming(
        cycles=cycles.T,
        stalls_l2_pending=(llc_stall + mem_stall).T,
        queue_factor=qf.T,
        machine_cycles=machine_cycles,
    )


def _solve_cores(params, counts, inst_per_mem, mlp, active, iterations) -> QuantumTiming:
    """The scalar form: one quantum from per-core Python values."""
    n = len(counts)
    if not (len(inst_per_mem) == len(mlp) == len(active) == n):
        raise ValueError("counts, inst_per_mem, mlp and active need one entry per core")

    # Scalar hot path.  The solver runs once per quantum, and for small
    # core counts NumPy's per-call overhead on length-n arrays dwarfs
    # the arithmetic, so the elementwise work is done in Python floats
    # — the identical IEEE-754 operations in the identical order, so
    # results are bit-equal to the original array formulation.  The one
    # *reduction* (the active-cycles mean) stays in NumPy because its
    # pairwise summation order is not reproducible with a scalar loop.
    lat_l2 = float(params.lat_l2)
    lat_llc = float(params.lat_llc)
    lat_mem = float(params.lat_mem)
    cpi = params.cpi_exec
    mem_bpc = params.mem_bytes_per_cycle

    exec_cycles = [0.0] * n
    l2_stall = [0.0] * n
    llc_stall = [0.0] * n
    mem_lat = [0.0] * n  # mem_d * lat_mem; scaled by qf then / par each iter
    pars = [1.0] * n
    core_bytes = [0.0] * n
    for i, c in enumerate(counts):
        m = mlp[i]
        par = m if m > 1.0 else 1.0
        pars[i] = par
        exec_cycles[i] = c.n_access * (1.0 + inst_per_mem[i]) * cpi
        l2_stall[i] = c.n_l2_hit_d * lat_l2 / par
        llc_stall[i] = c.n_llc_hit_d * lat_llc / par
        mem_lat[i] = c.n_mem_d * lat_mem
        core_bytes[i] = c.total_bytes

    act_idx = [i for i in range(n) if active[i]]
    n_act = len(act_idx)
    scalar_mean = _SCALAR_SUM_EXACT and n_act <= 128
    # Socket utilisation numerator is loop-invariant: hoist the sum.
    if _SCALAR_SUM_EXACT and n <= 128:
        total_bytes = _scalar_sum(core_bytes)
    else:
        total_bytes = float(np.asarray(core_bytes, dtype=np.float64).sum())

    # Queue-factor constants — same formula as DramModel.queue_factor /
    # effective_factor, inlined op-for-op (cycles are already >= 1.0 so
    # the 1e-9 guard of the array path cannot trigger).
    core_bpc = params.core_bytes_per_cycle
    gain = params.queue_gain
    cap = params.max_queue_factor

    qf = [1.0] * n
    mem_stall = [0.0] * n
    cycles = [1.0] * n
    machine_cycles = 1.0
    for it in range(iterations + 1):
        for i in range(n):
            ms = mem_lat[i] * qf[i] / pars[i]
            cy = exec_cycles[i] + l2_stall[i] + llc_stall[i] + ms
            mem_stall[i] = ms
            cycles[i] = cy if cy > 1.0 else 1.0
        if n_act:
            if scalar_mean:
                machine_cycles = _scalar_sum([cycles[i] for i in act_idx]) / n_act
            else:
                machine_cycles = float(
                    np.asarray([cycles[i] for i in act_idx], dtype=np.float64).mean()
                )
        if it == iterations:
            break
        mc = machine_cycles if machine_cycles > 1e-9 else 1e-9
        rho_socket = total_bytes / (mem_bpc * mc)
        for i in range(n):
            cy = cycles[i]
            rho = core_bytes[i] / (core_bpc * (cy if cy > 1e-9 else 1e-9))
            if rho < rho_socket:
                rho = rho_socket
            if rho < 0.0:
                rho = 0.0
            elif rho > RHO_CLIP:
                rho = RHO_CLIP
            f = 1.0 + gain * rho / (1.0 - rho)
            if f > cap:
                f = cap
            qf[i] = 0.5 * qf[i] + 0.5 * f

    stalls = [llc_stall[i] + mem_stall[i] for i in range(n)]  # L2-miss-pending cycles
    return QuantumTiming(
        cycles=np.asarray(cycles, dtype=np.float64),
        stalls_l2_pending=np.asarray(stalls, dtype=np.float64),
        queue_factor=np.asarray(qf, dtype=np.float64),
        machine_cycles=machine_cycles,
    )
