"""Single-core plane: every alone run of a batch from shared passes.

The paper's benchmark characterisation (Figs. 1-3) and the alone IPC
behind every HS/WS/ANTT number are single-core runs: one benchmark on
core 0, a prefetch mask, optionally a CAT way count, a warm-up and a
measured window.  Run one by one, each re-simulates its trace on its
own :class:`~repro.sim.machine.Machine`.  :func:`run_single_core`
answers a whole batch of such rows from shared passes instead, and is
bit-identical to the scalar runs:

* **One core pass per (trace, mask).**  Core 0's private side never
  reads the LLC, so every row over the same trace and mask sees the
  same L1/L2 evolution; they differ only in LLC ways, quantum, warm-up
  and window.  The pass runs over the longest member row and is
  chunked at the union of every member's quantum boundaries and
  warm-up split.  Chunking is exact: the kernel's per-access semantics
  do not depend on where a chunk ends, every core counter is an
  integer sum, and each row's quanta are whole runs of chunks.  A
  shorter row over the same trace (an alone run inside a profile's
  on-pass) is a prefix of the pass.
* **Every mask** advances one :func:`repro.sim.batch._advance_image`
  call per chunk through the unmodified scalar kernel
  (:func:`repro.sim.fastengine.run_core_chunk`), the all-off mask 0xF
  included: one private-cache model serves the fast engine and this
  plane alike.
* **The LLC of every pass** is one batched stack pass.  One core
  requests, so an ``a``-way CAT allocation is an ``a``-way LRU cache of
  the core's lines: a request hits iff its distance is ``< a``, and
  every row's demand hits, demand fills and prefetch fills per chunk
  come from one ``bincount`` per pass.
* **Timing per row** folds the chunks into the row's quanta and solves
  them all in one batched :func:`~repro.sim.core_model.solve_quantum`
  call (quanta are independent: each solve reads only its own
  counts).  The scalar machine's per-quantum PMU adds become one
  sequential ``np.cumsum`` over the quanta, whose row ``j`` is the
  machine's running total after quantum ``j``; the row reports total
  minus the warm-up snapshot, exactly as ``Pmu.delta_since`` does
  (``CYCLES`` and ``INSTRUCTIONS`` are non-integer, so a re-summed
  window would round differently).

Rows may end or switch quanta at any access: a trace is a function of
its position (:mod:`repro.sim.trace`), so every chunking of a pass
replays one stream.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.sim.batch import _advance_image, _fresh_bank, _LaneState, _lru_distances
from repro.sim.core_model import QuantumCounts, solve_quantum
from repro.sim.fastcache import FastCache
from repro.sim.params import CacheGeometry, MachineParams
from repro.sim.pmu import N_EVENTS, Event, PmuSample

__all__ = ["SingleCoreRow", "run_single_core"]

#: The core-phase PMU events, in the order a pass's chunk table keeps them.
_CORE_EVENTS = [
    int(e) for e in (
        Event.L1_DM_REQ, Event.L1_DM_MISS, Event.L1_PREF_REQ, Event.L2_DM_REQ,
        Event.L2_DM_MISS, Event.L2_PREF_REQ, Event.L2_PREF_MISS,
    )
]

#: Requests and virtual sets per batched stack-distance pass.
_SLICE = 1 << 19
_SLICE_SETS = 1 << 13


class SingleCoreRow(NamedTuple):
    """One alone run: ``trace`` is a key into :func:`run_single_core`'s traces."""

    trace: Hashable
    mask: int
    ways: int | None
    quantum: int
    warmup: int
    n_accesses: int

    def quantum_starts(self) -> list[int]:
        """Where ``Machine.run_accesses(warmup)`` then ``(n_accesses)`` start each quantum."""
        w, q = self.warmup, self.quantum
        return list(chain(range(0, w, q), range(w, w + self.n_accesses, q)))

    @property
    def end(self) -> int:
        return self.warmup + self.n_accesses


class _Pass:
    """One (trace, mask) core pass, chunked for every member row."""

    def __init__(self, trace, mask: int, rows: list[SingleCoreRow]) -> None:
        self.trace = trace
        self.mask = mask
        bounds = sorted({b for r in rows for b in (*r.quantum_starts(), r.end)} | {0})
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.sizes = np.diff(self.bounds)
        # Per chunk: n_access, n_l2_hit_d, then the _CORE_EVENTS counts.
        self.core = np.zeros((len(self.sizes), 2 + len(_CORE_EVENTS)), dtype=np.int64)
        self.core[:, 0] = self.sizes
        # The LLC request stream: line (int32 when every line fits),
        # prefetch flag, chunk.
        self.llc_line = self.llc_pref = self.llc_chunk = None
        # (chunks, ways + 1) counts of demand / prefetch requests with
        # LLC stack distance <= column.
        self.dem_le = self.pref_le = None

    def run_kernel(self, params: MachineParams) -> None:
        """Advance the scalar kernel chunk by chunk on a fresh core image."""
        st = _LaneState(
            FastCache(params.l1), FastCache(params.l2), _fresh_bank(params), self.trace.fork(0)
        )
        scratch = np.zeros((1, N_EVENTS), dtype=np.float64)
        reqs: list[np.ndarray] = []
        for c, size in enumerate(self.sizes.tolist()):
            qc, req, pmu_row, _ipm, _mlp = _advance_image(st, size, self.mask, scratch)
            self.core[c, 1] = qc.n_l2_hit_d
            self.core[c, 2:] = pmu_row[_CORE_EVENTS]
            # As an array at once: a pass's requests as Python ints
            # would leave the heap fragmented for the rest of the process.
            reqs.append(np.array(req, dtype=np.int64))
        lens = [len(r) for r in reqs]
        enc = np.concatenate(reqs)
        del reqs
        self.llc_pref = enc < 0
        np.invert(enc, out=enc, where=self.llc_pref)
        self.llc_line = _narrow(enc)
        self.llc_chunk = np.repeat(np.arange(len(lens), dtype=np.int32), lens)


def _narrow(line: np.ndarray) -> np.ndarray:
    """``line`` as int32 when every line is in ``[0, 2**31)``, else as is."""
    if len(line) and line.min() >= 0 and line.max() < 2**31:
        return line.astype(np.int32)
    return line


def _distances(streams: list[np.ndarray], geom: CacheGeometry) -> list[np.ndarray]:
    """Capped LRU stack distance of every request of every stream.

    Each stream is its own cache of ``geom``'s shape: stream ``k`` of a
    batch owns virtual sets ``k*S .. k*S+S-1``, so one
    :func:`repro.sim.batch._lru_distances` pass (a round per occurrence
    rank, as wide as every stream's sets together) serves them all.
    Batches take streams in length order, so a batch's round count is
    set by streams of like length, and are capped at :data:`_SLICE`
    requests and :data:`_SLICE_SETS` sets so each round's columns stay
    a few MB.
    """
    S, W = geom.sets, geom.ways
    out: list[np.ndarray] = [None] * len(streams)  # type: ignore[list-item]
    order = sorted(range(len(streams)), key=lambda k: len(streams[k]))
    start = 0
    while start < len(order):
        stop, total = start + 1, len(streams[order[start]])
        while (
            stop < len(order)
            and total + len(streams[order[stop]]) <= _SLICE
            and (stop - start + 1) * S <= _SLICE_SETS
        ):
            total += len(streams[order[stop]])
            stop += 1
        batch = order[start:stop]
        counts = [len(streams[k]) for k in batch]
        line = _narrow(np.concatenate([streams[k] for k in batch]))
        vset = (line & (S - 1)).astype(np.int32)
        vset += np.repeat(np.arange(len(batch), dtype=np.int32) * S, counts)
        d, _ = _lru_distances(line, vset, W, len(batch) * S)
        del line, vset
        for k, dk in zip(batch, np.split(d, np.cumsum(counts)[:-1])):
            out[k] = dk
        start = stop
    return out


def _serve_llc(passes: list[_Pass], geom: CacheGeometry) -> None:
    """Every pass's LLC in one batched stack pass: per-chunk distance tables."""
    W = geom.ways
    for p, d in zip(passes, _distances([p.llc_line for p in passes], geom)):
        size = len(p.sizes) * (W + 1)
        key = p.llc_chunk * (W + 1) + d
        p.dem_le, p.pref_le = (
            np.bincount(key[sel], minlength=size).reshape(-1, W + 1).cumsum(axis=1)
            for sel in (~p.llc_pref, p.llc_pref)
        )
        p.llc_line = p.llc_pref = p.llc_chunk = None


def _time_row(params: MachineParams, p: _Pass, row: SingleCoreRow) -> PmuSample:
    """One row's PMU delta: every quantum solved at once, added in order."""
    deltas = np.zeros((params.n_cores, N_EVENTS), dtype=np.float64)
    starts = row.quantum_starts()
    if not starts:
        return PmuSample(deltas, 0.0)
    W = params.llc.ways
    a = W if row.ways is None else min(max(int(row.ways), 1), W)
    first = np.searchsorted(p.bounds, starts)
    n_chunks = int(np.searchsorted(p.bounds, row.end))
    hits = p.dem_le[:n_chunks, a - 1]
    cols = np.column_stack((
        p.core[:n_chunks],
        hits,
        p.dem_le[:n_chunks, W] - hits,
        p.pref_le[:n_chunks, W] - p.pref_le[:n_chunks, a - 1],
    ))
    quanta = np.add.reduceat(cols, first, axis=0)
    n_warm = len(range(0, row.warmup, row.quantum))

    ipm = float(p.trace.inst_per_mem)
    line_bytes = float(params.line_bytes)
    n_acc, mem_d = quanta[:, 0], quanta[:, -2]
    # fastengine.apply_llc_tail's fold, one quantum per row; only core 0
    # runs, and idle cores add exact zeros to every sum of the solve, so
    # solving core 0 alone is the machine's solve.
    qc = QuantumCounts(
        n_access=n_acc[:, None],
        n_l2_hit_d=quanta[:, 1:2],
        n_llc_hit_d=quanta[:, -3:-2],
        n_mem_d=mem_d[:, None],
        demand_bytes=(mem_d * line_bytes)[:, None],
        pref_bytes=(quanta[:, -1] * line_bytes)[:, None],
    )
    timing = solve_quantum(params, qc, [ipm], [float(p.trace.mlp)], [True])
    adds = np.zeros((len(quanta), N_EVENTS), dtype=np.float64)
    adds[:, _CORE_EVENTS] = quanta[:, 2:-3]
    adds[:, Event.L3_LOAD_MISS] = mem_d
    adds[:, Event.INSTRUCTIONS] = n_acc * (1.0 + ipm)
    adds[:, Event.CYCLES] = timing.cycles[:, 0]
    adds[:, Event.STALLS_L2_PENDING] = timing.stalls_l2_pending[:, 0]
    adds[:, Event.MEM_DEMAND_BYTES] = qc.demand_bytes[:, 0]
    adds[:, Event.MEM_PREF_BYTES] = qc.pref_bytes[:, 0]
    # The machine's running totals, quantum by quantum: cumsum adds
    # sequentially, so row j is the PMU after quantum j, bit for bit.
    pmu = np.cumsum(adds, axis=0)
    wall = np.cumsum(timing.machine_cycles)
    snap_pmu, snap_wall = (pmu[n_warm - 1], wall[n_warm - 1]) if n_warm else (0.0, 0.0)
    deltas[0] = pmu[-1] - snap_pmu
    return PmuSample(deltas, float(wall[-1] - snap_wall))


def run_single_core(
    params: MachineParams,
    rows: Sequence[SingleCoreRow],
    traces: Mapping[Hashable, object],
) -> list[PmuSample]:
    """Each row's PMU delta over its measured window, from shared passes.

    ``traces`` maps each row's ``trace`` key to a forkable
    :class:`~repro.sim.tracestore.MaterializedTrace` of core 0 (base
    line 0).  Row ``i``'s result equals ``Pmu.delta_since`` of a fresh
    scalar machine with quantum ``rows[i].quantum`` that set the mask
    and, if ``ways`` is set, a ``ways``-way low CBM for core 0, ran
    ``warmup`` accesses, took a snapshot and ran ``n_accesses`` more.
    """
    members: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        members.setdefault((row.trace, row.mask), []).append(i)
    passes = {
        key: _Pass(traces[key[0]], key[1], [rows[i] for i in idx])
        for key, idx in members.items()
    }
    for p in passes.values():
        p.run_kernel(params)
    _serve_llc(list(passes.values()), params.llc)
    out: list[PmuSample] = [None] * len(rows)  # type: ignore[list-item]
    for key, idx in members.items():
        for i in idx:
            out[i] = _time_row(params, passes[key], rows[i])
    return out
