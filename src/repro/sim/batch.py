"""Multi-run batch kernel: one run-axis plane over one shared trace.

The ``batch`` engine advances N independent runs of the *same workload
mix* while sharing the expensive half of the simulator between them.
The key observation is a strict layering in :class:`~repro.sim.machine.
Machine`'s quantum (DESIGN.md section 5): the **core phase** — trace
chunk through private L1/L2 with prefetcher triggering — depends only
on the core's trace, its prefetcher-mask history and the quantum
partition.  It never observes the LLC, CAT partitioning, DRAM or any
other core.  So all R runs of a mix advance through the shared
zero-copy trace *together*, one quantum at a time, SIMT-style, and the
run axis is explicit on both sides of the LLC boundary.

Core side: :class:`GroupedCore`
-------------------------------

One per core.  Private-core state lives in **lanes** — a lane is a
*state-equality class across runs at the same trace position*.  Each
step partitions a lane's runs by their per-run prefetch mask (the only
divergence axis), clones the live image per partition, advances each
image once with the unmodified scalar kernel
(:func:`repro.sim.fastengine.run_core_chunk`), and re-merges lanes
whose images become bitwise equal again (order-sensitive dict
comparison: CPython preserves insertion order, which *is* the LRU/FIFO
order the kernels evict by).  A lane's advance
yields a :class:`_LaneEdge`, the core phase's entire observable output
for that quantum —

* the sign-encoded LLC request list (``line`` demand / ``~line``
  prefetch, exactly what ``run_core_chunk`` emits),
* the ``QuantumCounts`` fields the core phase sets (``n_access``,
  ``n_l2_hit_d``),
* the per-core PMU row delta (seven integral core events, exact in
  float64),
* the L1/L2 :class:`~repro.sim.cache.CacheStats` deltas, and
* the trace's ``inst_per_mem`` / ``mlp`` for the quantum

— shared by every run in the lane.  Runs that never diverge in
prefetch masks (the paper's partition-size sweeps) stay in one lane
forever: one scalar-kernel call per quantum covers the whole group and
nothing is ever cloned.

LLC side: :class:`GroupedLLC`
-----------------------------

R way-partitioned LLC images as ``(runs, sets, ways)`` tensors with a
per-run CAT allow tensor and a ``runs=`` subgroup axis; one pass over a
merged request stream serves every run that produced it.  A cold serve
of the whole group answers every run whose partitions are independent
by LRU stack distance instead — one pass per core group serves every
way split — and defers the per-way image until something reads it.
The round-robin merge depends only on the request lists, not on LLC/CAT
state (:meth:`BatchKernel.merged` / :meth:`BatchKernel.grouped_stream`).
The timing phase stays the scalar ``Machine._timing_phase`` arithmetic
fed per-run grouped-serve counters, so every per-run operation sequence
matches a scalar fast machine op for op and results are
**bit-identical** to the scalar fast engine, which is itself pinned
bit-identical to ``reference``.

Two drivers share that plane:

* :func:`run_static_sweep` — R static CAT configurations under one
  prefetch-mask vector: a lockstep group that never diverges, its core
  side stepped in a plain loop, its LLC served once for the whole run
  (no controller, no threads).
* :class:`LockstepGroup` — R unmodified per-run controller loops (each
  on its own :class:`LockstepMachine`, a ``Machine`` that parks at
  every quantum boundary) driven from one scheduler thread, stepping
  the group at the minimum ``(trace_pos, quantum)`` so ragged sampling
  schedules stay correct.  Exactly one thread is ever runnable, so
  execution is deterministic.  Any failure inside the plane raises
  :class:`LockstepError`.

There is no third path: a caller that cannot batch, or whose group
fails, runs each member on its own scalar ``Machine`` and counts a
degradation (:func:`note_degradation`, surfaced as
``RunStats.batch_degradations``).  A trace that leaves the zero-copy
path (alignment fallback) keeps replaying faithfully inside its lane —
bit-identical, counted in ``trace_fallbacks`` — but that lane can no
longer be cloned, so a group that needs to split it degrades.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque

import numpy as np

from repro.sim import fastengine
from repro.sim.cat import CatController, full_mask
from repro.sim.core_model import QuantumCounts, solve_quantum
from repro.sim.engines import ENGINE_BATCH
from repro.sim.fastcache import FastCache
from repro.sim.machine import Machine
from repro.sim.memory import DramModel
from repro.sim.msr import MsrFile, PrefetchMsr, enables_from_mask
from repro.sim.params import MachineParams
from repro.sim.pmu import N_EVENTS, Event
from repro.sim.prefetcher import PrefetcherBank

__all__ = [
    "BatchKernel",
    "GroupedCore",
    "GroupedLLC",
    "LockstepError",
    "LockstepGroup",
    "LockstepMachine",
    "StaticSweepRun",
    "degradation_count",
    "note_degradation",
    "run_static_sweep",
]

# Process-wide degradation tally, mirroring the trace plane's
# fallback counter idiom: every fork-to-scalar or unbatchable-group
# event is counted here (in addition to per-run attribution on the
# fallback machines) so `repro cache stats` can surface it.
_PROCESS_DEGRADATIONS = 0


def note_degradation(n: int = 1) -> None:
    """Record ``n`` batch-engine degradations (fallback to scalar)."""
    global _PROCESS_DEGRADATIONS
    _PROCESS_DEGRADATIONS += int(n)


def degradation_count() -> int:
    """Process-wide batch degradations recorded so far."""
    return _PROCESS_DEGRADATIONS


class LockstepError(RuntimeError):
    """A lockstep group cannot continue batched; run members per-run.

    Raised by :class:`LockstepGroup`/:class:`GroupedCore` whenever the
    batched plane hits a shape it cannot handle bit-identically (live
    traces needing a split, a member stalling, an internal failure).
    Callers catch it, count a degradation and re-run scalar — results
    are identical either way by construction.
    """


class _LockstepAbort(BaseException):
    """Unwinds a member thread past ``except Exception`` handlers.

    Derives from ``BaseException`` so controller-level recovery code
    (which catches ``Exception``/RECOVERABLE) cannot swallow the abort
    and keep driving a machine whose group is being torn down.
    """


class _LaneState:
    """Live private-core state a lane edge is computed against.

    Duck-types the ``l1``/``l2``/``bank``/``trace`` attributes of
    ``Machine``'s per-core state, which is all
    :func:`repro.sim.fastengine.run_core_chunk` touches.
    """

    __slots__ = ("l1", "l2", "bank", "trace", "mask_applied")

    def __init__(self, l1, l2, bank, trace, mask_applied=-1) -> None:
        self.l1 = l1
        self.l2 = l2
        self.bank = bank
        self.trace = trace
        self.mask_applied = mask_applied


class _LaneEdge:
    """One quantum's recorded core-phase output along a lane."""

    __slots__ = (
        "llc_req",
        "n_access",
        "n_l2_hit_d",
        "pmu_row",
        "l1_stats",
        "l2_stats",
        "ipm",
        "mlp",
    )


def _fresh_bank(p: MachineParams) -> PrefetcherBank:
    return PrefetcherBank(
        stride_table=p.stride_table_entries,
        stride_degree=p.stride_degree,
        stride_confidence=p.stride_confidence,
        streamer_pages=p.streamer_table_pages,
        streamer_degree=p.streamer_degree,
    )


def _clone_image(params: MachineParams, st, trace):
    """Deep-copy a lane image's private-core state onto a given trace fork."""
    l1 = FastCache(params.l1)
    l1._sets = [dict(s) for s in st.l1._sets]
    l2 = FastCache(params.l2)
    l2._sets = [dict(s) for s in st.l2._sets]
    bank = _fresh_bank(params)
    bank.set_enables(
        stride=st.bank.en_stride,
        next_line=st.bank.en_next_line,
        streamer=st.bank.en_streamer,
        adjacent=st.bank.en_adjacent,
    )
    bank.ip_stride._table = {k: v[:] for k, v in st.bank.ip_stride._table.items()}
    bank.streamer._table = {k: v[:] for k, v in st.bank.streamer._table.items()}
    return _LaneState(l1, l2, bank, trace, st.mask_applied)


def _advance_image(st: _LaneState, q: int, mask: int, scratch):
    """Advance a lane image one quantum under ``mask``; return the outputs.

    :class:`GroupedCore`'s single scalar-kernel entry point: applies
    the mask exactly like the scalar
    machine's ``_sync_prefetchers`` (latched, decode on change only),
    zeroes the per-quantum stats windows and runs the unmodified
    :func:`repro.sim.fastengine.run_core_chunk`.
    """
    if mask != st.mask_applied:
        en = enables_from_mask(mask)
        st.bank.set_enables(
            stride=en["stride"],
            next_line=en["next_line"],
            streamer=en["streamer"],
            adjacent=en["adjacent"],
        )
        st.mask_applied = mask
    ipm = st.trace.inst_per_mem
    mlp = st.trace.mlp
    s1, s2 = st.l1.stats, st.l2.stats
    s1.accesses = s1.hits = s1.pref_fills = s1.pref_used = s1.pref_evicted_unused = 0
    s2.accesses = s2.hits = s2.pref_fills = s2.pref_used = s2.pref_evicted_unused = 0
    scratch[:] = 0.0
    qc = QuantumCounts()
    llc_req: list[int] = []
    fastengine.run_core_chunk(0, st, q, qc, llc_req, scratch)
    return qc, llc_req, scratch[0].copy(), ipm, mlp


def _fill_edge(st: _LaneState, qc, llc_req, pmu_row, ipm, mlp) -> "_LaneEdge":
    """Package one quantum's core-phase outputs as a lane edge."""
    edge = _LaneEdge()
    edge.llc_req = llc_req
    edge.n_access = qc.n_access
    edge.n_l2_hit_d = qc.n_l2_hit_d
    edge.pmu_row = pmu_row
    edge.l1_stats = (
        st.l1.stats.accesses,
        st.l1.stats.hits,
        st.l1.stats.pref_fills,
        st.l1.stats.pref_used,
        st.l1.stats.pref_evicted_unused,
    )
    edge.l2_stats = (
        st.l2.stats.accesses,
        st.l2.stats.hits,
        st.l2.stats.pref_fills,
        st.l2.stats.pref_used,
        st.l2.stats.pref_evicted_unused,
    )
    edge.ipm = ipm
    edge.mlp = mlp
    return edge


def _images_equal(a, b) -> bool:
    """Behavioural equality of two lane images at the same trace position.

    Order-sensitive: dict insertion order is the caches' LRU order and
    the prefetcher tables' FIFO order, so content equality alone is not
    enough.  ``mask_applied`` and the bank enable flags are deliberately
    ignored — merged lanes only ever advance under an explicitly
    supplied mask, and :func:`_advance_image` re-applies it (and
    ``set_enables`` writes flags only, no table side effects), so two
    images that differ solely in latched mask behave identically from
    here on.  Live traces never compare equal: their replay is
    position-dependent in ways a merged fork cannot reproduce.
    """
    if a.trace._live is not None or b.trace._live is not None:
        return False
    if a.trace.pos != b.trace.pos:
        return False
    t1, t2 = a.bank.ip_stride._table, b.bank.ip_stride._table
    if t1 != t2 or list(t1) != list(t2):
        return False
    t1, t2 = a.bank.streamer._table, b.bank.streamer._table
    if t1 != t2 or list(t1) != list(t2):
        return False
    return a.l1.state_equal(b.l1) and a.l2.state_equal(b.l2)


#: OR-ed onto the stamps of CAT-disallowed ways: larger than any LRU
#: stamp, so the victim argmin never leaves the allowed ways.
_CAT_PENALTY = np.int64(1 << 62)


def _occurrence_rounds(keys: np.ndarray):
    """Yield request indices by occurrence rank within their key.

    Round ``r`` holds every request that is the ``r``-th with its key
    (LLC set), so no key repeats inside a round.
    """
    if not len(keys):
        return
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys)
    starts = np.cumsum(counts) - counts
    # Keys by descending count: those with more than r requests are a
    # prefix, and their r-th request sits r past their first.
    by_count = np.argsort(-counts, kind="stable")
    starts, counts = starts[by_count], counts[by_count]
    live = np.searchsorted(-counts, -np.arange(counts[0]), side="left")
    for r, k in enumerate(live.tolist()):
        yield order[starts[:k] + r]


class _PreparedStream:
    """A merged LLC request stream decoded into NumPy columns.

    ``rounds`` partitions the stream by *occurrence rank within each
    set*: round ``r`` holds every request that is the ``r``-th access
    to its LLC set.  Within a round all sets are distinct, so the
    requests touch disjoint state and the grouped serve can process a
    whole round — for every run at once — with one batch of array
    operations.  Processing rounds in rank order preserves the scalar
    serve exactly: requests to different sets never interact (LRU
    order, victim choice and counters are all per-set) and each
    request carries its absolute stream position as its LRU stamp, so
    only the relative order of same-set requests matters — which rank
    order keeps by construction.
    """

    __slots__ = (
        "n", "line", "si", "is_pref", "demand", "prepared",
        "cpu_col", "cpu_perm", "cpu_starts", "cpu_ids", "seg_ids", "rounds",
        "_blk", "_blk_cores", "_by_line",
    )

    def __init__(self, merged, mcpus, set_mask: int) -> None:
        enc = np.asarray(merged, dtype=np.int64)
        self.n = len(enc)
        is_pref = enc < 0
        line = np.where(is_pref, ~enc, enc)
        self.line = line
        self.si = line & set_mask
        self.is_pref = is_pref
        self.demand = ~is_pref
        self.cpu_col = np.asarray(mcpus, dtype=np.int64)
        # The sort-heavy reduction/round structures are built on first
        # serve: streams that only ever feed a multi-quantum concat
        # never need their own (the concat builds one for the span).
        self.prepared = False
        self._blk = None
        self._blk_cores = None
        self._by_line = None

    def prepare(self) -> "_PreparedStream":
        if not self.prepared:
            if self._blk is not None:
                self._finish(self._blk, self._blk_cores)
            else:
                self._finish(self.cpu_col, None)
        return self

    def stat_blocks(self):
        """Each request's stat-block column (``segment*C + cpu`` or ``cpu``).

        Available without :meth:`prepare` — the stack-distance serve
        (:meth:`GroupedLLC._serve_stack`) bins by it directly and never
        needs the sort-heavy round/reduction structures.
        """
        return self._blk if self._blk is not None else self.cpu_col

    def line_order(self) -> np.ndarray:
        """Stable argsort by line: each line's requests, in stream order."""
        if self._by_line is None:
            self._by_line = np.argsort(self.line, kind="stable")
        return self._by_line

    @classmethod
    def concat(cls, streams: list["_PreparedStream"], n_cores: int) -> "_PreparedStream":
        """Concatenate per-quantum streams into one multi-segment stream.

        Requests keep their order, so occurrence ranks — and therefore
        the serve's per-set replay order and absolute LRU stamps — are
        exactly those of serving the quanta back to back.  Stats reduce
        over ``(segment, cpu)`` blocks instead of cpus, letting the
        caller recover per-quantum counters from a single serve.
        """
        self = cls.__new__(cls)
        self.n = sum(s.n for s in streams)
        self.line = np.concatenate([s.line for s in streams])
        self.si = np.concatenate([s.si for s in streams])
        self.is_pref = np.concatenate([s.is_pref for s in streams])
        self.demand = np.concatenate([s.demand for s in streams])
        self.cpu_col = np.concatenate([s.cpu_col for s in streams])
        seg = np.repeat(
            np.arange(len(streams), dtype=np.int64),
            [s.n for s in streams],
        )
        # Deferred like __init__: a stack-distance serve consumes the
        # block column directly and skips _finish entirely.
        self.prepared = False
        self._blk = seg * n_cores + self.cpu_col
        self._blk_cores = n_cores
        self._by_line = None
        return self

    def _finish(self, blk, n_cores) -> None:
        """Build stat-reduction blocks and occurrence-rank rounds."""
        self.prepared = True
        perm = np.argsort(blk, kind="stable")
        sb = blk[perm]
        if self.n:
            starts = np.flatnonzero(np.r_[True, sb[1:] != sb[:-1]])
        else:
            starts = np.empty(0, dtype=np.int64)
        self.cpu_perm = perm
        self.cpu_starts = starts
        ids = sb[starts]
        if n_cores is None:
            self.cpu_ids = ids
            self.seg_ids = None
        else:
            self.cpu_ids = ids % n_cores
            self.seg_ids = ids // n_cores
        self.rounds = [
            (ids_r, self.si[ids_r], self.line[ids_r], self.is_pref[ids_r])
            for ids_r in _occurrence_rounds(self.si)
        ]


def _lru_distances(line, vset, ways: int, n_sets: int):
    """Capped LRU stack distance of every request within its set.

    ``d[i]`` counts the distinct lines of set ``vset[i]`` touched since
    the previous request to ``line[i]``, capped at ``ways`` (a first
    touch is ``ways``).  One LRU stack of depth ``ways`` per set,
    advanced a whole occurrence round at a time; returns ``(d, stack)``
    with each set's final stack, MRU first and -1 padded (in ``line``'s
    dtype, so narrow lines keep the per-round gathers narrow).
    """
    stack = np.full((n_sets, ways), -1, dtype=line.dtype)
    d = np.empty(len(line), dtype=np.int64)
    below = np.arange(1, ways)
    for ids in _occurrence_rounds(vset):
        s = vset[ids]
        lv = line[ids]
        rows = stack[s]
        match = rows == lv[:, None]
        depth = np.where(match.any(axis=1), match.argmax(axis=1), ways)
        d[ids] = depth
        # Move to the top: entries above the old depth shift down one.
        rows[:, 1:] = np.where(below <= depth[:, None], rows[:, :-1], rows[:, 1:])
        rows[:, 0] = lv
        stack[s] = rows
    return d, stack


def _at_least(vals, ways: int) -> np.ndarray:
    """``out[a]`` = how many ``vals`` (in ``[-1, ways]``) are >= ``a``, ``a`` in ``0..ways``."""
    return np.bincount(vals + 1, minlength=ways + 2)[::-1].cumsum()[::-1][1:]


class _PartitionTable:
    """One core group's serve outcome for every partition size ``a``.

    ``dem_le``/``pref_le`` are ``[block, depth]`` counts of demand /
    prefetch requests with stack distance <= depth, so an ``a``-way
    partition hits exactly column ``a - 1``; ``used``, ``evicted`` and
    ``occupancy`` are indexed by ``a``.
    """

    __slots__ = ("dem_le", "pref_le", "used", "evicted", "occupancy")


def _stack_tables(stream: "_PreparedStream", groups, ways: int, sets: int, n_blocks: int):
    """One capped stack-distance pass answers every ``a`` for each group.

    Each group's requests form their own LRU partition (the caller has
    checked that), so with ``d`` a request's distance in its group: hit
    iff ``d < a``.  All groups share one :func:`_lru_distances` pass
    (group ``g`` owns sets ``g*S .. g*S+S-1``); :func:`_partition_table`
    then reads each group's counters off its distances.
    """
    cpu = stream.cpu_col
    member = np.zeros((len(groups), int(cpu.max()) + 1), dtype=bool)
    for g, cores in enumerate(groups):
        member[g, list(cores)] = True
    in_group = member[:, cpu]
    counts = in_group.sum(axis=1)
    pos = np.flatnonzero(in_group) % len(cpu)
    line = stream.line[pos]
    vset = stream.si[pos]
    del pos
    vset += np.repeat(np.arange(len(groups)) * sets, counts)
    d, final = _lru_distances(line, vset, ways, len(groups) * sets)
    del line, vset
    ends = np.cumsum(counts)
    return [
        _partition_table(
            stream, in_group[g], d[ends[g] - counts[g] : ends[g]],
            final[g * sets : (g + 1) * sets], n_blocks,
        )
        for g in range(len(groups))
    ]


def _partition_table(stream: "_PreparedStream", mine, d, stack, n_blocks: int) -> "_PartitionTable":
    """Every partition size's outcome for the requests ``mine`` selects.

    ``d`` are their stack distances in stream order and ``stack`` their
    sets' final LRU stacks.  A line's prefetched-unused bit is set by a
    prefetch fill and cleared by any demand touch; prefetch hits pass
    it through.  Walking each line's requests in order therefore gives,
    for every associativity ``a`` at once:

    * *used* — a demand hit whose preceding run of prefetch requests
      holds a fill (some ``d >= a``): ``d < a <= mp``;
    * *evicted unused* — a prefetch request whose run so far holds a
      fill (``mq >= a``) and whose line is evicted before its next
      request or the end of the stream (forward distance ``>= a``);
    * *occupancy* — per set, ``min(a, distinct lines)``.
    """
    W = stack.shape[1]
    t = _PartitionTable()
    p = np.flatnonzero(mine)
    key = stream.stat_blocks()[p] * (W + 1) + d
    is_pf = stream.is_pref[p]
    size = n_blocks * (W + 1)
    t.dem_le = np.bincount(key[~is_pf], minlength=size).reshape(n_blocks, W + 1).cumsum(axis=1)
    t.pref_le = np.bincount(key[is_pf], minlength=size).reshape(n_blocks, W + 1).cumsum(axis=1)
    t.occupancy = np.minimum((stack != -1).sum(axis=1)[:, None], np.arange(W + 1)).sum(axis=0)
    del key, is_pf
    # The requests in (line, stream) order.
    by_line = stream.line_order()
    by_line = by_line[mine[by_line]]
    ls = stream.line[by_line]
    dl = d[np.searchsorted(p, by_line)]
    pf = stream.is_pref[by_line]
    del p, by_line
    same = ls[1:] == ls[:-1]  # request k+1 continues k's line
    # Forward distance: the next request's, else the line's depth in
    # the final stack (W when it fell out).
    fd = np.empty_like(dl)
    fd[:-1] = dl[1:]
    fd[np.append(~same, True)] = W
    resident = stack.reshape(-1) != -1
    depth = np.tile(np.arange(W), len(stack))[resident]
    fd[np.searchsorted(ls, stack.reshape(-1)[resident], side="right") - 1] = depth
    # mq: max distance over the run of prefetches ending at each
    # request (segmented cummax; a demand or a new line starts one).
    dem = ~pf
    start = np.append(True, ~same) | dem
    start[1:] |= dem[:-1]
    base = np.cumsum(start) * (W + 1)
    mq = np.maximum.accumulate(base + dl) - base
    # mp: a demand request's preceding prefetch run's mq, else -1.
    mp = np.full_like(dl, -1)
    after_pf = same & pf[:-1]
    mp[1:][after_pf] = mq[:-1][after_pf]
    t.used = _at_least(mp[dem], W) - _at_least(np.minimum(dl, mp)[dem], W)
    t.evicted = _at_least(np.minimum(fd, mq)[pf], W)
    return t


class GroupedLLC:
    """R independent LLC images in structure-of-arrays layout.

    The run axis leads: ``tags``/``stamps``/``pref`` are ``(runs, sets,
    ways)`` arrays holding every run's way-partitioned LLC at once, so
    one pass over a shared merged request stream advances all runs
    together.  Bit-identical mapping onto
    :class:`~repro.sim.fastcache.FastPartitionedCache`'s dict sets:

    * dict order is last-touch order (hits pop + reinsert), so "first
      entry" == minimum LRU stamp; ``stamps`` hold each way's last
      touch as its global stream position.
    * **stamp-0 invariant:** a never-filled way (``tags == -1``) keeps
      stamp 0 and every touched way carries a stream position >= 1.
      The minimum stamp over a request's allowed ways is therefore the
      lowest-indexed allowed free way while one exists (``argmin``
      returns the first minimum — the scalar's lowest set bit of
      ``free & abits``) and the LRU allowed way once none does (then
      every allowed way is valid and stamps are distinct).  One
      ``argmin`` is the whole victim rule; there is no free-way search
      and no count of free lines.

    Every request touches exactly one way per run (hits refresh the hit
    way, misses fill the chosen way), so each segment needs a single
    scatter per state array.

    **Stack-distance serve.**  A cold image served for the whole group
    (``runs=None``: :func:`run_static_sweep`) takes a second strategy
    for every run whose requesting cores' CBMs are pairwise identical
    or disjoint and whose partitions share no line (cores own private
    address regions, so they never do).  Such a run's partitions are
    independent LRU caches: a line is only ever filled into, hit in and
    evicted from its own core group's ways.  Every request, hit or
    prefetch, moves its line to MRU and a miss always allocates, so LRU
    is a stack algorithm (Mattson et al., 1970): a request hits in an
    ``a``-way partition iff fewer than ``a`` distinct lines of its set
    were touched since its line's previous request.  One capped
    distance pass per distinct core group (:func:`_stack_tables`)
    therefore answers every partition size of every run at once; the
    prefetched-unused bit follows each line's chain of "prefetch fill
    sets, demand touch clears" events.  Other runs of the same call
    take the round loop.  The per-way image of stack-solved runs is
    deferred: ``tags``/``stamps``/``pref`` are built way-exactly (by
    replaying the recorded stream through the round loop) only when
    first read or served again, so a static sweep never allocates it.
    """

    def __init__(self, geometry, n_runs: int) -> None:
        self.geometry = geometry
        self.n_runs = n_runs
        self._tags = self._stamps = self._pref = None  # see _image
        # (stream, runs, allow rows, first stamp) of a stack-solved
        # serve not yet in the image, and those runs' occupancies.
        self._deferred = None
        self._occ: dict[int, int] = {}
        self._seq = 1
        # CacheStats mirror, all per run (lockstep subgroups may serve
        # different runs different stream lengths).
        self.accesses = np.zeros(n_runs, dtype=np.int64)
        self.hits = np.zeros(n_runs, dtype=np.int64)
        self.pref_fills = np.zeros(n_runs, dtype=np.int64)
        self.pref_used = np.zeros(n_runs, dtype=np.int64)
        self.pref_evicted_unused = np.zeros(n_runs, dtype=np.int64)

    def _image(self):
        """``(tags, stamps, pref)``, allocated and caught up on first use."""
        if self._tags is None:
            shape = (self.n_runs, self.geometry.sets, self.geometry.ways)
            self._tags = np.full(shape, -1, dtype=np.int64)
            self._stamps = np.zeros(shape, dtype=np.int64)
            self._pref = np.zeros(shape, dtype=np.uint8)
        if self._deferred is not None:
            stream, run_idx, allow_r, seq0 = self._deferred
            self._deferred = None
            self._occ = {}
            self._round_loop(stream, run_idx, allow_r, seq0)
        return self._tags, self._stamps, self._pref

    @property
    def tags(self) -> np.ndarray:
        return self._image()[0]

    @property
    def stamps(self) -> np.ndarray:
        return self._image()[1]

    @property
    def pref(self) -> np.ndarray:
        return self._image()[2]

    def stats_for(self, run: int) -> tuple[int, int, int, int, int]:
        """One run's ``CacheStats`` tuple (accesses, hits, fills, used, evicted)."""
        return (
            int(self.accesses[run]),
            int(self.hits[run]),
            int(self.pref_fills[run]),
            int(self.pref_used[run]),
            int(self.pref_evicted_unused[run]),
        )

    def occupancy(self, run: int) -> int:
        occ = self._occ.get(run)
        if occ is None:
            # Not deferred: the run's image rows are current (or unborn).
            occ = 0 if self._tags is None else int((self._tags[run] != -1).sum())
        return occ

    def _dedup_classes(self, run_idx, allowed):
        """Partition subgroup runs into bitwise-identical serve classes.

        Two runs land in one class when their CAT allow rows and full
        LLC images match — an identical stream then produces identical
        outcomes, so only the class representative needs serving.
        Returns ``(reps, class_idx, dups)``: representative positions
        into ``run_idx``, each position's class number, and
        ``(duplicate_run, representative_run)`` pairs.
        """
        reps: list[int] = []
        class_idx = np.empty(len(run_idx), dtype=np.int64)
        dups: list[tuple[int, int]] = []
        for i, run in enumerate(run_idx):
            r = int(run)
            for ci, pi in enumerate(reps):
                p = int(run_idx[pi])
                if (
                    np.array_equal(allowed[r], allowed[p])
                    and np.array_equal(self.tags[r], self.tags[p])
                    and np.array_equal(self.stamps[r], self.stamps[p])
                    and np.array_equal(self.pref[r], self.pref[p])
                ):
                    class_idx[i] = ci
                    dups.append((r, p))
                    break
            else:
                class_idx[i] = len(reps)
                reps.append(i)
        return np.asarray(reps, dtype=np.int64), class_idx, dups

    def serve(self, stream: _PreparedStream, allowed, hits_d, mem_d, pref_m, runs=None) -> None:
        """Serve one merged stream for every run at once.

        ``allowed`` is the ``(n_runs, cpus, ways)`` boolean CAT matrix;
        ``hits_d``/``mem_d``/``pref_m`` are ``(R, cpus)`` int64
        accumulators for demand hits, demand fills and prefetch fills —
        the per-core counters the scalar serve loop tracks (``(R,
        segments, cpus)`` for a :meth:`_PreparedStream.concat` stream).
        ``runs`` restricts the serve to a subgroup of run indices (the
        lockstep scheduler serves each unique stream shape to exactly
        the runs that produced it); accumulator rows align with ``runs``
        order.  Defaults to all runs.

        A cold image served for all runs takes the stack-distance
        strategy for every run it can (see the class docstring); the
        rest, and every other serve, take the round loop.  The subgroup
        path dedups the run axis too: runs whose LLC image
        (tags/stamps/pref) and CAT allow row are bitwise equal see
        identical outcomes for an identical stream, so only one
        representative per equality class is served; duplicates get the
        representative's stats and a copy of the touched sets.
        """
        if runs is None:
            stat_idx = np.arange(self.n_runs, dtype=np.int64)
        else:
            stat_idx = np.asarray(runs, dtype=np.int64)
        if not allowed[stat_idx].any(axis=2).all():
            raise ValueError("allowed_ways must contain at least one way")
        n = stream.n
        if not n:
            return
        plans: dict[int, list] = {}
        if runs is None and self._seq == 1 and self._tags is None:
            plans, left = self._stack_plans(stream, allowed)
        if plans:
            self._serve_stack(stream, plans, hits_d, mem_d, pref_m)
            if left:
                acc = [np.zeros((len(left),) + a.shape[1:], dtype=np.int64) for a in (hits_d, mem_d, pref_m)]
                self._serve_runs(stream, allowed, *acc, np.asarray(left, dtype=np.int64), dedup=False)
                for a, part in zip((hits_d, mem_d, pref_m), acc):
                    a[left] += part
            # Recorded last, so the round loop above cannot replay it.
            solved = np.fromiter(plans, dtype=np.int64, count=len(plans))
            self._deferred = (stream, solved, allowed[solved], self._seq)
        else:
            self._serve_runs(stream, allowed, hits_d, mem_d, pref_m, stat_idx, dedup=runs is not None)
        self._seq += n
        self.accesses[stat_idx] += n

    def _stack_plans(self, stream: _PreparedStream, allowed):
        """Split the runs of a cold whole-group serve by strategy.

        A run is stack-solvable when its requesting cores' CBMs are
        pairwise identical or disjoint and no line is requested by two
        of its partitions.  Returns ``(plans, left)``: each solvable
        run's ``(core group, ways)`` partitions, and the other runs.
        """
        cpu = stream.cpu_col
        busy = np.flatnonzero(np.bincount(cpu)).tolist()
        order = stream.line_order()
        sl, sc = stream.line[order], cpu[order]
        shared = (sl[1:] == sl[:-1]) & (sc[1:] != sc[:-1])
        pairs = set(zip(sc[:-1][shared].tolist(), sc[1:][shared].tolist()))
        plans: dict[int, list] = {}
        left: list[int] = []
        for r in range(self.n_runs):
            parts: dict[bytes, list[int]] = {}
            for c in busy:
                parts.setdefault(allowed[r, c].tobytes(), []).append(c)
            masks = np.frombuffer(b"".join(parts), dtype=bool).reshape(len(parts), -1)
            part_of = {c: i for i, cores in enumerate(parts.values()) for c in cores}
            if masks.sum(axis=0).max() > 1 or any(part_of[a] != part_of[b] for a, b in pairs):
                left.append(r)
            else:
                plans[r] = [(tuple(cores), int(m.sum())) for m, cores in zip(masks, parts.values())]
        return plans, left

    def _serve_stack(self, stream: _PreparedStream, plans, hits_d, mem_d, pref_m) -> None:
        """Stack-distance serve of the runs in ``plans`` (whole-group rows)."""
        W = self.geometry.ways
        groups = sorted({grp for parts in plans.values() for grp, _ in parts})
        gi = {grp: g for g, grp in enumerate(groups)}
        tables = _stack_tables(stream, groups, W, self.geometry.sets, hits_d[0].size)
        for r, parts in plans.items():
            shape = hits_d[r].shape
            occ = 0
            for grp, a in parts:
                t = tables[gi[grp]]
                dh = t.dem_le[:, a - 1]
                pm = t.pref_le[:, W] - t.pref_le[:, a - 1]
                hits_d[r] += dh.reshape(shape)
                mem_d[r] += (t.dem_le[:, W] - dh).reshape(shape)
                pref_m[r] += pm.reshape(shape)
                self.hits[r] += dh.sum() + t.pref_le[:, a - 1].sum()
                self.pref_fills[r] += pm.sum()
                self.pref_used[r] += t.used[a]
                self.pref_evicted_unused[r] += t.evicted[a]
                occ += int(t.occupancy[a])
            self._occ[r] = occ

    def _serve_runs(self, stream, allowed, hits_d, mem_d, pref_m, stat_idx, dedup: bool) -> None:
        """Round-loop serve of runs ``stat_idx``."""
        if dedup:
            reps, class_idx, dups = self._dedup_classes(stat_idx, allowed)
            run_idx = stat_idx[reps]
        else:
            run_idx, class_idx, dups = stat_idx, None, []
        H, OP = self._round_loop(stream, run_idx, allowed[run_idx], self._seq)
        if dups:
            # Duplicates evolve identically to their representative for
            # this stream; only the touched sets changed.
            tags, stamps, pref = self._image()
            usets = np.unique(stream.si)
            for dup, rep in dups:
                tags[dup, usets] = tags[rep, usets]
                stamps[dup, usets] = stamps[rep, usets]
                pref[dup, usets] = pref[rep, usets]
        dem = stream.demand[None, :]
        ispf = stream.is_pref[None, :]
        M = ~H
        fillm = M & ispf
        hit_v = H.sum(axis=1)
        used_v = (H & dem & OP).sum(axis=1)
        # Only a prefetch fill sets the bit, so a set bit implies a valid
        # line: misses onto never-filled ways cannot count as evictions.
        evic_v = (M & OP).sum(axis=1)
        fill_v = fillm.sum(axis=1)
        if class_idx is not None:
            hit_v = hit_v[class_idx]
            used_v = used_v[class_idx]
            evic_v = evic_v[class_idx]
            fill_v = fill_v[class_idx]
        self.hits[stat_idx] += hit_v
        self.pref_used[stat_idx] += used_v
        self.pref_evicted_unused[stat_idx] += evic_v
        self.pref_fills[stat_idx] += fill_v
        # Per-(run, core) reductions in one pass: permute request
        # columns into contiguous per-core blocks, then segment-sum.
        dh = H & dem
        dm = M & dem
        P = stream.cpu_perm
        st = stream.cpu_starts
        hv = np.add.reduceat(dh[:, P].astype(np.int32), st, axis=1)
        mv = np.add.reduceat(dm[:, P].astype(np.int32), st, axis=1)
        fv = np.add.reduceat(fillm[:, P].astype(np.int32), st, axis=1)
        if class_idx is not None:
            hv = hv[class_idx]
            mv = mv[class_idx]
            fv = fv[class_idx]
        if stream.seg_ids is None:
            hits_d[:, stream.cpu_ids] += hv
            mem_d[:, stream.cpu_ids] += mv
            pref_m[:, stream.cpu_ids] += fv
        else:
            # Multi-quantum stream: accumulators carry a segment
            # axis so each quantum's counters come back separately.
            hits_d[:, stream.seg_ids, stream.cpu_ids] += hv
            mem_d[:, stream.seg_ids, stream.cpu_ids] += mv
            pref_m[:, stream.seg_ids, stream.cpu_ids] += fv

    def _round_loop(self, stream: _PreparedStream, run_idx, allow_r, seq0: int):
        """Advance the image rows of ``run_idx`` over ``stream``, round by round.

        ``allow_r`` are those runs' ``(cpus, ways)`` CAT rows and
        ``seq0`` the stream's first stamp.  Returns per-request ``(hit,
        touched way's prefetch bit was set)`` columns, one row per run.
        """
        stream.prepare()
        tags, stamps, pref = self._image()
        S = self.geometry.sets
        W = self.geometry.ways
        n = stream.n
        R = len(run_idx)
        tags_f = tags.reshape(-1)
        stamps_f = stamps.reshape(-1)
        pref_f = pref.reshape(-1)
        # (run, set) rows of the images: one gather shape serves the
        # full group and any subgroup alike.
        tag_rows = tags.reshape(-1, W)
        stamp_rows = stamps.reshape(-1, W)
        row_off = (run_idx * S)[:, None]
        seqs = np.arange(seq0, seq0 + n, dtype=np.int64)
        cpu_col = stream.cpu_col
        H = np.empty((R, n), dtype=bool)  # hit?
        OP = np.empty((R, n), dtype=bool)  # touched way's pref bit was set?
        # CAT as a stamp penalty; when every served run allows every way
        # (non-CAT mechanisms) there is nothing to penalise.
        pen = None if allow_r.all() else np.where(allow_r, 0, _CAT_PENALTY)
        for ids, si, line, ispf_r in stream.rounds:
            rows = row_off + si  # (R, k)
            sub_t = tag_rows.take(rows, axis=0)  # (R, k, W)
            # Sparse hits: flat (run, request, way) positions.  A line
            # sits in at most one way of its set, so an all-hit round
            # has exactly one position per (run, request), in order.
            hpos = np.flatnonzero(sub_t == line[None, :, None])
            if hpos.size == rows.size:
                way = (hpos % W).reshape(rows.shape)
            else:
                # One victim rule (stamp-0 invariant): min allowed stamp.
                sub_s = stamp_rows.take(rows, axis=0)
                if pen is not None:
                    sub_s |= pen.take(cpu_col[ids], axis=1)
                way = sub_s.argmin(axis=2)
                hreq, hway = np.divmod(hpos, W)  # flat (run, request), way
                way.reshape(-1)[hreq] = hway
            flat = rows * W + way
            # The chosen way held the requested line iff the request hit.
            hit = tags_f[flat] == line[None, :]
            old_p = pref_f[flat]
            H[:, ids] = hit
            OP[:, ids] = old_p
            # Hits keep the bit on prefetch touches and clear it on
            # demand; fills set it iff the fill is a prefetch.
            is_pref_r = ispf_r[None, :]
            new_p = np.where(hit, old_p & is_pref_r, is_pref_r)
            tags_f[flat] = line[None, :]
            stamps_f[flat] = seqs[ids][None, :]
            pref_f[flat] = new_p
        return H, OP


class BatchKernel:
    """The shared inputs of one batch of mix-affine runs.

    Holds what every run of a (params, quantum, mix) group has in
    common — the per-core forkable base traces — plus the merge step
    that turns one quantum's per-core request lists into a stream the
    grouped LLC can serve.  All mutable simulation state lives in the
    :class:`GroupedCore`/:class:`GroupedLLC` objects that
    :func:`run_static_sweep` and :class:`LockstepGroup` build on top,
    so one kernel serves any number of sweeps and groups.
    """

    def __init__(self, params: MachineParams, *, quantum: int) -> None:
        self.params = params
        self.quantum = int(quantum)
        self.base_traces: dict[int, object] = {}

    def add_core(self, cpu: int, base_trace) -> None:
        """Register a core's shared materialized trace (forkable)."""
        if not hasattr(base_trace, "fork"):
            raise TypeError(
                "batch kernel requires forkable materialized traces "
                f"(got {type(base_trace).__name__} for core {cpu}); "
                "enable the trace plane or fall back to the scalar engine"
            )
        self.base_traces[cpu] = base_trace

    @property
    def lane_cores(self) -> tuple[int, ...]:
        return tuple(sorted(self.base_traces))

    def merged(self, llc_reqs: list[list]) -> tuple:
        """Round-robin merge of one quantum's per-core request lists."""
        return fastengine.merge_llc_requests(llc_reqs)

    def grouped_stream(self, llc_reqs: list[list]) -> _PreparedStream:
        """:meth:`merged`, decoded into NumPy columns for the grouped serve."""
        pre = self.merged(llc_reqs)
        return _PreparedStream(pre[1], pre[2], self.params.llc.sets - 1)


class StaticSweepRun:
    """One run's outputs from :func:`run_static_sweep`."""

    __slots__ = ("pmu_counts", "wall_cycles", "llc_stats", "llc_occupancy", "trace_fallbacks")

    def __init__(self, pmu_counts, wall_cycles, llc_stats, llc_occupancy, trace_fallbacks) -> None:
        self.pmu_counts = pmu_counts  # (n_cores, N_EVENTS) float64
        self.wall_cycles = wall_cycles
        self.llc_stats = llc_stats  # (accesses, hits, fills, used, evicted)
        self.llc_occupancy = llc_occupancy
        self.trace_fallbacks = trace_fallbacks  # the sweep's shared traces going live


def run_static_sweep(
    kernel: BatchKernel,
    configs: list[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]],
    masks: tuple[int, ...],
    n_accesses: int,
) -> list[StaticSweepRun]:
    """Advance R static runs in lockstep through one SoA kernel pass.

    ``configs`` is one ``(clos_cbms, core_clos)`` CAT configuration per
    run; ``masks`` are the per-core prefetcher masks *shared by every
    run* — that is what makes the core phase, and therefore the merged
    LLC request stream, identical across the sweep: each core's
    :class:`GroupedCore` keeps all R runs in its one initial lane.

    Three phases.  The core side never reads LLC state, so every
    quantum's lane edges and merged stream come first.  The quanta are
    then concatenated (:meth:`_PreparedStream.concat`) and served in one
    cold whole-group :meth:`GroupedLLC.serve` into ``(R, quanta,
    cpus)`` counters: runs whose CLOS partitions are disjoint take the
    stack-distance strategy, any others (overlapping CBMs) the round
    loop, and the per-way image is never built.  Last, timing runs per
    run and quantum as a scalar fixed point fed those counters; every
    per-run arithmetic sequence matches a scalar fast machine op for
    op, so results are bit-identical to running each configuration on
    its own machine.
    """
    params = kernel.params
    n = params.n_cores
    R = len(configs)
    # Effective per-core masks: static configs overlay MSR defaults.
    pmsr = PrefetchMsr(MsrFile(n))
    for cpu, m in enumerate(masks):
        pmsr.set_mask(cpu, m)
    eff_mask = [pmsr.get_mask(cpu) for cpu in range(n)]
    # Per-run CAT -> (runs, cpus, ways) boolean allowed-way matrix,
    # expanded from each core's CBM bits.  The one controller only
    # validates (its checks do not depend on earlier writes); every run
    # starts from the resctrl default: all cores in CLOS 0, full masks.
    W = params.llc.ways
    cat = CatController(W, n)
    cbm_bits = np.empty((R, n), dtype=np.int64)
    for r, (clos_cbms, core_clos) in enumerate(configs):
        for clos, cbm in clos_cbms:
            cat.set_cbm(clos, cbm)
        clos_of = [0] * n
        for cpu, clos in enumerate(core_clos):
            cat.assign_core(cpu, clos)
            clos_of[cpu] = clos
        cbm_of = dict(clos_cbms)
        cbm_bits[r] = [cbm_of.get(clos, full_mask(W)) for clos in clos_of]
    allowed = (cbm_bits[:, :, None] >> np.arange(W)) & 1 != 0

    glc = GroupedLLC(params.llc, R)
    runs = range(R)
    cores = {cpu: GroupedCore(params, kernel.base_traces[cpu], R) for cpu in kernel.lane_cores}
    mask_of = {cpu: dict.fromkeys(runs, eff_mask[cpu]) for cpu in cores}
    pmu = [np.zeros((n, N_EVENTS), dtype=np.float64) for _ in range(R)]
    wall = [0.0] * R
    drams = [DramModel(params) for _ in range(R)]
    line_bytes = float(params.line_bytes)

    # 1. The core side of every quantum: it never reads LLC state.
    quanta: list[dict] = []
    streams: list[_PreparedStream] = []
    remaining = int(n_accesses)
    while remaining > 0:
        q = min(kernel.quantum, remaining)
        llc_reqs: list[list] = [[] for _ in range(n)]
        edges = {}
        for cpu, core in cores.items():
            e = core.step(runs, q, mask_of[cpu])[0]
            edges[cpu] = e
            llc_reqs[cpu] = e.llc_req
            e.llc_req = None  # merged below; the timing phase never reads it
        streams.append(kernel.grouped_stream(llc_reqs))
        quanta.append(edges)
        remaining -= q

    # 2. One whole-run serve; the segment axis returns each quantum's counters.
    K = len(quanta)
    hits_d = np.zeros((R, K, n), dtype=np.int64)
    mem_d = np.zeros((R, K, n), dtype=np.int64)
    pref_m = np.zeros((R, K, n), dtype=np.int64)
    stream = _PreparedStream.concat(streams, n)
    del streams
    if stream.n:
        glc.serve(stream, allowed, hits_d, mem_d, pref_m)
    hits_l, mem_l, pref_l = hits_d.tolist(), mem_d.tolist(), pref_m.tolist()

    # 3. Per-run timing, quantum by quantum, in the scalar machine's order.
    for j, edges in enumerate(quanta):
        active = [False] * n
        ipm = [0.0] * n
        mlp = [1.0] * n
        for cpu, e in edges.items():
            active[cpu] = True
            ipm[cpu] = e.ipm
            mlp[cpu] = e.mlp
        for r in range(R):
            counts = [QuantumCounts() for _ in range(n)]
            prow = pmu[r]
            h_r, m_r, p_r = hits_l[r][j], mem_l[r][j], pref_l[r][j]
            for cpu, e in edges.items():
                qc = counts[cpu]
                qc.n_access = e.n_access
                qc.n_l2_hit_d = e.n_l2_hit_d
                fastengine.apply_llc_tail(
                    qc, prow, cpu, h_r[cpu], m_r[cpu], p_r[cpu], line_bytes
                )
                prow[cpu] += e.pmu_row
            timing = solve_quantum(params, drams[r], counts, ipm, mlp, active)
            demand_b = 0.0
            pref_b = 0.0
            for cpu in range(n):
                if not active[cpu]:
                    continue
                c = counts[cpu]
                prow[cpu, Event.INSTRUCTIONS] += c.n_access * (1.0 + ipm[cpu])
                prow[cpu, Event.CYCLES] += timing.cycles[cpu]
                prow[cpu, Event.STALLS_L2_PENDING] += timing.stalls_l2_pending[cpu]
                prow[cpu, Event.MEM_DEMAND_BYTES] += c.demand_bytes
                prow[cpu, Event.MEM_PREF_BYTES] += c.pref_bytes
                demand_b += c.demand_bytes
                pref_b += c.pref_bytes
            drams[r].account(demand_b, pref_b)
            wall[r] += timing.machine_cycles

    fallbacks = sum(core.trace_fallbacks() for core in cores.values())
    return [
        StaticSweepRun(pmu[r], wall[r], glc.stats_for(r), glc.occupancy(r), fallbacks)
        for r in runs
    ]


# --------------------------------------------------------------------------
# Masked lockstep: dynamic batching for runs with divergent policies
# --------------------------------------------------------------------------


class _CoreLane:
    """One state-equality class of runs inside a :class:`GroupedCore`.

    All member runs sit at the same trace position with bitwise-equal
    private-core state, so one scalar-kernel advance serves them all.
    ``serial`` is a stable identity for the merge-comparison backoff.
    """

    __slots__ = ("state", "runs", "serial")

    def __init__(self, state: _LaneState, runs: set, serial: int) -> None:
        self.state = state
        self.runs = runs
        self.serial = serial


class GroupedCore:
    """R runs' private-core state for one core, advanced in masked lockstep.

    Run-axis batching for the core side: all R runs share one zero-copy
    trace, and per-run prefetch masks are the only divergence axis.
    State is deduplicated into lanes (equality classes) rather than a
    dense ``(runs, sets, ways)`` tensor: interval-aligned sweeps spend
    most quanta with every run under the same mask, so one lane — one
    scalar-kernel call — usually covers the whole group, and the dense
    tensors are still available as views (:meth:`cache_tensors`,
    :meth:`stride_tensor`) for inspection and the property suite.

    Each :meth:`step` partitions stepping runs by mask, clones the lane
    image per partition (before any advance), merges lanes whose images
    re-converged (order-sensitive content equality; failed comparisons
    back off :data:`MERGE_BACKOFF` steps per pair) and advances each
    surviving lane once with the unmodified scalar kernel.  Raises
    :class:`LockstepError` when a live-trace lane would need cloning —
    the caller degrades the whole group to per-run scalar execution.
    """

    #: Steps to skip re-comparing a lane pair after a failed merge.
    MERGE_BACKOFF = 8

    def __init__(self, params: MachineParams, base_trace, n_runs: int) -> None:
        if not hasattr(base_trace, "fork"):
            raise TypeError(
                "GroupedCore requires a forkable materialized trace "
                f"(got {type(base_trace).__name__})"
            )
        self.params = params
        self.base_trace = base_trace
        self.n_runs = n_runs
        self.forks: list = []
        self._scratch = np.zeros((1, N_EVENTS), dtype=np.float64)
        self._serial = 0
        self._step_no = 0
        self._backoff: dict[tuple[int, int], int] = {}
        st = _LaneState(
            FastCache(params.l1), FastCache(params.l2), _fresh_bank(params), self._fork_trace(0)
        )
        self.lanes: list[_CoreLane] = [_CoreLane(st, set(range(n_runs)), self._next_serial())]

    def _next_serial(self) -> int:
        self._serial += 1
        return self._serial

    def _fork_trace(self, pos: int):
        t = self.base_trace.fork(pos)
        self.forks.append(t)
        return t

    def _clone(self, st: _LaneState) -> _LaneState:
        if st.trace._live is not None:
            raise LockstepError(
                "cannot split a lane whose trace left the zero-copy path"
            )
        return _clone_image(self.params, st, self._fork_trace(st.trace.pos))

    def step(self, active, q: int, mask_of) -> dict:
        """Advance runs in ``active`` one quantum of ``q`` accesses.

        ``mask_of`` maps run -> effective prefetch mask for this core.
        Returns ``{run: _LaneEdge}`` with each run's core-phase outputs
        (runs sharing a lane share the edge object, and therefore the
        identity of its request list — the scheduler keys stream merges
        on exactly that).
        """
        self._step_no += 1
        active_set = set(active)
        new_lanes: list[_CoreLane] = []
        plan: list[tuple[_CoreLane, int]] = []
        for lane in self.lanes:
            stepping = lane.runs & active_set
            if not stepping:
                new_lanes.append(lane)
                continue
            staying = lane.runs - stepping
            groups: dict[int, set] = {}
            for r in stepping:
                groups.setdefault(mask_of[r], set()).add(r)
            keys = sorted(groups)
            if staying:
                # The un-advanced image stays behind for the parked
                # runs; every stepping partition gets a clone.
                lane.runs = staying
                new_lanes.append(lane)
                donors = keys
            else:
                # First partition advances the lane in place; clones
                # for the rest are taken before anything advances.
                donors = keys[1:]
            clones = {m: self._clone(lane.state) for m in donors}
            if not staying:
                lane.runs = groups[keys[0]]
                plan.append((lane, keys[0]))
                new_lanes.append(lane)
            for m in donors:
                nl = _CoreLane(clones[m], groups[m], self._next_serial())
                plan.append((nl, m))
                new_lanes.append(nl)
        # Re-merge pass: lanes stepping under the same mask whose images
        # re-converged advance once for all their runs.
        by_mask: dict[int, list[_CoreLane]] = {}
        for lane, m in plan:
            by_mask.setdefault(m, []).append(lane)
        merged_plan: list[tuple[_CoreLane, int]] = []
        for m in sorted(by_mask):
            survivors: list[_CoreLane] = []
            for lane in by_mask[m]:
                merged = False
                for surv in survivors:
                    key = (surv.serial, lane.serial)
                    if self._backoff.get(key, 0) > self._step_no:
                        continue
                    if _images_equal(surv.state, lane.state):
                        surv.runs |= lane.runs
                        new_lanes.remove(lane)
                        merged = True
                        break
                    self._backoff[key] = self._step_no + self.MERGE_BACKOFF
                if not merged:
                    survivors.append(lane)
            merged_plan.extend((lane, m) for lane in survivors)
        edges: dict[int, _LaneEdge] = {}
        for lane, m in merged_plan:
            qc, llc_req, pmu_row, ipm, mlp = _advance_image(lane.state, q, m, self._scratch)
            e = _fill_edge(lane.state, qc, llc_req, pmu_row, ipm, mlp)
            for r in lane.runs:
                edges[r] = e
        self.lanes = new_lanes
        return edges

    def retire(self, run: int) -> None:
        """Drop a finished run so its lane can keep merging freely."""
        for lane in self.lanes:
            lane.runs.discard(run)
        self.lanes = [lane for lane in self.lanes if lane.runs]

    # -- dense SoA views (inspection / property suite) -----------------

    def _lane_of(self, run: int) -> _CoreLane:
        for lane in self.lanes:
            if run in lane.runs:
                return lane
        raise KeyError(f"run {run} not in any lane (retired?)")

    def cache_tensors(self, level: str = "l1"):
        """``(tags, stamps)`` as ``(runs, sets, ways)`` int64 tensors.

        ``tags`` hold line addresses in LRU -> MRU way order (-1 =
        empty); ``stamps`` hold each occupied way's recency rank (0 =
        LRU) and -1 for empty ways.  Retired runs keep all -1.
        """
        geom = self.params.l1 if level == "l1" else self.params.l2
        S, W = geom.sets, geom.ways
        tags = np.full((self.n_runs, S, W), -1, dtype=np.int64)
        stamps = np.full((self.n_runs, S, W), -1, dtype=np.int64)
        ranks = np.arange(W, dtype=np.int64)[None, :]
        for lane in self.lanes:
            cache = lane.state.l1 if level == "l1" else lane.state.l2
            t = cache.tags_array()
            s = np.where(t != -1, ranks, np.int64(-1))
            for r in lane.runs:
                tags[r] = t
                stamps[r] = s
        return tags, stamps

    def stride_tensor(self):
        """IP-stride tables as a ``(runs, entries, 4)`` int64 tensor.

        Rows are ``[ctx, last_line, stride, confidence]`` in FIFO
        (insertion) order, -1-padded past each table's population.
        """
        E = self.params.stride_table_entries
        out = np.full((self.n_runs, E, 4), -1, dtype=np.int64)
        for lane in self.lanes:
            block = np.full((E, 4), -1, dtype=np.int64)
            for i, (ctx, row) in enumerate(lane.state.bank.ip_stride._table.items()):
                block[i, 0] = ctx
                block[i, 1:] = row
            for r in lane.runs:
                out[r] = block
        return out

    def trace_fallbacks(self) -> int:
        return sum(t.fallbacks for t in self.forks)


class LockstepMachine(Machine):
    """A per-run ``Machine`` that parks at every quantum boundary.

    Controllers drive it exactly like a scalar machine — MSR writes,
    CAT moves, ``run_accesses`` between decisions — but ``_run_quantum``
    posts the run's position, effective prefetch masks and CAT allow
    matrix to the owning :class:`LockstepGroup` and blocks until the
    scheduler has advanced the grouped core/LLC state, then folds the
    returned per-run counters through the inherited scalar
    ``_timing_phase``.  The accumulation sequence is op-for-op the one
    :func:`run_static_sweep` pins, so results are bit-identical to a
    scalar fast machine.
    """

    def __init__(self, group: "LockstepGroup", run_id: int) -> None:
        kernel = group.kernel
        super().__init__(kernel.params, quantum=kernel.quantum, engine=ENGINE_BATCH)
        # Weak: the group owns its members.  A strong back-reference
        # would make every finished group (grouped LLC tensors, stream
        # cache) cyclic garbage that lives until the next gen-2 GC.
        self._group = weakref.proxy(group)
        self._run_id = run_id
        self._pos = 0
        self._q = -1
        self._masks: dict[int, int] = {}
        self._allow = np.zeros((kernel.params.n_cores, kernel.params.llc.ways), dtype=bool)
        self._allow_gen = -1
        self._outq: deque = deque()
        self._decl_remaining = 0
        self._sched_pos = 0
        self._sched_left = 0
        self._parked = threading.Event()
        self._resume = threading.Event()
        self._done = False
        self._error: BaseException | None = None
        self._result = None
        for cpu in kernel.lane_cores:
            self.cores[cpu].active = True

    def attach_trace(self, core: int, trace) -> None:  # pragma: no cover
        raise TypeError(
            "LockstepMachine cores are driven by the group's shared "
            "trace; traces are registered on the BatchKernel"
        )

    def _refresh_allow(self) -> None:
        cat = self.cat
        if cat.generation == self._allow_gen:
            return
        self._allow[:] = False
        for cpu in range(self.params.n_cores):
            for w in cat.allowed_ways(cpu):
                self._allow[cpu, w] = True
        self._allow_gen = cat.generation

    def run_accesses(self, n_per_core: int) -> None:
        # Prefetch-mask and CAT writes only happen between driver calls,
        # so both are fixed for this whole span.  Declaring the span
        # lets the scheduler compute every quantum of it in one go and
        # deliver the outputs as a batch — one park per span instead of
        # one park per quantum.
        self._decl_remaining = int(n_per_core)
        try:
            super().run_accesses(n_per_core)
        finally:
            self._decl_remaining = 0

    def _run_quantum(self, q: int) -> None:
        group = self._group
        if group._aborting:
            raise _LockstepAbort()
        if not self._outq:
            get_mask = self.prefetch_msr.get_mask
            self._masks = {cpu: get_mask(cpu) for cpu in group.kernel.lane_cores}
            self._refresh_allow()
            self._q = q
            self._parked.set()
            ok = self._resume.wait(group.timeout)
            self._resume.clear()
            if not ok or group._aborting:
                raise _LockstepAbort()
        edges, hits_d, mem_d, pref_m = self._outq.popleft()
        self._apply(edges, hits_d, mem_d, pref_m)
        self._pos += q
        self._decl_remaining -= q

    def _apply(self, edges, hits_d, mem_d, pref_m) -> None:
        """Fold one quantum's grouped outputs through the scalar tail."""
        n = self.params.n_cores
        counts = [QuantumCounts() for _ in range(n)]
        ipm = [0.0] * n
        mlp = [1.0] * n
        active = [False] * n
        pmu_counts = self.pmu.counts
        line_bytes = float(self.params.line_bytes)
        for cpu, e in edges.items():
            active[cpu] = True
            ipm[cpu] = e.ipm
            mlp[cpu] = e.mlp
            qc = counts[cpu]
            qc.n_access = e.n_access
            qc.n_l2_hit_d = e.n_l2_hit_d
            fastengine.apply_llc_tail(
                qc,
                pmu_counts,
                cpu,
                int(hits_d[cpu]),
                int(mem_d[cpu]),
                int(pref_m[cpu]),
                line_bytes,
            )
            pmu_counts[cpu] += e.pmu_row
            cs = self.cores[cpu]
            s1, d1 = cs.l1.stats, e.l1_stats
            s1.accesses += d1[0]
            s1.hits += d1[1]
            s1.pref_fills += d1[2]
            s1.pref_used += d1[3]
            s1.pref_evicted_unused += d1[4]
            s2, d2 = cs.l2.stats, e.l2_stats
            s2.accesses += d2[0]
            s2.hits += d2[1]
            s2.pref_fills += d2[2]
            s2.pref_used += d2[3]
            s2.pref_evicted_unused += d2[4]
        self._timing_phase(counts, ipm, mlp, active)

    def trace_fallbacks(self) -> int:
        return self._group.trace_fallbacks()


class LockstepGroup:
    """Scheduler advancing R divergent runs of one mix in lockstep.

    Owns the grouped SoA state (one :class:`GroupedCore` per lane core,
    one :class:`GroupedLLC`) and R :class:`LockstepMachine` members.
    :meth:`run` executes one unmodified driver callable per member on a
    worker thread; the scheduler repeatedly picks the minimum
    ``(trace_pos, quantum)`` cohort, steps every grouped core once for
    it, serves the merged LLC stream per unique stream shape, and wakes
    members one at a time — exactly one thread is ever runnable, so the
    interleave is deterministic and the per-run arithmetic matches a
    scalar fast machine op for op.

    The kernel is never mutated by lockstep execution (grouped cores
    fork the shared base traces), so it outlives a failed group.
    """

    def __init__(self, kernel: BatchKernel, n_runs: int, *, timeout: float = 120.0) -> None:
        if n_runs < 1:
            raise ValueError("n_runs must be positive")
        self.kernel = kernel
        self.n_runs = n_runs
        self.timeout = timeout
        p = kernel.params
        self.cores = {
            cpu: GroupedCore(p, kernel.base_traces[cpu], n_runs)
            for cpu in kernel.lane_cores
        }
        self.llc = GroupedLLC(p.llc, n_runs)
        self._allowed = np.zeros((n_runs, p.n_cores, p.llc.ways), dtype=bool)
        self.members = [LockstepMachine(self, r) for r in range(n_runs)]
        self._stream_cache: dict[tuple, _PreparedStream] = {}
        self._aborting = False

    def trace_fallbacks(self) -> int:
        return sum(c.trace_fallbacks() for c in self.cores.values())

    def run(self, drivers) -> list:
        """Run one driver per member to completion; return their results.

        ``drivers[r]`` is called with member ``r``'s machine on a worker
        thread and may drive it arbitrarily (controller loops included).
        Raises :class:`LockstepError` if the group cannot complete
        batched — including when any driver raises, since the member's
        partial state is unusable; the caller re-runs per-run, where a
        genuine driver error will reproduce scalar.
        """
        if len(drivers) != self.n_runs:
            raise ValueError("need exactly one driver per run")
        threads = [
            threading.Thread(
                target=self._thread_main, args=(m, drv), daemon=True, name=f"lockstep-{m._run_id}"
            )
            for m, drv in zip(self.members, drivers)
        ]
        quantum = self.kernel.quantum
        try:
            for m, t in zip(self.members, threads):
                t.start()
                self._observe_parked(m)
            while True:
                for m in self.members:
                    if m._error is not None:
                        raise m._error
                live = [m for m in self.members if not m._done]
                if not live:
                    break
                # Advance declared spans without waking anyone: cohorts
                # form over the scheduler's view of each member's
                # position, outputs queue up per member.  The chunking
                # mirrors ``Machine.run_accesses`` exactly, so the
                # member pops one queue entry per quantum it replays.
                # Cohorts stay pinned to the global minimum position —
                # a member whose span is exhausted there is woken for a
                # fresh declaration *before* the cohort advances, so
                # cross-run serve batching never shrinks just because
                # spans have unequal lengths.
                min_pos = min(m._sched_pos for m in live)
                stale = [
                    m for m in live if m._sched_pos == min_pos and m._sched_left == 0
                ]
                if stale:
                    # Wake in run order to drain queues, run controller
                    # work, and park again with a new declaration (or
                    # finish).  Still one runnable thread at a time.
                    for m in sorted(stale, key=lambda mm: mm._run_id):
                        m._resume.set()
                        self._observe_parked(m)
                    continue
                cands = [m for m in live if m._sched_pos == min_pos]
                q = min(min(quantum, m._sched_left) for m in cands)
                sub = [m for m in cands if min(quantum, m._sched_left) == q]
                # Whole quanta with no member ahead in between can be
                # computed as one multi-segment serve; ``q == quantum``
                # implies every member at ``min_pos`` is in ``sub``.
                k = 1
                if q == quantum:
                    k = min(m._sched_left // quantum for m in sub)
                    ahead = [
                        mm._sched_pos for mm in live if mm._sched_pos > min_pos
                    ]
                    if ahead:
                        k = min(k, (min(ahead) - min_pos) // quantum)
                    k = max(k, 1)
                self._step_subgroup(sub, q, k)
                for m in sub:
                    m._sched_pos += q * k
                    m._sched_left -= q * k
        except Exception as e:
            self._abort(threads)
            raise LockstepError(f"lockstep group degraded: {e!r}") from e
        for t in threads:
            t.join(self.timeout)
        return [m._result for m in self.members]

    # -- internals -----------------------------------------------------

    def _thread_main(self, m: LockstepMachine, driver) -> None:
        try:
            m._result = driver(m)
        except _LockstepAbort:
            pass
        except BaseException as e:  # noqa: BLE001 - relayed to scheduler
            m._error = e
        finally:
            m._done = True
            m._parked.set()

    def _wait_parked(self, m: LockstepMachine) -> None:
        if not m._parked.wait(self.timeout):
            raise RuntimeError(f"lockstep member {m._run_id} stalled")
        m._parked.clear()

    def _observe_parked(self, m: LockstepMachine) -> None:
        """Wait for a park (or exit) and snapshot the declared span.

        At park time the member's queue is empty and ``_pos`` reflects
        every applied quantum, so the scheduler's view starts there;
        ``_decl_remaining`` covers the rest of the member's current
        ``run_accesses`` span (falling back to the single parked
        quantum if the member was advanced outside a declaration).
        """
        self._wait_parked(m)
        if m._done:
            self._retire(m._run_id)
            return
        m._sched_pos = m._pos
        m._sched_left = m._decl_remaining if m._decl_remaining > 0 else m._q

    def _retire(self, run: int) -> None:
        for core in self.cores.values():
            core.retire(run)

    def _abort(self, threads) -> None:
        self._aborting = True
        for m in self.members:
            m._resume.set()
        for t in threads:
            t.join(self.timeout)

    def _step_subgroup(self, sub, q: int, k: int = 1) -> None:
        """Advance one cohort ``k`` quanta of length ``q`` at once.

        Lanes still advance quantum by quantum (one edge per lane per
        quantum), but the LLC serves the whole span as one concatenated
        multi-segment stream: per-set replay order and absolute stamps
        are identical to ``k`` back-to-back serves, and the segment
        axis on the accumulators recovers each quantum's counters for
        the member-side timing phase.
        """
        by_run = {m._run_id: m for m in sub}
        runs = sorted(by_run)
        n = self.kernel.params.n_cores
        edges_seq: list[dict[int, dict]] = [{r: {} for r in runs} for _ in range(k)]
        for cpu, core in self.cores.items():
            mask_of = {r: by_run[r]._masks[cpu] for r in runs}
            for j in range(k):
                for r, e in core.step(runs, q, mask_of).items():
                    edges_seq[j][r][cpu] = e
        for r in runs:
            self._allowed[r] = by_run[r]._allow
        # Group runs by merged-stream shape: runs whose lanes coincide
        # on every core for the whole span share the request lists (by
        # identity) and thus one merge + one grouped serve.
        order: list[tuple] = []
        groups: dict[tuple, list[int]] = {}
        for r in runs:
            key = tuple(
                id(edges_seq[j][r][cpu].llc_req) if cpu in edges_seq[j][r] else 0
                for j in range(k)
                for cpu in range(n)
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(r)
        for key in order:
            grp = groups[key]
            quanta: list[_PreparedStream] = []
            for j in range(k):
                ed0 = edges_seq[j][grp[0]]
                # Merged streams repeat across quanta in steady state;
                # the content key finds equal streams produced by
                # distinct edges.
                llc_reqs: list[list] = [
                    ed0[cpu].llc_req if cpu in ed0 else [] for cpu in range(n)
                ]
                ckey = tuple(
                    np.asarray(lst, dtype=np.int64).tobytes() for lst in llc_reqs
                )
                stream = self._stream_cache.get(ckey)
                if stream is None:
                    stream = self._stream_cache[ckey] = self.kernel.grouped_stream(llc_reqs)
                quanta.append(stream)
            hits_d = np.zeros((len(grp), k, n), dtype=np.int64)
            mem_d = np.zeros((len(grp), k, n), dtype=np.int64)
            pref_m = np.zeros((len(grp), k, n), dtype=np.int64)
            if k == 1:
                stream = quanta[0]
                if stream.n:
                    self.llc.serve(
                        stream, self._allowed,
                        hits_d[:, 0], mem_d[:, 0], pref_m[:, 0],
                        runs=grp,
                    )
            else:
                stream = _PreparedStream.concat(quanta, n)
                if stream.n:
                    self.llc.serve(stream, self._allowed, hits_d, mem_d, pref_m, runs=grp)
            # Queue the outputs; members drain them park-free when
            # woken at the end of their declared span (apply +
            # controller work stays fully serialized — the scheduler is
            # the only runnable thread until it wakes someone).
            for i, r in enumerate(grp):
                outq = by_run[r]._outq
                for j in range(k):
                    outq.append((edges_seq[j][r], hits_d[i, j], mem_d[i, j], pref_m[i, j]))
