"""Properties of the masked-lockstep grouped kernels.

Differential checks, innermost layer first:

* :class:`GroupedLLC` served with per-run *divergent* CAT allow
  matrices — including mid-stream flips, subgroup (ragged) serves and
  multi-quantum concatenated streams — against an independent
  CAT-aware dict-LRU oracle (and, for divergent full-group serves, the
  library's reference :class:`~repro.sim.cache.PartitionedCache` too),
  on hypothesis-generated request streams;
  and its cold whole-group serve, where the stack-distance strategy
  takes every run with independent partitions and defers the image.
* The stamp-0 victim rule on its own: a stack-solved fill phase
  confined to the low ways, then a CAT flip that exposes never-filled
  high ways, way-exact against the reference
  :class:`~repro.sim.cache.PartitionedCache`; the empty-allow-row
  error; a static sweep that never builds the image.
* :func:`run_static_sweep` over 1-way partitions, overlapping CBMs and
  hypothesis-drawn disjoint CLOS layouts (idle core, ragged access
  counts) against one scalar fast machine per configuration.
* The full :class:`LockstepGroup` under seeded-random scripts
  (divergent prefetch masks, mid-run CAT flips, uneven ``run_accesses``
  spans including non-quantum-aligned tails) against one scalar fast
  machine per run, comparing PMU totals, wall cycles, the dense
  ``cache_tensors``/``stride_tensor`` views and the grouped LLC image.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.batch import build_batch_kernel
from repro.experiments.config import ScaleConfig
from repro.experiments.runner import build_machine
from repro.sim.batch import GroupedLLC, LockstepGroup, _PreparedStream, run_static_sweep
from repro.sim.cache import PartitionedCache
from repro.sim.params import CacheGeometry
from repro.sim.tracestore import TraceStore
from repro.workloads.mixes import make_mixes

GEOM = CacheGeometry(8 * 4 * 64, 4)  # 8 sets x 4 ways
N_CPUS = 2

SC = ScaleConfig(name="lockstep-prop", llc_scale=16, n_cores=4, quantum=512)


class CatLruOracle:
    """Independent way-partitioned LRU model for one run.

    Deliberately naive: per set a list of ``[tag, stamp, pref]`` rows,
    one per way, no shared code with the grouped serve.  Fills take the
    lowest-indexed *allowed* empty way; victims the least-recently
    touched allowed valid way.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.g = geometry
        self.ways = [
            [[-1, -1, 0] for _ in range(geometry.ways)] for _ in range(geometry.sets)
        ]
        self.t = 0
        self.accesses = 0
        self.hits = 0
        self.pref_fills = 0
        self.pref_used = 0
        self.pref_evicted_unused = 0
        self.hits_d = [0] * N_CPUS
        self.mem_d = [0] * N_CPUS
        self.pref_m = [0] * N_CPUS

    def access(self, line: int, cpu: int, is_pref: bool, allow_row) -> None:
        self.t += 1
        self.accesses += 1
        ws = self.ways[line & (self.g.sets - 1)]
        for w in ws:
            if w[0] == line:
                self.hits += 1
                if not is_pref:
                    self.hits_d[cpu] += 1
                    if w[2]:
                        self.pref_used += 1
                w[1] = self.t
                w[2] = w[2] and is_pref
                return
        if not is_pref:
            self.mem_d[cpu] += 1
        else:
            self.pref_fills += 1
            self.pref_m[cpu] += 1
        victim = None
        for wi, w in enumerate(ws):
            if allow_row[wi] and w[0] == -1:
                victim = w
                break
        if victim is None:
            victim = min(
                (w for wi, w in enumerate(ws) if allow_row[wi]), key=lambda w: w[1]
            )
            if victim[2]:
                self.pref_evicted_unused += 1
        victim[0] = line
        victim[1] = self.t
        victim[2] = 1 if is_pref else 0

    def tags(self) -> np.ndarray:
        return np.array([[w[0] for w in ws] for ws in self.ways], dtype=np.int64)

    def prefs(self) -> np.ndarray:
        return np.array([[w[2] for w in ws] for ws in self.ways], dtype=np.uint8)

    def touch_ranks(self) -> np.ndarray:
        """Per-way rank of the last touch among the set's valid ways."""
        out = np.full((self.g.sets, self.g.ways), -1, dtype=np.int64)
        for si, ws in enumerate(self.ways):
            stamps = sorted(w[1] for w in ws if w[0] != -1)
            for wi, w in enumerate(ws):
                if w[0] != -1:
                    out[si, wi] = stamps.index(w[1])
        return out


def _stamp_ranks(llc: GroupedLLC, run: int) -> np.ndarray:
    """GroupedLLC stamps normalized to per-set touch ranks."""
    tags = llc.tags[run]
    stamps = llc.stamps[run]
    out = np.full(tags.shape, -1, dtype=np.int64)
    for si in range(tags.shape[0]):
        valid = np.flatnonzero(tags[si] != -1)
        order = valid[np.argsort(stamps[si][valid], kind="stable")]
        for rank, wi in enumerate(order):
            out[si, wi] = rank
    return out


def _rand_allow(rng, n_runs: int) -> np.ndarray:
    """Per-run, per-cpu way masks; every cpu keeps >=1 allowed way."""
    allow = rng.random((n_runs, N_CPUS, GEOM.ways)) < 0.6
    for r in range(n_runs):
        for c in range(N_CPUS):
            if not allow[r, c].any():
                allow[r, c, rng.integers(GEOM.ways)] = True
    return allow


def _partition_allow(rng, n_runs: int) -> np.ndarray:
    """Per-run CAT rows of the stack-solvable shape: both cpus in one
    contiguous CBM, or each cpu in its own, disjoint from the other's."""
    W = GEOM.ways
    allow = np.zeros((n_runs, N_CPUS, W), dtype=bool)
    for r in range(n_runs):
        cut = int(rng.integers(1, W))
        if rng.random() < 0.3:
            allow[r, :, rng.integers(0, cut) : cut] = True
        else:
            first, second = rng.permutation(N_CPUS)
            allow[r, first, rng.integers(0, cut) : cut] = True
            allow[r, second, cut : rng.integers(cut, W) + 1] = True
    return allow


def _stream(rng, n: int, private: bool = False) -> _PreparedStream:
    """Random requests over 64 lines; ``private`` gives each cpu its own
    32, as cores' private address regions do."""
    cpus = rng.integers(0, N_CPUS, size=n)
    if private:
        lines = rng.integers(0, 32, size=n) + 32 * cpus
    else:
        lines = rng.integers(0, 64, size=n)
    is_pref = rng.random(n) < 0.4
    enc = np.where(is_pref, ~lines, lines)
    return _PreparedStream(enc.tolist(), cpus.tolist(), GEOM.sets - 1)


def _oracle_replay(oracles, stream: _PreparedStream, allowed, runs) -> None:
    for i in range(stream.n):
        line = int(stream.line[i])
        cpu = int(stream.cpu_col[i])
        is_pref = bool(stream.is_pref[i])
        for r in runs:
            oracles[r].access(line, cpu, is_pref, allowed[r, cpu])


def _assert_run_matches(llc: GroupedLLC, oracle: CatLruOracle, run: int, label: str):
    assert np.array_equal(llc.tags[run], oracle.tags()), f"{label}: tags"
    assert np.array_equal(llc.pref[run] != 0, oracle.prefs() != 0), f"{label}: pref bits"
    assert np.array_equal(_stamp_ranks(llc, run), oracle.touch_ranks()), f"{label}: LRU order"
    assert llc.stats_for(run) == (
        oracle.accesses,
        oracle.hits,
        oracle.pref_fills,
        oracle.pref_used,
        oracle.pref_evicted_unused,
    ), f"{label}: stats"


def _reference_replay(caches, stream: _PreparedStream, allowed, runs) -> None:
    for i in range(stream.n):
        line = int(stream.line[i])
        cpu = int(stream.cpu_col[i])
        for r in runs:
            ways = tuple(np.flatnonzero(allowed[r, cpu]).tolist())
            caches[r].access(line, ways, bool(stream.is_pref[i]))


def _assert_run_matches_reference(llc: GroupedLLC, cache: PartitionedCache, run: int, label: str):
    """The reference LLC as a second oracle: way placement through
    ``resident_way``, its CacheStats, and per-set LRU order."""
    tags = llc.tags[run]
    resident = [(si, w) for si, w in zip(*np.nonzero(tags != -1))]
    assert len(resident) == cache.occupancy(), f"{label}: reference occupancy"
    for si, w in resident:
        assert cache.resident_way(int(tags[si, w])) == w, f"{label}: reference placement"
    s = cache.stats
    assert llc.stats_for(run) == (
        s.accesses, s.hits, s.pref_fills, s.pref_used, s.pref_evicted_unused
    ), f"{label}: reference stats"
    ref_ranks = np.full(tags.shape, -1, dtype=np.int64)
    for si in range(tags.shape[0]):
        valid = [w for w in range(tags.shape[1]) if cache._tags[si][w] != -1]
        for rank, w in enumerate(sorted(valid, key=lambda w: cache._stamps[si][w])):
            ref_ranks[si, w] = rank
    assert np.array_equal(_stamp_ranks(llc, run), ref_ranks), f"{label}: reference LRU order"


class TestGroupedLLCOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), width=st.sampled_from([1, 3, 8]))
    def test_divergent_allow_matches_oracle(self, seed, width):
        """Random streams, per-run divergent CAT rows re-randomized
        between serves (mid-run flips), full-group serving."""
        rng = np.random.default_rng(seed)
        llc = GroupedLLC(GEOM, width)
        oracles = [CatLruOracle(GEOM) for _ in range(width)]
        caches = [PartitionedCache(GEOM) for _ in range(width)]
        for _ in range(4):
            allowed = _rand_allow(rng, width)
            stream = _stream(rng, int(rng.integers(1, 120)))
            hits_d = np.zeros((width, N_CPUS), dtype=np.int64)
            mem_d = np.zeros((width, N_CPUS), dtype=np.int64)
            pref_m = np.zeros((width, N_CPUS), dtype=np.int64)
            runs = list(range(width))
            llc.serve(stream, allowed, hits_d, mem_d, pref_m, runs=runs)
            before = [(o.hits_d[:], o.mem_d[:], o.pref_m[:]) for o in oracles]
            _oracle_replay(oracles, stream, allowed, runs)
            _reference_replay(caches, stream, allowed, runs)
            for r in runs:
                bh, bm, bp = before[r]
                dh = [a - b for a, b in zip(oracles[r].hits_d, bh)]
                dm = [a - b for a, b in zip(oracles[r].mem_d, bm)]
                dp = [a - b for a, b in zip(oracles[r].pref_m, bp)]
                assert hits_d[r].tolist() == dh, f"run {r}: per-cpu demand hits"
                assert mem_d[r].tolist() == dm, f"run {r}: per-cpu demand misses"
                assert pref_m[r].tolist() == dp, f"run {r}: per-cpu pref fills"
        for r in range(width):
            _assert_run_matches(llc, oracles[r], r, f"run {r}")
            _assert_run_matches_reference(llc, caches[r], r, f"run {r}")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_ragged_subgroups_leave_others_untouched(self, seed):
        """Subgroup serves (the lockstep scheduler's shape) advance only
        the named runs; runs with equal images dedup without skew."""
        rng = np.random.default_rng(seed)
        width = 4
        llc = GroupedLLC(GEOM, width)
        oracles = [CatLruOracle(GEOM) for _ in range(width)]
        allowed = _rand_allow(rng, width)
        allowed[1] = allowed[0]  # identical pair: exercises run dedup
        for _ in range(5):
            sub = sorted(rng.choice(width, size=int(rng.integers(1, width + 1)), replace=False))
            stream = _stream(rng, int(rng.integers(1, 100)))
            hits_d = np.zeros((len(sub), N_CPUS), dtype=np.int64)
            mem_d = np.zeros((len(sub), N_CPUS), dtype=np.int64)
            pref_m = np.zeros((len(sub), N_CPUS), dtype=np.int64)
            llc.serve(stream, allowed, hits_d, mem_d, pref_m, runs=list(sub))
            _oracle_replay(oracles, stream, allowed, list(sub))
        for r in range(width):
            _assert_run_matches(llc, oracles[r], r, f"run {r}")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_concat_equals_sequential_serves(self, seed):
        """One multi-segment serve over concatenated quanta must equal
        serving the quanta back to back, stamps included, and its
        segment axis must recover the per-quantum counters."""
        rng = np.random.default_rng(seed)
        width = 3
        k = int(rng.integers(2, 5))
        allowed = _rand_allow(rng, width)
        quanta = [_stream(rng, int(rng.integers(1, 60))) for _ in range(k)]
        runs = list(range(width))

        seq_llc = GroupedLLC(GEOM, width)
        seq_hits = np.zeros((width, k, N_CPUS), dtype=np.int64)
        seq_mem = np.zeros((width, k, N_CPUS), dtype=np.int64)
        seq_pref = np.zeros((width, k, N_CPUS), dtype=np.int64)
        for j, s in enumerate(quanta):
            seq_llc.serve(
                s, allowed, seq_hits[:, j], seq_mem[:, j], seq_pref[:, j], runs=runs
            )

        cat_llc = GroupedLLC(GEOM, width)
        cat_hits = np.zeros((width, k, N_CPUS), dtype=np.int64)
        cat_mem = np.zeros((width, k, N_CPUS), dtype=np.int64)
        cat_pref = np.zeros((width, k, N_CPUS), dtype=np.int64)
        span = _PreparedStream.concat(quanta, N_CPUS)
        cat_llc.serve(span, allowed, cat_hits, cat_mem, cat_pref, runs=runs)

        assert np.array_equal(seq_llc.tags, cat_llc.tags)
        assert np.array_equal(seq_llc.stamps, cat_llc.stamps)
        assert np.array_equal(seq_llc.pref, cat_llc.pref)
        assert np.array_equal(seq_hits, cat_hits)
        assert np.array_equal(seq_mem, cat_mem)
        assert np.array_equal(seq_pref, cat_pref)
        for r in runs:
            assert seq_llc.stats_for(r) == cat_llc.stats_for(r)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), private=st.booleans())
    def test_cold_whole_group_serve_matches_oracle(self, seed, private):
        """A cold all-runs serve of a multi-segment stream — the static
        sweep's shape — stack-solves every run whose partitions are
        independent and round-loops the rest (a random, usually
        overlapping, run; partitions sharing lines).  Per-quantum
        counters, stats and occupancy match the oracle before the image
        exists; the deferred image and a following serve match after."""
        rng = np.random.default_rng(seed)
        width = 4
        allowed = _partition_allow(rng, width)
        allowed[width - 1] = _rand_allow(rng, 1)[0]
        k = int(rng.integers(1, 4))
        quanta = [_stream(rng, int(rng.integers(1, 80)), private) for _ in range(k)]
        llc = GroupedLLC(GEOM, width)
        acc = [np.zeros((width, k, N_CPUS), dtype=np.int64) for _ in range(3)]
        llc.serve(_PreparedStream.concat(quanta, N_CPUS), allowed, *acc)
        # The same serve as a subgroup always takes the round loop.
        looped = GroupedLLC(GEOM, width)
        looped_acc = [np.zeros((width, k, N_CPUS), dtype=np.int64) for _ in range(3)]
        looped.serve(_PreparedStream.concat(quanta, N_CPUS), allowed, *looped_acc, runs=range(width))
        if private:
            stacked = set(llc._deferred[1].tolist())
            assert set(range(width - 1)) <= stacked, "independent partitions not stack-solved"

        oracles = [CatLruOracle(GEOM) for _ in range(width)]
        for j, s in enumerate(quanta):
            before = [(o.hits_d[:], o.mem_d[:], o.pref_m[:]) for o in oracles]
            _oracle_replay(oracles, s, allowed, range(width))
            for r, o in enumerate(oracles):
                for got, now, was in zip(acc, (o.hits_d, o.mem_d, o.pref_m), before[r]):
                    assert got[r, j].tolist() == [a - b for a, b in zip(now, was)], f"run {r} q{j}"
        for r, o in enumerate(oracles):
            assert llc.occupancy(r) == int((o.tags() != -1).sum()), f"run {r}: occupancy"
            _assert_run_matches(llc, o, r, f"run {r}")
        for a, b in zip(acc, looped_acc):
            assert np.array_equal(a, b)
        assert np.array_equal(llc.stamps, looped.stamps), "deferred image: stamps"

        allowed = _rand_allow(rng, width)
        stream = _stream(rng, int(rng.integers(1, 80)), private)
        _serve_all(llc, stream, allowed)
        _oracle_replay(oracles, stream, allowed, range(width))
        for r, o in enumerate(oracles):
            _assert_run_matches(llc, o, r, f"run {r} after a warm serve")


def _serve_all(llc: GroupedLLC, stream: _PreparedStream, allowed) -> None:
    shape = (llc.n_runs, N_CPUS)
    llc.serve(stream, allowed, *(np.zeros(shape, dtype=np.int64) for _ in range(3)))


class TestStampZeroVictimRule:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), low=st.integers(2, GEOM.ways - 1))
    def test_cat_flip_exposes_free_ways_lowest_first(self, seed, low):
        """Run 0 fills and evicts inside ways ``[0, low)`` while run 1
        uses every way; a CAT flip then opens run 0's never-filled high
        ways.  Its next misses must take them lowest index first, with
        no eviction while one is left — way-exact against the scalar.

        The fill is a cold all-runs serve with disjoint per-cpu rows
        over private lines, so it is stack-solved and its image
        deferred: reading it, the flip and the next serves must still
        be way-exact."""
        rng = np.random.default_rng(seed)
        W = GEOM.ways
        split = int(rng.integers(1, low))
        llc = GroupedLLC(GEOM, 2)
        refs = [PartitionedCache(GEOM) for _ in range(2)]

        def replay(stream, allowed):
            for i in range(stream.n):
                for r, ref in enumerate(refs):
                    ways = tuple(np.flatnonzero(allowed[r, stream.cpu_col[i]]).tolist())
                    ref.access(int(stream.line[i]), ways, bool(stream.is_pref[i]))

        def check(label):
            for r, ref in enumerate(refs):
                assert np.array_equal(llc.tags[r], np.array(ref._tags)), f"{label}: run {r} ways"
                rs = ref.stats
                assert llc.stats_for(r) == (
                    rs.accesses, rs.hits, rs.pref_fills, rs.pref_used, rs.pref_evicted_unused,
                ), f"{label}: run {r} stats"

        # cpu 0 owns ways [0, split); cpu 1 owns [split, low) in run 0
        # and [split, W) in run 1.
        confined = np.zeros((2, N_CPUS, W), dtype=bool)
        confined[:, 0, :split] = True
        confined[0, 1, split:low] = True
        confined[1, 1, split:] = True
        # Enough distinct lines per set to fill the low ways and evict.
        fill = _stream(rng, 8 * GEOM.sets * W, private=True)
        _serve_all(llc, fill, confined)
        assert llc._tags is None, "the cold fill was not stack-solved"
        replay(fill, confined)
        check("confined")
        assert (llc.tags[0, :, low:] == -1).all() and (llc.stamps[0, :, low:] == 0).all()
        assert (llc.tags[0, :, :low] != -1).all(), "fill phase must saturate the low ways"

        # Flip: one fresh line per set and newly exposed way, in turn.
        opened = np.ones((2, N_CPUS, W), dtype=bool)
        evicted_before = llc.stats_for(0)[4]
        resident_before = llc.tags[0, :, :low].copy()
        for step, way in enumerate(range(low, W)):
            lines = 64 * (step + 1) + np.arange(GEOM.sets)  # line & 7 == its set
            fresh = _PreparedStream(
                lines.tolist(), rng.integers(0, N_CPUS, GEOM.sets).tolist(), GEOM.sets - 1
            )
            _serve_all(llc, fresh, opened)
            replay(fresh, opened)
            check(f"opened way {way}")
            assert np.array_equal(llc.tags[0, :, way], lines), f"way {way} not taken in order"
            assert (llc.tags[0, :, way + 1 :] == -1).all()
        assert np.array_equal(llc.tags[0, :, :low], resident_before), "evicted before free ways ran out"
        assert llc.stats_for(0)[4] == evicted_before

    def test_static_sweep_never_builds_the_image(self, monkeypatch):
        """Disjoint way splits are all stack-solved: the sweep answers
        stats and occupancy without ever allocating the per-way image."""

        def _forbidden(self):
            raise AssertionError("run_static_sweep materialised the LLC image")

        monkeypatch.setattr(GroupedLLC, "_image", _forbidden)
        store = TraceStore()
        mix = make_mixes("pref_agg", 1, n_cores=4, seed=2019)[0]
        W = SC.params().llc.ways
        configs = [
            (((0, (1 << k) - 1), (1, ((1 << W) - 1) ^ ((1 << k) - 1))), (0, 1, 0, 1))
            for k in (1, 9, 19)
        ]
        kernel = build_batch_kernel(mix, SC, store, length=1024)
        rows = run_static_sweep(kernel, configs, (0x0,) * 4, 1024)
        assert all(row.llc_occupancy > 0 and row.llc_stats[0] > 0 for row in rows)

    def test_empty_allow_row_raises_like_the_scalar(self):
        """An all-False CAT row must not silently fill way 0."""
        allowed = np.ones((2, N_CPUS, GEOM.ways), dtype=bool)
        allowed[1, 0, :] = False
        llc = GroupedLLC(GEOM, 2)
        stream = _stream(np.random.default_rng(0), 10)
        with pytest.raises(ValueError, match="allowed_ways must contain at least one way"):
            _serve_all(llc, stream, allowed)
        assert (llc.tags == -1).all(), "a rejected serve must not touch the image"
        with pytest.raises(ValueError, match="allowed_ways must contain at least one way"):
            PartitionedCache(GEOM).access(0, (), False)
        # The offending run is not in the served subgroup: nothing to reject.
        args = [np.zeros((1, N_CPUS), dtype=np.int64) for _ in range(3)]
        llc.serve(stream, allowed, *args, runs=[0])
        assert llc.stats_for(0)[0] == stream.n


_SWEEP_WAYS = SC.params().llc.ways
_FULL = (1 << _SWEEP_WAYS) - 1
#: CLOS 0 and 1 share ways 8-11 under the alternating layout.
_OVERLAPPING = (((0, (1 << 12) - 1), (1, _FULL ^ 0xFF)), (0, 1, 0, 1))


@st.composite
def _disjoint_config(draw):
    """One run's CAT: the four cores in 1-3 CLOS whose CBMs are
    pairwise disjoint, each a contiguous run inside its own slice."""
    n_clos = draw(st.integers(1, 3))
    cuts = draw(st.lists(
        st.integers(1, _SWEEP_WAYS - 1), min_size=n_clos - 1, max_size=n_clos - 1, unique=True
    ))
    bounds = [0, *sorted(cuts), _SWEEP_WAYS]
    cbms = []
    for lo, hi in zip(bounds, bounds[1:]):
        start = draw(st.integers(lo, hi - 1))
        width = draw(st.integers(1, hi - start))
        cbms.append(((1 << width) - 1) << start)
    core_clos = tuple(draw(st.lists(st.integers(0, n_clos - 1), min_size=4, max_size=4)))
    return tuple(enumerate(cbms)), core_clos


def _assert_sweep_matches_scalar(mix, configs, masks, n_acc, store) -> None:
    """Every row of one sweep equals its own scalar fast machine."""
    kernel = build_batch_kernel(mix, SC, store, length=n_acc)
    rows = run_static_sweep(kernel, configs, masks, n_acc)
    for r, (clos_cbms, core_clos) in enumerate(configs):
        ref = build_machine(mix, SC, trace_store=store)
        for cpu, mask in enumerate(masks):
            ref.prefetch_msr.set_mask(cpu, mask)
        for clos, cbm in clos_cbms:
            ref.cat.set_cbm(clos, cbm)
        for cpu, clos in enumerate(core_clos):
            ref.cat.assign_core(cpu, clos)
        ref.run_accesses(n_acc)
        assert np.array_equal(rows[r].pmu_counts, ref.pmu.counts), f"config {r}: pmu"
        assert rows[r].wall_cycles == ref.pmu.wall_cycles, f"config {r}: wall"
        rs = ref.llc_stats()
        assert rows[r].llc_stats == (
            rs.accesses, rs.hits, rs.pref_fills, rs.pref_used, rs.pref_evicted_unused,
        ), f"config {r}: llc stats"
        assert rows[r].llc_occupancy == ref.llc_occupancy(), f"config {r}: occupancy"


_MIX = make_mixes("pref_agg", 1, n_cores=4, seed=2019)[0]
#: Three cores on the four-core machine: core 3 is idle.
_IDLE_MIX = make_mixes("pref_no_agg", 1, n_cores=3, seed=2019)[0]


@pytest.fixture(scope="module")
def store():
    return TraceStore()


class TestStaticSweepVsScalar:
    def test_one_way_and_overlapping_partitions(self, store):
        """Every extreme of the static CAT space in one sweep — 1-way
        partitions at either end, nested and partially overlapping CBMs,
        a CLOS-0-only config that leaves ``core_clos`` to its default —
        against one scalar fast machine per configuration."""
        W = _SWEEP_WAYS
        full = _FULL
        alternating = (0, 1, 0, 1)
        configs = [
            (((0, 0b1), (1, full ^ 0b1)), alternating),  # 1-way low partition
            (((0, full >> 1), (1, 1 << (W - 1))), alternating),  # 1-way high partition
            (((0, 0b1), (1, full)), alternating),  # nested: 1 way inside all
            (((0, (1 << 12) - 1), (1, full ^ 0xFF)), (0, 0, 1, 1)),  # ways 8-11 shared
            (((0, 0b1110),), ()),  # every core left in a narrowed CLOS 0
            ((), ()),  # no CAT at all
        ]
        _assert_sweep_matches_scalar(_MIX, configs, (0x0, 0xF, 0x5, 0x0), 3 * 512 + 256, store)

    @settings(max_examples=15, deadline=None)
    @given(
        configs=st.lists(_disjoint_config(), min_size=1, max_size=4),
        idle=st.booleans(),
        masks=st.sampled_from([(0x0,) * 4, (0xF,) * 4, (0x0, 0xF, 0x5, 0x0)]),
        n_acc=st.sampled_from([300, 512 + 300, 3 * 512 + 256]),
    )
    @example(  # shared CLOS, 1-way partitions, the idle core 3 alone, < 1 quantum
        configs=[
            (((0, 0b1), (1, 0b10), (2, 1 << (_SWEEP_WAYS - 1))), (0, 0, 1, 2)),
            (((0, _FULL),), (0, 0, 0, 0)),
        ],
        idle=True, masks=(0x0,) * 4, n_acc=300,
    )
    def test_drawn_disjoint_partitions_match_scalar(self, store, configs, idle, masks, n_acc):
        """Drawn disjoint-CBM configs — the stack-solved shape — plus
        one overlapping-CBM run in the same sweep (round loop), ragged
        access counts included, each against its scalar fast machine."""
        mix = _IDLE_MIX if idle else _MIX
        _assert_sweep_matches_scalar(mix, [*configs, _OVERLAPPING], masks, n_acc, store)

    def test_invalid_cbm_rejected(self):
        store = TraceStore()
        mix = make_mixes("pref_agg", 1, n_cores=4, seed=2019)[0]
        kernel = build_batch_kernel(mix, SC, store, length=512)
        with pytest.raises(ValueError, match="not a contiguous run"):
            run_static_sweep(kernel, [(((0, 0b101),), (0, 0, 0, 0))], (0,) * 4, 512)


def _make_script(rng, n_cores: int, ways: int, n_segs: int):
    """A seeded driver script: per segment, new per-core prefetch
    masks, an optional CAT flip, and an uneven (sometimes unaligned)
    access span."""
    script = []
    for _ in range(n_segs):
        masks = [int(rng.integers(0, 16)) for _ in range(n_cores)]
        cat = None
        if rng.random() < 0.5:

            def contiguous_cbm():
                length = int(rng.integers(1, ways + 1))
                start = int(rng.integers(0, ways - length + 1))
                return ((1 << length) - 1) << start

            clos = [int(rng.integers(0, 2)) for _ in range(n_cores)]
            cat = (contiguous_cbm(), contiguous_cbm(), clos)
        n = int(rng.integers(1, 5)) * 512
        if rng.random() < 0.25:
            n += 256  # unaligned tail: exercises the k=1 scheduler path
        script.append((masks, cat, n))
    return script


def _apply_script(machine, script):
    for masks, cat, n in script:
        for cpu, mask in enumerate(masks):
            machine.prefetch_msr.set_mask(cpu, mask)
        if cat is not None:
            cbm0, cbm1, clos = cat
            machine.cat.set_cbm(0, cbm0)
            machine.cat.set_cbm(1, cbm1)
            for cpu, c in enumerate(clos):
                machine.cat.assign_core(cpu, c)
        machine.run_accesses(n)
    return None


class TestLockstepGroupVsScalar:
    @pytest.mark.parametrize("width", [1, 3, 8])
    @pytest.mark.parametrize("seed", [7, 2019])
    def test_scripts_match_scalar_machines(self, width, seed):
        """Seeded-random divergent scripts (masks, CAT flips, ragged
        span lengths) through a LockstepGroup match one scalar fast
        machine per run — PMU, wall, dense core tensors, LLC image."""
        rng = np.random.default_rng(seed)
        store = TraceStore()
        mix = make_mixes("pref_agg", 1, n_cores=4, seed=2019)[0]
        ways = SC.params().llc.ways
        # Ragged: each run gets a different number of segments.
        scripts = [
            _make_script(rng, mix.n_cores, ways, 2 + (r % 3)) for r in range(width)
        ]
        budget = max(sum(seg[2] for seg in s) for s in scripts) + 512
        kernel = build_batch_kernel(mix, SC, store, length=budget)
        group = LockstepGroup(kernel, width)

        def driver(m, s, r):
            _apply_script(m, s)
            # Snapshot this run's dense core state before the scheduler
            # retires it (drivers run one at a time, so this is safe).
            snap = {}
            for cpu, core in group.cores.items():
                snap[cpu] = (
                    core.cache_tensors("l1")[0][r].copy(),
                    core.cache_tensors("l2")[0][r].copy(),
                    core.stride_tensor()[r].copy(),
                )
            return snap

        snaps = group.run(
            [lambda m, s=s, r=r: driver(m, s, r) for r, s in enumerate(scripts)]
        )

        for r, script in enumerate(scripts):
            ref = build_machine(mix, SC, trace_store=store)
            _apply_script(ref, script)
            m = group.members[r]
            assert np.array_equal(m.pmu.counts, ref.pmu.counts), f"run {r}: pmu"
            assert m.pmu.wall_cycles == ref.pmu.wall_cycles, f"run {r}: wall"
            rs = ref.llc_stats()
            assert group.llc.stats_for(r) == (
                rs.accesses, rs.hits, rs.pref_fills, rs.pref_used,
                rs.pref_evicted_unused,
            ), f"run {r}: llc stats"
            assert group.llc.occupancy(r) == ref.llc_occupancy(), f"run {r}: occupancy"
            for cpu in group.cores:
                l1_tags, l2_tags, table = snaps[r][cpu]
                assert np.array_equal(l1_tags, ref.cores[cpu].l1.tags_array()), (
                    f"run {r} cpu {cpu}: l1 tags"
                )
                assert np.array_equal(l2_tags, ref.cores[cpu].l2.tags_array()), (
                    f"run {r} cpu {cpu}: l2 tags"
                )
                ref_rows = [
                    [int(ctx), *map(int, row)]
                    for ctx, row in ref.cores[cpu].bank.ip_stride._table.items()
                ]
                got = table[table[:, 0] != -1]
                assert got.tolist() == ref_rows, f"run {r} cpu {cpu}: stride table"
