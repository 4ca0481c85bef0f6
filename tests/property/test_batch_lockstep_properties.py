"""Properties of the masked-lockstep grouped kernels.

* :class:`GroupedLLC` with per-run divergent CAT rows (mid-stream
  flips, subgroup serves, concatenated quanta, the cold whole-group
  serve that stack-solves independent partitions and defers the image)
  against an independent dict-LRU oracle and the reference
  :class:`~repro.sim.cache.PartitionedCache`, on drawn streams.
* The stamp-0 victim rule (a stack-solved fill in the low ways, then a
  CAT flip exposing never-filled high ways), the empty-allow-row error
  and a static sweep that never builds the image.
* :func:`run_static_sweep` at the CAT extremes and on drawn disjoint
  layouts, and seeded scripts through one :class:`LockstepGroup`, held
  to ``fast`` by ``test_engine_differential.assert_engines_agree``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.batch import build_batch_kernel
from repro.sim.batch import GroupedLLC, _PreparedStream, run_static_sweep
from repro.sim.cache import PartitionedCache
from repro.sim.params import CacheGeometry
from tests.property.test_engine_differential import (
    FULL,
    MIXES,
    PF_ON,
    SC,
    STORE,
    WAYS,
    Script,
    assert_engines_agree,
    cat_writes,
    lru_ranks,
    split_ways,
    static_script,
)

GEOM = CacheGeometry(8 * 4 * 64, 4)  # 8 sets x 4 ways
N_CPUS = 2


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

    def stamps(self) -> np.ndarray:
        return np.array([[w[1] for w in ws] for ws in self.ways], dtype=np.int64)


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
    want = lru_ranks(oracle.tags(), oracle.stamps())
    assert np.array_equal(lru_ranks(llc.tags[run], llc.stamps[run]), want), f"{label}: LRU order"
    assert llc.stats_for(run) == (
        oracle.accesses,
        oracle.hits,
        oracle.pref_fills,
        oracle.pref_used,
        oracle.pref_evicted_unused,
    ), f"{label}: stats"


def _stats(cache: PartitionedCache) -> tuple:
    s = cache.stats
    return (s.accesses, s.hits, s.pref_fills, s.pref_used, s.pref_evicted_unused)


def _reference_replay(caches, stream: _PreparedStream, allowed, runs) -> np.ndarray:
    """Replay ``stream`` on each of ``runs``' reference caches; return the
    per-cpu demand hits, demand misses and prefetch fills, per run (the
    grouped serve's accumulators, stacked on axis 1)."""
    out = np.zeros((len(runs), 3, N_CPUS), dtype=np.int64)
    for i in range(stream.n):
        line, cpu, is_pref = int(stream.line[i]), int(stream.cpu_col[i]), bool(stream.is_pref[i])
        for k, r in enumerate(runs):
            hit = caches[r].access(line, tuple(np.flatnonzero(allowed[r, cpu]).tolist()), is_pref)
            if not is_pref:
                out[k, 0 if hit else 1, cpu] += 1
            elif not hit:
                out[k, 2, cpu] += 1
    return out


def _assert_run_matches_reference(llc: GroupedLLC, cache: PartitionedCache, run: int, label: str):
    """The reference LLC as a second oracle: way placement through
    ``resident_way``, its CacheStats, and per-set LRU order."""
    tags = llc.tags[run]
    resident = [(si, w) for si, w in zip(*np.nonzero(tags != -1))]
    assert len(resident) == cache.occupancy(), f"{label}: reference occupancy"
    for si, w in resident:
        assert cache.resident_way(int(tags[si, w])) == w, f"{label}: reference placement"
    assert llc.stats_for(run) == _stats(cache), f"{label}: reference stats"
    want = lru_ranks(np.array(cache._tags), np.array(cache._stamps))
    assert np.array_equal(lru_ranks(tags, llc.stamps[run]), want), f"{label}: reference LRU order"


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
            acc = [np.zeros((width, N_CPUS), dtype=np.int64) for _ in range(3)]
            runs = list(range(width))
            llc.serve(stream, allowed, *acc, runs=runs)
            _oracle_replay(oracles, stream, allowed, runs)
            want = _reference_replay(caches, stream, allowed, runs)
            assert np.array_equal(np.stack(acc, axis=1), want), "per-cpu outcomes"
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
            acc = [np.zeros((len(sub), N_CPUS), dtype=np.int64) for _ in range(3)]
            llc.serve(stream, allowed, *acc, runs=list(sub))
            _oracle_replay(oracles, stream, allowed, list(sub))
        for r in range(width):
            _assert_run_matches(llc, oracles[r], r, f"run {r}")

    def test_equal_tags_in_another_lru_order_are_served_apart(self):
        """Subgroup dedup must compare LRU order, not just tags: two runs
        holding one set's lines in the same ways but touched in another
        order evict different lines on the next miss."""
        llc = GroupedLLC(GEOM, 2)
        oracles = [CatLruOracle(GEOM) for _ in range(2)]
        allowed = np.ones((2, N_CPUS, GEOM.ways), dtype=bool)
        fill = [GEOM.sets * k for k in range(GEOM.ways)]  # set 0, every way
        for runs, lines in (([0, 1], fill), ([0], fill[:1]), ([1], fill[-1:]), ([0, 1], [GEOM.sets * GEOM.ways])):
            stream = _PreparedStream(lines, [0] * len(lines), GEOM.sets - 1)
            acc = [np.zeros((len(runs), N_CPUS), dtype=np.int64) for _ in range(3)]
            llc.serve(stream, allowed, *acc, runs=runs)
            _oracle_replay(oracles, stream, allowed, runs)
        for r, oracle in enumerate(oracles):
            _assert_run_matches(llc, oracle, r, f"run {r}")

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

        seq_llc, cat_llc = GroupedLLC(GEOM, width), GroupedLLC(GEOM, width)
        seq = [np.zeros((width, k, N_CPUS), dtype=np.int64) for _ in range(3)]
        cat = [np.zeros_like(a) for a in seq]
        for j, s in enumerate(quanta):
            seq_llc.serve(s, allowed, *(a[:, j] for a in seq), runs=runs)
        cat_llc.serve(_PreparedStream.concat(quanta, N_CPUS), allowed, *cat, runs=runs)

        for field in ("tags", "stamps", "pref"):
            assert np.array_equal(getattr(seq_llc, field), getattr(cat_llc, field)), field
        for a, b in zip(seq, cat):
            assert np.array_equal(a, b)
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
            _reference_replay(refs, stream, allowed, range(2))

        def check(label):
            for r, ref in enumerate(refs):
                _assert_run_matches_reference(llc, ref, r, f"{label}: run {r}")

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
        configs = [split_ways(k) for k in (1, 9, 19)]
        kernel = build_batch_kernel(MIXES["pref_agg"], SC, STORE, length=1024)
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


#: CLOS 0 and 1 share ways 8-11 under the alternating layout.
_OVERLAPPING = (((0, (1 << 12) - 1), (1, FULL ^ 0xFF)), (0, 1, 0, 1))


class TestStaticSweepVsScalar:
    def test_one_way_and_overlapping_partitions(self):
        """Every extreme of the static CAT space in one sweep — 1-way
        partitions at either end, nested and partially overlapping CBMs,
        a CLOS-0-only config that leaves ``core_clos`` to its default."""
        alternating = (0, 1, 0, 1)
        configs = [
            (((0, 0b1), (1, FULL ^ 0b1)), alternating),  # 1-way low partition
            (((0, FULL >> 1), (1, 1 << (WAYS - 1))), alternating),  # 1-way high partition
            (((0, 0b1), (1, FULL)), alternating),  # nested: 1 way inside all
            (((0, (1 << 12) - 1), (1, FULL ^ 0xFF)), (0, 0, 1, 1)),  # ways 8-11 shared
            (((0, 0b1110),), ()),  # every core left in a narrowed CLOS 0
            None,  # no CAT at all
        ]
        runs = [static_script((0x0, 0xF, 0x5, 0x0), cat, 3 * 512 + 256) for cat in configs]
        assert_engines_agree(MIXES["pref_agg"], runs, oracle="fast", engines=("sweep",))

    @settings(max_examples=15, deadline=None)
    @given(
        configs=st.lists(cat_writes(disjoint=True), min_size=1, max_size=4),
        idle=st.booleans(),
        masks=st.sampled_from([(0x0,) * 4, (0xF,) * 4, (0x0, 0xF, 0x5, 0x0)]),
        n_acc=st.sampled_from([300, 512 + 300, 3 * 512 + 256]),
    )
    @example(  # shared CLOS, 1-way partitions, the idle core 3 alone, < 1 quantum
        configs=[
            (((0, 0b1), (1, 0b10), (2, 1 << (WAYS - 1))), (0, 0, 1, 2)),
            (((0, FULL),), (0, 0, 0, 0)),
        ],
        idle=True, masks=PF_ON, n_acc=300,
    )
    def test_drawn_disjoint_partitions_match_scalar(self, configs, idle, masks, n_acc):
        """Drawn disjoint-CBM configs — the stack-solved shape — plus
        one overlapping-CBM run in the same sweep (round loop), ragged
        access counts included.  ``idle`` runs a three-benchmark mix, so
        core 3 stays idle."""
        mix = MIXES["idle"] if idle else MIXES["pref_agg"]
        runs = [static_script(masks, cat, n_acc) for cat in [*configs, _OVERLAPPING]]
        assert_engines_agree(mix, runs, oracle="fast", engines=("sweep",))

    def test_invalid_cbm_rejected(self):
        kernel = build_batch_kernel(MIXES["pref_agg"], SC, STORE, length=512)
        with pytest.raises(ValueError, match="not a contiguous run"):
            run_static_sweep(kernel, [(((0, 0b101),), (0, 0, 0, 0))], (0,) * 4, 512)


def _make_script(rng, n_cores: int, ways: int, n_segs: int) -> Script:
    """A seeded driver script: per segment, new per-core prefetch
    masks, an optional CAT flip, and an uneven (sometimes unaligned)
    access span."""
    intervals = []
    for _ in range(n_segs):
        masks = tuple(int(rng.integers(0, 16)) for _ in range(n_cores))
        cat = None
        if rng.random() < 0.5:

            def contiguous_cbm():
                length = int(rng.integers(1, ways + 1))
                start = int(rng.integers(0, ways - length + 1))
                return ((1 << length) - 1) << start

            clos = tuple(int(rng.integers(0, 2)) for _ in range(n_cores))
            cat = ((0, contiguous_cbm()), (1, contiguous_cbm())), clos
        n = int(rng.integers(1, 5)) * 512
        if rng.random() < 0.25:
            n += 256  # unaligned tail: exercises the k=1 scheduler path
        intervals.append((masks, cat, n))
    return Script(tuple(intervals))


class TestLockstepGroupVsScalar:
    @pytest.mark.parametrize("width", [1, 3, 8])
    @pytest.mark.parametrize("seed", [7, 2019])
    def test_scripts_match_scalar_machines(self, width, seed):
        """Seeded-random divergent scripts (masks, CAT flips, ragged
        span lengths), each run with a different number of segments,
        through one LockstepGroup."""
        rng = np.random.default_rng(seed)
        mix = MIXES["pref_agg"]
        scripts = [_make_script(rng, mix.n_cores, WAYS, 2 + (r % 3)) for r in range(width)]
        assert_engines_agree(mix, scripts, oracle="fast", engines=("batch",))
