"""Unit tests for the materialized trace plane (:mod:`repro.sim.tracestore`).

The load-bearing property is *bit-identity*: a materialized trace must
reproduce the live generator's output exactly, under every chunk
partition and through the shared-memory manifest path — plus a
correct (still bit-identical) fallback when a request outruns the
material.
"""

import zlib

import numpy as np
import pytest

from repro.sim import tracestore
from repro.sim.params import MachineParams
from repro.sim.trace import TraceGenerator
from repro.sim.tracestore import (
    ManifestView,
    MaterializedTrace,
    TraceStore,
    shm_residue,
    trace_key,
)
from repro.workloads.speclike import BENCHMARKS, benchmark, build_trace

LLC_LINES = 2048
BENCH = "410.bwaves"
#: The last core's private base line: the largest a machine hands out.
TOP_BASE = (MachineParams().n_cores - 1) << 34
#: Bytes a store may hold per materialized access (two int64 columns hold 16).
MAX_BYTES_PER_ACCESS = 6


def live_chunks(bench, chunks, *, base_line=0, seed=0):
    gen = build_trace(bench, llc_lines=LLC_LINES, base_line=base_line, seed=seed)
    return [gen.chunk(n) for n in chunks]


def store_chunks(store, bench, chunks, *, base_line=0, seed=0):
    trace = store.trace_for(
        bench, llc_lines=LLC_LINES, base_line=base_line, seed=seed, length=sum(chunks)
    )
    return trace, [trace.chunk(n) for n in chunks]


def assert_same_stream(got, expected):
    assert len(got) == len(expected)
    for (gc, gl), (ec, el) in zip(got, expected):
        np.testing.assert_array_equal(gc, ec)
        np.testing.assert_array_equal(gl, el)


class TestMode:
    """The store is in-memory only; the legacy ``root``/``mode`` and
    ``trace_cache`` arguments accept nothing else."""

    def test_memory_and_none_accepted(self):
        from repro.experiments.engine import ExperimentSession

        TraceStore().close()
        TraceStore(None, mode="memory").close()
        ExperimentSession(cache_dir=None, max_workers=1, trace_cache="memory").close()
        ExperimentSession(cache_dir=None, max_workers=1).close()

    def test_junk_rejected(self, tmp_path):
        from repro.experiments.engine import ExperimentSession

        for mode in ("disk", "off", "sometimes"):
            with pytest.raises(ValueError):
                TraceStore(None, mode=mode)
            with pytest.raises(ValueError):
                ExperimentSession(cache_dir=tmp_path, max_workers=1, trace_cache=mode)
        with pytest.raises(ValueError):
            TraceStore(tmp_path, mode="memory")
        assert list(tmp_path.iterdir()) == []


class TestTraceKey:
    def test_deterministic(self):
        a = trace_key(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0)
        b = trace_key(benchmark(BENCH), llc_lines=LLC_LINES, base_line=0, seed=0)
        assert a == b

    @pytest.mark.parametrize("kwargs", [
        {"llc_lines": LLC_LINES + 1}, {"base_line": 1 << 34}, {"seed": 7},
    ])
    def test_inputs_distinguish(self, kwargs):
        base = dict(llc_lines=LLC_LINES, base_line=0, seed=0)
        assert trace_key(BENCH, **base) != trace_key(BENCH, **{**base, **kwargs})

    def test_spec_distinguishes(self):
        base = dict(llc_lines=LLC_LINES, base_line=0, seed=0)
        assert trace_key("429.mcf", **base) != trace_key(BENCH, **base)

    def test_length_not_in_key(self):
        # Longer materializations supersede shorter ones under one key.
        store = TraceStore()
        short = store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=256)
        long = store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=1024)
        assert short.length == 256
        assert long.length >= 1024

    def test_longer_request_replaces_shorter_entry(self):
        store = TraceStore()
        store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=256)
        long = store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=2048)
        assert long.length >= 2048
        got = [long.chunk(512) for _ in range(4)]
        assert_same_stream(got, live_chunks(BENCH, [512] * 4))
        assert long.fallbacks == 0
        again = store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=256)
        assert again.length == long.length  # the longer entry now serves both


class TestBitIdentity:
    # Chunk patterns a real run produces: machine quanta, sampling and
    # exec intervals — all multiples of the generator's burst_len (32).
    PATTERNS = [
        [512] * 8,
        [256, 256, 2048, 256, 1024],
        [32] * 16,
        [4096],
        [768, 768, 2048, 768, 2048],
    ]

    @pytest.mark.parametrize("bench", [BENCH, "429.mcf", "rand_access", "483.xalancbmk"])
    @pytest.mark.parametrize("pattern", PATTERNS, ids=[str(p[:2]) for p in PATTERNS])
    def test_aligned_replay_matches_live(self, bench, pattern):
        store = TraceStore()
        trace, got = store_chunks(store, bench, pattern)
        assert_same_stream(got, live_chunks(bench, pattern))
        assert trace.fallbacks == 0

    def test_partition_independent(self):
        # The same cumulative stream under two different partitions.
        store = TraceStore()
        _, a = store_chunks(store, BENCH, [512] * 4)
        _, b = store_chunks(store, BENCH, [1024, 1024])
        assert np.concatenate([l for _, l in a]).tolist() == \
            np.concatenate([l for _, l in b]).tolist()

    def test_traces_share_one_entry(self):
        # One materialization serves every trace and fork of a key; each
        # chunk is expanded afresh, so a caller may keep or mutate it.
        store = TraceStore()
        trace = store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=1024)
        again = store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=1024)
        assert again._entry is trace._entry
        assert trace.fork(512)._entry is trace._entry
        ctx, lines = trace.chunk(512)
        lines[:] = -1
        assert_same_stream([again.chunk(512)], live_chunks(BENCH, [512]))

    def test_unaligned_requests_replay_from_store(self):
        store = TraceStore()
        pattern = [512, 17, 512]  # 17 ends mid-burst; the next request starts in its tail
        trace, got = store_chunks(store, BENCH, pattern)
        (ctx, lines), = live_chunks(BENCH, [sum(pattern)])
        assert_same_stream(got, [(ctx[a:b], lines[a:b]) for a, b in ((0, 512), (512, 529), (529, 1041))])
        assert trace.fallbacks == 0

    def test_overrun_goes_live_bit_identically(self):
        store = TraceStore()
        trace = store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=1024)
        pattern = [512, 512, 512, 512]  # second half outruns the material
        got = [trace.chunk(n) for n in pattern]
        assert_same_stream(got, live_chunks(BENCH, pattern))
        assert trace.fallbacks == 1

    def test_properties_mirror_generator(self):
        store = TraceStore()
        trace = store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=256)
        gen = build_trace(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0)
        assert trace.inst_per_mem == gen.inst_per_mem
        assert trace.mlp == gen.mlp
        assert trace.footprint_lines() == gen.footprint_lines()


def entry_nbytes(store, bench, **kwargs):
    """Every array byte the store holds for one trace."""
    entry = store._mem[trace_key(bench, **kwargs)]
    return sum(v.nbytes for v in vars(entry).values() if isinstance(v, np.ndarray))


class TestCompactLayout:
    """The compact layout against a live generator, benchmark by benchmark."""

    @pytest.mark.parametrize("bench", sorted(BENCHMARKS))
    def test_matches_live_generator(self, bench):
        rng = np.random.default_rng(zlib.crc32(bench.encode()))
        store = TraceStore()
        for base_line, seed in [(0, 0), (TOP_BASE, 0), (0, 3), (TOP_BASE, 11)]:
            kwargs = dict(llc_lines=LLC_LINES, base_line=base_line, seed=seed)
            length = 32 * int(rng.integers(40, 120))
            trace = store.trace_for(bench, length=length, **kwargs)
            assert trace.length == length
            live = build_trace(bench, **kwargs)
            whole = live.chunk(length)
            # A random aligned partition of the material, then a request
            # that breaks alignment and outruns it.
            cuts = np.sort(rng.choice(np.arange(1, length // 32), size=5, replace=False)) * 32
            sizes = np.diff(np.r_[0, cuts, length]).tolist()
            got, reached = [], [0]
            for n in sizes:
                got.append(trace.chunk(n))
                reached.append(reached[-1] + n)
            for (c, l), (ec, el) in zip(got, [
                (whole[0][a:b], whole[1][a:b]) for a, b in zip(reached, reached[1:])
            ]):
                assert c.dtype == l.dtype == np.int64
                np.testing.assert_array_equal(c, ec)
                np.testing.assert_array_equal(l, el)
            assert trace.fallbacks == 0
            # A fork replays from any reached position.
            for pos in rng.choice(reached[:-1], size=3).tolist():
                n = 32 * int(rng.integers(1, (length - pos) // 32 + 1))
                c, l = trace.fork(pos).chunk(n)
                np.testing.assert_array_equal(c, whole[0][pos : pos + n])
                np.testing.assert_array_equal(l, whole[1][pos : pos + n])
            tail = trace.chunk(45)
            assert_same_stream([tail], [live.chunk(45)])
            assert trace.fallbacks == 1

    def test_entry_holds_at_most_six_bytes_per_access(self):
        # At the paper's LLC, so every stream's offsets span its full region.
        store = TraceStore()
        kwargs = dict(llc_lines=MachineParams().llc.lines, base_line=TOP_BASE, seed=0)
        for bench in sorted(BENCHMARKS):
            trace = store.trace_for(bench, length=1 << 14, **kwargs)
            assert entry_nbytes(store, bench, **kwargs) <= MAX_BYTES_PER_ACCESS * trace.length


class TestPublishAndManifest:
    def test_manifest_round_trip_identical(self):
        store = TraceStore()
        try:
            item = store.publish(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=1024)
            if item is None:
                pytest.skip("shared memory unavailable on this platform")
            view = ManifestView({item["key"]: item})
            trace = view.trace_for(
                BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=1024
            )
            got = [trace.chunk(512), trace.chunk(512)]
            assert_same_stream(got, live_chunks(BENCH, [512, 512]))
            assert trace.fallbacks == 0
        finally:
            store.close()
        assert item["shm"] not in shm_residue()

    def test_manifest_chunks_equal_store_chunks(self):
        store = TraceStore()
        kwargs = dict(llc_lines=MachineParams().llc.lines, base_line=TOP_BASE, seed=5)
        try:
            item = store.publish("429.mcf", length=4096, **kwargs)
            if item is None:
                pytest.skip("shared memory unavailable on this platform")
            trace = ManifestView({item["key"]: item}).trace_for("429.mcf", length=4096, **kwargs)
            own = store.trace_for("429.mcf", length=4096, **kwargs)
            pattern = [512, 1024, 2560]
            assert_same_stream([trace.chunk(n) for n in pattern], [own.chunk(n) for n in pattern])
            assert trace.fallbacks == 0
            segment = tracestore._ATTACHED[item["shm"]][0]
            assert segment.size <= MAX_BYTES_PER_ACCESS * item["length"]
        finally:
            store.close()
        assert item["shm"] not in shm_residue()

    def test_short_segment_refused_and_generated_live(self):
        from repro.experiments.config import TINY
        from repro.experiments.runner import build_machine, mechanism_trace_length
        from repro.workloads.mixes import make_mixes

        mix = make_mixes("pref_agg", 1, seed=2019)[0]
        params = TINY.params()
        store = TraceStore()
        try:
            item = store.publish(
                mix.benchmarks[0], llc_lines=params.llc.lines, base_line=0,
                seed=mix.seed, length=mechanism_trace_length(TINY) // 2,
            )
            if item is None:
                pytest.skip("shared memory unavailable on this platform")
            # The manifest declares more accesses than the segment holds.
            view = ManifestView({item["key"]: {**item, "length": 2 * item["length"] + 32}})
            assert view.trace_for(
                mix.benchmarks[0], llc_lines=params.llc.lines, base_line=0,
                seed=mix.seed, length=item["length"] + 32,
            ) is None
            assert item["shm"] not in tracestore._ATTACHED
            machine = build_machine(mix, TINY, trace_store=view)
            assert isinstance(machine.cores[0].trace, TraceGenerator)
            # The honest item for the same key attaches.
            assert ManifestView({item["key"]: item}).trace_for(
                mix.benchmarks[0], llc_lines=params.llc.lines, base_line=0,
                seed=mix.seed, length=item["length"],
            ) is not None
        finally:
            store.close()
        assert item["shm"] not in shm_residue()

    def test_manifest_misses_return_none(self):
        view = ManifestView({})
        assert view.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=64) is None

    def test_manifest_too_short_returns_none(self):
        store = TraceStore()
        try:
            item = store.publish(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=256)
            if item is None:
                pytest.skip("shared memory unavailable on this platform")
            view = ManifestView({item["key"]: item})
            assert view.trace_for(
                BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=100_000
            ) is None
        finally:
            store.close()

    def test_republish_reuses_segment(self):
        store = TraceStore()
        try:
            a = store.publish(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=512)
            if a is None:
                pytest.skip("shared memory unavailable on this platform")
            b = store.publish(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=512)
            assert a["shm"] == b["shm"]
            assert a["shm"] in shm_residue()
        finally:
            store.close()
        assert a["shm"] not in shm_residue()

    def test_longer_publish_supersedes(self):
        store = TraceStore()
        try:
            a = store.publish(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=256)
            if a is None:
                pytest.skip("shared memory unavailable on this platform")
            b = store.publish(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=4096)
            assert b["length"] >= 4096
            residue = set(shm_residue())
            assert a["shm"] not in residue  # old segment unlinked
            assert b["shm"] in residue
        finally:
            store.close()
        assert not {a["shm"], b["shm"]} & set(shm_residue())

    def test_close_is_idempotent(self):
        store = TraceStore()
        item = store.publish(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=256)
        store.close()
        store.close()
        assert item is None or item["shm"] not in shm_residue()

    def test_finalizer_releases_on_gc(self):
        store = TraceStore()
        item = store.publish(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=256)
        if item is None:
            pytest.skip("shared memory unavailable on this platform")
        del store  # never closed — the weakref.finalize backstop fires
        assert item["shm"] not in shm_residue()
