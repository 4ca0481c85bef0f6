"""Unit tests for the materialized trace plane (:mod:`repro.sim.tracestore`).

The load-bearing property is *bit-identity*: a materialized trace must
reproduce the live generator's output exactly, under every aligned
chunk partition and through the shared-memory manifest path — plus a
correct (still bit-identical) fallback when a request breaks alignment
or outruns the material.
"""

import numpy as np
import pytest

from repro.sim.tracestore import (
    ManifestView,
    MaterializedTrace,
    TraceStore,
    shm_residue,
    trace_key,
)
from repro.workloads.speclike import benchmark, build_trace

LLC_LINES = 2048
BENCH = "410.bwaves"


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

    def test_zero_copy_views(self):
        store = TraceStore()
        trace = store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=1024)
        ctx, lines = trace.chunk(512)
        again = store.trace_for(BENCH, llc_lines=LLC_LINES, base_line=0, seed=0, length=1024)
        c2, l2 = again.chunk(512)
        assert np.shares_memory(lines, l2)
        assert np.shares_memory(ctx, c2)

    def test_unaligned_request_goes_live_bit_identically(self):
        store = TraceStore()
        pattern = [512, 17, 512]  # 17 breaks the 32-access alignment
        trace, got = store_chunks(store, BENCH, pattern)
        assert_same_stream(got, live_chunks(BENCH, pattern))
        assert trace.fallbacks == 1

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
