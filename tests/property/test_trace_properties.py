"""Hypothesis properties of trace generators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import PointerChaseStream, RandomStream, SequentialStream, TraceGenerator

regions = st.integers(min_value=2, max_value=512)
chunk_sizes = st.integers(min_value=1, max_value=600)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestStreamProperties:
    @given(regions, chunk_sizes, st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_sequential_stays_in_region(self, region, n, repeats):
        s = SequentialStream(1, 1000, region, repeats=repeats)
        out = s.burst(n)
        assert out.min() >= 1000
        assert out.max() < 1000 + region

    @given(regions, chunk_sizes, seeds)
    @settings(max_examples=80, deadline=None)
    def test_chase_stays_in_region(self, region, n, seed):
        s = PointerChaseStream(1, 500, region, np.random.default_rng(seed))
        out = s.burst(n)
        assert out.min() >= 500
        assert out.max() < 500 + region

    @given(regions, seeds)
    @settings(max_examples=60, deadline=None)
    def test_chase_lap_is_permutation(self, region, seed):
        s = PointerChaseStream(1, 0, region, np.random.default_rng(seed), repeats=1)
        lap = s.burst(region)
        assert sorted(lap.tolist()) == list(range(region))

    @given(regions, chunk_sizes, seeds)
    @settings(max_examples=60, deadline=None)
    def test_random_stays_in_region(self, region, n, seed):
        s = RandomStream(1, 0, region, np.random.default_rng(seed))
        out = s.burst(n)
        assert out.min() >= 0
        assert out.max() < region

    @given(regions, st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_burst_split_invariance(self, region, n1, n2):
        """Two bursts equal one concatenated burst (state continuity)."""
        a = SequentialStream(1, 0, region, repeats=2)
        b = SequentialStream(1, 0, region, repeats=2)
        joint = a.burst(n1 + n2)
        split = np.concatenate([b.burst(n1), b.burst(n2)])
        np.testing.assert_array_equal(joint, split)


class TestGeneratorProperties:
    @given(chunk_sizes, seeds)
    @settings(max_examples=60, deadline=None)
    def test_chunk_length_exact(self, n, seed):
        gen = TraceGenerator([SequentialStream(1, 0, 64)], [1.0], seed=seed)
        ctx, lines = gen.chunk(n)
        assert len(ctx) == n
        assert len(lines) == n

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_seed_determinism(self, seed):
        def make():
            return TraceGenerator(
                [SequentialStream(1, 0, 64), SequentialStream(2, 1 << 20, 32)],
                [0.7, 0.3],
                seed=seed,
            )

        _, a = make().chunk(256)
        _, b = make().chunk(256)
        np.testing.assert_array_equal(a, b)

    @given(
        st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=12),
        seeds,
        st.sampled_from([8, 32]),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_equals_one_request(self, sizes, seed, burst_len):
        """The stream is a function of position: however the requests
        split it, mid-burst included, they equal one request."""

        def make():
            rng = np.random.default_rng(seed)
            return TraceGenerator(
                [
                    SequentialStream(1, 0, 64, repeats=3),
                    RandomStream(2, 1 << 20, 97, rng),
                    PointerChaseStream(3, 1 << 21, 50, rng),
                ],
                [0.5, 0.3, 0.2],
                burst_len=burst_len,
                seed=seed,
            )

        gen = make()
        got = [gen.chunk(n) for n in sizes]
        ctx, lines = make().chunk(sum(sizes))
        np.testing.assert_array_equal(np.concatenate([c for c, _ in got]), ctx)
        np.testing.assert_array_equal(np.concatenate([l for _, l in got]), lines)
