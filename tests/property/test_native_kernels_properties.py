"""Default (all-runs) grouped LLC serves against the reference dict-LRU.

:meth:`repro.sim.batch.GroupedLLC.serve` with no ``runs=`` list (the
serve the batch engine dispatches; the compiled kernel this module was
named for is gone) on drawn lockstep streams, CAT rows redrawn between
serves, against one reference :class:`~repro.sim.cache.PartitionedCache`
per run.  With private lines and partition rows the first, cold serve
takes the stack-distance strategy, every later one the round loop.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import GroupedLLC
from repro.sim.cache import PartitionedCache
from tests.property.test_batch_lockstep_properties import (
    GEOM,
    N_CPUS,
    _assert_run_matches_reference,
    _partition_allow,
    _rand_allow,
    _reference_replay,
    _stats,
    _stream,
)

WIDTH = 2


def _serves(seed: int, private: bool):
    """Serve 1-6 drawn streams on one grouped LLC, yielding after each
    ``(llc, one reference per run, stream, allowed, per-cpu counters)``;
    the caller replays the stream on the references."""
    rng = np.random.default_rng(seed)
    llc = GroupedLLC(GEOM, WIDTH)
    caches = [PartitionedCache(GEOM) for _ in range(WIDTH)]
    for i in range(int(rng.integers(1, 7))):
        allowed = _partition_allow(rng, WIDTH) if private and i == 0 else _rand_allow(rng, WIDTH)
        stream = _stream(rng, int(rng.integers(1, 120)), private)
        acc = [np.zeros((WIDTH, N_CPUS), dtype=np.int64) for _ in range(3)]
        llc.serve(stream, allowed, *acc)
        if private and i == 0:
            assert llc._deferred is not None, "the cold partitioned serve was not stack-solved"
        yield llc, caches, stream, allowed, acc


class TestServeLlcMatchesDictLruOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), private=st.booleans())
    def test_counters_and_outcomes(self, seed, private):
        """After every serve: per-cpu demand hits, demand fills and
        prefetch fills, every stats column and occupancy."""
        for i, (llc, caches, stream, allowed, acc) in enumerate(_serves(seed, private)):
            want = _reference_replay(caches, stream, allowed, range(WIDTH))
            assert np.array_equal(np.stack(acc, axis=1), want), f"serve {i}: per-cpu outcomes"
            for r, cache in enumerate(caches):
                assert llc.stats_for(r) == _stats(cache), f"serve {i} run {r}: stats"
                assert llc.occupancy(r) == cache.occupancy(), f"serve {i} run {r}: occupancy"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), private=st.booleans())
    def test_placement_and_lru_state(self, seed, private):
        """Resident lines sit in the same set and way as the reference,
        and per-set stamp order reproduces its LRU order."""
        for llc, caches, stream, allowed, _acc in _serves(seed, private):
            _reference_replay(caches, stream, allowed, range(WIDTH))
        for r, cache in enumerate(caches):
            _assert_run_matches_reference(llc, cache, r, f"run {r}")
