"""Differential properties of the grouped LLC serve.

:meth:`repro.sim.batch.GroupedLLC.serve` — the whole-quantum grouped
LLC serve the batch engine dispatches (the compiled kernel this module
was named for is gone; the serve it shadowed remains) — is checked on
random lockstep request streams against the reference dict-LRU
:class:`~repro.sim.cache.PartitionedCache` oracle, per run, under
randomly varying CAT way masks.  "Identical" covers per-core hit/miss
outcomes (the demand-hit, demand-fill and prefetch-fill counters),
every stats column the grouped LLC keeps, resident-line placement down
to the way index, and occupancy.  The first serve of a cold image
takes the stack-distance strategy where the masks allow it and every
later one the round loop, so both are covered.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import GroupedLLC, _PreparedStream
from repro.sim.cache import PartitionedCache, ways_from_mask
from repro.sim.params import CacheGeometry

S, W, C, R = 8, 4, 2, 2
GEOM = CacheGeometry(S * W * 64, W)

lines = st.integers(min_value=0, max_value=(1 << 10) - 1)
masks = st.integers(min_value=1, max_value=(1 << W) - 1)

# One serve batch: a shared (lockstep) request stream plus a per-run,
# per-CAT-row way mask held fixed for the batch (GroupedLLC re-derives
# the allow matrix between quanta, never inside one).
batch = st.tuples(
    st.lists(st.tuples(lines, st.booleans(), st.integers(0, C - 1)), min_size=1, max_size=120),
    st.tuples(*[st.tuples(*[masks] * C)] * R),
)
batches = st.lists(batch, min_size=1, max_size=6)


def _allow_matrix(run_masks) -> np.ndarray:
    allow = np.zeros((R, C, W), dtype=bool)
    for r in range(R):
        for c in range(C):
            allow[r, c, list(ways_from_mask(run_masks[r][c], W))] = True
    return allow


def _stream(ops) -> _PreparedStream:
    enc = [~ln if pf else ln for ln, pf, _ in ops]
    return _PreparedStream(enc, [cp for _, _, cp in ops], S - 1)


def _serve(llc: GroupedLLC, ops, run_masks):
    acc = [np.zeros((R, C), dtype=np.int64) for _ in range(3)]
    llc.serve(_stream(ops), _allow_matrix(run_masks), *acc)
    return acc


class TestServeLlcMatchesDictLruOracle:
    @given(batches)
    @settings(max_examples=60, deadline=None)
    def test_counters_and_outcomes(self, seq):
        llc = GroupedLLC(GEOM, R)
        oracles = [PartitionedCache(GEOM) for _ in range(R)]
        for ops, run_masks in seq:
            before = [llc.stats_for(r) for r in range(R)]
            hits_d, mem_d, pref_m = _serve(llc, ops, run_masks)
            for r, o in enumerate(oracles):
                s0 = (o.stats.accesses, o.stats.hits, o.stats.pref_fills,
                      o.stats.pref_used, o.stats.pref_evicted_unused)
                exp_hits = np.zeros(C, dtype=np.int64)
                exp_mem = np.zeros(C, dtype=np.int64)
                exp_pref = np.zeros(C, dtype=np.int64)
                for ln, pf, cp in ops:
                    allowed = ways_from_mask(run_masks[r][cp], W)
                    hit = o.access(ln, allowed, bool(pf))
                    if pf:
                        if not hit:
                            exp_pref[cp] += 1
                    elif hit:
                        exp_hits[cp] += 1
                    else:
                        exp_mem[cp] += 1
                got = [a - b for a, b in zip(llc.stats_for(r), before[r])]
                s1 = (o.stats.accesses, o.stats.hits, o.stats.pref_fills,
                      o.stats.pref_used, o.stats.pref_evicted_unused)
                exp = [a - b for a, b in zip(s1, s0)]
                for name, g, e in zip(("accesses", "hits", "pref_fills", "pref_used", "evic"), got, exp):
                    assert g == e, name
                assert llc.occupancy(r) == o.occupancy(), "occupancy"
                assert np.array_equal(hits_d[r], exp_hits), "demand-hit blocks"
                assert np.array_equal(mem_d[r], exp_mem), "demand-fill blocks"
                assert np.array_equal(pref_m[r], exp_pref), "prefetch-fill blocks"

    @given(batches)
    @settings(max_examples=40, deadline=None)
    def test_placement_and_lru_state(self, seq):
        """Resident lines sit in the same set and way as the oracle, and
        per-set stamp order reproduces the oracle's LRU order."""
        llc = GroupedLLC(GEOM, R)
        oracles = [PartitionedCache(GEOM) for _ in range(R)]
        touched = set()
        for ops, run_masks in seq:
            _serve(llc, ops, run_masks)
            for ln, pf, cp in ops:
                touched.add(ln)
                for r, o in enumerate(oracles):
                    o.access(ln, ways_from_mask(run_masks[r][cp], W), bool(pf))
        t3 = llc.tags
        s3 = llc.stamps
        for r, o in enumerate(oracles):
            for ln in touched:
                si = ln & (S - 1)
                ways = np.flatnonzero(t3[r, si] == ln)
                if o.probe(ln):
                    assert ways.size == 1 and ways[0] == o.resident_way(ln), (
                        f"run {r}: line {ln} placement diverged"
                    )
                else:
                    assert ways.size == 0, f"run {r}: stale line {ln}"
            for si in range(S):
                valid = t3[r, si] != -1
                order = np.argsort(np.where(valid, s3[r, si], np.iinfo(np.int64).max),
                                   kind="stable")[: int(valid.sum())]
                grouped_lru = t3[r, si][order].tolist()
                oracle_stamps = o._stamps[si]
                oracle_lru = [
                    o._tags[si][w]
                    for w in sorted(
                        (w for w in range(W) if o._tags[si][w] != -1),
                        key=lambda w: oracle_stamps[w],
                    )
                ]
                assert grouped_lru == oracle_lru, f"run {r} set {si}: LRU order diverged"
