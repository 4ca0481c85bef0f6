"""Differential properties of the fast engine's LLC.

The fast engine's LLC — a width-1 :class:`GroupedLLC` fed one-request
streams — against the reference :class:`PartitionedCache` under
randomly varying CAT way masks, access by access.

"Identical" means the full observable surface: per-access hit/miss
outcomes, every :class:`CacheStats` counter, occupancy, resident-way
placement, prefetched-unused bits and per-way occupancy.  The private
caches (:class:`~repro.sim.fastcache.FastCache`) have no access path of
their own: the kernels advance their state, which the engine harness
(``test_engine_differential.py``) compares with ``reference`` on full
cache state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import GroupedLLC, _PreparedStream
from repro.sim.cache import PartitionedCache, ways_from_mask
from repro.sim.params import CacheGeometry

GEOM = CacheGeometry(8 * 4 * 64, 4)  # 8 sets x 4 ways

lines = st.integers(min_value=0, max_value=1 << 12)


def _stats_tuple(c) -> tuple:
    s = c.stats
    return (s.accesses, s.hits, s.pref_fills, s.pref_used, s.pref_evicted_unused)


masks = st.integers(min_value=1, max_value=(1 << GEOM.ways) - 1)
part_ops = st.lists(
    st.tuples(lines, masks, st.booleans()), min_size=1, max_size=400
)


class WidthOneLLC:
    """A width-1 :class:`GroupedLLC` driven one request at a time, as
    ``PartitionedCache.access`` is (cpu 0 carries the CAT row)."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.llc = GroupedLLC(geometry, 1)
        self.ways = geometry.ways
        self.set_mask = geometry.sets - 1

    def access(self, line: int, mask: int, is_prefetch: bool) -> bool:
        allowed = np.array([[[mask >> w & 1 for w in range(self.ways)]]], dtype=bool)
        stream = _PreparedStream([~line if is_prefetch else line], [0], self.set_mask)
        hits = self.llc.hits[0]
        self.llc.serve(stream, allowed, *(np.zeros((1, 1), dtype=np.int64) for _ in range(3)))
        return bool(self.llc.hits[0] > hits)

    def resident_way(self, line: int) -> int | None:
        ways = np.flatnonzero(self.llc.tags[0, line & self.set_mask] == line)
        return int(ways[0]) if len(ways) else None


class TestWidthOneGroupedLLCMatchesReference:
    @given(part_ops)
    @settings(max_examples=80, deadline=None)
    def test_identical_under_varying_masks(self, seq):
        ref, fast = PartitionedCache(GEOM), WidthOneLLC(GEOM)
        for line, mask, pf in seq:
            allowed = ways_from_mask(mask, GEOM.ways)
            assert ref.access(line, allowed, pf) == fast.access(line, mask, pf)
            assert ref.resident_way(line) == fast.resident_way(line)
        assert _stats_tuple(ref) == fast.llc.stats_for(0)
        assert ref.occupancy() == fast.llc.occupancy(0)

    @given(part_ops)
    @settings(max_examples=60, deadline=None)
    def test_full_placement_matches(self, seq):
        """Every resident line sits in the same set *and way* in both,
        with the same prefetched-unused bit."""
        ref, fast = PartitionedCache(GEOM), WidthOneLLC(GEOM)
        touched = set()
        for line, mask, pf in seq:
            ref.access(line, ways_from_mask(mask, GEOM.ways), pf)
            fast.access(line, mask, pf)
            touched.add(line)
        assert np.array_equal(fast.llc.tags[0], np.array(ref._tags))
        for line in touched:
            assert ref.probe(line) == (fast.resident_way(line) is not None)
            assert ref.resident_way(line) == fast.resident_way(line)
        pref = [[t in ref._pref_unused for t in row] for row in ref._tags]
        assert np.array_equal(fast.llc.pref[0] != 0, np.array(pref, dtype=bool))

    @given(part_ops)
    @settings(max_examples=40, deadline=None)
    def test_way_occupancy_consistent(self, seq):
        """The reference's per-way occupancy counters equal a recount
        from the grouped tag state, and so does its total."""
        ref, fast = PartitionedCache(GEOM), WidthOneLLC(GEOM)
        for line, mask, pf in seq:
            ref.access(line, ways_from_mask(mask, GEOM.ways), pf)
            fast.access(line, mask, pf)
        tags = fast.llc.tags[0]
        for w in range(GEOM.ways):
            assert ref.occupancy_in_ways((w,)) == int((tags[:, w] != -1).sum())
        assert ref.occupancy() == fast.llc.occupancy(0) == int((tags != -1).sum())
