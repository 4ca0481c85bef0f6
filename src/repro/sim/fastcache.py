"""Dict-backed private caches for the ``fast`` simulation engine.

Same semantics as :class:`repro.sim.cache.Cache` (the ``reference``
engine's L1/L2), re-laid-out for throughput and batch access:
:class:`FastCache` keeps one insertion-ordered dict per set mapping
``line -> prefetched-unused bit``, so hit scans, LRU refreshes,
evictions *and* prefetch-bit bookkeeping are single C-speed dict
operations (the reference keeps the prefetch bits in a side set,
costing an extra membership probe on every hit).

An LRU refresh is pop + reinsert and an eviction pops
``next(iter(set_dict))``: CPython dicts preserve insertion order, and
that order is exactly the reference's LRU order, which is what makes
the two engines bit-identical — asserted by ``tests/property`` and the
machine-level differential suite.  Plain dicts beat
``collections.OrderedDict`` here by ~30% end-to-end: ``get``/``pop``
dominate and are twice as fast on the builtin.

The canonical hot-path state is C dicts, not NumPy buffers, because
CPython scalar indexing into ndarrays is slower than dict/list
operations and every LRU update is inherently sequential.  Flat NumPy
views (:meth:`FastCache.tags_array`, :meth:`FastCache.pref_array`) are
materialised on demand for batch inspection, and
:meth:`FastCache.access_many` amortises per-call overhead across a
whole address array.  The shared LLC of every fast path is the batch
engine's :class:`~repro.sim.batch.GroupedLLC` (a scalar machine holds
one at width 1).  See docs/simulation_model.md ("The fast kernel").
"""

from __future__ import annotations

import numpy as np

from repro.sim.cache import CacheStats
from repro.sim.params import CacheGeometry

__all__ = ["FastCache"]


class FastCache:
    """Private set-associative LRU cache (allocate-on-miss), fast layout.

    Drop-in behavioural replacement for :class:`repro.sim.cache.Cache`:
    identical hit/miss streams, LRU decisions and :class:`CacheStats`
    for any access sequence.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.n_sets = geometry.sets
        self.ways = geometry.ways
        self._set_mask = self.n_sets - 1
        # Each set: line -> prefetched-unused bit, LRU order first.
        self._sets: list[dict[int, int]] = [{} for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def access(self, line: int, is_prefetch: bool = False) -> bool:
        """Look up ``line``; fill on miss.  Returns True on hit."""
        s = self._sets[line & self._set_mask]
        st = self.stats
        st.accesses += 1
        v = s.pop(line, None)
        if v is not None:
            st.hits += 1
            if v and not is_prefetch:
                st.pref_used += 1
                v = 0
            s[line] = v  # reinsert -> MRU
            return True
        if len(s) >= self.ways:
            vbit = s.pop(next(iter(s)))
            if vbit:
                st.pref_evicted_unused += 1
        if is_prefetch:
            st.pref_fills += 1
            s[line] = 1
        else:
            s[line] = 0
        return False

    def access_many(self, lines, is_prefetch: bool = False) -> np.ndarray:
        """Batch :meth:`access` over an address array; returns hit flags.

        Semantically identical to calling :meth:`access` per element in
        order — one call amortises attribute lookups and stat updates
        over the whole array.
        """
        lines_l = np.asarray(lines, dtype=np.int64).tolist()
        sets = self._sets
        mask = self._set_mask
        ways = self.ways
        st = self.stats
        pf = bool(is_prefetch)
        hits = 0
        fills = 0
        used = 0
        evicted = 0
        out = np.zeros(len(lines_l), dtype=bool)
        for i, line in enumerate(lines_l):
            s = sets[line & mask]
            v = s.pop(line, None)
            if v is not None:
                hits += 1
                if v and not pf:
                    used += 1
                    v = 0
                s[line] = v
                out[i] = True
                continue
            if len(s) >= ways:
                vbit = s.pop(next(iter(s)))
                if vbit:
                    evicted += 1
            if pf:
                fills += 1
                s[line] = 1
            else:
                s[line] = 0
        st.accesses += len(lines_l)
        st.hits += hits
        st.pref_fills += fills
        st.pref_used += used
        st.pref_evicted_unused += evicted
        return out

    def probe(self, line: int) -> bool:
        """Presence test without touching LRU state or stats."""
        return line in self._sets[line & self._set_mask]

    def touch_used(self, line: int) -> bool:
        """Upper-level prefetcher read: refresh LRU, consume pref bit.

        Counts neither an access nor a hit (internal transfer); see
        :meth:`repro.sim.cache.Cache.touch_used`.
        """
        s = self._sets[line & self._set_mask]
        v = s.pop(line, None)
        if v is None:
            return False
        if v:
            v = 0
            self.stats.pref_used += 1
        s[line] = v
        return True

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        self._sets = [{} for _ in range(self.n_sets)]

    def state_equal(self, other: "FastCache") -> bool:
        """Order-sensitive content equality with another cache.

        CPython ``dict ==`` ignores insertion order, but insertion order
        *is* this cache's LRU order, so two caches are behaviourally
        interchangeable only when every set matches in content (lines
        and prefetched-unused bits) **and** recency order.  Used by the
        batch engine's lane merging (:mod:`repro.sim.batch`).
        """
        for a, b in zip(self._sets, other._sets):
            if a != b or list(a) != list(b):
                return False
        return True

    # -- array views (inspection / differential tests) ----------------

    def tags_array(self) -> np.ndarray:
        """Resident lines as a ``[sets, ways]`` int64 array.

        Within a set, ways are reported in LRU→MRU order; empty slots
        are -1.
        """
        out = np.full((self.n_sets, self.ways), -1, dtype=np.int64)
        for si, s in enumerate(self._sets):
            for w, line in enumerate(s):
                out[si, w] = line
        return out

    def pref_array(self) -> np.ndarray:
        """Prefetched-unused bits, same ``[sets, ways]`` layout as tags."""
        out = np.zeros((self.n_sets, self.ways), dtype=np.uint8)
        for si, s in enumerate(self._sets):
            for w, bit in enumerate(s.values()):
                out[si, w] = bit
        return out
