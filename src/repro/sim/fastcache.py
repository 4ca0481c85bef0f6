"""Array-backed caches for the ``fast`` simulation engine.

Same semantics as :mod:`repro.sim.cache` (the ``reference`` engine),
re-laid-out for throughput and batch access:

* :class:`FastCache` — private L1/L2.  One insertion-ordered dict per
  set maps ``line -> prefetched-unused bit``, so hit scans, LRU
  refreshes, evictions *and* prefetch-bit bookkeeping are single
  C-speed dict operations (the reference keeps the prefetch bits in a
  side set, costing an extra membership probe on every hit).
* :class:`FastPartitionedCache` — the shared LLC.  Per set: one dict
  mapping ``line -> way`` in LRU→MRU recency order plus a bitmask of
  still-empty ways; prefetch bits live in a flat ``sets x ways`` byte
  buffer.  CAT victim selection is a lowest-bit trick on
  ``free & allowed`` while free allowed ways exist, a pop of the
  oldest entry for the full mask, and a short recency-order scan
  otherwise — replacing the reference's O(ways) min-stamp scan per
  fill.

Both rely on CPython dicts preserving insertion order: an LRU refresh
is pop + reinsert, an eviction pops ``next(iter(set_dict))``.  That
order is exactly the LRU-stamp order of the reference implementation
(stamps strictly increase, so the min stamp among a set of ways is the
way seen earliest in recency order; empty ways carry stamp 0 in the
reference and are victimised lowest index first, matching the free
bitmask's lowest-bit pick), which is what makes the two engines
bit-identical — asserted by ``tests/property`` and the machine-level
differential suite.  Plain dicts beat ``collections.OrderedDict`` here
by ~30% end-to-end: ``get``/``pop`` dominate and are twice as fast on
the builtin.

A note on "array-backed": the canonical hot-path state is C dicts, not
NumPy buffers, because CPython scalar indexing into ndarrays is slower
than dict/list operations and every LRU update is inherently
sequential.  Flat NumPy views of the tag / recency / prefetch-bit
state are materialised on demand (:meth:`FastCache.tags_array` etc.)
for batch inspection, and the batch entry points
(:meth:`FastCache.access_many`) amortise per-call overhead across a
whole address array.  See docs/simulation_model.md ("The fast
kernel").
"""

from __future__ import annotations

import numpy as np

from repro.sim.cache import CacheStats
from repro.sim.params import CacheGeometry

__all__ = ["FastCache", "FastPartitionedCache"]


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


class FastPartitionedCache:
    """Shared LLC with CAT way-mask allocation, fast layout.

    Behavioural replacement for
    :class:`repro.sim.cache.PartitionedCache`: hits may land in any
    way, fills victimise the LRU way among ``allowed_ways``, and every
    counter matches bit for bit.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.n_sets = geometry.sets
        self.ways = geometry.ways
        self._set_mask = self.n_sets - 1
        self._full_bits = (1 << self.ways) - 1
        # Each set: line -> way, in LRU -> MRU recency order.  Insertion
        # order tracks the reference's strictly-increasing LRU stamps,
        # so "first entry whose way is allowed" is exactly the
        # min-stamp-among-allowed victim of the reference.
        self._sets: list[dict[int, int]] = [{} for _ in range(self.n_sets)]
        # Per-set bitmask of still-empty ways.  Reference empty ways
        # carry stamp 0 (< any filled stamp, ties broken lowest index),
        # so the victim is the lowest allowed free way whenever one
        # exists — a two-instruction bit trick here.
        self._free: list[int] = [self._full_bits] * self.n_sets
        # Flat [set * ways + way] prefetched-unused bits.
        self._pref = bytearray(self.n_sets * self.ways)
        self._way_occ: list[int] = [0] * self.ways
        self._abits_memo: dict[tuple[int, ...], int] = {}
        self.stats = CacheStats()

    def _allowed_bits(self, allowed_ways: tuple[int, ...]) -> int:
        memo = self._abits_memo
        b = memo.get(allowed_ways)
        if b is None:
            b = 0
            for w in allowed_ways:
                b |= 1 << w
            memo[allowed_ways] = b
        return b

    def access(self, line: int, allowed_ways: tuple[int, ...], is_prefetch: bool = False) -> bool:
        """Look up ``line``; on miss, fill into the LRU allowed way."""
        si = line & self._set_mask
        s = self._sets[si]
        st = self.stats
        st.accesses += 1
        W = self.ways
        w = s.pop(line, None)
        if w is not None:
            st.hits += 1
            s[line] = w  # reinsert -> MRU
            if not is_prefetch:
                slot = si * W + w
                if self._pref[slot]:
                    self._pref[slot] = 0
                    st.pref_used += 1
            return True
        if not allowed_ways:
            raise ValueError("allowed_ways must contain at least one way")
        abits = self._allowed_bits(tuple(allowed_ways))
        fm = self._free[si] & abits
        if fm:
            vw = (fm & -fm).bit_length() - 1  # lowest allowed free way
            self._free[si] ^= 1 << vw
            self._way_occ[vw] += 1
        else:
            if abits == self._full_bits:
                vw = s.pop(next(iter(s)))
            else:
                for victim, vw in s.items():
                    if abits >> vw & 1:
                        break
                del s[victim]
            slot = si * W + vw
            if self._pref[slot]:
                self._pref[slot] = 0
                st.pref_evicted_unused += 1
        s[line] = vw
        if is_prefetch:
            st.pref_fills += 1
            self._pref[si * W + vw] = 1
        return False

    def access_many(self, lines, allowed_ways: tuple[int, ...], is_prefetch: bool = False) -> np.ndarray:
        """Batch :meth:`access` with one allowed-way mask; returns hit flags."""
        access = self.access
        aw = tuple(allowed_ways)
        pf = bool(is_prefetch)
        lines_l = np.asarray(lines, dtype=np.int64).tolist()
        out = np.zeros(len(lines_l), dtype=bool)
        for i, line in enumerate(lines_l):
            out[i] = access(line, aw, pf)
        return out

    def probe(self, line: int) -> bool:
        return line in self._sets[line & self._set_mask]

    def occupancy(self) -> int:
        return sum(self._way_occ)

    def occupancy_in_ways(self, ways: tuple[int, ...]) -> int:
        occ = self._way_occ
        return sum(occ[w] for w in ways)

    def resident_way(self, line: int) -> int | None:
        """Way index holding ``line`` or None (test helper)."""
        return self._sets[line & self._set_mask].get(line)

    def flush(self) -> None:
        self._sets = [{} for _ in range(self.n_sets)]
        self._free = [self._full_bits] * self.n_sets
        self._pref = bytearray(self.n_sets * self.ways)
        self._way_occ = [0] * self.ways

    # -- array views (inspection / differential tests) ----------------

    def tags_array(self) -> np.ndarray:
        """Resident lines as a ``[sets, ways]`` int64 array (way-indexed).

        Empty ways report -1.
        """
        out = np.full((self.n_sets, self.ways), -1, dtype=np.int64)
        for si, s in enumerate(self._sets):
            for line, w in s.items():
                out[si, w] = line
        return out

    def pref_array(self) -> np.ndarray:
        """Prefetched-unused bits as a ``[sets, ways]`` uint8 array."""
        return np.frombuffer(bytes(self._pref), dtype=np.uint8).reshape(
            self.n_sets, self.ways
        )

    def recency_array(self) -> np.ndarray:
        """Way indices per set in LRU→MRU order, ``[sets, ways]`` int64.

        Empty ways lead (lowest index first), mirroring the reference's
        stamp-0 initial state; filled ways follow in recency order.
        """
        out = np.empty((self.n_sets, self.ways), dtype=np.int64)
        for si, s in enumerate(self._sets):
            row = [w for w in range(self.ways) if self._free[si] >> w & 1]
            row.extend(s.values())
            out[si] = row
        return out
