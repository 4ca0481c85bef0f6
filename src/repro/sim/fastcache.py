"""Dict-backed private caches for the ``fast`` simulation engine.

Same semantics as :class:`repro.sim.cache.Cache` (the ``reference``
engine's L1/L2), re-laid-out for throughput: :class:`FastCache` keeps
one insertion-ordered dict per set mapping ``line -> prefetched-unused
bit``, so hit scans, LRU refreshes, evictions *and* prefetch-bit
bookkeeping are single C-speed dict operations (the reference keeps
the prefetch bits in a side set, costing an extra membership probe on
every hit).

The class is state, not behaviour: the fast core kernel
(:func:`repro.sim.fastengine.run_core_chunk`) and the batch engine's
lanes operate on ``_sets`` and ``stats`` directly, inlining every
access.  An LRU refresh is pop + reinsert and an eviction pops
``next(iter(set_dict))``: CPython dicts preserve insertion order, and
that order is exactly the reference's LRU order, which is what makes
the two engines bit-identical — asserted against ``reference`` on full
cache state by ``tests/property/test_engine_differential.py``.  Plain
dicts beat ``collections.OrderedDict`` here by ~30% end-to-end:
``get``/``pop`` dominate and are twice as fast on the builtin.

The canonical hot-path state is C dicts, not NumPy buffers, because
CPython scalar indexing into ndarrays is slower than dict/list
operations and every LRU update is inherently sequential.  Flat NumPy
views (:meth:`FastCache.tags_array`, :meth:`FastCache.pref_array`) are
materialised on demand for inspection.  The shared LLC of every fast
path is the batch engine's :class:`~repro.sim.batch.GroupedLLC` (a
scalar machine holds one at width 1).  See docs/simulation_model.md
("The fast kernel").
"""

from __future__ import annotations

import numpy as np

from repro.sim.cache import CacheStats
from repro.sim.params import CacheGeometry

__all__ = ["FastCache"]


class FastCache:
    """Private set-associative LRU cache (allocate-on-miss), fast layout.

    The state the fast kernel advances in place of a
    :class:`repro.sim.cache.Cache`: identical hit/miss streams, LRU
    decisions and :class:`CacheStats` for any access sequence.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.n_sets = geometry.sets
        self.ways = geometry.ways
        self._set_mask = self.n_sets - 1
        # Each set: line -> prefetched-unused bit, LRU order first.
        self._sets: list[dict[int, int]] = [{} for _ in range(self.n_sets)]
        self.stats = CacheStats()

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
