"""Placeholder for the removed compiled kernel tier.

Exists only because the benchmark harness (``benchmarks/perf/child.py``)
still imports it to report ``numba`` and ``batch.native_fallbacks``;
it goes with the next change to that harness.  Nothing else uses it.
"""

NUMBA_VERSION = None


def native_fallback_count() -> int:
    return 0
