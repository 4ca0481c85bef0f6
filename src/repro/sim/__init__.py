"""Cycle-approximate multicore cache/prefetch/bandwidth simulator.

This subpackage is the hardware substrate substituted for the Intel Xeon
E5-2620 v4 used by the paper (see DESIGN.md section 2).  It models:

* per-core L1D and L2 set-associative LRU caches,
* the four Intel-style hardware prefetchers per core (L1 IP-stride,
  L1 next-line, L2 streamer, L2 adjacent-line) with MSR-style on/off,
* a shared last-level cache with CAT-style way-mask partitioning,
* a finite-bandwidth DRAM model with utilisation-dependent queuing,
* a per-core in-order timing model with memory-level parallelism, and
* a PMU counter fabric exposing the events the paper's Table I uses.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.params": ("MachineParams", "CacheGeometry"),
    "repro.sim.cache": ("Cache", "PartitionedCache"),
    "repro.sim.engines": (
        "ENGINE_BATCH", "ENGINE_FAST", "ENGINE_REFERENCE", "EngineSelectionError",
        "EngineSpec", "available_engines", "resolve_engine",
    ),
    "repro.sim.fastcache": ("FastCache",),
    "repro.sim.machine": ("Machine",),
    "repro.sim.msr": ("MsrFile", "PrefetchMsr", "PF_ALL_ON", "PF_ALL_OFF"),
    "repro.sim.cat": ("CatController",),
    "repro.sim.pmu": ("Pmu", "Event", "PmuSample"),
})

__all__ = [
    "MachineParams",
    "CacheGeometry",
    "Cache",
    "PartitionedCache",
    "FastCache",
    "ENGINE_BATCH",
    "ENGINE_FAST",
    "ENGINE_REFERENCE",
    "EngineSelectionError",
    "EngineSpec",
    "available_engines",
    "resolve_engine",
    "Machine",
    "MsrFile",
    "PrefetchMsr",
    "PF_ALL_ON",
    "PF_ALL_OFF",
    "CatController",
    "Pmu",
    "Event",
    "PmuSample",
]
