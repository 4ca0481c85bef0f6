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

from repro.sim.params import MachineParams, CacheGeometry
from repro.sim.cache import Cache, PartitionedCache
from repro.sim.engines import (
    ENGINE_BATCH,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    EngineSelectionError,
    EngineSpec,
    available_engines,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.sim.fastcache import FastCache, FastPartitionedCache
from repro.sim.machine import Machine
from repro.sim.msr import MsrFile, PrefetchMsr, PF_ALL_ON, PF_ALL_OFF
from repro.sim.cat import CatController
from repro.sim.pmu import Pmu, Event, PmuSample

__all__ = [
    "MachineParams",
    "CacheGeometry",
    "Cache",
    "PartitionedCache",
    "FastCache",
    "FastPartitionedCache",
    "ENGINE_BATCH",
    "ENGINE_FAST",
    "ENGINE_REFERENCE",
    "EngineSelectionError",
    "EngineSpec",
    "available_engines",
    "get_engine",
    "register_engine",
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
