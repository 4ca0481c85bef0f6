"""Machine geometry and timing parameters.

Defaults model the Intel Xeon E5-2620 v4 (Broadwell-EP) used in the
paper's evaluation: 8 physical cores at 2.1 GHz, 32 KB L1D + 256 KB L2
per core, a shared 20 MB 20-way LLC, and DDR4-2400 memory with a
68.3 GB/s maximum bandwidth.

``MachineParams.scaled()`` returns a geometry shrunk by ``factor`` in
every cache capacity (same associativities, same latencies).  Workload
working sets are expressed relative to cache capacities (see
``repro.workloads``), so benchmark *classifications* — prefetch
aggressive / friendly / LLC sensitive — are preserved under scaling
while simulated access counts drop by the same factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                f"size {self.size_bytes} not divisible by ways*line "
                f"({self.ways}*{self.line_bytes})"
            )
        if self.sets & (self.sets - 1):
            raise ValueError(f"number of sets must be a power of two, got {self.sets}")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class MachineParams:
    """Full machine description: geometry, latencies, bandwidth.

    Latencies are in core cycles; bandwidth in bytes per core cycle.
    """

    n_cores: int = 8
    freq_ghz: float = 2.1
    line_bytes: int = 64

    l1: CacheGeometry = field(default_factory=lambda: CacheGeometry(32 * 1024, 8))
    l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(256 * 1024, 8))
    llc: CacheGeometry = field(default_factory=lambda: CacheGeometry(20 * 1024 * 1024, 20))

    lat_l1: int = 4
    lat_l2: int = 12
    lat_llc: int = 42
    lat_mem: int = 180  # unloaded DRAM round trip

    # 68.3 GB/s at 2.1 GHz ~= 32.5 bytes per core cycle for the socket.
    mem_bytes_per_cycle: float = 32.5
    # Sustainable fill bandwidth of one core (finite fill buffers).
    core_bytes_per_cycle: float = 4.0
    # Queuing model: latency multiplier grows as rho/(1-rho); cap keeps
    # the fixed point stable when demand exceeds capacity.
    queue_gain: float = 1.4
    max_queue_factor: float = 8.0

    # Memory-level parallelism: how many outstanding demand misses a
    # core overlaps, i.e. the divisor applied to summed miss latency.
    mlp: float = 4.0
    # Execution CPI for non-memory work (superscalar core).
    cpi_exec: float = 0.45

    # Prefetcher knobs (per core).
    streamer_degree: int = 4
    streamer_table_pages: int = 16
    stride_table_entries: int = 16
    stride_degree: int = 2
    stride_confidence: int = 2

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("need at least one core")
        for g in (self.l1, self.l2, self.llc):
            if g.line_bytes != self.line_bytes:
                raise ValueError("all cache levels must share the machine line size")

    @property
    def cycles_per_second(self) -> float:
        return self.freq_ghz * 1e9

    def scaled(self, factor: int = 8) -> "MachineParams":
        """Shrink the LLC by ``factor``; private caches shrink by at
        most 4x so prefetch lead distances still fit inside them
        (same associativities and latencies)."""
        if factor < 1:
            raise ValueError("factor must be >= 1")

        def shrink(g: CacheGeometry, f: int) -> CacheGeometry:
            size = g.size_bytes // f
            if size < g.ways * g.line_bytes:
                raise ValueError("scale factor too large for geometry")
            return CacheGeometry(size, g.ways, g.line_bytes)

        private_f = min(factor, 4)
        return replace(
            self,
            l1=shrink(self.l1, private_f),
            l2=shrink(self.l2, private_f),
            llc=shrink(self.llc, factor),
        )


def default_params() -> MachineParams:
    """The paper's E5-2620 v4 configuration."""
    return MachineParams()


def scaled_params(factor: int = 8, n_cores: int = 8) -> MachineParams:
    """A 1/``factor`` capacity machine for fast experiments."""
    return replace(MachineParams().scaled(factor), n_cores=n_cores)
