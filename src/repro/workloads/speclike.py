"""Synthetic SPEC CPU2006-like benchmark definitions.

Each benchmark is a weighted mixture of access streams with regions
expressed as *fractions of LLC capacity* so its classification is
preserved when the machine is scaled (DESIGN.md section 5).  The three
class flags per benchmark are the *intended* classifications under the
paper's criteria (Sec. IV-B):

* ``pref_aggressive`` — demand BW above threshold AND BW increase from
  prefetching > 50 % (Fig. 1);
* ``pref_friendly``  — IPC speedup from prefetching > 30 % (Fig. 2);
* ``llc_sensitive``  — needs >= 8 of 20 ways for 80 % of its best IPC
  (Fig. 3).

``Rand Access`` is the paper's own micro-benchmark: strongly prefetch
aggressive, random access over a large region, ~25 % slower *with*
prefetching when run alone (Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import zlib

import numpy as np

if TYPE_CHECKING:
    from repro.sim.trace import Stream, TraceGenerator

# Streams of one core are placed this many lines apart so they never
# overlap (core regions themselves are 2**34 lines apart).
STREAM_SPACING_LINES = 1 << 28


@dataclass(frozen=True)
class StreamSpec:
    """One component stream of a benchmark."""

    kind: str              # "seq" | "strided" | "random" | "chase"
    region: float          # fraction of LLC lines
    weight: float = 1.0
    stride: int = 1        # seq/strided only
    repeats: int = 8       # accesses per line (seq/chase spatial locality)

    def __post_init__(self) -> None:
        if self.kind not in ("seq", "strided", "random", "chase"):
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.region <= 0:
            raise ValueError("region must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark: stream mixture + compute intensity + intended classes."""

    name: str
    streams: tuple[StreamSpec, ...]
    inst_per_mem: float
    mlp: float
    pref_aggressive: bool
    pref_friendly: bool
    llc_sensitive: bool

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError("benchmark needs at least one stream")
        if self.pref_friendly and not self.pref_aggressive:
            # Paper footnote: "a 'prefetch friendly' application is also
            # prefetch aggressive unless otherwise specified".
            raise ValueError(f"{self.name}: friendly implies aggressive")


def _seq(region: float, weight: float = 1.0, repeats: int = 8) -> StreamSpec:
    return StreamSpec("seq", region, weight, stride=1, repeats=repeats)


def _random(region: float, weight: float = 1.0) -> StreamSpec:
    return StreamSpec("random", region, weight)


def _chase(region: float, weight: float = 1.0, repeats: int = 3) -> StreamSpec:
    return StreamSpec("chase", region, weight, repeats=repeats)


# --------------------------------------------------------------------
# The benchmark registry.  Groups mirror the paper's classes:
#  * prefetch friendly (and aggressive): large streaming footprints;
#  * prefetch unfriendly but aggressive: Rand Access, 471.omnetpp;
#  * LLC sensitive, not aggressive: pointer-heavy working sets near LLC size;
#  * neither: small working sets or compute bound.
# --------------------------------------------------------------------

_SPECS: tuple[BenchmarkSpec, ...] = (
    # ---- prefetch friendly + aggressive (Figs. 1-2 top group) ----
    BenchmarkSpec("410.bwaves", (_seq(4.0),), inst_per_mem=5.0, mlp=8.0,
                  pref_aggressive=True, pref_friendly=True, llc_sensitive=False),
    BenchmarkSpec("462.libquantum", (_seq(3.0, repeats=6),), inst_per_mem=4.0, mlp=10.0,
                  pref_aggressive=True, pref_friendly=True, llc_sensitive=False),
    BenchmarkSpec("459.GemsFDTD", (_seq(5.0), _seq(2.0, 0.5)), inst_per_mem=6.0, mlp=8.0,
                  pref_aggressive=True, pref_friendly=True, llc_sensitive=False),
    BenchmarkSpec("437.leslie3d", (_seq(4.0), _seq(1.5, 0.4)), inst_per_mem=6.0, mlp=7.0,
                  pref_aggressive=True, pref_friendly=True, llc_sensitive=False),
    BenchmarkSpec("470.lbm", (_seq(6.0, repeats=6),), inst_per_mem=5.0, mlp=9.0,
                  pref_aggressive=True, pref_friendly=True, llc_sensitive=False),
    BenchmarkSpec("481.wrf", (_seq(2.5), _chase(0.02, 0.3)), inst_per_mem=8.0, mlp=6.0,
                  pref_aggressive=True, pref_friendly=True, llc_sensitive=False),
    BenchmarkSpec("433.milc", (_seq(3.5, repeats=6), _random(2.0, 0.12)), inst_per_mem=6.0, mlp=6.0,
                  pref_aggressive=True, pref_friendly=True, llc_sensitive=False),
    BenchmarkSpec("434.zeusmp", (_seq(3.0), StreamSpec("seq", 1.0, 0.25, stride=2, repeats=4)), inst_per_mem=7.0, mlp=7.0,
                  pref_aggressive=True, pref_friendly=True, llc_sensitive=False),

    # ---- prefetch aggressive but unfriendly ----
    BenchmarkSpec("rand_access", (_random(8.0),), inst_per_mem=1.5, mlp=4.0,
                  pref_aggressive=True, pref_friendly=False, llc_sensitive=False),
    BenchmarkSpec("471.omnetpp", (_chase(0.45, 1.0, repeats=3), _random(2.0, 1.3)),
                  inst_per_mem=2.0, mlp=3.2,
                  pref_aggressive=True, pref_friendly=False, llc_sensitive=True),

    # ---- LLC sensitive, not prefetch aggressive ----
    BenchmarkSpec("429.mcf", (_chase(0.55, 1.0, repeats=2),), inst_per_mem=4.0, mlp=1.5,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=True),
    BenchmarkSpec("450.soplex", (_chase(0.5, 1.0, repeats=3), _seq(0.05, 0.2)),
                  inst_per_mem=4.0, mlp=1.6,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=True),
    BenchmarkSpec("483.xalancbmk", (_chase(0.45, 1.0, repeats=3),), inst_per_mem=5.0, mlp=1.5,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=True),
    BenchmarkSpec("473.astar", (_chase(0.42, 1.0, repeats=3),), inst_per_mem=4.0, mlp=1.4,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=True),

    # ---- neither: small or compute-bound working sets ----
    BenchmarkSpec("444.namd", (_seq(0.006, repeats=8), _chase(0.003, 0.3, repeats=4)),
                  inst_per_mem=12.0, mlp=3.0,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=False),
    BenchmarkSpec("453.povray", (_chase(0.004, 1.0, repeats=6),), inst_per_mem=14.0, mlp=2.0,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=False),
    BenchmarkSpec("416.gamess", (_seq(0.005, repeats=8),), inst_per_mem=13.0, mlp=3.0,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=False),
    BenchmarkSpec("465.tonto", (_seq(0.008, repeats=8), _chase(0.002, 0.2, repeats=4)),
                  inst_per_mem=11.0, mlp=3.0,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=False),
    BenchmarkSpec("458.sjeng", (_chase(0.01, 1.0, repeats=4),), inst_per_mem=10.0, mlp=2.0,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=False),
    BenchmarkSpec("400.perlbench", (_chase(0.008, 1.0, repeats=5), _seq(0.004, 0.3)),
                  inst_per_mem=10.0, mlp=2.5,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=False),
    BenchmarkSpec("445.gobmk", (_chase(0.012, 1.0, repeats=4),), inst_per_mem=9.0, mlp=2.0,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=False),
    BenchmarkSpec("456.hmmer", (_seq(0.02, repeats=8),), inst_per_mem=9.0, mlp=4.0,
                  pref_aggressive=False, pref_friendly=False, llc_sensitive=False),
)

BENCHMARKS: dict[str, BenchmarkSpec] = {s.name: s for s in _SPECS}


def benchmark(name: str) -> BenchmarkSpec:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; see benchmark_names()") from None


def benchmark_names(
    *, aggressive: bool | None = None, friendly: bool | None = None, llc_sensitive: bool | None = None
) -> list[str]:
    """Registry query by intended classification flags."""
    out = []
    for s in _SPECS:
        if aggressive is not None and s.pref_aggressive != aggressive:
            continue
        if friendly is not None and s.pref_friendly != friendly:
            continue
        if llc_sensitive is not None and s.llc_sensitive != llc_sensitive:
            continue
        out.append(s.name)
    return out


def build_trace(spec: BenchmarkSpec | str, *, llc_lines: int, base_line: int, seed: int = 0) -> TraceGenerator:
    """Instantiate a benchmark's trace generator on a concrete machine.

    ``llc_lines`` anchors the relative region sizes; ``base_line`` is
    the core's private region; ``seed`` makes the instance unique
    (mixes may contain the same benchmark several times).
    """
    from repro.sim.trace import (
        PointerChaseStream,
        RandomStream,
        SequentialStream,
        StridedStream,
        TraceGenerator,
    )

    if isinstance(spec, str):
        spec = benchmark(spec)
    rng = np.random.default_rng((seed, zlib.crc32(spec.name.encode())))
    streams: list[Stream] = []
    weights: list[float] = []
    for i, ss in enumerate(spec.streams):
        region = max(4, int(round(ss.region * llc_lines)))
        base = base_line + i * STREAM_SPACING_LINES
        ctx = (zlib.crc32(spec.name.encode()) & 0xFFFF) * 16 + i
        if ss.kind == "seq":
            streams.append(SequentialStream(ctx, base, region, stride=ss.stride, repeats=ss.repeats))
        elif ss.kind == "strided":
            streams.append(StridedStream(ctx, base, region, stride=ss.stride))
        elif ss.kind == "random":
            streams.append(RandomStream(ctx, base, region, rng))
        else:  # chase
            streams.append(PointerChaseStream(ctx, base, region, rng, repeats=ss.repeats))
        weights.append(ss.weight)
    return TraceGenerator(
        streams,
        weights,
        inst_per_mem=spec.inst_per_mem,
        mlp=spec.mlp,
        seed=int(rng.integers(0, 2**31)),
    )
