"""Stochastic memory-access trace generators.

A benchmark is modelled as a weighted mixture of *streams*, each an
address-sequence process over a private region of memory.  The stream
kinds cover the behaviours the paper's SPEC CPU2006 benchmarks exhibit:

* ``SequentialStream`` — unit- or small-stride walks over a large array
  (triggers the L2 streamer; prefetch friendly when the region exceeds
  the caches),
* ``StridedStream`` — constant large strides (caught by the L1
  IP-stride prefetcher but not by the streamer once the stride exceeds
  its window),
* ``RandomStream`` — uniform random lines in a region (prefetch
  unfriendly; the adjacent-line prefetcher still fires on its misses,
  which is what makes ``Rand Access`` prefetch *aggressive* yet useless),
* ``PointerChaseStream`` — a fixed pseudo-random cyclic tour of a
  region: temporally reusable (cacheable if the region fits) but
  spatially unpredictable.

Traces are produced in vectorised *bursts*; a ``TraceGenerator`` mixes
bursts from its streams according to weights.  Everything is
deterministic given the seed.

Each trace record is a ``(ctx, line)`` pair: ``ctx`` stands in for the
program counter of the triggering load (used by the IP-stride
prefetcher) and ``line`` is a global cache-line number.

**Position invariance.**  ``TraceGenerator.chunk`` always generates
whole bursts (one RNG pick each) and keeps the unused tail of the last
one for the next call, and every stream advances in pure element-space,
so the emitted ``(ctx, line)`` stream depends only on the *cumulative*
number of accesses requested, never on how that total was split into
chunks.  The materialized trace plane (:mod:`repro.sim.tracestore`)
relies on this to replay a once-generated trace bit-identically under
any chunking.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np


class Stream(ABC):
    """One address-sequence process.  ``ctx`` identifies the load PC."""

    #: True when ``burst(a + b)`` equals ``burst(a)`` then ``burst(b)``
    #: (pure element-space arithmetic, no RNG draw) — lets the mixer
    #: fuse consecutive bursts of the same stream into one call.
    deterministic_burst = True

    def __init__(self, ctx: int, base_line: int, region_lines: int) -> None:
        if region_lines < 1:
            raise ValueError("region must contain at least one line")
        self.ctx = int(ctx)
        self.base_line = int(base_line)
        self.region_lines = int(region_lines)

    @abstractmethod
    def burst(self, n: int) -> np.ndarray:
        """Return the next ``n`` line addresses (int64 array)."""

    def footprint_lines(self) -> int:
        return self.region_lines


class SequentialStream(Stream):
    """Cyclic walk with a constant (small) stride, in lines.

    ``repeats`` models spatial locality within a cache line: a
    unit-stride walk over 8-byte elements touches each 64 B line eight
    times, so the default emits every line ``repeats`` times in a row.
    """

    def __init__(
        self, ctx: int, base_line: int, region_lines: int, stride: int = 1, repeats: int = 8
    ) -> None:
        super().__init__(ctx, base_line, region_lines)
        if stride == 0:
            raise ValueError("stride must be nonzero")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.stride = int(stride)
        self.repeats = int(repeats)
        self._pos = 0  # measured in element steps (line step / repeats)

    def burst(self, n: int) -> np.ndarray:
        r = self.repeats
        steps = np.arange(self._pos, self._pos + n, dtype=np.int64) // r
        idx = (steps * self.stride) % self.region_lines
        self._pos += n
        # Keep the element counter bounded (one lap = region * repeats).
        self._pos %= self.region_lines * r
        return self.base_line + idx


class StridedStream(SequentialStream):
    """Large-stride walk: touches each line once (defeats the streamer)."""

    def __init__(self, ctx: int, base_line: int, region_lines: int, stride: int = 16) -> None:
        super().__init__(ctx, base_line, region_lines, stride, repeats=1)


class RandomStream(Stream):
    """Uniform random lines over the region (no temporal structure)."""

    deterministic_burst = False  # each burst draws from the RNG

    def __init__(self, ctx: int, base_line: int, region_lines: int, rng: np.random.Generator) -> None:
        super().__init__(ctx, base_line, region_lines)
        self._rng = rng

    def burst(self, n: int) -> np.ndarray:
        return self.base_line + self._rng.integers(0, self.region_lines, n, dtype=np.int64)


class PointerChaseStream(Stream):
    """A fixed random cyclic tour: follows one permutation cycle.

    The visit order is precomputed by shuffling the region once, so a
    burst is just a gather from that order — the sequential dependence
    of a pointer chase is preserved in the *order*, while generation
    stays vectorised.  ``repeats`` models several field accesses to the
    same 64 B node before following the next pointer.
    """

    def __init__(
        self, ctx: int, base_line: int, region_lines: int, rng: np.random.Generator, repeats: int = 2
    ) -> None:
        super().__init__(ctx, base_line, region_lines)
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self._order = rng.permutation(region_lines).astype(np.int64)
        self.repeats = int(repeats)
        self._pos = 0  # element-space position

    def burst(self, n: int) -> np.ndarray:
        r = self.repeats
        steps = (np.arange(self._pos, self._pos + n, dtype=np.int64) // r) % self.region_lines
        self._pos = (self._pos + n) % (self.region_lines * r)
        return self.base_line + self._order[steps]


#: Accesses per burst of every registered benchmark's generator.
BURST_LEN = 32


class TraceGenerator:
    """Weighted burst-mixture of streams for one core.

    ``inst_per_mem`` is the number of non-memory instructions retired
    per memory access (the benchmark's compute intensity) and ``mlp``
    the benchmark's achievable memory-level parallelism (a streaming
    code overlaps many misses; a pointer chase overlaps none); the
    timing model consumes both.
    """

    def __init__(
        self,
        streams: Sequence[Stream],
        weights: Sequence[float],
        *,
        inst_per_mem: float = 3.0,
        mlp: float = 4.0,
        burst_len: int = BURST_LEN,
        seed: int = 0,
    ) -> None:
        if len(streams) != len(weights) or not streams:
            raise ValueError("streams and weights must be equal-length and non-empty")
        w = np.asarray(weights, dtype=np.float64)
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        if mlp < 1.0:
            raise ValueError("mlp must be >= 1")
        self.streams = list(streams)
        self._cum = np.cumsum(w / w.sum())
        self.inst_per_mem = float(inst_per_mem)
        self.mlp = float(mlp)
        self.burst_len = int(burst_len)
        self._rng = np.random.default_rng(seed)
        # Generated but not yet served: the rest of the last burst.
        self._tail_ctx = self._tail_lines = np.empty(0, dtype=np.int64)

    def footprint_lines(self) -> int:
        return sum(s.footprint_lines() for s in self.streams)

    def chunk(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Next ``n`` accesses: ``(ctx, lines)`` int64 arrays."""
        bl = self.burst_len
        # The tail the last call's partial burst left comes first, then
        # as many whole bursts as the rest needs.
        head = len(self._tail_lines)
        n_bursts = max(0, -(-(n - head) // bl))
        ctx = np.empty(head + n_bursts * bl, dtype=np.int64)
        lines = np.empty_like(ctx)
        ctx[:head] = self._tail_ctx
        lines[:head] = self._tail_lines
        filled = head
        # Draw all stream picks for the chunk up front.
        picks = np.minimum(
            np.searchsorted(self._cum, self._rng.random(n_bursts), side="right"),
            len(self.streams) - 1,
        ).tolist()
        b = 0
        while b < n_bursts:
            si = picks[b]
            s = self.streams[si]
            b2 = b + 1
            # Fuse consecutive picks of the same deterministic stream
            # into one vectorised burst (identical output, fewer calls).
            if s.deterministic_burst:
                while b2 < n_bursts and picks[b2] == si:
                    b2 += 1
            take = (b2 - b) * bl
            lines[filled : filled + take] = s.burst(take)
            ctx[filled : filled + take] = s.ctx
            filled += take
            b = b2
        self._tail_ctx, self._tail_lines = ctx[n:].copy(), lines[n:].copy()
        return ctx[:n], lines[:n]


class PhasedTrace:
    """Alternates between trace generators every ``phase_len`` accesses.

    Models program *phase* behaviour: the paper notes the Agg set can
    change between phases ("In some program phases, the Agg set may
    not be empty"), which is why CMM re-detects every epoch.  The
    compute-intensity/MLP properties follow the current phase.
    """

    def __init__(self, generators: Sequence["TraceGenerator"], phase_len: int) -> None:
        if not generators:
            raise ValueError("need at least one generator")
        if phase_len < 1:
            raise ValueError("phase_len must be positive")
        self.generators = list(generators)
        self.phase_len = int(phase_len)
        self._phase = 0
        self._left = self.phase_len

    @property
    def current_phase(self) -> int:
        return self._phase

    @property
    def inst_per_mem(self) -> float:
        return self.generators[self._phase].inst_per_mem

    @property
    def mlp(self) -> float:
        return self.generators[self._phase].mlp

    def footprint_lines(self) -> int:
        return max(g.footprint_lines() for g in self.generators)

    def chunk(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        ctx = np.empty(n, dtype=np.int64)
        lines = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            take = min(n - filled, self._left)
            c, l = self.generators[self._phase].chunk(take)
            ctx[filled : filled + take] = c
            lines[filled : filled + take] = l
            filled += take
            self._left -= take
            if self._left == 0:
                self._phase = (self._phase + 1) % len(self.generators)
                self._left = self.phase_len
        return ctx, lines


class IdleTrace:
    """Trace of a halted core: never produces accesses."""

    inst_per_mem = 0.0
    mlp = 1.0

    def footprint_lines(self) -> int:
        return 0

    def chunk(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        z = np.empty(0, dtype=np.int64)
        return z, z
