"""Materialized trace plane: generate each deterministic trace once,
replay it everywhere from a compact in-memory layout.

Every simulation run regenerates its benchmark traces from scratch
(:func:`repro.workloads.speclike.build_trace` + ``TraceGenerator``
chunk synthesis), even though a cold sweep asks for the *same* traces
over and over: every mechanism run of a mix re-synthesises the mix's
eight per-core streams, and a profile way-sweep rebuilds one benchmark
a dozen times.  This module materializes a trace once per
``(benchmark spec, llc_lines, base_line, seed)`` and serves it back
through :class:`MaterializedTrace`, which implements the same
``chunk(n)`` protocol as a live generator.  ``Machine`` and
``fastengine`` are untouched; they cannot tell the difference.

**Layout.**  Every access of a generator comes from one of its few
streams, and a stream has one ``ctx`` and owns the lines from its
``base_line`` up (streams sit ``1 << 28`` lines apart).  A trace is
therefore kept as a ``uint8`` stream code per access, indexing two
per-trace tables (each stream's ``ctx`` and ``base_line``, both taken
from the generator's ``streams``), plus each line's offset from its
stream's base in the narrowest signed integer type that holds every
offset — at most ``int32`` for every registered benchmark.  That is at
most 5 bytes per access instead of the 16 of two int64 columns.  ``chunk(n)`` expands
only the requested slice back to the int64 ``(ctx, lines)`` pair: two
``take``\\ s and an add.

Bit-identity rests on the generator's *position invariance*
(documented in :mod:`repro.sim.trace`): the emitted stream depends only
on the cumulative position, not on how it was split into chunks.  A
request that outruns the materialized length drops the trace back to a
live generator, fast-forwarded to the exact position — still
bit-identical, just no longer served from the store.

Storage is one in-memory tier plus shared memory:

* **memory** — per-:class:`TraceStore` dict of compact traces, living
  as long as the store (a session owns one);
* **shared memory** — the parent experiment process *publishes*
  segments (``multiprocessing.shared_memory``) that persistent pool
  workers attach by name instead of receiving arrays through pickle.
  A segment holds the same compact layout — the offsets, then the
  codes — and the two tables and the offset type ride in the manifest
  item.  Segments are parent-owned: the session that created them
  unlinks them on close (normal exit, ``KeyboardInterrupt`` via
  ``weakref.finalize``/atexit, and after worker crashes — a dead
  worker only ever *attached*).

Nothing is written to disk and there is no knob: code that holds no
store (a bare ``build_machine``, a pool worker whose manifest misses)
generates live.  The trace plane is a pure transport optimisation and
is deliberately **excluded from experiment cache keys**, exactly like
the simulation-engine choice (:mod:`repro.sim.engines`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.workloads.speclike import BenchmarkSpec, benchmark, build_trace

__all__ = [
    "SHM_PREFIX",
    "MaterializedTrace",
    "TraceStore",
    "fallback_count",
    "trace_key",
    "active_view",
    "use_view",
    "ManifestView",
    "shm_residue",
]

#: Prefix of every shared-memory segment the trace plane creates; the
#: leak checks (``repro.platform.faults.verify_no_segment_leaks``, the
#: chaos suite) scan ``/dev/shm`` for it.
SHM_PREFIX = "repro-tr-"


def trace_key(
    spec: BenchmarkSpec | str, *, llc_lines: int, base_line: int, seed: int
) -> str:
    """Content key of one materialized trace.

    Hashes the *full benchmark spec* (not just its name) so editing a
    registry entry invalidates its materializations, plus everything
    :func:`build_trace` consumes.  Length is deliberately not part of
    the key: a longer materialization of the same trace supersedes a
    shorter one (the stream is a deterministic prefix-extension).
    """
    if isinstance(spec, str):
        spec = benchmark(spec)
    payload = {
        "spec": asdict(spec),
        "llc_lines": int(llc_lines),
        "base_line": int(base_line),
        "seed": int(seed),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Candidate offset types, narrowest first.
_OFFSET_DTYPES = (np.int8, np.int16, np.int32, np.int64)


@dataclass
class _Entry:
    """One materialized trace in its compact layout.

    Access ``i`` is ``(ctx_of[code[i]], base_of[code[i]] + offset[i])``.
    """

    code: np.ndarray
    offset: np.ndarray
    ctx_of: np.ndarray
    base_of: np.ndarray
    inst_per_mem: float
    mlp: float
    footprint: int

    @property
    def length(self) -> int:
        return len(self.code)

    @classmethod
    def build(cls, gen, length: int) -> "_Entry":
        """The first ``length`` accesses of ``gen`` (a fresh generator)."""
        ctx, lines = gen.chunk(length)
        # The tables come from the streams, sorted by ctx, so a code is
        # the rank of the access's ctx.  Every ctx is some stream's, and
        # build_trace gives each of a spec's (few) streams its own.
        streams = sorted(gen.streams, key=lambda s: s.ctx)
        ctx_of = np.array([s.ctx for s in streams], dtype=np.int64)
        base_of = np.array([s.base_line for s in streams], dtype=np.int64)
        code = np.searchsorted(ctx_of, ctx).astype(np.uint8)
        del ctx
        offset = base_of.take(code)
        np.subtract(lines, offset, out=offset)
        del lines
        lo, hi = int(offset.min()), int(offset.max())
        dtype = next(t for t in _OFFSET_DTYPES if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)
        return cls(
            code=code,
            offset=offset.astype(dtype),
            ctx_of=ctx_of,
            base_of=base_of,
            inst_per_mem=gen.inst_per_mem,
            mlp=gen.mlp,
            footprint=gen.footprint_lines(),
        )

    def expand(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Accesses ``start:stop`` as the generator's int64 ``(ctx, lines)``."""
        code = self.code[start:stop]
        lines = self.base_of.take(code)
        lines += self.offset[start:stop]
        return self.ctx_of.take(code), lines


class MaterializedTrace:
    """Replays a materialized trace via ``chunk(n)``.

    Serves from the store's compact entry while every request stays
    inside the materialized length.  The first request past it switches
    to a **live** generator built by ``factory`` and fast-forwarded to
    the current position — bit-identical output either way, so callers
    never need to care which side served them.  ``fallbacks`` counts
    the switch (0 or 1); tests pin it at 0 for the standard scales.
    """

    def __init__(self, entry: _Entry, factory: Callable[[], object]) -> None:
        self._entry = entry
        self.inst_per_mem = float(entry.inst_per_mem)
        self.mlp = float(entry.mlp)
        self._factory = factory
        self._pos = 0
        self._live = None
        self.fallbacks = 0

    @property
    def length(self) -> int:
        return self._entry.length

    @property
    def pos(self) -> int:
        return self._pos

    def footprint_lines(self) -> int:
        return self._entry.footprint

    def _go_live(self) -> None:
        global _PROCESS_FALLBACKS
        gen = self._factory()
        # The stream is a function of position (repro.sim.trace), so
        # one fast-forward call reaches the state any chunking would.
        if self._pos:
            gen.chunk(self._pos)
        self._live = gen
        self.fallbacks += 1
        _PROCESS_FALLBACKS += 1

    def fork(self, pos: int = 0) -> "MaterializedTrace":
        """Cheap clone sharing the materialized entry, cursor at ``pos``.

        The batch kernel's lane forks: each lane replays the same
        entry through its own cursor.  The stream is a function of
        position, so the cursor describes the clone's state fully at
        any ``pos``; past the materialized length it goes live by
        itself.
        """
        t = MaterializedTrace(self._entry, self._factory)
        t._pos = int(pos)
        return t

    def chunk(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self._live is None and self._pos + n <= self._entry.length:
            start, self._pos = self._pos, self._pos + n
            return self._entry.expand(start, self._pos)
        if self._live is None:
            self._go_live()
        out = self._live.chunk(n)
        self._pos += n
        return out


# Process-wide count of MaterializedTrace go-live fallbacks (every
# _go_live adds one).  Surfaced via fallback_count() so batch runs can
# assert the whole sweep stayed on the stored path.
_PROCESS_FALLBACKS = 0


def fallback_count() -> int:
    """Go-live fallbacks in this process (all traces, all stores)."""
    return _PROCESS_FALLBACKS


class TraceStore:
    """Materialized-trace cache: an in-memory tier plus parent-owned
    shared-memory publication for pool workers.

    ``root`` and ``mode`` accept only ``None`` and ``"memory"``.
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(self, root: None = None, *, mode: str | None = None) -> None:
        # Legacy one-valued arguments: removed once the benchmark
        # harness stops passing them (ROADMAP item 1).
        if root is not None or mode not in (None, "memory"):
            raise ValueError(
                f"a TraceStore is in-memory only; got root={root!r}, mode={mode!r}"
            )
        self._mem: dict[str, _Entry] = {}
        self._shm: dict[str, object] = {}  # key -> SharedMemory (parent-owned)
        #: Distinguishes this store's segments from any other store in
        #: this or another process, so concurrent sessions never fight
        #: over segment names and ownership stays unambiguous.
        self._tag = f"{os.getpid():x}-{next(TraceStore._ids):x}"
        # Guaranteed unlink on interpreter exit (including SIGINT →
        # KeyboardInterrupt) even when close() is never called; the
        # callback must not reference self or it would never fire.
        self._segments_finalizer = weakref.finalize(self, TraceStore._release, self._shm)

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Unlink every published segment; idempotent."""
        self._segments_finalizer()

    @staticmethod
    def _release(shm_map: dict[str, object]) -> None:
        for shm in shm_map.values():
            with contextlib.suppress(Exception):
                shm.close()
            with contextlib.suppress(Exception):
                shm.unlink()
        shm_map.clear()

    # -- materialization ---------------------------------------------

    def _entry_for(
        self, spec: BenchmarkSpec, *, llc_lines: int, base_line: int, seed: int, length: int
    ) -> tuple[str, _Entry]:
        key = trace_key(spec, llc_lines=llc_lines, base_line=base_line, seed=seed)
        entry = self._mem.get(key)
        if entry is not None and entry.length >= length:
            return key, entry
        gen = build_trace(spec, llc_lines=llc_lines, base_line=base_line, seed=seed)
        entry = _Entry.build(gen, max(length, 1))
        self._mem[key] = entry
        # A longer materialization supersedes any published segment of
        # the shorter one only on the parent side; workers keep serving
        # the (still-correct) shorter prefix until it runs out.
        return key, entry

    def trace_for(
        self,
        spec: BenchmarkSpec | str,
        *,
        llc_lines: int,
        base_line: int,
        seed: int,
        length: int,
    ) -> MaterializedTrace:
        """A replayable trace covering ``length`` accesses."""
        if isinstance(spec, str):
            spec = benchmark(spec)
        _key, entry = self._entry_for(
            spec, llc_lines=llc_lines, base_line=base_line, seed=seed, length=length
        )
        return _entry_trace(entry, spec, llc_lines, base_line, seed)

    # -- shared-memory publication (parent side) ---------------------

    def publish(
        self,
        spec: BenchmarkSpec | str,
        *,
        llc_lines: int,
        base_line: int,
        seed: int,
        length: int,
    ) -> dict | None:
        """Materialize + publish one trace; returns its manifest item.

        The manifest item is a plain JSON-able dict a pool worker turns
        back into a :class:`MaterializedTrace` by attaching the segment
        (see :class:`ManifestView`).  Returns ``None`` when shared
        memory is unavailable on this platform — the worker then falls
        back to live generation, which is always bit-identical.
        """
        if isinstance(spec, str):
            spec = benchmark(spec)
        key, entry = self._entry_for(
            spec, llc_lines=llc_lines, base_line=base_line, seed=seed, length=length
        )
        shm = self._shm.get(key)
        n = entry.length
        nbytes = _segment_nbytes(n, entry.offset.dtype)
        if shm is None or shm.size < nbytes:
            try:
                from multiprocessing import shared_memory

                # The length rides in the name so a longer publish of
                # the same trace never collides with the (still-live)
                # shorter segment it supersedes.
                fresh = shared_memory.SharedMemory(
                    create=True,
                    size=nbytes,
                    name=f"{SHM_PREFIX}{self._tag}-{key[:16]}-{n:x}",
                )
            except Exception:
                return None
            offset, code = _segment_arrays(fresh, n, entry.offset.dtype)
            offset[:] = entry.offset
            code[:] = entry.code
            if shm is not None:  # superseded shorter segment
                with contextlib.suppress(Exception):
                    shm.close()
                with contextlib.suppress(Exception):
                    shm.unlink()
            self._shm[key] = shm = fresh
        return {
            "key": key,
            "shm": shm.name,
            "length": n,
            "offset_dtype": entry.offset.dtype.name,
            "ctx_of": entry.ctx_of.tolist(),
            "base_of": entry.base_of.tolist(),
            "inst_per_mem": entry.inst_per_mem,
            "mlp": entry.mlp,
            "footprint": entry.footprint,
            "bench": spec.name,
            "llc_lines": int(llc_lines),
            "base_line": int(base_line),
            "seed": int(seed),
        }


def _entry_trace(
    entry: _Entry, spec: BenchmarkSpec, llc_lines: int, base_line: int, seed: int
) -> MaterializedTrace:
    def factory():
        return build_trace(spec, llc_lines=llc_lines, base_line=base_line, seed=seed)

    return MaterializedTrace(entry, factory)


def _segment_nbytes(length: int, dtype) -> int:
    """Bytes of a segment holding ``length`` accesses with ``dtype`` offsets."""
    return length * (np.dtype(dtype).itemsize + 1)


def _segment_arrays(shm, length: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A segment's ``(offset, code)`` arrays: the offsets first, at the
    segment's start (a multiple of their item size), then one code byte
    per access."""
    offset = np.ndarray((length,), dtype=dtype, buffer=shm.buf)
    code = np.ndarray((length,), dtype=np.uint8, buffer=shm.buf, offset=offset.nbytes)
    return offset, code


# ------------------------------------------------- worker-side attach

#: name -> (SharedMemory, (offset, code)) attachments this process made, kept
#: for the life of the process: a persistent pool worker re-serving a
#: mix it has already mapped pays zero transport cost (the mix-affine
#: scheduling payoff).  Workers only ever attach — unlinking is the
#: publishing parent's job.
_ATTACHED: dict[str, tuple[object, tuple[np.ndarray, np.ndarray]]] = {}


def _attach(name: str, length: int, dtype: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(offset, code)`` arrays of a published segment, or ``None``
    when it cannot be attached or is smaller than ``length`` accesses
    of ``dtype`` offsets and codes."""
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[1]
    # Python < 3.13 registers every attach with the resource tracker,
    # which would (wrongly) warn about and unlink the parent-owned
    # segment — and, under the fork start method, the tracker process
    # is *shared* with the parent, so an attach/unregister pair from a
    # worker would erase the parent's own registration.  Suppress the
    # registration for the attach instead (the parent owns cleanup).
    try:
        from multiprocessing import resource_tracker, shared_memory

        register, resource_tracker.register = resource_tracker.register, lambda *a, **k: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register
    except Exception:
        return None
    if shm.size < _segment_nbytes(length, dtype):
        with contextlib.suppress(Exception):
            shm.close()
        return None
    arrays = _segment_arrays(shm, length, dtype)
    _ATTACHED[name] = (shm, arrays)
    return arrays


class ManifestView:
    """Worker-side trace source: manifest items -> attached segments.

    The parent sends ``{trace_key: item}`` manifests with each planned
    run; this view resolves :meth:`trace_for` requests against them,
    attaching segments by name (cached process-wide).  Anything not in
    the manifest — or whose segment cannot be attached — returns
    ``None``, and the caller synthesises the trace live.
    """

    def __init__(self, items: dict[str, dict]) -> None:
        self._items = dict(items)

    def trace_for(
        self,
        spec: BenchmarkSpec | str,
        *,
        llc_lines: int,
        base_line: int,
        seed: int,
        length: int,
    ) -> MaterializedTrace | None:
        if isinstance(spec, str):
            spec = benchmark(spec)
        key = trace_key(spec, llc_lines=llc_lines, base_line=base_line, seed=seed)
        item = self._items.get(key)
        if item is None or item["length"] < length:
            return None
        arrays = _attach(item["shm"], item["length"], item["offset_dtype"])
        if arrays is None:
            return None
        offset, code = arrays
        entry = _Entry(
            code=code,
            offset=offset,
            ctx_of=np.array(item["ctx_of"], dtype=np.int64),
            base_of=np.array(item["base_of"], dtype=np.int64),
            inst_per_mem=item["inst_per_mem"],
            mlp=item["mlp"],
            footprint=item["footprint"],
        )
        return _entry_trace(entry, spec, llc_lines, base_line, seed)


# ------------------------------------------------- active-view plumbing

#: The trace source compute functions consult, set around each run by
#: the experiment engine: the session's TraceStore on the serial path,
#: a ManifestView inside pool workers, None for plain live generation.
_ACTIVE: TraceStore | ManifestView | None = None


def active_view() -> TraceStore | ManifestView | None:
    return _ACTIVE


@contextlib.contextmanager
def use_view(view: TraceStore | ManifestView | None) -> Iterator[None]:
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = view
    try:
        yield
    finally:
        _ACTIVE = prev


# ------------------------------------------------------ leak checking


def shm_residue(prefix: str = SHM_PREFIX) -> list[str]:
    """Names of trace-plane shared-memory segments still in ``/dev/shm``.

    Empty on platforms without a POSIX shm filesystem; the chaos suite
    asserts this is empty after every session lifecycle (normal close,
    interrupt, worker crash).
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    return sorted(p.name for p in shm_dir.iterdir() if p.name.startswith(prefix))
