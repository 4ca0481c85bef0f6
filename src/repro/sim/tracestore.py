"""Materialized trace plane: generate each deterministic trace once,
replay it everywhere as zero-copy array slices.

Every simulation run regenerates its benchmark traces from scratch
(:func:`repro.workloads.speclike.build_trace` + ``TraceGenerator``
chunk synthesis), even though a cold sweep asks for the *same* traces
over and over: every mechanism run of a mix re-synthesises the mix's
eight per-core streams, and a profile way-sweep rebuilds one benchmark
a dozen times.  This module materializes a trace once per
``(benchmark spec, llc_lines, base_line, seed)`` into a flat int64
``(2, length)`` array — row 0 the ctx ids, row 1 the line addresses —
and serves it back through :class:`MaterializedTrace`, which implements
the same ``chunk(n)`` protocol as a live generator but returns
**zero-copy views** into the materialized array.  ``Machine`` and
``fastengine`` are untouched; they cannot tell the difference.

Bit-identity rests on the generator's *chunk-alignment invariance*
(documented in :mod:`repro.sim.trace`): as long as every ``chunk(n)``
request is a multiple of the generator's ``burst_len`` (all practical
quantum/interval sizes are), the emitted stream depends only on the
cumulative position, not on how it was partitioned into chunks.  A
request that breaks alignment (or outruns the materialized length)
drops the trace back to a live generator, fast-forwarded to the exact
position — still bit-identical, just no longer zero-copy.

Storage tiers:

* **memory** — per-:class:`TraceStore` dict of materialized arrays;
* **disk** — mmap-backed ``.npy`` files plus JSON meta under
  ``<REPRO_CACHE_DIR>/tracestore/`` (atomic writes, content-addressed
  names, size-accounted by :meth:`TraceStore.stats`, wiped by
  :meth:`TraceStore.clear` / ``repro cache clear``);
* **shared memory** — the parent experiment process *publishes*
  segments (``multiprocessing.shared_memory``) that persistent pool
  workers attach by name instead of receiving arrays through pickle.
  Segments are parent-owned: the session that created them unlinks
  them on close (normal exit, ``KeyboardInterrupt`` via
  ``weakref.finalize``/atexit, and after worker crashes — a dead
  worker only ever *attached*).

The ``REPRO_TRACE_CACHE`` knob selects the mode: ``off`` disables the
plane entirely (every run synthesises live, the pre-plane behaviour),
``memory`` keeps materialized traces in-process only, and the default
(``1``/``on``/``disk``) adds the on-disk tier.  The trace plane is a
pure transport optimisation and is deliberately **excluded from
experiment cache keys**, exactly like the ``sim_engine`` selection.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.workloads.speclike import BenchmarkSpec, benchmark, build_trace

__all__ = [
    "TRACESTORE_SCHEMA_VERSION",
    "SHM_PREFIX",
    "MaterializedTrace",
    "TraceStore",
    "TraceStoreStats",
    "fallback_count",
    "trace_cache_mode",
    "trace_key",
    "active_view",
    "use_view",
    "ManifestView",
    "shm_residue",
]

#: Bump whenever the materialized layout or the generation recipe
#: changes; old disk entries then miss instead of replaying stale data.
TRACESTORE_SCHEMA_VERSION = 1

#: Prefix of every shared-memory segment the trace plane creates; the
#: leak checks (``repro.platform.faults.verify_no_segment_leaks``, the
#: chaos suite) scan ``/dev/shm`` for it.
SHM_PREFIX = "repro-tr-"

_MODES = ("off", "memory", "disk")


def trace_cache_mode(raw: str | None = None) -> str:
    """Resolve ``REPRO_TRACE_CACHE`` to ``off`` | ``memory`` | ``disk``.

    Unset, ``1``, ``on``, ``auto`` and ``disk`` all mean the full
    plane (memory + disk tiers); ``memory`` skips the disk tier;
    ``0``/``off``/``false``/``no`` disable materialization entirely.
    """
    if raw is None:
        raw = os.environ.get("REPRO_TRACE_CACHE", "")
    norm = raw.strip().lower()
    if norm in ("0", "off", "false", "no"):
        return "off"
    if norm in ("mem", "memory"):
        return "memory"
    if norm in ("", "1", "on", "auto", "disk", "true", "yes"):
        return "disk"
    raise ValueError(
        f"REPRO_TRACE_CACHE must be one of off/memory/disk (or a boolean), got {raw!r}"
    )


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
        "schema": TRACESTORE_SCHEMA_VERSION,
        "spec": asdict(spec),
        "llc_lines": int(llc_lines),
        "base_line": int(base_line),
        "seed": int(seed),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _round_up(n: int, align: int) -> int:
    return -(-int(n) // align) * align


class MaterializedTrace:
    """Replays a materialized ``(ctx, lines)`` array via ``chunk(n)``.

    Serves zero-copy views while every request keeps the cumulative
    position a multiple of ``align`` (the source generator's
    ``burst_len``) and inside the materialized length.  The first
    request that breaks either condition switches to a **live**
    generator built by ``factory`` and fast-forwarded to the current
    position — bit-identical output either way, so callers never need
    to care which side served them.  ``fallbacks`` counts the switch
    (0 or 1); tests pin it at 0 for the standard scales.
    """

    def __init__(
        self,
        ctx: np.ndarray,
        lines: np.ndarray,
        *,
        inst_per_mem: float,
        mlp: float,
        footprint: int,
        factory: Callable[[], object],
        align: int = 32,
    ) -> None:
        if len(ctx) != len(lines):
            raise ValueError("ctx and lines must be equal-length")
        self._ctx = ctx
        self._lines = lines
        self.inst_per_mem = float(inst_per_mem)
        self.mlp = float(mlp)
        self._footprint = int(footprint)
        self._factory = factory
        self._align = int(align)
        self._pos = 0
        self._live = None
        self.fallbacks = 0

    @property
    def length(self) -> int:
        return len(self._ctx)

    @property
    def pos(self) -> int:
        return self._pos

    @property
    def align(self) -> int:
        """Chunk sizes that keep the zero-copy replay exact (the burst length)."""
        return self._align

    def footprint_lines(self) -> int:
        return self._footprint

    def _go_live(self) -> None:
        global _PROCESS_FALLBACKS
        gen = self._factory()
        # All requests so far were align-multiples, so the position is
        # too — one aligned fast-forward call reproduces the internal
        # state any aligned chunk partition would have reached (see the
        # alignment invariance note in repro.sim.trace).
        if self._pos:
            gen.chunk(self._pos)
        self._live = gen
        self.fallbacks += 1
        _PROCESS_FALLBACKS += 1

    def fork(self, pos: int = 0) -> "MaterializedTrace":
        """Cheap clone sharing the materialized arrays, cursor at ``pos``.

        The batch kernel's lane forks: each lane replays the same
        zero-copy arrays through its own cursor.  ``pos`` must be a
        position a zero-copy replay actually reached (lanes are only
        cloned while ``_live is None``), so the clone's state is fully
        described by the cursor.
        """
        t = MaterializedTrace(
            self._ctx,
            self._lines,
            inst_per_mem=self.inst_per_mem,
            mlp=self.mlp,
            footprint=self._footprint,
            factory=self._factory,
            align=self._align,
        )
        t._pos = int(pos)
        return t

    def chunk(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self._live is None:
            if n % self._align == 0 and self._pos + n <= len(self._ctx):
                start, self._pos = self._pos, self._pos + n
                return self._ctx[start : self._pos], self._lines[start : self._pos]
            self._go_live()
        out = self._live.chunk(n)
        self._pos += n
        return out


# Process-wide count of MaterializedTrace zero-copy go-live fallbacks
# (every _go_live adds one).  Surfaced via fallback_count() /
# TraceStoreStats.fallbacks / `repro cache stats` so batch runs can
# assert the whole sweep stayed on the zero-copy path.
_PROCESS_FALLBACKS = 0


def fallback_count() -> int:
    """Zero-copy go-live fallbacks in this process (all traces, all stores)."""
    return _PROCESS_FALLBACKS


@dataclass(frozen=True)
class TraceStoreStats:
    """What a :class:`TraceStore`'s disk tier holds (plus live segments)."""

    root: Path | None
    entries: int
    bytes: int
    shm_segments: int
    shm_bytes: int
    #: process-wide go-live fallbacks at sampling time (see fallback_count)
    fallbacks: int = 0


@dataclass
class _Entry:
    ctx: np.ndarray
    lines: np.ndarray
    inst_per_mem: float
    mlp: float
    footprint: int
    align: int


class TraceStore:
    """Materialized-trace cache: memory tier, optional disk tier, and
    parent-owned shared-memory publication for pool workers.

    ``root`` is the disk-tier directory (conventionally
    ``<cache>/tracestore``); ``None`` keeps everything in memory.
    ``mode`` defaults to :func:`trace_cache_mode` (the
    ``REPRO_TRACE_CACHE`` env knob); a store in ``off`` mode returns
    ``None`` from :meth:`trace_for` so callers fall back to live
    generation.
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(self, root: str | Path | None = None, *, mode: str | None = None) -> None:
        self.mode = trace_cache_mode() if mode is None else mode
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        self.root = Path(root).expanduser() if root is not None and self.mode == "disk" else None
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

    # -- keys & lifecycle --------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

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

    # -- disk tier ----------------------------------------------------

    def _data_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npy"

    def _meta_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _write_disk(self, key: str, stacked: np.ndarray, meta: dict) -> None:
        data_path = self._data_path(key)
        data_path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic like the result cache: a torn .npy must never be
        # visible under its final name.
        fd, tmp = tempfile.mkstemp(dir=data_path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.save(f, stacked)
            os.replace(tmp, data_path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        fd, tmp = tempfile.mkstemp(dir=data_path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(meta, sort_keys=True))
            os.replace(tmp, self._meta_path(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _load_disk(self, key: str, min_length: int) -> _Entry | None:
        if self.root is None:
            return None
        meta_path = self._meta_path(key)
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if meta.get("schema") != TRACESTORE_SCHEMA_VERSION or meta.get("length", 0) < min_length:
            return None
        try:
            stacked = np.load(self._data_path(key), mmap_mode="r")
        except (OSError, ValueError):
            return None
        if stacked.shape != (2, meta["length"]) or stacked.dtype != np.int64:
            return None
        return _Entry(
            ctx=stacked[0],
            lines=stacked[1],
            inst_per_mem=meta["inst_per_mem"],
            mlp=meta["mlp"],
            footprint=meta["footprint"],
            align=meta["align"],
        )

    # -- materialization ---------------------------------------------

    def _entry_for(
        self, spec: BenchmarkSpec, *, llc_lines: int, base_line: int, seed: int, length: int
    ) -> tuple[str, _Entry]:
        key = trace_key(spec, llc_lines=llc_lines, base_line=base_line, seed=seed)
        entry = self._mem.get(key)
        if entry is not None and len(entry.ctx) >= length:
            return key, entry
        entry = self._load_disk(key, length)
        if entry is None:
            gen = build_trace(spec, llc_lines=llc_lines, base_line=base_line, seed=seed)
            n = _round_up(max(length, 1), gen.burst_len)
            ctx, lines = gen.chunk(n)
            stacked = np.stack([ctx, lines])
            entry = _Entry(
                ctx=stacked[0],
                lines=stacked[1],
                inst_per_mem=gen.inst_per_mem,
                mlp=gen.mlp,
                footprint=gen.footprint_lines(),
                align=gen.burst_len,
            )
            if self.root is not None:
                meta = {
                    "schema": TRACESTORE_SCHEMA_VERSION,
                    "bench": spec.name,
                    "length": n,
                    "inst_per_mem": entry.inst_per_mem,
                    "mlp": entry.mlp,
                    "footprint": entry.footprint,
                    "align": entry.align,
                }
                with contextlib.suppress(OSError):
                    self._write_disk(key, stacked, meta)
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
    ) -> MaterializedTrace | None:
        """A replayable trace covering ``length`` accesses, or ``None``
        when the plane is off (caller then builds a live generator)."""
        if not self.enabled:
            return None
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
        (see :class:`ManifestView`).  Returns ``None`` when the plane
        is off or shared memory is unavailable on this platform — the
        worker then falls back to live generation, which is always
        bit-identical.
        """
        if not self.enabled:
            return None
        if isinstance(spec, str):
            spec = benchmark(spec)
        key, entry = self._entry_for(
            spec, llc_lines=llc_lines, base_line=base_line, seed=seed, length=length
        )
        shm = self._shm.get(key)
        nbytes = 2 * len(entry.ctx) * 8
        if shm is None or shm.size < nbytes:
            try:
                from multiprocessing import shared_memory

                # The length rides in the name so a longer publish of
                # the same trace never collides with the (still-live)
                # shorter segment it supersedes.
                fresh = shared_memory.SharedMemory(
                    create=True,
                    size=nbytes,
                    name=f"{SHM_PREFIX}{self._tag}-{key[:16]}-{len(entry.ctx):x}",
                )
            except Exception:
                return None
            view = np.ndarray((2, len(entry.ctx)), dtype=np.int64, buffer=fresh.buf)
            view[0] = entry.ctx
            view[1] = entry.lines
            if shm is not None:  # superseded shorter segment
                with contextlib.suppress(Exception):
                    shm.close()
                with contextlib.suppress(Exception):
                    shm.unlink()
            self._shm[key] = shm = fresh
        return {
            "key": key,
            "shm": shm.name,
            "length": len(entry.ctx),
            "inst_per_mem": entry.inst_per_mem,
            "mlp": entry.mlp,
            "footprint": entry.footprint,
            "align": entry.align,
            "bench": spec.name,
            "llc_lines": int(llc_lines),
            "base_line": int(base_line),
            "seed": int(seed),
        }

    # -- accounting ---------------------------------------------------

    def stats(self) -> TraceStoreStats:
        entries = 0
        total = 0
        if self.root is not None and self.root.is_dir():
            for path in self.root.glob("*/*.npy"):
                entries += 1
                with contextlib.suppress(OSError):
                    total += path.stat().st_size
        elif self.root is None:
            entries = len(self._mem)
            total = sum(2 * len(e.ctx) * 8 for e in self._mem.values())
        shm_bytes = sum(getattr(s, "size", 0) for s in self._shm.values())
        return TraceStoreStats(
            self.root, entries, total, len(self._shm), shm_bytes, fallback_count()
        )

    def clear(self) -> int:
        """Drop the memory tier and every on-disk entry; returns entries removed."""
        removed = len(self._mem)
        self._mem.clear()
        if self.root is not None and self.root.is_dir():
            disk = list(self.root.glob("*/*.npy"))
            removed = max(removed, len(disk))
            for path in disk + list(self.root.glob("*/*.json")):
                path.unlink(missing_ok=True)
        return removed


def _entry_trace(
    entry: _Entry, spec: BenchmarkSpec, llc_lines: int, base_line: int, seed: int
) -> MaterializedTrace:
    def factory():
        return build_trace(spec, llc_lines=llc_lines, base_line=base_line, seed=seed)

    return MaterializedTrace(
        entry.ctx,
        entry.lines,
        inst_per_mem=entry.inst_per_mem,
        mlp=entry.mlp,
        footprint=entry.footprint,
        factory=factory,
        align=entry.align,
    )


# ------------------------------------------------- worker-side attach

#: name -> (SharedMemory, ndarray) attachments this process made, kept
#: for the life of the process: a persistent pool worker re-serving a
#: mix it has already mapped pays zero transport cost (the mix-affine
#: scheduling payoff).  Workers only ever attach — unlinking is the
#: publishing parent's job.
_ATTACHED: dict[str, tuple[object, np.ndarray]] = {}


def _attach(name: str, length: int) -> np.ndarray | None:
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
    if shm.size < 2 * length * 8:
        with contextlib.suppress(Exception):
            shm.close()
        return None
    arr = np.ndarray((2, length), dtype=np.int64, buffer=shm.buf)
    _ATTACHED[name] = (shm, arr)
    return arr


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
        arr = _attach(item["shm"], item["length"])
        if arr is None:
            return None
        entry = _Entry(
            ctx=arr[0],
            lines=arr[1],
            inst_per_mem=item["inst_per_mem"],
            mlp=item["mlp"],
            footprint=item["footprint"],
            align=item["align"],
        )
        return _entry_trace(entry, spec, llc_lines, base_line, seed)


# ------------------------------------------------- active-view plumbing

#: The trace source compute functions consult, set around each run by
#: the experiment engine: the session's TraceStore on the serial path,
#: a ManifestView inside pool workers, None when the plane is off.
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
