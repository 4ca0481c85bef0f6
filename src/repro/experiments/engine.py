"""Parallel experiment engine with an on-disk result cache.

Every paper figure re-runs dozens of (workload x mechanism)
simulations; the runs are embarrassingly parallel and perfectly
deterministic, so the engine treats each one as a pure function of its
inputs:

* a declarative :class:`RunSpec` expands into a **deduplicated** list
  of :class:`PlannedRun` items (mechanism runs, alone-IPC runs and
  single-benchmark profiles share one plan and one store);
* each planned run hashes its inputs — mix, mechanism,
  :meth:`ScaleConfig.cache_key`, :class:`MachineParams`, engine schema
  version — into a content-addressed key;
* :class:`ExperimentSession` executes cache misses either serially or
  across a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``max_workers``; the pool half lives in :mod:`repro.experiments.pool`),
  persists payloads in a :class:`ResultCache`, and emits per-run
  :class:`RunRecord` timing/progress entries.

A plan whose every key hits replays without importing the simulator,
the controller or the pool: those load inside the functions that
compute, at the first miss (``docs/experiment_engine.md``, "Import
layering").

Seeding is per-run (``mix.seed + core`` for traces, fixed seeds for
alone/profile runs) and no state is shared between runs, so parallel
results are bit-identical to serial ones; cached payloads round-trip
through JSON without losing a single bit of the float64 counters.

Failures degrade instead of aborting: a worker that raises, hangs past
``run_timeout``, or kills its process (``BrokenProcessPool``) costs
only its own run — completed results are already persisted, unfinished
runs are re-submitted to a respawned pool, and the failure is reported
per-run (:attr:`RunRecord.error`) rather than thrown away with the
whole sweep.  See ``docs/robustness.md``.

The **trace plane** (:mod:`repro.sim.tracestore`) rides underneath:
each session owns a :class:`~repro.sim.tracestore.TraceStore` that
materializes every deterministic benchmark trace once, in a compact
layout, and replays it chunk by chunk.  The worker pool is *persistent* across batches;
misses are submitted in mix-affine order and each run carries a small
manifest naming the shared-memory segments holding its traces, so
workers attach by name instead of unpickling arrays (and keep their
attachments for later runs of the same mix).  The plane lives in
memory only and is a pure transport optimisation — results are
bit-identical to live generation, and it is excluded from cache keys
like the simulation engine choice.

Environment knobs: ``REPRO_CACHE_DIR`` relocates the on-disk result
store (default ``~/.cache/repro``), ``REPRO_WORKERS`` sets the default
worker count (clamped to the CPU count), ``REPRO_RUN_TIMEOUT`` sets
the default per-run timeout in seconds.  See
``docs/experiment_engine.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
import warnings
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.core.policies import POLICIES, make_policy
from repro.core.runstats import RunStats
from repro.core.trace import (
    TRACE_SCHEMA_VERSION,
    EpochTrace,
    TraceSchemaError,
    traces_from_dicts,
)
from repro.experiments.config import ScaleConfig, get_scale, key_inputs
from repro.experiments.runner import (
    RunResult,
    WorkloadEval,
    build_machine,
    drive_mechanism,
    mechanism_payload,
)
from repro.metrics.speedup import harmonic_speedup, weighted_speedup, worst_case_speedup
from repro.sim import tracestore
from repro.sim.engines import ENGINE_BATCH, EngineSpec, resolve_engine
from repro.workloads.mixes import CATEGORIES, WorkloadMix, make_mixes
from repro.workloads.speclike import BENCHMARKS

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.workloads.classify import AloneProfile

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentError",
    "PlannedRun",
    "ResultCache",
    "CacheStats",
    "RunRecord",
    "RunSpec",
    "ExperimentSession",
    "default_cache_dir",
    "default_workers",
    "default_run_timeout",
    "default_session",
    "set_default_session",
    "run",
]

#: Bump whenever simulator output for identical inputs changes; stale
#: cache entries then miss instead of replaying outdated results.
SCHEMA_VERSION = 1

KIND_MECHANISM = "mechanism"
KIND_ALONE = "alone"
KIND_PROFILE = "profile"


# --------------------------------------------------------------- defaults


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def _clamp_workers(n: int, source: str) -> int:
    """Clamp a worker count to the CPU count, warning when it was absurd.

    Oversubscribing the pool only adds context-switch overhead and
    memory pressure — it can never make the sweep faster.
    """
    cpus = os.cpu_count() or 1
    if n > cpus:
        warnings.warn(
            f"{source}={n} exceeds the {cpus} available CPUs; clamping to {cpus}",
            RuntimeWarning,
            stacklevel=3,
        )
        return cpus
    return n


def default_workers() -> int:
    """``$REPRO_WORKERS`` (clamped to the CPU count) or one worker per
    CPU (capped at 8)."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            n = max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
        return _clamp_workers(n, "REPRO_WORKERS")
    return max(1, min(8, os.cpu_count() or 1))


def default_run_timeout() -> float | None:
    """``$REPRO_RUN_TIMEOUT`` in seconds, or ``None`` (no timeout)."""
    env = os.environ.get("REPRO_RUN_TIMEOUT")
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        raise ValueError(f"REPRO_RUN_TIMEOUT must be a number of seconds, got {env!r}") from None
    if value <= 0:
        raise ValueError(f"REPRO_RUN_TIMEOUT must be positive, got {value}")
    return value


# ------------------------------------------------------------------ keys


def _hash_payload(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _params_suffix(params: tuple) -> str:
    """``"[partition_factor=0.5]"`` for a run's params, ``""`` for none."""
    return f"[{','.join(f'{k}={v}' for k, v in params)}]" if params else ""


@dataclass(frozen=True)
class PlannedRun:
    """One deduplicatable unit of simulation work.

    ``params`` are a mechanism run's policy constructor overrides: a
    mapping, pairs or ``None``, kept as ``(name, value)`` pairs sorted by name.
    Runs compare by their JSON text (``params_json``), as they are keyed:
    ``1 == 1.0 == True`` in Python, but the three key apart.
    """

    kind: str
    sc: ScaleConfig
    mix: WorkloadMix | None = None
    mechanism: str | None = None
    params: tuple[tuple[str, bool | int | float | str], ...] = field(default=(), compare=False)
    bench: str | None = None
    way_sweep: tuple[int, ...] | None = None
    params_json: str = field(default="", init=False, repr=False)

    def __post_init__(self) -> None:
        # Bad input is not a worker fault: fail eagerly instead of
        # letting the failure-handling machinery report a failed run.
        if self.kind not in (KIND_MECHANISM, KIND_ALONE, KIND_PROFILE):
            raise ValueError(f"unknown run kind {self.kind!r}")
        if self.kind == KIND_MECHANISM and self.mechanism not in POLICIES:
            raise KeyError(f"unknown policy {self.mechanism!r}; one of {sorted(POLICIES)}")
        # Ways above the LLC's are legal (``swept_ways`` drops them).
        if self.way_sweep and min(self.way_sweep) < 1:
            raise ValueError(f"way_sweep entries must be >= 1, got {list(self.way_sweep)}")
        if self.params:
            self._check_params()
        else:  # None or an empty mapping: no overrides
            object.__setattr__(self, "params", ())

    def _check_params(self) -> None:
        if self.kind != KIND_MECHANISM:
            raise ValueError(f"params apply to mechanism runs only, not {self.kind!r} runs")
        params = dict(self.params)
        if not all(type(k) is str and type(v) in (bool, int, float, str) for k, v in params.items()):
            raise TypeError(f"params map names to bool/int/float/str values, got {params!r}")
        # The constructor refuses an unknown keyword, a bad value or
        # a clash with a positional argument (cmm-*'s variant).
        make_policy(self.mechanism, **params)
        object.__setattr__(self, "params", tuple(sorted(params.items())))
        object.__setattr__(self, "params_json", json.dumps(params, sort_keys=True))

    @property
    def label(self) -> str:
        if self.kind == KIND_MECHANISM:
            return f"{self.mix.name}/{self.mechanism}{_params_suffix(self.params)}"
        if self.kind == KIND_ALONE:
            return f"alone/{self.bench}"
        return f"profile/{self.bench}" + ("+ways" if self.way_sweep else "")

    def key_payload(self) -> dict:
        """Everything the simulated outcome depends on.

        The simulation engine and the trace plane are not inputs: both
        are differential-tested bit-identical (tests/sim/test_fast_engine.py,
        tests/experiments/test_trace_plane.py), so cached results stay
        valid across engine choices and default changes.  ``scale`` and
        ``machine`` are the shared dicts of :func:`key_inputs`: read-only.
        """
        scale, machine = key_inputs(self.sc)
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "scale": scale,
            "machine": machine,
        }
        if self.kind == KIND_MECHANISM:
            payload["mix"] = {
                "benchmarks": list(self.mix.benchmarks),
                "seed": self.mix.seed,
            }
            payload["mechanism"] = self.mechanism
            if self.params:
                payload["params"] = dict(self.params)
        elif self.kind == KIND_ALONE:
            payload["bench"] = self.bench
        else:  # KIND_PROFILE
            payload["bench"] = self.bench
            payload["way_sweep"] = list(self.way_sweep) if self.way_sweep else None
        return payload

    def key(self) -> str:
        """The content key: derived once per distinct run value per process."""
        return _run_key(self)


@lru_cache(maxsize=16384)  # far above any sweep's distinct runs
def _run_key(run: PlannedRun) -> str:
    """``key()``'s memo, keyed by the run's value (the ``key_inputs`` idiom
    one level up): equal runs rebuilt independently, or decoded from the
    wire, share one derivation.  Sound while equal fields serialise alike,
    i.e. fields hold their declared types (``run_from_wire`` enforces it)."""
    return _hash_payload(run.key_payload())


# ----------------------------------------------------------- computation
#
# Top-level functions so planned runs pickle cleanly into pool workers.
# The simulator, controller and platform load inside them (through
# ``runner`` and ``classify``), at the first miss: a replay that hits
# every key never imports them.


def _compute_mechanism(run: PlannedRun, engine: str | None) -> dict:
    machine = build_machine(run.mix, run.sc, trace_store=tracestore.active_view(), engine=engine)
    return mechanism_payload(drive_mechanism(machine, run.mechanism, run.sc, run.params))


def _compute_alone(run: PlannedRun, engine: str | None) -> dict:
    from repro.workloads.classify import run_alone

    sc = run.sc
    m, snap = run_alone(
        run.bench, sc.params(), sc.alone_accesses, quantum=sc.quantum,
        warmup=sc.alone_accesses, trace_store=tracestore.active_view(), engine=engine,
    )
    return {"ipc": m.pmu.delta_since(snap).ipc(0)}


def _compute_profile(run: PlannedRun, engine: str | None) -> dict:
    from repro.workloads.classify import profile_benchmark

    sc = run.sc
    return _profile_payload(profile_benchmark(
        run.bench, sc.params(), sc.profile_accesses, way_sweep=run.way_sweep,
        trace_store=tracestore.active_view(), engine=engine,
    ))


def _profile_payload(prof: AloneProfile) -> dict:
    return {
        "name": prof.name,
        "ipc_on": prof.ipc_on,
        "ipc_off": prof.ipc_off,
        "demand_bw_off_mbs": prof.demand_bw_off_mbs,
        "total_bw_on_mbs": prof.total_bw_on_mbs,
        "demand_bw_on_mbs": prof.demand_bw_on_mbs,
        "ipc_by_ways": {str(w): ipc for w, ipc in prof.ipc_by_ways.items()},
    }


_COMPUTE: dict[str, Callable[[PlannedRun, str | None], dict]] = {
    KIND_MECHANISM: _compute_mechanism,
    KIND_ALONE: _compute_alone,
    KIND_PROFILE: _compute_profile,
}


def _execute_planned(run: PlannedRun, traces=None, engine: str | None = None) -> tuple[dict, float]:
    """Worker entry point: compute one payload, report wall seconds.

    ``traces`` is the run's trace source: the session's
    :class:`~repro.sim.tracestore.TraceStore` on the serial path, a
    shared-memory *manifest* dict (turned into a
    :class:`~repro.sim.tracestore.ManifestView` here, inside the
    worker) on the pool path, or ``None`` for plain live generation.
    ``engine`` is the simulation engine the run's machines use (the
    session's resolved engine; ``None`` resolves as a bare ``Machine``).
    """
    if isinstance(traces, dict):
        traces = tracestore.ManifestView(traces)
    t0 = time.perf_counter()
    with tracestore.use_view(traces):
        payload = _COMPUTE[run.kind](run, engine)
    return payload, time.perf_counter() - t0


def _rehydrate_stats(payload: dict, traces: list[EpochTrace] | None = None) -> RunStats:
    # Cached replays carry the accumulated PMU totals (all metrics) and
    # the structured decision traces, but not raw per-epoch samples.
    return RunStats(
        n_cores=payload["n_cores"],
        cycles_per_second=payload["cycles_per_second"],
        totals=np.asarray(payload["totals"], dtype=float),
        wall_cycles=payload["wall_cycles"],
        epochs=[],
        traces=traces or [],
    )


def _cache_record(r: PlannedRun, payload: dict, secs: float) -> dict:
    """The :class:`ResultCache` entry for one computed run."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": r.kind,
        "label": r.label,
        "scale": r.sc.name,
        "inputs": r.key_payload(),
        "seconds": secs,
        "payload": payload,
    }


def _rehydrate_profile(payload: dict) -> AloneProfile:
    from repro.workloads.classify import AloneProfile

    # Ways in numeric order: a payload replayed from disk has its keys in
    # JSON's sorted string order ("12" < "2"), a fresh one in sweep order.
    ways = sorted((int(w), ipc) for w, ipc in payload["ipc_by_ways"].items())
    return AloneProfile(
        name=payload["name"],
        ipc_on=payload["ipc_on"],
        ipc_off=payload["ipc_off"],
        demand_bw_off_mbs=payload["demand_bw_off_mbs"],
        total_bw_on_mbs=payload["total_bw_on_mbs"],
        demand_bw_on_mbs=payload["demand_bw_on_mbs"],
        ipc_by_ways=dict(ways),
    )


# ------------------------------------------------------------------ cache


@dataclass(frozen=True)
class CacheStats:
    """Summary of what a :class:`ResultCache` holds on disk."""

    root: Path | None
    entries: int
    bytes: int
    by_kind: dict[str, int]
    corrupt: int = 0


class ResultCache:
    """Content-addressed result store: memory tier over an optional disk tier.

    Entries live at ``<root>/<key[:2]>/<key>.json``; ``root=None`` keeps
    the cache purely in-memory (one process).  Writes are atomic — a
    uniquely named temp file in the entry's directory followed by
    ``os.replace`` — so neither an interrupted sweep nor two concurrent
    sessions writing the same key can leave (or observe) a torn entry.

    An entry that is not a UTF-8 JSON object (torn write, stray bytes,
    a list or ``null``) is *quarantined*: renamed to ``<key>.corrupt``
    next to where it lived (so it can be inspected) and counted in
    :attr:`corrupt` / :attr:`CacheStats.corrupt` instead of being
    silently re-missed forever.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None else None
        self._mem: dict[str, dict] = {}
        self._mem_traces: dict[str, list[dict]] = {}
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._warned_corrupt = False

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _traces_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.traces.json"

    def _quarantine(self, path: Path) -> None:
        with contextlib.suppress(OSError):
            os.replace(path, path.with_suffix(".corrupt"))
        self.corrupt += 1
        if not self._warned_corrupt:
            self._warned_corrupt = True
            warnings.warn(
                f"quarantined corrupt cache entry {path.name} to *.corrupt "
                "(further corrupt entries this session are quarantined silently; "
                "see `repro cache stats`)",
                RuntimeWarning,
                stacklevel=4,
            )

    def _read_entry(self, path: Path) -> dict | None:
        """Parse one on-disk entry, quarantining it unless it is a JSON object."""
        try:
            rec = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:  # torn JSON or not UTF-8
            rec = None
        if not isinstance(rec, dict):
            self._quarantine(path)
            return None
        return rec

    def get(self, key: str) -> dict | None:
        rec = self._mem.get(key)
        if rec is None and self.root is not None:
            path = self._path(key)
            if path.is_file():
                rec = self._read_entry(path)
                if rec is not None and rec.get("schema") != SCHEMA_VERSION:
                    rec = None
                if rec is not None:
                    self._mem[key] = rec
        if rec is None:
            self.misses += 1
            return None
        self.hits += 1
        return rec

    def resident(self, key: str) -> dict | None:
        """The record for ``key`` if the memory tier holds it, else ``None``.

        One dict read: never touches the disk and counts neither a hit
        nor a miss, so it is safe on an event loop while another thread
        fills the cache.
        """
        return self._mem.get(key)

    def put(self, key: str, record: dict) -> None:
        self._mem[key] = record
        if self.root is None:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(record, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def put_traces(self, key: str, traces: list[dict]) -> None:
        """Persist one run's decision traces *beside* its result entry.

        Traces live in their own ``<key>.traces.json`` (own schema
        version) so result payloads, cache keys, and every existing
        entry stay byte-identical whether tracing is on or off.
        """
        self._mem_traces[key] = traces
        if self.root is None:
            return
        path = self._traces_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"schema": TRACE_SCHEMA_VERSION, "traces": traces}
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(record, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def get_traces(self, key: str) -> list[dict] | None:
        """The stored trace records for ``key``, or ``None``.

        ``None`` also covers records written under a different trace
        schema, and sidecars that are not a UTF-8 JSON object — callers
        should recompute rather than misread them.
        """
        recs = self._mem_traces.get(key)
        if recs is None and self.root is not None:
            path = self._traces_path(key)
            if path.is_file():
                try:
                    stored = json.loads(path.read_text())
                except (ValueError, OSError):
                    return None
                if not isinstance(stored, dict) or stored.get("schema") != TRACE_SCHEMA_VERSION:
                    return None
                recs = stored.get("traces")
                if recs is not None:
                    self._mem_traces[key] = recs
        return recs

    def __contains__(self, key: str) -> bool:
        if key in self._mem:
            return True
        return self.root is not None and self._path(key).is_file()

    def _disk_entries(self) -> list[Path]:
        if self.root is None or not self.root.is_dir():
            return []
        # Trace sidecars are not result entries.
        return sorted(p for p in self.root.glob("*/*.json") if not p.name.endswith(".traces.json"))

    def _disk_traces(self) -> list[Path]:
        if self.root is None or not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.traces.json"))

    def _corrupt_entries(self) -> list[Path]:
        if self.root is None or not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.corrupt"))

    def stats(self) -> CacheStats:
        by_kind: dict[str, int] = {}
        total = 0
        n_entries = 0
        for path in self._disk_entries():
            size = path.stat().st_size
            rec = self._read_entry(path)
            if rec is None and not path.is_file():
                continue  # just quarantined — not an entry any more
            n_entries += 1
            total += size
            kind = rec.get("kind", "?") if rec is not None else "?"
            by_kind[kind] = by_kind.get(kind, 0) + 1
        if self.root is None:
            for rec in self._mem.values():
                by_kind[rec.get("kind", "?")] = by_kind.get(rec.get("kind", "?"), 0) + 1
            return CacheStats(None, len(self._mem), 0, by_kind)
        return CacheStats(self.root, n_entries, total, by_kind, len(self._corrupt_entries()))

    def clear(self) -> int:
        """Drop every entry (memory, disk, quarantine); returns entries removed.

        Trace sidecars are deleted along with their entries but are not
        counted — they are derived observability, not results.
        """
        removed = len(self._mem)
        self._mem.clear()
        self._mem_traces.clear()
        disk = self._disk_entries() + self._corrupt_entries()
        for path in disk + self._disk_traces():
            path.unlink(missing_ok=True)
        return max(removed, len(disk))


# ------------------------------------------------------------------- spec


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of a sweep: mixes x mechanisms x scale.

    ``mixes`` (explicit workloads) beats ``categories`` (generated per
    the scale's ``workloads_per_category`` and seed).  ``seeds`` adds a
    seed axis: the categories' mixes are generated once per listed seed
    (default: the scale's seed only), giving multi-seed sweeps distinct
    content keys per seed while alone/profile runs — seed-independent —
    still deduplicate across the whole plan.  ``expand`` returns a
    deduplicated plan: shared baselines and alone runs appear once no
    matter how many mechanisms, mixes or seeds need them.
    """

    mechanisms: tuple[str, ...] = ("cmm-a",)
    categories: tuple[str, ...] = CATEGORIES
    workloads_per_category: int | None = None
    mixes: tuple[WorkloadMix, ...] | None = None
    seeds: tuple[int, ...] | None = None
    include_baseline: bool = True
    include_alone: bool = True

    def resolve_mixes(self, sc: ScaleConfig) -> list[WorkloadMix]:
        if self.mixes is not None:
            if self.seeds is not None:
                raise ValueError("seeds applies to generated mixes; drop it or drop mixes")
            return list(self.mixes)
        count = self.workloads_per_category or sc.workloads_per_category
        seeds = self.seeds if self.seeds is not None else (sc.seed,)
        out: list[WorkloadMix] = []
        for seed in seeds:
            for cat in self.categories:
                out.extend(make_mixes(cat, count, seed=seed))
        return out

    def expand(self, sc: ScaleConfig | None = None) -> list[PlannedRun]:
        sc = sc or get_scale()
        mixes = self.resolve_mixes(sc)
        plan: list[PlannedRun] = []
        if self.include_alone:
            benches = dict.fromkeys(b for mix in mixes for b in mix.benchmarks)
            plan += [PlannedRun(KIND_ALONE, sc, bench=b) for b in benches]
        mechs = tuple(dict.fromkeys(self.mechanisms))
        if self.include_baseline and "baseline" not in mechs:
            mechs = ("baseline",) + mechs
        for mix in mixes:
            plan += [PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism=m) for m in mechs]
        return plan


@dataclass(frozen=True)
class RunRecord:
    """Timing/progress record for one executed (or replayed) run.

    ``error`` is ``None`` for a successful run; otherwise it describes
    why the run failed (worker exception, timeout, broken pool).
    """

    key: str
    kind: str
    label: str
    scale: str
    seconds: float
    cached: bool
    error: str | None = None


class ExperimentError(RuntimeError):
    """One or more planned runs failed; carries the per-run errors."""

    def __init__(self, errors: dict[str, str]) -> None:
        self.errors = dict(errors)
        preview = "; ".join(list(self.errors.values())[:3])
        more = "" if len(self.errors) <= 3 else f" (+{len(self.errors) - 3} more)"
        super().__init__(f"{len(self.errors)} experiment run(s) failed: {preview}{more}")


# ---------------------------------------------------------------- session


class ExperimentSession:
    """Owns a result cache and a worker pool; the one way to run things.

    Parameters
    ----------
    scale:
        Default :class:`ScaleConfig` for calls that omit one
        (falls back to :func:`get_scale`).
    cache:
        An explicit :class:`ResultCache` (dependency injection point).
    cache_dir:
        Where to persist results when no ``cache`` is given; defaults
        to :func:`default_cache_dir`, ``None`` keeps results in memory.
    max_workers:
        Process-pool width for cache misses; ``1`` runs serially.
        Defaults to :func:`default_workers` (``$REPRO_WORKERS``);
        values above the CPU count are clamped with a warning.
    progress:
        Optional callback ``(record, done, total)`` fired once per run
        as a batch executes.
    run_timeout:
        Per-run wall-clock budget in seconds for pool execution; a run
        exceeding it is reported failed and its (possibly hung) worker
        abandoned.  ``None`` (the default, or ``$REPRO_RUN_TIMEOUT``)
        disables timeouts.  Not enforced on the serial path.
    run_retries:
        Extra attempts for a run whose worker raised (timeouts are not
        retried — a hang is assumed deterministic).
    pool_respawns:
        Broken/hung pools tolerated per batch before the remaining runs
        execute one-at-a-time in an isolation pool (which attributes
        crashes to the run that caused them).
    mp_context:
        Optional ``multiprocessing`` context for the pools.
    trace_cache:
        Accepts only ``None`` or ``"memory"``: the session's
        :class:`~repro.sim.tracestore.TraceStore` always lives in
        memory.  Removed once the benchmark harness stops passing it
        (ROADMAP item 1).
    engine:
        Simulation-engine name for this session's runs, resolved
        through :func:`repro.sim.engines.resolve_engine` (explicit
        argument beats ``$REPRO_SIM_ENGINE`` beats ``batch``).  The
        default, the batch engine, runs serial mix-affine mechanism
        groups through one shared
        :class:`~repro.sim.batch.BatchKernel`; results are bit-identical
        to per-run execution, and the engine name never enters result
        cache keys.  Naming a non-batched engine (``fast``,
        ``reference``) disables group dispatch; every run the session
        simulates on its own machine uses the named engine.
    """

    _UNSET = object()

    def __init__(
        self,
        *,
        scale: ScaleConfig | None = None,
        cache: ResultCache | None = None,
        cache_dir: str | Path | None = _UNSET,
        max_workers: int | None = None,
        progress: Callable[[RunRecord, int, int], None] | None = None,
        run_timeout: float | None = None,
        run_retries: int = 1,
        pool_respawns: int = 2,
        mp_context=None,
        trace_cache: str | None = None,
        engine: str | None = None,
    ) -> None:
        # Legacy one-valued argument, removed with ROADMAP item 1.
        if trace_cache not in (None, "memory"):
            raise ValueError(f"trace_cache must be None or 'memory', got {trace_cache!r}")
        if cache is None:
            root = default_cache_dir() if cache_dir is self._UNSET else cache_dir
            cache = ResultCache(root)
        self.scale = scale
        self.cache = cache
        self.engine = engine
        self._resolved_engine()  # EngineSelectionError on an unknown name
        if max_workers is None:
            self.max_workers = default_workers()
        else:
            if max_workers < 1:
                raise ValueError("max_workers must be >= 1")
            self.max_workers = _clamp_workers(max_workers, "max_workers")
        if run_retries < 0 or pool_respawns < 0:
            raise ValueError("run_retries and pool_respawns must be non-negative")
        self.run_timeout = run_timeout if run_timeout is not None else default_run_timeout()
        self.run_retries = run_retries
        self.pool_respawns = pool_respawns
        self.mp_context = mp_context
        self.progress = progress
        self.records: list[RunRecord] = []
        #: key -> error message for runs that failed this session; kept
        #: so later calls (e.g. per-mix evaluate after a sweep) report
        #: the failure instead of re-executing a known-bad run.
        self.failed: dict[str, str] = {}
        self.trace_store = tracestore.TraceStore()
        #: The persistent batch pool and the single-worker isolation
        #: pool, held in a plain dict so the exit finalizer can shut
        #: them down without keeping the session alive.
        self._pools: dict[str, ProcessPoolExecutor | None] = {"batch": None, "iso": None}
        self._pool_width = 0
        self._pools_finalizer = weakref.finalize(
            self, ExperimentSession._shutdown_pools, self._pools
        )

    # -- lifecycle ---------------------------------------------------

    @staticmethod
    def _shutdown_pools(pools: dict[str, ProcessPoolExecutor | None]) -> None:
        for name, pool in list(pools.items()):
            pools[name] = None
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut down the worker pools and unlink every published
        shared-memory segment.  Idempotent; also runs automatically at
        interpreter exit (including ``KeyboardInterrupt``) via
        ``weakref.finalize``, so abandoned sessions never leak
        ``/dev/shm`` residue."""
        self._pools_finalizer()
        self.trace_store.close()

    def __enter__(self) -> "ExperimentSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------

    def _resolve(self, sc: ScaleConfig | None) -> ScaleConfig:
        return sc or self.scale or get_scale()

    def _note(self, record: RunRecord, done: int, total: int) -> None:
        self.records.append(record)
        if self.progress is not None:
            self.progress(record, done, total)

    def execute(
        self,
        runs: Iterable[PlannedRun],
        *,
        strict: bool = True,
        resume=None,
    ) -> dict[str, dict]:
        """Run a plan; returns ``{key: payload}`` for every completed run.

        Duplicates collapse on their content key, cache hits replay
        from the store, and misses execute serially or across the
        process pool — results are identical either way.

        A run whose worker raises, hangs past ``run_timeout``, or dies
        with its pool costs only itself: completed results are already
        persisted, unfinished runs are re-submitted to a respawned
        pool, and the failure is recorded per-run
        (:attr:`RunRecord.error`, :attr:`failed`).  With ``strict``
        (the default) an :class:`ExperimentError` listing the failures
        is raised *after* everything runnable has run; ``strict=False``
        just omits the failed keys from the result.

        ``resume`` replays a killed sweep from its crash-consistent
        journal: pass a :class:`~repro.service.journal.SweepJournal`
        (or a path to one) and the journal's whole plan joins ``runs``
        — completed keys replay from the cache, pending keys execute,
        and every outcome is journaled (started/finished/failed, with
        batch-boundary fsyncs).  The journal is sealed once nothing is
        pending.  Replayed sweeps are bit-identical to uninterrupted
        ones (``tests/service/test_journal.py``).
        """
        journal = None
        if resume is not None:
            from repro.service.journal import SweepJournal
            from repro.service.protocol import run_from_wire

            journal = resume if isinstance(resume, SweepJournal) else SweepJournal.load(resume)
            runs = list(runs) + [run_from_wire(spec) for spec in journal.plan.values()]
        ordered: dict[str, PlannedRun] = {}
        for r in runs:
            ordered.setdefault(r.key(), r)
        total = len(ordered)
        journaled_finished = journal.finished_keys() if journal is not None else set()
        out: dict[str, dict] = {}
        errors: dict[str, str] = {}
        misses: list[tuple[str, PlannedRun]] = []
        done = 0
        for key, r in ordered.items():
            if key in self.failed:
                done += 1
                errors[key] = self.failed[key]
                self._note(
                    RunRecord(key, r.kind, r.label, r.sc.name, 0.0, cached=False,
                              error=self.failed[key]),
                    done, total,
                )
                continue
            rec = self.cache.get(key)
            if rec is not None:
                out[key] = rec["payload"]
                done += 1
                self._note(RunRecord(key, r.kind, r.label, r.sc.name, 0.0, cached=True), done, total)
                if journal is not None and key in journal.plan \
                        and key not in journaled_finished:
                    # The crash may have landed the cache write but not
                    # the journal event; reconcile on replay.
                    journal.record_finished(key)
            else:
                misses.append((key, r))

        if journal is not None:
            # Write-ahead: the dispatch set is durable before compute.
            for key, _r in misses:
                if key in journal.plan:
                    journal.record_started(key)
            journal.flush()

        def finish(key: str, r: PlannedRun, payload: dict, secs: float, answered=()) -> None:
            """Persist and report one run.  ``answered`` are ``(run,
            payload)`` pairs the same computation also produced (a
            profile's on-pass answers its benchmark's alone run); each
            is stored under its own key unless already cached."""
            nonlocal done
            # Decision traces are persisted beside the entry, never in
            # it: the stored payload stays byte-identical to pre-trace
            # versions and the content key is untouched.
            traces = payload.pop("traces", None)
            if traces is not None:
                self.cache.put_traces(key, traces)
            self.cache.put(key, _cache_record(r, payload, secs))
            for extra, extra_payload in answered:
                extra_key = extra.key()
                if extra_key not in self.cache:
                    self.cache.put(extra_key, _cache_record(extra, extra_payload, 0.0))
            out[key] = payload
            done += 1
            self._note(RunRecord(key, r.kind, r.label, r.sc.name, secs, cached=False), done, total)
            if journal is not None and key in journal.plan:
                journal.record_finished(key)

        def fail(key: str, r: PlannedRun, err: BaseException | str) -> None:
            nonlocal done
            msg = f"{r.label}: {err}" if not isinstance(err, str) else err
            errors[key] = msg
            self.failed[key] = msg
            done += 1
            self._note(
                RunRecord(key, r.kind, r.label, r.sc.name, 0.0, cached=False, error=msg),
                done, total,
            )
            if journal is not None and key in journal.plan:
                journal.record_failed(key, msg)

        if len(misses) > 1 and self.max_workers > 1:
            from repro.experiments import pool

            pool.execute_parallel(self, misses, finish, fail)
        elif misses:
            self._execute_serial(misses, finish, fail)
        if journal is not None:
            if not journal.pending_keys():
                journal.seal()
            if journal is resume:
                journal.flush()
            else:
                journal.close()  # loaded here from a path
        if errors and strict:
            raise ExperimentError(errors)
        return out

    def _resolved_engine(self) -> EngineSpec:
        """This session's engine (explicit > env > batch).

        Sessions default to the batch engine — unlike a bare
        :class:`~repro.sim.machine.Machine`, a session sees whole plans
        and can group mix-affine runs — so setting ``$REPRO_SIM_ENGINE``
        (or ``engine=``) to a scalar engine is the off switch.
        """
        return resolve_engine(self.engine, ENGINE_BATCH)

    def _execute_batched(self, misses, finish):
        """Dispatch batchable groups; return leftover misses.

        Two group shapes, payloads byte-identical to the per-run path:

        * >= 2 mechanism misses sharing a mix and a scale (by value, so
          runs differing only in params share a group) run through one
          shared batch kernel
          (:func:`repro.experiments.batch.compute_mechanism_group`);
        * every profile and alone miss of one scale runs on the
          single-core plane
          (:func:`repro.experiments.batch.compute_single_core_group`),
          which also answers each profiled benchmark's alone run.

        Any failure returns the whole group to the scalar loop, which
        retains the retry semantics, and counts a degradation.
        """
        if not self._resolved_engine().batched:
            return misses
        from repro.experiments.batch import compute_mechanism_group, compute_single_core_group
        from repro.sim.batch import note_degradation

        groups: dict[tuple, list[tuple[str, PlannedRun]]] = {}
        for key, r in misses:
            if r.kind == KIND_MECHANISM:
                g = ("mix", r.mix, r.sc)
            else:
                g = ("single-core", r.sc)
            groups.setdefault(g, []).append((key, r))
        remaining: list[tuple[str, PlannedRun]] = []
        for (shape, *_), grp in groups.items():
            runs = [r for _, r in grp]
            try:
                if shape == "single-core":
                    rows = compute_single_core_group(runs, self.trace_store)
                elif len(grp) >= 2:
                    rows = [(p, s, ()) for p, s in compute_mechanism_group(runs, self.trace_store)]
                else:  # a lone mechanism miss has no group to share
                    remaining.extend(grp)
                    continue
            except Exception:
                note_degradation()
                remaining.extend(grp)
                continue
            for (key, r), (payload, secs, answered) in zip(grp, rows):
                finish(key, r, payload, secs, answered)
        return remaining

    def _execute_serial(self, misses, finish, fail) -> None:
        engine = self._resolved_engine().name
        for key, r in self._execute_batched(misses, finish):
            err: BaseException | None = None
            for _attempt in range(self.run_retries + 1):
                try:
                    payload, secs = _execute_planned(r, self.trace_store, engine)
                except Exception as e:
                    err = e
                else:
                    finish(key, r, payload, secs)
                    err = None
                    break
            if err is not None:
                fail(key, r, err)

    # -- single runs -------------------------------------------------

    def run(
        self,
        mix: WorkloadMix,
        mechanism: str,
        sc: ScaleConfig | None = None,
        *,
        params=None,
        label: str | None = None,
    ) -> RunResult:
        """Run one workload under a named mechanism; cached like any plan.

        ``params`` are the policy's constructor overrides (a mapping,
        e.g. ``{"partition_factor": 1.0}``); they are part of the run's
        content key.  A different sampling interval is a different
        scale: ``dataclasses.replace(sc, sample_units=...)``.
        """
        if not isinstance(mechanism, str):
            raise TypeError(f"run() takes a mechanism name, not a {type(mechanism).__name__}; "
                            "pass the policy's constructor overrides as params=")
        sc = self._resolve(sc)
        planned = PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism=mechanism, params=params)
        key = planned.key()
        payload = self.execute([planned])[key]
        label = label or mechanism + _params_suffix(planned.params)
        return RunResult(mix, label, _rehydrate_stats(payload, self._load_traces(key)))

    def _load_traces(self, key: str) -> list[EpochTrace] | None:
        """Parse the stored traces for ``key``; ``None`` when absent/stale."""
        recs = self.cache.get_traces(key)
        if recs is None:
            return None
        try:
            return traces_from_dicts(recs)
        except (TraceSchemaError, KeyError, TypeError):
            return None

    def traces(
        self, mix: WorkloadMix, mechanism: str, sc: ScaleConfig | None = None
    ) -> list[EpochTrace]:
        """Per-epoch decision traces for one (mix, mechanism) run.

        Runs through the cache like any other request.  Entries cached
        before tracing existed (or under an older trace schema) have no
        sidecar; the run is then recomputed once — deterministically
        bit-identical to the cached result — and its traces persisted.
        """
        sc = self._resolve(sc)
        planned = PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism=mechanism)
        key = planned.key()
        self.execute([planned])
        traces = self._load_traces(key)
        if traces is None:
            payload = _compute_mechanism(planned, self._resolved_engine().name)
            self.cache.put_traces(key, payload["traces"])
            traces = traces_from_dicts(payload["traces"])
        return traces

    def alone_ipc(self, bench: str, sc: ScaleConfig | None = None) -> float:
        sc = self._resolve(sc)
        planned = PlannedRun(KIND_ALONE, sc, bench=bench)
        return self.execute([planned])[planned.key()]["ipc"]

    def alone_ipcs(self, mix: WorkloadMix, sc: ScaleConfig | None = None) -> np.ndarray:
        """Alone-run IPC per core of ``mix`` (one cached run per benchmark)."""
        sc = self._resolve(sc)
        plan = {b: PlannedRun(KIND_ALONE, sc, bench=b) for b in dict.fromkeys(mix.benchmarks)}
        payloads = self.execute(plan.values())
        return np.array([payloads[plan[b].key()]["ipc"] for b in mix.benchmarks])

    # -- profiles (Figs. 1-3) ---------------------------------------

    def profile(
        self,
        bench: str,
        sc: ScaleConfig | None = None,
        *,
        way_sweep: Sequence[int] | None = None,
    ) -> AloneProfile:
        return self.profile_all([bench], sc, way_sweep=way_sweep)[bench]

    def profile_all(
        self,
        benchmarks: Sequence[str] | None = None,
        sc: ScaleConfig | None = None,
        *,
        way_sweep: Sequence[int] | None = None,
    ) -> dict[str, AloneProfile]:
        """Cached single-core profiles for ``benchmarks`` (default: all)."""
        sc = self._resolve(sc)
        names = tuple(benchmarks) if benchmarks is not None else tuple(BENCHMARKS)
        sweep = tuple(way_sweep) if way_sweep is not None else None
        plan = {n: PlannedRun(KIND_PROFILE, sc, bench=n, way_sweep=sweep) for n in names}
        payloads = self.execute(plan.values())
        return {n: _rehydrate_profile(payloads[plan[n].key()]) for n in names}

    # -- evaluation --------------------------------------------------

    def evaluate(
        self,
        mix: WorkloadMix,
        mechanisms: tuple[str, ...],
        sc: ScaleConfig | None = None,
    ):
        """Baseline + mechanisms + alone runs -> a :class:`WorkloadEval`."""
        sc = self._resolve(sc)
        mechs = tuple(m for m in dict.fromkeys(mechanisms) if m != "baseline")
        alone_runs = {b: PlannedRun(KIND_ALONE, sc, bench=b) for b in dict.fromkeys(mix.benchmarks)}
        base_run = PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism="baseline")
        mech_runs = {m: PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism=m) for m in mechs}
        payloads = self.execute([*alone_runs.values(), base_run, *mech_runs.values()])
        alone = np.array([payloads[alone_runs[b].key()]["ipc"] for b in mix.benchmarks])
        base = RunResult(mix, "baseline", _rehydrate_stats(payloads[base_run.key()]))
        runs = {
            m: RunResult(mix, m, _rehydrate_stats(payloads[pr.key()]))
            for m, pr in mech_runs.items()
        }
        return build_eval(mix, alone, base, runs)

    def sweep(
        self,
        mechanisms: tuple[str, ...],
        sc: ScaleConfig | None = None,
        *,
        categories: tuple[str, ...] = CATEGORIES,
        workloads_per_category: int | None = None,
        mixes: Sequence[WorkloadMix] | None = None,
    ) -> list:
        """Evaluate every mix x mechanism; misses run in parallel first.

        One bad workload no longer aborts the sweep: a mix whose runs
        failed is skipped with a warning (its per-run errors are in
        :attr:`records`/:attr:`failed`), and every other evaluation is
        still returned.
        """
        sc = self._resolve(sc)
        spec = RunSpec(
            mechanisms=tuple(mechanisms),
            categories=categories,
            workloads_per_category=workloads_per_category,
            mixes=tuple(mixes) if mixes is not None else None,
        )
        self.execute(spec.expand(sc), strict=False)  # fill the cache breadth-first
        evals = []
        for mix in spec.resolve_mixes(sc):
            try:
                evals.append(self.evaluate(mix, tuple(mechanisms), sc))
            except ExperimentError as e:
                warnings.warn(f"skipping workload {mix.name}: {e}", RuntimeWarning, stacklevel=2)
        return evals


def build_eval(mix: WorkloadMix, alone: np.ndarray, base, runs: dict):
    """Fold runs into the paper's HS/WS/worst/BW/stall metrics, plus the
    fairness columns (hm-IPC, fair slowdown / ANTT, unfairness) the
    multi-seed analysis summarizes alongside them."""
    from repro.analysis.stats import fair_slowdown, hm_ipc, unfairness

    base_hs = harmonic_speedup(base.ipc, alone)
    ev = WorkloadEval(mix=mix, baseline=base, runs=dict(runs), alone_ipc=alone)
    ev.metrics["baseline"] = {
        "hs": base_hs,
        "hs_norm": 1.0,
        "ws": 1.0,
        "worst": 1.0,
        "bw_mbs": base.mem_bandwidth_mbs,
        "bw_norm": 1.0,
        "stalls_norm": 1.0,
        "hm_ipc": hm_ipc(base.ipc),
        "fair_slowdown": fair_slowdown(alone, base.ipc),
        "unfairness": unfairness(alone, base.ipc),
    }
    for mech, run_ in runs.items():
        hs = harmonic_speedup(run_.ipc, alone)
        ev.metrics[mech] = {
            "hs": hs,
            "hs_norm": hs / base_hs if base_hs > 0 else 0.0,
            "ws": weighted_speedup(run_.ipc, base.ipc),
            "worst": worst_case_speedup(run_.ipc, base.ipc),
            "bw_mbs": run_.mem_bandwidth_mbs,
            "bw_norm": run_.mem_bandwidth_mbs / base.mem_bandwidth_mbs
            if base.mem_bandwidth_mbs > 0
            else 0.0,
            "stalls_norm": run_.stalls_per_kinst / base.stalls_per_kinst
            if base.stalls_per_kinst > 0
            else 0.0,
            "hm_ipc": hm_ipc(run_.ipc),
            "fair_slowdown": fair_slowdown(alone, run_.ipc),
            "unfairness": unfairness(alone, run_.ipc),
        }
    return ev


# ------------------------------------------------------- default session

_DEFAULT_SESSION: ExperimentSession | None = None


def default_session() -> ExperimentSession:
    """The process-wide session used by module-level helpers and shims."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = ExperimentSession()
    return _DEFAULT_SESSION


def set_default_session(session: ExperimentSession | None) -> None:
    """Install (or with ``None``, reset) the process-wide session."""
    global _DEFAULT_SESSION
    _DEFAULT_SESSION = session


def run(mix: WorkloadMix, mechanism: str, sc: ScaleConfig | None = None, *,
        params=None, label: str | None = None) -> RunResult:
    """:meth:`ExperimentSession.run` on the default session."""
    return default_session().run(mix, mechanism, sc, params=params, label=label)
