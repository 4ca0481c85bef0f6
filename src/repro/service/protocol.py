"""Wire format for the experiment service.

The service speaks **JSON lines**: every request and every response is
one JSON object on one ``\\n``-terminated line.  The same encoding is
used by the sweep journal, so a journaled plan can be replayed through
the exact code path a client submission takes.

Requests
--------
``{"op": "ping"}``
    Liveness probe; answered with ``{"ok": true, "pong": ...}``.
``{"op": "submit", "client": NAME, "runs": [RUN, ...]}``
    Execute a batch of runs; ``RUN`` objects come from
    :func:`run_to_wire`.  Answered with per-run results (or one
    structured ``overloaded`` error for the whole batch).
``{"op": "status"}``
    Service counters: queue depths, single-flight and replay counts,
    open journals, cache hits / misses / quarantined entries.
``{"op": "shutdown"}``
    Acknowledge and stop the server.

Responses carry ``"ok"``; a failed operation is ``{"ok": false,
"error": {"type": ..., "message": ...}}`` — clients always receive a
result or a structured error, never a dropped connection mid-protocol.

Run objects serialize everything a :class:`PlannedRun` needs to be
reconstructed in another process: the full :class:`ScaleConfig` (not
just its name, so custom scales travel), the workload mix, and the
kind-specific fields.  A run names data, never code: its kind is one of
``mechanism`` (a policy on a mix), ``alone`` (one benchmark's alone IPC)
or ``profile`` (one benchmark's single-core profile, optionally over a
way sweep).  :func:`run_from_wire` validates eagerly and raises
:class:`ProtocolError` on malformed input so bad requests are rejected
at the front door, not deep inside a worker.  At decode it checks every
field's JSON type, benchmark and mechanism names against their
registries, that every scale size is a positive int and builds a
machine, and that every ``way_sweep`` entry is at least 1.
"""

from __future__ import annotations

import json
from typing import Any, get_type_hints

from repro.experiments.config import ScaleConfig, key_inputs
from repro.experiments.engine import (
    KIND_ALONE,
    KIND_MECHANISM,
    KIND_PROFILE,
    PlannedRun,
)
from repro.workloads.mixes import WorkloadMix
from repro.workloads.speclike import BENCHMARKS

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_line",
    "encode_line",
    "error_response",
    "run_from_wire",
    "run_to_wire",
]

#: Bump when the wire format changes incompatibly; servers reject
#: mismatched submissions with a structured error instead of guessing.
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A malformed wire message (bad JSON, missing/invalid fields)."""


def encode_line(obj: dict) -> bytes:
    """One JSON-lines frame: compact JSON plus the terminating newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes | str) -> dict:
    """Parse one frame; :class:`ProtocolError` on anything malformed."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ProtocolError(f"malformed JSON frame: {e}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def error_response(kind: str, message: str, **extra: Any) -> dict:
    """A structured ``{"ok": false, "error": ...}`` response body."""
    err = {"type": kind, "message": message}
    err.update(extra)
    return {"ok": False, "error": err}


# ----------------------------------------------------------- run objects

#: ``ScaleConfig``'s fields and declared types, in declaration order.
#: Every one is a scalar, so a field-by-field copy equals ``asdict``.
_SCALE_TYPES: dict[str, type] = get_type_hints(ScaleConfig)


def run_to_wire(run: PlannedRun) -> dict:
    """Serialize a :class:`PlannedRun` for submission or journaling."""
    sc = run.sc
    wire: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "kind": run.kind,
        "scale": {name: getattr(sc, name) for name in _SCALE_TYPES},
    }
    if run.mix is not None:
        wire["mix"] = {
            "name": run.mix.name,
            "category": run.mix.category,
            "benchmarks": list(run.mix.benchmarks),
            "seed": run.mix.seed,
        }
    if run.mechanism is not None:
        wire["mechanism"] = run.mechanism
    if run.bench is not None:
        wire["bench"] = run.bench
    if run.way_sweep is not None:
        wire["way_sweep"] = list(run.way_sweep)
    return wire


def _require(obj: dict, field: str, typ: type, what: str = "run") -> Any:
    try:
        value = obj[field]
    except KeyError:
        raise ProtocolError(f"{what} object missing {field!r}") from None
    if type(value) is not typ:  # exact JSON types: a ``true`` is not an ``int``
        raise ProtocolError(f"{what} field {field!r} has invalid type {type(value).__name__}")
    return value


def _optional(obj: dict, field: str, typ: type) -> Any:
    """``obj[field]`` checked like :func:`_require`; absent or null is ``None``."""
    return None if obj.get(field) is None else _require(obj, field, typ)


def _scale_from_wire(d: dict) -> ScaleConfig:
    for field, value in d.items():
        typ = _SCALE_TYPES.get(field)
        if typ is not None and type(value) is not typ:
            raise ProtocolError(
                f"scale field {field!r} must be {typ.__name__}, got {type(value).__name__}"
            )
    try:
        sc = ScaleConfig(**d)
        key_inputs(sc)  # memoised per scale: refuses a machine that cannot be built
    except (TypeError, ValueError) as e:  # unknown, missing or non-positive fields
        raise ProtocolError(f"invalid scale config: {e}") from None
    return sc


def _mix_from_wire(m: dict) -> WorkloadMix:
    benchmarks = tuple(_require(m, "benchmarks", list, "mix"))
    if not all(type(b) is str and b in BENCHMARKS for b in benchmarks):
        raise ProtocolError(f"mix names an unknown benchmark: {list(benchmarks)!r}")
    return WorkloadMix(
        name=_require(m, "name", str, "mix"),
        category=_require(m, "category", str, "mix"),
        benchmarks=benchmarks,
        seed=_require(m, "seed", int, "mix"),
    )


def run_from_wire(wire: dict) -> PlannedRun:
    """Reconstruct a :class:`PlannedRun`; :class:`ProtocolError` on bad input.

    Every field is checked against its declared type and range (benchmark
    and mechanism names against their registries) before the run exists,
    so a malformed run is refused here and never reaches the scheduler,
    the journal or a worker.
    """
    if not isinstance(wire, dict):
        raise ProtocolError(f"run object must be a dict, got {type(wire).__name__}")
    version = wire.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported run wire version {version!r}")
    kind = _require(wire, "kind", str)
    if kind not in (KIND_MECHANISM, KIND_ALONE, KIND_PROFILE):
        raise ProtocolError(f"unknown run kind {kind!r}")
    sc = _scale_from_wire(_require(wire, "scale", dict))
    mix = _mix_from_wire(_require(wire, "mix", dict)) if "mix" in wire else None
    if kind == KIND_MECHANISM and mix is None:
        raise ProtocolError("mechanism runs require a mix")
    mechanism = _optional(wire, "mechanism", str)
    bench = _optional(wire, "bench", str)
    if kind in (KIND_ALONE, KIND_PROFILE):
        if bench is None:
            raise ProtocolError(f"{kind} runs require a bench")
        if bench not in BENCHMARKS:
            raise ProtocolError(f"{kind} run names unknown benchmark {bench!r}")
    way_sweep = _optional(wire, "way_sweep", list)
    if way_sweep is not None:
        if not all(type(w) is int for w in way_sweep):
            raise ProtocolError(f"way_sweep must be a list of ints, got {way_sweep!r}")
        way_sweep = tuple(way_sweep)
    try:
        return PlannedRun(
            kind=kind,
            sc=sc,
            mix=mix,
            mechanism=mechanism,
            bench=bench,
            way_sweep=way_sweep,
        )
    except (KeyError, ValueError) as e:  # unknown mechanism or a way below 1
        raise ProtocolError(str(e)) from None
