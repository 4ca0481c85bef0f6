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
kind-specific fields.  :func:`run_from_wire` validates eagerly and
raises :class:`ProtocolError` on malformed input so bad requests are
rejected at the front door, not deep inside a worker.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from repro.experiments.config import ScaleConfig
from repro.experiments.engine import (
    KIND_ALONE,
    KIND_HOOK,
    KIND_MECHANISM,
    KIND_PROFILE,
    PlannedRun,
)
from repro.workloads.mixes import WorkloadMix

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


def run_to_wire(run: PlannedRun) -> dict:
    """Serialize a :class:`PlannedRun` for submission or journaling."""
    wire: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "kind": run.kind,
        "scale": asdict(run.sc),
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


def _require(wire: dict, field: str, types: type | tuple) -> Any:
    try:
        value = wire[field]
    except KeyError:
        raise ProtocolError(f"run object missing {field!r}") from None
    if not isinstance(value, types):
        raise ProtocolError(f"run field {field!r} has invalid type {type(value).__name__}")
    return value


def run_from_wire(wire: dict) -> PlannedRun:
    """Reconstruct a :class:`PlannedRun`; :class:`ProtocolError` on bad input."""
    if not isinstance(wire, dict):
        raise ProtocolError(f"run object must be a dict, got {type(wire).__name__}")
    version = wire.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported run wire version {version!r}")
    kind = _require(wire, "kind", str)
    if kind not in (KIND_MECHANISM, KIND_ALONE, KIND_PROFILE, KIND_HOOK):
        raise ProtocolError(f"unknown run kind {kind!r}")
    try:
        sc = ScaleConfig(**_require(wire, "scale", dict))
    except TypeError as e:
        raise ProtocolError(f"invalid scale config: {e}") from None
    mix = None
    if "mix" in wire:
        m = _require(wire, "mix", dict)
        try:
            mix = WorkloadMix(
                name=m["name"],
                category=m["category"],
                benchmarks=tuple(m["benchmarks"]),
                seed=m["seed"],
            )
        except (KeyError, TypeError) as e:
            raise ProtocolError(f"invalid mix: {e}") from None
    way_sweep = wire.get("way_sweep")
    if kind == KIND_MECHANISM and mix is None:
        raise ProtocolError("mechanism runs require a mix")
    if kind in (KIND_ALONE, KIND_PROFILE, KIND_HOOK) and "bench" not in wire:
        raise ProtocolError(f"{kind} runs require a bench")
    try:
        return PlannedRun(
            kind=kind,
            sc=sc,
            mix=mix,
            mechanism=wire.get("mechanism"),
            bench=wire.get("bench"),
            way_sweep=tuple(way_sweep) if way_sweep is not None else None,
        )
    except KeyError as e:  # unknown mechanism — PlannedRun validates eagerly
        raise ProtocolError(str(e)) from None
