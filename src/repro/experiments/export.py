"""Export result rows and decision traces to CSV / JSON.

Row flattening and cell encoding are delegated to
:mod:`repro.analysis.tables`, which is **round-trip safe**: nested
dicts flatten recursively with escaped dotted keys, lists/tuples are
JSON-encoded (the old exporter ``";"``-joined them with no escaping),
and :func:`rows_from_csv` restores the typed rows a
:func:`rows_to_csv` call started from (tuples come back as lists — the
one documented lossy corner).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from repro.analysis.tables import decode_cell, encode_cell, flatten_row, unflatten_row


def rows_to_csv(rows: list[dict]) -> str:
    """Render a list of row dicts as CSV text.

    Nested dicts flatten into escaped dotted columns and every cell is
    encoded invertibly; :func:`rows_from_csv` is the inverse.
    """
    if not rows:
        return ""
    flat = [flatten_row(r) for r in rows]
    fieldnames: list[str] = []
    for r in flat:
        for k in r:
            if k not in fieldnames:
                fieldnames.append(k)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(fieldnames)
    for r in flat:
        writer.writerow([encode_cell(r[k]) if k in r else "" for k in fieldnames])
    return buf.getvalue()


def rows_from_csv(text: str) -> list[dict]:
    """Invert :func:`rows_to_csv`: typed cells, nesting restored.

    Columns absent from a row (ragged figures) decode as ``None`` —
    indistinguishable from an explicit ``None``, like any CSV.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return []
    return [
        unflatten_row({k: decode_cell(cell) for k, cell in zip(header, line)})
        for line in reader
    ]


def traces_to_rows(traces) -> list[dict]:
    """Flatten :class:`~repro.core.trace.EpochTrace` records into one
    row per (epoch, stage) with the headline decision columns."""
    rows = []
    for t in traces:
        for s in t.stages:
            rows.append({
                "epoch": t.epoch,
                "policy": t.policy,
                "stage": s.stage,
                "skipped": s.skipped,
                "reason": s.detail.get("reason", ""),
                "agg_set": s.detail.get("agg_set", ""),
                "n_candidates": len(s.detail.get("candidates", ())),
                "best_hm": s.detail.get("best_hm", ""),
                "reference_hm": s.detail.get("reference_hm", ""),
                "winner_throttled": (t.winner or {}).get("throttled", ""),
                "failure": t.failure or "",
                "degraded": t.degraded,
            })
    return rows


def traces_to_csv(traces) -> str:
    """CSV text for a run's traces (one row per epoch x stage)."""
    return rows_to_csv(traces_to_rows(traces))


def write_traces(traces, directory: str | Path, *, stem: str = "traces") -> tuple[Path, Path]:
    """Write ``<stem>.json`` (full records) and ``<stem>.csv`` (flattened)."""
    from repro.core.trace import traces_to_dicts

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    jpath = directory / f"{stem}.json"
    cpath = directory / f"{stem}.csv"
    jpath.write_text(json.dumps(traces_to_dicts(traces), indent=2))
    cpath.write_text(traces_to_csv(traces))
    return jpath, cpath

