"""Tidy (long-form) tables: the analysis layer's one data shape.

Every figure and report path normalizes into rows of a fixed schema —
one *observation* per row::

    figure, workload, category, mechanism, seed, metric, value [, extras]

(the PharmacoDI table-builder idiom: nested result dicts become flat,
join-able tables before any statistics or rendering happens).  A
:class:`TidyTable` carries those rows plus an explicit column order;
:class:`TableBuilder` accumulates them with schema validation.

Cell encoding is **round-trip safe**, unlike the old
``export._flatten`` (which flattened nested dicts a single level and
``";"``-joined lists with no escaping):

* nested dict keys join with ``"."``; literal dots inside a key are
  escaped as ``"\\."`` so :func:`unflatten_row` can reverse the join;
* lists / tuples / nested containers serialize as JSON text;
* a *string* that would itself parse as JSON (or is empty) is
  JSON-quoted, so ``"1.5"`` the string survives next to ``1.5`` the
  float;
* floats keep full ``repr`` precision — canonical CSVs pin bits, and
  presentation rounding happens only in :mod:`repro.analysis.format`.

JSON has no tuple type, so tuples come back as lists — the one
documented lossy corner.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "SCHEMA_COLUMNS",
    "TIDY_SCHEMA_VERSION",
    "TableBuilder",
    "TidyTable",
    "decode_cell",
    "encode_cell",
    "flatten_row",
    "unflatten_row",
]

#: Bump when the tidy schema (fixed columns or cell encoding) changes;
#: artifact manifests and goldens carry it so stale comparisons fail
#: loudly instead of diffing noise.
TIDY_SCHEMA_VERSION = 1

#: The fixed leading columns of every tidy table, in order.
SCHEMA_COLUMNS = ("figure", "workload", "category", "mechanism", "seed", "metric", "value")


# ------------------------------------------------------------- cell codec


def _plain(v: object) -> object:
    """Numpy scalars and tuples down to plain Python (JSON-able) values."""
    if hasattr(v, "item") and not isinstance(v, (str, bytes)):
        v = v.item()
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    if isinstance(v, list):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    return v


#: Every character a text ``json.loads`` accepts can begin with: a value
#: (object, array, string, number, ``true``/``false``/``null``, ``NaN``,
#: ``Infinity``) or the JSON whitespace it skips first.
_JSON_START = frozenset('{["-0123456789tfnNI \t\n\r')


def encode_cell(v: object) -> str:
    """One CSV cell, invertible by :func:`decode_cell`.

    ``None`` is the empty cell; bools are JSON ``true``/``false``;
    numbers keep full ``repr`` precision; containers are JSON; strings
    pass through verbatim *unless* they would decode as something else,
    in which case they are JSON-quoted.
    """
    v = _plain(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        if v == "":
            return '""'
        if v[0] not in _JSON_START:
            return v  # cannot decode as anything else: skip the trial parse
        try:
            json.loads(v)
        except ValueError:
            return v
        return json.dumps(v)  # would masquerade as a number/JSON value
    return json.dumps(v, sort_keys=True, separators=(",", ":"))


def decode_cell(s: str) -> object:
    """Invert :func:`encode_cell`."""
    if s == "":
        return None
    try:
        return json.loads(s)
    except ValueError:
        return s


# -------------------------------------------------- flatten / unflatten


def _escape_key(k: str) -> str:
    return k.replace("\\", "\\\\").replace(".", "\\.")


def _split_path(path: str) -> list[str]:
    """Split a flattened key on unescaped dots."""
    parts: list[str] = []
    buf: list[str] = []
    i = 0
    while i < len(path):
        c = path[i]
        if c == "\\" and i + 1 < len(path):
            buf.append(path[i + 1])
            i += 2
            continue
        if c == ".":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(c)
        i += 1
    parts.append("".join(buf))
    return parts


def flatten_row(row: dict) -> dict:
    """Flatten nested dicts into dotted columns, recursively and safely.

    Unlike the old one-level ``export._flatten``, nesting of any depth
    flattens, keys containing dots are escaped, and list values are
    preserved as lists (the CSV writer JSON-encodes them).  Reversed by
    :func:`unflatten_row`.
    """
    out: dict[str, object] = {}

    def walk(prefix: str, value: object) -> None:
        if isinstance(value, dict) and value:
            for k, v in value.items():
                key = _escape_key(str(k))
                walk(f"{prefix}.{key}" if prefix else key, v)
        else:
            out[prefix] = _plain(value)

    for k, v in row.items():
        walk(_escape_key(str(k)), v)
    return out


def unflatten_row(flat: dict) -> dict:
    """Rebuild the nested dict a :func:`flatten_row` call started from."""
    out: dict = {}
    for path, value in flat.items():
        parts = _split_path(path)
        node = out
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return out


# ------------------------------------------------------------ tidy table


@dataclass
class TidyTable:
    """Long-form rows plus an explicit, stable column order.

    Rows are plain dicts; absent cells read as ``None``.  The class is
    deliberately small — filtering, grouping, pivoting and (de)serial-
    ization — so it stays dependency-free (no pandas in this repo).
    """

    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.rows)

    # ----------------------------------------------------------- queries

    def filter(self, pred: Callable[[dict], bool] | None = None, **eq: object) -> "TidyTable":
        """Rows matching the predicate and/or column equality tests."""
        def keep(r: dict) -> bool:
            if pred is not None and not pred(r):
                return False
            return all(r.get(k) == v for k, v in eq.items())

        return TidyTable(self.columns, [r for r in self.rows if keep(r)])

    def distinct(self, column: str) -> list:
        """Unique values of one column, first-seen order."""
        return list(dict.fromkeys(r.get(column) for r in self.rows))

    def values(self, column: str, **eq: object) -> list:
        """The ``column`` cells of rows matching the equality filters."""
        return [r.get(column) for r in self.filter(**eq).rows]

    def group(self, *keys: str) -> dict[tuple, "TidyTable"]:
        """Split into sub-tables keyed by the given columns (seen order)."""
        out: dict[tuple, TidyTable] = {}
        for r in self.rows:
            k = tuple(r.get(c) for c in keys)
            out.setdefault(k, TidyTable(self.columns)).rows.append(r)
        return out

    def pivot(self, index: str, column: str, value: str = "value") -> tuple[list[str], list[list]]:
        """Wide ``(headers, rows)`` view for the presentation renderers.

        One output row per distinct ``index`` cell, one column per
        distinct ``column`` cell; collisions keep the last observation.
        """
        col_values = self.distinct(column)
        headers = [index] + [str(c) for c in col_values]
        wide: dict[object, dict] = {}
        for r in self.rows:
            wide.setdefault(r.get(index), {})[r.get(column)] = r.get(value)
        out_rows = [[idx] + [cells.get(c) for c in col_values] for idx, cells in wide.items()]
        return headers, out_rows

    def extend(self, other: "TidyTable") -> "TidyTable":
        """Concatenate two tables; columns are the union, fixed-first."""
        cols = list(self.columns) + [c for c in other.columns if c not in self.columns]
        return TidyTable(tuple(cols), self.rows + other.rows)

    # ------------------------------------------------------------- codec

    def to_csv(self) -> str:
        """Canonical CSV: header row plus one encoded line per row."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for r in self.rows:
            writer.writerow([encode_cell(r.get(c)) for c in self.columns])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "TidyTable":
        """Invert :meth:`to_csv` (types restored by :func:`decode_cell`)."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            return cls(())
        rows = [
            {c: decode_cell(cell) for c, cell in zip(header, line)}
            for line in reader
        ]
        return cls(tuple(header), rows)

    def to_records(self) -> list[dict]:
        """JSON-safe row dicts in column order (for Vega-Lite inlining)."""
        return [{c: _plain(r.get(c)) for c in self.columns if r.get(c) is not None} for r in self.rows]


# ---------------------------------------------------------- table builder


class TableBuilder:
    """Accumulates tidy observations with schema validation.

    ``extra_columns`` declares any figure-specific columns (``ways``,
    ``core``, ``benchmark``...) up front, so every produced table has a
    deterministic column order: the fixed :data:`SCHEMA_COLUMNS`
    followed by the declared extras.
    """

    def __init__(self, figure: str, *, extra_columns: Sequence[str] = ()) -> None:
        self.figure = figure
        for c in extra_columns:
            if c in SCHEMA_COLUMNS:
                raise ValueError(f"extra column {c!r} shadows a schema column")
        self.extra_columns = tuple(extra_columns)
        self._rows: list[dict] = []

    def add(
        self,
        *,
        metric: str,
        value: object,
        workload: str | None = None,
        category: str | None = None,
        mechanism: str | None = None,
        seed: int | None = None,
        **extras: object,
    ) -> "TableBuilder":
        unknown = set(extras) - set(self.extra_columns)
        if unknown:
            raise ValueError(
                f"undeclared extra column(s) {sorted(unknown)}; "
                f"declared: {list(self.extra_columns)}"
            )
        row = {
            "figure": self.figure,
            "workload": workload,
            "category": category,
            "mechanism": mechanism,
            "seed": seed,
            "metric": metric,
            "value": _plain(value),
        }
        for c in self.extra_columns:
            row[c] = _plain(extras.get(c))
        self._rows.append(row)
        return self

    def add_metrics(self, metrics: dict[str, object], **common: object) -> "TableBuilder":
        """One observation per ``{metric: value}`` item, shared context."""
        for m, v in metrics.items():
            self.add(metric=m, value=v, **common)
        return self

    def build(self) -> TidyTable:
        return TidyTable(SCHEMA_COLUMNS + self.extra_columns, list(self._rows))


def concat(tables: Iterable[TidyTable]) -> TidyTable:
    """Concatenate many tidy tables (union of columns, fixed-first)."""
    out: TidyTable | None = None
    for t in tables:
        out = t if out is None else out.extend(t)
    return out if out is not None else TidyTable(SCHEMA_COLUMNS)
