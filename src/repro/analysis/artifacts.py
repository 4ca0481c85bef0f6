"""Declarative figure artifacts: one :class:`FigureSpec` per paper figure.

Every figure the repo reproduces is registered here with three pieces:

* **build** — the existing ``repro.experiments.figures`` driver that
  produces the figure dict (numbers unchanged; this layer never
  recomputes them);
* **tidy** — a converter from that dict into a long-form
  :class:`~repro.analysis.tables.TidyTable` (one observation per row);
* **vega** — a Vega-Lite spec builder over the tidy rows.

``write_artifacts`` emits the canonical artifact set for a list of
figures — ``<id>.csv`` (tidy, full ``repr`` precision) plus
``<id>.vl.json`` and a schema-versioned ``manifest.json`` — and
``check_artifacts`` diffs a produced set against committed goldens,
naming schema versions on mismatch instead of failing opaquely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis import vega as _vega
from repro.analysis.tables import TIDY_SCHEMA_VERSION, TableBuilder, TidyTable
from repro.experiments.config import ScaleConfig, get_scale

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "BuiltFigure",
    "FIGURE_IDS",
    "FigureSpec",
    "build_artifacts",
    "check_artifacts",
    "figure_table",
    "figure_vega",
    "get_figure_spec",
    "write_artifacts",
]

#: Bump when the emitted artifact layout (file set, manifest fields,
#: tidy conversion of any figure) changes; goldens carry it.
ARTIFACT_SCHEMA_VERSION = 1


# -------------------------------------------------------- tidy converters


def _tidy_benchmark_rows(figure: dict, seed: int | None) -> TidyTable:
    """fig01/fig02: per-benchmark scalar metrics."""
    b = TableBuilder(figure["figure"], extra_columns=("benchmark",))
    for row in figure["rows"]:
        metrics = {k: v for k, v in row.items() if k != "benchmark"}
        b.add_metrics(metrics, seed=seed, benchmark=row["benchmark"])
    return b.build()


def _tidy_fig03(figure: dict, seed: int | None) -> TidyTable:
    """fig03: the ways sweep unrolls into one ``ipc`` row per point."""
    b = TableBuilder(figure["figure"], extra_columns=("benchmark", "ways"))
    for row in figure["rows"]:
        bench = row["benchmark"]
        for w, ipc in row["ipc_by_ways"].items():
            b.add(metric="ipc", value=ipc, seed=seed, benchmark=bench, ways=int(w))
        b.add(metric="min_ways_90pct", value=row["min_ways_90pct"], seed=seed, benchmark=bench)
        b.add(metric="min_ways_80pct", value=row["min_ways_80pct"], seed=seed, benchmark=bench)
    return b.build()


def _tidy_fig05(figure: dict, seed: int | None) -> TidyTable:
    b = TableBuilder(figure["figure"])
    for row in figure["rows"]:
        common = {"workload": row["workload"], "category": row["category"], "seed": seed}
        b.add(metric="benchmarks", value=row["benchmarks"], **common)
        b.add(metric="agg_set", value=row["agg_set"], **common)
        b.add(metric="agg_benchmarks", value=row["agg_benchmarks"], **common)
        b.add(metric="n_agg", value=len(row["agg_set"]), **common)
    return b.build()


def _tidy_mechanism(figure: dict, seed: int | None) -> TidyTable:
    """figs 7-15: (workload x mechanism) observations + category means.

    Per-workload rows keep the figure's metric name; the precomputed
    category means land under ``<metric>_mean`` with no workload, so
    observations and aggregates never mix in a filter.
    """
    b = TableBuilder(figure["figure"])

    def rows_block(rows: list[dict], metric: str) -> None:
        for row in rows:
            for mech, v in row.items():
                if mech in ("workload", "category"):
                    continue
                b.add(metric=metric, value=v, workload=row["workload"],
                      category=row["category"], mechanism=mech, seed=seed)

    def means_block(means: dict, metric: str) -> None:
        for cat, per_mech in means.items():
            for mech, v in per_mech.items():
                b.add(metric=f"{metric}_mean", value=v, category=cat,
                      mechanism=mech, seed=seed)

    metric = figure["metric"]
    rows_block(figure["rows"], metric)
    means_block(figure["category_means"], metric)
    if "rows_ws" in figure:
        rows_block(figure["rows_ws"], "ws")
        means_block(figure["category_means_ws"], "ws")
    return b.build()


def _tidy_table1(figure: dict, seed: int | None) -> TidyTable:
    b = TableBuilder(figure["figure"], extra_columns=("core", "benchmark"))
    for row in figure["rows"]:
        metrics = {k: v for k, v in row.items() if k not in ("core", "benchmark")}
        b.add_metrics(metrics, seed=seed, core=row["core"], benchmark=row["benchmark"])
    return b.build()


# --------------------------------------------------------- vega converters


def _vega_grouped_bw(table: TidyTable, spec: "FigureSpec") -> dict:
    out = _vega.bar_chart(
        table, title=spec.title, fig_id=spec.fig_id,
        schema_version=ARTIFACT_SCHEMA_VERSION,
        x="benchmark", x_offset="metric", color="metric", y_title="MB/s",
    )
    out["transform"] = [{"filter": "datum.metric != 'increase_pct'"}]
    return out


def _vega_speedup(table: TidyTable, spec: "FigureSpec") -> dict:
    out = _vega.bar_chart(
        table, title=spec.title, fig_id=spec.fig_id,
        schema_version=ARTIFACT_SCHEMA_VERSION,
        x="benchmark", y_title="prefetch speedup (%)",
    )
    out["transform"] = [{"filter": "datum.metric == 'speedup_pct'"}]
    return out


def _vega_ways(table: TidyTable, spec: "FigureSpec") -> dict:
    out = _vega.line_chart(
        table, title=spec.title, fig_id=spec.fig_id,
        schema_version=ARTIFACT_SCHEMA_VERSION,
        x="ways", color="benchmark", y_title="IPC",
    )
    out["transform"] = [{"filter": "datum.metric == 'ipc'"}]
    return out


def _vega_detection(table: TidyTable, spec: "FigureSpec") -> dict:
    out = _vega.bar_chart(
        table, title=spec.title, fig_id=spec.fig_id,
        schema_version=ARTIFACT_SCHEMA_VERSION,
        x="workload", color="category", y_title="detected Agg cores",
    )
    out["transform"] = [{"filter": "datum.metric == 'n_agg'"}]
    return out


def _vega_mechanism(table: TidyTable, spec: "FigureSpec") -> dict:
    metric = next((r["metric"] for r in table), "hs_norm")
    out = _vega.bar_chart(
        table, title=spec.title, fig_id=spec.fig_id,
        schema_version=ARTIFACT_SCHEMA_VERSION,
        x="category", x_offset="mechanism", color="mechanism",
        aggregate="mean", y_title=metric,
    )
    out["transform"] = [{"filter": f"datum.metric == '{metric}'"}]
    return out


def _vega_table1(table: TidyTable, spec: "FigureSpec") -> dict:
    return _vega.heatmap(
        table, title=spec.title, fig_id=spec.fig_id,
        schema_version=ARTIFACT_SCHEMA_VERSION,
        x="core", y="metric",
    )


# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class FigureSpec:
    """One registered figure: build -> tidy -> Vega-Lite."""

    fig_id: str
    title: str
    #: dotted name of the driver in :mod:`repro.experiments.figures`
    builder: str
    #: whether the driver accepts an :class:`EvalStore` (figs 7-15)
    takes_store: bool
    tidy: Callable[[dict, int | None], TidyTable]
    vega: Callable[[TidyTable, "FigureSpec"], dict]
    #: whether the driver runs profiles through a session (figs 1-3)
    takes_session: bool = False

    def build(self, sc: ScaleConfig | None = None, store=None, session=None) -> dict:
        """Produce the figure dict via the registered experiments driver."""
        from repro.experiments import figures as _figures

        fn = getattr(_figures, self.builder)
        if self.takes_store:
            return fn(sc, store)
        return fn(sc, session) if self.takes_session else fn(sc)

    def table(self, figure: dict, *, seed: int | None = None) -> TidyTable:
        return self.tidy(figure, seed)

    def spec(self, table: TidyTable) -> dict:
        return self.vega(table, self)


def _spec(
    fig_id, title, builder, tidy, vega_fn, *, takes_store=False, takes_session=False
) -> FigureSpec:
    return FigureSpec(fig_id, title, builder, takes_store, tidy, vega_fn, takes_session)


FIGURE_SPECS: dict[str, FigureSpec] = {
    s.fig_id: s
    for s in (
        _spec("table1", "Table I: prefetch metrics per core (one Mix workload)",
              "table1_metrics", _tidy_table1, _vega_table1),
        _spec("fig01", "Fig. 1: memory bandwidth per benchmark",
              "fig01_bandwidth", _tidy_benchmark_rows, _vega_grouped_bw, takes_session=True),
        _spec("fig02", "Fig. 2: IPC speedup from prefetching",
              "fig02_prefetch_speedup", _tidy_benchmark_rows, _vega_speedup, takes_session=True),
        _spec("fig03", "Fig. 3: IPC vs. allocated LLC ways",
              "fig03_way_sensitivity", _tidy_fig03, _vega_ways, takes_session=True),
        _spec("fig05", "Fig. 5: detected Agg sets per workload",
              "fig05_detection", _tidy_fig05, _vega_detection),
        _spec("fig07", "Fig. 7: PT normalized HS / WS",
              "fig07_pt", _tidy_mechanism, _vega_mechanism, takes_store=True),
        _spec("fig08", "Fig. 8: PT worst-case normalized IPC",
              "fig08_pt_worstcase", _tidy_mechanism, _vega_mechanism, takes_store=True),
        _spec("fig09", "Fig. 9: CP mechanisms normalized HS / WS",
              "fig09_cp", _tidy_mechanism, _vega_mechanism, takes_store=True),
        _spec("fig10", "Fig. 10: CP mechanisms worst-case normalized IPC",
              "fig10_cp_worstcase", _tidy_mechanism, _vega_mechanism, takes_store=True),
        _spec("fig11", "Fig. 11: CMM mechanisms normalized HS / WS",
              "fig11_cmm", _tidy_mechanism, _vega_mechanism, takes_store=True),
        _spec("fig12", "Fig. 12: CMM mechanisms worst-case normalized IPC",
              "fig12_cmm_worstcase", _tidy_mechanism, _vega_mechanism, takes_store=True),
        _spec("fig13", "Fig. 13: all mechanisms, normalized HS",
              "fig13_all", _tidy_mechanism, _vega_mechanism, takes_store=True),
        _spec("fig14", "Fig. 14: normalized memory traffic",
              "fig14_bandwidth", _tidy_mechanism, _vega_mechanism, takes_store=True),
        _spec("fig15", "Fig. 15: normalized STALLS_L2_PENDING",
              "fig15_stalls", _tidy_mechanism, _vega_mechanism, takes_store=True),
    )
}

#: Registered figure ids in presentation order.
FIGURE_IDS: tuple[str, ...] = tuple(FIGURE_SPECS)


def get_figure_spec(fig_id: str) -> FigureSpec:
    try:
        return FIGURE_SPECS[fig_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {fig_id!r}; one of {', '.join(FIGURE_IDS)}"
        ) from None


def figure_table(figure: dict, *, seed: int | None = None) -> TidyTable:
    """Tidy rows for any figure dict (dispatch on its ``figure`` id)."""
    return get_figure_spec(figure["figure"]).table(figure, seed=seed)


def figure_vega(figure: dict, table: TidyTable | None = None, *, seed: int | None = None) -> dict:
    """Vega-Lite spec for any figure dict (tidy conversion included)."""
    spec = get_figure_spec(figure["figure"])
    return spec.spec(table if table is not None else spec.table(figure, seed=seed))


# ------------------------------------------------------------ artifact IO


@dataclass(frozen=True)
class BuiltFigure:
    """One figure taken through the whole layer: dict -> tidy -> spec."""

    fig_id: str
    figure: dict
    table: TidyTable
    spec: dict


def build_artifacts(
    fig_ids: Sequence[str] | None = None,
    sc: ScaleConfig | None = None,
    *,
    store=None,
    session=None,
) -> list[BuiltFigure]:
    """Build the requested figures and convert each to tidy + Vega form.

    Mechanism figures share one :class:`EvalStore` (created against
    ``session`` unless one is injected), so the whole batch executes
    through a single deduplicated plan / warm cache.
    """
    from repro.experiments.figures import EvalStore

    sc = sc or get_scale()
    ids = list(fig_ids) if fig_ids else list(FIGURE_IDS)
    specs = [get_figure_spec(i) for i in ids]
    if store is None and any(s.takes_store for s in specs):
        store = EvalStore(sc, session=session)
    out = []
    for spec in specs:
        figure = spec.build(sc, store, session)
        table = spec.table(figure, seed=sc.seed)
        out.append(BuiltFigure(spec.fig_id, figure, table, spec.spec(table)))
    return out


def _stable_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_artifacts(
    built: Sequence[BuiltFigure],
    out_dir: str | Path,
    *,
    scale: str,
    seed: int,
    png: bool = False,
) -> dict[str, Path]:
    """Emit the canonical artifact set for ``built`` under ``out_dir``.

    Per figure: ``<id>.csv`` (tidy, full precision) and ``<id>.vl.json``
    (stable sorted-key serialization); plus one ``manifest.json``
    carrying the schema versions, scale and seed.  With ``png=True``
    each spec is also rendered via :mod:`repro.analysis.render`
    (requires an optional renderer package).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    manifest: dict = {
        "artifact_schema": ARTIFACT_SCHEMA_VERSION,
        "tidy_schema": TIDY_SCHEMA_VERSION,
        "scale": scale,
        "seed": seed,
        "figures": {},
    }
    for bf in built:
        csv_path = out_dir / f"{bf.fig_id}.csv"
        vl_path = out_dir / f"{bf.fig_id}.vl.json"
        csv_path.write_text(bf.table.to_csv())
        vl_path.write_text(_stable_json(bf.spec))
        paths[f"{bf.fig_id}.csv"] = csv_path
        paths[f"{bf.fig_id}.vl.json"] = vl_path
        manifest["figures"][bf.fig_id] = {
            "csv": csv_path.name,
            "vega": vl_path.name,
            "rows": len(bf.table),
        }
        if png:
            from repro.analysis.render import render_png

            png_path = out_dir / f"{bf.fig_id}.png"
            render_png(bf.spec, png_path)
            paths[f"{bf.fig_id}.png"] = png_path
    man_path = out_dir / "manifest.json"
    man_path.write_text(_stable_json(manifest))
    paths["manifest.json"] = man_path
    return paths


def _manifest_schema(directory: Path) -> str:
    try:
        man = json.loads((directory / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError):
        return "unknown"
    return f"artifact={man.get('artifact_schema')} tidy={man.get('tidy_schema')}"


def check_artifacts(out_dir: str | Path, golden_dir: str | Path) -> list[str]:
    """Diff a produced artifact set against a committed golden set.

    Returns human-readable difference descriptions (empty = identical).
    Every golden file must exist and match byte-for-byte; extra
    produced files are reported too.  On any content mismatch the
    schema versions of both manifests are named, so a stale golden
    written under an older schema fails with its cause visible.
    """
    out_dir, golden_dir = Path(out_dir), Path(golden_dir)
    problems: list[str] = []
    golden_files = sorted(p.name for p in golden_dir.iterdir() if p.is_file())
    if not golden_files:
        return [f"golden directory {golden_dir} is empty"]
    produced = sorted(p.name for p in out_dir.iterdir() if p.is_file()) if out_dir.is_dir() else []
    mismatched = False
    for name in golden_files:
        if name not in produced:
            problems.append(f"missing artifact: {name}")
            continue
        if (golden_dir / name).read_bytes() != (out_dir / name).read_bytes():
            problems.append(f"content mismatch: {name}")
            mismatched = True
    for name in produced:
        if name not in golden_files and not name.endswith(".png"):
            problems.append(f"unexpected artifact: {name}")
    if mismatched:
        problems.append(
            f"schema versions: produced {_manifest_schema(out_dir)}, "
            f"golden {_manifest_schema(golden_dir)}"
        )
    return problems
