"""Declarative figure artifacts: one :class:`FigureSpec` per paper figure.

Every figure the repo reproduces is registered here with three pieces:

* **source** — fetches what the figure is built from: the session's
  single-core profiles (figs 1-3), one PMU sample per freshly built
  machine (Table I, Fig. 5), or the session's workload evaluations
  (figs 7-15);
* **tidy** — a builder from those inputs straight to a long-form
  :class:`~repro.analysis.tables.TidyTable` (one observation per row);
* **vega** — a Vega-Lite spec builder over the tidy rows.

``build_artifacts`` takes a list of figures through all three, with the
session as the only memo; ``write_artifacts`` emits the canonical
artifact set — ``<id>.csv`` (tidy, full ``repr`` precision) plus
``<id>.vl.json`` and a schema-versioned ``manifest.json`` — and
``check_artifacts`` diffs a produced set against committed goldens,
naming schema versions on mismatch instead of failing opaquely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis import vega as _vega
from repro.analysis.tables import TIDY_SCHEMA_VERSION, TableBuilder, TidyTable
from repro.core.frontend import AggDetector
from repro.core.metrics_defs import CoreSummary, TableIMetrics, summarize_sample
from repro.experiments.config import ScaleConfig, get_scale
from repro.experiments.engine import ExperimentSession, RunSpec, default_session
from repro.experiments.runner import build_machine
from repro.platform.simulated import SimulatedPlatform
from repro.workloads.classify import DEFAULT_WAY_SWEEP
from repro.workloads.mixes import WorkloadMix, make_mixes
from repro.workloads.speclike import BENCHMARKS

__all__ = [
    "ALL_MECHS",
    "ARTIFACT_SCHEMA_VERSION",
    "BuiltFigure",
    "CMM_MECHS",
    "CP_MECHS",
    "FIGURE_IDS",
    "FigureSpec",
    "build_artifacts",
    "check_artifacts",
    "get_figure_spec",
    "write_artifacts",
]

#: Bump when the emitted artifact layout (file set, manifest fields,
#: tidy conversion of any figure) changes; goldens carry it.
ARTIFACT_SCHEMA_VERSION = 1

CP_MECHS = ("dunn", "pref-cp", "pref-cp2")
CMM_MECHS = ("cmm-a", "cmm-b", "cmm-c")
#: The seven mechanisms of Figs. 13-15, in the paper's order.
ALL_MECHS = ("pt",) + CP_MECHS + CMM_MECHS

#: Table I columns, ``M<n>_<TableIMetrics field>``.
TABLE1_METRICS = tuple(f"M{i}_{f.name}" for i, f in enumerate(fields(TableIMetrics), 1))


# ----------------------------------------------------------------- sources
#
# ``source(sc, session, mechanisms)``: ``mechanisms`` is the union over
# every mechanism figure of one ``build_artifacts`` call.


def _profiles(sc: ScaleConfig, session: ExperimentSession, _mechanisms) -> dict:
    return session.profile_all(tuple(BENCHMARKS), sc)


def _way_profiles(sc: ScaleConfig, session: ExperimentSession, _mechanisms) -> dict:
    return session.profile_all(tuple(BENCHMARKS), sc, way_sweep=DEFAULT_WAY_SWEEP)


def _sample(mix: WorkloadMix, sc: ScaleConfig) -> list[CoreSummary]:
    """Per-core summaries of one sampling interval after a warm-up."""
    plat = SimulatedPlatform(build_machine(mix, sc))
    plat.run_interval(max(sc.sample_units, 2048))  # warm-up
    return summarize_sample(plat.run_interval(sc.sample_units), plat.cycles_per_second)


def _table1_sample(sc: ScaleConfig, _session, _mechanisms) -> tuple[WorkloadMix, list[TableIMetrics]]:
    mix = make_mixes("pref_agg", 1, seed=sc.seed)[0]
    return mix, [s.metrics for s in _sample(mix, sc)]


def _detections(sc: ScaleConfig, _session, _mechanisms) -> list[tuple[WorkloadMix, tuple[int, ...]]]:
    """The Agg set the front-end finds in each mix of the sweep."""
    detector = AggDetector()
    return [(mix, detector.detect(_sample(mix, sc)).agg_set) for mix in RunSpec().resolve_mixes(sc)]


def _evaluations(sc: ScaleConfig, session: ExperimentSession, mechanisms: tuple[str, ...]) -> list:
    """Every mix x mechanism, in the paper's category order.

    The whole plan executes as one deduplicated batch first (parallel
    across the session's workers on misses); the per-mix evaluations
    then assemble from the cache.
    """
    spec = RunSpec(mechanisms=mechanisms)
    session.execute(spec.expand(sc))
    return [session.evaluate(mix, mechanisms, sc) for mix in spec.resolve_mixes(sc)]


# ------------------------------------------------------------ tidy builders


def _benchmark_rows(spec: "FigureSpec", rows: dict[str, dict], seed, *, sort_by: str) -> TidyTable:
    b = TableBuilder(spec.fig_id, extra_columns=("benchmark",))
    for name, metrics in sorted(rows.items(), key=lambda kv: -kv[1][sort_by]):
        b.add_metrics(metrics, seed=seed, benchmark=name)
    return b.build()


def _tidy_bandwidth(spec: "FigureSpec", profiles: dict, seed) -> TidyTable:
    """fig01: demand (prefetch off) vs. total (on) bandwidth, busiest first."""
    return _benchmark_rows(spec, {
        name: {"demand_bw_mbs": p.demand_bw_off_mbs, "total_bw_mbs": p.total_bw_on_mbs,
               "increase_pct": 100.0 * p.bw_increase}
        for name, p in profiles.items()
    }, seed, sort_by="total_bw_mbs")


def _tidy_speedup(spec: "FigureSpec", profiles: dict, seed) -> TidyTable:
    """fig02: IPC with and without prefetching, biggest gain first."""
    return _benchmark_rows(spec, {
        name: {"ipc_on": p.ipc_on, "ipc_off": p.ipc_off, "speedup_pct": 100.0 * p.prefetch_speedup}
        for name, p in profiles.items()
    }, seed, sort_by="speedup_pct")


def _tidy_ways(spec: "FigureSpec", profiles: dict, seed) -> TidyTable:
    """fig03: the ways sweep unrolls into one ``ipc`` row per point."""
    b = TableBuilder(spec.fig_id, extra_columns=("benchmark", "ways"))
    for name, p in profiles.items():
        for w, ipc in p.ipc_by_ways.items():
            b.add(metric="ipc", value=ipc, seed=seed, benchmark=name, ways=int(w))
        b.add(metric="min_ways_90pct", value=p.min_ways_for_frac(0.90), seed=seed, benchmark=name)
        b.add(metric="min_ways_80pct", value=p.min_ways_for_frac(0.80), seed=seed, benchmark=name)
    return b.build()


def _tidy_detection(spec: "FigureSpec", detections, seed) -> TidyTable:
    b = TableBuilder(spec.fig_id)
    for mix, agg_set in detections:
        common = {"workload": mix.name, "category": mix.category, "seed": seed}
        b.add(metric="benchmarks", value=mix.benchmarks, **common)
        b.add(metric="agg_set", value=agg_set, **common)
        b.add(metric="agg_benchmarks", value=tuple(mix.benchmarks[c] for c in agg_set), **common)
        b.add(metric="n_agg", value=len(agg_set), **common)
    return b.build()


def _tidy_mechanism(spec: "FigureSpec", evals, seed) -> TidyTable:
    """figs 7-15: (workload x mechanism) observations + category means.

    Per-workload rows keep the metric name; the category means land
    under ``<metric>_mean`` with no workload, so observations and
    aggregates never mix in a filter.
    """
    b = TableBuilder(spec.fig_id)
    categories = dict.fromkeys(ev.mix.category for ev in evals)
    for metric in spec.metrics:
        for ev in evals:
            for mech in spec.mechanisms:
                b.add(metric=metric, value=ev.metric(mech, metric), workload=ev.mix.name,
                      category=ev.mix.category, mechanism=mech, seed=seed)
        for cat in categories:
            for mech in spec.mechanisms:
                mean = np.mean([ev.metric(mech, metric) for ev in evals if ev.mix.category == cat])
                b.add(metric=f"{metric}_mean", value=float(mean), category=cat,
                      mechanism=mech, seed=seed)
    return b.build()


def _tidy_table1(spec: "FigureSpec", sample: tuple[WorkloadMix, list[TableIMetrics]], seed) -> TidyTable:
    mix, per_core = sample
    b = TableBuilder(spec.fig_id, extra_columns=("core", "benchmark"))
    for core, mt in enumerate(per_core):
        metrics = {col: getattr(mt, col.split("_", 1)[1]) for col in spec.metrics}
        b.add_metrics(metrics, seed=seed, core=core, benchmark=mix.benchmarks[core])
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
    metric = spec.metrics[0]
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
    """One registered figure: source -> tidy table -> Vega-Lite."""

    fig_id: str
    title: str
    #: ``source(sc, session, mechanisms)`` fetches the figure's inputs
    source: Callable[[ScaleConfig, ExperimentSession, tuple[str, ...]], Any]
    tidy: Callable[["FigureSpec", Any, int | None], TidyTable]
    vega: Callable[[TidyTable, "FigureSpec"], dict]
    #: metrics the table carries (Table I columns; figs 7-15: headline first)
    metrics: tuple[str, ...] = ()
    #: mechanisms compared (figs 7-15)
    mechanisms: tuple[str, ...] = ()

    def table(self, inputs: Any, *, seed: int | None = None) -> TidyTable:
        """The tidy table for inputs fetched by :attr:`source`."""
        return self.tidy(self, inputs, seed)

    def spec(self, table: TidyTable) -> dict:
        return self.vega(table, self)

    def wide(self, table: TidyTable) -> tuple[list[str], list[list]]:
        """``(headers, rows)`` for text reports: the headline metric's
        category means for figs 7-15, else one row per core / benchmark /
        workload (Fig. 3's per-way IPC points stay in the CSV)."""
        if self.mechanisms:
            return table.filter(metric=f"{self.metrics[0]}_mean").pivot("category", "mechanism")
        index = next(c for c in ("core", "benchmark", "workload") if c in table.columns)
        return table.filter(lambda r: r.get("ways") is None).pivot(index, "metric")


def _mechanism_spec(fig_id: str, title: str, mechanisms: tuple[str, ...], *metrics: str) -> FigureSpec:
    return FigureSpec(fig_id, title, _evaluations, _tidy_mechanism, _vega_mechanism,
                      metrics=metrics, mechanisms=mechanisms)


FIGURE_SPECS: dict[str, FigureSpec] = {
    s.fig_id: s
    for s in (
        FigureSpec("table1", "Table I: prefetch metrics per core (one Mix workload)",
                   _table1_sample, _tidy_table1, _vega_table1, metrics=TABLE1_METRICS),
        FigureSpec("fig01", "Fig. 1: memory bandwidth per benchmark",
                   _profiles, _tidy_bandwidth, _vega_grouped_bw),
        FigureSpec("fig02", "Fig. 2: IPC speedup from prefetching",
                   _profiles, _tidy_speedup, _vega_speedup),
        FigureSpec("fig03", "Fig. 3: IPC vs. allocated LLC ways",
                   _way_profiles, _tidy_ways, _vega_ways),
        FigureSpec("fig05", "Fig. 5: detected Agg sets per workload",
                   _detections, _tidy_detection, _vega_detection),
        _mechanism_spec("fig07", "Fig. 7: PT normalized HS / WS", ("pt",), "hs_norm", "ws"),
        _mechanism_spec("fig08", "Fig. 8: PT worst-case normalized IPC", ("pt",), "worst"),
        _mechanism_spec("fig09", "Fig. 9: CP mechanisms normalized HS / WS", CP_MECHS, "hs_norm", "ws"),
        _mechanism_spec("fig10", "Fig. 10: CP mechanisms worst-case normalized IPC", CP_MECHS, "worst"),
        _mechanism_spec("fig11", "Fig. 11: CMM mechanisms normalized HS / WS", CMM_MECHS, "hs_norm", "ws"),
        _mechanism_spec("fig12", "Fig. 12: CMM mechanisms worst-case normalized IPC", CMM_MECHS, "worst"),
        _mechanism_spec("fig13", "Fig. 13: all mechanisms, normalized HS", ALL_MECHS, "hs_norm"),
        _mechanism_spec("fig14", "Fig. 14: normalized memory traffic", ALL_MECHS, "bw_norm"),
        _mechanism_spec("fig15", "Fig. 15: normalized STALLS_L2_PENDING", ALL_MECHS, "stalls_norm"),
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


# ------------------------------------------------------------ artifact IO


@dataclass(frozen=True)
class BuiltFigure:
    """One figure taken through the whole layer: inputs -> tidy -> spec."""

    fig_id: str
    table: TidyTable
    spec: dict


def build_artifacts(
    fig_ids: Sequence[str] | None = None,
    sc: ScaleConfig | None = None,
    *,
    session: ExperimentSession | None = None,
) -> list[BuiltFigure]:
    """Build the requested figures, in order, as tidy tables + Vega specs.

    Each source is fetched when the first figure needing it comes up and
    is shared by the rest of the call.  The mechanism figures share one
    evaluation pass over the union of their mechanisms, so they execute
    as a single deduplicated plan.  Runs go through ``session`` (the
    default session unless one is given), which is the only memo.
    """
    sc = sc or get_scale()
    specs = [get_figure_spec(i) for i in (fig_ids or FIGURE_IDS)]
    if session is None:
        session = default_session()
    mechanisms = tuple(dict.fromkeys(m for s in specs for m in s.mechanisms))
    inputs: dict[Callable, Any] = {}
    out = []
    for spec in specs:
        if spec.source not in inputs:
            inputs[spec.source] = spec.source(sc, session, mechanisms)
        table = spec.table(inputs[spec.source], seed=sc.seed)
        out.append(BuiltFigure(spec.fig_id, table, spec.spec(table)))
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
