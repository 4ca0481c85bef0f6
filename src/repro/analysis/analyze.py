"""Multi-seed analysis: observations, bootstrap CIs, significance tests.

The paper's figures report one number per (workload, mechanism) at the
scale's default seed.  This pipeline widens that to a **seed axis**:

1. one :class:`~repro.experiments.engine.RunSpec` with ``seeds=(...)``
   executes every (seed x mix x mechanism) run through the session —
   deduplicated, batched, parallel on misses, cached like everything
   else;
2. per-seed sweeps assemble the evaluations from the warm cache into a
   tidy *observations* table (one row per seed x workload x mechanism
   x metric);
3. :mod:`repro.analysis.stats` folds observations into a *summary*
   table — mean, seeded-bootstrap CI bounds, and paired
   permutation/sign p-values against a reference mechanism — plus a
   CI bar chart spec.

Everything downstream of the runs is deterministic: same observations
and same ``bootstrap_seed`` reproduce identical CI bounds and p-values.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis import vega as _vega
from repro.analysis.stats import bootstrap_ci, paired_permutation_test, sign_test
from repro.analysis.tables import TIDY_SCHEMA_VERSION, TableBuilder, TidyTable

__all__ = [
    "AnalysisResult",
    "DEFAULT_METRICS",
    "collect_observations",
    "run_analysis",
    "seed_axis",
    "summarize",
    "write_analysis",
]

#: Metrics summarized by default: the paper's headline axes plus the
#: fairness columns the engine computes alongside them.
DEFAULT_METRICS = ("hs_norm", "ws", "worst", "hm_ipc", "fair_slowdown", "unfairness")

#: Pseudo-category for rows aggregated across every workload category.
OVERALL = "overall"


def seed_axis(base_seed: int, n_seeds: int) -> tuple[int, ...]:
    """``n_seeds`` consecutive seeds starting at the scale's default."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    return tuple(base_seed + i for i in range(n_seeds))


def collect_observations(
    mechanisms: Sequence[str],
    sc,
    *,
    seeds: Sequence[int],
    session=None,
) -> TidyTable:
    """One tidy row per (seed x workload x mechanism x metric).

    The whole (seed x mix x mechanism) plan executes as a single batch
    first — the seed axis rides the ordinary cache-key machinery, since
    each generated mix carries its seed into the run's content key —
    then per-seed evaluations assemble from the warm cache.
    """
    from repro.experiments.engine import RunSpec, default_session

    session = session or default_session()
    mechs = tuple(dict.fromkeys(mechanisms))
    spec = RunSpec(mechanisms=mechs, seeds=tuple(seeds))
    session.execute(spec.expand(sc), strict=False)
    b = TableBuilder("analysis")
    for seed in seeds:
        sc_seed = dataclasses.replace(sc, seed=seed)
        for ev in session.sweep(mechs, sc_seed):
            for mech, metrics in ev.metrics.items():
                b.add_metrics(
                    metrics,
                    workload=ev.mix.name,
                    category=ev.mix.category,
                    mechanism=mech,
                    seed=seed,
                )
    return b.build()


SUMMARY_COLUMNS = (
    "figure", "category", "mechanism", "metric", "n",
    "mean", "ci_lo", "ci_hi", "p_perm", "p_sign", "vs",
)


def _cells(rows: TidyTable) -> dict[tuple, float]:
    return {(r["workload"], r["seed"]): r["value"] for r in rows}


def _slices(obs: TidyTable) -> dict[tuple, dict[tuple, float]]:
    """``(metric, mechanism, category) -> {(workload, seed): value}`` for
    every category and :data:`OVERALL`, from one grouping pass.

    Each slice keeps row order, exactly as filtering the whole table
    cell by cell would.
    """
    out: dict[tuple, dict[tuple, float]] = {}
    for (metric, mech), rows in obs.group("metric", "mechanism").items():
        for (cat,), part in rows.group("category").items():
            out[(metric, mech, cat)] = _cells(part)
        out[(metric, mech, OVERALL)] = _cells(rows)
    return out


def summarize(
    obs: TidyTable,
    *,
    metrics: Sequence[str] = DEFAULT_METRICS,
    vs: str = "pt",
    confidence: float = 0.95,
    n_resamples: int = 2000,
    bootstrap_seed: int = 0,
) -> TidyTable:
    """Fold observations into mean / CI / significance summary rows.

    One row per (category + overall) x mechanism x metric.  CI bounds
    come from the seeded percentile bootstrap; ``p_perm`` / ``p_sign``
    compare each mechanism against ``vs`` pairing observations on
    (workload, seed) — mechanisms with no counterpart (or the reference
    itself) carry ``None``.
    """
    mechanisms = [m for m in obs.distinct("mechanism") if m is not None]
    categories = [c for c in obs.distinct("category") if c is not None]
    groups = categories + [OVERALL]
    slices = _slices(obs)
    out = TidyTable(SUMMARY_COLUMNS)
    for metric in metrics:
        for cat in groups:
            ref = slices.get((metric, vs, cat), {}) if vs in mechanisms else {}
            for mech in mechanisms:
                cells = slices.get((metric, mech, cat))
                if not cells:
                    continue
                values = list(cells.values())
                ci = bootstrap_ci(
                    values, confidence=confidence,
                    n_resamples=n_resamples, seed=bootstrap_seed,
                )
                p_perm = p_sign = None
                if ref and mech != vs:
                    shared = sorted(set(cells) & set(ref))
                    if len(shared) >= 2:
                        a = [cells[k] for k in shared]
                        r = [ref[k] for k in shared]
                        p_perm = paired_permutation_test(
                            a, r, n_resamples=n_resamples, seed=bootstrap_seed
                        ).p_value
                        p_sign = sign_test(a, r).p_value
                out.rows.append({
                    "figure": "analysis",
                    "category": cat,
                    "mechanism": mech,
                    "metric": metric,
                    "n": ci.n,
                    "mean": ci.stat,
                    "ci_lo": ci.lo,
                    "ci_hi": ci.hi,
                    "p_perm": p_perm,
                    "p_sign": p_sign,
                    "vs": vs if mech != vs else None,
                })
    return out


@dataclass(frozen=True)
class AnalysisResult:
    """The three artifacts of one multi-seed analysis."""

    observations: TidyTable
    summary: TidyTable
    spec: dict
    seeds: tuple[int, ...]
    scale: str
    vs: str


def run_analysis(
    mechanisms: Sequence[str],
    sc,
    *,
    n_seeds: int = 3,
    seeds: Sequence[int] | None = None,
    vs: str = "pt",
    metrics: Sequence[str] = DEFAULT_METRICS,
    chart_metric: str = "hs_norm",
    confidence: float = 0.95,
    n_resamples: int = 2000,
    bootstrap_seed: int = 0,
    session=None,
) -> AnalysisResult:
    """End-to-end multi-seed analysis for ``mechanisms`` at scale ``sc``."""
    axis = tuple(seeds) if seeds is not None else seed_axis(sc.seed, n_seeds)
    obs = collect_observations(mechanisms, sc, seeds=axis, session=session)
    summary = summarize(
        obs, metrics=metrics, vs=vs, confidence=confidence,
        n_resamples=n_resamples, bootstrap_seed=bootstrap_seed,
    )
    chart_rows = summary.filter(metric=chart_metric)
    spec = _vega.ci_bar_chart(
        chart_rows,
        title=f"{chart_metric} with {int(confidence * 100)}% bootstrap CIs "
              f"({len(axis)} seed{'s' if len(axis) != 1 else ''})",
        fig_id="analysis",
        schema_version=TIDY_SCHEMA_VERSION,
        x="category", x_offset="mechanism", color="mechanism",
        y_title=chart_metric,
    )
    return AnalysisResult(obs, summary, spec, axis, sc.name, vs)


def write_analysis(result: AnalysisResult, out_dir: str | Path) -> dict[str, Path]:
    """Emit ``observations.csv``, ``summary.csv``, ``summary.vl.json``
    and a schema-versioned ``manifest.json`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "observations.csv": out_dir / "observations.csv",
        "summary.csv": out_dir / "summary.csv",
        "summary.vl.json": out_dir / "summary.vl.json",
        "manifest.json": out_dir / "manifest.json",
    }
    paths["observations.csv"].write_text(result.observations.to_csv())
    paths["summary.csv"].write_text(result.summary.to_csv())
    paths["summary.vl.json"].write_text(json.dumps(result.spec, sort_keys=True, indent=2) + "\n")
    manifest = {
        "tidy_schema": TIDY_SCHEMA_VERSION,
        "scale": result.scale,
        "seeds": list(result.seeds),
        "vs": result.vs,
        "observations": len(result.observations),
        "summary_rows": len(result.summary),
    }
    paths["manifest.json"].write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return paths
