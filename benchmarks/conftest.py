"""Shared fixtures for the figure-regeneration benchmarks.

Each ``bench_figNN_*.py`` regenerates one paper table/figure through
the figure registry (:func:`repro.analysis.build_artifacts`) and
asserts its qualitative *shape* (who wins, roughly by how much) on the
figure's tidy table.  Absolute numbers are simulator units — see
EXPERIMENTS.md.

Scale comes from ``REPRO_SCALE`` (default ``tiny``); every figure runs
through the default session, whose result cache is shared by the whole
pytest session, so the first benchmark touching a mechanism pays for
its runs and later figures that reuse the same runs replay them.
Every benchmark is single-round (``benchmark.pedantic(rounds=1)``):
these are regeneration harnesses, not micro-benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import build_artifacts
from repro.analysis.tables import TidyTable
from repro.experiments.config import get_scale
from repro.experiments.engine import KIND_MECHANISM, PlannedRun, RunSpec, default_session
from repro.experiments.report import render_table
from repro.metrics.speedup import harmonic_speedup


@pytest.fixture(scope="session")
def scale():
    return get_scale()


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture
def figure(run_once, scale):
    """Build one registered figure once under timing; returns its tidy table."""

    def build(fig_id: str) -> TidyTable:
        (built,) = run_once(build_artifacts, [fig_id], scale)
        return built.table

    return build


def wide_rows(table: TidyTable, index: str, column: str = "metric", **eq: object) -> list[dict]:
    """The rows matching ``eq`` folded to one dict per ``index`` cell:
    each ``column`` cell maps to its value, and the row's other cells
    (category, benchmark, ...) ride along."""
    out: dict = {}
    for r in table.filter(**eq):
        row = out.setdefault(r[index], {k: v for k, v in r.items() if k not in (column, "value")})
        row[r[column]] = r["value"]
    return list(out.values())


def category_means(table: TidyTable, metric: str) -> dict[str, dict[str, float]]:
    """``{category: {mechanism: mean}}`` of a mechanism figure's metric."""
    headers, rows = table.filter(metric=f"{metric}_mean").pivot("category", "mechanism")
    return {row[0]: dict(zip(headers[1:], row[1:])) for row in rows}


def print_category_means(table: TidyTable, metric: str) -> None:
    """Dump a mechanism figure's category means (the paper's grey bars)."""
    headers, rows = table.filter(metric=f"{metric}_mean").pivot("category", "mechanism")
    print()
    print(render_table(headers, rows, title=f"{table.distinct('figure')[0]}[{metric}] category means"))


def ablation_means(scale, mixes, cells: dict) -> dict:
    """``{cell: mean over mixes of HS(cell's run) / HS(baseline)}``.

    ``cells`` maps each cell to the ``(mechanism, params, sc)`` of its
    run; alone and baseline runs are at ``scale``.  One ``execute`` runs
    the whole plan (alone, baseline, and every cell over every mix) on
    the default session; each cell is then read back as a cache replay.
    """
    session = default_session()
    plan = RunSpec(mechanisms=(), mixes=tuple(mixes)).expand(scale)
    plan += [
        PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism=mechanism, params=params)
        for mechanism, params, sc in cells.values() for mix in mixes
    ]
    session.execute(plan)
    means = {}
    for cell, (mechanism, params, sc) in cells.items():
        vals = []
        for mix in mixes:
            alone = session.alone_ipcs(mix, scale)
            base = session.run(mix, "baseline", scale)
            res = session.run(mix, mechanism, sc, params=params)
            vals.append(harmonic_speedup(res.ipc, alone) / harmonic_speedup(base.ipc, alone))
        means[cell] = float(np.mean(vals))
    return means
