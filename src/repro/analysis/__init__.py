"""Declarative analysis layer: tidy tables, statistics, figure artifacts.

Three layers, each usable alone:

* :mod:`repro.analysis.tables` — long-form :class:`TidyTable` rows with
  a fixed schema and a round-trip-safe CSV codec (:class:`TableBuilder`
  accumulates them with validation);
* :mod:`repro.analysis.stats` — deterministic seeded bootstrap CIs,
  paired permutation / sign tests, and the fairness metrics (hm-IPC,
  fair slowdown, unfairness);
* :mod:`repro.analysis.artifacts` / :mod:`repro.analysis.vega` — one
  :class:`FigureSpec` per paper figure, emitting canonical ``.csv`` +
  ``.vl.json`` artifacts (optional PNG via :mod:`repro.analysis.render`).

:mod:`repro.analysis.analyze` composes them into the multi-seed
pipeline behind ``repro analyze``; :mod:`repro.analysis.format` is the
shared presentation formatter every human-facing table renders through.

See ``docs/analysis.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.analyze": (
        "AnalysisResult", "collect_observations", "run_analysis", "seed_axis",
        "summarize", "write_analysis",
    ),
    "repro.analysis.artifacts": (
        "ALL_MECHS", "ARTIFACT_SCHEMA_VERSION", "CMM_MECHS", "CP_MECHS", "FIGURE_IDS",
        "BuiltFigure", "FigureSpec", "build_artifacts", "check_artifacts",
        "get_figure_spec", "write_artifacts",
    ),
    "repro.analysis.format": ("fmt_value", "render_ascii_table", "render_markdown_table"),
    "repro.analysis.stats": (
        "BootstrapCI", "PairedTest", "bootstrap_ci", "fair_slowdown", "hm_ipc",
        "paired_permutation_test", "sign_test", "slowdowns", "unfairness",
    ),
    "repro.analysis.tables": (
        "SCHEMA_COLUMNS", "TIDY_SCHEMA_VERSION", "TableBuilder", "TidyTable",
        "decode_cell", "encode_cell", "flatten_row", "unflatten_row",
    ),
})

__all__ = [
    "ALL_MECHS",
    "ARTIFACT_SCHEMA_VERSION",
    "AnalysisResult",
    "BootstrapCI",
    "BuiltFigure",
    "CMM_MECHS",
    "CP_MECHS",
    "FIGURE_IDS",
    "FigureSpec",
    "PairedTest",
    "SCHEMA_COLUMNS",
    "TIDY_SCHEMA_VERSION",
    "TableBuilder",
    "TidyTable",
    "bootstrap_ci",
    "build_artifacts",
    "check_artifacts",
    "collect_observations",
    "decode_cell",
    "encode_cell",
    "fair_slowdown",
    "flatten_row",
    "fmt_value",
    "get_figure_spec",
    "hm_ipc",
    "paired_permutation_test",
    "render_ascii_table",
    "render_markdown_table",
    "run_analysis",
    "seed_axis",
    "sign_test",
    "slowdowns",
    "summarize",
    "unfairness",
    "unflatten_row",
    "write_analysis",
    "write_artifacts",
]
