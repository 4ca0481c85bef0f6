#!/usr/bin/env python
"""Regenerate every paper table/figure and emit a markdown report.

    python examples/regenerate_figures.py [scale] [--artifacts DIR] > report.md

This is the script that produced the measured numbers recorded in
EXPERIMENTS.md.  It is a thin driver over :mod:`repro.analysis`, the
same path as ``repro figures``: the figure registry builds every
figure's tidy table through one
:class:`~repro.experiments.engine.ExperimentSession` (deduplicated,
parallel on misses, persisted in the on-disk cache), each section
prints the registry's wide view of that table under the figure's
title, and ``--artifacts DIR`` additionally emits the canonical CSV +
Vega-Lite artifact set.  At ``full`` scale the first (cold) pass takes
a while; ``tiny`` finishes in under a minute cold and seconds warm.
"""

import os
import sys
import time

from repro.analysis import build_artifacts, get_figure_spec, render_markdown_table, write_artifacts
from repro.experiments.config import get_scale
from repro.experiments.engine import ExperimentSession

#: Presentation order: alone/profile figures first, then the sweep.
ORDER = ("fig01", "fig02", "fig03", "fig05", "table1",
         "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15")


def main() -> None:
    argv = list(sys.argv[1:])
    artifacts_dir = None
    if "--artifacts" in argv:
        i = argv.index("--artifacts")
        artifacts_dir = argv[i + 1]
        del argv[i:i + 2]
    sc = get_scale(argv[0] if argv else None)
    t0 = time.time()

    def progress(rec, done, total):
        status = "cached" if rec.cached else f"{rec.seconds:5.1f}s"
        print(f"[{done}/{total}] {status}  {rec.label}", file=sys.stderr)

    verbose = bool(os.environ.get("REPRO_PROGRESS"))
    session = ExperimentSession(progress=progress if verbose else None)

    built = build_artifacts(ORDER, sc, session=session)

    print(f"# Regenerated figures (scale = {sc.name})")
    for bf in built:
        spec = get_figure_spec(bf.fig_id)
        print(f"\n## {spec.title}\n")
        print(render_markdown_table(*spec.wide(bf.table)))

    if artifacts_dir:
        paths = write_artifacts(built, artifacts_dir, scale=sc.name, seed=sc.seed)
        print(f"\nwrote {len(paths)} canonical artifacts to {artifacts_dir}", file=sys.stderr)

    hits = sum(1 for r in session.records if r.cached)
    simulated = len(session.records) - hits
    sim_secs = sum(r.seconds for r in session.records)
    print(
        f"\n_(generated in {time.time() - t0:.0f}s: {simulated} runs simulated "
        f"[{sim_secs:.0f}s of simulation], {hits} replayed from cache, "
        f"{session.max_workers} worker(s))_",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
