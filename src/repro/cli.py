"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``benchmarks``            list the workload registry with class flags
``classify <name>``       profile one benchmark (Figs. 1-3 criteria)
``mixes [--category C]``  show the generated workload mixes
``run [...]``             evaluate mechanisms on workloads of a category
``figure <id>``           regenerate one paper figure/table
``figures [ids...]``      emit canonical CSV + Vega-Lite artifacts per figure
``analyze [...]``         multi-seed sweep with bootstrap CIs and paired tests
``trace [...]``           render per-epoch decision timelines for one run
``chaos [...]``           run seeded fault-injection scenarios (CI gate)
``serve [...]``           run the experiment service (JSON-lines, localhost)
``cache stats|clear``     inspect or wipe the on-disk result cache

``run`` and ``figure`` go through the experiment engine: results are
cached on disk (``REPRO_CACHE_DIR``) and cache misses fan out over
``--workers`` processes (``REPRO_WORKERS``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.artifacts import FIGURE_IDS
from repro.experiments.config import SCALES, get_scale
from repro.experiments.report import render_table, render_trace_timeline
from repro.workloads.mixes import CATEGORIES, make_mixes
from repro.workloads.speclike import BENCHMARKS, benchmark


def _add_scale(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", choices=sorted(SCALES), default=None,
                   help="experiment scale (default: $REPRO_SCALE or tiny)")


def _workers(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


_workers.__name__ = "int"  # argparse: "invalid int value", not "_workers"


def _engine_name(value: str) -> str:
    from repro.sim.engines import ENGINE_AUTO, EngineSelectionError, get_engine

    if value != ENGINE_AUTO:
        try:
            get_engine(value)
        except EngineSelectionError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return value


_engine_name.__name__ = "engine"


def _add_engine(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=_workers, default=None,
                   help="parallel simulation processes (default: $REPRO_WORKERS or CPUs)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    p.add_argument("--no-cache", action="store_true",
                   help="keep results in memory only for this invocation")
    p.add_argument("--engine", type=_engine_name, default=None,
                   help="simulation engine from the repro.sim.engines registry "
                        "(default: $REPRO_SIM_ENGINE or auto; results are "
                        "bit-identical across engines)")


def _make_session(args):
    from repro.experiments.engine import ExperimentSession, default_cache_dir, set_default_session

    engine = getattr(args, "engine", None)
    if engine is not None:
        # Pool workers resolve their engine from the environment; the
        # session object itself prefers the explicit argument.
        import os

        from repro.sim.engines import ENV_VAR

        os.environ[ENV_VAR] = engine
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    session = ExperimentSession(
        cache_dir=cache_dir,
        max_workers=args.workers,
        engine=engine,
        progress=lambda rec, done, total: print(
            f"[{done}/{total}] {'cached' if rec.cached else f'{rec.seconds:5.1f}s'}  {rec.label}",
            file=sys.stderr,
        ),
    )
    # Module-level helpers (``repro.run`` and friends) follow the same session.
    set_default_session(session)
    return session


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CMM reproduction: prefetch control + cache partitioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("benchmarks", help="list the benchmark registry")

    p = sub.add_parser("classify", help="profile and classify one benchmark")
    p.add_argument("name", help="benchmark name (see `repro benchmarks`)")
    _add_scale(p)

    p = sub.add_parser("mixes", help="show generated workload mixes")
    p.add_argument("--category", choices=CATEGORIES, default=None)
    _add_scale(p)

    p = sub.add_parser("run", help="evaluate mechanisms on one category")
    p.add_argument("--category", choices=CATEGORIES, default="pref_agg")
    p.add_argument("--mechanism", action="append", default=None,
                   help="repeatable; default: cmm-a")
    p.add_argument("--workloads", type=int, default=None,
                   help="number of mixes (default: scale's setting)")
    _add_scale(p)
    _add_engine(p)

    p = sub.add_parser("figure", help="regenerate one paper figure/table")
    p.add_argument("id", choices=FIGURE_IDS)
    _add_scale(p)
    _add_engine(p)

    p = sub.add_parser("figures", help="emit canonical figure artifacts "
                                       "(tidy CSV + Vega-Lite JSON per figure)")
    p.add_argument("ids", nargs="*", metavar="id",
                   help="figure ids (default: every registered figure)")
    p.add_argument("--out", default="artifacts/figures",
                   help="output directory (default: artifacts/figures)")
    p.add_argument("--check", default=None, metavar="GOLDEN_DIR",
                   help="diff the produced artifacts against a committed golden set; "
                        "non-zero exit on any difference")
    p.add_argument("--png", action="store_true",
                   help="also render PNGs (needs the optional vl-convert-python package)")
    _add_scale(p)
    _add_engine(p)

    p = sub.add_parser("analyze", help="multi-seed analysis: bootstrap CIs and "
                                       "paired significance tests per mechanism")
    p.add_argument("--seeds", type=int, default=3,
                   help="number of seeds, starting at the scale's default (default: 3)")
    p.add_argument("--mechanism", action="append", default=None,
                   help="repeatable; default: all seven paper mechanisms")
    p.add_argument("--vs", default="pt",
                   help="reference mechanism for the paired tests (default: pt)")
    p.add_argument("--out", default="artifacts/analysis",
                   help="output directory (default: artifacts/analysis)")
    p.add_argument("--resamples", type=int, default=2000,
                   help="bootstrap/permutation resamples (default: 2000)")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="CI confidence level (default: 0.95)")
    _add_scale(p)
    _add_engine(p)

    p = sub.add_parser("trace", help="render per-epoch decision timelines for one run")
    p.add_argument("--mechanism", default="cmm-a")
    p.add_argument("--category", choices=CATEGORIES, default="pref_agg")
    p.add_argument("--mix", type=int, default=0,
                   help="mix index within the category (see `repro mixes`)")
    p.add_argument("--epoch", type=int, default=None, help="show only this epoch")
    p.add_argument("--json", action="store_true", help="emit the raw JSON trace records")
    _add_scale(p)
    _add_engine(p)

    p = sub.add_parser("chaos", help="run seeded fault-injection scenarios against the "
                                     "controller or the experiment service")
    p.add_argument("--scenario", default="all",
                   help="controller scenario (repro.platform.faults.SCENARIOS), 'all' "
                        "(every controller scenario), or 'service'")
    p.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p.add_argument("--mechanism", default="cmm-a")
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--category", choices=CATEGORIES, default="pref_agg")
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent clients for the service scenario")
    _add_scale(p)

    p = sub.add_parser("serve", help="run the experiment service front door")
    p.add_argument("--host", default="127.0.0.1", help="TCP bind host (localhost only)")
    p.add_argument("--port", type=int, default=0, help="TCP port (0 picks a free one)")
    p.add_argument("--unix", default=None, metavar="PATH",
                   help="serve on a unix socket instead of TCP")
    p.add_argument("--resume", action="store_true",
                   help="replay unsealed sweep journals before accepting clients")
    p.add_argument("--journal-dir", default=None,
                   help="sweep journal directory (default: <cache-dir>/journal)")
    _add_engine(p)

    p = sub.add_parser("cache", help="inspect or clear the on-disk result cache")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)")

    return parser


def cmd_benchmarks(_args) -> int:
    rows = []
    for name, s in BENCHMARKS.items():
        rows.append([
            name,
            "yes" if s.pref_aggressive else "",
            "yes" if s.pref_friendly else "",
            "yes" if s.llc_sensitive else "",
            f"{s.inst_per_mem:.1f}",
            f"{s.mlp:.1f}",
        ])
    print(render_table(
        ["benchmark", "aggressive", "friendly", "llc-sensitive", "inst/mem", "mlp"],
        rows, title=f"{len(rows)} benchmarks"))
    return 0


def cmd_classify(args) -> int:
    from repro.workloads.classify import DEFAULT_WAY_SWEEP, classify, profile_benchmark

    try:
        spec = benchmark(args.name)
    except KeyError as e:
        print(e, file=sys.stderr)
        return 2
    sc = get_scale(args.scale)
    prof = profile_benchmark(spec, sc.params(), sc.profile_accesses, way_sweep=DEFAULT_WAY_SWEEP)
    c = classify(prof)
    print(f"benchmark           : {spec.name}")
    print(f"IPC (prefetch on)   : {prof.ipc_on:.3f}")
    print(f"IPC (prefetch off)  : {prof.ipc_off:.3f}")
    print(f"prefetch speedup    : {prof.prefetch_speedup:+.1%}")
    print(f"demand BW (off)     : {prof.demand_bw_off_mbs:.0f} MB/s")
    print(f"BW increase         : {prof.bw_increase:+.1%}")
    print(f"min ways for 80%    : {prof.min_ways_for_frac(0.8)}")
    print(f"classes             : aggressive={c.pref_aggressive} "
          f"friendly={c.pref_friendly} llc_sensitive={c.llc_sensitive}")
    ok = (c.pref_aggressive, c.pref_friendly, c.llc_sensitive) == (
        spec.pref_aggressive, spec.pref_friendly, spec.llc_sensitive)
    print(f"matches registry    : {ok}")
    return 0


def cmd_mixes(args) -> int:
    sc = get_scale(args.scale)
    cats = [args.category] if args.category else list(CATEGORIES)
    rows = []
    for cat in cats:
        for mix in make_mixes(cat, sc.workloads_per_category, seed=sc.seed):
            rows.append([mix.name, ", ".join(mix.benchmarks)])
    print(render_table(["workload", "benchmarks"], rows))
    return 0


def cmd_run(args) -> int:
    sc = get_scale(args.scale)
    session = _make_session(args)
    mechanisms = tuple(args.mechanism or ["cmm-a"])
    count = args.workloads or sc.workloads_per_category
    mixes = make_mixes(args.category, count, seed=sc.seed)
    rows = []
    for ev in session.sweep(mechanisms, sc, mixes=mixes):
        for mech in mechanisms:
            m = ev.metrics[mech]
            rows.append([ev.mix.name, mech, m["hs_norm"], m["ws"], m["worst"], m["bw_norm"]])
    print(render_table(
        ["workload", "mechanism", "HS norm", "WS", "worst-case", "BW norm"], rows,
        title=f"{args.category} @ {sc.name}"))
    return 0


def cmd_figure(args) -> int:
    from repro.analysis.artifacts import build_artifacts, get_figure_spec

    sc = get_scale(args.scale)
    session = _make_session(args)
    spec = get_figure_spec(args.id)
    (built,) = build_artifacts([args.id], sc, session=session)
    headers, rows = spec.wide(built.table)
    print(render_table(headers, rows, title=f"{spec.title} @ {sc.name}"))
    return 0


def cmd_figures(args) -> int:
    from repro.analysis import build_artifacts, check_artifacts, write_artifacts
    from repro.analysis.render import RenderUnavailable

    if args.check and not Path(args.check).is_dir():
        print(f"--check: {args.check} is not a directory", file=sys.stderr)
        return 2
    sc = get_scale(args.scale)
    session = _make_session(args)
    try:
        built = build_artifacts(args.ids or None, sc, session=session)
    except KeyError as e:
        print(e.args[0] if e.args else e, file=sys.stderr)
        return 2
    try:
        paths = write_artifacts(built, args.out, scale=sc.name, seed=sc.seed, png=args.png)
    except RenderUnavailable as e:
        print(e, file=sys.stderr)
        return 2
    print(f"wrote {len(paths)} artifacts for {len(built)} figure(s) to {args.out}")
    if args.check:
        problems = check_artifacts(args.out, args.check)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        print(f"artifacts match goldens in {args.check}")
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import ALL_MECHS, run_analysis, write_analysis

    sc = get_scale(args.scale)
    session = _make_session(args)
    mechanisms = tuple(args.mechanism or ALL_MECHS)
    if args.vs not in mechanisms:
        print(f"--vs {args.vs!r} must be one of the analyzed mechanisms "
              f"({', '.join(mechanisms)})", file=sys.stderr)
        return 2
    try:
        result = run_analysis(
            mechanisms, sc, n_seeds=args.seeds, vs=args.vs,
            confidence=args.confidence, n_resamples=args.resamples, session=session,
        )
    except ValueError as e:
        print(e, file=sys.stderr)
        return 2
    paths = write_analysis(result, args.out)
    headline = result.summary.filter(metric="hs_norm")
    rows = [
        [r["category"], r["mechanism"], r["n"], r["mean"], r["ci_lo"], r["ci_hi"],
         "" if r["p_perm"] is None else r["p_perm"]]
        for r in headline
    ]
    print(render_table(
        ["category", "mechanism", "n", "mean", "ci lo", "ci hi", f"p vs {args.vs}"],
        rows, title=f"hs_norm over seeds {list(result.seeds)} @ {sc.name}"))
    print(f"wrote {len(paths)} artifacts to {args.out}")
    return 0


def cmd_trace(args) -> int:
    import json

    from repro.core.trace import traces_to_dicts

    sc = get_scale(args.scale)
    session = _make_session(args)
    mixes = make_mixes(args.category, sc.workloads_per_category, seed=sc.seed)
    if not 0 <= args.mix < len(mixes):
        print(f"--mix must be in [0, {len(mixes) - 1}] for {args.category} @ {sc.name}",
              file=sys.stderr)
        return 2
    mix = mixes[args.mix]
    traces = session.traces(mix, args.mechanism, sc)
    if args.epoch is not None:
        traces = [t for t in traces if t.epoch == args.epoch]
        if not traces:
            print(f"no epoch {args.epoch} in this {sc.n_epochs}-epoch run", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(traces_to_dicts(traces), indent=2))
    else:
        print(render_trace_timeline(
            traces, title=f"{mix.name} / {args.mechanism} @ {sc.name}"))
    return 0


def cmd_chaos(args) -> int:
    from repro.experiments.chaos import run_chaos_scenario, run_service_chaos_scenario
    from repro.platform.faults import SCENARIOS

    ctrl: list[str] = []
    service = args.scenario == "service"
    if args.scenario == "all":
        ctrl = sorted(SCENARIOS)
    elif args.scenario in SCENARIOS:
        ctrl = [args.scenario]
    elif not service:
        print(f"unknown scenario {args.scenario!r}; choose from "
              f"{', '.join(sorted(SCENARIOS))}, 'all', or 'service'",
              file=sys.stderr)
        return 2
    sc = get_scale(args.scale)
    failed = 0
    for name in ctrl:
        report = run_chaos_scenario(
            name, args.seed, mechanism=args.mechanism,
            n_epochs=args.epochs, category=args.category, sc=sc,
        )
        print(report.summary())
        if not report.ok:
            failed += 1
    if service:
        sreport = run_service_chaos_scenario(args.seed, clients=args.clients, sc=sc)
        print(sreport.summary())
        if not sreport.ok:
            failed += 1
    total = len(ctrl) + int(service)
    print(f"{total - failed}/{total} scenarios ok")
    return 1 if failed else 0


def cmd_serve(args) -> int:
    import asyncio
    import os

    from repro.experiments.engine import ExperimentSession, ResultCache, default_cache_dir
    from repro.service import ExperimentService
    from repro.service.server import sanitized_run_timeout

    engine = args.engine
    if engine is not None:
        from repro.sim.engines import ENV_VAR

        os.environ[ENV_VAR] = engine
    # A daemon must not crash on a bad environment variable: parse the
    # run timeout fail-soft, warn once, and mask the variable so the
    # session's own strict parse cannot re-raise.
    _timeout, warning = sanitized_run_timeout()
    masked = None
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)
        masked = os.environ.pop("REPRO_RUN_TIMEOUT", None)
    try:
        cache_root = None if args.no_cache else (args.cache_dir or default_cache_dir())
        cache = ResultCache(cache_root)
        session = ExperimentSession(cache=cache, max_workers=args.workers, engine=engine)
    finally:
        if masked is not None:
            os.environ["REPRO_RUN_TIMEOUT"] = masked
    service = ExperimentService(session=session, journal_dir=args.journal_dir)

    def ready(bound) -> None:
        if service.resumed_sweeps:
            print(f"resumed {service.resumed_sweeps} interrupted sweep(s)", file=sys.stderr)
        print(f"repro service listening on {bound}", flush=True)

    try:
        asyncio.run(service.serve(
            host=args.host, port=args.port, unix_path=args.unix,
            resume=args.resume, ready=ready,
        ))
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        session.close()
    return 0


def cmd_cache(args) -> int:
    from repro.experiments.engine import ResultCache, default_cache_dir
    from repro.sim.tracestore import TraceStore

    root = Path(args.cache_dir or default_cache_dir())
    cache = ResultCache(root)
    store = TraceStore(root / "tracestore", mode="disk")
    if args.action == "clear":
        removed = cache.clear()
        traces_removed = store.clear()
        print(f"removed {removed} cached results from {cache.root}")
        print(f"removed {traces_removed} materialized traces from {store.root}")
        return 0
    s = cache.stats()
    t = store.stats()
    print(f"cache root : {s.root}")
    print(f"entries    : {s.entries}")
    print(f"size       : {s.bytes / 1e6:.2f} MB")
    print(f"corrupt    : {s.corrupt}")
    for kind in sorted(s.by_kind):
        print(f"  {kind:<10}: {s.by_kind[kind]}")
    print(f"trace store: {t.root}")
    print(f"  traces   : {t.entries}")
    print(f"  size     : {t.bytes / 1e6:.2f} MB")
    print(f"  fallbacks: {t.fallbacks}")
    from repro.sim.batch import degradation_count

    print("batch engine:")
    print(f"  degradations: {degradation_count()}")
    return 0


COMMANDS = {
    "benchmarks": cmd_benchmarks,
    "classify": cmd_classify,
    "mixes": cmd_mixes,
    "run": cmd_run,
    "figure": cmd_figure,
    "figures": cmd_figures,
    "analyze": cmd_analyze,
    "trace": cmd_trace,
    "chaos": cmd_chaos,
    "serve": cmd_serve,
    "cache": cmd_cache,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
