"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per repetition because the code under
test memoises at module level (``repro.experiments.figures._PROFILES`` /
``_STORES``): a second "cold" iteration in the same process is silently
warm.  The child builds its inputs from ``--seed``, runs the timed
region, checks its outputs, proves it left nothing behind, and prints
one JSON object as the last line of stdout.

Layers are measured from outside: the only thing this file does to
``repro`` is call its public functions and, in ``--mode traced``,
install the wrappers of :mod:`perf.layers` for the length of the timed
region.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import multiprocessing
import random
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# `perf.trace` must not shadow the stdlib `trace` module, so the package
# is imported by its qualified name and the script directory dropped.
sys.path[0] = str(HERE.parent)
sys.path.insert(1, str(ROOT / "src"))

from perf import layers, trace  # noqa: E402

GOLDENS = ROOT / "tests" / "goldens" / "analysis" / "tiny"
DEFAULT_SEED = 2019

#: Workload sizes.  ``full`` is what BENCHMARK.json measures; ``quick``
#: is a smoke test whose numbers are not comparable with it.
SIZES = {
    "full": {
        "figures": ["table1", "fig01", "fig05", "fig07"],
        "sweep_categories": ("pref_fri", "pref_agg", "pref_unfri", "pref_no_agg"),
        "static_categories": ("pref_agg", "pref_unfri"),
        "static_accesses": 24576,
        # fig13 first: it needs every mechanism, so each mix executes as
        # one lockstep group and the other eight figures replay from it.
        "replay_figures": ["fig13", "fig14", "fig15", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12"],
        "replay_analyze": ["--seeds", "2", "--mechanism", "pt", "--mechanism", "cmm-a"],
        "service_categories": ("pref_agg", "pref_unfri"),
        "service_submits": 750,
    },
    "quick": {
        "figures": ["fig07"],
        "sweep_categories": ("pref_agg",),
        "static_categories": ("pref_agg",),
        "static_accesses": 4096,
        "replay_figures": ["fig07", "fig08"],
        "replay_analyze": ["--seeds", "1", "--mechanism", "pt"],
        "service_categories": ("pref_agg",),
        "service_submits": 100,
    },
}


class Region:
    """The timed region of one repetition, possibly in several pieces."""

    def __init__(self, traced: bool) -> None:
        self.wall_s = 0.0
        self.origin = time.perf_counter()
        self.tracer = trace.Tracer() if traced else None

    @contextlib.contextmanager
    def timed(self, span: str | None = None):
        manual = self.tracer.span(span) if self.tracer and span else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with manual:
                yield
        finally:
            self.wall_s += time.perf_counter() - start

    def install(self) -> None:
        if self.tracer is not None:
            layers.install(self.tracer)

    def uninstall(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()


@dataclasses.dataclass
class Outcome:
    ops: int
    ops_failed: int
    digest: str
    extra: dict = dataclasses.field(default_factory=dict)
    #: process-level counters only the workload can read (see layers.metrics)
    process: dict = dataclasses.field(default_factory=dict)


def sha256_of(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def reseeded_mixes(categories, seed: int):
    """One mix per category with the repo's default composition and
    every core's trace re-seeded from ``seed``.

    Which benchmarks share a mix decides how long it takes to simulate
    (6-8 % between compositions on this host), so the composition stays
    that of seed 2019 and ``seed`` changes every access stream instead:
    different inputs and digests, comparable cost.
    """
    from repro.workloads.mixes import make_mixes

    return [
        dataclasses.replace(mix, seed=(mix.seed + seed - DEFAULT_SEED) % 2**31)
        for cat in categories
        for mix in make_mixes(cat, 1, seed=DEFAULT_SEED)
    ]


def percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ------------------------------------------------------------ CLI workloads


def _cli(region: Region, argv_list: list[list[str]], log: Path) -> tuple[int, int]:
    """``import repro.cli`` plus one ``main(argv)`` per entry, all timed.

    Returns ``(non-zero exits, runs the sessions executed)``.  The CLI
    leaves its session installed as the process default and never closes
    it; it is read for the executed-run count and closed here.
    """
    with region.timed("cli.import"):
        import repro.cli
    from repro.experiments.engine import default_session, set_default_session

    region.install()
    bad = executed = 0
    with open(log, "a") as out, contextlib.redirect_stdout(out):
        for argv in argv_list:
            with region.timed():
                bad += repro.cli.main(argv) != 0
            session = default_session()
            executed += sum(1 for rec in session.records if not rec.cached)
            session.close()
            set_default_session(None)
    region.uninstall()
    return bad, executed


def _artifacts(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != "manifest.json")


def _golden_mismatches(figures_dir: Path) -> int:
    return sum(
        1 for p in _artifacts(figures_dir)
        if not (GOLDENS / p.name).is_file() or (GOLDENS / p.name).read_bytes() != p.read_bytes()
    )


def figures_cold(region: Region, args, size: dict) -> Outcome:
    out = args.work / "figures"
    bad, executed = _cli(region, [
        ["figures", *size["figures"], "--scale", "tiny", "--out", str(out), "--workers", "1"],
    ], args.work / "cli.log")
    produced = _artifacts(out) if out.is_dir() else []
    expected = 2 * len(size["figures"])
    failed = expected if bad or len(produced) != expected else _golden_mismatches(out)
    return Outcome(expected, failed, sha256_of(p.read_bytes() for p in produced),
                   extra={"runs_executed": executed})


def _replay_argv(size: dict, out: Path) -> list[list[str]]:
    common = ["--scale", "tiny", "--workers", "1"]
    return [
        ["figures", *size["replay_figures"], "--out", str(out / "figures"), *common],
        ["analyze", *size["replay_analyze"], "--out", str(out / "analysis"), *common],
    ]


def replay_populate(region: Region, args, size: dict) -> Outcome:
    """Set-up for ``replay_warm``: fill the cache the timed children replay."""
    bad, executed = _cli(region, _replay_argv(size, args.work / "populate"), args.work / "cli.log")
    return Outcome(1, int(bool(bad)), "", extra={"runs_executed": executed})


def replay_warm(region: Region, args, size: dict) -> Outcome:
    out = args.work / "replay"
    bad, executed = _cli(region, _replay_argv(size, out), args.work / "cli.log")
    produced = _artifacts(out) if out.is_dir() else []
    expected = 2 * len(size["replay_figures"]) + 3
    failed = expected if bad or executed or len(produced) != expected \
        else _golden_mismatches(out / "figures")
    return Outcome(expected, failed, sha256_of(p.read_bytes() for p in produced),
                   extra={"runs_executed": executed})


# -------------------------------------------------------- library workloads


def sweep_cold(region: Region, args, size: dict) -> Outcome:
    from repro import ExperimentSession, get_scale, policy_names

    sc = get_scale("tiny")
    mixes = reseeded_mixes(size["sweep_categories"], args.seed)
    with ExperimentSession(cache_dir=args.work / "cache", max_workers=1, trace_cache="memory") as session:
        region.install()
        with region.timed():
            evals = session.sweep(tuple(policy_names()), sc, mixes=mixes)
        region.uninstall()
        planned = {rec.key for rec in session.records}
        failed = {rec.key for rec in session.records if rec.error}
    digest = sha256_of(json.dumps([ev.mix.name, ev.mix.seed, ev.metrics], sort_keys=True) for ev in evals)
    return Outcome(len(planned), len(failed) + len(mixes) - len(evals), digest)


def _static_specs(mix, sc, n_accesses: int) -> list:
    """Every CAT way split x {alternating, halved} CLOS layouts,
    prefetchers on — the Fig. 3 shape, and the widest static sweep."""
    from repro import BatchRunSpec

    ways = sc.params().llc.ways
    alternating = tuple(c % 2 for c in range(mix.n_cores))
    halved = tuple(int(c >= mix.n_cores // 2) for c in range(mix.n_cores))
    return [
        BatchRunSpec(mix=mix, n_accesses=n_accesses, masks=(0x0,) * mix.n_cores,
                     clos_cbms=((0, (1 << k) - 1), (1, ((1 << ways) - 1) ^ ((1 << k) - 1))),
                     core_clos=layout)
        for k in range(1, ways)
        for layout in (alternating, halved)
    ]


def _scalar_static(spec, sc, store):
    """``spec`` on its own scalar ``fast`` machine: the bit-identity oracle."""
    from repro.experiments.runner import build_machine

    m = build_machine(spec.mix, sc, trace_store=store, engine="fast")
    for cpu, mask in enumerate(spec.masks):
        m.prefetch_msr.set_mask(cpu, mask)
    for clos, cbm in spec.clos_cbms:
        m.cat.set_cbm(clos, cbm)
    for cpu, clos in enumerate(spec.core_clos):
        m.cat.assign_core(cpu, clos)
    snap = m.pmu.snapshot()
    m.run_accesses(spec.n_accesses)
    return m.pmu.delta_since(snap)


def static_sweep(region: Region, args, size: dict) -> Outcome:
    import repro
    from repro.sim.tracestore import TraceStore

    sc = repro.ScaleConfig(name="perf-static", llc_scale=16, quantum=512)
    specs = [
        spec
        for mix in reseeded_mixes(size["static_categories"], args.seed)
        for spec in _static_specs(mix, sc, size["static_accesses"])
    ]
    store = TraceStore(None, mode="memory")
    try:
        region.install()
        with region.timed():
            # looked up at call time, so the traced run's wrapper is the one called
            stats = repro.simulate_batch(specs, sc, trace_store=store)
        region.uninstall()
        failed = 0
        if region.tracer is not None:
            # A speed-up that changes simulated statistics must not pass.
            for i in random.Random(args.seed).sample(range(len(specs)), 4):
                ref = _scalar_static(specs[i], sc, store)
                same = (stats[i].totals == ref.deltas).all() and stats[i].wall_cycles == ref.wall_cycles
                failed += not same
    finally:
        store.close()
    digest = sha256_of(part for s in stats for part in (s.totals.tobytes(), repr(s.wall_cycles)))
    return Outcome(len(specs), failed, digest)


def service_mixed(region: Region, args, size: dict) -> Outcome:
    """Two closed-loop in-process clients against one service.

    Phase A (cold): both submit the same plan in batches of 8, client 1
    in reverse order, so their batches overlap and the scheduler has
    keys to deduplicate.  Phase B (warm): each issues single-run submits
    over the now-cached keys; their latencies pool into p50/p99.
    """
    from repro import ExperimentService, ExperimentSession, ServiceClient, get_scale, policy_names
    from repro.experiments.engine import RunSpec

    sc = get_scale("tiny")
    mixes = tuple(reseeded_mixes(size["service_categories"], args.seed))
    plan = RunSpec(mechanisms=tuple(policy_names()), mixes=mixes).expand(sc)
    n_clients = 2
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    payloads: list[dict] = [{} for _ in range(n_clients)]
    bad = [0] * n_clients
    submits = [0] * n_clients

    def submit(i: int, client, runs) -> None:
        submits[i] += 1
        resp = client.submit(runs)
        results = resp.get("results", ())
        if not resp.get("ok") or not all(r.get("ok") for r in results):
            bad[i] += 1
        for r in results:
            if r.get("ok"):
                payloads[i][r["key"]] = r["payload"]

    def phase_a(i: int, client) -> None:
        mine = plan if i == 0 else plan[::-1]
        for j in range(0, len(mine), 8):
            submit(i, client, mine[j:j + 8])

    def phase_b(i: int, client) -> None:
        rng = random.Random(args.seed * n_clients + i)
        for _ in range(size["service_submits"]):
            run = plan[rng.randrange(len(plan))]
            start = time.perf_counter()
            submit(i, client, [run])
            latencies[i].append(time.perf_counter() - start)

    with ExperimentSession(cache_dir=args.work / "cache", max_workers=1, trace_cache="memory") as session, \
            ExperimentService(session=session) as service, contextlib.ExitStack() as stack:
        clients = [
            stack.enter_context(ServiceClient(service=service, client_name=f"client{i}"))
            for i in range(n_clients)
        ]
        region.install()
        for phase in (phase_a, phase_b):
            threads = [threading.Thread(target=phase, args=(i, c)) for i, c in enumerate(clients)]
            with region.timed():
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        region.uninstall()
        counters = dict(service.scheduler.counters)
    pooled = sorted(lat for per_client in latencies for lat in per_client)
    agree = all(payloads[0].get(k) == v for k, v in payloads[1].items())
    digest = sha256_of(json.dumps([k, payloads[0][k]], sort_keys=True) for k in sorted(payloads[0]))
    ops = sum(submits)
    failed = ops if not agree or len(payloads[0]) != len(plan) else sum(bad)
    return Outcome(
        ops, failed, digest,
        extra={"submit_p50_ms": 1e3 * percentile(pooled, 0.50),
               "submit_p99_ms": 1e3 * percentile(pooled, 0.99),
               "submit_samples": len(pooled)},
        process={f"scheduler.{k}": v for k, v in counters.items()},
    )


WORKLOADS = {
    layers.FIGURES_COLD: figures_cold,
    layers.SWEEP_COLD: sweep_cold,
    layers.STATIC_SWEEP: static_sweep,
    layers.REPLAY_WARM: replay_warm,
    layers.SERVICE_MIXED: service_mixed,
}


# ----------------------------------------------------------------- epilogue


def residue() -> list[str]:
    """What this process would leave behind; empty when clean.

    Runs after every session and service has been closed by its context
    manager.  ``HOME`` points into the work directory, so a write to the
    default cache (``~/.cache/repro``) would show up here instead of in
    the user's home.
    """
    from repro.sim import tracestore

    found = [f"child process {p.pid}" for p in multiprocessing.active_children()]
    deadline = time.monotonic() + 5.0
    for t in threading.enumerate():
        if t is not threading.main_thread():
            # the event loop's executor thread exits just after loop.close()
            t.join(max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                found.append(f"thread {t.name}")
    found += [f"shm segment {name}" for name in tracestore.shm_residue()]
    default_cache = Path.home() / ".cache" / "repro"
    if default_cache.exists():
        found.append(f"default cache dir {default_cache}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("timed", "traced", "populate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory of this repetition")
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    size = SIZES["quick" if args.quick else "full"]

    region = Region(traced=args.mode == "traced")
    body = replay_populate if args.mode == "populate" else WORKLOADS[args.workload]
    outcome = body(region, args, size)

    from repro.sim import batch, nativekernels, tracestore
    from repro.sim.engines import resolve_engine

    result = {
        "workload": args.workload,
        "wall_s": region.wall_s,
        "ops": outcome.ops,
        "ops_failed": outcome.ops_failed,
        "digest": outcome.digest,
        "extra": outcome.extra,
        "numba": nativekernels.NUMBA_VERSION,
        "engine_auto": resolve_engine("auto").name,
    }
    if batch.degradation_count():
        result["ops_failed"] = outcome.ops  # a degraded default run is a failed run
    if region.tracer is not None:
        process = {
            "tracestore.fallbacks": tracestore.fallback_count(),
            "batch.degradations": batch.degradation_count(),
            "batch.native_fallbacks": nativekernels.native_fallback_count(),
            **outcome.process,
        }
        result["layers"], totals = layers.metrics(region.tracer, region.wall_s, process)
        result["uncalled"] = layers.uncalled(totals, args.workload)
        if args.trace_out is not None:
            region.tracer.dump(args.trace_out, origin=region.origin,
                               workload=args.workload, seed=args.seed, wall_s=region.wall_s)
    result["residue"] = residue()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 1 if result["residue"] else 0


if __name__ == "__main__":
    sys.exit(main())
