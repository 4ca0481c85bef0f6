"""Which entry points the traced run wraps, and the per-layer metrics they give.

One row per wrapped entry point: where it lives, the span it records,
and its *home* workloads — the ones on which a zero call count means the
wrapper is not where the code looks the function up any more, which
fails the traced run.  :func:`metrics` turns the spans and counters of
one traced region into every ``per_layer`` metric of ``BENCHMARK.json``
(zero where a layer did not run), so each workload prints the same
names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import trace

FIGURES_COLD, SWEEP_COLD, STATIC_SWEEP, REPLAY_WARM, SERVICE_MIXED = WORKLOADS = (
    "figures_cold", "sweep_cold", "static_sweep", "replay_warm", "service_mixed",
)
COLD = (FIGURES_COLD, SWEEP_COLD, SERVICE_MIXED)
SESSIONS = COLD + (REPLAY_WARM,)
CLI = (FIGURES_COLD, REPLAY_WARM)

#: Mechanisms `controller.share.<m>` is reported for (``repro.policy_names()``).
MECHANISMS = ("baseline", "pt", "dunn", "pref-cp", "pref-cp2", "cmm-a", "cmm-b", "cmm-c", "ppm-group")


@dataclass(frozen=True)
class Target:
    path: str
    span: str
    home: tuple[str, ...]
    tag: Callable | None = None
    after: Callable | None = None
    kind: str = trace.SYNC


# ------------------------------------------------------- boundary counters


def _tag_runs(owner, runs, **_):
    """The content keys a call was given (None for a one-shot iterator,
    which hashing here would consume before the callee sees it)."""
    return frozenset(r.key() for r in runs) if hasattr(runs, "__len__") else None


def _after_execute(c, result, *_a, **_k):
    c["engine.runs_completed"] += len(result)


def _after_cache_get(c, result, *_a, **_k):
    c["engine.cache_hits" if result is not None else "engine.cache_misses"] += 1


def _after_group(c, result, runs, *_a, **_k):
    c["expbatch.groups"] += 1
    c["expbatch.group_runs"] += len(runs)


def _tag_class(self, *_a, **_k):
    return type(self).__name__


def _after_run_accesses(c, result, machine, n_per_core):
    # Lockstep members replay quanta the grouped cores already advanced
    # (counted under batch.sim_accesses); everything else simulates here.
    if type(machine).__name__ != "LockstepMachine":
        c["machine.sim_accesses"] += int(n_per_core) * len(machine.active_cores())


def _after_core_step(c, result, core, active, q, mask_of):
    c["batch.sim_accesses"] += len(active) * q


def _after_static_sweep(c, result, kernel, configs, masks, n_accesses):
    c["batch.sim_accesses"] += len(configs) * len(kernel.lane_cores) * n_accesses


def _tag_policy(controller, *_a, **_k):
    return controller.policy.name


def _after_controller_run(c, result, controller, n_epochs):
    c["controller.epochs"] += n_epochs


TARGETS: tuple[Target, ...] = (
    Target("repro.cli:main", "cli.main", CLI),
    # experiments.engine
    Target("repro.experiments.engine:RunSpec.expand", "engine.expand", (FIGURES_COLD, SWEEP_COLD, REPLAY_WARM)),
    Target("repro.experiments.engine:ExperimentSession.execute", "engine.execute", SESSIONS,
           tag=_tag_runs, after=_after_execute),
    Target("repro.experiments.engine:ResultCache.get", "engine.cache_get", SESSIONS, after=_after_cache_get),
    Target("repro.experiments.engine:ResultCache.put", "engine.cache_put", COLD),
    Target("repro.experiments.engine:ResultCache.put_traces", "engine.cache_put", COLD),
    Target("repro.experiments.engine:build_eval", "engine.build_eval", (FIGURES_COLD, SWEEP_COLD, REPLAY_WARM)),
    # experiments.batch
    Target("repro.experiments.batch:compute_mechanism_group", "expbatch.group", COLD, after=_after_group),
    Target("repro.experiments.batch:simulate_batch", "expbatch.simulate_batch", (STATIC_SWEEP,)),
    # sim.tracestore / workloads
    Target("repro.sim.tracestore:TraceStore.trace_for", "tracestore.trace_for", COLD + (STATIC_SWEEP,)),
    Target("repro.workloads.speclike:build_trace", "workloads.build_trace", COLD + (STATIC_SWEEP,)),
    # sim.machine (scalar engines)
    Target("repro.sim.machine:Machine.run_accesses", "machine.run_accesses", COLD,
           tag=_tag_class, after=_after_run_accesses),
    # sim.batch
    Target("repro.sim.batch:GroupedCore.step", "batch.core_step", COLD, after=_after_core_step),
    Target("repro.sim.batch:GroupedLLC.serve", "batch.llc_serve", COLD + (STATIC_SWEEP,)),
    Target("repro.sim.batch:BatchKernel.grouped_stream", "batch.merge", (STATIC_SWEEP,)),
    Target("repro.sim.batch:BatchKernel.merged", "batch.merge", (STATIC_SWEEP,)),
    Target("repro.sim.batch:LockstepGroup.run", "batch.lockstep_sched", COLD),
    Target("repro.sim.batch:run_static_sweep", "batch.static_sweep", (STATIC_SWEEP,),
           after=_after_static_sweep),
    # sim.core_model
    Target("repro.sim.core_model:solve_quantum", "core_model.solve_quantum", COLD + (STATIC_SWEEP,)),
    # platform
    Target("repro.platform.simulated:SimulatedPlatform.run_interval", "platform.run_interval", COLD),
    # core
    Target("repro.core.controller:CMMController.run", "controller.run", COLD,
           tag=_tag_policy, after=_after_controller_run),
    Target("repro.core.pipeline:DecisionPipeline.run", "pipeline.run", COLD),
    # analysis
    Target("repro.analysis.artifacts:build_artifacts", "analysis.build_artifacts", CLI),
    Target("repro.analysis.artifacts:FigureSpec.table", "analysis.table", CLI),
    Target("repro.analysis.artifacts:FigureSpec.spec", "analysis.vega", CLI),
    Target("repro.analysis.artifacts:write_artifacts", "analysis.write_artifacts", CLI),
    Target("repro.analysis.analyze:write_analysis", "analysis.write_artifacts", (REPLAY_WARM,)),
    Target("repro.analysis.analyze:collect_observations", "analysis.collect_observations", (REPLAY_WARM,)),
    Target("repro.analysis.analyze:summarize", "analysis.summarize", (REPLAY_WARM,)),
    Target("repro.analysis.stats:bootstrap_ci", "analysis.bootstrap_ci", (REPLAY_WARM,)),
    Target("repro.analysis.stats:paired_permutation_test", "analysis.permutation", (REPLAY_WARM,)),
    # service
    Target("repro.service.server:ServiceClient.submit", "service.client_submit", (SERVICE_MIXED,)),
    Target("repro.service.scheduler:SingleFlightScheduler.submit", "scheduler.submit", (SERVICE_MIXED,),
           tag=_tag_runs, kind=trace.ASYNC),
    Target("repro.service.journal:SweepJournal.create", "journal.create", (SERVICE_MIXED,)),
    Target("repro.service.journal:SweepJournal.record_started", "journal.record", (SERVICE_MIXED,)),
    Target("repro.service.journal:SweepJournal.record_finished", "journal.record", (SERVICE_MIXED,)),
    Target("repro.service.journal:SweepJournal.record_failed", "journal.record", ()),
    Target("repro.service.journal:SweepJournal.flush", "journal.flush", (SERVICE_MIXED,)),
    Target("repro.service.protocol:run_to_wire", "protocol.to_wire", (SERVICE_MIXED,)),
    Target("repro.service.protocol:run_from_wire", "protocol.from_wire", (SERVICE_MIXED,)),
)

#: Control-surface writes are a few hundred nanoseconds each: counted, not timed.
CONTROL_WRITES = ("set_prefetch_mask", "set_clos_cbm", "assign_core_clos", "reset_partitions")


def install(tracer: trace.Tracer) -> None:
    """Wrap every target.  Call after ``import repro`` so that every
    module binding a target already exists and gets the wrapper too."""
    for t in TARGETS:
        tracer.patch(t.path, lambda fn, t=t: tracer.wrap(
            fn, t.span, tag=t.tag, after=t.after, kind=t.kind))
    for name in CONTROL_WRITES:
        tracer.patch(f"repro.platform.simulated:SimulatedPlatform.{name}",
                     lambda fn: tracer.counted(fn, "platform.control_writes"))
    tracer.install_thread_hooks()


def uncalled(totals: trace.Totals, workload: str) -> list[str]:
    """Spans that must have fired on ``workload`` and did not."""
    return sorted({t.span for t in TARGETS if workload in t.home and not totals.calls[t.span]})


def _finished(spans: list[list], name: str) -> list[list]:
    return [s for s in spans if s[trace.NAME] == name and s[trace.END] and s[trace.TAG]]


def _queue_wait_s(spans: list[list]) -> float:
    """Time submits spent not being executed: each ``scheduler.submit``
    minus its overlap with the ``session.execute`` calls that ran one of
    its keys."""
    by_key: dict[str, list[list]] = {}
    for ex in _finished(spans, "engine.execute"):
        for key in ex[trace.TAG]:
            by_key.setdefault(key, []).append(ex)
    waited = 0.0
    for sub in _finished(spans, "scheduler.submit"):
        serving = {id(ex): ex for key in sub[trace.TAG] for ex in by_key.get(key, ())}
        served = sum(
            max(0.0, min(sub[trace.END], ex[trace.END]) - max(sub[trace.START], ex[trace.START]))
            for ex in serving.values()
        )
        waited += max(0.0, sub[trace.END] - sub[trace.START] - served)
    return waited


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: trace.Tracer, wall_s: float, process: dict[str, float]) -> tuple[dict, trace.Totals]:
    """Every per-layer metric except ``trace.overhead_ratio`` (the parent
    knows the untraced median; the traced child does not).

    ``process`` carries what only the workload can read off: the
    process-wide fallback counters and, for the service, the scheduler's.
    """
    t = trace.totals(tracer.spans, outer="controller.run", inner="platform.run_interval")
    c = tracer.counters
    self_s, incl, busy, calls = t.self_, t.incl, t.busy, t.calls
    # Lockstep members go through Machine.run_accesses too; what they do
    # there is fold the group's outputs, which is batch-plane work.
    member_apply = t.tagged_self["machine.run_accesses", "LockstepMachine"]
    machine_self = self_s["machine.run_accesses"] - member_apply
    batch_s = t.self_s("batch.core_step", "batch.llc_serve", "batch.merge",
                       "batch.lockstep_sched", "batch.static_sweep") + member_apply
    gets = c["engine.cache_hits"] + c["engine.cache_misses"]
    planned = sum(len(s[trace.TAG]) for s in _finished(tracer.spans, "engine.execute"))
    runs_failed = max(0, planned - c["engine.runs_completed"])
    controller_self = sum(t.outer_self.values())
    sched = {k: process.get(f"scheduler.{k}", 0) for k in
             ("submitted", "executed", "cache_replays", "deduped", "overloaded")}
    batches = calls["engine.execute"] if sched["submitted"] else 0
    out = {
        "cli.import_s": self_s["cli.import"],
        "cli.main_s": self_s["cli.main"],
        "engine.expand_s": self_s["engine.expand"],
        "engine.execute_s": self_s["engine.execute"],
        "engine.cache_get_s": self_s["engine.cache_get"],
        "engine.cache_get_calls": calls["engine.cache_get"],
        "engine.cache_put_s": self_s["engine.cache_put"],
        "engine.cache_put_calls": calls["engine.cache_put"],
        "engine.cache_hit_ratio": _ratio(c["engine.cache_hits"], gets),
        "engine.build_eval_s": self_s["engine.build_eval"],
        "engine.runs_executed": c["engine.cache_misses"] - runs_failed,
        "engine.runs_replayed": c["engine.cache_hits"],
        "engine.runs_failed": runs_failed,
        "expbatch.group_s": incl["expbatch.group"],
        "expbatch.groups": c["expbatch.groups"],
        "expbatch.group_width_mean": _ratio(c["expbatch.group_runs"], c["expbatch.groups"]),
        "expbatch.simulate_batch_s": incl["expbatch.simulate_batch"],
        "tracestore.trace_for_s": self_s["tracestore.trace_for"],
        "tracestore.trace_for_calls": calls["tracestore.trace_for"],
        "tracestore.fallbacks": process["tracestore.fallbacks"],
        "workloads.build_trace_s": self_s["workloads.build_trace"],
        "workloads.build_trace_calls": calls["workloads.build_trace"],
        "machine.run_accesses_s": machine_self,
        "machine.run_accesses_calls": calls["machine.run_accesses"],
        "machine.sim_accesses": c["machine.sim_accesses"],
        "machine.macc_per_s": _ratio(c["machine.sim_accesses"], machine_self) / 1e6,
        "batch.core_step_s": self_s["batch.core_step"],
        "batch.llc_serve_s": self_s["batch.llc_serve"],
        "batch.merge_s": self_s["batch.merge"],
        "batch.lockstep_sched_s": self_s["batch.lockstep_sched"],
        "batch.member_apply_s": member_apply,
        "batch.static_sweep_s": self_s["batch.static_sweep"],
        "batch.sim_accesses": c["batch.sim_accesses"],
        "batch.macc_per_s": _ratio(c["batch.sim_accesses"], batch_s) / 1e6,
        "batch.degradations": process["batch.degradations"],
        "batch.native_fallbacks": process["batch.native_fallbacks"],
        "core_model.solve_quantum_s": self_s["core_model.solve_quantum"],
        "core_model.solve_quantum_calls": calls["core_model.solve_quantum"],
        "platform.run_interval_s": busy["platform.run_interval"],
        "platform.run_interval_calls": calls["platform.run_interval"],
        "platform.control_writes": c["platform.control_writes"],
        "controller.run_s": busy["controller.run"],
        "controller.self_s": controller_self,
        "controller.epochs": c["controller.epochs"],
        "pipeline.run_s": self_s["pipeline.run"],
        "controller.share": _ratio(controller_self, wall_s),
        **{f"controller.share.{m}": _ratio(t.outer_self[m], wall_s) for m in MECHANISMS},
        "analysis.build_artifacts_s": self_s["analysis.build_artifacts"],
        "analysis.table_s": self_s["analysis.table"],
        "analysis.vega_s": self_s["analysis.vega"],
        "analysis.write_artifacts_s": self_s["analysis.write_artifacts"],
        "analysis.collect_observations_s": self_s["analysis.collect_observations"],
        "analysis.summarize_s": self_s["analysis.summarize"],
        "analysis.bootstrap_ci_s": self_s["analysis.bootstrap_ci"],
        "analysis.bootstrap_ci_calls": calls["analysis.bootstrap_ci"],
        "analysis.permutation_s": self_s["analysis.permutation"],
        "service.client_submit_s": incl["service.client_submit"],
        "service.loop_s": self_s["service.loop"],
        "scheduler.submit_s": incl["scheduler.submit"],
        "scheduler.queue_wait_s": _queue_wait_s(tracer.spans),
        "scheduler.batches": batches,
        "scheduler.batch_width_mean": _ratio(sched["executed"] + sched["cache_replays"], batches),
        **{f"scheduler.{k}": v for k, v in sched.items()},
        "scheduler.dedup_ratio": _ratio(sched["deduped"], sched["submitted"]),
        "journal.create_s": self_s["journal.create"],
        "journal.record_s": self_s["journal.record"],
        "journal.flush_s": self_s["journal.flush"],
        "journal.flush_calls": calls["journal.flush"],
        "protocol.to_wire_s": self_s["protocol.to_wire"],
        "protocol.from_wire_s": self_s["protocol.from_wire"],
        "trace.coverage": _ratio(t.attributed, wall_s),
        "trace.unattributed_s": max(0.0, wall_s - t.attributed),
        "trace.spans": len(tracer.spans),
    }
    return out, t
