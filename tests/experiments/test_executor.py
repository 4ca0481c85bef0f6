"""The executor's task list and its one dispatch loop.

:func:`repro.experiments.pool.plan_tasks` decides what runs together;
these tests pin it directly (at one worker it is the serial grouping:
groups in first-seen order, then lone runs) and check that a pooled
session computes byte-equal payloads to a serial one.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.experiments.batch import BatchRunSpec
from repro.experiments.config import ScaleConfig
from repro.experiments.engine import (
    KIND_ALONE,
    KIND_MECHANISM,
    KIND_PROFILE,
    ExperimentSession,
    PlannedRun,
)
from repro.experiments.pool import (
    TASK_MECHANISMS,
    TASK_RUN,
    TASK_SINGLE_CORE,
    Task,
    plan_tasks,
)
from repro.sim.batch import degradation_count
from repro.workloads.mixes import make_mixes

SC = ScaleConfig(
    name="executor-unit", llc_scale=16, n_cores=4, quantum=512, sample_units=512,
    exec_units=2048, n_epochs=1, profile_accesses=2048, alone_accesses=1024,
)
OTHER_SC = dataclasses.replace(SC, alone_accesses=2048)
MIX_A, MIX_B = make_mixes("pref_agg", 2, n_cores=4, seed=2019)
BENCHES = ("429.mcf", "410.bwaves", "462.libquantum", "470.lbm")


def mech(mix, mechanism, sc=SC):
    return PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism=mechanism)


def alone(bench, sc=SC):
    return PlannedRun(KIND_ALONE, sc, bench=bench)


def profile(bench, sc=SC):
    return PlannedRun(KIND_PROFILE, sc, bench=bench, way_sweep=(1, 4))


def keyed(runs):
    return [(r.key(), r) for r in runs]


def task(kind, *runs):
    return Task(kind, tuple(keyed(runs)))


class TestTaskList:
    def test_one_worker_is_the_serial_grouping(self):
        """Groups in first-seen order — one single-core group per scale,
        one group per (mix, scale) with two or more runs — then the
        lone runs in plan order."""
        a_base, a_pt, a_cmm = mech(MIX_A, "baseline"), mech(MIX_A, "pt"), mech(MIX_A, "cmm-a")
        b_base, a_other = mech(MIX_B, "baseline"), mech(MIX_A, "pt", OTHER_SC)
        plan = [
            alone("429.mcf"), a_base, profile("410.bwaves"), b_base, a_pt,
            alone("470.lbm", OTHER_SC), a_other, a_cmm, alone("410.bwaves"),
        ]
        assert plan_tasks(keyed(plan), 1, batched=True) == [
            task(TASK_SINGLE_CORE, alone("429.mcf"), profile("410.bwaves"), alone("410.bwaves")),
            task(TASK_MECHANISMS, a_base, a_pt, a_cmm),
            task(TASK_SINGLE_CORE, alone("470.lbm", OTHER_SC)),
            task(TASK_RUN, b_base),
            task(TASK_RUN, a_other),
        ]

    def test_scalar_engine_runs_every_run_alone(self):
        plan = [alone("429.mcf"), mech(MIX_A, "baseline"), mech(MIX_A, "pt")]
        assert plan_tasks(keyed(plan), 2, batched=False) == [task(TASK_RUN, r) for r in plan]

    def test_two_workers_shard_single_core_runs_by_benchmark(self):
        plan = [profile(b) for b in BENCHES] + [alone(b) for b in reversed(BENCHES)]
        tasks = plan_tasks(keyed(plan), 2, batched=True)
        assert [t.kind for t in tasks] == [TASK_SINGLE_CORE] * 2
        shards = [{r.bench for _, r in t.runs} for t in tasks]
        assert shards == [{"429.mcf", "462.libquantum"}, {"410.bwaves", "470.lbm"}]
        # Every run lands once, each benchmark's profile and alone run together.
        assert sorted(kr for t in tasks for kr in t.runs) == sorted(keyed(plan))

    def test_never_more_shards_than_benchmarks(self):
        plan = [profile("429.mcf"), alone("429.mcf")]
        assert plan_tasks(keyed(plan), 4, batched=True) == [task(TASK_SINGLE_CORE, *plan)]


@pytest.mark.usefixtures("plenty_of_cpus")
@pytest.mark.parametrize("shared_memory", [True, False], ids=["manifest", "no-shm"])
def test_pooled_session_matches_serial_session(shared_memory, monkeypatch):
    """One mix x 3 mechanisms plus profiles, run as a mechanism group and
    two single-core shards on a 2-worker pool: byte-equal payloads to a
    serial session, and no group degraded.  Without shared memory the
    manifests are empty and each group materializes its traces itself."""
    runs = [mech(MIX_A, m) for m in ("baseline", "pt", "cmm-a")]
    runs += [profile(b) for b in BENCHES[:2]] + [alone(b) for b in BENCHES[:3]]
    assert len(plan_tasks(keyed(runs), 2, batched=True)) == 3
    with ExperimentSession(cache_dir=None, max_workers=1) as serial:
        expected = serial.execute(runs)
    before = degradation_count()
    with ExperimentSession(
        cache_dir=None, max_workers=2, mp_context=multiprocessing.get_context("fork")
    ) as pooled:
        if not shared_memory:
            monkeypatch.setattr(pooled.trace_store, "publish", lambda **kw: None)
        got = pooled.execute(runs)
        assert pooled._pools["batch"] is not None  # it really ran on the pool
    assert degradation_count() == before
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("n_accesses", [0, -5, 2.5])
def test_batch_run_spec_refuses_a_bad_access_count(n_accesses):
    with pytest.raises((TypeError, ValueError), match="n_accesses"):
        BatchRunSpec(mix=MIX_A, n_accesses=n_accesses)
