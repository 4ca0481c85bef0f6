"""Sweep journal: WAL discipline, crash-damage tolerance, resume identity."""

import asyncio
import dataclasses
import json

import pytest

from repro.experiments.chaos import injected_faults
from repro.experiments.config import TINY
from repro.experiments.engine import KIND_ALONE, KIND_MECHANISM, ExperimentSession, PlannedRun
from repro.service.journal import JOURNAL_SCHEMA_VERSION, JournalError, SweepJournal
from repro.service.protocol import run_from_wire, run_to_wire
from repro.workloads.mixes import make_mixes
from repro.service.scheduler import SingleFlightScheduler
from tests.chaos.workers import boom

SC = dataclasses.replace(TINY, name="unit", alone_accesses=2048)
OK_A, OK_B, OK_C, FAULTY = (
    PlannedRun(KIND_ALONE, SC, bench=b)
    for b in ("410.bwaves", "462.libquantum", "459.GemsFDTD", "470.lbm")
)


def dummy_plan(n: int = 3) -> dict[str, dict]:
    return {f"key{i:02d}": {"spec": i} for i in range(n)}


class TestCreateLoad:
    def test_roundtrip(self, tmp_path):
        plan = dummy_plan()
        with SweepJournal.create(tmp_path, plan, sweep_id="s1") as j:
            j.record_started("key00")
            j.record_finished("key00")
            j.record_failed("key01", "boom")
        loaded = SweepJournal.load(tmp_path / "s1.jsonl")
        assert loaded.sweep_id == "s1"
        assert loaded.plan == plan
        assert loaded.finished_keys() == {"key00"}
        assert loaded.failed_keys() == {"key01": "boom"}
        assert loaded.pending_keys() == ["key01", "key02"]
        assert not loaded.sealed

    def test_started_but_unfinished_is_pending(self, tmp_path):
        with SweepJournal.create(tmp_path, dummy_plan(2), sweep_id="s1") as j:
            j.record_started("key00")
        loaded = SweepJournal.load(tmp_path / "s1.jsonl")
        assert loaded.pending_keys() == ["key00", "key01"]

    def test_finish_after_fail_clears_the_failure(self, tmp_path):
        with SweepJournal.create(tmp_path, dummy_plan(1), sweep_id="s1") as j:
            j.record_failed("key00", "transient")
            j.record_finished("key00")
        loaded = SweepJournal.load(tmp_path / "s1.jsonl")
        assert loaded.failed_keys() == {}
        assert loaded.pending_keys() == []

    def test_duplicate_sweep_id_refused(self, tmp_path):
        SweepJournal.create(tmp_path, dummy_plan(), sweep_id="s1").close()
        with pytest.raises(JournalError, match="exists"):
            SweepJournal.create(tmp_path, dummy_plan(), sweep_id="s1")


class TestCrashDamage:
    def test_torn_tail_without_newline_is_discarded(self, tmp_path):
        with SweepJournal.create(tmp_path, dummy_plan(), sweep_id="s1") as j:
            j.record_finished("key00")
        path = tmp_path / "s1.jsonl"
        with open(path, "ab") as f:
            f.write(b'{"event":"finis')  # crash mid-write, no newline
        loaded = SweepJournal.load(path)
        assert loaded.finished_keys() == {"key00"}

    def test_midfile_corruption_raises(self, tmp_path):
        with SweepJournal.create(tmp_path, dummy_plan(), sweep_id="s1") as j:
            j.record_finished("key00")
            j.record_finished("key01")
        path = tmp_path / "s1.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"garbage"  # interior line: not crash damage
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalError, match="mid-file"):
            SweepJournal.load(path)

    def test_missing_plan_raises(self, tmp_path):
        path = tmp_path / "noplan.jsonl"
        path.write_bytes(b'{"event":"finished","key":"k"}\n')
        with pytest.raises(JournalError, match="plan"):
            SweepJournal.load(path)

    def test_schema_mismatch_raises(self, tmp_path):
        with SweepJournal.create(tmp_path, dummy_plan(), sweep_id="s1"):
            pass
        path = tmp_path / "s1.jsonl"
        head = json.loads(path.read_bytes().split(b"\n")[0])
        head["schema"] = JOURNAL_SCHEMA_VERSION + 1
        path.write_bytes(json.dumps(head).encode() + b"\n")
        with pytest.raises(JournalError, match="schema"):
            SweepJournal.load(path)


class TestIncomplete:
    def test_sealed_journals_are_skipped(self, tmp_path):
        with SweepJournal.create(tmp_path, dummy_plan(), sweep_id="done") as j:
            for key in dummy_plan():
                j.record_finished(key)
            j.seal()
        SweepJournal.create(tmp_path, dummy_plan(), sweep_id="crashed").close()
        pending = SweepJournal.incomplete(tmp_path)
        assert [j.sweep_id for j in pending] == ["crashed"]

    def test_unparsable_files_are_skipped(self, tmp_path):
        (tmp_path / "junk.jsonl").write_bytes(b"not json at all\n")
        SweepJournal.create(tmp_path, dummy_plan(), sweep_id="good").close()
        assert [j.sweep_id for j in SweepJournal.incomplete(tmp_path)] == ["good"]

    def test_missing_root_is_empty(self, tmp_path):
        assert SweepJournal.incomplete(tmp_path / "nowhere") == []


class TestResumeIdentity:
    def test_replay_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        runs = [OK_A, OK_B, OK_C]
        # Baseline: the uninterrupted sweep.
        with ExperimentSession(cache_dir=tmp_path / "c0", max_workers=1) as s0:
            baseline = s0.execute(runs)

        # Crash simulation: one key completed and journaled, then the
        # process dies — the journal is left unsealed with two pending
        # keys.
        cache_dir = tmp_path / "c1"
        with ExperimentSession(cache_dir=cache_dir, max_workers=1) as s1:
            s1.execute([runs[0]])
        journal = SweepJournal.create(
            tmp_path / "wal", {r.key(): run_to_wire(r) for r in runs}, sweep_id="s1"
        )
        journal.record_started(runs[0].key())
        journal.record_finished(runs[0].key())
        journal.close()

        # Resume in a fresh session: pending keys execute, the finished
        # key replays from the cache, and payloads match byte-for-byte.
        with ExperimentSession(cache_dir=cache_dir, max_workers=1) as s2:
            replayed = s2.execute([], resume=tmp_path / "wal" / "s1.jsonl")
            cached_flags = {rec.key: rec.cached for rec in s2.records}
        assert json.dumps(replayed, sort_keys=True) == json.dumps(baseline, sort_keys=True)
        assert cached_flags[runs[0].key()] is True
        assert cached_flags[runs[1].key()] is False

        sealed = SweepJournal.load(tmp_path / "wal" / "s1.jsonl")
        assert sealed.sealed
        assert sealed.pending_keys() == []

    def test_params_run_resumes_from_its_journal(self, tmp_path):
        sc = dataclasses.replace(SC, quantum=256, sample_units=256, exec_units=2048)
        mix = make_mixes("pref_agg", 1, seed=2019)[0]
        run = PlannedRun(KIND_MECHANISM, sc, mix=mix, mechanism="pref-cp",
                         params={"partition_factor": 0.5})
        with ExperimentSession(cache_dir=tmp_path / "c0", max_workers=1) as s0:
            baseline = s0.execute([run])
        SweepJournal.create(
            tmp_path / "wal", {run.key(): run_to_wire(run)}, sweep_id="s1"
        ).close()
        loaded = SweepJournal.load(tmp_path / "wal" / "s1.jsonl")
        assert run_from_wire(loaded.plan[run.key()]) == run
        with ExperimentSession(cache_dir=tmp_path / "c1", max_workers=1) as s1:
            replayed = s1.execute([], resume=tmp_path / "wal" / "s1.jsonl")
        assert json.dumps(replayed, sort_keys=True) == json.dumps(baseline, sort_keys=True)
        assert SweepJournal.load(tmp_path / "wal" / "s1.jsonl").sealed

    def test_owed_only_journal_resumes_bit_identical(self, tmp_path):
        """Journal what can be resumed: a key answered from the cache is
        in no plan, and the plan plus the cache still recover the batch."""
        runs = [OK_A, OK_B, OK_C]
        with ExperimentSession(cache_dir=tmp_path / "c0", max_workers=1) as s0:
            baseline = s0.execute(runs)

        cache_dir, wal = tmp_path / "c1", tmp_path / "wal"
        with ExperimentSession(cache_dir=cache_dir, max_workers=1) as s1:
            s1.execute([runs[0]])  # warm in this service's memory tier

            async def accept_then_die():
                sched = SingleFlightScheduler(s1, journal_dir=wal)  # never dispatches
                task = asyncio.ensure_future(sched.submit(runs))
                await asyncio.sleep(0)
                task.cancel()  # SIGKILL-style: no stop(), nothing sealed or closed

            asyncio.run(accept_then_die())
        (journal,) = SweepJournal.incomplete(wal)
        assert set(journal.plan) == {runs[1].key(), runs[2].key()}

        with ExperimentSession(cache_dir=cache_dir, max_workers=1) as s2:
            resumed = s2.execute([], resume=journal.path)
            recovered = s2.execute(runs)
        assert set(resumed) == set(journal.plan)
        assert json.dumps(recovered, sort_keys=True) == json.dumps(baseline, sort_keys=True)
        assert SweepJournal.load(journal.path).sealed

    def test_failed_pending_key_leaves_journal_unsealed(self, tmp_path):
        runs = [OK_A, FAULTY]
        journal = SweepJournal.create(
            tmp_path / "wal", {r.key(): run_to_wire(r) for r in runs}, sweep_id="s1"
        )
        journal.close()
        # The scalar engine: the batch planes never call a faulted compute.
        with ExperimentSession(cache_dir=tmp_path / "c", max_workers=1, engine="fast") as s, \
                injected_faults({FAULTY.key(): boom}):
            out = s.execute([], resume=tmp_path / "wal" / "s1.jsonl", strict=False)
        assert set(out) == {runs[0].key()}
        loaded = SweepJournal.load(tmp_path / "wal" / "s1.jsonl")
        assert not loaded.sealed  # the failed key is still owed a result
        assert loaded.failed_keys().keys() == {runs[1].key()}
