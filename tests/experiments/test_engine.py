"""The parallel experiment engine: keys, cache, sessions.

Uses a reduced scale so the whole module stays fast; the
parallel-determinism test spins up a real two-process pool.
"""

import dataclasses
import hashlib
import json
import pickle
import warnings

import numpy as np
import pytest

import repro
from repro.core.trace import TRACE_SCHEMA_VERSION, traces_to_dicts
from repro.experiments.config import TINY
from repro.experiments.engine import (
    KIND_ALONE,
    KIND_MECHANISM,
    KIND_PROFILE,
    SCHEMA_VERSION,
    ExperimentSession,
    PlannedRun,
    ResultCache,
    RunSpec,
    default_cache_dir,
    default_session,
    default_workers,
    set_default_session,
)
from repro.workloads.mixes import make_mixes

SC = dataclasses.replace(
    TINY, name="unit", quantum=256, sample_units=256, exec_units=2048, alone_accesses=4096
)

#: On-disk files that are not a UTF-8 JSON object: a torn write, stray
#: bytes, and well-formed JSON of the wrong shape.
CORRUPT_ENTRIES = [
    pytest.param(b'{"schema": 1, "kind": "alo', id="torn"),
    pytest.param(b"\xff\xfe\x00 not utf-8", id="non-utf8"),
    pytest.param(b"[1, 2]", id="list"),
    pytest.param(b"null", id="null"),
]


@pytest.fixture(scope="module")
def mix():
    return make_mixes("pref_agg", 1, seed=2019)[0]


@pytest.fixture
def session(tmp_path):
    return ExperimentSession(cache_dir=tmp_path / "cache", max_workers=1)


class TestKeys:
    def test_key_is_deterministic(self, mix):
        a = PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="pt")
        b = PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="pt")
        assert a.key() == b.key()

    def test_key_varies_with_mechanism_and_scale(self, mix):
        base = PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="pt")
        other_mech = PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="dunn")
        other_sc = PlannedRun(
            KIND_MECHANISM, dataclasses.replace(SC, exec_units=4096), mix=mix, mechanism="pt"
        )
        assert len({base.key(), other_mech.key(), other_sc.key()}) == 3

    def test_scale_name_is_not_identity(self, mix):
        """Two scales with identical simulation parameters share keys."""
        renamed = dataclasses.replace(SC, name="renamed", workloads_per_category=7)
        a = PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="pt")
        b = PlannedRun(KIND_MECHANISM, renamed, mix=mix, mechanism="pt")
        assert a.key() == b.key()

    def test_cache_key_fields(self):
        d = SC.cache_key()
        assert "name" not in d and "workloads_per_category" not in d and "seed" not in d
        assert d["exec_units"] == SC.exec_units
        assert json.dumps(d, sort_keys=True)  # JSON-stable

    def test_key_payload_carries_schema_and_machine(self, mix):
        payload = PlannedRun(KIND_ALONE, SC, bench="429.mcf").key_payload()
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["machine"]["n_cores"] == 8

    def test_only_the_three_declared_kinds_construct(self):
        with pytest.raises(ValueError, match="unknown run kind 'hook'"):
            PlannedRun("hook", SC, bench="x")

    @pytest.mark.parametrize("way_sweep", [(0,), (2, -3)])
    def test_way_sweep_entries_below_one_refused(self, way_sweep):
        with pytest.raises(ValueError, match="way_sweep"):
            PlannedRun(KIND_PROFILE, SC, bench="429.mcf", way_sweep=way_sweep)
        # Ways above the LLC's stay legal: the profile drops them.
        PlannedRun(KIND_PROFILE, SC, bench="429.mcf", way_sweep=(1, 64))


    def test_memoised_key_is_the_full_digest_for_every_kind(self, mix, monkeypatch):
        """``key()`` hashes once per distinct run value over parts built
        once per scale; the digest must equal one built from scratch, and
        an equal run rebuilt independently or decoded from the wire must
        reuse it without a new derivation."""
        from repro.experiments import engine
        from repro.service.protocol import run_from_wire, run_to_wire

        def full_digest(run: PlannedRun) -> str:
            machine = dataclasses.asdict(run.sc.params())
            payload = dict(run.key_payload(), scale=run.sc.cache_key(), machine=machine)
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()

        derivations = []
        real_hash = engine._hash_payload
        monkeypatch.setattr(
            engine, "_hash_payload", lambda payload: derivations.append(1) or real_hash(payload)
        )
        engine._run_key.cache_clear()

        runs = [
            PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="cmm-a"),
            PlannedRun(KIND_ALONE, SC, bench="429.mcf"),
            PlannedRun(KIND_PROFILE, SC, bench="453.povray"),
            PlannedRun(KIND_PROFILE, SC, bench="453.povray", way_sweep=(1, 2)),
        ]
        assert len({r.key() for r in runs}) == len(runs)
        assert len(derivations) == len(runs)
        for run in runs:
            before = pickle.loads(pickle.dumps(run))  # pickled before the first key()
            assert run.key() == run.key() == full_digest(run)
            after = pickle.loads(pickle.dumps(run))
            assert before == after == run
            assert before.key() == after.key() == run.key()
            # Equal values built independently share the memo entry.
            derived = len(derivations)
            rebuilt = PlannedRun(run.kind, dataclasses.replace(run.sc), mix=run.mix,
                                 mechanism=run.mechanism, bench=run.bench,
                                 way_sweep=run.way_sweep)
            assert rebuilt is not run
            assert rebuilt.key() == run_from_wire(run_to_wire(run)).key() == run.key()
            assert len(derivations) == derived
            # A derived run is a new value: it must get its own full digest.
            bigger = dataclasses.replace(run, sc=dataclasses.replace(SC, exec_units=4096))
            assert bigger.key() == full_digest(bigger) != run.key()
            assert len(derivations) == derived + 1


    #: Literal ``key()`` digests of one TINY run per kind.  A change that
    #: moves any of them orphans every cached result of that kind, so a
    #: refactor of the key inputs (scale, machine parameters) must keep them.
    PINNED_TINY_KEYS = {
        "mechanism": "089552140c00d01dc2231ca31bb632602b3a9e9e3d65623ffcab03a15046cd91",
        "alone": "63e241d60f0b8d68aadc2457606865c8c67d762f5b3637c5b5761241c6523f0b",
        "profile": "3e5cdc26c12fba1e7dec0e8271ac1fd3202176eed42a84df34f08ddb26ff7c42",
        "profile_ways": "4b5c05927ec2f13a0f400cf306c6c0c478565b3c566f5a221b43388d68487314",
    }

    def test_tiny_keys_are_pinned(self, mix):
        runs = {
            "mechanism": PlannedRun(KIND_MECHANISM, TINY, mix=mix, mechanism="cmm-a"),
            "alone": PlannedRun(KIND_ALONE, TINY, bench="429.mcf"),
            "profile": PlannedRun(KIND_PROFILE, TINY, bench="453.povray"),
            "profile_ways": PlannedRun(KIND_PROFILE, TINY, bench="453.povray", way_sweep=(1, 2)),
        }
        assert {kind: run.key() for kind, run in runs.items()} == self.PINNED_TINY_KEYS


class TestResultCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {"ipc": 1.5}})
        rec = cache.get("ab" * 32)
        assert rec["payload"]["ipc"] == 1.5
        assert cache.misses == 1 and cache.hits == 1

    def test_persists_across_instances(self, tmp_path):
        ResultCache(tmp_path).put(
            "cd" * 32, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {"ipc": 2.0}}
        )
        fresh = ResultCache(tmp_path)
        assert fresh.get("cd" * 32)["payload"]["ipc"] == 2.0

    def test_resident_reads_the_memory_tier_only(self, tmp_path):
        key = "cd" * 32
        ResultCache(tmp_path).put(key, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {}})
        fresh = ResultCache(tmp_path)
        assert fresh.resident(key) is None  # on disk, not in memory
        rec = fresh.get(key)
        assert fresh.resident(key) is rec
        assert (fresh.hits, fresh.misses) == (1, 0)  # resident() counts neither

    def test_schema_mismatch_misses(self, tmp_path):
        ResultCache(tmp_path).put(
            "ef" * 32, {"schema": SCHEMA_VERSION + 1, "kind": "alone", "payload": {"ipc": 2.0}}
        )
        assert ResultCache(tmp_path).get("ef" * 32) is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("12" * 32, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {}})
        cache.put("34" * 32, {"schema": SCHEMA_VERSION, "kind": "mechanism", "payload": {}})
        s = cache.stats()
        assert s.entries == 2 and s.bytes > 0
        assert s.by_kind == {"alone": 1, "mechanism": 1}
        assert cache.clear() == 2
        assert ResultCache(tmp_path).stats().entries == 0

    def test_memory_only(self):
        cache = ResultCache(None)
        cache.put("56" * 32, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {"ipc": 1.0}})
        assert cache.get("56" * 32)["payload"]["ipc"] == 1.0
        assert cache.stats().root is None

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {}})
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".json"]
        assert leftovers == []

    def test_interrupted_put_leaves_old_entry_intact(self, tmp_path, monkeypatch):
        key = "ab" * 32
        cache = ResultCache(tmp_path)
        cache.put(key, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {"ipc": 1.0}})

        def explode(*a, **k):
            raise KeyboardInterrupt

        monkeypatch.setattr("json.dumps", explode)
        with pytest.raises(KeyboardInterrupt):
            cache.put(key, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {"ipc": 9.0}})
        monkeypatch.undo()
        # The on-disk entry is the old one, whole, and no temp remains.
        fresh = ResultCache(tmp_path)
        assert fresh.get(key)["payload"]["ipc"] == 1.0
        assert [p for p in tmp_path.rglob("*.tmp")] == []

    @pytest.mark.parametrize("content", CORRUPT_ENTRIES)
    def test_corrupt_entry_is_quarantined(self, tmp_path, content):
        key = "ab" * 32
        ResultCache(tmp_path).put(key, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {}})
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_bytes(content)
        cache = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined corrupt cache entry"):
            assert cache.get(key) is None
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        assert cache.corrupt == 1
        s = cache.stats()
        assert s.entries == 0 and s.corrupt == 1

    def test_corrupt_warning_fires_once_per_session(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = ["ab" * 32, "cd" * 32]
        for key in keys:
            cache.put(key, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {}})
            (tmp_path / key[:2] / f"{key}.json").write_text("not json")
        cache._mem.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for key in keys:
                assert cache.get(key) is None
        assert sum("quarantined" in str(w.message) for w in caught) == 1
        assert cache.corrupt == 2

    def test_clear_removes_quarantined_entries(self, tmp_path):
        key = "ab" * 32
        cache = ResultCache(tmp_path)
        cache.put(key, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {}})
        (tmp_path / key[:2] / f"{key}.json").write_text("garbage")
        cache._mem.clear()
        with pytest.warns(RuntimeWarning):
            cache.get(key)
        assert cache.clear() >= 1
        assert list(tmp_path.rglob("*.corrupt")) == []


class TestSessionCaching:
    def test_hit_after_miss(self, session, mix):
        a = session.run(mix, "baseline", SC)
        b = session.run(mix, "baseline", SC)
        np.testing.assert_array_equal(a.ipc, b.ipc)
        assert [r.cached for r in session.records] == [False, True]

    def test_disk_replay_is_bit_identical(self, tmp_path, mix):
        first = ExperimentSession(cache_dir=tmp_path / "c", max_workers=1)
        fresh = first.run(mix, "pt", SC)
        second = ExperimentSession(cache_dir=tmp_path / "c", max_workers=1)
        replay = second.run(mix, "pt", SC)
        assert second.records[0].cached
        np.testing.assert_array_equal(fresh.ipc, replay.ipc)
        np.testing.assert_array_equal(fresh.stats.totals, replay.stats.totals)
        assert fresh.stats.wall_cycles == replay.stats.wall_cycles

    def test_param_change_invalidates(self, session, mix):
        session.run(mix, "baseline", SC)
        session.run(mix, "baseline", dataclasses.replace(SC, exec_units=1024))
        assert [r.cached for r in session.records] == [False, False]

    def test_machine_param_change_invalidates(self, session, mix):
        session.run(mix, "baseline", SC)
        session.run(mix, "baseline", dataclasses.replace(SC, llc_scale=32))
        assert [r.cached for r in session.records] == [False, False]

    def test_alone_runs_cached(self, session):
        a = session.alone_ipc("410.bwaves", SC)
        b = session.alone_ipc("410.bwaves", SC)
        assert a == b > 0
        assert [r.cached for r in session.records] == [False, True]

    def test_policy_objects_bypass_cache(self, session, mix):
        from repro.core.dunn import DunnPolicy

        r = session.run(mix, DunnPolicy(), SC)
        assert r.mechanism == "dunn"
        assert session.records == []  # never planned, never cached

    def test_progress_callback(self, tmp_path, mix):
        seen = []
        s = ExperimentSession(
            cache_dir=tmp_path / "c", max_workers=1,
            progress=lambda rec, done, total: seen.append((rec.label, done, total)),
        )
        s.alone_ipcs(mix, SC)
        uniq = len(dict.fromkeys(mix.benchmarks))
        assert len(seen) == uniq
        assert seen[-1][1:] == (uniq, uniq)


class TestRunSpec:
    def test_expand_dedups(self, mix):
        spec = RunSpec(mechanisms=("pt", "pt", "baseline"), mixes=(mix, mix))
        plan = spec.expand(SC)
        keys = [p.key() for p in plan]
        assert len(keys) == len(plan)
        mech_runs = [p for p in plan if p.kind == KIND_MECHANISM]
        assert {p.mechanism for p in mech_runs} == {"baseline", "pt"}
        assert len(mech_runs) == 4  # (mix repeated) x {baseline, pt}, pre-dedup by execute
        alone = [p for p in plan if p.kind == KIND_ALONE]
        assert len(alone) == len(dict.fromkeys(mix.benchmarks))

    def test_categories_expansion(self):
        spec = RunSpec(mechanisms=("pt",), categories=("pref_unfri",), workloads_per_category=2)
        mixes = spec.resolve_mixes(SC)
        assert [m.category for m in mixes] == ["pref_unfri", "pref_unfri"]

    def test_execute_collapses_duplicates(self, session, mix):
        spec = RunSpec(mechanisms=("pt",), mixes=(mix, mix), include_alone=False)
        session.execute(spec.expand(SC))
        assert len(session.records) == 2  # baseline + pt, once each

    def test_seed_axis_generates_mixes_per_seed(self):
        spec = RunSpec(mechanisms=("pt",), categories=("pref_agg",),
                       workloads_per_category=1, seeds=(2019, 2020))
        mixes = spec.resolve_mixes(SC)
        assert len(mixes) == 2
        # make_mixes derives each mix's seed from the axis seed, so the
        # two draws are distinct (and so are their content keys).
        assert mixes[0].seed != mixes[1].seed
        assert mixes[0].name == mixes[1].name == "pref_agg-00"

    def test_seed_axis_keys_are_distinct(self):
        spec = RunSpec(mechanisms=("pt",), categories=("pref_agg",),
                       workloads_per_category=1, seeds=(2019, 2020),
                       include_alone=False, include_baseline=False)
        plan = spec.expand(SC)
        assert len(plan) == 2
        assert plan[0].key() != plan[1].key()  # mix seed is in the content key

    def test_seed_axis_dedups_seed_independent_runs(self):
        # Alone runs depend only on the benchmark: if both seeds draw the
        # same benchmarks, the plan carries each alone run once.
        one = RunSpec(mechanisms=("pt",), categories=("pref_agg",),
                      workloads_per_category=1, seeds=(2019,)).expand(SC)
        two = RunSpec(mechanisms=("pt",), categories=("pref_agg",),
                      workloads_per_category=1, seeds=(2019, 2019)).expand(SC)
        alone = [p for p in two if p.kind == KIND_ALONE]
        assert alone == [p for p in one if p.kind == KIND_ALONE]

    def test_default_seed_axis_is_the_scale_seed(self):
        base = RunSpec(mechanisms=("pt",), categories=("pref_agg",),
                       workloads_per_category=1)
        explicit = dataclasses.replace(base, seeds=(SC.seed,))
        assert [m.name for m in base.resolve_mixes(SC)] == \
               [m.name for m in explicit.resolve_mixes(SC)]

    def test_seeds_with_explicit_mixes_rejected(self, mix):
        spec = RunSpec(mechanisms=("pt",), mixes=(mix,), seeds=(1, 2))
        with pytest.raises(ValueError, match="seeds"):
            spec.resolve_mixes(SC)


class TestParallelDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, tmp_path, mix, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)  # defeat the 1-CPU clamp
        serial = ExperimentSession(cache_dir=tmp_path / "s", max_workers=1)
        parallel = ExperimentSession(cache_dir=tmp_path / "p", max_workers=2)
        ev_s = serial.evaluate(mix, ("pt",), SC)
        ev_p = parallel.evaluate(mix, ("pt",), SC)
        assert not any(r.cached for r in parallel.records)
        np.testing.assert_array_equal(ev_s.alone_ipc, ev_p.alone_ipc)
        np.testing.assert_array_equal(ev_s.baseline.stats.totals, ev_p.baseline.stats.totals)
        assert ev_s.metrics == ev_p.metrics


class TestEvaluate:
    def test_matches_fresh_session(self, session, mix):
        ev = session.evaluate(mix, ("pt",), SC)
        other = ExperimentSession(cache_dir=None, max_workers=1).evaluate(mix, ("pt",), SC)
        assert ev.metrics == other.metrics

    def test_alone_ipcs_match_run_alone(self, session, mix):
        from repro.workloads.classify import run_alone

        ipcs = session.alone_ipcs(mix, SC)
        for bench, ipc in zip(mix.benchmarks, ipcs):
            m, snap = run_alone(
                bench, SC.params(), SC.alone_accesses, quantum=SC.quantum,
                warmup=SC.alone_accesses,
            )
            assert ipc == m.pmu.delta_since(snap).ipc(0)

    def test_fairness_columns_ride_along(self, session, mix):
        from repro.analysis.stats import fair_slowdown, unfairness

        ev = session.evaluate(mix, ("pt",), SC)
        for mech in ("baseline", "pt"):
            m = ev.metrics[mech]
            assert set(m) >= {"hm_ipc", "fair_slowdown", "unfairness"}
            assert m["unfairness"] >= 1.0
        base = ev.metrics["baseline"]
        assert base["fair_slowdown"] == fair_slowdown(ev.alone_ipc, ev.baseline.ipc)
        assert base["unfairness"] == unfairness(ev.alone_ipc, ev.baseline.ipc)

    def test_sweep_assembles_all_mixes(self, session):
        evals = session.sweep(("pt",), SC, categories=("pref_no_agg",), workloads_per_category=1)
        assert len(evals) == 1
        assert "pt" in evals[0].metrics and "baseline" in evals[0].metrics


class TestShimsRemoved:
    """The 1.x pre-engine API is gone in 2.0 (see CHANGELOG.md)."""

    @pytest.mark.parametrize(
        "name", ["run_mechanism", "run_policy_object", "evaluate_workload", "ALONE_CACHE"]
    )
    def test_legacy_names_absent(self, name):
        from repro.experiments import runner

        with pytest.raises(AttributeError):
            getattr(runner, name)
        assert not hasattr(repro, name)


class TestDefaults:
    def test_default_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        with pytest.raises(ValueError):
            default_workers()

    def test_env_workers_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setenv("REPRO_WORKERS", "64")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS=64.*clamping to 4"):
            assert default_workers() == 4

    def test_session_workers_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        with pytest.warns(RuntimeWarning, match="max_workers=64.*clamping to 4"):
            session = ExperimentSession(cache_dir=None, max_workers=64)
        assert session.max_workers == 4

    def test_default_session_singleton(self):
        set_default_session(None)
        assert default_session() is default_session()
        mine = ExperimentSession(cache_dir=None)
        set_default_session(mine)
        try:
            assert default_session() is mine
        finally:
            set_default_session(None)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSession(cache_dir=None, max_workers=0)


class TestProfiles:
    def test_profile_cached_and_rehydrated(self, session):
        sc = dataclasses.replace(SC, profile_accesses=4096)
        a = session.profile("453.povray", sc, way_sweep=(1, 2))
        b = session.profile("453.povray", sc, way_sweep=(1, 2))
        assert [r.cached for r in session.records] == [False, True]
        assert a.ipc_on == b.ipc_on > 0
        assert set(a.ipc_by_ways) == {1, 2}
        assert isinstance(next(iter(b.ipc_by_ways)), int)

    def test_way_order_survives_a_disk_replay(self, tmp_path):
        from repro.workloads.classify import DEFAULT_WAY_SWEEP

        sc = dataclasses.replace(SC, profile_accesses=2048)
        fresh = ExperimentSession(cache_dir=tmp_path / "c", max_workers=1).profile(
            "453.povray", sc, way_sweep=DEFAULT_WAY_SWEEP
        )
        replay = ExperimentSession(cache_dir=tmp_path / "c", max_workers=1)
        replayed = replay.profile("453.povray", sc, way_sweep=DEFAULT_WAY_SWEEP)
        assert [r.cached for r in replay.records] == [True]
        assert list(replayed.ipc_by_ways) == list(fresh.ipc_by_ways) == sorted(DEFAULT_WAY_SWEEP)

    def test_way_sweep_part_of_key(self, session):
        sc = dataclasses.replace(SC, profile_accesses=4096)
        session.profile("453.povray", sc)
        session.profile("453.povray", sc, way_sweep=(1,))
        assert [r.cached for r in session.records] == [False, False]


class TestTracePersistence:
    """Decision traces ride beside cached results, never inside them."""

    def test_sidecar_written_beside_entry(self, session, mix):
        stats = session.run(mix, "cmm-a", SC).stats
        assert stats.traces and stats.traces[0].policy == "cmm-a"
        key = PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="cmm-a").key()
        sidecar = session.cache.root / key[:2] / f"{key}.traces.json"
        assert sidecar.is_file()
        record = json.loads(sidecar.read_text())
        assert record["schema"] == TRACE_SCHEMA_VERSION
        assert len(record["traces"]) == SC.n_epochs

    def test_cached_replay_rehydrates_traces(self, session, mix):
        first = session.run(mix, "cmm-a", SC).stats
        second = session.run(mix, "cmm-a", SC).stats
        assert [r.cached for r in session.records] == [False, True]
        assert traces_to_dicts(second.traces) == traces_to_dicts(first.traces)

    def test_sidecars_invisible_to_stats_and_counted_out_of_clear(self, session, mix):
        session.run(mix, "cmm-a", SC)
        s = session.cache.stats()
        assert s.entries == 1 and s.by_kind == {"mechanism": 1}
        assert session.cache.clear() == 1  # sidecars deleted but not counted
        assert list(session.cache.root.glob("*/*.traces.json")) == []

    def test_stale_trace_schema_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_traces("ab" * 32, [{"anything": 1}])
        sidecar = tmp_path / "ab" / (("ab" * 32) + ".traces.json")
        stale = json.loads(sidecar.read_text())
        stale["schema"] = TRACE_SCHEMA_VERSION + 1
        sidecar.write_text(json.dumps(stale))
        assert ResultCache(tmp_path).get_traces("ab" * 32) is None

    @pytest.mark.parametrize("content", CORRUPT_ENTRIES[:3])
    def test_corrupt_sidecar_ignored(self, tmp_path, content):
        cache = ResultCache(tmp_path)
        cache.put_traces("cd" * 32, [{"anything": 1}])
        path = tmp_path / "cd" / (("cd" * 32) + ".traces.json")
        path.write_bytes(content)
        assert ResultCache(tmp_path).get_traces("cd" * 32) is None

    def test_traces_recomputed_when_sidecar_missing(self, session, mix):
        before = session.traces(mix, "cmm-a", SC)
        key = PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="cmm-a").key()
        sidecar = session.cache.root / key[:2] / f"{key}.traces.json"
        sidecar.unlink()
        fresh = ExperimentSession(cache_dir=session.cache.root, max_workers=1)
        after = fresh.traces(mix, "cmm-a", SC)
        assert sidecar.is_file()  # recompute re-persisted the sidecar
        assert traces_to_dicts(after) == traces_to_dicts(before)

    def test_payload_has_no_trace_key(self, session, mix):
        session.run(mix, "cmm-a", SC)
        key = PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="cmm-a").key()
        assert "traces" not in session.cache.get(key)["payload"]
