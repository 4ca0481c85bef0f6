"""The trace plane must change *nothing* but wall-clock time.

Differential contract (mirrors ``tests/chaos/test_differential.py``):
through the session's in-memory store and the shared-memory manifest,
every run's payload is byte-identical to live generation (the path a
pool worker takes without shared memory), decision/PMU fingerprints
match the pre-hardening captures, and content-addressed cache keys are
untouched (the plane is excluded from ``key_payload`` exactly like the
simulation-engine choice).
"""

import dataclasses
import hashlib
import json
import multiprocessing

import numpy as np

from repro.core.controller import CMMController
from repro.core.epoch import EpochConfig
from repro.core.policies import make_policy
from repro.experiments.config import TINY
from repro.experiments.engine import (
    KIND_ALONE,
    KIND_MECHANISM,
    KIND_PROFILE,
    ExperimentSession,
    PlannedRun,
    _execute_planned,
)
from repro.experiments.runner import build_machine, mechanism_trace_length
from repro.platform.simulated import SimulatedPlatform
from repro.sim.tracestore import TraceStore, shm_residue
from repro.workloads.mixes import make_mixes

SC = dataclasses.replace(
    TINY, name="unit", quantum=256, sample_units=256, exec_units=2048, alone_accesses=4096
)

# Same captures tests/chaos/test_differential.py pins: the plane must
# reproduce them bit for bit and leave the key space untouched.
PRE_HARDENING_FINGERPRINTS = {
    "baseline": "49455a3f0475a441298d02faaf53c874bb45bb4eac8a7c74791d1dccaad1526e",
    "cmm-a": "2322f568afb33f14f4142cee091e0a0ee93112e59b4bd2e0115fe665c7f5167d",
    "pt": "0df1235fa58d11e7f2642650cd8c903cc8891d23f22b49f67dd20541af353e1a",
}
PRE_HARDENING_KEYS = {
    "mech-cmm-a": "487ec95432f344df3af37724a663738135d7dd109e7c6232e97f4a4a784455b8",
    "alone-410.bwaves": "029c125f72c9cf1e9115fbcc5336d69262503209f36c2d9239fdb04e5e6c7f05",
    "profile-453.povray": "75943b3fb8ddbf18a5f02792e2dc5c3d0db08313ce2a9769306798bb976e68cb",
}

FORK = multiprocessing.get_context("fork")


def the_mix():
    return make_mixes("pref_agg", 1, seed=2019)[0]


def fingerprint(stats):
    return hashlib.sha256(
        stats.totals.tobytes() + np.float64(stats.wall_cycles).tobytes()
    ).hexdigest()


def the_plan():
    mix = the_mix()
    return [
        PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="baseline"),
        PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="cmm-a"),
        PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="pt"),
        PlannedRun(KIND_ALONE, SC, bench="410.bwaves"),
        PlannedRun(KIND_PROFILE, SC, bench="453.povray", way_sweep=(1, 4)),
    ]


def canonical(payloads):
    return json.dumps(payloads, sort_keys=True)


def live_reference():
    """Every planned run's payload from live generation, keyed and
    shaped like ``session.execute`` (which stores decision traces
    beside the payload)."""
    out = {}
    for run in the_plan():
        payload, _secs = _execute_planned(run, None)
        payload.pop("traces", None)
        out[run.key()] = payload
    return out


def execute(tmp_path, tag, **session_kwargs):
    session = ExperimentSession(
        scale=SC, cache_dir=tmp_path / tag, run_timeout=120, **session_kwargs
    )
    try:
        return session.execute(the_plan())
    finally:
        session.close()


class TestPayloadIdentity:
    def test_serial_store_matches_live(self, tmp_path):
        mem = execute(tmp_path, "mem", max_workers=1)
        assert canonical(mem) == canonical(live_reference())

    def test_cold_session_writes_no_traces(self, tmp_path):
        session = ExperimentSession(scale=SC, cache_dir=tmp_path / "cache", max_workers=1)
        try:
            out = session.execute(the_plan())
        finally:
            session.close()
        assert not (tmp_path / "cache" / "tracestore").exists()
        assert canonical(out) == canonical(live_reference())

    def test_pool_manifest_path_matches(self, tmp_path, plenty_of_cpus):
        live = live_reference()
        before = set(shm_residue())
        session = ExperimentSession(
            scale=SC, cache_dir=tmp_path / "pool", run_timeout=120,
            max_workers=3, mp_context=FORK,
        )
        try:
            pooled = session.execute(the_plan())
            published = set(shm_residue()) - before
        finally:
            session.close()
        assert canonical(pooled) == canonical(live)
        assert published, "the pool path published no segment"
        assert not published & set(shm_residue())


class TestFingerprints:
    def test_controller_with_store_matches_pre_hardening(self):
        store = TraceStore()
        for mech, expected in PRE_HARDENING_FINGERPRINTS.items():
            machine = build_machine(the_mix(), SC, trace_store=store)
            ctl = CMMController(
                SimulatedPlatform(machine),
                make_policy(mech),
                epoch_cfg=EpochConfig(
                    exec_units=SC.exec_units, sample_units=SC.sample_units
                ),
            )
            assert fingerprint(ctl.run(SC.n_epochs)) == expected, mech

    def test_no_fallbacks_at_standard_scales(self):
        # Every chunk a mechanism run requests is 32-aligned and within
        # the materialized bound — the stored path never bails out.
        store = TraceStore()
        machine = build_machine(the_mix(), SC, trace_store=store)
        ctl = CMMController(
            SimulatedPlatform(machine),
            make_policy("cmm-a"),
            epoch_cfg=EpochConfig(exec_units=SC.exec_units, sample_units=SC.sample_units),
        )
        ctl.run(SC.n_epochs)
        for core in range(the_mix().n_cores):
            trace = machine.cores[core].trace
            assert trace.fallbacks == 0, core
            assert trace.pos <= mechanism_trace_length(SC)


class TestCacheKeysUntouched:
    def test_keys_match_pre_plane_captures(self):
        mix = the_mix()
        assert (
            PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="cmm-a").key()
            == PRE_HARDENING_KEYS["mech-cmm-a"]
        )
        assert (
            PlannedRun(KIND_ALONE, SC, bench="410.bwaves").key()
            == PRE_HARDENING_KEYS["alone-410.bwaves"]
        )
        assert (
            PlannedRun(KIND_PROFILE, SC, bench="453.povray", way_sweep=(1, 2)).key()
            == PRE_HARDENING_KEYS["profile-453.povray"]
        )
