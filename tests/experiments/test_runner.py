"""Workload runner and evaluation plumbing (simulator in the loop).

Uses a reduced scale so the whole module stays fast.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments.config import TINY
from repro.experiments.engine import default_session, run
from repro.experiments.runner import build_machine
from repro.workloads.mixes import make_mixes

# A deliberately small scale for unit testing the plumbing.
SC = dataclasses.replace(
    TINY, name="unit", quantum=256, sample_units=256, exec_units=2048, alone_accesses=4096
)


@pytest.fixture(scope="module")
def mix():
    return make_mixes("pref_agg", 1, seed=2019)[0]


class TestBuildMachine:
    def test_one_trace_per_core(self, mix):
        m = build_machine(mix, SC)
        assert m.active_cores() == list(range(8))

    def test_too_many_cores_rejected(self):
        big = make_mixes("pref_agg", 1, seed=1)[0]
        sc = dataclasses.replace(SC, n_cores=4)
        with pytest.raises(ValueError):
            build_machine(big, sc)


class TestRun:
    def test_baseline_run(self, mix):
        r = run(mix, "baseline", SC)
        assert r.mechanism == "baseline"
        assert (r.ipc > 0).all()
        assert r.mem_bandwidth_mbs > 0

    def test_deterministic(self, mix):
        a = run(mix, "baseline", SC)
        b = run(mix, "baseline", SC)
        np.testing.assert_allclose(a.ipc, b.ipc)

    def test_unknown_mechanism(self, mix):
        with pytest.raises(KeyError):
            run(mix, "bogus", SC)


class TestSessionEvaluate:
    @pytest.fixture(scope="class")
    def ev(self, mix):
        return default_session().evaluate(mix, ("pt",), SC)

    def test_baseline_metrics_are_identity(self, ev):
        m = ev.metrics["baseline"]
        assert m["hs_norm"] == 1.0
        assert m["ws"] == 1.0
        assert m["worst"] == 1.0

    def test_mechanism_metrics_present(self, ev):
        m = ev.metrics["pt"]
        for key in ("hs", "hs_norm", "ws", "worst", "bw_mbs", "bw_norm", "stalls_norm"):
            assert key in m

    def test_hs_consistency(self, ev):
        m = ev.metrics["pt"]
        assert m["hs_norm"] == pytest.approx(m["hs"] / ev.metrics["baseline"]["hs"])

    def test_hs_in_plausible_range(self, ev):
        assert 0.0 < ev.metrics["baseline"]["hs"] <= 1.0  # co-run never beats alone

    def test_worst_le_ws_bound(self, ev):
        # the minimum per-app ratio can't exceed the mean ratio
        assert ev.metrics["pt"]["worst"] <= ev.metrics["pt"]["ws"] + 1e-9


class TestRunPolicyObject:
    def test_custom_policy_and_sample_units(self, mix):
        sc = dataclasses.replace(SC, sample_units=128)
        r = run(mix, "pref-cp", sc, params={"partition_factor": 1.0}, label="pref-cp@1.0")
        assert r.mechanism == "pref-cp@1.0"
        assert (r.ipc > 0).all()

    def test_label_defaults_to_policy_name(self, mix):
        assert run(mix, "dunn", SC).mechanism == "dunn"
        r = run(mix, "pref-cp", SC, params={"partition_factor": 1.0})
        assert r.mechanism == "pref-cp[partition_factor=1.0]"

    def test_detector_cfg_reaches_a_direct_controller(self, mix):
        """A custom DetectorConfig goes to a CMMController built by hand."""
        from repro.core.controller import CMMController
        from repro.core.epoch import EpochConfig
        from repro.core.frontend import DetectorConfig
        from repro.core.throttling import PrefetchThrottlingPolicy
        from repro.platform.simulated import SimulatedPlatform

        def agg_set(detector_cfg):
            policy = PrefetchThrottlingPolicy()
            CMMController(
                SimulatedPlatform(build_machine(mix, SC)), policy,
                epoch_cfg=EpochConfig(exec_units=SC.exec_units, sample_units=SC.sample_units),
                detector_cfg=detector_cfg,
            ).run(SC.n_epochs)
            return policy.last_agg_set

        assert agg_set(None) != ()
        # An impossible PTR floor: nothing can ever be detected.
        assert agg_set(DetectorConfig(ptr_min=1e18)) == ()
