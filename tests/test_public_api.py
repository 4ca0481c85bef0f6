"""Top-level package API."""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import repro

#: Modules a warm replay must never load: the simulator, the controller
#: and pipeline, the simulated platform, the batch layer and the process
#: pool.  They load at a session's first cache miss.
NOT_ON_A_WARM_REPLAY = (
    "repro.sim.batch",
    "repro.sim.machine",
    "repro.sim.fastengine",
    "repro.core.controller",
    "repro.core.pipeline",
    "repro.platform.simulated",
    "repro.experiments.batch",
    "repro.experiments.pool",
    "concurrent.futures.process",
)

SUBPACKAGES = ("analysis", "core", "experiments", "metrics", "platform", "service", "sim", "workloads")


def _python(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", textwrap.dedent(code)], check=True, env=env, timeout=120)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "9.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
        for sub in SUBPACKAGES:
            package = importlib.import_module(f"repro.{sub}")
            for name in package.__all__:
                assert hasattr(package, name), f"repro.{sub}.{name}"
            assert set(package.__all__) <= set(dir(package)), sub

    def test_import_loads_no_simulator(self):
        _python(f"""
            import sys
            import repro
            loaded = [m for m in {NOT_ON_A_WARM_REPLAY!r} if m in sys.modules]
            assert not loaded, ("import repro", loaded)
            import repro.cli
            loaded = [m for m in {NOT_ON_A_WARM_REPLAY!r} if m in sys.modules]
            assert not loaded, ("import repro.cli", loaded)
            assert repro.sim.machine.Machine is repro.Machine  # submodules still resolve
        """)

    def test_warm_replay_imports_only_what_it_runs(self, tmp_path):
        """A figure and an analysis replayed from a filled cache execute no
        run and import none of the simulator, controller or pool."""
        from repro.cli import main

        argv = [
            ["figures", "fig07", "--out", str(tmp_path / "figures")],
            ["analyze", "--seeds", "1", "--mechanism", "pt", "--out", str(tmp_path / "analysis")],
        ]
        argv = [a + ["--scale", "tiny", "--workers", "1"] for a in argv]
        for args in argv:  # fill the cache (already warm if another test did)
            assert main(args) == 0
        _python(f"""
            import contextlib, io, sys
            from repro.cli import main
            from repro.experiments.engine import default_session
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert [main(args) for args in {argv!r}] == [0, 0]
            executed = [r.label for r in default_session().records if not r.cached]
            assert not executed, executed
            loaded = [m for m in {NOT_ON_A_WARM_REPLAY!r} if m in sys.modules]
            assert not loaded, loaded
        """)

    def test_service_names_load_on_first_use(self):
        """``import repro`` / ``repro.cli`` leave asyncio and the service
        tier unimported; the service names still resolve from ``repro``."""
        code = (
            "import sys, repro, repro.cli\n"
            "assert 'repro.service' not in sys.modules and 'asyncio' not in sys.modules\n"
            "from repro import ExperimentService, ServiceClient\n"
            "import repro.service.server as server\n"
            "assert ExperimentService is server.ExperimentService\n"
            "assert repro.ServiceClient is server.ServiceClient\n"
            "assert not hasattr(repro, 'TieredResultCache')\n"
        )
        _python(code)
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name

    def test_policy_names(self):
        names = repro.policy_names()
        assert "baseline" in names
        assert "cmm-a" in names
        assert "ppm-group" in names  # related-work baseline
        assert len(names) == 9

    def test_make_policy(self):
        assert repro.make_policy("cmm-c").name == "cmm-c"

    def test_default_params_match_paper(self):
        p = repro.default_params()
        assert p.llc.size_bytes == 20 * 1024 * 1024

    @pytest.mark.slow
    def test_quick_run(self):
        ev = repro.quick_run("pref_unfri", mechanism="pref-cp")
        assert "pref-cp" in ev.metrics
        assert ev.metrics["pref-cp"]["hs"] > 0
