"""Top-level package API."""

import os
import subprocess
import sys

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "4.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

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
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
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
