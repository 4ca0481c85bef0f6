"""The test suite never touches the user's default result cache.

Module-scoped fixtures (``test_end_to_end.py``'s evaluations) build the
default session before any function-scoped fixture runs, so the cache
redirect must already be in place for the whole pytest session.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_suite_subset_leaves_home_cache_alone(tmp_path):
    home = tmp_path / "home"
    home.mkdir()
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_CACHE_DIR", "REPRO_SCALE")}
    env["HOME"] = str(home)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "basetemp"),
         "tests/integration/test_end_to_end.py", "-k", "test_pt_near_neutral_on_no_agg"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "1 passed" in proc.stdout
    assert not (home / ".cache" / "repro").exists()
