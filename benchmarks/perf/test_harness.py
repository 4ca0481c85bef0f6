"""The harness leaves nothing behind.  Run explicitly (not tier-1)::

    python3 benchmarks/perf/test_harness.py
    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py

``run.py`` tags every process it starts with ``REPRO_PERF_RUN_ID``; the
test sets the tag itself, lets ``run.py --quick`` finish, and then looks
through ``/proc`` — not through anything the harness reports — for a
process that still carries it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
MARKER = "REPRO_PERF_RUN_ID"


def tagged_processes(run_id: str) -> list[str]:
    needle = f"{MARKER}={run_id}".encode()
    alive = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            if needle in (entry / "environ").read_bytes().split(b"\0"):
                alive.append(f"{entry.name}: {(entry / 'cmdline').read_bytes().replace(bytes(1), b' ').decode()}")
        except OSError:
            continue
    return alive


def run_quick(tmp: Path, *extra: str) -> tuple[subprocess.CompletedProcess, str]:
    run_id = uuid.uuid4().hex
    env = dict(os.environ, **{MARKER: run_id, "HOME": str(tmp / "home")})
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(tmp / "out"), *extra],
        env=env, capture_output=True, text=True, timeout=170,
    )
    return proc, run_id


def test_quick_run_is_correct_and_leaves_no_residue(tmp_path: Path) -> None:
    shm_before = set(Path("/dev/shm").glob("repro-tr-*"))
    proc, run_id = run_quick(tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0, proc.stdout
    assert "not comparable" in proc.stdout
    assert tagged_processes(run_id) == []
    assert set(Path("/dev/shm").glob("repro-tr-*")) == shm_before
    assert not (tmp_path / "home" / ".cache" / "repro").exists()
    assert not any((HERE / ".work").glob("run-*")), "scratch directories are removed on exit"
    for workload in ("figures_cold", "sweep_cold", "static_sweep", "replay_warm", "service_mixed"):
        spans = json.loads((tmp_path / "out" / f"trace_{workload}.json").read_text())["spans"]
        assert spans and {"name", "start", "end", "thread", "cause"} <= set(spans[0])


def test_a_child_past_its_timeout_is_killed_with_its_session(tmp_path: Path) -> None:
    """The full-size static sweep needs ~5 s; given 1 s, the child is
    killed by process group and reported as an error, not waited for."""
    sys.path.insert(0, str(HERE.parent))
    from perf import run as harness_run

    args = argparse.Namespace(workload=["static_sweep"], seed=2019, seconds=1.0, reps=1,
                              trace=0, quick=False, pin=False, out=tmp_path / "out")
    harness = harness_run.Harness(args)
    saved = harness_run.CHILD_TIMEOUT_S
    harness_run.CHILD_TIMEOUT_S = 1.0
    try:
        result = harness.child("static_sweep", "timed", "timeout")
    finally:
        harness_run.CHILD_TIMEOUT_S = saved
        shutil.rmtree(harness.work, ignore_errors=True)
    assert "timed out" in result["error"]
    assert tagged_processes(harness.run_id) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        test_quick_run_is_correct_and_leaves_no_residue(Path(tmp))
        test_a_child_past_its_timeout_is_killed_with_its_session(Path(tmp))
    print("ok: run.py --quick is correct; no process, shm segment or default cache was left behind, "
          "also after a timeout")
