"""CI smoke: SIGKILL a running `repro serve` mid-sweep, resume, compare.

Starts the daemon on a unix socket, submits a batch of alone runs,
kills the process with SIGKILL as soon as the sweep journal's plan
segment lands (the batch is resumable from that instant), restarts
with ``--resume``, and asserts the recovered cache payloads are
byte-identical to an uninterrupted local session.

The check is correct regardless of kill timing: if the daemon finished
the batch before the signal landed, the journal is sealed, ``--resume``
is a no-op, and the payloads are already in the cache — either way
every key must be present and identical to the baseline.

Before it is shut down, the resumed daemon is sent three runs it must
refuse at decode: a malformed one (a list where the scale's ``quantum``
should be an int), a ``kind: "hook"`` run naming a ``module:function``,
and one with ``llc_scale: 0``.  Each must get a ``protocol`` error,
journal nothing, and keep the connection.
On that same connection it is then asked for the same batch again,
warm.  Every result must come back ``cached: true`` and
byte-identical to the baseline; once every key is in the daemon's
memory tier a further submit must add no journal file, because there
is nothing it could resume.  (Which keys the resume executed — and so
already holds in memory — depends on the kill timing; keys that
finished before the kill are on disk only, so the first warm submit
may still queue and journal them.)

First of all, ``repro serve --host 0.0.0.0`` must exit non-zero with a
"not a loopback address" error instead of binding a reachable socket.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path


def wait_for(cond, timeout_s: float, what: str) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if cond():
            return
        time.sleep(0.05)
    raise SystemExit(f"serve smoke: timed out waiting for {what}")


def main() -> int:
    from repro.experiments.config import get_scale
    from repro.experiments.engine import KIND_ALONE, ExperimentSession, PlannedRun, ResultCache
    from repro.service import ServiceClient
    from repro.service.protocol import run_to_wire
    from repro.service.journal import SweepJournal
    from repro.workloads.mixes import make_mixes

    refused = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--host", "0.0.0.0", "--no-cache"],
        capture_output=True, text=True, timeout=30,
    )
    assert refused.returncode != 0, "serve bound a non-loopback host"
    assert "'0.0.0.0' is not a loopback address" in refused.stderr, refused.stderr
    print("non-loopback --host refused")

    sc = get_scale()
    mix = make_mixes("pref_agg", 1, seed=sc.seed)[0]
    runs = [PlannedRun(KIND_ALONE, sc, bench=b) for b in mix.benchmarks]

    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    sock, wal, cache_dir = tmp / "svc.sock", tmp / "wal", tmp / "cache"

    def spawn(*extra: str) -> subprocess.Popen:
        return subprocess.Popen([
            sys.executable, "-m", "repro", "serve",
            "--unix", str(sock), "--journal-dir", str(wal),
            "--cache-dir", str(cache_dir), "--workers", "1", *extra,
        ])

    proc = spawn()
    wait_for(sock.exists, 60, "the daemon's socket")

    # Submit from a background thread; the connection dies with the
    # daemon, which is exactly the crash being simulated.
    def submit() -> None:
        try:
            with ServiceClient(path=sock) as cli:
                cli.submit(runs)
        except (OSError, EOFError, RuntimeError):
            pass

    t = threading.Thread(target=submit, daemon=True)
    t.start()

    # The journal's plan segment is written atomically before any run
    # executes: the moment it exists, the sweep survives SIGKILL.
    wait_for(lambda: any(wal.glob("*.jsonl")), 60, "the sweep journal")
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    t.join(timeout=30)
    pending = len(SweepJournal.incomplete(wal))
    print(f"killed daemon; {pending} unsealed journal(s) on disk")

    sock.unlink(missing_ok=True)  # SIGKILL skipped the daemon's cleanup
    proc = spawn("--resume")
    try:
        # serve() replays unsealed journals before binding the socket.
        wait_for(sock.exists, 300, "the resumed daemon's socket")
        with ServiceClient(path=sock) as cli:
            assert cli.ping()["ok"]
            # Malformed, code-naming and zero-scale runs are refused at
            # decode with a structured error; the connection stays up
            # for the warm batch below.
            journals = sorted(wal.glob("*.jsonl"))
            malformed = run_to_wire(runs[0])
            malformed["scale"]["quantum"] = [malformed["scale"]["quantum"]]
            hook = run_to_wire(runs[0]) | {"kind": "hook", "bench": "os:getcwd"}
            zero_scale = run_to_wire(runs[0])
            zero_scale["scale"]["llc_scale"] = 0
            for bad in (malformed, hook, zero_scale):
                refused = cli.submit([bad])
                assert not refused["ok"] and refused["error"]["type"] == "protocol", refused
                assert sorted(wal.glob("*.jsonl")) == journals, "a refused run wrote a journal"
            warm = [cli.submit(runs)]
            journals = sorted(wal.glob("*.jsonl"))
            warm.append(cli.submit(runs))
            assert sorted(wal.glob("*.jsonl")) == journals, \
                "a submit answered from memory wrote a journal"
            cli.shutdown()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()

    assert SweepJournal.incomplete(wal) == [], "resume left unsealed journals"
    store = ResultCache(cache_dir)
    recovered = {}
    for r in runs:
        entry = store.get(r.key())
        assert entry is not None, f"missing cache entry after resume: {r.key()}"
        recovered[r.key()] = entry["payload"]

    with ExperimentSession(cache_dir=tmp / "baseline", max_workers=1) as session:
        baseline = session.execute(runs)
    assert json.dumps(recovered, sort_keys=True) == json.dumps(baseline, sort_keys=True), \
        "resumed payloads diverged from an uninterrupted run"
    for resp in warm:
        assert resp["ok"] and all(r["ok"] and r["cached"] for r in resp["results"]), \
            "warm resubmit was not served from the cache"
        served = {r["key"]: r["payload"] for r in resp["results"]}
        assert json.dumps(served, sort_keys=True) == json.dumps(baseline, sort_keys=True), \
            "warm resubmit payloads diverged from an uninterrupted run"
    print(f"serve resume smoke OK: {len(runs)} payloads bit-identical after SIGKILL + --resume, "
          "malformed, hook and zero-scale runs refused, warm resubmits cached and unjournaled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
