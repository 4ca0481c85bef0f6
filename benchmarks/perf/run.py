"""The repo's one benchmark: ``python3 benchmarks/perf/run.py``.

A thin parent.  Every repetition of every workload runs in a fresh child
interpreter (``child.py``) with its own cache directory, serial workers
and the in-memory trace plane; the parent waits for each child, kills
its whole session on timeout, and only then prints.  See README.md for
the workloads, the metrics and how later issues cite them.

By hand::

    python3 benchmarks/perf/run.py                      # all five workloads, timed + traced
    python3 benchmarks/perf/run.py --workload sweep_cold --reps 3
    python3 benchmarks/perf/run.py --quick               # <30 s smoke, numbers not comparable

The benchmark driver runs ``--workload W --seed N --seconds S --trace 0|1``
and reads the last line of stdout: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 2019
MIN_COVERAGE = 0.90
#: One run must end within the driver's 180 s; children get what is left of this.
RUN_DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 120.0
#: Every process of a run inherits this marker, so leftovers can be found
#: (and test_harness.py can look for them) after their parents are gone.
MARKER = "REPRO_PERF_RUN_ID"
#: Knobs that would change what the children measure.
UNPINNED = ("REPRO_SIM_ENGINE", "REPRO_SCALE", "REPRO_NATIVE_KERNELS", "REPRO_RUN_TIMEOUT",
            "REPRO_KERNEL_PROFILE", "PYTHONPATH")


class Harness:
    def __init__(self, args) -> None:
        self.args = args
        self.started = time.monotonic()
        self.run_id = os.environ.get(MARKER) or uuid.uuid4().hex
        self.work = HERE / ".work" / f"run-{os.getpid()}"
        self.out = args.out
        self.size = "quick" if args.quick else "full"
        self.host: dict = {
            "platform": platform.platform(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "numba": None, "engine_auto": None,
        }

    # ------------------------------------------------------------ children

    def child(self, workload: str, mode: str, tag: str, cache: Path | None = None) -> dict:
        """Run one child to completion; never leaves it (or its session) alive.

        Returns the child's result with ``elapsed_s`` added, or
        ``{"error": ...}`` when it died, timed out or printed no result.
        """
        rep = self.work / f"{workload}-{tag}"
        rep.mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if k not in UNPINNED}
        env.update({
            MARKER: self.run_id,
            "HOME": str(rep / "home"),
            "REPRO_CACHE_DIR": str(cache or rep / "cache"),
            "REPRO_WORKERS": "1",
            "REPRO_TRACE_CACHE": "memory",
        })
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--mode", mode,
               "--seed", str(self.args.seed), "--work", str(rep)]
        if self.args.quick:
            cmd.append("--quick")
        if mode == "traced":
            cmd += ["--trace-out", str(self.out / f"trace_{workload}.json")]
        budget = CHILD_TIMEOUT_S
        if len(self.args.workload) == 1:  # the driver's shape: the whole run has a deadline
            budget = min(budget, RUN_DEADLINE_S - (time.monotonic() - self.started))
        start = time.perf_counter()
        with open(rep / "stderr.log", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                                    start_new_session=True)
            try:
                stdout, _ = proc.communicate(timeout=max(1.0, budget))
                error = None
            except subprocess.TimeoutExpired:
                error = f"timed out after {budget:.0f}s"
            finally:
                # The child leads its own session: this reaches anything
                # it started, whether it timed out or exited normally.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        elapsed = time.perf_counter() - start
        if error is None:
            lines = stdout.decode(errors="replace").strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                tail = (rep / "stderr.log").read_text(errors="replace").strip().splitlines()[-3:]
                error = f"exit {proc.returncode}, no result; stderr: {' | '.join(tail)}"
        if error is not None:
            return {"error": error, "elapsed_s": elapsed}
        result["elapsed_s"] = elapsed
        self.host["numba"], self.host["engine_auto"] = result["numba"], result["engine_auto"]
        if proc.returncode != 0 and not result.get("residue"):
            result["residue"] = [f"child exit code {proc.returncode}"]
        return result

    # ------------------------------------------------------------ workload

    def more_reps(self, done: list[dict], budget_started: float) -> bool:
        if self.args.reps is not None:
            return len(done) < self.args.reps
        if not done:
            return True
        # Stop when the next repetition would, on average, end past the budget.
        spent = time.monotonic() - budget_started
        return spent + 0.5 * done[-1]["elapsed_s"] < self.args.seconds

    def measure(self, workload: str) -> dict:
        budget_started = time.monotonic()
        problems: list[str] = []
        cache = None
        populate_s = 0.0
        if workload == "replay_warm":
            cache = self.work / "replay-cache"
            populate = self.child(workload, "populate", "populate", cache)
            populate_s = populate["elapsed_s"]
            if populate.get("error") or populate.get("ops_failed") or populate.get("residue"):
                problems.append(f"populate: {populate.get('error') or populate.get('residue') or 'failed'}")

        reps: list[dict] = []
        want_timed = self.args.trace in (None, 0)
        while (want_timed or not reps) and self.more_reps(reps, budget_started):
            reps.append(self.child(workload, "timed", f"rep{len(reps)}", cache))
            if not want_timed:
                break  # --trace 1 needs one untraced repetition, for the overhead ratio
        traced = None
        if self.args.trace in (None, 1):
            traced = self.child(workload, "traced", "traced", cache)

        children = reps + ([traced] if traced else [])
        good = [r for r in reps if "error" not in r]
        ops = max([r["ops"] for r in good] + [1])
        attempted = failed = 0
        for r in children:
            attempted += r.get("ops", ops)
            failed += r.get("ops", ops) if r.get("error") or r.get("residue") else r["ops_failed"]
            problems += filter(None, [r.get("error")] + r.get("residue", []))
        digests = {r["digest"] for r in children if "error" not in r}
        problems += self.check_digest(workload, digests)

        samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        for r in good:
            samples["wall_s"].append(r["wall_s"])
            samples["setup_s"].append(populate_s + r["elapsed_s"] - r["wall_s"])
            samples["peak_rss_mb"].append(r["peak_rss_mb"])
            # The contract wants every end-to-end metric from every
            # workload.  Only the service has submits; elsewhere the two
            # carry the repetition's time per op, so they move with wall_s.
            per_op_ms = 1e3 * r["wall_s"] / r["ops"]
            samples["submit_p50_ms"].append(r["extra"].get("submit_p50_ms", per_op_ms))
            samples["submit_p99_ms"].append(r["extra"].get("submit_p99_ms", per_op_ms))

        layers_out = None
        if traced is not None and "error" not in traced:
            layers_out = dict(traced["layers"])
            base = statistics.median(samples["wall_s"]) if samples["wall_s"] else 0.0
            layers_out["trace.overhead_ratio"] = traced["wall_s"] / base if base else 0.0
            if set(layers_out) != set(PER_LAYER):
                problems.append("per-layer names differ from BENCHMARK.json: "
                                f"{sorted(set(layers_out) ^ set(PER_LAYER))}")
            if traced["uncalled"]:
                problems.append(f"wrappers never called on their home workload: {traced['uncalled']}")
            if layers_out["trace.coverage"] < MIN_COVERAGE:
                problems.append(f"trace.coverage {layers_out['trace.coverage']:.3f} < {MIN_COVERAGE}")
        return {
            "workload": workload, "seed": self.args.seed, "size": self.size,
            "attempted": attempted, "failed": attempted if problems else failed, "problems": problems,
            "digest": next(iter(digests)) if len(digests) == 1 else None,
            "samples": samples, "layers": layers_out,
        }

    def check_digest(self, workload: str, digests: set[str]) -> list[str]:
        """Simulated statistics must repeat exactly, and at the default
        seed equal what expected.json pins (``--pin`` rewrites the pin)."""
        if len(digests) > 1:
            return [f"digest differs between repetitions: {sorted(digests)}"]
        if not digests or self.args.seed != DEFAULT_SEED:
            return []
        digest = next(iter(digests))
        pinned = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        if self.args.pin:
            pinned.setdefault(self.size, {})[workload] = digest
            EXPECTED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        elif pinned.get(self.size, {}).get(workload) != digest:
            return [f"digest {digest} is not the one pinned in expected.json"]
        return []

    # -------------------------------------------------------------- output

    def report(self, res: dict) -> dict:
        """Print one workload's table and its result line; return the line."""
        label = " [QUICK: smoke sizes, not comparable with BENCHMARK.json]" if self.args.quick else ""
        print(f"\n== {res['workload']} (seed {res['seed']}){label}")
        print(f"   host: {json.dumps(self.host)}")
        print(f"   ops attempted {res['attempted']}, failed {res['failed']}, digest {res['digest']}")
        for problem in res["problems"]:
            print(f"   PROBLEM: {problem}")
        print(f"   {'metric':<34}{'unit':>8}{'n':>4}{'median':>14}{'q1':>14}{'q3':>14}")
        metrics: dict[str, dict] = {}
        if self.args.trace in (None, 0):
            for name, values in res["samples"].items():
                unit = END_TO_END[name]["unit"]
                if values:
                    q1, med, q3 = quartiles(values)
                    print(f"   {name:<34}{unit:>8}{len(values):>4}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}")
                    metrics[name] = {"value": med, "unit": unit}
        if res["layers"] is not None:
            for name, value in res["layers"].items():
                unit = PER_LAYER.get(name, {}).get("unit", "?")
                print(f"   {name:<34}{unit:>8}{1:>4}{value:>14.6g}")
                if self.args.trace == 1:
                    metrics[name] = {"value": value, "unit": unit}
        line = {"correct": res["failed"] == 0 and bool(metrics), "attempted": max(1, res["attempted"]),
                "failed": res["failed"], "metrics": metrics}
        print(json.dumps(line), flush=True)
        return line

    def leftovers(self) -> list[str]:
        """Processes of this run still alive, and trace-plane SHM segments."""
        found = []
        needle = f"{MARKER}={self.run_id}".encode()
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit() or int(entry.name) == os.getpid():
                continue
            try:
                if needle in (entry / "environ").read_bytes().split(b"\0"):
                    found.append(f"process {entry.name} survived")
                    os.kill(int(entry.name), signal.SIGKILL)
            except OSError:
                continue  # gone, or not ours to read
        shm = Path("/dev/shm")
        if shm.is_dir():
            found += [f"shm segment {p.name}" for p in shm.glob("repro-tr-*")]
        return found

    def run(self) -> int:
        self.out.mkdir(parents=True, exist_ok=True)
        results, lines = [], []
        try:
            for workload in self.args.workload:
                res = self.measure(workload)
                # Every child has been waited for by now; anything of this
                # run that is still alive is a leak, and fails the workload.
                left = self.leftovers()
                if left:
                    res["problems"] += left
                    res["failed"] = res["attempted"]
                results.append(res)
                lines.append(self.report(res))
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        (self.out / "results.json").write_text(json.dumps(
            {"host": self.host, "seed": self.args.seed, "quick": self.args.quick,
             "workloads": results}, indent=1) + "\n")
        if len(lines) > 1:
            # Several workloads by hand: the last line covers them all.
            print(json.dumps({
                "correct": all(line["correct"] for line in lines),
                "attempted": sum(line["attempted"] for line in lines),
                "failed": sum(line["failed"] for line in lines),
                "metrics": {f"{res['workload']}/{k}": v
                            for res, line in zip(results, lines) for k, v in line["metrics"].items()},
            }))
        return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}, the one expected.json pins)")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="measure each workload for about this long (default: run_seconds)")
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many timed repetitions, instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed repetitions only; 1: one timed + the traced one; default: both")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one repetition of small sizes; numbers are not comparable")
    parser.add_argument("--pin", action="store_true",
                        help="write the digests of this run to expected.json instead of checking them")
    parser.add_argument("--out", type=Path, default=HERE / ".work" / "out",
                        help="where results.json and trace_<workload>.json go")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOADS)
    if args.quick and args.reps is None:
        args.reps = 1
    for needed in (ROOT / "src" / "repro" / "__init__.py", ROOT / "tests" / "goldens" / "analysis" / "tiny"):
        if not needed.exists():
            print(f"{needed} is missing: the benchmark runs from a checkout of the repository",
                  file=sys.stderr)
            return 2
    return Harness(args).run()


if __name__ == "__main__":
    sys.exit(main())
