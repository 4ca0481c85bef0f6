"""CI gate: a warm `repro figures` replays and imports only what it runs.

Re-runs ``repro figures --scale tiny --check tests/goldens/analysis/tiny``
in-process against the cache the figure artifact gate just filled
(``REPRO_CACHE_DIR``).  Fails unless the artifacts match the goldens,
the session executed no run (every key replayed from the cache), and
none of the modules below was imported.

Table I and Fig. 5 sample freshly built machines by design: they are
not cached runs.  So a full ``repro figures`` does load ``sim.machine``,
``sim.fastengine``, ``sim.batch`` (a fast machine's LLC is its
``GroupedLLC``) and ``platform.simulated``; the tier-1 test
``tests/test_public_api.py::TestPublicApi::test_warm_replay_imports_only_what_it_runs``
pins those four as well, for the cached figures.

Run from the repository root: ``python .github/scripts/warm_replay_gate.py``.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

#: Loaded only at a session's first cache miss.
NOT_ON_A_WARM_REPLAY = (
    "repro.core.controller",
    "repro.core.pipeline",
    "repro.experiments.batch",
    "repro.experiments.pool",
    "concurrent.futures.process",
)

GOLDENS = Path("tests/goldens/analysis/tiny")


def main() -> int:
    from repro.cli import main as repro_main
    from repro.experiments.engine import default_session

    with tempfile.TemporaryDirectory(prefix="warm-replay-") as out:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = repro_main(["figures", "--scale", "tiny", "--out", out, "--check", str(GOLDENS)])
    session = default_session()
    executed = [r.label for r in session.records if not r.cached]
    session.close()
    loaded = [m for m in NOT_ON_A_WARM_REPLAY if m in sys.modules]
    problems = []
    if rc != 0:
        problems.append(f"repro figures exited {rc}:\n{stderr.getvalue()}")
    if executed:
        problems.append(f"{len(executed)} run(s) executed instead of replaying: {executed[:5]}")
    if loaded:
        problems.append(f"imported on a warm replay: {', '.join(loaded)}")
    for problem in problems:
        print(f"warm replay gate: {problem}", file=sys.stderr)
    if not problems:
        print(f"warm replay gate: {len(session.records)} runs replayed, "
              f"none of {len(NOT_ON_A_WARM_REPLAY)} executor modules imported")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
