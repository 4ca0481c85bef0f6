"""Fig. 5: the front-end's Agg-set detection across workload categories."""

from conftest import wide_rows

from repro.experiments.report import render_table
from repro.workloads.speclike import benchmark


def test_fig05_detection(figure):
    rows = wide_rows(figure("fig05"), "workload")
    print()
    print(
        render_table(
            ["workload", "agg set", "agg benchmarks"],
            [[r["workload"], str(r["agg_set"]), ", ".join(r["agg_benchmarks"])] for r in rows],
            title="Fig. 5 — detected prefetch-aggressive cores",
        )
    )
    by_cat: dict[str, list] = {}
    for r in rows:
        by_cat.setdefault(r["category"], []).append(r)
    # Pref No Agg workloads: the Agg set stays (near) empty.
    for r in by_cat["pref_no_agg"]:
        assert len(r["agg_set"]) <= 1
    # Pref Fri / Unfri workloads: most detections are genuinely aggressive.
    hits = total = 0
    for cat in ("pref_fri", "pref_unfri", "pref_agg"):
        for r in by_cat[cat]:
            assert r["agg_set"], f"{r['workload']}: nothing detected"
            for b in r["agg_benchmarks"]:
                total += 1
                hits += benchmark(b).pref_aggressive
    assert hits / total >= 0.8
