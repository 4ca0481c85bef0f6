"""Fig. 3: IPC as a function of allotted LLC ways (prefetchers on)."""

from conftest import wide_rows

from repro.experiments.report import render_table
from repro.workloads.speclike import benchmark


def test_fig03_way_sensitivity(figure):
    table = figure("fig03")
    rows = wide_rows(table.filter(lambda r: r["metric"] != "ipc"), "benchmark")
    print()
    print(
        render_table(
            ["benchmark", "min ways (90%)", "min ways (80%)"],
            [[r["benchmark"], r["min_ways_90pct"], r["min_ways_80pct"]] for r in rows],
            title="Fig. 3 — LLC way sensitivity",
        )
    )
    by_name = {r["benchmark"]: r for r in rows}
    # paper's key observation: prefetch-aggressive-and-friendly apps need
    # no more than 2 ways for 90% of their best performance
    for name in ("410.bwaves", "462.libquantum", "470.lbm"):
        assert by_name[name]["min_ways_90pct"] <= 2
    # LLC-sensitive apps need at least 8 ways for 80%
    for r in rows:
        spec = benchmark(r["benchmark"])
        assert (r["min_ways_80pct"] >= 8) == spec.llc_sensitive, r["benchmark"]
    # way curves are (weakly) improving with more ways for sensitive apps
    curve = {r["ways"]: r["value"] for r in table.filter(metric="ipc", benchmark="429.mcf")}
    ways_sorted = sorted(curve)
    assert curve[ways_sorted[-1]] >= curve[ways_sorted[0]]
