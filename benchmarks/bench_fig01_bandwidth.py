"""Fig. 1: memory bandwidth per benchmark, demand vs. prefetch increase."""

from conftest import wide_rows

from repro.experiments.report import render_table
from repro.workloads.speclike import benchmark


def test_fig01_bandwidth(figure):
    rows = wide_rows(figure("fig01"), "benchmark")
    print()
    print(
        render_table(
            ["benchmark", "demand MB/s", "total MB/s", "increase %"],
            [[r["benchmark"], r["demand_bw_mbs"], r["total_bw_mbs"], r["increase_pct"]] for r in rows],
            title="Fig. 1 — bandwidth with/without prefetching",
        )
    )
    by_name = {r["benchmark"]: r for r in rows}
    # paper shape: the demand-intensive streamers sit at multi-GB/s demand
    # bandwidth and gain far more than 50% from prefetching...
    for name in ("410.bwaves", "459.GemsFDTD", "437.leslie3d"):
        assert by_name[name]["demand_bw_mbs"] > 1500.0
        assert by_name[name]["increase_pct"] > 50.0
    # ...while compute-bound benchmarks barely move the memory bus.
    for name in ("453.povray", "416.gamess"):
        assert by_name[name]["demand_bw_mbs"] < 1500.0
    # classification consistency with the registry
    for r in rows:
        spec = benchmark(r["benchmark"])
        measured_aggressive = r["demand_bw_mbs"] > 1500.0 and r["increase_pct"] > 50.0
        assert measured_aggressive == spec.pref_aggressive, r["benchmark"]
