"""Fig. 2: IPC speedup from prefetching per benchmark."""

from conftest import wide_rows

from repro.experiments.report import render_table


def test_fig02_prefetch_speedup(figure):
    rows = wide_rows(figure("fig02"), "benchmark")
    print()
    print(
        render_table(
            ["benchmark", "IPC on", "IPC off", "speedup %"],
            [[r["benchmark"], r["ipc_on"], r["ipc_off"], r["speedup_pct"]] for r in rows],
            title="Fig. 2 — IPC speedup from prefetching",
        )
    )
    by_name = {r["benchmark"]: r["speedup_pct"] for r in rows}
    # paper shape: libquantum/bwaves/GemsFDTD/wrf gain 50+%
    for name in ("462.libquantum", "410.bwaves", "459.GemsFDTD", "481.wrf"):
        assert by_name[name] > 50.0
    # Rand Access is hurt by prefetching (paper: ~-25% alone)
    assert by_name["rand_access"] < -10.0
    # omnetpp only slightly reduced
    assert -25.0 < by_name["471.omnetpp"] < 10.0
