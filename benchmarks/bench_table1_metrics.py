"""Table I: per-core metric values on a mixed workload."""

from conftest import wide_rows

from repro.experiments.report import render_table
from repro.workloads.speclike import benchmark


def test_table1_metrics(figure):
    rows = wide_rows(figure("table1"), "core")
    assert len(rows) == 8
    print()
    print(
        render_table(
            ["core", "benchmark", "M2", "M3 (req/s)", "M4 PGA", "M5 PMR", "M6 PPM", "M7 (B/s)"],
            [
                [
                    r["core"], r["benchmark"], r["M2_l2_pref_miss_frac"], r["M3_l2_ptr"],
                    r["M4_pga"], r["M5_l2_pmr"], r["M6_l2_ppm"], r["M7_llc_pt"],
                ]
                for r in rows
            ],
            title="Table I metrics (one pref_agg workload)",
        )
    )
    # shape: prefetch-aggressive benchmarks show higher PGA than quiet ones
    by_agg = {r["benchmark"]: r["M4_pga"] for r in rows}
    agg_vals = [v for b, v in by_agg.items() if benchmark(b).pref_aggressive]
    quiet_vals = [v for b, v in by_agg.items() if not benchmark(b).pref_aggressive]
    if agg_vals and quiet_vals:
        assert max(agg_vals) > min(quiet_vals)
