"""Fig. 8: PT's lowest per-application normalized IPC per workload."""

from conftest import print_category_means, wide_rows


def test_fig08_pt_worstcase(figure):
    table = figure("fig08")
    print_category_means(table, "worst")
    rows = wide_rows(table, "workload", "mechanism", metric="worst")
    # paper shape: PT significantly hurts at least one application in
    # most workloads that contain prefetch-friendly benchmarks.
    fri_rows = [r for r in rows if r["category"] in ("pref_fri", "pref_agg")]
    hurt = [r for r in fri_rows if r["pt"] < 0.95]
    assert len(hurt) >= len(fri_rows) // 2
    # and the damage can be severe (paper: >50% loss for some)
    assert min(r["pt"] for r in fri_rows) < 0.90
