"""Fig. 12: CMM worst-case per-application speedup."""

from conftest import print_category_means, wide_rows


def test_fig12_cmm_worstcase(figure):
    table = figure("fig12")
    print_category_means(table, "worst")
    # paper shape: all workloads keep an 80%+ worst-case speedup under
    # CMM, most 90%+ — no individual application is hurt significantly.
    rows = wide_rows(table, "workload", "mechanism", metric="worst")
    for mech in ("cmm-a", "cmm-b", "cmm-c"):
        vals = [r[mech] for r in rows]
        assert min(vals) >= 0.75, mech  # floor (paper: 80%+)
        frac_90 = sum(v >= 0.88 for v in vals) / len(vals)
        assert frac_90 >= 0.5, mech     # "most of them get 90%+"
