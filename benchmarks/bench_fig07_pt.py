"""Fig. 7: PT's normalized HS and WS vs. baseline per workload."""

from conftest import category_means, print_category_means


def test_fig07_pt(figure):
    table = figure("fig07")
    print_category_means(table, "hs_norm")
    means = category_means(table, "hs_norm")
    means_ws = category_means(table, "ws")
    # paper shape: Pref Unfri benefits the most, Pref Agg second;
    # Pref No Agg sees ~no change; Pref Fri improves least.
    assert means["pref_unfri"]["pt"] > means["pref_agg"]["pt"]
    assert means["pref_unfri"]["pt"] > 1.05
    assert means["pref_agg"]["pt"] > 1.0
    assert 0.9 < means["pref_no_agg"]["pt"] < 1.1
    assert means["pref_fri"]["pt"] < means["pref_agg"]["pt"]
    # WS agrees directionally
    assert means_ws["pref_unfri"]["pt"] > 1.0
