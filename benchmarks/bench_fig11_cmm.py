"""Fig. 11: the coordinated mechanisms CMM-a / CMM-b / CMM-c."""

from conftest import category_means, print_category_means


def test_fig11_cmm(figure):
    table = figure("fig11")
    print_category_means(table, "hs_norm")
    means = category_means(table, "hs_norm")
    # paper shape: CMM-a and CMM-c beat CMM-b on the categories with
    # unfriendly aggressors (CMM-b leaves their demand interference in
    # the shared cache).
    for cat in ("pref_agg", "pref_unfri"):
        assert means[cat]["cmm-a"] >= means[cat]["cmm-b"] - 0.005, cat
        assert means[cat]["cmm-c"] >= means[cat]["cmm-b"] - 0.005, cat
    # real gains on aggressive categories
    assert means["pref_agg"]["cmm-a"] > 1.03
    assert means["pref_unfri"]["cmm-a"] > 1.05
    # Pref Fri and Pref No Agg degenerate to CP-style behaviour: the
    # three variants perform essentially the same.
    for cat in ("pref_fri", "pref_no_agg"):
        vals = [means[cat][m] for m in ("cmm-a", "cmm-b", "cmm-c")]
        assert max(vals) - min(vals) < 0.03, cat
