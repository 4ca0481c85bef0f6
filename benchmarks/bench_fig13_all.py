"""Fig. 13: all seven throttling/partitioning mechanisms compared."""

from conftest import category_means, print_category_means

from repro.analysis.artifacts import ALL_MECHS


def test_fig13_all_mechanisms(figure):
    table = figure("fig13")
    print_category_means(table, "hs_norm")
    means = category_means(table, "hs_norm")
    # paper shape: Pref Agg and Pref Unfri benefit the most overall...
    best_gain = {
        cat: max(means[cat][m] for m in ALL_MECHS) for cat in means
    }
    assert best_gain["pref_unfri"] >= best_gain["pref_no_agg"]
    assert best_gain["pref_agg"] >= best_gain["pref_no_agg"]
    # ...and a coordinated mechanism is the overall winner on them.
    for cat in ("pref_agg", "pref_unfri"):
        winner = max(ALL_MECHS, key=lambda m: means[cat][m])
        assert winner.startswith("cmm"), f"{cat}: {winner}"
