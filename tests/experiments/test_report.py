"""ASCII rendering."""

from repro.experiments.report import render_table


class TestRenderTable:
    def test_alignment_and_floats(self):
        out = render_table(["name", "hs"], [["a", 1.23456], ["bb", 0.5]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "1.235" in out
        assert "0.500" in out

    def test_title(self):
        out = render_table(["x"], [[1]], title="Fig 7")
        assert out.splitlines()[0] == "Fig 7"

    def test_column_width_fits_longest(self):
        out = render_table(["m"], [["longvalue"]])
        header, sep, row = out.splitlines()
        assert len(sep) >= len("longvalue")


class TestRenderTraceTimeline:
    def test_timeline_shows_stages_candidates_winner(self):
        from repro.core.trace import EpochTrace, StageTrace
        from repro.experiments.report import render_trace_timeline

        traces = [
            EpochTrace(
                epoch=0,
                policy="cmm-a",
                stages=[
                    StageTrace("classify", {"agg_set": [0, 3]}),
                    StageTrace("decide:dunn", {"reason": "not-applicable"}, skipped=True),
                    StageTrace(
                        "decide:coordinated-throttle",
                        {"candidates": [{"off": [3], "hm_ipc": 0.81}], "reason": "adopted"},
                    ),
                ],
                winner={"throttled": [3], "clos_cbm": {"0": 255}},
                sampling_intervals=5,
            ),
            EpochTrace(epoch=1, policy="cmm-a", degraded=True),
        ]
        out = render_trace_timeline(traces, title="mix / cmm-a")
        assert "mix / cmm-a" in out
        assert "epoch 0" in out and "sampling_intervals=5" in out
        assert "agg_set=[0,3]" in out
        assert "skipped (not-applicable)" in out
        assert "candidate off=[3]" in out and "hm_ipc=0.8100" in out
        assert "winner: throttled=[3]" in out
        assert "DEGRADED" in out
