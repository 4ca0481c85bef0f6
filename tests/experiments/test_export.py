"""CSV / JSON export of result rows and traces."""

import json

import pytest

from repro.experiments.export import rows_from_csv, rows_to_csv


@pytest.fixture
def rows():
    return [
        {"workload": "w-00", "category": "pref_agg", "pt": 1.05,
         "agg_set": (1, 2), "ipc_by_ways": {1: 0.5, 20: 1.0}},
        {"workload": "w-01", "category": "pref_agg", "pt": 0.98,
         "agg_set": (), "ipc_by_ways": {1: 0.4, 20: 0.9}},
    ]


class TestCsv:
    def test_header_and_rows(self, rows):
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("workload,category,pt")
        assert len(lines) == 3

    def test_nested_dict_flattened(self, rows):
        text = rows_to_csv(rows)
        assert "ipc_by_ways.1" in text.splitlines()[0]

    def test_lists_json_encoded(self, rows):
        # The old exporter ";"-joined sequences with no escaping; cells
        # are now JSON so they decode back to the original values.
        text = rows_to_csv(rows)
        assert "[1,2]" in text
        assert "1;2" not in text

    def test_empty(self):
        assert rows_to_csv([]) == ""

    def test_roundtrip_restores_types(self, rows):
        back = rows_from_csv(rows_to_csv(rows))
        assert back[0]["workload"] == "w-00"
        assert back[0]["pt"] == 1.05
        assert back[0]["agg_set"] == [1, 2]  # tuples come back as lists
        assert back[1]["agg_set"] == []
        assert back[0]["ipc_by_ways"] == {"1": 0.5, "20": 1.0}

    def test_roundtrip_full_float_precision(self):
        tricky = [{"v": 0.1 + 0.2, "w": 1.0 / 3.0}]
        rows = rows_from_csv(rows_to_csv(tricky))
        assert rows[0]["v"] == 0.1 + 0.2  # bit-identical, not approx
        assert rows[0]["w"] == 1.0 / 3.0

    def test_roundtrip_ambiguous_strings(self):
        # A string that *looks* numeric must survive as a string.
        tricky = [{"a": "1.5", "b": 1.5, "c": "", "d": None, "e": True}]
        rows = rows_from_csv(rows_to_csv(tricky))
        assert rows[0]["a"] == "1.5"
        assert rows[0]["b"] == 1.5
        assert rows[0]["c"] == ""
        assert rows[0]["d"] is None
        assert rows[0]["e"] is True

    def test_roundtrip_dotted_keys(self):
        # Literal dots inside keys are escaped, not treated as nesting.
        tricky = [{"a.b": 1, "a": {"b": 2}}]
        rows = rows_from_csv(rows_to_csv(tricky))
        assert rows[0]["a.b"] == 1
        assert rows[0]["a"] == {"b": 2}


class TestTraceExport:
    @pytest.fixture
    def traces(self):
        from repro.core.trace import EpochTrace, StageTrace

        return [
            EpochTrace(
                epoch=0,
                policy="cmm-a",
                stages=[
                    StageTrace("sense", {"hm_ipc": 0.7}),
                    StageTrace("classify", {"agg_set": [0, 1]}),
                    StageTrace(
                        "decide:coordinated-throttle",
                        {"candidates": [{"off": [], "hm_ipc": 0.7}, {"off": [1], "hm_ipc": 0.8}],
                         "best_hm": 0.8, "reference_hm": 0.7, "reason": "adopted"},
                    ),
                    StageTrace("decide:dunn", {"reason": "not-applicable"}, skipped=True),
                ],
                winner={"throttled": [1]},
                sampling_intervals=4,
            )
        ]

    def test_one_row_per_stage(self, traces):
        from repro.experiments.export import traces_to_rows

        rows = traces_to_rows(traces)
        assert [r["stage"] for r in rows] == [
            "sense", "classify", "decide:coordinated-throttle", "decide:dunn"]
        sweep = rows[2]
        assert sweep["n_candidates"] == 2 and sweep["best_hm"] == 0.8
        assert sweep["winner_throttled"] == [1]
        assert rows[3]["skipped"] is True and rows[3]["reason"] == "not-applicable"

    def test_write_traces_emits_json_and_csv(self, traces, tmp_path):
        from repro.core.trace import traces_from_dicts
        from repro.experiments.export import write_traces

        jpath, cpath = write_traces(traces, tmp_path, stem="t")
        assert traces_from_dicts(json.loads(jpath.read_text())) == traces
        header, *rows = cpath.read_text().strip().splitlines()
        assert "stage" in header and "winner_throttled" in header
        assert len(rows) == 4

    def test_trace_csv_roundtrip(self, traces):
        from repro.experiments.export import traces_to_csv, traces_to_rows

        rows = rows_from_csv(traces_to_csv(traces))
        assert rows[2]["winner_throttled"] == [1]
        assert rows[3]["skipped"] is True
        assert len(rows) == len(traces_to_rows(traces))
