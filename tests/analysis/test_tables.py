"""Tidy tables: schema validation, queries, round-trip-safe codec."""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.tables import (
    SCHEMA_COLUMNS,
    TableBuilder,
    TidyTable,
    concat,
    decode_cell,
    encode_cell,
    flatten_row,
    unflatten_row,
)


class TestCellCodec:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -3, 1.5, 0.1 + 0.2, "plain", "1.5", "", "[1]",
         [1, 2], {"a": 1}, [{"x": [1.0]}]],
    )
    def test_roundtrip(self, value):
        assert decode_cell(encode_cell(value)) == value

    @given(st.text() | st.builds(str.__add__, st.sampled_from('{["-07tfnNI \t\n\r'), st.text()))
    @example("NaN")
    @example("-Infinity")
    @example(" 1")
    @example("\t[]")
    @example("\ufeff1")
    @example("true story")
    def test_text_roundtrips_and_keeps_the_trial_parse_rule(self, text):
        """The first-character fast path changes no output: a string is
        JSON-quoted exactly when ``json.loads`` would accept it."""

        def trial_parse_rule(v: str) -> str:
            if v == "":
                return '""'
            try:
                json.loads(v)
            except ValueError:
                return v
            return json.dumps(v)

        assert encode_cell(text) == trial_parse_rule(text)
        assert decode_cell(encode_cell(text)) == text

    def test_floats_keep_repr_precision(self):
        assert decode_cell(encode_cell(1.0 / 3.0)) == 1.0 / 3.0  # bit-exact

    def test_numpy_scalars_become_plain(self):
        assert encode_cell(np.float64(1.5)) == "1.5"
        assert encode_cell(np.int64(3)) == "3"

    def test_tuples_come_back_as_lists(self):
        assert decode_cell(encode_cell((1, 2))) == [1, 2]

    def test_none_is_the_empty_cell(self):
        assert encode_cell(None) == ""
        assert decode_cell("") is None


class TestFlatten:
    def test_deep_nesting(self):
        flat = flatten_row({"a": {"b": {"c": 1}}})
        assert flat == {"a.b.c": 1}
        assert unflatten_row(flat) == {"a": {"b": {"c": 1}}}

    def test_dotted_keys_escape(self):
        row = {"a.b": 1, "a": {"b": 2}}
        flat = flatten_row(row)
        assert set(flat) == {"a\\.b", "a.b"}
        assert unflatten_row(flat) == row

    def test_empty_dict_is_a_leaf(self):
        assert flatten_row({"a": {}}) == {"a": {}}


class TestTidyTable:
    @pytest.fixture
    def table(self):
        b = TableBuilder("fig99")
        for wl, mech, v in [("w0", "pt", 1.0), ("w0", "cp", 2.0), ("w1", "pt", 3.0)]:
            b.add(metric="hs", value=v, workload=wl, category="pref_agg",
                  mechanism=mech, seed=7)
        return b.build()

    def test_schema_columns_lead(self, table):
        assert table.columns == SCHEMA_COLUMNS
        assert len(table) == 3

    def test_filter_and_values(self, table):
        assert table.values("value", mechanism="pt") == [1.0, 3.0]
        assert len(table.filter(lambda r: r["value"] > 1.5)) == 2

    def test_distinct_keeps_first_seen_order(self, table):
        assert table.distinct("mechanism") == ["pt", "cp"]

    def test_group(self, table):
        groups = table.group("workload")
        assert set(groups) == {("w0",), ("w1",)}
        assert len(groups[("w0",)]) == 2

    def test_pivot(self, table):
        headers, rows = table.pivot("workload", "mechanism")
        assert headers == ["workload", "pt", "cp"]
        assert rows == [["w0", 1.0, 2.0], ["w1", 3.0, None]]

    def test_csv_roundtrip(self, table):
        back = TidyTable.from_csv(table.to_csv())
        assert back.columns == table.columns
        assert back.rows == table.rows

    def test_to_records_drops_absent_cells(self, table):
        rec = table.to_records()[0]
        assert rec == {"figure": "fig99", "workload": "w0", "category": "pref_agg",
                       "mechanism": "pt", "seed": 7, "metric": "hs", "value": 1.0}

    def test_from_csv_empty(self):
        assert len(TidyTable.from_csv("")) == 0


class TestTableBuilder:
    def test_extras_declared_up_front(self):
        b = TableBuilder("f", extra_columns=("ways",))
        b.add(metric="ipc", value=1.0, ways=4)
        t = b.build()
        assert t.columns == SCHEMA_COLUMNS + ("ways",)
        assert t.rows[0]["ways"] == 4

    def test_undeclared_extra_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            TableBuilder("f").add(metric="m", value=1, ways=4)

    def test_extra_cannot_shadow_schema(self):
        with pytest.raises(ValueError, match="shadows"):
            TableBuilder("f", extra_columns=("metric",))

    def test_add_metrics_shares_context(self):
        t = TableBuilder("f").add_metrics({"a": 1, "b": 2}, workload="w").build()
        assert [(r["metric"], r["value"], r["workload"]) for r in t] == [
            ("a", 1, "w"), ("b", 2, "w")]

    def test_concat_unions_columns(self):
        t1 = TableBuilder("f", extra_columns=("ways",)).add(
            metric="m", value=1, ways=2).build()
        t2 = TableBuilder("f", extra_columns=("core",)).add(
            metric="m", value=2, core=0).build()
        merged = concat([t1, t2])
        assert merged.columns == SCHEMA_COLUMNS + ("ways", "core")
        assert len(merged) == 2
