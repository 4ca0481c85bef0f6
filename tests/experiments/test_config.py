"""Scale presets."""

import dataclasses

import pytest

from repro.experiments.config import FULL, SCALES, SMALL, TINY, get_scale


class TestScales:
    def test_registry(self):
        assert set(SCALES) == {"tiny", "small", "full"}

    def test_default_is_tiny(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale().name == "tiny"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert get_scale().name == "small"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert get_scale("full").name == "full"

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_lookup_normalizes_case_and_whitespace(self, monkeypatch):
        assert get_scale("TINY").name == "tiny"
        monkeypatch.setenv("REPRO_SCALE", " Small ")
        assert get_scale().name == "small"

    def test_unknown_scale_reports_raw_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "HuGe")
        with pytest.raises(KeyError, match="'HuGe'"):
            get_scale()

    def test_cache_key_excludes_presentation_fields(self):
        d = TINY.cache_key()
        for absent in ("name", "workloads_per_category", "seed"):
            assert absent not in d
        assert d["llc_scale"] == TINY.llc_scale
        assert d["quantum"] == TINY.quantum

    def test_full_keeps_paper_ratio(self):
        assert FULL.exec_units // FULL.sample_units == 50
        assert FULL.workloads_per_category == 10

    def test_params_factory(self):
        p = TINY.params()
        assert p.n_cores == 8
        assert p.llc.size_bytes == 20 * 1024 * 1024 // 16

    def test_scales_ordered_by_size(self):
        assert TINY.exec_units < SMALL.exec_units < FULL.exec_units

    @pytest.mark.parametrize("field", [
        "llc_scale", "n_cores", "quantum", "sample_units", "exec_units", "n_epochs",
        "workloads_per_category", "alone_accesses", "profile_accesses",
    ])
    @pytest.mark.parametrize("value", [0, -5])
    def test_sizes_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(TINY, **{field: value})
