"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scale_choices(self):
        args = build_parser().parse_args(["classify", "429.mcf", "--scale", "tiny"])
        assert args.scale == "tiny"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "x", "--scale", "huge"])

    @pytest.mark.parametrize("command", ["run", "analyze", "trace", "chaos"])
    def test_unknown_mechanism_is_a_usage_error(self, command, capsys):
        """Checked against the registry at parse time: argparse's one-line
        error and exit 2, not a ``KeyError`` traceback from the engine."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--mechanism", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --mechanism: invalid choice: 'bogus'" in err
        assert "Traceback" not in err

    def test_every_registered_mechanism_parses(self):
        from repro import policy_names

        for name in policy_names():
            assert build_parser().parse_args(["run", "--mechanism", name]).mechanism == [name]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_workloads_below_one_is_a_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--workloads", count, "--no-cache"])
        assert exc.value.code == 2
        assert "argument --workloads: must be >= 1" in capsys.readouterr().err

    def test_unknown_engine_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--engine", "warp"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --engine: invalid choice: 'warp'" in err
        for name in ("reference", "fast", "batch", "auto"):
            assert repr(name) in err

    @pytest.mark.parametrize("host", ["0.0.0.0", "192.168.1.5", "::", "example.com"])
    def test_serve_refuses_a_non_loopback_host(self, host, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--host", host])
        assert exc.value.code == 2
        assert f"argument --host: {host!r} is not a loopback address" in capsys.readouterr().err

    @pytest.mark.parametrize("host", ["127.0.0.1", "127.8.9.10", "::1", "localhost"])
    def test_serve_accepts_a_loopback_host(self, host):
        assert build_parser().parse_args(["serve", "--host", host]).host == host


class TestBenchmarksCommand:
    def test_lists_registry(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "410.bwaves" in out
        assert "rand_access" in out
        assert "aggressive" in out


class TestMixesCommand:
    def test_all_categories(self, capsys):
        assert main(["mixes"]) == 0
        out = capsys.readouterr().out
        for cat in ("pref_fri", "pref_agg", "pref_unfri", "pref_no_agg"):
            assert cat in out

    def test_single_category(self, capsys):
        assert main(["mixes", "--category", "pref_unfri"]) == 0
        out = capsys.readouterr().out
        assert "pref_unfri-00" in out
        assert "pref_fri-00" not in out


class TestClassifyCommand:
    def test_unknown_benchmark_fails(self, capsys):
        assert main(["classify", "not-a-benchmark"]) == 2

    def test_classifies_small_benchmark(self, capsys):
        # povray is compute-bound: fast to profile even with the sweep
        assert main(["classify", "453.povray"]) == 0
        out = capsys.readouterr().out
        assert "matches registry    : True" in out
        assert "aggressive=False" in out


class TestCacheCommand:
    def test_stats_empty(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries    : 0" in out
        # Process-wide counters of this command's own process, which
        # simulates nothing: always 0 there, so not printed.
        assert "fallbacks" not in out
        assert "degradations" not in out

    def test_stats_and_clear_roundtrip(self, capsys, tmp_path):
        from repro.experiments.engine import SCHEMA_VERSION, ResultCache

        root = tmp_path / "c"
        ResultCache(root).put(
            "ab" * 32, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {"ipc": 1.0}}
        )
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "entries    : 1" in out and "alone" in out
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        assert "entries    : 0" in capsys.readouterr().out

    def test_workers_flag_parsed(self):
        args = build_parser().parse_args(["run", "--workers", "4", "--no-cache"])
        assert args.workers == 4 and args.no_cache

    def test_stats_reports_corrupt_entries(self, capsys, tmp_path):
        from repro.experiments.engine import SCHEMA_VERSION, ResultCache

        root = tmp_path / "c"
        key = "ab" * 32
        ResultCache(root).put(
            key, {"schema": SCHEMA_VERSION, "kind": "alone", "payload": {"ipc": 1.0}}
        )
        (root / key[:2] / f"{key}.json").write_text("torn")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "corrupt    : 1" in out and "entries    : 0" in out


class TestTraceCommand:
    def test_bad_mix_index_is_an_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["trace", "--mix", "99",
                     "--cache-dir", str(tmp_path / "c"), "--workers", "1"]) == 2
        assert "--mix must be in" in capsys.readouterr().err

    def test_timeline_renders_decisions(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        argv = ["trace", "--mechanism", "cmm-a",
                "--cache-dir", str(tmp_path / "c"), "--workers", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for needle in ("epoch 0", "cmm-a", "sense", "classify", "candidate",
                       "winner:", "agg_set"):
            assert needle in out, needle
        # Second invocation replays from cache, traces intact.
        assert main(argv) == 0
        assert "winner:" in capsys.readouterr().out

    def test_json_output_is_parseable(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.core.trace import TRACE_SCHEMA_VERSION

        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["trace", "--mechanism", "pt", "--epoch", "0", "--json",
                     "--cache-dir", str(tmp_path / "c"), "--workers", "1"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["schema"] == TRACE_SCHEMA_VERSION
        assert records[0]["policy"] == "pt"
        assert [s["stage"] for s in records[0]["stages"]][:2] == ["sense", "classify"]


class TestChaosCommand:
    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["chaos", "--scenario", "frobnicate"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_single_scenario_runs_clean(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["chaos", "--scenario", "dropped-samples", "--seed", "3",
                     "--epochs", "4"]) == 0
        out = capsys.readouterr().out
        assert "dropped-samples seed=3" in out
        assert "1/1 scenarios ok" in out


class TestFiguresCommand:
    def test_unknown_figure_is_an_error(self, capsys, tmp_path):
        assert main(["figures", "fig99", "--out", str(tmp_path / "a"),
                     "--cache-dir", str(tmp_path / "c"), "--workers", "1"]) == 2
        assert "unknown figure 'fig99'" in capsys.readouterr().err

    def test_missing_golden_dir_is_an_error(self, capsys, tmp_path):
        missing = tmp_path / "no-such-goldens"
        assert main(["figures", "table1", "--out", str(tmp_path / "a"), "--check", str(missing),
                     "--cache-dir", str(tmp_path / "c"), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == f"--check: {missing} is not a directory"
        assert not (tmp_path / "a").exists()

    @pytest.mark.slow
    def test_emits_and_checks_artifacts(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        cache = ["--cache-dir", str(tmp_path / "c"), "--workers", "1"]
        golden = tmp_path / "golden"
        assert main(["figures", "table1", "--out", str(golden)] + cache) == 0
        assert sorted(p.name for p in golden.iterdir()) == [
            "manifest.json", "table1.csv", "table1.vl.json"]

        # A warm-cache rebuild reproduces the goldens byte-for-byte.
        out = tmp_path / "out"
        assert main(["figures", "table1", "--out", str(out),
                     "--check", str(golden)] + cache) == 0
        assert "artifacts match goldens" in capsys.readouterr().out

        # Tampering is caught.
        (golden / "table1.csv").write_text("tampered")
        assert main(["figures", "table1", "--out", str(out),
                     "--check", str(golden)] + cache) == 1
        assert "content mismatch: table1.csv" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_vs_must_be_analyzed(self, capsys, tmp_path):
        assert main(["analyze", "--mechanism", "pt", "--vs", "cmm-a",
                     "--out", str(tmp_path / "a"),
                     "--cache-dir", str(tmp_path / "c"), "--workers", "1"]) == 2
        assert "--vs 'cmm-a' must be one of" in capsys.readouterr().err


@pytest.mark.slow
class TestRunAndFigureCommands:
    def test_run_command(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["run", "--category", "pref_no_agg", "--workloads", "1",
                     "--mechanism", "pref-cp"]) == 0
        out = capsys.readouterr().out
        assert "pref_no_agg-00" in out
        assert "pref-cp" in out
        assert "HS norm" in out

    def test_figure_command_table1(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "M4_pga" in out
