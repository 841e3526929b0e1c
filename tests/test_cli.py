"""Tests for the command-line harness."""

import json

import numpy as np
import pytest

from hfmm import cli
from hfmm.cli import (CSV_HEADER, CSV_VERSION, check_boundary_residual,
                      check_equal_wavenumber, check_toeplitz, grid_particles, main,
                      random_particles)


def _parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == CSV_VERSION
    assert lines[1] == CSV_HEADER
    cols = CSV_HEADER.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[2:]]


def _read_rows(path):
    return _parse_csv(path.read_text())


class TestScenarios:
    def test_grid_particles_layout(self):
        xs, ys = grid_particles(3, 3)
        assert len(xs) == 9
        assert xs.min() == pytest.approx(-0.5) and xs.max() == pytest.approx(0.5)
        assert ys.min() == pytest.approx(1.0) and ys.max() == pytest.approx(2.0)

    def test_random_particles_reproducible(self):
        a = random_particles(7, 50)
        b = random_particles(7, 50)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = random_particles(8, 50)
        assert not np.array_equal(a[0], c[0])


class TestAccuracy:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "acc.csv"
        code = main(["accuracy", "--n", "64", "--p", "5,10", "--p-ref", "20",
                     "--leaf-size", "30", "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0]["metric"] == "reference"
        errs = {int(r["P"]): float(r["value"]) for r in rows if r["metric"] == "E_p"}
        assert set(errs) == {5, 10}
        assert errs[10] < errs[5] < 1.0

    def test_p_equal_to_reference_is_exact(self, tmp_path):
        out = tmp_path / "acc.csv"
        code = main(["accuracy", "--n", "49", "--p", "15", "--p-ref", "15",
                     "--leaf-size", "30", "--out", str(out)])
        assert code == 0
        err = [r for r in _read_rows(out) if r["metric"] == "E_p"][0]
        assert float(err["value"]) == 0.0

    def test_byte_identical_with_timings_none(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["accuracy", "--n", "64", "--p", "5", "--p-ref", "12",
                "--leaf-size", "30", "--timings", "none"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "acc.json"
        code = main(["accuracy", "--n", "36", "--p", "5", "--p-ref", "10",
                     "--leaf-size", "30", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "hfmm-json v1"
        assert any(r["metric"] == "E_p" for r in doc["rows"])

    @pytest.mark.parametrize("value", ["on-the-fly", "cache=", "lazy"])
    def test_tables_value_refused(self, capsys, value):
        assert main(["accuracy", "--n", "36", "--p", "5", "--p-ref", "8",
                     "--tables", value]) == 2
        assert "--tables takes precompute or cache=PATH" in capsys.readouterr().err

    def test_cache_sweep_gives_each_run_its_file(self, tmp_path):
        out = tmp_path / "acc.csv"
        argv = ["accuracy", "--n", "100", "--p", "5,8", "--p-ref", "12",
                "--leaf-size", "30", "--timings", "none",
                "--tables", f"cache={tmp_path / 'tables'}", "--out", str(out)]
        assert main(argv) == 0
        assert sorted(f.name for f in tmp_path.glob("tables.*")) == [
            "tables.P12.N100", "tables.P5.N100", "tables.P8.N100"]
        cold = out.read_bytes()
        assert main(argv) == 0  # every run now reads its own file
        assert out.read_bytes() == cold


class TestBench:
    def test_cache_sweep_over_n(self, tmp_path):
        argv = ["bench", "--n-list", "100,200", "--p", "6", "--leaf-size", "30",
                "--tables", f"cache={tmp_path / 'tables'}", "--out", str(tmp_path / "b.csv")]
        assert main(argv) == 0
        assert main(argv) == 0
        assert sorted(f.name for f in tmp_path.glob("tables.*")) == [
            "tables.P6.N100", "tables.P6.N200"]
    def test_small_bench(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--n-list", "100,200", "--p", "8",
                     "--leaf-size", "30", "--out", str(out)])
        assert code == 0
        assert "fitted scaling exponent beta" in capsys.readouterr().out
        rows = _read_rows(out)
        metrics = {r["metric"] for r in rows}
        assert {"time_build", "time_tables", "time_upward", "time_downward",
                "time_near", "time_near_local", "time_near_free", "time_near_cut",
                "time_total", "beta"} <= metrics
        # N = 100 completes well under a second
        t100 = [float(r["seconds"]) for r in rows
                if r["metric"] == "time_total" and r["N"] == "100"][0]
        assert t100 < 1.0

    def test_one_row_per_timings_key(self, tmp_path, monkeypatch):
        # the rows follow the keys fmm_apply reports, whatever they are
        seen, apply = [], cli.fmm_apply

        def recorded(*args):
            out = apply(*args)
            out.timings["made_up"] = 0.5
            seen.append(list(out.timings))
            return out

        monkeypatch.setattr(cli, "fmm_apply", recorded)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--n-list", "100,200", "--p", "6", "--leaf-size", "30",
                     "--out", str(out)]) == 0
        rows = _read_rows(out)
        assert len(seen) == 2
        for n, keys in zip(("100", "200"), seen):
            assert [r["metric"] for r in rows if r["N"] == n and r["metric"].startswith("time_")
                    ] == [f"time_{key}" for key in keys]

    def test_entry_count_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--n-list", "150", "--p", "6", "--leaf-size", "30",
                     "--out", str(out)]) == 0
        counts = {r["metric"]: int(r["value"]) for r in _read_rows(out)
                  if r["metric"] in ("entries_computed", "entries_held", "leaves",
                                     "near_pairs", "near_blocks")}
        assert counts["entries_computed"] == counts["entries_held"] > 0
        # one kernel block per unordered near pair, each leaf with itself included
        assert counts["near_blocks"] == (counts["near_pairs"] + counts["leaves"]) // 2
        assert counts["leaves"] > 1

    def test_empty_sweep_usage_error(self, capsys):
        assert main(["bench", "--n-list", ""]) == 2
        assert "error" in capsys.readouterr().err

    def test_timings_none_zeroes_everything(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bench", "--n-list", "100,200", "--p", "6", "--leaf-size", "30",
                "--timings", "none"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        for r in _read_rows(a):
            assert float(r["seconds"]) == 0.0
            assert float(r["value"]) == 0.0


class TestStdout:
    """Without --out the rows take stdout and the lines for people go to stderr."""

    def test_bench_json_parses(self, capsys):
        assert main(["bench", "--n-list", "100,200", "--p", "6", "--leaf-size", "30",
                     "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert any(r["metric"] == "beta" for r in json.loads(captured.out)["rows"])
        assert "fitted scaling exponent beta" in captured.err

    def test_validate_json_parses(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "VALIDATION_CHECKS", [("toeplitz", "two-layer", check_toeplitz)])
        assert main(["validate", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert [r["metric"] for r in json.loads(captured.out)["rows"]] == ["toeplitz"]
        assert "toeplitz (two-layer): pass" in captured.err

    def test_timings_none_is_byte_identical(self, capsys):
        argv = ["bench", "--n-list", "100,200", "--p", "6", "--leaf-size", "30",
                "--timings", "none"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[0] == CSV_VERSION


class TestSubcommandFlags:
    """accuracy and bench each take only the flags their handler reads."""

    @pytest.mark.parametrize("argv, flag", [
        (["accuracy", "--n", "36", "--p", "4", "--p-ref", "6", "--n-list", "7"], "--n-list"),
        (["bench", "--n-list", "60", "--p", "4", "--n", "5"], "--n"),
        (["bench", "--n-list", "60", "--p", "4", "--p-ref", "3"], "--p-ref"),
    ], ids=["accuracy-n-list", "bench-n", "bench-p-ref"])
    def test_other_subcommands_flag_refused(self, capsys, argv, flag):
        assert main(argv) == 2
        assert f"does not take {flag}" in capsys.readouterr().err

    def test_config_key_of_other_subcommand_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[hfmm]\nn = 36\n")
        assert main(["bench", "--n-list", "60", "--config", str(cfg)]) == 2
        assert "unknown config key(s): n" in capsys.readouterr().err


class TestValidate:
    def test_list_names(self, capsys):
        assert main(["validate", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "sommerfeld-identity" in names
        assert "boundary-residual" in names
        assert "oracle-agreement" in names
        assert len(names) == 7

    def test_media_flag_refused(self, capsys):
        assert main(["validate", "--media", "three-layer"]) == 2
        assert "--media" in capsys.readouterr().err

    def test_takes_only_its_flags(self, capsys):
        # every check sets its own inputs, so validate has no input flags
        assert main(["validate", "--list", "--k", "5"]) == 2
        assert "--k" in capsys.readouterr().err
        args = cli.build_parser().parse_args(["validate"])
        assert {"p", "n_list", "tables", "seed"}.isdisjoint(vars(args))

    def test_config_keys_are_validates_own(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[hfmm]\nformat = json\ntimings = none\n")
        assert main(["validate", "--list", "--config", str(cfg)]) == 0
        cfg.write_text("[hfmm]\nformat = json\nseed = 3\n")
        assert main(["validate", "--list", "--config", str(cfg)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_rows_name_each_checks_medium(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "VALIDATION_CHECKS", [
            ("toeplitz", "two-layer", check_toeplitz),
            ("equal-wavenumber-three-layer", "three-layer", check_equal_wavenumber)])
        out = tmp_path / "validate.csv"
        assert main(["validate", "--out", str(out)]) == 0
        rows = _read_rows(out)
        assert [(r["metric"], r["media"]) for r in rows] == [
            ("toeplitz", "two-layer"), ("equal-wavenumber-three-layer", "three-layer")]
        assert all(r["k"] == r["alpha"] == "" for r in rows)

    def test_injected_wrong_sign_alpha_fails(self):
        value, ok = check_boundary_residual(alpha=-1.0)
        assert not ok and value > 1e-6

    def test_toeplitz_check_standalone(self):
        value, ok = check_toeplitz()
        assert ok and value <= 1e-14


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[hfmm]\nn = 36\np = 5\np-ref = 10\nleaf-size = 30\n")
        out = tmp_path / "acc.csv"
        code = main(["accuracy", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0]["P"] == "10"
        assert all(r["N"] == "36" for r in rows)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[hfmm]\nn = 36\np = 5\np-ref = 10\nleaf-size = 30\n")
        out = tmp_path / "acc.csv"
        code = main(["accuracy", "--config", str(cfg), "--n", "49",
                     "--out", str(out)])
        assert code == 0
        assert all(r["N"] == "49" for r in _read_rows(out))

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["accuracy", "--config", "/nonexistent.ini"]) == 2
        assert "error" in capsys.readouterr().err

    def test_config_without_section(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[other]\nn = 10\n")
        assert main(["accuracy", "--config", str(cfg)]) == 2

    # validate has no --media, so the media line goes to accuracy
    @pytest.mark.parametrize("command, line", [
        pytest.param("accuracy", "media = two_layer", id="media = two_layer"),
        pytest.param("validate", "format = xml", id="format = xml")])
    def test_config_value_outside_choices(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[hfmm]\n{line}\n")
        argv = [command, "--config", str(cfg)] + (["--list"] if command == "validate" else [])
        assert main(argv) == 2
        assert line.split()[0] in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[hfmm]\nleaf_sise = 5\nthreads = 4\n")
        assert main(["validate", "--list", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "leaf_sise" in err and "threads" in err

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
