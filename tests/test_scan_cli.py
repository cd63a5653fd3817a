import dataclasses
import errno
import json
import math
import os
import sys
from pathlib import Path

import pytest

from cowqkd import (
    AnalysisConfig,
    CountFileError,
    NoThresholdError,
    ScanRow,
    ScanSpec,
    SimConfig,
    ValidationError,
    analytic_gains,
    emit,
    evaluate_analytic_point,
    evaluate_record,
    find_threshold,
    qber,
    replay_counts,
    run_scan,
    simulate_session,
    write_counts,
)
import cowqkd.cli
import cowqkd.scan
from cowqkd.cli import (CONFIG_KEYS, ConfigError, _PARAM_SECTIONS, _to_float, build_parser,
                        load_config, main, parse_config_text)
from cowqkd.scan import (COLUMNS, CSV_HEADER, MAX_SCAN_POINTS, grid_size, scan_values,
                         with_variable)
from helpers import EVERY_ANALYSIS, analysis_id, make_params


def keyrate_profile(**overrides):
    defaults = dict(efficiency=0.2, dead_time_s=30e-6,
                    p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14)
    defaults.update(overrides)
    return make_params(**defaults)


class TestScanValues:
    def test_single_point(self):
        spec = ScanSpec(variable="length_km", start=50.0, stop=50.0, step=1.0)
        assert scan_values(spec) == [50.0]

    def test_endpoint_included(self):
        spec = ScanSpec(variable="length_km", start=20.0, stop=23.0, step=1.0)
        assert scan_values(spec) == [20.0, 21.0, 22.0, 23.0]

    def test_fractional_step_keeps_endpoint(self):
        spec = ScanSpec(variable="mu", start=0.1, stop=0.4, step=0.1)
        values = scan_values(spec)
        assert len(values) == 4
        assert values[-1] == pytest.approx(0.4, rel=1e-12, abs=0.0)

    def test_step_not_dividing_span_stops_short(self):
        spec = ScanSpec(variable="length_km", start=0.0, stop=1.0, step=0.4)
        assert scan_values(spec) == pytest.approx([0.0, 0.4, 0.8])


class TestScanSpecValidation:
    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            ScanSpec(variable="temperature", start=0, stop=1, step=1)

    def test_negative_step(self):
        with pytest.raises(ValueError):
            ScanSpec(variable="mu", start=0, stop=1, step=-0.1)

    def test_zero_step_is_a_validation_error(self, capsys):
        with pytest.raises(ValidationError, match="step must be positive, got 0"):
            ScanSpec(variable="mu", start=0, stop=1, step=0)
        assert main(["scan", "--variable", "mu", "--start", "0.4", "--stop", "0.5", "--step", "0"]) == 1
        assert "step must be positive" in capsys.readouterr().err

    def test_reversed_range(self):
        with pytest.raises(ValueError):
            ScanSpec(variable="mu", start=1, stop=0, step=0.1)

    def test_replay_requires_path(self):
        with pytest.raises(ValueError):
            ScanSpec(variable="mu", start=0.1, stop=0.2, step=0.1, mode="replay")


class TestWithVariable:
    def test_each_variable_maps_to_its_field(self):
        p = make_params()
        assert with_variable(p, "length_km", 42.0).channel.length_km == 42.0
        assert with_variable(p, "detector_efficiency", 0.5).detectors.efficiency == 0.5
        assert with_variable(p, "dead_time", 1e-5).detectors.dead_time_s == 1e-5
        assert with_variable(p, "mu", 0.3).source.mu == 0.3

    def test_other_fields_untouched(self):
        p = make_params()
        moved = with_variable(p, "length_km", 42.0)
        assert moved.source == p.source
        assert moved.detectors == p.detectors

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            with_variable(make_params(), "voltage", 1.0)


class TestRunScan:
    def test_rows_follow_grid_order(self):
        spec = ScanSpec(variable="length_km", start=20.0, stop=60.0, step=20.0)
        rows = run_scan(spec, keyrate_profile())
        assert [r.value for r in rows] == [20.0, 40.0, 60.0]

    def test_qber_column_non_decreasing_in_length(self):
        spec = ScanSpec(variable="length_km", start=20.0, stop=180.0, step=20.0)
        rows = run_scan(spec, make_params())
        qbers = [r.qber for r in rows]
        assert qbers == sorted(qbers)

    def test_key_column_non_increasing_in_length(self):
        spec = ScanSpec(variable="length_km", start=20.0, stop=90.0, step=10.0)
        rows = run_scan(spec, keyrate_profile())
        keys = [r.key_bits for r in rows]
        assert keys == sorted(keys, reverse=True)
        assert keys[0] > 0.0

    def test_key_rate_is_bits_over_block_duration(self):
        p = keyrate_profile()
        spec = ScanSpec(variable="length_km", start=40.0, stop=40.0, step=1.0)
        row = run_scan(spec, p)[0]
        assert row.key_rate_bps == pytest.approx(
            row.key_bits / p.block_duration_s(), rel=1e-12, abs=0.0)

    def test_abort_rows_report_reason(self):
        spec = ScanSpec(variable="length_km", start=150.0, stop=150.0, step=1.0)
        row = run_scan(spec, keyrate_profile())[0]
        assert row.aborted
        assert row.key_bits == 0.0
        assert row.reason

    def test_per_point_errors_become_nan_rows(self, tmp_path):
        bad = tmp_path / "broken.txt"
        bad.write_text("nonsense\n")
        spec = ScanSpec(variable="length_km", start=40.0, stop=41.0, step=1.0,
                        mode="replay", replay_path=str(bad))
        rows = run_scan(spec, keyrate_profile())
        assert len(rows) == 2
        for row in rows:
            assert row.aborted
            assert math.isnan(row.qber) and math.isnan(row.key_bits)
            assert row.reason.startswith("error: ")

    def test_simulate_mode_produces_finite_rows(self):
        spec = ScanSpec(variable="length_km", start=30.0, stop=40.0, step=10.0,
                        mode="simulate", sim_seed=3)
        rows = run_scan(spec, keyrate_profile(rounds=200_000))
        assert all(not math.isnan(r.qber) for r in rows)


class TestFindThreshold:
    def test_qber_crossing_matches_scan_columns(self):
        crossing = find_threshold("qber", 0.05, (100.0, 200.0), make_params())
        spec = ScanSpec(variable="length_km", start=150.0, stop=160.0, step=1.0)
        rows = run_scan(spec, make_params())
        below = max(r.value for r in rows if r.qber <= 0.05)
        above = min(r.value for r in rows if r.qber > 0.05)
        assert below < crossing <= above

    def test_bracket_choice_does_not_move_crossing(self):
        p = make_params()
        a = find_threshold("qber", 0.05, (100.0, 200.0), p)
        b = find_threshold("qber", 0.05, (140.0, 165.0), p)
        assert a == pytest.approx(b, abs=0.02)

    def test_key_length_cutoff_near_90km(self):
        crossing = find_threshold("key_length", 0.0, (50.0, 120.0), keyrate_profile())
        assert 85.0 <= crossing <= 95.0

    def test_already_past_target(self):
        with pytest.raises(NoThresholdError, match="already past"):
            find_threshold("qber", 0.05, (170.0, 200.0), make_params())

    def test_never_reaches_target(self):
        with pytest.raises(NoThresholdError, match="never reaches"):
            find_threshold("qber", 0.05, (10.0, 50.0), make_params())

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            find_threshold("entropy", 0.5, (10.0, 50.0), make_params())

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            find_threshold("qber", 0.05, (200.0, 100.0), make_params())

    def test_non_length_variable_crossing(self):
        # Longer dead time starves the sifted-click count until the key
        # vanishes, so the key-length metric crosses zero along dead_time.
        p = keyrate_profile(length_km=80.0)
        crossing = find_threshold("key_length", 0.0, (0.0, 1e-3), p,
                                  variable="dead_time")
        assert 0.0 < crossing < 1e-3
        before = evaluate_analytic_point(
            with_variable(p, "dead_time", crossing - 1e-5)).key_length_bits
        after = evaluate_analytic_point(
            with_variable(p, "dead_time", crossing + 1e-5)).key_length_bits
        assert before > 0.0
        assert after == 0.0


def sample_rows():
    return [
        ScanRow(value=10.0, qber=0.001, phase_error_upper=0.2,
                key_bits=1234.5, key_rate_bps=1234.5, aborted=False, reason=None),
        ScanRow(value=20.0, qber=math.nan, phase_error_upper=math.nan,
                key_bits=math.nan, key_rate_bps=math.nan, aborted=True,
                reason="error: bad, very bad"),
    ]


class TestEmit:
    def test_csv_shape(self, capsys):
        text = emit(sample_rows())
        capsys.readouterr()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_csv_is_byte_stable(self, capsys):
        a = emit(sample_rows())
        b = emit(sample_rows())
        capsys.readouterr()
        assert a == b

    def test_csv_floats_roundtrip(self, capsys):
        text = emit(sample_rows())
        capsys.readouterr()
        first = text.splitlines()[1].split(",")
        assert float(first[0]) == 10.0
        assert float(first[3]) == 1234.5
        assert first[5] == "false"

    def test_csv_nan_and_quoting(self, capsys):
        text = emit(sample_rows())
        capsys.readouterr()
        second = text.splitlines()[2]
        assert second.startswith("20.0,nan,nan,nan,nan,true,")
        assert '"error: bad, very bad"' in second

    def test_json_structure(self, tmp_path):
        out = tmp_path / "rows.json"
        text = emit(sample_rows(), format="json", destination=out)
        assert out.read_text() == text
        data = json.loads(text)
        assert len(data) == 2
        assert set(data[0]) == {"variable", "qber", "phase_error_upper",
                                "key_bits", "key_rate_bps", "aborted", "reason"}
        assert data[1]["qber"] is None
        assert data[1]["aborted"] is True

    def test_stdout_destination(self, capsys):
        emit(sample_rows()[:1])
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER)

    def test_file_destination(self, tmp_path):
        out = tmp_path / "rows.csv"
        text = emit(sample_rows(), destination=out)
        assert out.read_text() == text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(sample_rows(), format="xml")


class TestConfigParsing:
    def test_every_documented_key_parses(self):
        lines = []
        samples = {float: "0.5", int: "100", str: "observed"}
        for key, conv in CONFIG_KEYS.items():
            if key == "scan.variable":
                lines.append(f"{key} = mu")
            elif key == "scan.mode":
                lines.append(f"{key} = analytic")
            elif key == "analysis.cross_term":
                lines.append(f"{key} = mixed")
            elif key == "analysis.remainder_terms":
                lines.append(f"{key} = drop")
            elif key == "analysis.m1_model":
                lines.append(f"{key} = optical_switch")
            elif key == "scan.replay_path":
                lines.append(f"{key} = counts.txt")
            elif conv("1") == 1 and isinstance(conv("1"), int):
                lines.append(f"{key} = 100")
            else:
                lines.append(f"{key} = 0.5")
        parsed = parse_config_text("\n".join(lines))
        assert set(parsed) == set(CONFIG_KEYS)

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("source.mu = 0.5\nsource.brightness = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="repeated"):
            parse_config_text("source.mu = 0.5\nsource.mu = 0.6\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="source.mu"):
            parse_config_text("source.mu = tiny\n")

    def test_comments_and_blanks_ignored(self):
        parsed = parse_config_text("# settings\n\nsource.mu = 0.4\n")
        assert parsed == {"source.mu": 0.4}

    def test_integer_accepts_scientific_notation(self):
        parsed = parse_config_text("rounds = 5e8\n")
        assert parsed == {"rounds": 500_000_000}
        assert isinstance(parsed["rounds"], int)

    def test_fractional_integer_rejected(self):
        with pytest.raises(ConfigError, match="rounds: expected an integer, got '1.5'"):
            parse_config_text("rounds = 1.5\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            parse_config_text("source.mu = 0.5\nsource.mu 0.6\n")


class TestCliCommands:
    def test_validate_ok(self, capsys):
        assert main(["validate"]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_validate_rejects_bad_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("source.mu = 1.5\n")
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [
        key for key, parse in CONFIG_KEYS.items()
        if parse is _to_float and key.partition(".")[0] in _PARAM_SECTIONS
    ])
    def test_validate_rejects_non_finite(self, capsys, key, value):
        assert main(["validate", "--set", f"{key}={value}"]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_missing_config_file(self, capsys, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "absent.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_diagnostic(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("laser.power = 3\n")
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "laser.power" in capsys.readouterr().err

    def test_set_overrides_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("channel.length_km = 100\n")
        args = ["scan", "--config", str(cfg), "--variable", "mu",
                "--start", "0.5", "--stop", "0.5", "--step", "0.1"]
        assert main(args) == 0
        far = capsys.readouterr().out
        assert main(args + ["--set", "channel.length_km=50"]) == 0
        near = capsys.readouterr().out
        assert far != near

    def test_bad_set_syntax(self, capsys):
        assert main(["validate", "--set", "channel.length_km"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_scan_csv_stdout(self, capsys):
        code = main(["scan", "--variable", "length_km", "--start", "100",
                     "--stop", "102", "--step", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_scan_step_defaults_to_one(self, capsys):
        assert ScanSpec(variable="length_km", start=100.0, stop=102.0).step == 1.0
        assert main(["scan", "--variable", "length_km", "--start", "100", "--stop", "102"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["100.0", "101.0", "102.0"]

    def test_scan_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        code = main(["scan", "--variable", "length_km", "--start", "100",
                     "--stop", "100", "--step", "1", "--format", "json",
                     "--output", str(out)])
        assert code == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data[0]["variable"] == 100.0

    def test_scan_flags_override_config_scan_block(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("scan.variable = length_km\nscan.start = 100\n"
                       "scan.stop = 110\nscan.step = 5\n")
        assert main(["scan", "--config", str(cfg), "--stop", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_scan_requires_grid(self, capsys):
        assert main(["scan", "--variable", "length_km"]) == 1
        assert "scan" in capsys.readouterr().err

    def test_threshold_prints_crossing(self, capsys):
        code = main(["threshold", "--metric", "qber", "--target", "0.05",
                     "--bracket", "100", "200"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert 154.0 <= value <= 158.0

    def test_threshold_exit_code_when_unreachable(self, capsys):
        code = main(["threshold", "--metric", "qber", "--target", "0.05",
                     "--bracket", "10", "50"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_simulate_then_analyze_roundtrip(self, capsys, tmp_path):
        counts = tmp_path / "counts.txt"
        sim = ["simulate", "--seed", "5", "--rounds", "2000000",
               "--output", str(counts),
               "--set", "channel.length_km=30",
               "--set", "detectors.efficiency=0.2",
               "--set", "detectors.dead_time_s=30e-6",
               "--set", "source.p_decoy_alpha_alpha=0.14",
               "--set", "source.p_decoy_vacuum=0.14",
               "--set", "rounds=2000000"]
        assert main(sim) == 0
        capsys.readouterr()
        text = counts.read_text()
        assert text.startswith("rounds = 2000000\n")
        assert len(text.splitlines()) == 8
        ana = ["analyze", "--counts", str(counts),
               "--set", "channel.length_km=30",
               "--set", "detectors.efficiency=0.2",
               "--set", "detectors.dead_time_s=30e-6",
               "--set", "source.p_decoy_alpha_alpha=0.14",
               "--set", "source.p_decoy_vacuum=0.14",
               "--set", "rounds=2000000"]
        assert main(ana) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aborted"] in (False, True)
        assert payload["qber"] is not None

    def test_analyze_missing_counts_file(self, capsys, tmp_path):
        code = main(["analyze", "--counts", str(tmp_path / "absent.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_analyze_malformed_counts_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("rounds = ten\n")
        assert main(["analyze", "--counts", str(bad)]) == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["threshold", "--metric", "qber"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_simulate_deterministic_output(self, capsys):
        args = ["simulate", "--seed", "9", "--rounds", "300000",
                "--set", "channel.length_km=25"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_scan_deterministic_output(self, capsys):
        args = ["scan", "--variable", "length_km", "--start", "100",
                "--stop", "110", "--step", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


KEYRATE_SETS = ["--set", "channel.length_km=30", "--set", "detectors.efficiency=0.2",
                "--set", "detectors.dead_time_s=30e-6",
                "--set", "source.p_decoy_alpha_alpha=0.14",
                "--set", "source.p_decoy_vacuum=0.14"]


class TestExitCodes:
    SCAN = ["scan", "--variable", "length_km", "--start", "100", "--stop", "101"]

    @pytest.mark.parametrize("command", [["validate"], SCAN])
    def test_unknown_m1_model_is_a_config_error(self, capsys, command):
        assert main(command + ["--set", "analysis.m1_model=bogus"]) == 1
        assert "m1_model" in capsys.readouterr().err

    # 10**19 rounds is past the 64-bit counts, and fails before any draw.
    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--rounds", "0"], ["--rounds", str(10**19)]])
    def test_bad_simulate_arguments_are_usage_errors(self, capsys, flag):
        assert main(["simulate", "--rounds", "10"] + flag) == 1
        assert "error:" in capsys.readouterr().err

    def test_removed_bit_state_key_is_unknown(self, capsys):
        assert main(["validate", "--set", "source.p_z0=0.4"]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_programming_error_is_not_a_config_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken evaluator")

        monkeypatch.setattr(cowqkd.scan, "evaluate_analytic_point", broken)
        assert main(self.SCAN) == 2
        assert "broken evaluator" in capsys.readouterr().err


def test_analyze_key_rate_uses_the_logs_rounds(capsys, tmp_path):
    counts = tmp_path / "counts.txt"
    assert main(["simulate", "--seed", "5", "--rounds", "2000000",
                 "--output", str(counts)] + KEYRATE_SETS) == 0
    # The configured block stays at its default of 5e8 rounds.
    assert main(["analyze", "--counts", str(counts)] + KEYRATE_SETS) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["key_length_bits"] > 0
    assert payload["key_rate_bps"] == pytest.approx(
        payload["key_length_bits"] / (2_000_000 / 5.0e8), rel=1e-12, abs=0.0)


GRID_SPECS = {
    "length_km": (0.0, 200.0, 2.5),
    "detector_efficiency": (0.02, 1.0, 0.02),
    "dead_time": (0.0, 3e-4, 5e-6),
    "mu": (0.02, 0.98, 0.02),
}


def assert_row_matches(row, result, rounds, pulse_pair_rate=5.0e8):
    assert row.qber == pytest.approx(result.qber, rel=1e-12, abs=0.0)
    assert row.phase_error_upper == pytest.approx(result.phase_error_observed_upper, rel=1e-12, abs=0.0)
    assert row.key_bits == pytest.approx(result.key_length_bits, rel=1e-12, abs=0.0)
    assert row.key_rate_bps == pytest.approx(
        result.key_length_bits / (rounds / pulse_pair_rate), rel=1e-12, abs=0.0)
    assert row.aborted is result.aborted
    assert row.reason == result.abort_reason


@pytest.fixture(scope="module")
def replay_log(tmp_path_factory):
    """One simulated count log of the key-rate profile and its replayed record."""
    log = tmp_path_factory.mktemp("replay") / "counts.txt"
    assert main(["simulate", "--seed", "4", "--rounds", "2000000",
                 "--output", str(log)] + KEYRATE_SETS) == 0
    return log, replay_counts(log)


class TestGridMatchesPoints:
    """A scan evaluates its grid in one call; each row must equal the
    evaluation of its point alone."""

    def test_variables_span_the_scan_variables(self):
        assert set(GRID_SPECS) == set(cowqkd.scan.SCAN_VARIABLES)

    @pytest.mark.parametrize("variable", sorted(GRID_SPECS))
    def test_analytic_rows_equal_their_points(self, variable):
        p = keyrate_profile(length_km=60.0)
        spec = ScanSpec(variable, *GRID_SPECS[variable])
        rows = run_scan(spec, p)
        assert len(rows) == len(scan_values(spec))
        assert any(r.aborted for r in rows) or variable != "length_km"
        for row in rows:
            point = with_variable(p, variable, row.value)
            assert_row_matches(row, evaluate_analytic_point(point), p.rounds)

    @pytest.mark.parametrize("variable", sorted(GRID_SPECS))
    def test_replay_rows_equal_their_points(self, tmp_path, variable):
        log = tmp_path / "counts.txt"
        assert main(["simulate", "--seed", "4", "--rounds", "2000000",
                     "--output", str(log)] + KEYRATE_SETS) == 0
        record = replay_counts(log)
        p = keyrate_profile(rounds=record.rounds)
        grid = (20.0, 260.0, 2.5) if variable == "length_km" else GRID_SPECS[variable]
        spec = ScanSpec(variable, *grid, mode="replay", replay_path=str(log))
        rows = run_scan(spec, p)
        assert len(rows) == len(scan_values(spec))
        if variable == "length_km":
            assert any(r.aborted for r in rows) and not all(r.aborted for r in rows)
        for row in rows:
            point = with_variable(p, variable, row.value)
            assert_row_matches(row, evaluate_record(record, point), record.rounds)

    @pytest.mark.parametrize("variable", sorted(GRID_SPECS))
    def test_simulate_rows_equal_their_points(self, variable):
        # Every point draws the configured block from the scan's seed.
        p = keyrate_profile(length_km=60.0)
        spec = ScanSpec(variable, *GRID_SPECS[variable], mode="simulate", sim_seed=3)
        rows = run_scan(spec, p)
        assert len(rows) == len(scan_values(spec))
        sim = SimConfig(seed=3, rounds=p.rounds)
        for row in rows:
            point = with_variable(p, variable, row.value)
            assert_row_matches(row, evaluate_record(simulate_session(point, sim), point), p.rounds)

    # The flat finite-key pass rewrites every non-default branch, so the grid
    # must match its points in each of the 16 analysis modes too.
    @pytest.mark.parametrize("analysis", EVERY_ANALYSIS, ids=analysis_id)
    @pytest.mark.parametrize("variable", sorted(GRID_SPECS))
    def test_analytic_rows_equal_their_points_in_every_mode(self, variable, analysis):
        p = keyrate_profile(length_km=60.0)
        spec = ScanSpec(variable, *GRID_SPECS[variable])
        rows = run_scan(spec, p, analysis)
        assert len(rows) == len(scan_values(spec))
        for row in rows:
            point = with_variable(p, variable, row.value)
            assert_row_matches(row, evaluate_analytic_point(point, analysis), p.rounds)

    @pytest.mark.parametrize("analysis", EVERY_ANALYSIS, ids=analysis_id)
    @pytest.mark.parametrize("variable", sorted(GRID_SPECS))
    def test_replay_rows_equal_their_points_in_every_mode(self, replay_log, variable, analysis):
        log, record = replay_log
        p = keyrate_profile(rounds=record.rounds)
        grid = (20.0, 260.0, 2.5) if variable == "length_km" else GRID_SPECS[variable]
        spec = ScanSpec(variable, *grid, mode="replay", replay_path=str(log))
        rows = run_scan(spec, p, analysis)
        assert len(rows) == len(scan_values(spec))
        for row in rows:
            point = with_variable(p, variable, row.value)
            assert_row_matches(row, evaluate_record(record, point, analysis), record.rounds)

    def test_one_bad_point_gives_one_error_row(self):
        p = make_params(dark_count_prob=0.0)
        spec = ScanSpec("detector_efficiency", 0.0, 0.1, 0.05)
        rows = run_scan(spec, p)
        errors = [r for r in rows if r.reason and r.reason.startswith("error:")]
        assert [r.value for r in errors] == [0.0]
        assert len(rows) == 3
        for row in rows[1:]:
            assert all(math.isfinite(x) for x in
                       (row.qber, row.phase_error_upper, row.key_bits, row.key_rate_bps))

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_output_holds_plain_numbers(self, format, capsys):
        spec = ScanSpec("length_km", 0.0, 200.0, 10.0)
        rows = run_scan(spec, keyrate_profile())
        rows += run_scan(ScanSpec("detector_efficiency", 0.0, 0.0, 1.0),
                         make_params(dark_count_prob=0.0))
        text = emit(rows, format=format)
        capsys.readouterr()
        assert "np." not in text and "array(" not in text
        if format == "json":
            flags = [entry["aborted"] for entry in json.loads(text)]
            assert set(flags) == {True, False}
            assert all(flag is True or flag is False for flag in flags)
        else:
            assert {line.split(",")[5] for line in text.splitlines()[1:]} == {"true", "false"}


def sequential_threshold(metric, target, bracket, params, analysis=None, variable="length_km"):
    """Plain bisection, one public evaluation per midpoint."""
    analysis = analysis or AnalysisConfig()

    def crossed(value):
        point = with_variable(params, variable, value)
        if metric == "qber":
            return qber(analytic_gains(point)) > target
        return evaluate_analytic_point(point, analysis).key_length_bits <= target

    lo, hi = bracket
    assert not crossed(lo) and crossed(hi)
    tol = 0.01 if variable == "length_km" else 1e-4 * (hi - lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestBatchedBisection:
    """find_threshold evaluates several bisection levels per call; it must
    walk the same midpoints as a sequential bisection."""

    CASES = {
        "qber low efficiency": ("qber", 0.05, (100.0, 200.0), dict(efficiency=0.1), "length_km"),
        "qber high efficiency": ("qber", 0.05, (100.0, 220.0), dict(efficiency=0.2), "length_km"),
        "qber upgraded": ("qber", 0.05, (200.0, 320.0),
                          dict(attenuation_db_per_km=0.15, efficiency=0.95), "length_km"),
        "key low profile": ("key_length", 0.0, (40.0, 110.0),
                            dict(efficiency=0.1, dead_time_s=50e-6,
                                 p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14), "length_km"),
        "key high profile": ("key_length", 0.0, (50.0, 120.0),
                             dict(efficiency=0.2, dead_time_s=30e-6,
                                  p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14), "length_km"),
        "key along dead time": ("key_length", 0.0, (0.0, 1e-3),
                                dict(efficiency=0.2, dead_time_s=30e-6, length_km=80.0,
                                     p_decoy_alpha_alpha=0.14, p_decoy_vacuum=0.14), "dead_time"),
        # Each evaluation covers seven levels; these brackets need 15 levels (three
        # evaluations), 8 (a second one with one level left), exactly 7, and none.
        "qber three batches": ("qber", 0.05, (100.0, 300.0), {}, "length_km"),
        "qber one level in the second batch": ("qber", 0.05, (155.0, 156.3), {}, "length_km"),
        "qber one batch": ("qber", 0.05, (155.0, 156.2), {}, "length_km"),
        "qber bracket narrower than tol": ("qber", 0.05, (155.955, 155.96), {}, "length_km"),
        # Brackets whose midpoints round: a point computed other than as 0.5 * (a + b)
        # from its neighbours, as lo + k * (hi - lo) / 128 or a + 0.5 * (b - a) (which
        # rounds the same only where hi <= 2 lo), moves the crossing by an ulp.
        "qber bracket off the dyadic grid": ("qber", 0.05, (101.739492, 172.039492), {}, "length_km"),
        "qber bracket over twice its start": ("qber", 0.05, (45.3, 255.9), {}, "length_km"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_sequential_bisection(self, case):
        metric, target, bracket, overrides, variable = self.CASES[case]
        p = make_params(**overrides)
        expected = sequential_threshold(metric, target, bracket, p, variable=variable)
        assert find_threshold(metric, target, bracket, p, variable=variable) == expected

    def test_metric_the_variable_does_not_move(self):
        # The QBER does not depend on the dead time, so there is no crossing.
        with pytest.raises(NoThresholdError, match="never reaches"):
            find_threshold("qber", 0.05, (0.0, 1e-3), make_params(), variable="dead_time")

    def test_equals_sequential_bisection_in_another_mode(self):
        p = keyrate_profile()
        analysis = AnalysisConfig(cross_term="vacuum")
        bracket = (20.0, 120.0)
        expected = sequential_threshold("key_length", 1000.0, bracket, p, analysis)
        assert find_threshold("key_length", 1000.0, bracket, p, analysis) == expected


class TestGridEndpoints:
    @pytest.mark.parametrize("grid, violation", [
        (["--variable", "mu", "--start", "0.9", "--stop", "1.2"], "source.mu"),
        (["--variable", "length_km", "--start", "-10", "--stop", "0"], "channel.length_km"),
        (["--variable", "detector_efficiency", "--start", "0.5", "--stop", "1.5"],
         "detectors.efficiency"),
        (["--variable", "dead_time", "--start=-1e-6", "--stop", "1e-5", "--step", "1e-6"],
         "detectors.dead_time_s"),
    ])
    def test_scan_rejects_invalid_grid(self, capsys, grid, violation):
        assert main(["scan"] + grid) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert violation in captured.err

    @pytest.mark.parametrize("args, violation", [
        (["--metric", "qber", "--bracket", "-10", "200"], "channel.length_km"),
        (["--metric", "key_length", "--variable", "mu", "--bracket", "0.1", "1.5"], "source.mu"),
    ])
    def test_threshold_rejects_invalid_bracket(self, capsys, args, violation):
        assert main(["threshold", "--target", "0.05"] + args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert violation in captured.err

    @pytest.mark.parametrize("bracket", [("200", "100"), ("150", "150")])
    def test_threshold_rejects_reversed_or_empty_bracket(self, capsys, bracket):
        # An input error, exit code 1, not a runtime failure (2).
        args = ["threshold", "--metric", "qber", "--target", "0.05", "--bracket", *bracket]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lo, hi = map(float, bracket)
        assert f"threshold bracket must satisfy lo < hi, got {lo} {hi}" in captured.err


@pytest.mark.parametrize("mode", ["simulate", "replay"])
def test_scan_key_rate_uses_the_records_rounds(capsys, tmp_path, mode):
    # The record holds 2e6 rounds: a simulate scan draws the configured block,
    # and a replay scan's block stays at its default of 5e8 rounds.
    args = ["scan", "--variable", "length_km", "--start", "30", "--stop", "30",
            "--format", "json"] + KEYRATE_SETS
    if mode == "simulate":
        args += ["--mode", "simulate", "--sim-seed", "5", "--set", "rounds=2000000"]
    else:
        log = tmp_path / "counts.txt"
        assert main(["simulate", "--seed", "5", "--rounds", "2000000",
                     "--output", str(log)] + KEYRATE_SETS) == 0
        args += ["--mode", "replay", "--replay-path", str(log)]
    capsys.readouterr()
    assert main(args) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["key_bits"] > 0
    assert row["key_rate_bps"] == pytest.approx(row["key_bits"] / (2_000_000 / 5.0e8), rel=1e-12, abs=0.0)


class TestNonFiniteGridAndTarget:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["start", "stop", "step"])
    def test_scan_flag_exits_1(self, capsys, name, value):
        grid = {"start": "0.4", "stop": "0.5", "step": "0.05", name: value}
        assert main(["scan", "--variable", "mu"] + [f"--{k}={v}" for k, v in grid.items()]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"scan {name} must be finite, got {float(value)}" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_scan_config_step_exits_1(self, capsys, value):
        args = ["scan", "--variable", "mu", "--start", "0.4", "--stop", "0.5",
                "--set", f"scan.step={value}"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"scan step must be finite, got {value}" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_threshold_target_exits_1(self, capsys, value):
        args = ["threshold", "--metric", "qber", f"--target={value}", "--bracket", "100", "200"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"threshold target must be finite, got {float(value)}" in captured.err


class TestSharedParser:
    SCAN = ["scan", "--variable", "mu", "--start", "0.5", "--stop", "0.5", "--format", "json"]

    def run(self, capsys, argv, code=0):
        assert main(argv) == code
        return capsys.readouterr().out

    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_overrides_do_not_carry_over(self, capsys):
        plain = self.run(capsys, self.SCAN)
        near = self.run(capsys, self.SCAN + ["--set", "channel.length_km=50"])
        far = self.run(capsys, self.SCAN + ["--set", "channel.length_km=150"])
        assert len({plain, near, far}) == 3
        assert self.run(capsys, self.SCAN) == plain
        assert build_parser().parse_args(self.SCAN).set is None

    def test_usage_error_and_help_leave_the_parser_intact(self, capsys):
        plain = self.run(capsys, self.SCAN + ["--set", "channel.length_km=80"])
        self.run(capsys, ["threshold", "--metric", "qber", "--set", "source.mu=0.1"], code=1)
        assert "usage:" in self.run(capsys, ["scan", "--help"])
        assert "usage:" in self.run(capsys, ["--help"])
        assert self.run(capsys, self.SCAN + ["--set", "channel.length_km=80"]) == plain

    @pytest.mark.parametrize("command", ["scan", "threshold", "simulate", "analyze", "validate"])
    def test_each_subcommand_dispatches_to_its_handler(self, capsys, tmp_path, command):
        log = tmp_path / "counts.txt"
        self.run(capsys, ["simulate", "--rounds", "200000", "--output", str(log)])
        argv = {
            "scan": self.SCAN,
            "threshold": ["threshold", "--metric", "qber", "--target", "0.05",
                          "--bracket", "100", "200"],
            "simulate": ["simulate", "--rounds", "200000"],
            "analyze": ["analyze", "--counts", str(log)],
            "validate": ["validate"],
        }[command]
        assert build_parser().parse_args(argv).handler is getattr(cowqkd.cli, f"_cmd_{command}")
        first = self.run(capsys, argv)
        assert first
        assert self.run(capsys, argv) == first


def full_parser_main(argv):
    """``main`` through the top-level parser's pass, with the same handlers and exit codes."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NoThresholdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


class TestSubcommandDispatch:
    RUNS = {
        "scan": ["scan", "--variable", "mu", "--start", "0.5", "--stop", "0.5"],
        "threshold": ["threshold", "--metric", "qber", "--target", "0.05",
                      "--bracket", "100", "200"],
        "simulate": ["simulate", "--rounds", "200000"],
        "analyze": ["analyze", "--counts", "{log}"],
        "validate": ["validate"],
    }
    CASES = [
        [], ["--help"], ["-h"], ["bogus"], ["--set", "x=1", "analyze"],
        ["analyze", "--bogus", "--counts", "x"], ["analyze"], ["threshold", "--metric", "qber"],
        ["validate", "--set", "source.mu=1.5"], ["validate", "--set", "mu"],
        ["threshold", "--metric", "qber", "--target", "0.9", "--bracket", "100", "200"],
        *([command, "--help"] for command in RUNS),
        *(run + ["--bogus"] for run in RUNS.values()),
        *(run + ["extra"] for run in RUNS.values()),
        *RUNS.values(),
    ]

    @pytest.fixture
    def log(self, tmp_path):
        path = tmp_path / "counts.txt"
        assert main(["simulate", "--rounds", "200000", "--output", str(path)]) == 0
        return str(path)

    def outcome(self, capsys, run, argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "<none>")
    def test_matches_the_full_parser(self, capsys, log, argv):
        argv = [arg.format(log=log) for arg in argv]
        dispatched = self.outcome(capsys, main, argv)
        assert dispatched == self.outcome(capsys, full_parser_main, argv)
        assert dispatched[0] in (0, 1, 3)

    def test_known_subcommand_skips_the_top_level_pass(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("top-level parser pass")

        monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
        assert main(["validate"]) == 0
        assert capsys.readouterr().out == "ok\n"
        with pytest.raises(AssertionError, match="top-level"):
            main(["bogus"])

    def test_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cowqkd", "validate"])
        assert main() == 0
        assert capsys.readouterr().out == "ok\n"
        monkeypatch.setattr(sys, "argv", ["cowqkd"])
        assert main() == 1
        assert "required: command" in capsys.readouterr().err


class TestSimulateScanSettings:
    GRID = ["scan", "--variable", "mu", "--start", "0.4", "--stop", "0.5", "--step", "0.05",
            "--mode", "simulate"]

    @pytest.mark.parametrize("flag, message", [
        (["--set", "rounds=0"], "rounds must lie in [1, inf), got 0"),
        (["--set", f"rounds={2**63}"], f"rounds must be below 2**63, the counts' 64-bit limit, got {2**63}"),
        (["--sim-seed", "-1"], "seed must be a non-negative integer, got -1"),
    ])
    def test_bad_setting_exits_1_before_any_row(self, capsys, flag, message):
        assert main(self.GRID + flag) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be a non-negative integer, got -1"),
        (1.5, "seed must be a non-negative integer, got 1.5"),
    ])
    def test_spec_rejects_bad_setting(self, seed, message):
        with pytest.raises(ValueError) as exc:
            ScanSpec(variable="mu", start=0.4, stop=0.5, step=0.05, mode="simulate", sim_seed=seed)
        assert str(exc.value) == message

    def test_keyrate_scan_keeps_a_key_where_the_analytic_scan_does(self, capsys):
        # Both scans evaluate the config's own 5e8-round block.
        argv = ["scan", "--config", str(CONFIGS / "keyrate_eta20_dt30.cfg"), "--step", "10",
                "--format", "json"]
        kept = {}
        for mode in ("analytic", "simulate"):
            assert main(argv + ["--mode", mode, "--sim-seed", "1"]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert [row["variable"] for row in rows] == [20.0 + 10 * i for i in range(11)]
            kept[mode] = [row["variable"] for row in rows if row["key_bits"] > 0]
        assert kept["simulate"] == kept["analytic"] == [20.0 + 10 * i for i in range(8)]

    def test_unused_settings_are_not_checked(self):
        ScanSpec(variable="mu", start=0.4, stop=0.5, step=0.05, sim_seed=-1)


class TestGridLimit:
    def test_grid_at_the_limit_is_accepted(self):
        spec = ScanSpec(variable="length_km", start=0.0, stop=MAX_SCAN_POINTS - 1.0, step=1.0)
        assert grid_size(spec) == MAX_SCAN_POINTS

    def test_one_point_over_the_limit_is_rejected(self):
        with pytest.raises(ValueError, match="1,000,001 points, above the limit of 1,000,000"):
            ScanSpec(variable="length_km", start=0.0, stop=float(MAX_SCAN_POINTS), step=1.0)

    def test_grid_size_counts_like_scan_values(self):
        for start, stop, step in [(0.1, 0.4, 0.1), (0.0, 1.0, 0.4), (20.0, 200.0, 0.1),
                                  (50.0, 50.0, 1.0)]:
            spec = ScanSpec(variable="length_km", start=start, stop=stop, step=step)
            assert grid_size(spec) == len(scan_values(spec))

    def test_huge_grid_exits_1_and_names_the_count(self, capsys):
        argv = ["scan", "--variable", "length_km", "--start", "0", "--stop", "1e6",
                "--step", "1e-6"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("scan grid has 1,000,000,000,001 points, above the limit of 1,000,000"
                in captured.err)

    def test_overflowing_span_is_rejected(self, capsys):
        argv = ["scan", "--variable", "length_km", "--start", "0", "--stop", "1e6",
                "--step", "1e-320"]
        assert main(argv) == 1
        assert "scan grid has inf points" in capsys.readouterr().err

    def test_error_without_message_names_its_type(self, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cowqkd.cli, "run_scan", out_of_memory)
        assert main(["scan", "--variable", "mu", "--start", "0.4", "--stop", "0.5"]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"


def row_by_row_emit(rows, format):
    """The serializer as a loop over rows, field by field."""
    if format == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            reason = row.reason or ""
            if any(c in reason for c in ',"\n'):
                reason = '"' + reason.replace('"', '""') + '"'
            numbers = (row.value, row.qber, row.phase_error_upper, row.key_bits, row.key_rate_bps)
            flag = "true" if row.aborted else "false"
            lines.append(",".join([*map(repr, numbers), flag, reason]))
        return "\n".join(lines) + "\n"
    payload = []
    for row in rows:
        cells = (row.value, row.qber, row.phase_error_upper, row.key_bits, row.key_rate_bps,
                 row.aborted, row.reason)
        payload.append({k: None if isinstance(v, float) and math.isnan(v) else v
                        for k, v in zip(COLUMNS, cells)})
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestColumnWiseEmit:
    def config_rows(self, name):
        cfg = cowqkd.cli.load_config(CONFIGS / name)
        spec = ScanSpec(**{**cowqkd.cli._section(cfg, "scan"), "step": 0.5})
        return run_scan(spec, cowqkd.cli.build_params(cfg), cowqkd.cli.build_analysis(cfg))

    def hand_made_rows(self):
        reasons = [None, "", "plain", "comma, here", 'say "hi"', "two\nlines", 'all, "of"\nthem',
                   "comma, here", None]
        values = [0.1, -0.0, 1e-300, 123456.789, 2.0 ** 0.5, 1e22, 5e-324, 7.0, 8.5]
        return [ScanRow(value, math.nan if i % 3 == 0 else value / 3, 0.25, float(i),
                        math.nan if i % 2 else 1.5 * i, i % 2 == 1, reason)
                for i, (value, reason) in enumerate(zip(values, reasons))]

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("name", ["keyrate_eta10_dt50.cfg", "keyrate_eta20_dt30.cfg",
                                      "qber_scan.cfg"])
    def test_config_scan_matches_row_by_row(self, capsys, format, name):
        rows = self.config_rows(name)
        assert emit(rows, format=format) == row_by_row_emit(rows, format)
        capsys.readouterr()

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_hand_made_rows_match_row_by_row(self, capsys, format):
        rows = self.hand_made_rows()
        assert emit(rows, format=format) == row_by_row_emit(rows, format)
        capsys.readouterr()

    def test_quoting_of_each_reason(self, capsys):
        lines = emit(self.hand_made_rows()).split("\n")
        capsys.readouterr()
        assert lines[1].endswith(",false,")
        assert lines[3].endswith(",false,plain")
        assert lines[4].endswith(',true,"comma, here"')
        assert lines[5].endswith(',false,"say ""hi"""')
        assert lines[6].endswith(',true,"two') and lines[7] == 'lines"'

    @pytest.mark.parametrize("format, text", [("csv", CSV_HEADER + "\n"), ("json", "[]\n")])
    def test_no_rows(self, capsys, format, text):
        assert emit([], format=format) == text
        assert capsys.readouterr().out == text


class TestIndentedJson:
    """indented_json lays out a flat dict or a list of them as json.dumps(payload, indent=2) does."""

    FLAT = {"none": None, "yes": True, "no": False, "int": -42, "tiny": 1e-300, "big": 1e16,
            "negative_zero": -0.0, "text": 'a "quote", a \\ backslash,\na newline and µ, é, 鍵'}

    @pytest.mark.parametrize("payload", [
        FLAT,
        {},
        [FLAT],
        [FLAT, {**FLAT, "int": 7, "text": "plain"}, {"only": 1.5}, FLAT],
        [],
    ], ids=["dict", "empty-dict", "one-row", "several-rows", "no-rows"])
    def test_matches_json_dumps_indent_2(self, payload):
        assert cowqkd.scan.indented_json(payload) == json.dumps(payload, indent=2)

    def test_nan_is_null(self):
        nan_row, null_row = {"qber": math.nan, "x": 1.0}, {"qber": None, "x": 1.0}
        assert cowqkd.scan.indented_json(nan_row) == json.dumps(null_row, indent=2)
        assert cowqkd.scan.indented_json([nan_row]) == json.dumps([null_row], indent=2)

    @pytest.mark.parametrize("payload", [{"x": math.inf}, [{"x": -math.inf}]], ids=["dict", "rows"])
    def test_an_infinity_raises(self, payload):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            cowqkd.scan.indented_json(payload)

    def test_emit_without_rows_is_an_empty_list(self, capsys):
        assert emit([], format="json") == "[]\n"
        capsys.readouterr()


class TestScanRow:
    ROW = ScanRow(value=10.0, qber=0.01, phase_error_upper=0.2, key_bits=5.0,
                  key_rate_bps=2.5, aborted=False, reason=None)

    def test_fields_follow_the_columns(self):
        assert ScanRow._fields == ("value", *COLUMNS[1:])

    def test_keyword_construction_and_attributes(self):
        assert self.ROW.value == 10.0
        assert self.ROW.key_rate_bps == 2.5
        assert self.ROW.reason is None
        assert self.ROW == ScanRow(10.0, 0.01, 0.2, 5.0, 2.5, False, None)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.ROW.qber = 0.5

    def test_replace_makes_a_copy(self):
        changed = self.ROW._replace(aborted=True, reason="no positive key length")
        assert changed.aborted and changed.reason == "no positive key length"
        assert self.ROW.aborted is False


class TestZeroDecoyRejected:
    """A zero decoy probability fails validation in every command, before any output."""

    @pytest.mark.parametrize("key", ["source.p_decoy_alpha_alpha", "source.p_decoy_vacuum"])
    @pytest.mark.parametrize("command", [
        ["validate"],
        ["scan", "--variable", "length_km", "--start", "0", "--stop", "10"],
        ["threshold", "--metric", "key_length", "--target", "1", "--bracket", "0", "200"],
        ["threshold", "--metric", "qber", "--target", "0.02", "--bracket", "0", "200"],
    ], ids=["validate", "scan", "threshold-key_length", "threshold-qber"])
    def test_exits_1(self, capsys, command, key):
        argv = command + ["--config", str(CONFIGS / "keyrate_eta20_dt30.cfg"), "--set", f"{key}=0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{key} must lie in (0, 1), got 0.0" in captured.err


class TestThresholdInputChecks:
    """find_threshold rejects a bad target or bracket before any evaluation,
    with the message the CLI prints for the same input."""

    CASES = {
        "nan target": ("nan", ("100", "200"), "threshold target must be finite, got nan"),
        "inf target": ("inf", ("100", "200"), "threshold target must be finite, got inf"),
        "reversed bracket": ("0.05", ("200", "100"),
                             "threshold bracket must satisfy lo < hi, got 200.0 100.0"),
        "empty bracket": ("0.05", ("150", "150"),
                          "threshold bracket must satisfy lo < hi, got 150.0 150.0"),
        "end out of range": ("0.05", ("-10", "200"),
                             "channel.length_km must lie in [0, inf), got -10.0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_api_raises_the_cli_message(self, capsys, monkeypatch, case):
        target, bracket, message = self.CASES[case]

        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluated before the input checks")

        monkeypatch.setattr(cowqkd.scan, "analytic_gains", no_evaluation)
        with pytest.raises(ValidationError) as exc:
            find_threshold("qber", float(target), tuple(map(float, bracket)), make_params())
        assert str(exc.value) == message
        argv = ["threshold", "--metric", "qber", f"--target={target}", "--bracket", *bracket]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestConfigObjectsRaiseValidationError:
    @pytest.mark.parametrize("build", [
        lambda: AnalysisConfig(cross_term="bogus"),
        lambda: ScanSpec(variable="mu", start=0.5, stop=0.4),
        lambda: ScanSpec(variable="mu", start=0.4, stop=0.5, mode="simulate", sim_seed=-1),
        lambda: cowqkd.SimConfig(seed=1, rounds=0),
        lambda: cowqkd.SimConfig(seed=-1, rounds=10),
    ], ids=["analysis", "scan", "scan-sim-seed", "sim-rounds", "sim-seed"])
    def test_bad_setting(self, build):
        with pytest.raises(ValidationError):
            build()


def test_rounds_rule_has_one_message(capsys):
    message = "error: rounds must lie in [1, inf), got 0\n"
    for argv in (["simulate", "--rounds", "0"], ["simulate", "--set", "rounds=0"],
                 TestSimulateScanSettings.GRID + ["--set", "rounds=0"]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", message)


class TestScanFlagsAreScanSpecFields:
    """Each scan flag is a ScanSpec field and parses its value as its scan.* key does."""

    GRID = {"variable": "mu", "start": "0.25", "stop": "0.5"}
    #: A value of each field other than its default and the grid's.
    VALUES = {"variable": "length_km", "start": "0.125", "stop": "0.375", "step": "0.0625",
              "mode": "simulate", "sim_seed": "1e3", "replay_path": "x.txt"}

    def spec(self, argv):
        args = build_parser().parse_args(["scan", *argv])
        cfg, _, _ = cowqkd.cli._inputs(args)
        return cowqkd.cli.build_scan_spec(cfg, args)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScanSpec)])
    def test_flag_matches_config_key(self, name):
        common = [arg for key, value in self.GRID.items() if key != name
                  for arg in (f"--{key}", value)]
        value = self.VALUES[name]
        by_flag = self.spec(common + [f"--{name.replace('_', '-')}={value}"])
        by_key = self.spec(common + ["--set", f"scan.{name}={value}"])
        assert by_flag == by_key
        assert getattr(by_flag, name) == CONFIG_KEYS[f"scan.{name}"](value)

    def test_bad_number_names_the_flag(self, capsys):
        assert main(["scan", "--variable", "mu", "--start", "abc", "--stop", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --start: expected a number, got 'abc'" in captured.err

    @pytest.mark.parametrize("flag, name, allowed", [
        ("--variable", "scan variable", cowqkd.scan.SCAN_VARIABLES),
        ("--mode", "scan mode", cowqkd.scan.SCAN_MODES),
    ])
    def test_unknown_choice_gets_the_spec_message(self, capsys, flag, name, allowed):
        argv = ["scan", *(f"--{key}={value}" for key, value in self.GRID.items()), flag, "bogus"]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: unknown {name} 'bogus', expected one of {allowed}\n")


def test_analyze_json_is_the_result_and_its_rate(capsys, replay_log):
    log, record = replay_log
    assert main(["analyze", "--counts", str(log)] + KEYRATE_SETS) == 0
    payload = json.loads(capsys.readouterr().out)
    params = cowqkd.cli.build_params(cowqkd.cli.parse_assignments(KEYRATE_SETS[1::2]))
    result = evaluate_record(record, params, AnalysisConfig())
    names = [f.name for f in dataclasses.fields(result)]
    assert list(payload) == names + ["key_rate_bps"]
    assert {name: payload[name] for name in names} == dataclasses.asdict(result)
    assert payload["key_rate_bps"] == cowqkd.scan.key_rate_bps(
        result.key_length_bits, record.rounds, params.source.pulse_pair_rate)


def test_simulate_rejects_a_bad_analysis_key(capsys):
    assert main(["simulate", "--rounds", "1000", "--set", "analysis.cross_term=bogus"]) == 1
    assert capsys.readouterr() == (
        "", "error: unknown cross_term 'bogus', expected one of ('mixed', 'vacuum')\n")


@pytest.mark.parametrize("mode", ["analytic", "replay", "simulate"])
def test_out_of_range_points_become_error_rows(replay_log, mode):
    settings = {"replay": dict(replay_path=str(replay_log[0])),
                "simulate": dict(sim_seed=3)}.get(mode, {})
    params = keyrate_profile()
    rows = run_scan(ScanSpec("mu", 0.9, 1.2, 0.1, mode=mode, **settings), params)
    assert len(rows) == 4
    # The in-range point is evaluated as in a scan of its own.
    assert rows[0] == run_scan(ScanSpec("mu", 0.9, 0.9, mode=mode, **settings), params)[0]
    for row in rows[1:]:
        assert row.aborted and math.isnan(row.key_bits)
        assert row.reason == f"error: source.mu must lie in (0, 1), got {row.value}"


class TestEveryEnumeratedSettingIsChecked:
    """Each setting that takes one of a list of names raises ValidationError
    naming that list, with one message shape."""

    CASES = {
        "delta_provider": (lambda: AnalysisConfig(delta_provider="bogus"),
                           "delta_provider", tuple(cowqkd.concentration.DELTA_PROVIDERS)),
        "cross_term": (lambda: AnalysisConfig(cross_term="bogus"),
                       "cross_term", cowqkd.finite_key.CROSS_TERM_MODES),
        "remainder_terms": (lambda: AnalysisConfig(remainder_terms="bogus"),
                            "remainder_terms", cowqkd.finite_key.REMAINDER_MODES),
        "m1_model": (lambda: AnalysisConfig(m1_model="bogus"),
                     "m1_model", cowqkd.gains.M1_MODELS),
        "scan variable": (lambda: ScanSpec("bogus", 0.0, 1.0),
                          "scan variable", cowqkd.scan.SCAN_VARIABLES),
        "scan mode": (lambda: ScanSpec("mu", 0.4, 0.5, mode="bogus"),
                      "scan mode", cowqkd.scan.SCAN_MODES),
        "sim mode": (lambda: cowqkd.SimConfig(seed=1, rounds=10, mode="bogus"),
                     "mode", cowqkd.simulator.SIM_MODES),
        "with_variable": (lambda: with_variable(make_params(), "bogus", 1.0),
                          "scan variable", cowqkd.scan.SCAN_VARIABLES),
        "analytic_gains": (lambda: analytic_gains(make_params(), m1_model="bogus"),
                           "m1_model", cowqkd.gains.M1_MODELS),
        "xbasis_gain_lower_m0": (lambda: cowqkd.xbasis_gain_lower_m0(None, None, 0.5,
                                                                     cross_term="bogus"),
                                 "cross_term", cowqkd.finite_key.CROSS_TERM_MODES),
        "direction": (lambda: cowqkd.bound_expected_count(1.0, 10.0, 1e-10, "bogus"),
                      "direction", ("upper", "lower", "both")),
        "provider": (lambda: cowqkd.bound_expected_count(1.0, 10.0, 1e-10, provider="bogus"),
                     "provider", tuple(cowqkd.concentration.DELTA_PROVIDERS)),
        "threshold metric": (lambda: find_threshold("bogus", 0.05, (100.0, 200.0), make_params()),
                             "threshold metric", cowqkd.scan.THRESHOLD_METRICS),
        "output format": (lambda: emit([], format="bogus"),
                          "output format", cowqkd.scan.OUTPUT_FORMATS),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_raises_naming_the_allowed_values(self, capsys, case):
        build, name, allowed = self.CASES[case]
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == f"unknown {name} 'bogus', expected one of {tuple(allowed)}"
        assert capsys.readouterr().out == ""

    def test_parser_choices_are_the_library_names(self):
        commands = cowqkd.cli._parsers()[1]
        choices = {action.dest: action.choices for parser in commands.values()
                   for action in parser._actions if action.choices}
        assert choices["metric"] == cowqkd.scan.THRESHOLD_METRICS
        assert choices["format"] == cowqkd.scan.OUTPUT_FORMATS


class TestEveryBadEntryIsNamed:
    """Config files, --set lists and count logs share one key = value reader,
    which reports every bad line rather than the first."""

    def test_config_names_every_bad_line(self):
        text = "source.brightness = 2\nsource.mu = 0.5\nrounds = 1.5\nsource.mu = 0.4\nbare\n"
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text, origin="two.cfg")
        assert str(exc.value) == (
            "two.cfg line 1: unknown key 'source.brightness'; "
            "two.cfg line 3: rounds: expected an integer, got '1.5'; "
            "two.cfg line 4: repeated key 'source.mu'; "
            "two.cfg line 5: expected 'key = value', got 'bare'")

    def test_one_bad_line_keeps_its_message(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("channel.length_km = 20\nsource.mu = tiny\n")
        assert main(["validate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg} line 2: source.mu: expected a number, got 'tiny'\n"

    def test_cli_exits_1_naming_both_bad_config_lines(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("source.bogus = 1\nsource.mu = 0.5\nrounds = many\n")
        assert main(["validate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg} line 1: unknown key 'source.bogus'" in err
        assert f"{cfg} line 3: rounds: expected a number, got 'many'" in err

    def test_set_names_every_bad_item(self, capsys):
        argv = ["validate", "--set", "source.bogus=1", "--set", "source.mu=tiny", "--set", "rounds"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: --set: unknown key 'source.bogus'; "
            "--set: source.mu: expected a number, got 'tiny'; "
            "--set: expected 'key=value', got 'rounds'\n")

    def test_blank_set_item_is_bad(self):
        with pytest.raises(ConfigError, match="--set: expected 'key=value', got ''"):
            cowqkd.cli.parse_assignments([""])

    def test_later_set_wins(self):
        assert cowqkd.cli.parse_assignments(["source.mu=0.3", "source.mu=0.4"]) == {"source.mu": 0.4}

    def test_inline_comment_is_part_of_the_value(self):
        # A comment is a whole line; '#' inside a value, as in a replay path, stays in it.
        with pytest.raises(ConfigError) as exc:
            parse_config_text("# settings\nsource.mu = 0.5  # note\n", origin="c.cfg")
        assert str(exc.value) == "c.cfg line 2: source.mu: expected a number, got '0.5  # note'"
        assert parse_config_text("scan.replay_path = runs/#3.txt\n") == {"scan.replay_path": "runs/#3.txt"}


ROOT = Path(__file__).resolve().parents[1]


class TestByteReadersSplitLinesAsTextModeDid:
    """load_config and replay_counts read bytes and decode them once; a file's lines are
    those that text mode's newline translation and str.splitlines gave."""

    CONFIG = ROOT / "configs" / "keyrate_eta20_dt30.cfg"
    LOG = ROOT / "tests" / "golden" / "simulate-per_pair.txt"

    @staticmethod
    def copy(tmp_path, source, newline):
        data = source.read_bytes()
        assert b"\r" not in data
        copy = tmp_path / source.name
        copy.write_bytes(data.replace(b"\n", newline))
        return copy

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_config(self, tmp_path, newline):
        assert load_config(self.copy(tmp_path, self.CONFIG, newline)) == load_config(self.CONFIG)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_count_log(self, tmp_path, newline):
        assert replay_counts(self.copy(tmp_path, self.LOG, newline)) == replay_counts(self.LOG)

    def test_mixed_newlines_number_bad_lines_as_text_mode(self, tmp_path):
        cfg = tmp_path / "mixed.cfg"
        cfg.write_bytes(b"# a\r\nsource.mu = 0.5\rsource.bogus = 1\n\r\nrounds = many\r")
        with open(cfg, encoding="utf-8") as file:
            text = file.read()
        with pytest.raises(ConfigError) as text_mode:
            parse_config_text(text, origin=str(cfg))
        with pytest.raises(ConfigError) as read:
            load_config(cfg)
        assert str(read.value) == str(text_mode.value) == (
            f"{cfg} line 3: unknown key 'source.bogus'; {cfg} line 5: rounds: expected a number, got 'many'")

    def test_a_bom_config_fails_as_before(self, tmp_path):
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + self.CONFIG.read_bytes())
        with pytest.raises(ConfigError) as exc:
            load_config(bom)
        assert str(exc.value) == (
            f"{bom} line 1: unknown key '\\ufeff# Finite-key rate vs distance, upgraded detector (eta_d'")

    def test_a_bom_count_log_fails_as_before(self, tmp_path):
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + self.LOG.read_bytes())
        with pytest.raises(CountFileError) as exc:
            replay_counts(bom)
        assert str(exc.value) == f"{bom}: line 1: unknown key '\\ufeffrounds'; missing keys: rounds"


class TestOutputCheckedBeforeTheWork:
    """scan and simulate raise the error of an --output they cannot write before they
    compute, after every exit-1 check, and a failed command leaves that path as it was."""

    SCAN = ["scan", "--config", "configs/keyrate_eta10_dt50.cfg"]
    SIMULATE = ["simulate", "--rounds", "1000"]

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the command computed before it checked --output")
        monkeypatch.setattr(cowqkd.cli, "run_scan", refuse)
        monkeypatch.setattr(cowqkd.cli, "simulate_session", refuse)

    @pytest.fixture
    def fail_after_check(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("failed after the check")
        monkeypatch.setattr(cowqkd.cli, "run_scan", fail)
        monkeypatch.setattr(cowqkd.cli, "simulate_session", fail)

    @pytest.mark.parametrize("command", ["scan", "simulate"])
    def test_a_missing_directory_exits_2_before_the_work(self, capsys, monkeypatch, no_work, command):
        monkeypatch.chdir(ROOT)
        argv, name = (self.SCAN, "scan.csv") if command == "scan" else (self.SIMULATE, "counts.txt")
        assert main(argv + ["--output", f"tests/golden/missing/{name}"]) == 2
        golden = ROOT / "tests" / "golden" / f"{command}-output-missing-dir.err"
        assert capsys.readouterr().err == golden.read_text(encoding="utf-8")
        assert not (ROOT / "tests" / "golden" / "missing").exists()

    @pytest.mark.parametrize("command", ["scan", "simulate"])
    def test_a_directory_exits_2_before_the_work(self, capsys, monkeypatch, tmp_path, no_work, command):
        monkeypatch.chdir(ROOT)
        assert main((self.SCAN if command == "scan" else self.SIMULATE) + ["--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--rounds", "0"],
        ["simulate", "--set", "source.p_decoy_vacuum=0"],
        ["scan", "--variable", "mu", "--start", "0.4", "--stop", "0.5", "--step", "nan"],
        ["scan", "--variable", "mu", "--start", "0.4", "--stop", "1e9", "--step", "0.05"],
        ["scan", "--variable", "mu", "--start", "0.4", "--stop", "0.5", "--step", "0.05",
         "--mode", "simulate", "--set", f"rounds={2**63}"],
    ], ids=["rounds", "params", "grid", "end", "block"])
    def test_exit_1_errors_come_first(self, capsys, tmp_path, no_work, argv):
        assert main(argv + ["--output", str(tmp_path / "missing" / "out")]) == 1
        assert "No such file" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "simulate"])
    def test_a_failed_command_neither_creates_nor_truncates(self, capsys, monkeypatch, tmp_path,
                                                            fail_after_check, command):
        monkeypatch.chdir(ROOT)
        argv = self.SCAN if command == "scan" else self.SIMULATE
        new, kept = tmp_path / "new.txt", tmp_path / "kept.txt"
        kept.write_text("keep me\n", encoding="utf-8")
        for path in (new, kept):
            assert main(argv + ["--output", str(path)]) == 2
            assert capsys.readouterr().err == "error: failed after the check\n"
        assert not new.exists()
        assert kept.read_text(encoding="utf-8") == "keep me\n"

    def test_stdout_and_special_files_are_not_probed(self, tmp_path):
        for destination in ("-", os.devnull):
            cowqkd.scan.check_writable(destination)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["scan", "simulate"])
    @pytest.mark.parametrize("target, code", [
        ("missing/x.csv", errno.ENOENT),
        ("link", errno.ELOOP),
        (str(ROOT / "configs"), errno.EISDIR),
        (str(ROOT / "README.md" / "x"), errno.ENOTDIR),
    ], ids=["dangling", "loop", "directory", "below-a-file"])
    def test_a_symlink_that_cannot_be_written_exits_2_before_the_work(
            self, capsys, monkeypatch, tmp_path, no_work, command, target, code):
        monkeypatch.chdir(ROOT)
        link = tmp_path / "link"
        link.symlink_to(target)
        assert main((self.SCAN if command == "scan" else self.SIMULATE) + ["--output", str(link)]) == 2
        assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{link}'\n"
        assert os.listdir(tmp_path) == ["link"]

    def test_a_symlink_to_a_new_file_leaves_no_file_at_its_target(self, tmp_path):
        link = tmp_path / "link"
        link.symlink_to("new.csv")
        cowqkd.scan.check_writable(link)
        assert os.listdir(tmp_path) == ["link"] and link.is_symlink()

    def test_a_chain_of_symlinks_to_a_new_file_leaves_no_file_behind(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        first.symlink_to("second")
        second.symlink_to("new.csv")
        cowqkd.scan.check_writable(first)
        assert sorted(os.listdir(tmp_path)) == ["first", "second"]

    @pytest.mark.parametrize("command", ["scan", "simulate"])
    def test_a_new_path_with_a_trailing_slash_exits_2_before_the_work(
            self, capsys, monkeypatch, tmp_path, no_work, command):
        monkeypatch.chdir(ROOT)
        new = f"{tmp_path / 'new'}/"
        assert main((self.SCAN if command == "scan" else self.SIMULATE) + ["--output", new]) == 2
        assert capsys.readouterr().err == f"error: [Errno {errno.EISDIR}] Is a directory: '{new}'\n"
        assert os.listdir(tmp_path) == []


class TestOutputRewrittenInPlace:
    """An existing, longer output ends as exactly the bytes of a fresh write, and is the
    same file with the same mode; a symlink writes through, and a special file is written
    but not cut."""

    ETA20 = ["--config", str(ROOT / "configs" / "keyrate_eta20_dt30.cfg")]
    LOG = ROOT / "tests" / "golden" / "simulate-per_pair.txt"
    COMMANDS = {
        "scan-csv": ["scan", *ETA20],
        "scan-json": ["scan", *ETA20, "--format", "json"],
        "simulate": ["simulate", *ETA20, "--rounds", "1000"],
        "analyze": ["analyze", *ETA20, "--counts", str(LOG)],
    }

    def write(self, writer, path):
        if writer == "write_counts":
            write_counts(replay_counts(self.LOG), path)
        else:
            assert main(self.COMMANDS[writer] + ["--output", str(path)]) == 0

    @pytest.fixture
    def old(self, tmp_path):
        path = tmp_path / "old.txt"
        path.write_bytes(b"x" * 2**20)
        path.chmod(0o604)
        return path

    @pytest.mark.parametrize("writer", [*COMMANDS, "write_counts"])
    def test_an_existing_file_ends_as_a_fresh_write(self, tmp_path, old, writer):
        before = old.stat()
        for path in (tmp_path / "fresh.txt", old):
            self.write(writer, path)
        after = old.stat()
        assert old.read_bytes() == (tmp_path / "fresh.txt").read_bytes()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_a_symlink_writes_through_to_its_target(self, tmp_path, old):
        link = tmp_path / "link"
        link.symlink_to(old)
        for path in (tmp_path / "fresh.txt", link):
            self.write("scan-csv", path)
        assert link.is_symlink() and os.readlink(link) == str(old)
        assert old.read_bytes() == (tmp_path / "fresh.txt").read_bytes()

    @pytest.mark.parametrize("writer", ["scan-csv", "simulate", "analyze"])
    def test_a_special_file_is_written_but_not_cut(self, capsys, writer):
        self.write(writer, os.devnull)
        assert capsys.readouterr() == ("", "")
