import json
import math

import pytest

from pooltest import TestFunction as PoolFunction
from pooltest import (
    achievable_margin,
    converse_margin,
    or_function,
    threshold_function,
    threshold_lower,
    threshold_upper,
)
from pooltest.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as ex:
        code = int(ex.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThresholdsCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--pairs", "3:6", "2:4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "l,r,p_lower,p_upper,error"
        assert len(lines) == 4
        cells = lines[2].split(",")
        assert cells[:2] == ["3", "6"]
        assert float(cells[2]) == pytest.approx(0.110022, abs=5e-6)
        assert float(cells[3]) == pytest.approx(0.110023, abs=5e-6)

    def test_comma_separated_pairs(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--pairs", "3:6,2:4")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "thresholds", "--pairs", "3:6", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        row = data["rows"][0]
        assert row["l"] == 3 and row["r"] == 6
        assert row["p_lower"] == pytest.approx(threshold_lower(3, 6), abs=1e-6)
        assert row["p_upper"] == pytest.approx(threshold_upper(3, 6), abs=1e-6)

    def test_precision_flag(self, capsys):
        _, out, _ = run(capsys, "thresholds", "--pairs", "3:6", "--precision", "3")
        cells = out.strip().splitlines()[2].split(",")
        assert cells[2] == "0.110" and cells[3] == "0.110"

    def test_rootless_pair_reports_error_row(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--pairs", "1:2", "3:5")
        assert code == 0
        lines = out.strip().splitlines()
        assert "error" in lines[1]
        bad = next(line for line in lines[2:] if line.startswith("1,2"))
        assert "positive" in bad or "no sign change" in bad
        good = next(line for line in lines[2:] if line.startswith("3,5"))
        assert good.endswith(",")

    def test_malformed_pair_is_usage_error(self, capsys):
        code, _, err = run(capsys, "thresholds", "--pairs", "3-6")
        assert code == 2
        assert err

    def test_negative_precision_is_usage_error(self, capsys):
        code, out, err = run(capsys, "thresholds", "--pairs", "3:6", "--precision", "-1")
        assert code == 2
        assert "precision" in err
        assert out == ""


class TestBoundsCommand:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--curve", "converse-vs-p", "--l", "3", "--r", "6",
            "--p-min", "0.01", "--p-max", "0.2", "--steps", "300",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "p,converse_margin"
        assert len(lines) == 2 + 301

    def test_values_match_library(self, capsys):
        _, out, _ = run(
            capsys,
            "bounds", "--curve", "converse-vs-p", "--l", "3", "--r", "6",
            "--p-min", "0.1", "--p-max", "0.2", "--steps", "2",
        )
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        for x, y in rows:
            assert float(y) == pytest.approx(
                converse_margin(3, 6, float(x)), rel=1e-10
            )

    def test_achievable_curve(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--curve", "achievable-vs-p", "--l", "3", "--r", "6",
            "--p-min", "0.05", "--p-max", "0.15", "--steps", "10",
        )
        assert code == 0
        first = out.strip().splitlines()[2].split(",")
        assert float(first[1]) == pytest.approx(
            achievable_margin(3, 6, 0.05), rel=1e-10
        )

    def test_degree_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--curve", "converse-vs-l", "--p", "0.05",
            "--l-min", "2", "--l-max", "6", "--steps", "4",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert [row[0] for row in rows] == ["2", "3", "4", "5", "6"]

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--curve", "collision-vs-z", "--l", "3", "--r", "6",
            "--p", "0.08", "--sigma", "0.15",
            "--z-min", "0.05", "--z-max", "0.4", "--steps", "5",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["columns"] == ["z", "collision_exponent"]
        assert len(data["rows"]) == 6
        assert data["config"]["sigma"] == 0.15

    def test_unknown_curve_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "bounds", "--curve", "margin-vs-q", "--steps", "5",
        )
        assert code == 2

    def test_missing_sweep_flags_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "bounds", "--curve", "converse-vs-p", "--l", "3", "--r", "6",
            "--steps", "5",
        )
        assert code == 2
        assert err

    def test_zero_ratio_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "bounds", "--curve", "converse-vs-l", "--p", "0.05", "--ratio", "0",
            "--l-min", "2", "--l-max", "4", "--steps", "2",
        )
        assert code == 2
        assert out == ""
        assert "ratio" in err

    def test_nan_z_is_usage_error(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--curve", "collision-vs-z", "--l", "3", "--r", "6",
            "--p", "0.08", "--sigma", "0.15",
            "--z-min", "nan", "--z-max", "0.4", "--steps", "2",
        )
        assert code == 2
        assert "nan" not in out

    def test_collision_without_sigma_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "bounds", "--curve", "collision-vs-z", "--l", "3", "--r", "6",
            "--p", "0.08", "--z-min", "0.05", "--z-max", "0.4", "--steps", "5",
        )
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys,
            "bounds", "--curve", "converse-vs-p", "--l", "3", "--r", "6",
            "--p-min", "0.1", "--p-max", "0.2", "--steps", "2",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# config:")

    def test_unwritable_out_path_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.csv"
        code, out, err = run(
            capsys, "thresholds", "--pairs", "3:6", "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}:")
        assert "Traceback" not in err

    def test_out_of_range_q_names_q(self, capsys):
        code, out, err = run(
            capsys,
            "bounds", "--curve", "noisy-converse-vs-p", "--l", "3", "--r", "6",
            "--q", "1.5", "--p-min", "0.05", "--p-max", "0.1", "--steps", "2",
        )
        assert code == 2
        assert out == ""
        assert err == "error: q=1.5 outside [0, 1]\n"

    def test_non_integral_degree_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "bounds", "--curve", "converse-vs-l", "--p", "0.05",
            "--l-min", "1.5", "--l-max", "3", "--steps", "4",
        )
        assert code == 2
        assert out == ""
        assert "l=1.5 is not an integer" in err


class TestSimulateCommand:
    def test_noiseless_report(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "3", "--r", "6",
            "--n", "18", "--p", "0.05", "--trials", "200", "--seed", "7",
        )
        assert code == 0
        data = json.loads(out)
        assert data["trials"] == 200
        assert data["master_seed"] == 7
        assert 0.0 <= data["error_rate"] <= 1.0

    def test_deterministic_across_runs(self, capsys):
        argv = (
            "simulate", "--mode", "noisy", "--l", "3", "--r", "6",
            "--n", "18", "--p", "0.05", "--q", "0.1",
            "--trials", "150", "--seed", "3",
        )
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_guard_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "3", "--r", "6",
            "--n", "30", "--p", "0.05", "--trials", "10", "--seed", "1",
        )
        assert code == 3
        assert "enum" in err.lower() or "30" in err

    def test_enum_limit_lifts_guard(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "3", "--r", "6",
            "--n", "30", "--p", "0.05", "--trials", "5", "--seed", "1",
            "--enum-limit", "30",
        )
        assert code == 0
        assert json.loads(out)["trials"] == 5

    def test_noisy_requires_q(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--mode", "noisy", "--l", "3", "--r", "6",
            "--n", "18", "--p", "0.05", "--trials", "10", "--seed", "1",
        )
        assert code == 2
        assert err

    def test_nan_epsilon_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "3", "--r", "6",
            "--n", "18", "--p", "0.1", "--eps", "nan", "--trials", "5", "--seed", "1",
        )
        assert code == 2
        assert "epsilon" in err
        assert out == ""

    def test_workers_flag_is_gone(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "3", "--r", "6",
            "--n", "18", "--p", "0.05", "--trials", "10", "--seed", "1",
            "--workers", "2",
        )
        assert code == 2
        assert "--workers" in err


class TestVerifyCommand:
    def test_exact_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "exact")
        assert code == 0
        assert "[ok]" in out
        assert "FAIL" not in out

    def test_identities_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identities")
        assert code == 0
        assert "FAIL" not in out

    def test_montecarlo_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "montecarlo", "--trials", "2000",
            "--seed", "5",
        )
        assert code == 0
        assert "FAIL" not in out


class TestGeneralCommand:
    @staticmethod
    def write_function(path, f):
        path.write_text(json.dumps(f.to_json_dict()))
        return str(path)

    def test_or_function_recovers_binary_quantities(self, capsys, tmp_path):
        fn = self.write_function(tmp_path / "or.json", or_function(6))
        code, out, _ = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "6",
            "--p", "0.08",
        )
        assert code == 0
        data = json.loads(out)
        assert data["converse_bound"] == pytest.approx(
            converse_margin(3, 6, 0.08), abs=1e-10
        )
        assert data["direct_margin"]["value"] == pytest.approx(
            achievable_margin(3, 6, 0.08), abs=1e-8
        )
        assert data["binary_direct_margin"]["value"] == pytest.approx(
            achievable_margin(3, 6, 0.08), abs=1e-8
        )
        assert sum(data["outcome_distribution"]) == pytest.approx(1.0, abs=1e-12)

    def test_ternary_function_reports_duality_gap(self, capsys, tmp_path):
        merged = PoolFunction.from_callable(lambda v: int(any(v)), (0, 1, 2), (0, 1), 6)
        fn = self.write_function(tmp_path / "merged.json", merged)
        code, out, _ = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "6",
            "--probs", "0.94,0.036,0.024",
        )
        assert code == 0
        margin = json.loads(out)["direct_margin"]
        assert margin["converged"] is True
        assert 0 <= margin["gap"] <= 1e-12

    def test_binary_alphabet_has_no_duality_gap(self, capsys, tmp_path):
        fn = self.write_function(tmp_path / "or.json", or_function(6))
        code, out, _ = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "6", "--p", "0.08",
        )
        assert code == 0
        margin = json.loads(out)["direct_margin"]
        assert margin["converged"] is True
        assert margin["gap"] is None

    def test_threshold_function(self, capsys, tmp_path):
        fn = self.write_function(tmp_path / "thr.json", threshold_function(4, 2))
        code, out, _ = run(
            capsys, "general", "--function", fn, "--l", "2", "--r", "4",
            "--probs", "0.9,0.1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["direct_margin"]["converged"] is True
        assert data["arity"] == 4

    def test_arity_must_match_r(self, capsys, tmp_path):
        fn = self.write_function(tmp_path / "or2.json", or_function(2))
        code, _, err = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "6",
            "--p", "0.08",
        )
        assert code == 2

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"input_alphabet": [0, 1], ')
        code, _, err = run(
            capsys, "general", "--function", str(bad), "--l", "3", "--r", "6",
            "--p", "0.08",
        )
        assert code == 2
        assert "line" in err

    def test_missing_table_key_is_usage_error(self, capsys, tmp_path):
        data = or_function(6).to_json_dict()
        del data["table"]
        bad = tmp_path / "nokey.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(
            capsys, "general", "--function", str(bad), "--l", "3", "--r", "6",
            "--p", "0.08",
        )
        assert code == 2

    def test_wrong_probability_count_is_usage_error(self, capsys, tmp_path):
        fn = self.write_function(tmp_path / "or6.json", or_function(6))
        code, _, err = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "6",
            "--probs", "0.5,0.3,0.2",
        )
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "general", "--function", str(tmp_path / "absent.json"),
            "--l", "3", "--r", "6", "--p", "0.08",
        )
        assert code == 2


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2
