import argparse
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pooltest
from brute_force import threshold_function
from pooltest import SystemParams
from pooltest import TestFunction as PoolFunction
from pooltest import (
    achievable_margin,
    converse_margin,
    or_function,
    threshold_lower,
    threshold_upper,
)
from pooltest.cli import build_parser, main


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

    def test_empty_pair_list_is_usage_error(self, capsys):
        assert run(capsys, "thresholds", "--pairs", ",") == (
            2, "", "error: no (l, r) pairs given\n"
        )

    def test_pair_without_an_achievable_root_prints_why(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--pairs", "1:1")
        assert code == 0
        assert out.splitlines()[2] == (
            "1,1,,,achievable margin has no sign change on (1e-09, 0.5]"
        )

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

    def test_collision_curve_past_the_float_range(self, capsys):
        code, out, err = run(
            capsys,
            "bounds", "--curve", "collision-vs-z", "--l", "3", "--r", "6",
            "--p", "0.1", "--sigma", "0.3",
            "--z-min", "1", "--z-max", "1e200", "--steps", "2",
        )
        assert code == 0, err
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[2:]]
        assert len(values) == 3
        assert all(math.isfinite(v) for v in values)

    def test_noisy_converse_p_far_outside_unit_interval_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "bounds", "--curve", "noisy-converse-vs-p", "--l", "3", "--r", "6",
            "--q", "0.1", "--p-min", "0.1", "--p-max", "1e308", "--steps", "2",
        )
        assert code == 2
        assert out == ""
        # the first grid point past 1 (5e307) is the one rejected
        assert err == "error: p=5e+307 outside [0, 1]\n"

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


HUGE = str(10**400)


@pytest.mark.parametrize("argv,code,message", [
    (("thresholds", "--pairs", f"3:{HUGE}"), 0,
     "degrees l and r must lie within the float range"),
    # 2^(1/r) rounds to 1 here, so the fixed point 2^(1/r) - 1 would be 0
    (("thresholds", "--pairs", "3:100000000000000002"), 0,
     "r is so large that the fixed point 2^(1/r) - 1 rounds to 0"),
    (("bounds", "--curve", "converse-vs-p", "--l", HUGE, "--r", "6",
      "--p-min", "0.1", "--p-max", "0.2", "--steps", "2"), 2,
     "degrees l and r must lie within the float range"),
], ids=["thresholds-r-overflows", "thresholds-fixed-point-underflows", "bounds-l-overflows"])
def test_degrees_past_the_float_range_are_refused(capsys, argv, code, message):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert "Traceback" not in err
    if code == 0:
        # thresholds keeps going and reports the refusal in the error column
        assert out.splitlines()[2].endswith(f",,,{message}")
    else:
        assert out == ""
        assert err == f"error: {message}\n"


# Each numeric flag is swept, one at a time, through these values on top of a
# valid command line of its subcommand; between them the command lines below
# name every numeric flag of every subcommand (bounds once per curve, so that
# each flag is swept where it is read).
SWEEP_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", HUGE, "2.5")
SWEEP_BASES = (
    ("bounds", "--curve", "converse-vs-l", "--p", "0.1", "--ratio", "2",
     "--l-min", "1", "--l-max", "4", "--steps", "3"),
    ("bounds", "--curve", "converse-vs-p", "--l", "3", "--r", "6",
     "--p-min", "0.05", "--p-max", "0.2", "--steps", "3"),
    ("bounds", "--curve", "noisy-converse-vs-p", "--l", "3", "--r", "6", "--q", "0.1",
     "--p-min", "0.05", "--p-max", "0.2", "--steps", "3"),
    ("bounds", "--curve", "achievable-vs-p", "--l", "3", "--r", "6",
     "--p-min", "0.05", "--p-max", "0.2", "--steps", "3"),
    ("bounds", "--curve", "collision-vs-z", "--l", "3", "--r", "6", "--p", "0.1",
     "--sigma", "0.2", "--z-min", "0.1", "--z-max", "2", "--steps", "3"),
    ("thresholds", "--pairs", "3:6", "--precision", "6"),
    ("simulate", "--mode", "noiseless", "--l", "3", "--r", "6", "--n", "12", "--p", "0.1",
     "--eps", "0.1", "--trials", "3", "--seed", "1"),
    ("simulate", "--mode", "noisy", "--l", "3", "--r", "6", "--n", "12", "--p", "0.1",
     "--q", "0.1", "--eps", "0.1", "--eps2", "0.1", "--trials", "3", "--seed", "1"),
    ("verify", "--suite", "montecarlo", "--trials", "200", "--seed", "1"),
    ("general", "--function", "{function}", "--l", "3", "--r", "6", "--p", "0.08"),
)
# --steps and --trials ask for as much work as their value says (--steps 10^400
# would allocate a grid of that many points), so only their huge value is skipped.
WORK_FLAGS = ("--steps", "--trials")


def _numeric_flags(base):
    """(position, flag) of each flag in a base whose value is a number."""
    for i in range(1, len(base) - 1):
        try:
            float(base[i + 1])
        except ValueError:
            continue
        yield i, base[i]


def _sweep_cases(function_path):
    for base in SWEEP_BASES:
        base = [function_path if a == "{function}" else a for a in base]
        for i, flag in _numeric_flags(base):
            for value in SWEEP_VALUES:
                if not (flag in WORK_FLAGS and value == HUGE):
                    yield base[:i + 1] + [value] + base[i + 2:]
    for value in SWEEP_VALUES:
        yield ["thresholds", "--pairs", f"3:{value}"]
        yield ["thresholds", "--pairs", f"{value}:6"]
        yield ["general", "--function", function_path, "--l", "3", "--r", "6",
               "--probs", f"0.5,{value}"]


def test_sweep_bases_run_and_name_every_numeric_flag(capsys, tmp_path):
    # the sweep accepts exit 2, so a base that fails as written (a stale or
    # misspelt flag) would pass it without sweeping anything
    function = tmp_path / "or.json"
    function.write_text(json.dumps(or_function(6).to_json_dict()))
    named = {}
    for base in SWEEP_BASES:
        base = [str(function) if a == "{function}" else a for a in base]
        code, _, err = run(capsys, *base)
        assert code == 0, (base, err[-200:])
        named.setdefault(base[0], set()).update(flag for _, flag in _numeric_flags(base))
    subcommands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    declared = {
        name: {
            action.option_strings[0] for action in sub._actions
            if action.type in (int, float)
        }
        for name, sub in subcommands.items()
    }
    assert named == declared


def test_numeric_flag_sweep_exits_cleanly(capsys, tmp_path):
    """No numeric value reaches the user as a raw exception: every command
    line exits 0, 2 (usage) or 3 (guard)."""
    function = tmp_path / "or.json"
    function.write_text(json.dumps(or_function(6).to_json_dict()))
    failures = []
    for argv in _sweep_cases(str(function)):
        code, _, err = run(capsys, *argv)
        if code not in (0, 2, 3):
            failures.append((argv, code, err[-200:]))
    assert not failures, failures[:5]


# Flag pairs are swept through fewer values, since their cases multiply.
PAIR_SWEEP_VALUES = ("0", "1e308", HUGE)


def _pair_sweep_cases(function_path):
    for base in SWEEP_BASES:
        base = [function_path if a == "{function}" else a for a in base]
        for (i, a), (j, b) in itertools.combinations(_numeric_flags(base), 2):
            for u, v in itertools.product(PAIR_SWEEP_VALUES, repeat=2):
                if not (a in WORK_FLAGS and u == HUGE or b in WORK_FLAGS and v == HUGE):
                    argv = list(base)
                    argv[i + 1], argv[j + 1] = u, v
                    yield argv


def test_numeric_flag_pair_sweep_exits_cleanly(capsys, tmp_path):
    """Two numeric flags set at once, each pair of them on every base:
    every command line exits 0, 2 or 3 with no traceback."""
    function = tmp_path / "or.json"
    function.write_text(json.dumps(or_function(6).to_json_dict()))
    failures = []
    for argv in _pair_sweep_cases(str(function)):
        try:
            code, _, err = run(capsys, *argv)
        except Exception as exc:
            failures.append((argv, repr(exc)))
            continue
        if code not in (0, 2, 3) or "Traceback" in err:
            failures.append((argv, code, err[-200:]))
    assert not failures, failures[:5]


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

    def test_huge_n_is_an_input_error(self, capsys):
        # the typical-set check refuses an n past the float range before the
        # decoder's n*l*m guard sees it
        code, out, err = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "3", "--r", "6", "--n", HUGE,
            "--p", "0.1", "--trials", "1", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: n must lie within the float range\n"

    def test_n_past_the_weight_walk_limit_is_a_guard_refusal(self, capsys):
        # one test of 10^9 objects passes the decoder's n*l*m guard, and the
        # typical-set walk over every weight refuses n = 10^9 at once
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "1", "--r", str(10**9),
            "--n", str(10**9), "--p", "0.1", "--trials", "1", "--seed", "1",
        )
        assert time.perf_counter() - start < 10
        assert code == 3
        assert out == ""
        assert err == (
            "error: typical-set walk over the weights 0..1000000000 refused (limit n=1000000)\n"
        )

    def test_decoder_scan_past_the_node_limit_is_a_guard_refusal(self, capsys):
        # n = 240 passes the n*l*m guard and the weight walk, but a trial
        # with no member one object from x needs a scan that would try more
        # supports than SCAN_NODE_LIMIT
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "3", "--r", "6", "--n", "240",
            "--p", "0.05", "--trials", "100", "--seed", "1",
        )
        assert time.perf_counter() - start < 10
        assert code == 3
        assert out == ""
        assert err == (
            "error: decoder scan over 24 candidate objects refused (limit 4194304 supports)\n"
        )

    def test_member_one_object_away_settles_a_trial_past_the_node_limit(self, capsys):
        # a trial's scan over its 169 candidates would pass SCAN_NODE_LIMIT,
        # but every trial has a member one object from x, so no scan runs
        code, out, _ = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "3", "--r", "6", "--n", "1200",
            "--p", "0.1", "--trials", "3", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["trials"] == 3

    def test_decoder_scan_under_the_node_limit_decodes(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "3", "--r", "6", "--n", "300",
            "--p", "0.1", "--trials", "3", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["trials"] == 3

    def test_guard_exit_code(self, capsys):
        # n*l*m = 1.5 * 10^12 test bits is refused before the weight walk or
        # any mask is built
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "simulate", "--mode", "noiseless", "--l", "3", "--r", "6",
            "--n", "1000000", "--p", "0.1", "--trials", "1", "--seed", "1",
        )
        assert time.perf_counter() - start < 2
        assert code == 3
        assert out == ""
        assert err == (
            "error: decoding with n*l*m = 1500000000000 socket test bits refused "
            "(limit 2147483648)\n"
        )

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

    def test_merged_or_identity_compares_two_routes(self, capsys):
        # the ternary side is the interior point's and the binary side the
        # 1-D iteration's, so their difference is a rounding residue, not 0
        code, out, _ = run(capsys, "verify", "--suite", "identities")
        [line] = [line for line in out.splitlines() if "merged-OR ternary margin" in line]
        difference = float(line.rsplit(" ", 1)[1])
        assert code == 0 and 0 < difference <= 1e-10

    def test_montecarlo_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "montecarlo", "--trials", "2000",
            "--seed", "5",
        )
        assert code == 0
        assert "FAIL" not in out

    def test_exact_suite_reports_the_first_mismatch(self, capsys, monkeypatch):
        # wrong at two events of one system: one check fails, naming the
        # first event in scan order
        true = pooltest.genfunc.ensemble_event_probability

        def wrong(params, w, s):
            value = true(params, w, s)
            if params == SystemParams(1, 2, 2) and (w, s) in ((1, 0), (2, 1)):
                return value + 1
            return value

        monkeypatch.setattr(pooltest.genfunc, "ensemble_event_probability", wrong)
        code, out, _ = run(capsys, "verify", "--suite", "exact")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert len(failed) == 1
        assert failed[0].startswith(
            "[FAIL] noiseless formula vs enumeration (l=1, r=2, n=2): "
            "first mismatch at (w=1, s=0): "
        )
        assert out.splitlines()[-1] == "verify --suite exact: 1 check(s) failed"

    def test_float_q_recurrence_line_can_fail(self, capsys, monkeypatch):
        # the float-q line at n=120 takes the recurrence numerator; doubled,
        # it doubles the float, and the integer line sees it too
        true = pooltest.genfunc._noisy_numerator

        def wrong(*args):
            return true(*args) * 2

        monkeypatch.setattr(pooltest.genfunc, "_noisy_numerator", wrong)
        code, out, _ = run(capsys, "verify", "--suite", "exact")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert len(failed) == 2
        assert failed[0].startswith(
            "[FAIL] float-q noisy formula via the recurrence in (1+z)^r is the exact"
            " value rounded once (l=3, r=6, n=120, q=0.1): "
        )
        assert failed[1].startswith(
            "[FAIL] float-q recurrence numerator is the exact product of the truncated"
            " powers (l=3, r=6, n=120, q=0.1): "
        )

    def test_merged_or_line_can_fail(self, capsys, monkeypatch):
        # the n=24 line holds the general formula to the per-test oracle
        true = pooltest.genfunc.general_ensemble_event_probability

        def wrong(params, *args):
            return true(params, *args) * (2 if params.n == 24 else 1)

        monkeypatch.setattr(pooltest.genfunc, "general_ensemble_event_probability", wrong)
        code, out, _ = run(capsys, "verify", "--suite", "exact")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert failed == [
            "[FAIL] merged-OR formula vs per-test enumeration (l=3, r=6, n=24): input types"
            " (20, 3, 1), output types (8, 4): 1314953/3840821075364 vs 1314953/7681642150728"
        ]

    def test_noisy_per_test_line_can_fail(self, capsys, monkeypatch):
        # the n=24 line holds the noisy formula to the per-test oracle at w=2
        true = pooltest.genfunc.noisy_ensemble_event_probability

        def wrong(params, *args):
            return true(params, *args) * (2 if params.n == 24 else 1)

        monkeypatch.setattr(pooltest.genfunc, "noisy_ensemble_event_probability", wrong)
        code, out, _ = run(capsys, "verify", "--suite", "exact")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert failed == [
            "[FAIL] noisy formula vs enumeration (l=3, r=6, n=24, q=1/10): first mismatch"
            " at (w=2, s=0): 279474680411397/6509954500000000000 vs"
            " 279474680411397/13019909000000000000"
        ]

    def test_numerator_line_sees_a_dropped_term(self, capsys, monkeypatch):
        # without its t = ceil(lw/r) term the numerator is wrong, but by far
        # less than half an ulp of the float, so only the integer line fails
        true = pooltest.genfunc._noisy_numerator

        def first_term(keep, flip, r, m, s, lw):
            # d^(m-t) e_t C(rt, lw), e_t = [Y^t] (keep Y - 1)^s (flip Y + 1)^(m-s)
            t = -(-lw // r)
            e_t = sum(
                math.comb(s, i) * keep**i * (-1) ** (s - i)
                * math.comb(m - s, t - i) * flip ** (t - i)
                for i in range(min(s, t) + 1)
                if t - i <= m - s
            )
            return (keep - flip) ** (m - t) * e_t * math.comb(r * t, lw)

        def wrong(*args):
            return true(*args) - first_term(*args)

        assert wrong(9, 1, 6, 60, 15, 180) != true(9, 1, 6, 60, 15, 180)
        monkeypatch.setattr(pooltest.genfunc, "_noisy_numerator", wrong)
        code, out, _ = run(capsys, "verify", "--suite", "exact")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert len(failed) == 1
        assert failed[0].startswith(
            "[FAIL] float-q recurrence numerator is the exact product of the truncated"
            " powers (l=3, r=6, n=120, q=0.1): w=60, s=15: they differ by a "
        )
        assert out.splitlines()[-1] == "verify --suite exact: 1 check(s) failed"

    @pytest.mark.parametrize("line,module,name,delta", [
        ("collision exponent is sigma-independent at the fixed point",
         "bounds", "collision_exponent", lambda l, r, p, sigma, z: 1e-9 * sigma),
        ("noiseless direct exponent matches the closed form below the crossover",
         "genfunc", "noiseless_direct_exponent", lambda *args: 1e-9),
        ("binary OR margin matches the closed form below the crossover",
         "bounds", "achievable_margin", lambda *args: 1e-9),
        ("general converse bound reduces to the closed form",
         "genfunc", "general_converse_bound", lambda *args: 1e-9),
        ("merged-OR ternary margin is the binary OR margin plus the split entropy",
         "genfunc", "binary_direct_margin", lambda *args: 1e-9),
    ])
    def test_every_identity_line_can_fail(self, capsys, monkeypatch, line, module, name, delta):
        # one side of the line, moved past its tolerance
        target = getattr(pooltest, module)
        true = getattr(target, name)

        def moved(*args):
            out = true(*args)
            if isinstance(out, float):
                return out + delta(*args)
            return dataclasses.replace(out, value=out.value + delta(*args))

        monkeypatch.setattr(target, name, moved)
        code, out, _ = run(capsys, "verify", "--suite", "identities")
        assert code == 1
        assert f"[FAIL] {line}: " in out


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
        assert "binary_direct_margin" not in data
        assert sum(data["outcome_distribution"]) == pytest.approx(1.0, abs=1e-12)

    def test_ternary_function_reports_duality_gap(self, capsys, tmp_path):
        # the largest pooled symbol tells every pair of symbols apart, so no
        # merge applies and the interior point solves it
        ternary_max = PoolFunction.from_callable(max, (0, 1, 2), (0, 1, 2), 6)
        fn = self.write_function(tmp_path / "max.json", ternary_max)
        code, out, _ = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "6",
            "--probs", "0.94,0.036,0.024",
        )
        assert code == 0
        margin = json.loads(out)["direct_margin"]
        assert margin["converged"] is True
        assert 0 <= margin["gap"] <= 1e-12

    def test_merged_or_has_no_duality_gap(self, capsys, tmp_path):
        # both nonzero symbols fire a test alike: the alphabet merges down to
        # two symbols, and the 1-D iteration reports the points it evaluated
        merged = PoolFunction.from_callable(lambda v: int(any(v)), (0, 1, 2), (0, 1), 6)
        fn = self.write_function(tmp_path / "merged.json", merged)
        code, out, _ = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "6",
            "--probs", "0.94,0.036,0.024",
        )
        assert code == 0
        margin = json.loads(out)["direct_margin"]
        assert margin["converged"] is True
        assert margin["gap"] is None
        assert 1 < margin["sweeps"] <= 20
        assert margin["z"][1] / margin["z"][2] == pytest.approx(0.036 / 0.024, rel=1e-12)

    def test_binary_alphabet_has_no_duality_gap(self, capsys, tmp_path):
        fn = self.write_function(tmp_path / "or.json", or_function(6))
        code, out, _ = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "6", "--p", "0.08",
        )
        assert code == 0
        margin = json.loads(out)["direct_margin"]
        assert margin["converged"] is True
        assert margin["gap"] is None
        # the 1-D Newton iteration reports its steps
        assert 1 < margin["sweeps"] <= 20

    def test_nan_result_is_a_usage_error_not_json(self, capsys, tmp_path, monkeypatch):
        # JSON has no NaN: a non-finite value in the payload exits 2 and prints nothing
        true = pooltest.genfunc.general_direct_margin

        def nan_margin(*args):
            return dataclasses.replace(true(*args), value=math.nan)

        monkeypatch.setattr(pooltest.genfunc, "general_direct_margin", nan_margin)
        fn = self.write_function(tmp_path / "or.json", or_function(6))
        code, out, err = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "6", "--p", "0.08",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: result is not finite: ")

    @pytest.mark.parametrize("probs", ["1e-300,0.5,0.5", "5e-324,0.3,0.7"])
    def test_tiny_probability_is_a_usage_error(self, capsys, tmp_path, probs):
        # neither a traceback nor a "value": NaN, which is not JSON, may reach the output
        ternary_max = PoolFunction.from_callable(max, (0, 1, 2), (0, 1, 2), 6)
        fn = self.write_function(tmp_path / "max.json", ternary_max)
        code, out, err = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "6", "--probs", probs,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: probs (") and err.endswith(
            "put the margin's z past the float range\n"
        )

    def test_or_function_past_the_float_range_of_its_multiplicities(self, capsys, tmp_path):
        # C(1031, 515) is past the float range, so those outcome terms are
        # formed in the log domain instead of raising OverflowError
        fn = self.write_function(tmp_path / "or1031.json", or_function(1031))
        code, out, err = run(
            capsys, "general", "--function", fn, "--l", "3", "--r", "1031", "--p", "0.5",
        )
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["outcome_distribution"][0] == 0.5**1031
        assert sum(data["outcome_distribution"]) == pytest.approx(1.0, abs=1e-12)
        assert data["converse_bound"] == pytest.approx(converse_margin(3, 1031, 0.5), abs=1e-12)
        assert data["direct_margin"]["converged"] is True

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

    @pytest.mark.parametrize("field, value", [
        (None, [1, 2]),
        ("input_alphabet", 5),
        ("input_alphabet", "01"),
        ("input_alphabet", [[0], 1]),
        ("output_alphabet", {"0": 1}),
        ("output_alphabet", [0, None]),
        ("arity", "abc"),
        ("arity", "2"),
        ("arity", 2.7),
        ("arity", 2.0),
        ("arity", True),
        ("table", 5),
        ("table", [5]),
        ("type", 5),
        ("type", [1.0, 1.0]),
        ("type", [1, "1"]),
        ("output", "0"),
        ("output", 0.0),
        ("output", False),
    ])
    def test_malformed_function_file_is_usage_error(self, capsys, tmp_path, field, value):
        # one wrong-typed field per file, each refused before it is used
        data = or_function(2).to_json_dict()
        if field is None:
            data = value
        elif field in ("type", "output"):
            data["table"][1][field] = value
        else:
            data[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "general", "--function", str(bad), "--l", "2", "--r", "2",
            "--probs", "0.9,0.1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and (field or "object") in err

    @pytest.mark.parametrize("alphabet, arity, table, message", [
        # the first missing type is named without building every type
        ([0, 1, 2], 1200, [{"type": [1200, 0, 0], "output": 0}],
         "table is missing type (0, 0, 1200)"),
        ([], 6, [], "input alphabet must not be empty"),
        # one composition part per symbol, walked without recursing 1200 deep
        pytest.param(list(range(1200)), 6, [],
                     f"table is missing type {(0,) * 1199 + (6,)}", id="wide-alphabet"),
    ])
    def test_incomplete_function_file_is_usage_error(
        self, capsys, tmp_path, alphabet, arity, table, message
    ):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({"input_alphabet": alphabet, "output_alphabet": [0, 1],
                                   "arity": arity, "table": table}))
        code, out, err = run(
            capsys, "general", "--function", str(bad), "--l", "3", "--r", "6",
            "--probs", "0.9,0.06,0.04",
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("function, flags, message", [
        ("or", ("--probs", "0.9,x"), "--probs '0.9,x' is not a comma-separated float list"),
        ("merged", ("--p", "0.1"), "--p shorthand needs a binary input alphabet; pass --probs"),
        ("or", (), "pass --probs (one per input symbol) or --p for binary input"),
    ], ids=["malformed-probs", "p-with-ternary-input", "neither-p-nor-probs"])
    def test_probability_flags_are_checked(self, capsys, tmp_path, function, flags, message):
        f = {
            "or": or_function(6),
            "merged": PoolFunction.from_callable(lambda v: int(any(v)), (0, 1, 2), (0, 1), 6),
        }[function]
        fn = self.write_function(tmp_path / f"{function}.json", f)
        code, out, err = run(capsys, "general", "--function", fn, "--l", "3", "--r", "6", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("argv,code", [
        (("thresholds", "--pairs", "3:6"), 0),
        (("simulate", "--mode", "noisy", "--l", "3", "--r", "6", "--n", "12", "--p", "0.1",
          "--trials", "1", "--seed", "1"), 2),
    ], ids=["thresholds", "noisy-without-q"])
    def test_module_entry_point_exit_codes(self, argv, code):
        env = dict(os.environ, PYTHONPATH=str(Path(pooltest.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "pooltest", *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == code, proc.stderr
