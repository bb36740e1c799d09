import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wiretapcodes import cli, codes, thresholds


def run(*argv):
    return cli.main(list(argv))


# A valid bec-exact simulate run on a small ensemble code.
_SIM_BEC = ("simulate", "--estimator", "bec-exact", "--ensemble", "3,6", "--n", "60",
            "--param", "1.0", "--trials", "5", "--seed", "1")

# A quick empirical threshold run, which reads --trials and --target-wer
# (the BEC threshold reads neither).
_THRESHOLD_AWGN = ("--ensemble", "3,6", "--n", "60", "--grid", "5.0", "--seed", "1")


def read_report(path):
    header = {}
    rows = []
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    body = []
    for ln in lines:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition("=")
            header[key] = value
        else:
            body.append(ln)
    reader = csv.DictReader(body)
    rows = list(reader)
    return header, rows


class TestCapacityCommand:
    def test_awgn_operating_point(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert run("capacity", "--channel", "biawgn", "--param", "0.302", "--out", str(out)) == 0
        header, rows = read_report(out)
        assert header["channel"] == "biawgn"
        assert "config_hash" in header
        assert float(rows[0]["Cs"]) == pytest.approx(0.663, abs=0.001)

    def test_bsc_half(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert run("capacity", "--channel", "bsc", "--param", "0.5", "--out", str(out)) == 0
        _, rows = read_report(out)
        assert float(rows[0]["Cs"]) == 1.0

    def test_bsc_above_half_is_computation_error(self, tmp_path, capsys):
        # a BEC with erasure probability 2q > 1 does not exist
        out = tmp_path / "cap.csv"
        assert run(
            "capacity", "--channel", "bsc", "--grid", "0.4,0.6,0.9", "--out", str(out)
        ) == 2
        assert not out.exists()
        assert "crossover probability 0.6 outside [0, 1/2]" in capsys.readouterr().err

    def test_approach2_rate_column(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert run("capacity", "--channel", "biawgn", "--param", "0.32", "--out", str(out)) == 0
        _, rows = read_report(out)
        assert float(rows[0]["approach2_rate"]) == pytest.approx(0.4237, abs=5e-4)

    def test_nan_snr_exits_2(self):
        # the quadrature never returned on a NaN SNR, so run it where it can be stopped
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "wiretapcodes.cli", "capacity", "--channel", "biawgn",
             "--param", "nan"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "SNR nan must be nonnegative and finite" in done.stderr

    def test_grid(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert run("capacity", "--channel", "bec", "--grid", "0.1:0.5:5", "--out", str(out)) == 0
        _, rows = read_report(out)
        assert [float(r["param"]) for r in rows] == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert all(float(r["gap"]) == 0.0 for r in rows)


class TestThresholdCommand:
    def test_de_threshold(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert run("threshold", "--channel", "bec", "--ensemble", "3,6", "--out", str(out)) == 0
        _, rows = read_report(out)
        assert rows[0]["method"] == "DE-bisection"
        assert float(rows[0]["value"]) == pytest.approx(0.4294, abs=5e-4)

    def test_bec_echoes_and_hashes_only_what_it_reads(self, tmp_path):
        # density evolution takes no code length, seed, trials, grid or
        # target word-error rate, so giving them is a usage error
        out = tmp_path / "thr.csv"
        for extra in (("--seed", "1", "--n", "60"), ("--seed", "2", "--trials", "5")):
            assert run("threshold", "--channel", "bec", "--ensemble", "3,6", *extra,
                       "--out", str(out)) == 1
            assert not out.exists()
        assert run("threshold", "--channel", "bec", "--ensemble", "3,6", "--out", str(out)) == 0
        header, _ = read_report(out)
        assert set(header) == {
            "channel", "code", "command", "config_hash", "delta_star", "ensemble", "tol",
        }

    def test_user_override_echoed(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert run(
            "threshold", "--channel", "bec", "--ensemble", "4,6",
            "--delta-star", "0.665", "--out", str(out),
        ) == 0
        _, rows = read_report(out)
        assert len(rows) == 2
        assert rows[1]["method"].startswith("user-supplied")
        assert float(rows[1]["value"]) == 0.665

    def test_irregular_ensemble_spec(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert run(
            "threshold", "--channel", "bec",
            "--ensemble", "lambda=2:0.4,3:0.6;rho=6:1.0", "--out", str(out),
        ) == 0
        _, rows = read_report(out)
        assert 0.0 < float(rows[0]["value"]) < 1.0

    def test_de_threshold_from_alist(self, tmp_path):
        code_path = tmp_path / "c.alist"
        codes.write_alist(codes.regular_ldpc(120, 3, 6, seed=2), code_path)
        out = tmp_path / "thr.csv"
        assert run(
            "threshold", "--channel", "bec", "--code", str(code_path), "--out", str(out)
        ) == 0
        _, rows = read_report(out)
        assert float(rows[0]["value"]) == pytest.approx(0.4294, abs=5e-4)

    def test_grid_exhausted_sentinel(self, tmp_path):
        out = tmp_path / "thr.csv"
        code_path = tmp_path / "c.alist"
        codes.write_alist(codes.regular_ldpc(510, 3, 6, seed=1), code_path)
        assert run(
            "threshold", "--channel", "biawgn", "--code", str(code_path),
            "--grid", "0.0,0.01", "--trials", "100", "--target-wer", "0.01",
            "--seed", "4", "--out", str(out),
        ) == 0
        _, rows = read_report(out)
        assert rows[0]["value"] == ""
        assert rows[0]["note"] == "threshold above grid"

    def test_empirical_requires_seed(self, tmp_path):
        code_path = tmp_path / "c.alist"
        codes.write_alist(codes.regular_ldpc(510, 3, 6, seed=1), code_path)
        assert run(
            "threshold", "--channel", "biawgn", "--code", str(code_path),
            "--grid", "5.0", "--trials", "100",
        ) == 1

    @pytest.mark.parametrize("given", ["command-line", "config"])
    def test_tol_on_biawgn_is_usage_error(self, given, tmp_path, capsys):
        # the empirical BP threshold takes no tolerance, so it neither echoes
        # nor hashes --tol and refuses one, from the command line or a file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-4} if given == "config" else {}))
        argv = ("--tol", "1e-4") if given == "command-line" else ()
        out = tmp_path / "thr.csv"
        assert run("--config", str(cfg), "threshold", "--channel", "biawgn",
                   *_THRESHOLD_AWGN, *argv, "--out", str(out)) == 1
        assert not out.exists()
        assert "only --channel bec reads it" in capsys.readouterr().err
        assert run("threshold", "--channel", "biawgn", *_THRESHOLD_AWGN,
                   "--out", str(out)) == 0
        assert "tol" not in read_report(out)[0]


    @pytest.mark.parametrize("argv", [
        ("--channel", "bec", "--ensemble", "3,6", "--tol", "nan"),
        ("--channel", "bec", "--ensemble", "3,6", "--tol", "inf"),
        ("--channel", "biawgn", *_THRESHOLD_AWGN, "--target-wer", "nan"),
        ("--channel", "biawgn", *_THRESHOLD_AWGN, "--target-wer", "1.5"),
    ], ids=["tol-nan", "tol-inf", "target-wer-nan", "target-wer-1.5"])
    def test_unusable_tolerance_or_target_fails_before_any_decode(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # a NaN used to pass: the DE run reported 3.05e-05, the empirical run
        # decoded every grid point and reported "threshold above grid"
        def no_decode(*args, **kwargs):
            raise AssertionError("decoded before checking the target")

        monkeypatch.setattr(thresholds, "bp_word_error_rate", no_decode)
        out = tmp_path / "thr.csv"
        assert run("threshold", *argv, "--out", str(out)) == 2
        assert not out.exists()
        assert "computation failed" in capsys.readouterr().err


class TestSimulateCommand:
    def test_bec_exact_certain_erasure(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(
            "simulate", "--estimator", "bec-exact", "--ensemble", "3,6", "--n", "60",
            "--param", "1.0", "--trials", "40", "--seed", "11", "--out", str(out),
        ) == 0
        _, rows = read_report(out)
        row = rows[0]
        assert float(row["estimate"]) == float(row["m"]) / float(row["n"])
        assert float(row["half_width"]) == 0.0
        assert row["method"] == "exact-rank"
        # computed DE threshold annotation present for the dual construction
        assert float(row["computed_delta_star"]) == pytest.approx(0.4294, abs=5e-4)
        assert row["computed_ok"] == "true"

    def test_condition_flags_against_user_threshold(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(
            "simulate", "--estimator", "approach2-bsc", "--ensemble", "3,6", "--n", "60",
            "--param", "0.25", "--trials", "30", "--seed", "3",
            "--delta-star", "0.665", "--out", str(out),
        ) == 0
        _, rows = read_report(out)
        row = rows[0]
        # q = 0.25 >= (1 - 0.665)/2 = 0.1675, so the configured condition holds
        assert row["configured_ok"] == "true"
        assert float(row["configured_margin"]) == pytest.approx(0.25 - 0.1675)
        # the computed (3,6) BP threshold 0.4294 is stricter: needs q >= 0.2853
        assert row["computed_ok"] == "false"

    def test_approach1_row(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(
            "simulate", "--estimator", "approach1", "--ensemble", "3,6", "--n", "102",
            "--param", "3.0", "--trials", "20", "--seed", "5",
            "--lambda-star", "0.65", "--out", str(out),
        ) == 0
        _, rows = read_report(out)
        row = rows[0]
        assert row["method"] == "fano-bound"
        assert row["configured_lambda_ok"] == "true"
        assert float(row["word_error_rate"]) <= 1.0

    def test_reproducible_byte_identical(self, tmp_path):
        args = [
            "simulate", "--estimator", "bec-exact", "--ensemble", "3,6", "--n", "120",
            "--grid", "0.3,0.6", "--trials", "200", "--seed", "7",
        ]
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert run(*[*args[:-1], "8", "--out", str(c)]) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_estimator_channel_mismatch_is_usage_error(self, tmp_path):
        assert run(
            "simulate", "--estimator", "approach2-bsc", "--ensemble", "3,6", "--n", "60",
            "--param", "0.9", "--trials", "10", "--seed", "1",
        ) == 2  # q > 1/2 rejected by the estimator


class TestRegionCommand:
    def test_fig_structure(self, tmp_path):
        out = tmp_path / "region.csv"
        assert run("region", "--param", "0.32", "--r1", "0.3333333333", "--out", str(out)) == 0
        _, rows = read_report(out)
        ach = [r for r in rows if r["region"] == "achievable"]
        capv = [r for r in rows if r["region"] == "capacity"]
        check = [r for r in rows if r["region"] == "containment"]
        assert len(ach) == 5 and len(capv) == 4
        assert check[0]["Re"] == "true"
        rates = {round(float(r["R"]), 4) for r in ach}
        assert round(0.4237, 4) in rates

    def test_r1_from_ensemble(self, tmp_path):
        out = tmp_path / "region.csv"
        assert run("region", "--param", "0.32", "--ensemble", "4,6", "--out", str(out)) == 0
        header, _ = read_report(out)
        assert header["param"] == "0.32"


class TestCompareBscCommand:
    def test_default_grid_values(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run("compare-bsc", "--out", str(out)) == 0
        _, rows = read_report(out)
        assert len(rows) == 50
        for r in rows:
            q = float(r["q"])
            assert float(r["construction_rate"]) == pytest.approx(2 * q)
            assert float(r["construction_rate"]) >= float(r["detection_baseline"]) - 1e-12
            assert float(r["construction_rate"]) <= float(r["secrecy_capacity"]) + 1e-12

    def test_known_row(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run("compare-bsc", "--grid", "0.1,0.5", "--out", str(out)) == 0
        _, rows = read_report(out)
        assert float(rows[0]["secrecy_capacity"]) == pytest.approx(0.469, abs=1e-3)
        assert float(rows[0]["construction_rate"]) == pytest.approx(0.2)
        assert float(rows[0]["detection_baseline"]) == pytest.approx(0.152, abs=1e-3)
        keys = ("q", "secrecy_capacity", "construction_rate", "detection_baseline")
        assert [float(rows[1][k]) for k in keys] == [0.5, 1.0, 1.0, 1.0]
        assert rows[1]["config_hash"]  # every row carries the config hash

    @pytest.mark.parametrize("param", ["0", "0.6"])
    def test_param_outside_range_is_usage_error(self, param, capsys):
        # --param 0 is a given grid point, not "no --param": it must not fall
        # back to the default table
        assert run("compare-bsc", "--param", param) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"grid point {float(param)} outside (0, 0.5]" in captured.err


# Every subcommand that reads --grid, with the flags it needs besides.
GRID_COMMANDS = {
    "capacity": ["capacity", "--channel", "bec"],
    "threshold": ["threshold", "--channel", "biawgn", "--ensemble", "3,6", "--n", "60",
                  "--seed", "1", "--trials", "100"],
    "simulate": ["simulate", "--estimator", "approach2-awgn", "--ensemble", "3,6",
                 "--n", "60", "--seed", "1", "--trials", "2"],
    "compare-bsc": ["compare-bsc"],
}


@pytest.mark.parametrize("spec", ["", ",", "0.1:0.5:0"])
@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
def test_empty_grid_is_usage_error(command, spec, capsys):
    assert run(*GRID_COMMANDS[command], "--grid", spec) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage error: empty grid {spec!r}" in captured.err


class TestPlumbing:
    def test_usage_error_exit_code(self):
        assert run("capacity") == 1
        assert run("simulate", "--estimator", "bec-exact") == 1
        assert run("simulate", "--seed", "1", "--trials", "5") == 1

    def test_compute_error_exit_code(self, tmp_path):
        assert run(
            "simulate", "--estimator", "bec-exact", "--ensemble", "3,6", "--n", "60",
            "--param", "0.5", "--trials", "0", "--seed", "1",
        ) == 2

    def test_zero_block_length_reaches_the_code_builder(self, capsys):
        # --n 0 is a given block length, not a missing one
        assert run(*_SIM_BEC[:6], "0", *_SIM_BEC[7:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "block length 0 cannot support row weight 6" in captured.err

    def test_negative_bp_iterations_exit_code(self, tmp_path):
        # no decode can run -1 iterations; this used to report a WER of 1
        assert run(
            "simulate", "--estimator", "approach1", "--ensemble", "3,6", "--n", "60",
            "--param", "3.0", "--trials", "2", "--seed", "1", "--max-bp-iters", "-1",
            "--out", str(tmp_path / "sim.csv"),
        ) == 2

    def test_io_error_exit_code(self, tmp_path):
        assert run(
            "capacity", "--channel", "bec", "--param", "0.5",
            "--out", str(tmp_path / "missing" / "x.csv"),
        ) == 3

    def test_json_sidecar(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert run(
            "capacity", "--channel", "bec", "--param", "0.3",
            "--out", str(out), "--json",
        ) == 0
        payload = json.loads((tmp_path / "cap.csv.json").read_text())
        assert payload["columns"][0] == "param"
        assert payload["config"]["channel"] == "bec"

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channel": "bec", "param": 0.3}))
        out = tmp_path / "cap.csv"
        assert run("--config", str(cfg), "capacity", "--out", str(out)) == 0
        _, rows = read_report(out)
        assert float(rows[0]["Cs"]) == pytest.approx(0.3)

    def test_config_file_overrides_built_in_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 300, "target_wer": 0.5}))
        out = tmp_path / "thr.csv"
        assert run(
            "--config", str(cfg), "threshold", "--channel", "biawgn", *_THRESHOLD_AWGN,
            "--out", str(out),
        ) == 0
        header, _ = read_report(out)
        assert (header["trials"], header["target_wer"]) == ("300", "0.5")
        # only density evolution reads --tol
        cfg.write_text(json.dumps({"tol": 1e-4}))
        assert run(
            "--config", str(cfg), "threshold", "--channel", "bec", "--ensemble", "3,6",
            "--out", str(out),
        ) == 0
        assert read_report(out)[0]["tol"] == "0.0001"

    def test_command_line_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"param": 0.3, "trials": 300}))
        out = tmp_path / "cap.csv"
        assert run(
            "--config", str(cfg), "capacity", "--channel", "bec", "--param", "0",
            "--out", str(out),
        ) == 0
        header, rows = read_report(out)
        assert header["param"] == "0"
        assert [r["param"] for r in rows] == ["0"]
        out = tmp_path / "thr.csv"
        assert run(
            "--config", str(cfg), "threshold", "--channel", "biawgn", *_THRESHOLD_AWGN,
            "--trials", "150", "--out", str(out),
        ) == 0
        assert read_report(out)[0]["trials"] == "150"

    def test_config_file_supplies_the_estimator(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"estimator": "bec-exact", "ensemble": "3,6", "n": 60,
                                   "trials": 5, "seed": 1, "param": 1.0}))
        out = tmp_path / "sim.csv"
        assert run("--config", str(cfg), "simulate", "--out", str(out)) == 0
        _, rows = read_report(out)
        assert rows[0]["estimator"] == "bec-exact" and rows[0]["trials"] == "5"

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for bad in ({"bogus": 1}, {"func": "x"}, [1, 2]):
            cfg.write_text(json.dumps(bad))
            assert run("--config", str(cfg), "capacity", "--channel", "bec") == 1
        cfg.write_text(json.dumps({"estimator": "bogus"}))  # checked like the flag
        assert run("--config", str(cfg), "simulate", "--seed", "1", "--trials", "5") == 1

    @pytest.mark.parametrize("key, bad, good, argv", [
        ("channel", "bogus", "bec", ("capacity", "--param", "0.3")),
        ("estimator", "bogus", "bec-exact", ("simulate", *_SIM_BEC[3:])),
        ("trials", 2.5, 5, (*_SIM_BEC[:9], *_SIM_BEC[11:])),
        ("trials", True, 5, (*_SIM_BEC[:9], *_SIM_BEC[11:])),
        ("trials", None, 5, (*_SIM_BEC[:9], *_SIM_BEC[11:])),
        ("param", "x", 0.3, ("capacity", "--channel", "bec")),
        ("grid", 0.5, "0.5", ("capacity", "--channel", "bec")),
    ], ids=["choices-channel", "choices-estimator", "int-trials", "bool-trials",
            "null-trials", "float-param", "str-grid"])
    def test_bad_config_value_is_usage_error(self, key, bad, good, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: good}))
        assert run("--config", str(cfg), *argv) == 0  # the value alone decides
        capsys.readouterr()
        cfg.write_text(json.dumps({key: bad}))
        assert run("--config", str(cfg), *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config key {key!r}" in captured.err

    def test_config_values_convert_like_the_command_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"param": 1, "trials": "5"}))
        assert run("--config", str(cfg), *_SIM_BEC[:7], *_SIM_BEC[11:]) == 0
        from_config = capsys.readouterr().out
        assert run(*_SIM_BEC) == 0
        assert capsys.readouterr().out == from_config

    def test_config_true_json_is_the_bare_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"json": True}))
        out = tmp_path / "cap.csv"
        assert run("--config", str(cfg), "capacity", "--channel", "bec", "--param", "0.3",
                   "--out", str(out)) == 0
        assert json.loads((tmp_path / "cap.csv.json").read_text())["config"]["param"] == 0.3

    def test_stdout_output(self, capsys):
        assert run("capacity", "--channel", "bec", "--param", "0.25") == 0
        captured = capsys.readouterr().out
        assert "param,C,Cs,approach2_rate,gap" in captured


GOLDEN = Path(__file__).parent / "data" / "golden"

# A valid run of each subcommand plus one flag that subcommand does not read.
UNREAD_FLAGS = {
    "simulate --channel": (*_SIM_BEC, "--channel", "bec"),
    "capacity --seed": ("capacity", "--channel", "bec", "--param", "0.3", "--seed", "1"),
    "region --grid": ("region", "--param", "0.32", "--r1", "0.3333333333", "--grid", "0.1"),
    "compare-bsc --n": ("compare-bsc", "--param", "0.1", "--n", "60"),
    "threshold --param": ("threshold", "--channel", "bec", "--ensemble", "3,6",
                          "--param", "0.5"),
}

_THRESHOLD_BEC = ("threshold", "--channel", "bec", "--ensemble", "3,6")
_APPROACH2 = "bec-exact or approach2-awgn or approach2-bsc"

# A run of one mode, one (flag, value) that mode does not read, and the error.
MODE_UNREAD = {
    **{f"threshold-bec {flag}": (_THRESHOLD_BEC, flag, value,
                                 f"{flag}: only --channel biawgn reads it")
       for flag, value in (("--seed", 1), ("--n", 60), ("--trials", 5), ("--grid", "0.5"),
                           ("--target-wer", 0.1))},
    **{f"simulate-{estimator} {flag}": (
        ("simulate", "--estimator", estimator, *_SIM_BEC[3:]), flag, value,
        f"{flag}: only --estimator approach1 reads it")
       for estimator in _APPROACH2.split(" or ")
       for flag, value in (("--max-bp-iters", 5), ("--lambda-star", 0.9))},
    "simulate-approach1 --delta-star": (
        ("simulate", "--estimator", "approach1", *_SIM_BEC[3:]), "--delta-star", 0.3,
        f"--delta-star: only --estimator {_APPROACH2} reads it"),
    "threshold --channel bsc": (("threshold", "--ensemble", "3,6"), "--channel", "bsc",
                                "threshold requires --channel bec or biawgn"),
}


class TestFlagTable:
    def test_accepted_flags_are_the_echoed_keys(self):
        echoed, runs = {}, set()
        for path in sorted(GOLDEN.glob("*.csv")):
            header, _ = read_report(path)
            name = header.pop("command")
            echoed.setdefault(name, set()).update(set(header) - {"config_hash"})
            command = cli._COMMANDS[name]
            mode = command.mode and header[command.mode]
            assert set(header) - {"config_hash"} == set(command.runs[mode].reads), path.name
            runs.add((name, mode))
        assert runs == {(name, mode) for name, command in cli._COMMANDS.items()
                        for mode in command.runs}
        _, commands = cli._build_parser()
        assert set(echoed) == set(commands)
        for name, parser in commands.items():
            accepted = {
                flag[2:].replace("-", "_")
                for action in parser._actions for flag in action.option_strings
                if flag.startswith("--")
            } - {"help", "out", "json", "config"}
            assert accepted == echoed[name], name

    @pytest.mark.parametrize("case", sorted(UNREAD_FLAGS))
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, case, capsys):
        assert run(*UNREAD_FLAGS[case]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {case.split()[1]}" in captured.err

    def test_readme_flag_table_is_the_run_table(self):
        # one row per run: the flags it reads besides its mode flag, required
        # ones in bold (a bold "--a or --b" needs one of them), defaults in
        # parentheses
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme[readme.index("| Run | Flags |"):].split("\n\n")[0].splitlines()[2:]
        rows = set()
        for line in table:
            run_cell, flags_cell = line.strip("| ").split(" | ")
            name, *mode = run_cell.strip("`").split()
            command = cli._COMMANDS[name]
            shown, required, defaults = set(), set(), {}
            if mode:
                assert mode[0] == cli._flag(command.mode), line
                shown.add(command.mode)
            run = command.runs[mode[1] if mode else None]
            rows.add((name, mode[1] if mode else None))
            for item in flags_cell.split(", "):
                dests = [flag.replace("-", "_") for flag in re.findall(r"--([a-z0-9-]+)", item)]
                shown.update(dests)
                if item.startswith("**"):
                    required.add(frozenset(dests))
                if default := re.search(r"\((.*)\)", item):
                    defaults[dests[0]] = default[1]
            assert shown == set(run.reads), line
            assert required == {frozenset(group if isinstance(group, tuple) else (group,))
                                for group in run.requires}, line
            assert defaults.keys() == run.defaults.keys(), line
            assert all(type(value)(defaults[dest]) == value
                       for dest, value in run.defaults.items()), line
        assert len(rows) == len(table)
        assert rows == {(name, mode) for name, command in cli._COMMANDS.items()
                        for mode in command.runs}

    @pytest.mark.parametrize("given", ["command-line", "config"])
    @pytest.mark.parametrize("case", sorted(MODE_UNREAD))
    def test_flag_the_mode_does_not_read_is_usage_error(self, case, given, tmp_path, capsys):
        argv, flag, value, message = MODE_UNREAD[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: value} if given == "config" else {}))
        extra = (flag, str(value)) if given == "command-line" else ()
        out = tmp_path / "out.csv"
        assert run("--config", str(cfg), *argv, *extra, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert message in captured.err

    @pytest.mark.parametrize(
        "config, argv",
        [({}, ("--param", "0.3", "--grid", "0.1:0.5:3")),
         ({"grid": "0.1:0.5:3"}, ("--param", "0.3")),
         ({"param": 0.3}, ("--grid", "0.1:0.5:3"))],
        ids=["command-line", "grid-from-config", "param-from-config"],
    )
    def test_param_with_grid_is_usage_error(self, config, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run("--config", str(cfg), "capacity", "--channel", "bec", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "give --param or --grid, not both" in captured.err

    @pytest.mark.parametrize("argv", [
        ("threshold", "--channel", "bec", "--ensemble", "3,6"),
        _SIM_BEC,
    ], ids=["threshold", "simulate"])
    def test_code_with_ensemble_is_usage_error(self, argv, tmp_path, capsys):
        # the file does not exist: neither subcommand may get as far as opening it
        assert run(*argv, "--code", str(tmp_path / "missing.alist")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "give --code or --ensemble, not both" in captured.err

    def test_r1_with_ensemble_is_usage_error(self, capsys):
        assert run("region", "--param", "0.32", "--r1", "0.3", "--ensemble", "4,6") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "give --r1 or --ensemble, not both" in captured.err

    def test_json_without_path_or_out_fails_before_any_report(self, capsys):
        assert run("capacity", "--channel", "bec", "--param", "0.3", "--json") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--json without a path requires --out" in captured.err
