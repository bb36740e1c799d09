"""Golden CLI reports: every subcommand's whole CSV, byte for byte.

Each case runs one fixed command line through ``cli.main`` and compares the
report, ``#`` configuration echo included, with the file of the same name
under ``tests/data/golden``.  A refactor that moves any number, column,
flag default or config hash fails here, which a rerun of one version
(criterion 11) cannot see.

Regenerate the files only for an intended change of output, and say why in
the commit:  ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from wiretapcodes import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

_SIM = ("simulate", "--ensemble", "3,6", "--n", "200", "--seed", "42")

CASES = {
    "capacity-bec": ("capacity", "--channel", "bec", "--grid", "0:1:11"),
    "capacity-bsc": ("capacity", "--channel", "bsc", "--grid", "0:0.5:11"),
    "capacity-biawgn": ("capacity", "--channel", "biawgn", "--grid", "0:2:11"),
    "threshold-bec-regular": ("threshold", "--channel", "bec", "--ensemble", "3,6"),
    "threshold-bec-irregular": (
        "threshold", "--channel", "bec", "--ensemble", "lambda=2:0.4,3:0.6;rho=6:1.0",
        "--delta-star", "0.45",
    ),
    "threshold-biawgn": (
        "threshold", "--channel", "biawgn", "--ensemble", "3,6", "--n", "120",
        "--grid", "0.2,0.6,1.2,2.5", "--trials", "100", "--target-wer", "0.3",
        "--seed", "7",
    ),
    "simulate-bec-exact": (
        *_SIM, "--estimator", "bec-exact", "--grid", "0.3:0.8:6", "--trials", "40",
        "--delta-star", "0.5",
    ),
    "simulate-approach2-awgn": (
        *_SIM, "--estimator", "approach2-awgn", "--grid", "0.05,0.15,0.3,0.465,0.8",
        "--trials", "40", "--delta-star", "0.665",
    ),
    "simulate-approach2-bsc": (
        *_SIM, "--estimator", "approach2-bsc", "--grid", "0.1:0.5:5", "--trials", "40",
        "--delta-star", "0.665",
    ),
    "simulate-approach1": (
        *_SIM, "--estimator", "approach1", "--grid", "0.3,1.0,3.0", "--trials", "10",
        "--max-bp-iters", "50", "--lambda-star", "0.9", "--delta-star", "0.5",
    ),
    "region": ("region", "--param", "0.32", "--r1", "0.3333333333"),
    "compare-bsc": ("compare-bsc",),
}


def _report(argv, out: Path) -> bytes:
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.csv").read_bytes()
    assert _report(CASES[name], tmp_path / "out.csv") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        _report(argv, GOLDEN / f"{name}.csv")
        print(f"wrote {GOLDEN / name}.csv")
