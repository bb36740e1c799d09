import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
_SPEC = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_summary)


def write_result(directory, workload, seed, trials_per_s, digest, commit, trace=0):
    directory.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "provenance": {"backend": "numpy", "python": "3.11.7", "nproc": 2,
                       "seed": seed, "commit": commit},
        "end_to_end": {"trials_per_s": trials_per_s, "ok_ratio": 1.0},
        "result_digest": digest,
    }
    path = directory / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))


@pytest.fixture
def dirs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, rate in zip((1, 2, 3, 4), (10.0, 20.0, 30.0, 40.0)):
        write_result(parent, "hot", seed, rate, f"d{seed}", "aaa")
        write_result(change, "hot", seed, 2 * rate, f"d{seed}" if seed != 3 else "x", "bbb")
    write_result(parent, "hot", 5, 99.0, "d5", "aaa")  # no partner seed
    write_result(change, "hot", 1, 1e9, "d1", "bbb", trace=1)  # traced, ignored
    write_result(change, "cold", 1, 1.0, "c", "bbb")  # no parent run
    return parent, change


def test_summary_pairs_seeds_and_keeps_provenance(dirs, tmp_path):
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(dirs[0]), str(dirs[1]), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert list(summary["workloads"]) == ["hot"]
    hot = summary["workloads"]["hot"]
    assert hot["seeds"] == [1, 2, 3, 4]
    assert hot["digests_equal"] == {"1": True, "2": True, "3": False, "4": True}
    rate = hot["end_to_end"]["trials_per_s"]
    assert rate["parent"] == {"median": 25.0, "q1": 17.5, "q3": 32.5, "iqr": 15.0}
    assert rate["change"] == {"median": 50.0, "q1": 35.0, "q3": 65.0, "iqr": 30.0}
    assert hot["end_to_end"]["ok_ratio"]["change"]["iqr"] == 0.0
    assert rate["pairs_won"] == 4 and hot["end_to_end"]["ok_ratio"]["pairs_won"] == 0
    assert summary["provenance"]["parent"] == {
        "backend": "numpy", "python": "3.11.7", "nproc": 2, "commit": "aaa"}
    assert summary["provenance"]["change"]["commit"] == "bbb"


def test_single_seed_and_mixed_provenance(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    write_result(parent, "hot", 7, 3.0, "d", "aaa")
    write_result(change, "hot", 7, 4.0, "d", "bbb")
    write_result(change, "warm", 7, 4.0, "d", "ccc")
    write_result(parent, "warm", 7, 4.0, "d", "aaa")
    summary = bench_summary.summarize(parent, change)
    assert summary["workloads"]["hot"]["end_to_end"]["trials_per_s"]["parent"]["iqr"] == 0.0
    assert summary["provenance"]["change"]["commit"] == ["bbb", "ccc"]


def test_no_common_seed_is_an_error(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    write_result(parent, "hot", 1, 3.0, "d", "aaa")
    write_result(change, "hot", 2, 3.0, "d", "bbb")
    assert bench_summary.main([str(parent), str(change), "--out", str(tmp_path / "o")]) == 1


def test_verdicts_follow_benchmark_json(dirs):
    # trials_per_s is "higher is better" with a 25% bound; the parent's runs
    # (10..40) spread 60% of their median and overlap the change's (20..80)
    hot = bench_summary.summarize(*dirs)["workloads"]["hot"]["end_to_end"]
    assert hot["trials_per_s"]["worse_than_bound"] is False
    assert hot["trials_per_s"]["unresolved"] is True
    assert (hot["ok_ratio"]["worse_than_bound"], hot["ok_ratio"]["unresolved"]) == (False, False)


@pytest.mark.parametrize("better, parent, change, won", [
    ("higher", [10, 11, 12, 13], [11, 11, 13, 12], 2),  # a tie counts for neither side
    ("lower", [10, 11, 12, 13], [11, 11, 13, 12], 1),
    ("lower", [10, 11, 12, 13], [1, 2, 3, 4], 4),
    ("higher", [5.0], [5.0], 0),
])
def test_pairs_won_compares_runs_at_the_same_seed(better, parent, change, won):
    assert bench_summary.verdict(parent, change, better, 0.25)["pairs_won"] == won


@pytest.mark.parametrize("better, parent, change, expected", [
    ("lower", [10, 10, 10, 10], [12, 12, 13, 13], (False, False)),  # 25% worse is the bound
    ("lower", [10, 10, 10, 10], [13, 13, 13, 13], (True, False)),
    ("higher", [10, 10, 10, 10], [7, 7, 7, 7], (True, False)),
    ("higher", [10, 10, 10, 10], [13, 13, 13, 13], (False, False)),
    ("lower", [6, 8, 12, 14], [15, 16, 16, 17], (True, True)),  # parent IQR/median 0.5
    ("lower", [6, 8, 12, 14], [2, 3, 4, 5], (False, False)),  # every change run beats
])
def test_verdict(better, parent, change, expected):
    result = bench_summary.verdict(parent, change, better, 0.25)
    assert (result["worse_than_bound"], result["unresolved"]) == expected


_TEN = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # median 14.5, interquartile range 4.5


@pytest.mark.parametrize("better, change, won, gain", [
    # 9 of 10 pairs won, the tenth a tie; median 19.5, 5 above the parent's
    ("higher", [v + 6 for v in _TEN[:9]] + [19.0], 9, True),
    # 8 of 10 won (two ties), though the median is 8 above
    ("higher", [v + 10 for v in _TEN[:8]] + [18.0, 19.0], 8, False),
    # every pair won, but the gap equals the interquartile range, then falls below it
    ("higher", [v + 4.5 for v in _TEN], 10, False),
    ("higher", [v + 4 for v in _TEN], 10, False),
    # lower is better: 9 of 10 won, the tenth lost; median 9.5, 5 below
    ("lower", [v - 5 for v in _TEN[:9]] + [20.0], 9, True),
    ("lower", [v + 6 for v in _TEN], 0, False),
])
def test_gain_is_nine_tenths_of_the_pairs_and_a_gap_above_the_iqr(better, change, won, gain):
    result = bench_summary.verdict(_TEN, change, better, 0.25)
    assert (result["pairs_won"], result["gain"]) == (won, gain)
    assert isinstance(result["gain"], bool)


def test_no_gain_at_one_tied_seed():
    assert bench_summary.verdict([5.0], [5.0], "higher", 0.25)["gain"] is False
