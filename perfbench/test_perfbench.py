"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import calibrate  # noqa: E402
import gf2oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import wiretapcodes  # noqa: E402
from wiretapcodes import bitlinalg, codes, secrecy  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond():
    value, pct = run.tail_percentile(list(range(100, 0, -1)))
    assert value == 90 and pct == 90.0  # 91..100 lie beyond
    value, pct = run.tail_percentile([5.0] * 3 + list(range(8)))  # 11 samples
    assert value == 0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))


def test_self_time_subtracts_direct_children_only():
    nested = [
        spans.Span("bitlinalg.nullspace_basis", 0, -1, 0.0, 10.0),
        spans.Span("bitlinalg.rref", 0, 0, 1.0, 6.0),
        spans.Span("kernels.rank_words", 0, 1, 2.0, 3.0),
        spans.Span("bitlinalg.transpose", 0, 0, 7.0, 8.5),
    ]
    assert spans.self_times(nested) == [3.5, 4.0, 1.0, 1.5]
    assert sum(spans.self_times(nested)) == nested[0].duration


def test_traced_nullspace_basis_nests_rref():
    tracer = spans.Tracer()
    m = bitlinalg.BitMatrix.from_dense(np.random.default_rng(0).integers(0, 2, (6, 20)))
    with spans.patched(tracer):
        tracer.op = 7
        bitlinalg.nullspace_basis(m)
    outer, inner = tracer.spans
    assert (outer.name, inner.name, inner.parent, inner.op) == (
        "bitlinalg.nullspace_basis", "bitlinalg.rref", 0, 7)
    selfs = spans.self_times(tracer.spans)
    assert selfs[0] == pytest.approx(outer.duration - inner.duration)
    assert sum(selfs) == pytest.approx(outer.duration)


def test_per_layer_metrics_split_setup_and_timed_operations():
    layer = spans.per_layer_metrics([
        spans.Span("bitlinalg.rref", "setup-0", -1, 0.0, 2.0),
        spans.Span("bitlinalg.rref", "setup-1", -1, 2.0, 6.0),
        spans.Span("kernels.rank_words", "setup-0", -1, 6.0, 7.0, {"rows": 1, "words": 1, "rank": 1}),
        spans.Span("kernels.rank_words", 0, -1, 7.0, 8.0, {"rows": 10, "words": 2, "rank": 5}),
        spans.Span("kernels.rank_words", 0, -1, 8.0, 9.0, {"rows": 30, "words": 2, "rank": 15}),
        spans.Span("kernels.rank_words", 1, -1, 9.0, 9.5, {"rows": 20, "words": 2, "rank": 20}),
    ])
    assert layer["bitlinalg.rref.self_s"] == 3.0  # per set-up
    assert layer["kernels.rank_words.calls"] == 1.5  # per timed op; warm-up excluded
    assert layer["kernels.rank_words.self_s"] == 1.25
    assert layer["kernels.rank_words.rows_mean"] == 20.0
    assert layer["kernels.rank_words.pivot_ratio"] == 40 / 60
    assert layer["kernels.rank_words.bytes_computed"] == 60 * 2 * 8 / 2


def test_gf2_oracle_matches_package_rank():
    rng = np.random.default_rng(1)
    for _ in range(300):
        rows, cols = rng.integers(1, 24), rng.integers(1, 150)
        dense = (rng.random((rows, cols)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
        if rng.random() < 0.3:  # force dependent rows
            dense[-1] = dense[0] ^ dense[rows // 2]
        expected = bitlinalg.rank(bitlinalg.BitMatrix.from_dense(dense))
        assert gf2oracle.gf2_rank(gf2oracle.row_ints(dense)) == expected
        assert gf2oracle.gf2_rank(gf2oracle.column_ints(dense)) == expected


def test_gf2_oracle_matches_erasure_rank():
    pair = codes.nested_pair_from_coarse(codes.dual(codes.regular_ldpc(120, 3, 6, seed=4)))
    columns = gf2oracle.column_ints(pair.h1.to_dense())
    rng = np.random.default_rng(2)
    for eps in (0.2, 0.5, 0.8):
        erased = np.nonzero(rng.random(pair.n) < eps)[0]
        assert secrecy.exact_equivocation_bec(pair, erased) == gf2oracle.gf2_rank(
            columns[j] for j in erased)


@pytest.mark.parametrize("kernel", sorted(calibrate.KERNELS))
def test_calibration_scales_by_median_of_neighbouring_samples(kernel):
    cal = calibrate.Calibration(kernel)
    assert cal.sample() > 0  # a kernel whose output changed would raise
    ref = calibrate.REFERENCE_S[kernel]
    times, samples = [1.0, 1.0, 1.0, 1.0], [ref, 2 * ref, 2 * ref, 4 * ref]
    assert cal.to_reference(times, samples, 0) == pytest.approx([1, 0.5, 0.5, 0.25])
    # medians of samples[j-1 : j+2]: 1.5, 2, 2 and 3 times the reference
    assert cal.to_reference(times, samples, 1) == pytest.approx([1 / 1.5, 0.5, 0.5, 1 / 3])


def _package_state():
    state = {}
    for mod in spans._package_modules():
        state[mod.__name__] = dict(vars(mod))
    for cls in (bitlinalg.BitMatrix, codes.LinearCode):
        state[cls.__qualname__] = dict(vars(cls))
    return state


@pytest.mark.parametrize("fail", [False, True])
def test_patched_restores_every_attribute(fail):
    before = _package_state()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError) if fail else nullcontext():
        with spans.patched(tracer):
            during = _package_state()
            for module in ("secrecy", "bitlinalg", "_kernels"):
                key = f"wiretapcodes.{module}"
                assert during[key]["rank_words"] is not before[key]["rank_words"]
            assert during["BitMatrix"]["transpose"] is not before["BitMatrix"]["transpose"]
            if fail:
                raise RuntimeError("operation failed")
    after = _package_state()
    assert after.keys() == before.keys()
    for key in before:
        assert after[key].keys() == before[key].keys()
        for attr, value in before[key].items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"


def test_predictions_and_benchmark_json_name_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    predicted = run.load_predictions()
    layer_metrics = [name for name, _ in run.PER_LAYER if not name.startswith("trace.")]
    assert sorted(predicted) == sorted(layer_metrics)
