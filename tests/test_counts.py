"""Every count parameter of the public functions, in one table.

A count (trials, rounds, degrees, a block length) must be an ``int`` or a
numpy integer, not a ``bool`` or a float, and at least its least value;
anything else is a ``ValueError`` naming the count, raised before the
generator is drawn from.
"""

import re

import numpy as np
import pytest

from wiretapcodes import codes, decoders, secrecy, thresholds
from wiretapcodes.bitlinalg import BitMatrix
from wiretapcodes.channels import BEC
from wiretapcodes.codes import DegreeDistribution

CODE = codes.regular_ldpc(60, 3, 6, seed=1)
PAIR = codes.nested_pair_from_coarse(CODE)
BEC_PAIR = codes.nested_pair_from_coarse(codes.dual(CODE))

# (function, count, least, a valid value, call(value, rng))
COUNTS = [
    ("wilson_interval", "successes", 0, 3, lambda v, rng: thresholds.wilson_interval(v, 10)),
    ("wilson_interval", "trials", 1, 10, lambda v, rng: thresholds.wilson_interval(1, v)),
    ("bp_word_error_rate", "trials", 1, 2,
     lambda v, rng: thresholds.bp_word_error_rate(CODE, 1.0, v, rng, 5)),
    ("bp_word_error_rate", "max_iters", 0, 5,
     lambda v, rng: thresholds.bp_word_error_rate(CODE, 1.0, 2, rng, v)),
    ("empirical_bp_threshold_awgn", "trials", 100, 100,
     lambda v, rng: thresholds.empirical_bp_threshold_awgn(CODE, [3.0], v, 0.1, rng, 5)),
    ("empirical_bp_threshold_awgn", "max_iters", 0, 5,
     lambda v, rng: thresholds.empirical_bp_threshold_awgn(CODE, [3.0], 100, 0.1, rng, v)),
    ("mc_equivocation_bec", "trials", 1, 3,
     lambda v, rng: secrecy.mc_equivocation_bec(BEC_PAIR, 0.5, v, rng)),
    ("equivocation_lb", "trials", 1, 3,
     lambda v, rng: secrecy.equivocation_lb(BEC_PAIR, BEC(0.5), v, rng)),
    ("approach1_equivocation_bound", "trials", 1, 2,
     lambda v, rng: secrecy.approach1_equivocation_bound(PAIR, 1.0, v, 5, rng)),
    ("approach1_equivocation_bound", "max_bp_iters", 0, 5,
     lambda v, rng: secrecy.approach1_equivocation_bound(PAIR, 1.0, 2, v, rng)),
    ("bp_decode_awgn", "max_iters", 0, 5,
     lambda v, rng: decoders.bp_decode_awgn(CODE, np.linspace(-1.0, 3.0, CODE.n), v)),
    ("regular_ldpc", "n", 0, 60, lambda v, rng: codes.regular_ldpc(v, 3, 6, seed=1)),
    ("regular_ldpc", "dv", 1, 3, lambda v, rng: codes.regular_ldpc(60, v, 6, seed=1)),
    ("regular_ldpc", "dc", 1, 6, lambda v, rng: codes.regular_ldpc(60, 3, v, seed=1)),
    ("DegreeDistribution.regular", "dv", 1, 3, lambda v, rng: DegreeDistribution.regular(v, 6)),
    ("DegreeDistribution.regular", "dc", 1, 6, lambda v, rng: DegreeDistribution.regular(3, v)),
    ("BitMatrix", "rows", 0, 2,
     lambda v, rng: BitMatrix(v, 3, np.zeros((2, 1), dtype=np.uint64))),
    ("BitMatrix", "cols", 0, 3,
     lambda v, rng: BitMatrix(2, v, np.zeros((2, 1), dtype=np.uint64))),
    ("BitMatrix.identity", "n", 0, 3, lambda v, rng: BitMatrix.identity(v)),
]
IDS = [f"{func}-{count}" for func, count, *_ in COUNTS]


@pytest.mark.parametrize("entry", COUNTS, ids=IDS)
@pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "3", None, "least - 1"])
def test_rejects_a_non_count(entry, bad):
    _, count, least, _, call = entry
    value = least - 1 if bad == "least - 1" else bad
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(f"{count} must be an integer >= {least}")):
        call(value, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("entry", COUNTS, ids=IDS)
def test_numpy_integers_count_like_ints(entry):
    *_, valid, call = entry
    got = call(np.int64(valid), np.random.default_rng(1))
    assert repr(got) == repr(call(valid, np.random.default_rng(1)))
