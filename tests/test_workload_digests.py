"""Every benchmark workload's seed-1 ``result_digest``, pinned.

Each workload of ``perfbench/workloads.py`` is built at seed 1, runs its
first ``min_ops`` operations untimed and its run-level ``finish`` checks,
and the digest of those outputs must equal the recorded one.  A change that
moves any number a workload computes has to update its pin here, in the
same diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS  # noqa: E402

SEED = 1
DIGESTS = {
    "bec-hot": "aa281634e05ff0d13d9148e46fddf5b2f204907a1580946869049b1d914c3b5c",
    "cli-awgn-sweep": "8c216c28e56c1f5648d7f9ab5a1f7f817d4dafcf7eaec9d065dea3f52c3f07fe",
    "fano-awgn": "5e7ac552293e41822fd5d4d8524140457bff0c73fb44549083513901ba2044a1",
}


def test_every_workload_is_pinned():
    assert sorted(DIGESTS) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_result_digest(name, tmp_path):
    wl = WORKLOADS[name](SEED, tmp_path)
    wl.setup()
    outputs = []
    for i in range(wl.min_ops):
        _, output = wl.op(i)
        assert wl.check(i, output), f"operation {i} failed its check: {output!r}"
        outputs.append(output)
    problems, extra = wl.finish(outputs)
    assert problems == []
    # The digest formula of perfbench/run.py, run_workload().
    digest = hashlib.sha256(
        json.dumps({"ops": outputs, **extra}, sort_keys=True).encode()
    ).hexdigest()
    assert digest == DIGESTS[name]
