"""The benchmark's workloads.

Each workload is one closed loop in one process: the next operation starts
when the previous one returns, and no pools or threads are used.  Every
Monte Carlo stream comes from the workload seed: operation ``i`` draws from
``default_rng([seed, 1, i])``, so an operation's output does not depend on
how many operations a run manages.  Every run completes at least
``min_ops`` operations; their outputs give the digest that two commits can
compare at one seed.

A workload provides:

* ``setup()``: everything before the first timed operation;
* ``op(i)``: one operation, returning ``(trials, output)``;
* ``check(i, output)``: the per-operation output check;
* ``finish(outputs)``: run-level checks, made outside the timed region,
  returning ``(problems, extra)``; ``extra`` joins the digest;
* ``calibration``: the reference kernel of ``calibrate.py`` whose work is
  most like the timed operations'.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from wiretapcodes import bitlinalg, capacity, cli, codes, secrecy, thresholds

import gf2oracle


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1, i])


def warm_up() -> None:
    """Compile the rank kernel (a no-op on the numpy backend)."""
    bitlinalg.rank(bitlinalg.BitMatrix.identity(3))


class BecHot:
    """Criterion 7's hot leg: exact-rank Monte Carlo at eps = 0.60."""

    name = "bec-hot"
    trials_per_op = 4  # one trial = one erasure-pattern rank
    calibration = "gf2"  # reference kernel, see calibrate.py
    setup_reps = 5
    cycle = 1
    min_ops = 16
    erasure_prob = 0.60
    # (erasure probability, patterns) checked against the integer-bitset
    # oracle; the lower rates give rank-deficient patterns.
    oracle_patterns = ((0.60, 4), (0.45, 2), (0.30, 2))

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.pair = None

    def setup(self) -> None:
        warm_up()
        code = codes.regular_ldpc(2000, 3, 6, seed=101)
        self.pair = codes.nested_pair_from_coarse(codes.dual(code))

    def op(self, i: int):
        est = secrecy.mc_equivocation_bec(
            self.pair, self.erasure_prob, self.trials_per_op, op_rng(self.seed, i)
        )
        return est.trials, [est.value, est.half_width]

    def check(self, i: int, output) -> bool:
        return output[0] >= 0.49  # criterion 7's bound on the hot leg

    def finish(self, outputs):
        problems = []
        columns = gf2oracle.column_ints(self.pair.h1.to_dense())
        rng = np.random.default_rng([self.seed, 2])
        ranks = []
        for eps, count in self.oracle_patterns:
            for _ in range(count):
                erased = np.nonzero(rng.random(self.pair.n) < eps)[0]
                got = secrecy.exact_equivocation_bec(self.pair, erased)
                want = gf2oracle.gf2_rank(columns[j] for j in erased)
                ranks.append(got)
                if got != want:
                    problems.append(
                        f"exact_equivocation_bec gave rank {got}, oracle {want} "
                        f"({erased.size} erasures at eps={eps})"
                    )
        return problems, {"oracle_ranks": ranks}


def csv_body(text: str) -> str:
    """The report without its ``#`` config echo."""
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))


class CliAwgnSweep:
    """What users run: ``wiretapcodes simulate`` over an AWGN SNR grid."""

    name = "cli-awgn-sweep"
    grid_points = 8
    trials = 4  # per grid point; one trial = one erasure-pattern rank
    trials_per_op = grid_points * trials
    calibration = "gf2"  # reference kernel, see calibrate.py
    setup_reps = 3
    cycle = 1
    min_ops = 11  # the tail percentile needs 10 operations beyond it

    def __init__(self, seed: int, workdir):
        self.out = workdir / f"cli-awgn-sweep-{seed}.csv"
        self.argv = [
            "simulate", "--estimator", "approach2-awgn", "--ensemble", "3,6",
            "--n", "2000", "--grid", f"0.1:0.8:{self.grid_points}",
            "--trials", str(self.trials), "--seed", str(seed), "--out", str(self.out),
        ]
        self.references = []

    def _invoke(self):
        rc = cli.main(self.argv)
        body = csv_body(self.out.read_text(encoding="ascii")) if rc == 0 else ""
        return [rc, body]

    def setup(self) -> None:
        # The reference invocation: the body every timed invocation must match.
        warm_up()
        self.references.append(self._invoke())

    def op(self, i: int):
        output = self._invoke()
        return (self.trials_per_op if output[0] == 0 else 0), output

    def check(self, i: int, output) -> bool:
        return output == self.references[-1]

    def finish(self, outputs):
        problems = []
        rc, body = self.references[-1]
        if rc != 0:
            problems.append(f"reference invocation exited with {rc}")
        if any(ref != self.references[-1] for ref in self.references):
            problems.append("set-up invocations wrote different CSV bodies")
        rows = list(csv.DictReader(io.StringIO(body)))
        if len(rows) != self.grid_points:
            problems.append(f"expected {self.grid_points} CSV rows, got {len(rows)}")
        points = sorted((float(r["param"]), float(r["estimate"])) for r in rows)
        for (snr_a, est_a), (snr_b, est_b) in zip(points, points[1:]):
            if est_b > est_a:
                problems.append(f"estimate rises from {est_a} at snr {snr_a} to {est_b} at {snr_b}")
        return problems, {}


class FanoAwgn:
    """Criterion 10: BP threshold scan and Fano bound on a (4,6) code, n = 10002."""

    name = "fano-awgn"
    trials_per_op = 2  # one trial = one BP decode
    calibration = "bp"  # reference kernel, see calibrate.py
    setup_reps = 3
    n = 10_002
    wer_iters = 100
    a1_iters = 200
    a1_snr = 0.52 * 10 ** 0.05  # 0.5 dB above the scan's threshold estimate
    # approach1 appears three times per cycle, so that the median operation
    # falls inside one kind of operation rather than between two.
    CYCLE = (
        ("wer", 0.44), ("a1", a1_snr), ("wer", 0.48), ("a1", a1_snr),
        ("wer", 0.52), ("a1", a1_snr), ("wer", 0.56), ("wer", 0.60),
    )
    cycle = len(CYCLE)
    # 17 cycles pool >= 100 approach1 decodes, so p_hat <= 0.01 tolerates one error.
    min_ops = 17 * cycle

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.code = self.pair = None

    def setup(self) -> None:
        warm_up()
        self.code = self.pair = None  # free the previous set-up's matrices first
        code = codes.regular_ldpc(self.n, 4, 6, seed=8)
        pair = codes.nested_pair_from_coarse(code)
        code.edge_lists()  # the decoders' edge cache
        self.code, self.pair = code, pair

    def op(self, i: int):
        kind, snr = self.CYCLE[i % self.cycle]
        rng = op_rng(self.seed, i)
        if kind == "wer":
            errors, trials = thresholds.bp_word_error_rate(
                self.code, snr, self.trials_per_op, rng, self.wer_iters
            )
            return trials, [kind, snr, errors, trials]
        est = secrecy.approach1_equivocation_bound(
            self.pair, snr, self.trials_per_op, self.a1_iters, rng
        )
        errors = round(est.detail["word_error_rate"] * est.trials)
        return est.trials, [kind, snr, errors, est.trials, est.value]

    def check(self, i: int, output) -> bool:
        errors, trials = output[2], output[3]
        return trials == self.trials_per_op and 0 <= errors <= trials

    def finish(self, outputs):
        problems = []
        pooled: dict[tuple, list[int]] = {}
        for out in outputs:
            if out is not None:
                counts = pooled.setdefault((out[0], out[1]), [0, 0])
                counts[0] += out[2]
                counts[1] += out[3]

        errors, trials = pooled.get(("wer", 0.44), (0, 0))
        if not trials or errors / trials < 0.5:
            problems.append(f"WER at snr 0.44 is {errors}/{trials}, expected >= 0.5")
        errors, trials = pooled.get(("wer", 0.60), (0, 0))
        if not trials or errors:
            problems.append(f"WER at snr 0.60 is {errors}/{trials}, expected 0")

        r1 = self.pair.coarse.rate
        ceiling = 1.0 - capacity.c_biawgn(self.a1_snr)
        for out in outputs:
            if out is not None and out[0] == "a1":
                expected = max(0.0, ceiling - 1.0 / self.n - out[2] / out[3] * r1)
                if abs(out[4] - expected) > 1e-12:
                    problems.append(f"approach1 bound {out[4]} != Fano formula {expected}")
                    break

        # Criterion 10 on the pooled approach1 counts.
        errors, trials = pooled.get(("a1", self.a1_snr), (0, 0))
        if not trials:
            problems.append("no approach1 operation completed")
            return problems, {}
        p_hat = errors / trials
        lo, hi = thresholds.wilson_interval(errors, trials)
        bound = max(0.0, ceiling - 1.0 / self.n - p_hat * r1)
        floor = ceiling - 1.0 / self.n - 0.01 / 3.0 - (hi - lo) / 2.0 * r1
        if p_hat > 0.01:
            problems.append(f"approach1 WER {errors}/{trials} exceeds 0.01")
        if not floor <= bound <= ceiling:
            problems.append(f"Fano bound {bound} outside [{floor}, {ceiling}]")
        return problems, {}


WORKLOADS = {w.name: w for w in (BecHot, CliAwgnSweep, FanoAwgn)}
