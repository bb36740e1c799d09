"""Benchmark for the wiretapcodes package.

Run from the repository root; the package is imported from ``./src``:

    python3 perfbench/run.py --workload bec-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the traced run: the first half of the timed phase runs
untraced, the second half with every layer function of ``spans.TARGETS``
wrapped, and it reports the per-layer metrics plus the tracing overhead
(traced versus untraced trials per second).  Every timing of the
end-to-end metrics is scaled to a reference host speed by a calibration
kernel run between operations (see ``calibrate.py``); the raw wall times
are printed and recorded beside them.  Both modes run every output check;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is
1 when a check failed.  Provenance, the result digest and, for a traced run,
every span go to ``.perfbench/result-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("bec-hot", "cli-awgn-sweep", "fano-awgn")
TAIL_BEYOND = 10
SETUP_CALIBRATIONS = 3  # calibration samples after each set-up

END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# Per-layer metrics of the traced run: calls and self time read per set-up for
# construction functions and per timed operation for the rest (see
# spans.per_layer_metrics).
PER_LAYER = (
    ("kernels.rank_words.calls", "calls/op"),
    ("kernels.rank_words.self_s", "s/op"),
    ("kernels.rank_words.rows_mean", "rows"),
    ("kernels.rank_words.pivot_ratio", "ratio"),
    ("kernels.rank_words.bytes_computed", "B/op"),
    ("bitlinalg.rref.self_s", "s/op"),
    ("bitlinalg.nullspace_basis.self_s", "s/op"),
    ("bitlinalg.right_inverse.self_s", "s/op"),
    ("bitlinalg.transpose.self_s", "s/op"),
    ("bitlinalg.mat_vec.calls", "calls/op"),
    ("bitlinalg.mat_vec.self_s", "s/op"),
    ("bitlinalg.vec_mat.self_s", "s/op"),
    ("codes.regular_ldpc.self_s", "s/op"),
    ("codes.nested_pair_from_coarse.self_s", "s/op"),
    ("codes.edge_lists.self_s", "s/op"),
    ("decoders.bp_decode_awgn.calls", "calls/op"),
    ("decoders.bp_decode_awgn.self_s", "s/op"),
    ("decoders.bp_decode_awgn.ok_ratio", "ratio"),
    ("decoders.bp_decode_awgn.ok_p50_ms", "ms"),
    ("decoders.bp_decode_awgn.fail_p50_ms", "ms"),
    ("channels.biawgn_transmit.self_s", "s/op"),
    ("channels.awgn_llr.self_s", "s/op"),
    ("thresholds.bec_bp_threshold.self_s", "s/op"),
    ("thresholds.de_residual.calls", "calls/op"),
    ("thresholds.bp_word_error_rate.self_s", "s/op"),
    ("secrecy.mc_equivocation_bec.self_s", "s/op"),
    ("secrecy.encode.self_s", "s/op"),
    ("secrecy.approach1_equivocation_bound.self_s", "s/op"),
    ("capacity.c_biawgn.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("trace.trials_per_s_untraced", "1/s"),
    ("trace.trials_per_s_traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def tail_percentile(latencies) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"{len(ordered)} samples cannot leave {TAIL_BEYOND} beyond a percentile")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timings(setups, latencies, trials) -> dict:
    """The end-to-end timing metrics of a run's set-up and operation times."""
    return {
        "setup_s": statistics.median(setups),
        "trials_per_s": trials / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_percentile(latencies)[0] * 1e3,
    }


@dataclass
class Phase:
    trials: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # calibration, one after each op
    outputs: list = field(default_factory=list)
    ops: list = field(default_factory=list)


def closed_loop(workload, seconds: float, start: int, min_ops: int, calibration,
                tracer=None) -> Phase:
    """Run operations back to back from index ``start`` until ``seconds``
    have passed, at least ``min_ops`` ran, and the last cycle is whole.
    A calibration sample follows each operation, outside its timing."""
    phase = Phase()
    i = start
    t0 = perf_counter()
    while i - start < min_ops or (i - start) % workload.cycle or perf_counter() - t0 < seconds:
        if tracer is not None:
            tracer.op = i
        began = perf_counter()
        try:
            trials, output = workload.op(i)
        except Exception:  # an operation that raises counts as failed
            phase.latencies.append(perf_counter() - began)
            if not phase.failed:
                traceback.print_exc()
            phase.failed += 1
            output = None
        else:
            phase.latencies.append(perf_counter() - began)
            if workload.check(i, output):
                phase.trials += trials
            else:
                phase.failed += 1
        phase.outputs.append(output)
        phase.ops.append(i)
        phase.samples.append(calibration.sample())
        i += 1
    return phase


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, root: Path) -> dict:
    import numpy
    import scipy
    from wiretapcodes import _kernels

    numpy_backend = _kernels.rank_words is _kernels._rank_words_numpy
    return {
        "backend": "numpy" if numpy_backend else "numba",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(root),
    }


def load_predictions() -> dict:
    with open(HERE / "predictions.json", encoding="ascii") as fh:
        return json.load(fh)["per_layer"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    import spans
    from calibrate import Calibration
    from workloads import WORKLOADS

    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    prov = provenance(seed, root)
    print(
        f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)} | "
        + " ".join(f"{k} {v}" for k, v in prov.items() if k != "seed")
    )
    if prov["backend"] == "numpy":
        print(
            "WARNING: GF(2) rank backend is the numpy fallback (numba not importable "
            "or WIRETAPCODES_NO_NUMBA set); rank-bound workloads run several times slower"
        )

    wl = WORKLOADS[name](seed, workdir)
    cal = Calibration(wl.calibration)
    tracer = spans.Tracer() if trace else None
    setups, setup_samples = [], []
    with spans.patched(tracer) if trace else nullcontext():
        for k in range(wl.setup_reps):
            if tracer is not None:
                tracer.op = f"setup-{k}"
            began = perf_counter()
            wl.setup()
            setups.append(perf_counter() - began)
            setup_samples.append(
                statistics.median(cal.sample() for _ in range(SETUP_CALIBRATIONS))
            )
    if trace:
        # Untraced first half, traced second half, continuing the op indices.
        phases = [closed_loop(wl, seconds / 2, 0, wl.min_ops, cal)]
        with spans.patched(tracer):
            phases.append(
                closed_loop(wl, seconds / 2, len(phases[0].ops), wl.cycle, cal, tracer)
            )
    else:
        phases = [closed_loop(wl, seconds, 0, wl.min_ops, cal)]

    outputs = [out for ph in phases for out in ph.outputs]
    problems, extra = wl.finish(outputs)
    attempted = sum(len(ph.ops) for ph in phases)
    failed = attempted if problems else sum(ph.failed for ph in phases)
    digest = hashlib.sha256(
        json.dumps({"ops": outputs[: wl.min_ops], **extra}, sort_keys=True).encode()
    ).hexdigest()

    latencies = [x for ph in phases for x in ph.latencies]
    samples = [x for ph in phases for x in ph.samples]
    trials = sum(ph.trials for ph in phases)
    raw = timings(setups, latencies, trials)
    scaled_latencies = cal.to_reference(latencies, samples)
    scaled = timings(
        cal.to_reference(setups, setup_samples, neighbours=0), scaled_latencies, trials
    )
    e2e = {
        **scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    op_time = sum(latencies)
    tail_pct = tail_percentile(latencies)[1]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "trials_per_s": f"{trials} trials of {wl.trials_per_op} per op in {op_time:.2f} s of ops",
        "op_p50_ms": f"{attempted} ops",
        "op_tail_ms": f"p{tail_pct:.1f} of {attempted} ops, {TAIL_BEYOND} beyond",
        "peak_rss_mb": "ru_maxrss",
        "ok_ratio": f"fail_ratio {failed / attempted:g} = {failed}/{attempted}",
    }
    for key in scaled:
        notes[key] += f"; raw {raw[key]:.6g}"
    units = dict(END_TO_END)
    print(
        f"calibration    kernel {cal.kernel}: median {statistics.median(samples) * 1e3:.3f} ms "
        f"after ops, {statistics.median(setup_samples) * 1e3:.3f} ms after set-ups; "
        f"reference {cal.reference_s * 1e3:g} ms"
    )
    for key, value in e2e.items():
        print(f"{key:<14} {value:12.6g} {units[key]:<6} ({notes[key]})")
    print(f"result_digest  sha256:{digest} (first {wl.min_ops} ops)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    record = {
        "workload": name,
        "provenance": prov,
        "trace": int(trace),
        "trials_per_op": wl.trials_per_op,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "calibration": {"kernel": cal.kernel, "after_setups_s": setup_samples,
                        "after_ops_s": samples},
        "latencies_s": latencies,
        "notes": notes,
        "result_digest": digest,
        "problems": problems,
        "setups_s": setups,
    }
    if trace:
        traced = phases[1]
        layer = spans.per_layer_metrics(tracer.spans)
        # Both halves at reference speed, so that drift between them does
        # not read as tracing overhead.
        untraced_ops = len(phases[0].latencies)
        layer["trace.trials_per_s_untraced"] = (
            phases[0].trials / sum(scaled_latencies[:untraced_ops])
        )
        layer["trace.trials_per_s_traced"] = traced.trials / sum(scaled_latencies[untraced_ops:])
        layer["trace.overhead_ratio"] = (
            layer["trace.trials_per_s_untraced"] / layer["trace.trials_per_s_traced"]
            if traced.trials else 0.0
        )
        op_shares = spans.self_shares(tracer.spans, sum(traced.latencies), traced.ops)
        setup_shares = spans.self_shares(
            tracer.spans, sum(setups), [f"setup-{k}" for k in range(len(setups))]
        )
        metrics = {key: {"value": layer.get(key, 0.0), "unit": unit} for key, unit in PER_LAYER}
        print_trace_report(name, metrics, op_shares, setup_shares, load_predictions())
        record.update(
            per_layer=metrics,
            self_share_ops=op_shares,
            self_share_setup=setup_shares,
            spans=[[s.name, s.op, s.parent, s.start, s.end, s.note] for s in tracer.spans],
        )
    else:
        metrics = {key: {"value": e2e[key], "unit": unit} for key, unit in END_TO_END}

    out_path = workdir / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_trace_report(name, metrics, op_shares, setup_shares, predictions) -> None:
    print(f"{'span':<44} {'ops share':>9} {'setup share':>11}")
    for span in sorted(set(op_shares) | set(setup_shares)):
        print(f"{span:<44} {op_shares.get(span, 0.0):9.2%} {setup_shares.get(span, 0.0):11.2%}")
    print(f"{'per-layer metric':<44} {'value':>12}  predicted to move (* = this workload)")
    for key, m in metrics.items():
        pred = predictions.get(key, {})
        moves = "; ".join(
            f"{'/'.join(p['end_to_end'])} on "
            + ", ".join(w + ("*" if w == name else "") for w in p["workloads"])
            for p in pred.get("moves", [])
        )
        if pred.get("no_change"):
            moves += f"; no change on {', '.join(pred['no_change'])}"
        print(f"{key:<44} {m['value']:12.6g}  {moves}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    rc = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc = max(rc, subprocess.run(cmd, check=False).returncode)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)

    root = Path.cwd()
    src = root / "src"
    if not (src / "wiretapcodes" / "__init__.py").is_file():
        print(f"error: no package source under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import wiretapcodes

    if not Path(wiretapcodes.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported {wiretapcodes.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
