"""Batch experiment driver emitting reproducible CSV/JSON reports.

Subcommands
-----------
capacity     information quantities over a channel-parameter grid
threshold    BEC density-evolution or empirical BP thresholds
simulate     equivocation estimation campaigns (rank / degradation / Fano)
region       rate-equivocation region polygons for an AWGN eavesdropper
compare-bsc  BSC secrecy-rate comparison table

Every run is driven by one 64-bit ``--seed``; per-grid-point generators are
split off with ``numpy.random.SeedSequence((seed, index))`` (a counter-based
scheme), so reruns of the same configuration produce byte-identical CSV
bodies regardless of execution order.  Reports start with a commented
``key=value`` echo of the configuration, including a hash of its canonical
JSON form.

Exit codes: 0 success, 1 usage error, 2 numeric/convergence failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys

import numpy as np

from . import capacity as cap
from . import codes, secrecy, thresholds
from .channels import BEC, BIAWGN, BSC, CHANNELS

# The eavesdropper channel each estimator's grid parameter belongs to.
_ESTIMATORS = {
    "bec-exact": BEC,
    "approach2-awgn": BIAWGN,
    "approach2-bsc": BSC,
    "approach1": BIAWGN,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _parse_grid(spec: str) -> list[float]:
    """Parse 'start:stop:count' (inclusive linspace) or a comma list."""
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            pts = np.linspace(float(start), float(stop), int(count))
            return [float(p) for p in pts]
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}: {exc}") from None


def _parse_ensemble(spec: str) -> codes.DegreeDistribution:
    """Parse 'dv,dc' or 'lambda=2:0.5,3:0.5;rho=6:1'."""
    try:
        if "lambda=" in spec:
            parts = dict(p.split("=", 1) for p in spec.split(";"))
            var = {
                int(d): float(f)
                for d, f in (tok.split(":") for tok in parts["lambda"].split(","))
            }
            chk = {
                int(d): float(f)
                for d, f in (tok.split(":") for tok in parts["rho"].split(","))
            }
            return codes.DegreeDistribution(var, chk)
        dv, dc = (int(tok) for tok in spec.split(","))
        return codes.DegreeDistribution.regular(dv, dc)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad ensemble spec {spec!r}: {exc}") from None


def _config_dict(args, fields) -> dict:
    cfg = {name: getattr(args, name) for name in fields}
    cfg["command"] = args.command
    canonical = json.dumps(cfg, sort_keys=True, default=str)
    cfg["config_hash"] = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    return cfg


def _write_report(args, config: dict, columns, rows) -> None:
    buf = io.StringIO()
    for key in sorted(config):
        buf.write(f"# {key}={_fmt(config[key])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*columns, "config_hash"])
    for row in rows:
        writer.writerow([_fmt(v) for v in (*row, config["config_hash"])])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.json is not None:
        json_path = args.json if isinstance(args.json, str) else None
        if json_path is None:
            if not args.out:
                raise UsageError("--json without a path requires --out")
            json_path = str(args.out) + ".json"
        payload = {
            "config": config,
            "columns": list(columns),
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        with open(json_path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _grid_values(args) -> list[float]:
    if args.grid is not None:
        return _parse_grid(args.grid)
    if args.param is not None:
        return [args.param]
    raise UsageError("provide --param or --grid")


def _spawn_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _construction_seed(seed: int) -> int:
    return int(np.random.SeedSequence((seed, 0)).generate_state(1)[0])


def _load_code(args, need_seed=True) -> codes.LinearCode:
    if args.code:
        return codes.read_alist(args.code)
    if args.ensemble and args.n:
        dd = _parse_ensemble(args.ensemble)
        if set(dd.var_edge) != {max(dd.var_edge)} or set(dd.chk_edge) != {max(dd.chk_edge)}:
            raise UsageError("code construction currently supports regular ensembles")
        dv, dc = max(dd.var_edge), max(dd.chk_edge)
        if args.seed is None and need_seed:
            raise UsageError("--seed is required to sample an ensemble code")
        return codes.regular_ldpc(args.n, dv, dc, _construction_seed(args.seed or 0))
    raise UsageError("provide --code ALIST or --ensemble with --n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_capacity(args) -> None:
    grid = _grid_values(args)
    rows = []
    for p in grid:
        ch = CHANNELS[args.channel](p)
        cs, a2 = ch.secrecy_capacity, ch.erasure_rate
        rows.append((p, ch.capacity, cs, a2, cs - a2))
    config = _config_dict(args, ["channel", "param", "grid"])
    _write_report(args, config, ("param", "C", "Cs", "approach2_rate", "gap"), rows)


def cmd_threshold(args) -> None:
    columns = (
        "method",
        "value",
        "bracket_lo",
        "bracket_hi",
        "trials",
        "wer",
        "seed",
        "note",
    )
    rows = []
    if args.channel == "bec":
        if args.ensemble:
            dd = _parse_ensemble(args.ensemble)
        elif args.code:
            dd = _load_code(args, need_seed=False).degree_distribution()
        else:
            raise UsageError("BEC threshold needs --ensemble or --code")
        res = thresholds.bec_bp_threshold(dd, tol=args.tol)
        rows.append((res.method, res.value, res.bracket[0], res.bracket[1], "", "", "", ""))
    elif args.channel == "biawgn":
        if args.seed is None:
            raise UsageError("empirical threshold estimation requires --seed")
        code = _load_code(args)
        grid = _grid_values(args)
        rng = _spawn_rng(args.seed, 1)
        res = thresholds.empirical_bp_threshold_awgn(
            code, grid, args.trials, args.target_wer, rng
        )
        if res.value is None:
            rows.append(
                (res.method, "", res.bracket[0], "", args.trials, "", args.seed,
                 "threshold above grid")
            )
        else:
            rows.append(
                (
                    res.method,
                    res.value,
                    res.bracket[0],
                    res.bracket[1],
                    args.trials,
                    res.detail["wer"],
                    args.seed,
                    "",
                )
            )
    else:
        raise UsageError("threshold supports --channel bec or biawgn")
    if args.delta_star is not None:
        rows.append(
            ("user-supplied (typical-pair)", args.delta_star, args.delta_star,
             args.delta_star, "", "", "", "user override")
        )
    config = _config_dict(
        args,
        ["channel", "code", "ensemble", "n", "grid", "trials", "target_wer",
         "tol", "seed", "delta_star"],
    )
    _write_report(args, config, columns, rows)


def _condition_columns(channel, delta_star):
    if delta_star is None:
        return "", "", ""
    ok, margin = thresholds.check_secrecy_condition(channel, delta_star)
    return delta_star, ok, margin


def cmd_simulate(args) -> None:
    if args.estimator is None:
        raise UsageError("simulate requires --estimator")
    if args.seed is None:
        raise UsageError("simulate requires --seed")
    if args.trials is None:
        raise UsageError("simulate requires --trials")
    base = _load_code(args)
    if args.estimator == "approach1":
        pair = codes.nested_pair_from_coarse(base)
    else:
        pair = codes.nested_pair_from_coarse(codes.dual(base))

    computed_delta = None
    if args.estimator != "approach1":
        computed_delta = thresholds.bec_bp_threshold(base.degree_distribution()).value

    grid = _grid_values(args)
    columns = (
        "estimator", "param", "n", "m", "rate", "trials", "seed",
        "estimate", "half_width", "method", "word_error_rate",
        "configured_delta_star", "configured_ok", "configured_margin",
        "computed_delta_star", "computed_ok", "computed_margin",
        "configured_lambda_star", "configured_lambda_ok",
    )
    rows = []
    for i, p in enumerate(grid):
        rng = _spawn_rng(args.seed, 1 + i)
        channel = _ESTIMATORS[args.estimator](p)
        lam_cols = ("", "")
        cond_cols = ("",) * 6
        if args.estimator == "approach1":
            est = secrecy.approach1_equivocation_bound(
                pair, p, args.trials, args.max_bp_iters, rng
            )
            if args.lambda_star is not None:
                lam_cols = (args.lambda_star, p >= args.lambda_star)
        else:
            if args.estimator == "bec-exact":
                est = secrecy.mc_equivocation_bec(pair, p, args.trials, rng)
            else:
                est = secrecy.equivocation_lb(pair, channel, args.trials, rng)
            cond_cols = (
                *_condition_columns(channel, args.delta_star),
                *_condition_columns(channel, computed_delta),
            )
        rows.append(
            (
                args.estimator, p, pair.n, pair.m, pair.rate, args.trials,
                args.seed, est.value, est.half_width, est.method,
                est.detail.get("word_error_rate", ""),
                *cond_cols, *lam_cols,
            )
        )
    config = _config_dict(
        args,
        ["estimator", "code", "ensemble", "n", "param", "grid", "trials",
         "seed", "delta_star", "lambda_star", "max_bp_iters"],
    )
    _write_report(args, config, columns, rows)


def cmd_region(args) -> None:
    if args.param is None:
        raise UsageError("region requires --param (the eavesdropper SNR)")
    if args.r1 is not None:
        r1 = args.r1
    elif args.ensemble:
        r1 = _parse_ensemble(args.ensemble).design_rate
    else:
        raise UsageError("region requires --r1 or --ensemble")
    achievable = cap.achievable_region(args.param, r1)
    outer = cap.capacity_equivocation_region(args.param)
    contained = outer.contains_polygon(achievable)
    rows = []
    for name, poly in (("achievable", achievable), ("capacity", outer)):
        for idx, v in enumerate(poly.vertices):
            rows.append((name, idx, v.rate, v.equivocation))
    rows.append(("containment", "", "achievable_in_capacity", contained))
    config = _config_dict(args, ["param", "r1", "ensemble"])
    _write_report(args, config, ("region", "vertex", "R", "Re"), rows)


def cmd_compare_bsc(args) -> None:
    explicit = args.grid is not None or args.param is not None
    grid = _grid_values(args) if explicit else [
        float(q) for q in np.linspace(0.01, 0.5, 50)
    ]
    rows = []
    for q in grid:
        if not 0.0 < q <= 0.5:
            raise UsageError(f"comparison grid point {q} outside (0, 0.5]")
        channel = BSC(q)
        h, rate = channel.secrecy_capacity, channel.erasure_rate
        baseline = cap.thangaraj_baseline(q)
        if rate < baseline - 1e-12 or rate > h + 1e-12:
            raise RuntimeError(
                f"rate ordering violated at q={q}: 2q={rate}, "
                f"baseline={baseline}, h={h}"
            )
        rows.append((q, h, rate, baseline))
    config = _config_dict(args, ["param", "grid"])
    _write_report(
        args, config,
        ("q", "secrecy_capacity", "construction_rate", "detection_baseline"),
        rows,
    )


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> _Parser:
    parser = _Parser(prog="wiretapcodes", description=__doc__.split("\n")[0])
    parser.add_argument("--config", help="JSON file of flag values (command-line flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--channel", choices=CHANNELS)
        p.add_argument("--param", type=float, help="single channel parameter")
        p.add_argument("--grid", help="'start:stop:count' or comma-separated values")
        p.add_argument("--code", help="alist parity-check file")
        p.add_argument("--ensemble", help="'dv,dc' or 'lambda=...;rho=...'")
        p.add_argument("--n", type=int, help="block length for ensemble codes")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int, help="64-bit master seed")
        p.add_argument("--delta-star", dest="delta_star", type=float,
                       help="user-supplied BEC threshold (e.g. a typical-pair value)")
        p.add_argument("--lambda-star", dest="lambda_star", type=float,
                       help="user-supplied AWGN SNR threshold")
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--json", nargs="?", const=True,
                       help="also write a JSON sidecar (default path: OUT.json)")

    p = sub.add_parser("capacity", help="capacities and secrecy rates over a grid")
    add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("threshold", help="BEC DE threshold or empirical BP threshold")
    add_common(p)
    p.add_argument("--target-wer", dest="target_wer", type=float, default=0.1,
                   help="word-error-rate target for the empirical estimate")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="DE residual classification tolerance")
    p.set_defaults(func=cmd_threshold, trials=200)

    p = sub.add_parser("simulate", help="equivocation estimation campaign")
    add_common(p)
    p.add_argument("--estimator", choices=_ESTIMATORS)
    p.add_argument("--max-bp-iters", dest="max_bp_iters", type=int, default=200)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("region", help="rate-equivocation region vertex CSV")
    add_common(p)
    p.add_argument("--r1", type=float, help="coarse code rate for the region corner")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("compare-bsc", help="BSC secrecy-rate comparison table")
    add_common(p)
    p.set_defaults(func=cmd_compare_bsc)
    return parser, sub.choices


def _config_defaults(args) -> dict:
    """The ``--config`` file's values, keyed by flag destination."""
    try:
        with open(args.config, "r", encoding="ascii") as fh:
            overrides = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad config file {args.config}: {exc}") from None
    if not isinstance(overrides, dict):
        raise UsageError(f"config file {args.config} must hold a JSON object")
    defaults = {}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config", "func") or not hasattr(args, dest):
            raise UsageError(f"unknown config key {key!r}")
        defaults[dest] = value
    return defaults


def _parse_args(argv):
    """Parse the command line: a flag given there wins over the ``--config``
    file, which wins over the built-in default."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        commands[args.command].set_defaults(**_config_defaults(args))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        if args.channel is None and args.command in ("capacity", "threshold"):
            raise UsageError(f"{args.command} requires --channel")
        args.func(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
