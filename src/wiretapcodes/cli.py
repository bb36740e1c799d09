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
JSON form.  The ``--json`` sidecar holds the configuration, the columns and
rows, and per row the ``detail`` of the row's estimate or threshold (how it
was computed: rank paths, peel rounds, BP iterations), or ``{}``.

One table, ``_COMMANDS``, gives each subcommand's runs, one per ``--channel``
of ``threshold`` or ``--estimator`` of ``simulate``, and each run's flags: those
it reads (exactly those it echoes and hashes), requires and defaults.  The
parser, the echo and hash, and every check of a run's flags are built from it.

Exit codes: 0 success, 1 usage error, 2 numeric/convergence failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import capacity as cap
from . import codes, secrecy, thresholds
from .bitlinalg import _check_count
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
            values = [float(p) for p in np.linspace(float(start), float(stop), int(count))]
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}: {exc}") from None
    if not values:
        raise UsageError(f"empty grid {spec!r}")
    return values


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


def _config_dict(args) -> dict:
    cfg = {name: getattr(args, name) for name in _run(args).reads}
    cfg["command"] = args.command
    canonical = json.dumps(cfg, sort_keys=True, default=str)
    cfg["config_hash"] = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    return cfg


def _json_safe(value):
    """``value`` with tuples as lists, numpy scalars as Python ones and
    non-finite floats as their CSV text, so the sidecar is strict JSON."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def _write_report(args, config: dict, columns, rows, details=None) -> None:
    """Write the CSV report and, with ``--json``, its sidecar; ``details``
    holds one ``detail`` dict per row (none: every row's is ``{}``)."""
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
        json_path = args.json if isinstance(args.json, str) else str(args.out) + ".json"
        payload = {
            "config": config,
            "columns": list(columns),
            "rows": [[_fmt(v) for v in row] for row in rows],
            "details": _json_safe(details or [{}] * len(rows)),
        }
        with open(json_path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _grid_values(args) -> list[float]:
    return _parse_grid(args.grid) if args.grid is not None else [args.param]


def _seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """Stream ``index`` of the master ``seed``; ValueError naming ``seed``
    if it is negative."""
    return np.random.SeedSequence((_check_count(seed, "seed", 0), index))


def _spawn_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(_seed_sequence(seed, index))


def _construction_seed(seed: int) -> int:
    return int(_seed_sequence(seed, 0).generate_state(1)[0])


def _load_code(args) -> codes.LinearCode:
    if args.code is not None:
        return codes.read_alist(args.code)
    if args.ensemble is not None and args.n is not None:
        dd = _parse_ensemble(args.ensemble)
        if set(dd.var_edge) != {max(dd.var_edge)} or set(dd.chk_edge) != {max(dd.chk_edge)}:
            raise UsageError("code construction currently supports regular ensembles")
        dv, dc = max(dd.var_edge), max(dd.chk_edge)
        return codes.regular_ldpc(args.n, dv, dc, _construction_seed(args.seed))
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
    _write_report(args, _config_dict(args), ("param", "C", "Cs", "approach2_rate", "gap"), rows)


def cmd_threshold(args) -> None:
    columns = ("method", "value", "bracket_lo", "bracket_hi", "trials", "wer", "seed", "note")
    rows = []
    if args.channel == "bec":
        if args.ensemble is not None:
            dd = _parse_ensemble(args.ensemble)
        else:
            dd = _load_code(args).degree_distribution()
        res = thresholds.bec_bp_threshold(dd, tol=args.tol)
        rows.append((res.method, res.value, res.bracket[0], res.bracket[1], "", "", "", ""))
    else:  # biawgn: the empirical BP threshold of a concrete code
        grid = _parse_grid(args.grid)
        code = _load_code(args)
        rng = _spawn_rng(args.seed, 1)
        res = thresholds.empirical_bp_threshold_awgn(
            code, grid, args.trials, args.target_wer, rng
        )
        if res.value is None:
            rows.append((res.method, "", res.bracket[0], "", args.trials, "", args.seed,
                         "threshold above grid"))
        else:
            rows.append((res.method, res.value, res.bracket[0], res.bracket[1], args.trials,
                         res.detail["wer"], args.seed, ""))
    details = [res.detail]
    if args.delta_star is not None:
        rows.append(
            ("user-supplied (typical-pair)", args.delta_star, args.delta_star,
             args.delta_star, "", "", "", "user override")
        )
        details.append({})
    _write_report(args, _config_dict(args), columns, rows, details)


def _condition_columns(channel, delta_star):
    if delta_star is None:
        return "", "", ""
    ok, margin = thresholds.check_secrecy_condition(channel, delta_star)
    return delta_star, ok, margin


def cmd_simulate(args) -> None:
    grid = _grid_values(args)
    base = _load_code(args)
    computed_delta = None
    if args.estimator == "approach1":
        pair = codes.nested_pair_from_coarse(base)
    else:  # the second scheme nests the cosets of the dual code
        pair = codes.nested_pair_from_coarse(codes.dual(base))
        computed_delta = thresholds.bec_bp_threshold(base.degree_distribution()).value

    columns = (
        "estimator", "param", "n", "m", "rate", "trials", "seed",
        "estimate", "half_width", "method", "word_error_rate",
        "configured_delta_star", "configured_ok", "configured_margin",
        "computed_delta_star", "computed_ok", "computed_margin",
        "configured_lambda_star", "configured_lambda_ok",
    )
    rows, details = [], []
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
        details.append(est.detail)
    _write_report(args, _config_dict(args), columns, rows, details)


def cmd_region(args) -> None:
    r1 = args.r1 if args.r1 is not None else _parse_ensemble(args.ensemble).design_rate
    achievable = cap.achievable_region(args.param, r1)
    outer = cap.capacity_equivocation_region(args.param)
    contained = outer.contains_polygon(achievable)
    rows = []
    for name, poly in (("achievable", achievable), ("capacity", outer)):
        for idx, v in enumerate(poly.vertices):
            rows.append((name, idx, v.rate, v.equivocation))
    rows.append(("containment", "", "achievable_in_capacity", contained))
    _write_report(args, _config_dict(args), ("region", "vertex", "R", "Re"), rows)


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
    _write_report(
        args, _config_dict(args),
        ("q", "secrecy_capacity", "construction_rate", "detection_baseline"),
        rows,
    )


# ---------------------------------------------------------------------------
# argument plumbing


# Every flag a subcommand may read, by destination, with its argparse keywords.
_FLAGS = {
    "channel": {"choices": CHANNELS},
    "param": {"type": float, "help": "single channel parameter"},
    "grid": {"help": "'start:stop:count' or comma-separated values"},
    "code": {"help": "alist parity-check file"},
    "ensemble": {"help": "'dv,dc' or 'lambda=...;rho=...'"},
    "n": {"type": int, "help": "block length for ensemble codes"},
    "trials": {"type": int},
    "seed": {"type": int, "help": "64-bit master seed"},
    "delta_star": {"type": float,
                   "help": "user-supplied BEC threshold (e.g. a typical-pair value)"},
    "lambda_star": {"type": float, "help": "user-supplied AWGN SNR threshold"},
    "target_wer": {"type": float, "help": "word-error-rate target for the empirical estimate"},
    "tol": {"type": float, "help": "DE residual classification tolerance"},
    "estimator": {"choices": _ESTIMATORS},
    "max_bp_iters": {"type": int},
    "r1": {"type": float, "help": "coarse code rate for the region corner"},
    "out": {"help": "CSV output path (default: stdout)"},
    "json": {"nargs": "?", "const": True,
             "help": "also write a JSON sidecar (default path: OUT.json)"},
}


class _Run(NamedTuple):
    reads: tuple  # flags besides --out and --json; exactly these are echoed and hashed
    requires: tuple = ()  # an entry that is a tuple means one of those flags
    defaults: dict = {}


class _Command(NamedTuple):
    func: Callable
    help: str
    runs: dict  # the mode flag's value -> its run; without a mode flag, None -> the run
    mode: str | None = None  # the flag whose value picks the run

    @property
    def flags(self) -> tuple:
        """Every flag some run reads, in table order."""
        return tuple(dict.fromkeys(dest for run in self.runs.values() for dest in run.reads))


_SIM_READS = ("estimator", "code", "ensemble", "n", "param", "grid", "trials", "seed")
_SIM_REQUIRES = ("seed", "trials", ("param", "grid"))

_COMMANDS = {
    "capacity": _Command(cmd_capacity, "capacities and secrecy rates over a grid", {
        None: _Run(("channel", "param", "grid"), ("channel", ("param", "grid")))}),
    "threshold": _Command(cmd_threshold, "BEC DE threshold or empirical BP threshold", {
        "bec": _Run(("channel", "code", "ensemble", "tol", "delta_star"),
                    (("ensemble", "code"),), {"tol": thresholds.DE_CLASSIFY_TOL}),
        "biawgn": _Run(("channel", "code", "ensemble", "n", "grid", "trials", "target_wer",
                        "seed", "delta_star"),
                       ("seed", "grid"), {"trials": 200, "target_wer": 0.1}),
    }, "channel"),
    "simulate": _Command(cmd_simulate, "equivocation estimation campaign", {
        **dict.fromkeys(("bec-exact", "approach2-awgn", "approach2-bsc"),
                        _Run((*_SIM_READS, "delta_star"), _SIM_REQUIRES)),
        "approach1": _Run((*_SIM_READS, "lambda_star", "max_bp_iters"), _SIM_REQUIRES,
                          {"max_bp_iters": 200}),
    }, "estimator"),
    "region": _Command(cmd_region, "rate-equivocation region vertex CSV", {
        None: _Run(("param", "r1", "ensemble"), ("param", ("r1", "ensemble")))}),
    "compare-bsc": _Command(cmd_compare_bsc, "BSC secrecy-rate comparison table", {
        None: _Run(("param", "grid"))}),
}
_COMMON = ("out", "json")
# Pairs of flags that say one thing two ways; a run may take each from only one.
_EXCLUSIVE = (("param", "grid"), ("code", "ensemble"), ("r1", "ensemble"))


def _build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="wiretapcodes", description=__doc__.split("\n")[0])
    parser.add_argument("--config", help="JSON file of flag values (command-line flags win)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest in (*command.flags, *_COMMON):
            p.add_argument(_flag(dest), dest=dest, **_FLAGS[dest])
    return parser, sub.choices


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _run(args) -> _Run | None:
    """The run the subcommand's mode flag picks; None for a missing or unknown mode."""
    command = _COMMANDS[args.command]
    return command.runs.get(command.mode and getattr(args, command.mode))


def _config_defaults(args) -> dict:
    """The ``--config`` file's values for this subcommand's flags, keyed by flag
    destination.  A key naming only other subcommands' flags is ignored, so one
    file can serve several subcommands; a key naming no flag is an error, and
    ``_parse_args`` rejects a key for a flag this subcommand's run does not read."""
    try:
        with open(args.config, "r", encoding="ascii") as fh:
            overrides = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad config file {args.config}: {exc}") from None
    if not isinstance(overrides, dict):
        raise UsageError(f"config file {args.config} must hold a JSON object")
    flags = (*_COMMANDS[args.command].flags, *_COMMON)
    defaults = {}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in _FLAGS:
            raise UsageError(f"unknown config key {key!r}")
        if dest in flags:
            defaults[dest] = _config_value(key, _FLAGS[dest], value)
    return defaults


def _config_value(key: str, spec: dict, value):
    """``value`` checked as argparse checks flag ``spec``; it skips parser defaults."""
    kind = spec.get("type", str)
    if value is True and "const" in spec:  # a bare --json
        return value
    if isinstance(value, str) or (kind is not str and type(value) in (int, kind)):
        try:
            converted = kind(value)  # a JSON integer is a valid float
        except ValueError:
            converted = None
        if converted is not None and converted in spec.get("choices", (converted,)):
            return converted
    raise UsageError(f"bad value {value!r} for config key {key!r}")


def _parse_args(argv):
    """Parse the command line: a flag given there wins over the ``--config``
    file, which wins over the run's default.  Then, before any computation,
    look up the run, reject every flag given that it does not read, fill in
    its defaults and check its requirements and the shared flag rules."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        commands[args.command].set_defaults(**_config_defaults(args))
        args = parser.parse_args(argv)
    command, run = _COMMANDS[args.command], _run(args)
    if run is None:
        modes = " or ".join(command.runs)
        raise UsageError(f"{args.command} requires {_flag(command.mode)} {modes}")
    for dest in command.flags:
        if dest not in run.reads and getattr(args, dest) is not None:
            readers = " or ".join(mode for mode, other in command.runs.items()
                                  if dest in other.reads)
            raise UsageError(f"{_flag(dest)}: only {_flag(command.mode)} {readers} reads it")
    for dest, value in run.defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    for group in run.requires:
        group = group if isinstance(group, tuple) else (group,)
        if all(getattr(args, dest) is None for dest in group):
            raise UsageError(f"{args.command} requires {' or '.join(map(_flag, group))}")
    for pair in _EXCLUSIVE:
        if all(getattr(args, dest, None) is not None for dest in pair):
            raise UsageError("give --{} or --{}, not both".format(*pair))
    if args.json is not None and not isinstance(args.json, str) and not args.out:
        raise UsageError("--json without a path requires --out")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        _COMMANDS[args.command].func(args)
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
