"""Condense two benchmark result directories into one ``BENCH_<n>.json``.

Run ``python3 perfbench/run.py --workload all --seed S --trace 0`` at the same
seeds in two checkouts, the parent commit and the change, then:

    python3 tools/bench_summary.py PARENT/.perfbench CHANGE/.perfbench --out BENCH_7.json

Only untraced results (``result-<workload>-seed<seed>-trace0.json``) are
read, and only the seeds both directories hold for a workload.  The output
holds, per workload:

- per end-to-end metric, the median, quartiles and interquartile range over
  those seeds, for the parent and the change, and two verdicts against the
  metric's ``better`` direction and ``bound`` in ``BENCHMARK.json``:
  ``worse_than_bound`` (the change's median is worse than the parent's by
  more than ``bound`` times the parent's median) and ``unresolved`` (the
  parent's interquartile range exceeds ``bound`` times its median, and not
  every change run beats every parent run), and ``pairs_won``, the seeds at
  which the change's run beats the parent's in the ``better`` direction
  (ties count for neither side), to read beside the workload's seed count,
  and ``gain``, the rule a claimed improvement must meet: the change wins
  at least nine tenths of the pairs, and its median is better than the
  parent's by more than the parent's interquartile range;
- per uncalibrated metric (``end_to_end_raw``, the timings before they are
  scaled by the calibration samples), each side's median, quartiles and
  interquartile range, which tell a shift in the operations from a shift
  in the calibration samples; a metric missing from any run is left out;
- per seed, whether the two result digests are equal;

and, per side, the provenance of its runs (rank backend, Python, numpy and
scipy versions, core counts, commit).  A provenance field that differs
between the runs of one side is listed with all its values.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

_RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_results(directory: Path) -> dict[tuple[str, int], dict]:
    """Untraced results of one directory, keyed by ``(workload, seed)``."""
    out = {}
    for path in sorted(Path(directory).iterdir()):
        match = _RESULT.fullmatch(path.name)
        if match:
            out[match["workload"], int(match["seed"])] = json.loads(path.read_text())
    return out


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles (linear interpolation) and interquartile range."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """``worse_than_bound``, ``unresolved``, ``pairs_won`` and ``gain`` for
    one metric's runs, ``parent[i]`` and ``change[i]`` at the same seed."""
    sign = 1.0 if better == "higher" else -1.0
    base = spread(parent)
    gap = sign * (statistics.median(change) - base["median"])
    beats = min(sign * v for v in change) > max(sign * v for v in parent)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "worse_than_bound": -gap > bound * abs(base["median"]),
        "unresolved": base["iqr"] > bound * abs(base["median"]) and not beats,
        "pairs_won": won,
        "gain": 10 * won >= 9 * len(parent) and gap > base["iqr"],
    }


def provenance(results: list[dict]) -> dict:
    fields: dict[str, list] = {}
    for result in results:
        for key, value in result["provenance"].items():
            if key != "seed" and value not in fields.setdefault(key, []):
                fields[key].append(value)
    return {key: values[0] if len(values) == 1 else values for key, values in fields.items()}


def summarize(parent_dir: Path, change_dir: Path) -> dict:
    specs = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    sides = {"parent": load_results(parent_dir), "change": load_results(change_dir)}
    workloads = {}
    for name in sorted({wl for wl, _ in sides["parent"]} | {wl for wl, _ in sides["change"]}):
        seeds = sorted(
            seed for wl, seed in sides["parent"] if wl == name and (wl, seed) in sides["change"]
        )
        if not seeds:
            continue
        runs = {side: [results[name, seed] for seed in seeds] for side, results in sides.items()}
        end_to_end = {}
        for metric in runs["parent"][0]["end_to_end"]:
            values = {side: [run["end_to_end"][metric] for run in runs[side]] for side in sides}
            end_to_end[metric] = {
                **{side: spread(values[side]) for side in sides},
                **verdict(values["parent"], values["change"],
                          specs[metric]["better"], specs[metric]["bound"]),
            }
        raw_metrics = set.intersection(
            *(set(run.get("end_to_end_raw", ())) for side in sides for run in runs[side]))
        end_to_end_raw = {
            metric: {side: spread([run["end_to_end_raw"][metric] for run in runs[side]])
                     for side in sides}
            for metric in sorted(raw_metrics)
        }
        workloads[name] = {
            "seeds": seeds,
            "end_to_end": end_to_end,
            "end_to_end_raw": end_to_end_raw,
            "digests_equal": {
                str(seed): p["result_digest"] == c["result_digest"]
                for seed, p, c in zip(seeds, runs["parent"], runs["change"])
            },
        }
    return {
        "provenance": {
            side: provenance([run for (wl, _), run in results.items() if wl in workloads])
            for side, results in sides.items()
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="result directory of the parent commit")
    parser.add_argument("change", type=Path, help="result directory of the change")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    summary = summarize(args.parent, args.change)
    if not summary["workloads"]:
        print("error: no workload has untraced results at a common seed", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
