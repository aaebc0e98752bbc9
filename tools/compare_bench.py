#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as one BENCH JSON file.

    python3 tools/compare_bench.py PARENT_DIR CHANGE_DIR --out BENCH.json \
        [--pairs 10] [--seconds 30] [--layer-runs 3]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  For every
workload in BENCHMARK.json, pair i runs ``perfbench/run.py --seed i`` in both
checkouts, the parent first in even pairs and the change first in odd ones,
and keeps the end-to-end metrics of the last line.  For each metric the file
gives the median and quartiles of each side, the change's median over the
parent's, in how many pairs the change was better, and ``beyond_bound``:
whether the change's median is worse than the parent's by more than the
metric's BENCHMARK.json bound (each such metric is also listed under
``beyond_bound`` and printed), ``unresolved``: whether either side's
interquartile spread over its median, (q3 - q1) / median, exceeds that bound
while some run of the change fails to beat every run of the parent, so that
the runs cannot tell a change within the bound from one beyond it (listed
and printed the same way), and ``gain_resolved``: whether the change is
better in at least 9 of 10 pairs and its median beats the parent's by more
than the parent's interquartile spread (q3 - q1), the rule a gain claim must
meet.  Each workload reports failed/attempted operations per side.  The
per-layer part runs tools/branch_layers.py on both checkouts at once (one
process, sample by sample) --layer-runs times, reads each run's two entries
by position (parent first, so ``. .`` compares two series of one tree, the
noise floor of a layer), and gives the median of the runs' medians, parent
and change side by side, as ``<family>.<layer>.<group>.us``
(``ghz.cold_table.n8.us``, ``auth.row_fixed.decoy.n3.us``), or ``.count``
for a count of page faults (``ghz.cold_table_faults.n8.count``; its ratio is
null where the parent reads 0); --layer-runs 0 skips it.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


#: Lines of a failed run's stderr that the tool prints when it stops.
STDERR_TAIL = 20


def run_json(argv: list[str], cwd: Path) -> dict:
    """The JSON on the last stdout line of ``argv`` run in the checkout ``cwd``.  A run that exits
    non-zero, or whose last line is no JSON, stops the tool with a non-zero exit that names the
    argv, the checkout and the tail of the run's stderr."""
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    problem = f"exited {done.returncode}"
    if done.returncode == 0:
        try:
            return json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            problem = "printed no JSON last line"
    tail = "\n".join(done.stderr.splitlines()[-STDERR_TAIL:])
    sys.exit(f"compare_bench: {argv} in {cwd} {problem}; its stderr ends:\n{tail}")


def summary(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(q2), "q1": float(q1), "q3": float(q3)}


def compare_metric(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric of one workload: ``metric`` is its BENCHMARK.json entry, ``parent``
    and ``change`` the runs of each side, pair by pair."""
    higher = metric["better"] == "higher"
    ratio = statistics.median(change) / statistics.median(parent)
    before, after = summary(parent), summary(change)
    better = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    gain = after["median"] - before["median"] if higher else before["median"] - after["median"]
    wide = any((side["q3"] - side["q1"]) / side["median"] > metric["bound"] for side in (before, after))
    separated = min(change) > max(parent) if higher else max(change) < min(parent)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": before,
        "change": after,
        "change_over_parent": ratio,
        "pairs_change_better": better,
        "beyond_bound": ratio < 1 - metric["bound"] if higher else ratio > 1 + metric["bound"],
        "unresolved": wide and not separated,
        "gain_resolved": 10 * better >= 9 * len(parent) and gain > before["q3"] - before["q1"],
    }


def compare_layers(layer_runs: list[list[dict]]) -> dict:
    """The per-layer part from branch_layers.py runs of (parent, change), each run's report read by
    position: for each layer, the median of the runs' medians of each side and their ratio."""
    per_layer = {}
    for group, kinds in (layer_runs[0][0] if layer_runs else {}).items():
        family, rest = group.split(".", 1)
        for kind in kinds:
            parent, change = (
                statistics.median(run[side][group][kind]["median"] for run in layer_runs) for side in (0, 1)
            )
            unit = "count" if kind.endswith("_faults") else "us"
            per_layer[f"{family}.{kind}.{rest}.{unit}"] = {
                "parent": parent, "change": change, "change_over_parent": change / parent if parent else None,
            }
    return per_layer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--layer-runs", type=int, default=3)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    end_to_end = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(pair), "--seconds", str(args.seconds), "--trace", "0"]
                line = run_json(argv, sides[side])
                runs[side].append({"failed": line["failed"], "attempted": line["attempted"],
                                   **{k: v["value"] for k, v in line["metrics"].items()}})
                print(workload, pair, side, runs[side][-1], file=sys.stderr, flush=True)
        metrics = {
            metric["name"]: compare_metric(
                metric, [r[metric["name"]] for r in runs["parent"]], [r[metric["name"]] for r in runs["change"]]
            )
            for metric in spec["end_to_end"]
        }
        beyond = [name for name, m in metrics.items() if m["beyond_bound"]]
        unresolved = [name for name, m in metrics.items() if m["unresolved"]]
        if beyond:
            print(workload, "worse than the parent beyond the bound:", *beyond, file=sys.stderr)
        if unresolved:
            print(workload, "spread wider than the bound, unresolved:", *unresolved, file=sys.stderr)
        operations = {
            side: {key: sum(r[key] for r in runs[side]) for key in ("failed", "attempted")}
            for side in runs
        }
        end_to_end[workload] = {
            "metrics": metrics, "beyond_bound": beyond, "unresolved": unresolved,
            "operations": operations, "runs": runs,
        }

    # both sides in one process, state by state, so a slower minute slows both alike
    srcs = [str(sides[side] / "src") for side in ("parent", "change")]
    layer_runs = [
        run_json([sys.executable, str(HERE / "branch_layers.py"), *srcs, "--seed", str(run)], HERE)
        for run in range(args.layer_runs)
    ]
    per_layer = compare_layers(layer_runs)

    report = {
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "processor": platform.processor() or platform.machine()},
        "pairs": args.pairs,
        "seconds_per_run": args.seconds,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
