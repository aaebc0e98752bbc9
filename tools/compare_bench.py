#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as one BENCH JSON file.

    python3 tools/compare_bench.py PARENT_DIR CHANGE_DIR --out BENCH.json \
        [--pairs 10] [--seconds 30] [--layer-runs 3]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  For every
workload in BENCHMARK.json, pair i runs ``perfbench/run.py --seed i`` in both
checkouts, the parent first in even pairs and the change first in odd ones,
and keeps the end-to-end metrics of the last line.  For each metric the file
gives the median and quartiles of each side, the change's median over the
parent's, and in how many pairs the change was better.  The per-layer part
runs tools/branch_layers.py on both checkouts at once (one process, state by
state) --layer-runs times, and gives the median of the runs' medians.
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


def run_json(argv: list[str], cwd: Path) -> dict:
    out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(q2), "q1": float(q1), "q3": float(q3)}


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
        metrics = {}
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": summary(parent),
                "change": summary(change),
                "change_over_parent": statistics.median(change) / statistics.median(parent),
                "pairs_change_better": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
            }
        failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
        end_to_end[workload] = {"metrics": metrics, "failed": failed, "runs": runs}

    # both sides in one process, state by state, so a slower minute slows both alike
    srcs = {side: str(path / "src") for side, path in sides.items()}
    layer_runs = [
        run_json([sys.executable, str(HERE / "branch_layers.py"), srcs["parent"], srcs["change"], "--seed", str(run)], HERE)
        for run in range(args.layer_runs)
    ]
    per_layer = {}
    for n, kinds in layer_runs[0][srcs["parent"]].items():
        for kind in kinds:
            parent = statistics.median(r[srcs["parent"]][n][kind]["median"] for r in layer_runs)
            change = statistics.median(r[srcs["change"]][n][kind]["median"] for r in layer_runs)
            per_layer[f"ghz.{kind}.{n}.us"] = {"parent": parent, "change": change, "change_over_parent": change / parent}

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
