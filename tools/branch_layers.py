#!/usr/bin/env python3
"""Per-layer timings of the GHZ branch engine: cold table, fresh, warm and repeat shots.

    python3 tools/branch_layers.py SRC_DIR [SRC_DIR ...] [--states 40] [--seed 0]

Loads qndnet once from each SRC_DIR (as separate packages in one process, so
a parent checkout and a change are timed side by side, state by state, with
the order alternating) and prints one JSON object: for each source and each
n = 2..8, the median and quartiles, in microseconds, of
* ``cold_table``: ghz_branch_table on a freshly built random state;
* ``fresh_shot``: the first run_ghz_qnd on a freshly built random state;
* ``warm_shot``: run_ghz_qnd on a state whose table is already built;
* ``repeat_shot``: run_ghz_qnd again with the warm shot's draws, so it
  reaches a leaf the table has already visited.
Every source sees the same amplitudes and draws; BLAS runs on one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

LAYERS = ("cold_table", "fresh_shot", "warm_shot", "repeat_shot")


def load(src: str, name: str):
    """qndnet from ``src`` as the package ``name``."""
    package = Path(src) / "qndnet"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def time_layers(qn, n: int, amps: np.ndarray, draws: np.ndarray) -> dict[str, float]:
    state = qn.StateVector(n, amps)
    start = time.perf_counter()
    qn.ghz_branch_table(state)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    qn.run_ghz_qnd(state, "paper", draws[0])
    warm = time.perf_counter() - start
    start = time.perf_counter()
    qn.run_ghz_qnd(state, "paper", draws[0])
    repeat = time.perf_counter() - start
    state = qn.StateVector(n, amps)
    start = time.perf_counter()
    qn.run_ghz_qnd(state, "paper", draws[1])
    fresh = time.perf_counter() - start
    return {"cold_table": cold, "fresh_shot": fresh, "warm_shot": warm, "repeat_shot": repeat}


def quartiles(samples: list[float]) -> dict[str, float]:
    q1, q2, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": round(float(q2), 2), "q1": round(float(q1), 2), "q3": round(float(q3), 2)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+")
    parser.add_argument("--states", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    packages = [load(src, f"qndnet_{k}") for k, src in enumerate(args.src)]
    rng = np.random.default_rng(args.seed)
    for qn in packages:  # fill the schedule and permutation caches before any timing
        for n in range(2, 9):
            qn.ghz_branch_table(qn.random_state(n, np.random.default_rng(n)))
    samples = {src: {f"n{n}": {layer: [] for layer in LAYERS} for n in range(2, 9)} for src in args.src}
    for n in range(2, 9):
        for k in range(args.states):
            amps = packages[0].random_state(n, rng).amplitudes
            draws = rng.random((2, n))
            order = list(zip(args.src, packages))
            for src, qn in order if k % 2 == 0 else order[::-1]:
                for layer, seconds in time_layers(qn, n, amps, draws).items():
                    samples[src][f"n{n}"][layer].append(1e6 * seconds)
    report = {
        src: {n: {layer: quartiles(v) for layer, v in layers.items()} for n, layers in by_n.items()}
        for src, by_n in samples.items()
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
