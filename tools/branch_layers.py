#!/usr/bin/env python3
"""Per-layer timings (and page faults) of the Bell and GHZ branch engine and of an auth sweep row and session.

    python3 tools/branch_layers.py SRC_DIR [SRC_DIR ...] [--states 40] [--seed 0]

Loads qndnet once from each SRC_DIR (as separate packages in one process, so
a parent checkout and a change are timed side by side, sample by sample,
with the order alternating) and prints one JSON list, one entry per SRC_DIR
in argument order: the median and quartiles, in microseconds (a count for a
fault layer), of each layer of each group.  Sources are kept apart by their
position, so ``src src`` times the same package twice, as two series.  The groups ``ghz.n2`` .. ``ghz.n8`` hold
* ``cold_table``: ghz_branch_table on a freshly built random state;
* ``fresh_shot``: the first run_ghz_qnd on a freshly built random state;
* ``warm_shot``: run_ghz_qnd on a state whose table is already built;
* ``repeat_shot``: run_ghz_qnd again with the warm shot's draws, so it
  reaches a leaf the table has already visited;
* ``block_shot``: the mean of BLOCK_SHOTS run_ghz_qnd calls with distinct
  draws, the rows of one array, on a state whose table is already built, as
  a ghz-mc block takes them (its first visits to leaves included);
* ``fresh_pair``: the first two run_ghz_qnd calls on a freshly built random
  state, what every caller that takes more than one shot pays;
* ``cold_table_faults``: the minor page faults (getrusage ru_minflt) of one
  cold_table call, a count, not microseconds.
The group ``bell.n2`` holds BELL_LAYERS, the same layers of run_bell_qnd and
bell_branch_table on 2-qubit states.
Each Bell or GHZ time is the fastest of ROW_REPEATS back-to-back calls (or
blocks), each on a state built for it (its table too, for ``warm_shot``,
``repeat_shot`` and ``block_shot``); the fastest call hides the cost of fresh
pages that a workload pays, so ``cold_table_faults`` is the median over those
ROW_REPEATS cold_table calls.
The groups ``auth.legitimate.n3``, ``auth.legitimate-dephasing.n3``,
``auth.legitimate-depolarizing.n3`` and ``auth.decoy.n3`` (AUTH_CELLS: one
security_sweep row at n = 3, noiseless or at p = 0.1) hold
* ``row_fixed``: a row of one trial, its cost apart from the sessions;
* ``per_session``: (a row of AUTH_TRIALS trials - a row of one) / (AUTH_TRIALS - 1);
* ``round_oracle``: one warm attacker_round_distribution call for the group's
  attacker (its dense schedule already built), the round oracle a sweep
  checks its label engine against, on all four labels, once per attacker in
  a process;
* ``session``: one warm verify_session on a clone of the account the row
  enrolls, the call that runs a row's trial 0 (and is part of ``row_fixed``);
each row, oracle or session call timed as the fastest of ROW_REPEATS
back-to-back calls, its arguments (a session's clone and Generator) built
outside the timed call.
Every source sees the same amplitudes, draws and sweep seeds, after one
warm-up pass that fills the per-process caches; BLAS runs on one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

LAYERS = ("cold_table", "fresh_shot", "warm_shot", "repeat_shot", "block_shot", "fresh_pair")
BELL_LAYERS = ("fresh_shot", "warm_shot", "repeat_shot", "block_shot")
#: Shots, each with its own draws, of one block_shot block.
BLOCK_SHOTS = 64
#: Layers counted in minor page faults rather than timed.
FAULT_LAYERS = ("cold_table_faults",)
AUTH_LAYERS = ("row_fixed", "per_session", "round_oracle", "session")
#: (group name, attacker token, noise model) of the timed sweep rows, all at n = 3, p = 0.1 when noisy.
AUTH_CELLS = (
    ("legitimate.n3", "legitimate", "none"),
    ("legitimate-dephasing.n3", "legitimate", "dephasing"),
    ("legitimate-depolarizing.n3", "legitimate", "depolarizing"),
    ("decoy.n3", "decoy", "none"),
)
AUTH_TRIALS = 2501
#: Back-to-back calls per layer or row and sample; the fastest is kept.
ROW_REPEATS = 3


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


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def time_layers(qn, kind: str, n: int, amps: np.ndarray, draws: np.ndarray, block: np.ndarray) -> dict[str, float]:
    """Each layer of ``kind`` ("bell" or "ghz") in microseconds, and cold_table_faults as a count."""
    run, table = (qn.run_bell_qnd, qn.bell_branch_table) if kind == "bell" else (qn.run_ghz_qnd, qn.ghz_branch_table)
    best = dict.fromkeys(LAYERS, np.inf)
    faults = []

    def timed(layer: str, call, *args) -> None:
        start = time.perf_counter()
        call(*args)
        best[layer] = min(best[layer], time.perf_counter() - start)

    def pair(state) -> None:
        run(state, "paper", draws[0])
        run(state, "paper", draws[1])

    def shots(state) -> None:
        for d in block:
            run(state, "paper", d)

    for _ in range(ROW_REPEATS):  # every call measures a state built for it
        state = qn.StateVector(n, amps)
        before = minor_faults()
        timed("cold_table", table, state)
        faults.append(minor_faults() - before)
        timed("warm_shot", run, state, "paper", draws[0])
        timed("repeat_shot", run, state, "paper", draws[0])
        timed("fresh_shot", run, qn.StateVector(n, amps), "paper", draws[1])
        timed("fresh_pair", pair, qn.StateVector(n, amps))
        state = qn.StateVector(n, amps)
        table(state)
        timed("block_shot", shots, state)
    best["block_shot"] /= len(block)
    return {**{layer: 1e6 * seconds for layer, seconds in best.items()}, "cold_table_faults": float(np.median(faults))}


def time_row(qn, attacker: str, noise: str, seed: int) -> dict[str, float]:
    spec = qn.NoiseSpec(noise, 0.1) if noise != "none" else qn.NoiseSpec()
    model = qn.AttackerModel(attacker)
    best = {}

    def timed(key, call, make_args) -> None:
        for _ in range(ROW_REPEATS):
            args = make_args()
            start = time.perf_counter()
            call(*args)
            best[key] = min(best.get(key, np.inf), time.perf_counter() - start)

    for trials in (1, AUTH_TRIALS):
        timed(trials, qn.security_sweep, lambda: ([3], model, trials, seed, spec))
    timed("round_oracle", qn.attacker_round_distribution, lambda: (model, qn.BellLabel.PSI_MINUS))
    account = qn.enroll(3, "random", np.random.default_rng((seed, 3)))  # the row's enrollment
    timed("session", qn.verify_session, lambda: (account.clone(), model, spec, 1.0, np.random.default_rng(seed)))
    return {
        "row_fixed": best[1],
        "per_session": (best[AUTH_TRIALS] - best[1]) / (AUTH_TRIALS - 1),
        "round_oracle": best["round_oracle"],
        "session": best["session"],
    }


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
    for qn in packages:  # fill the schedule, permutation, check and plan caches before any timing
        for n in range(2, 9):
            qn.ghz_branch_table(qn.random_state(n, np.random.default_rng(n)))
        for _, attacker, noise in AUTH_CELLS:  # sizes 1..8 enroll all four labels at seed 0
            qn.security_sweep(range(1, 9), qn.AttackerModel(attacker), 2, 0)
            time_row(qn, attacker, noise, 0)
    order = list(enumerate(packages))  # each source by its argument position
    samples = [{} for _ in packages]
    for kind, n, layers in [("bell", 2, BELL_LAYERS)] + [("ghz", n, LAYERS + FAULT_LAYERS) for n in range(2, 9)]:
        group = f"{kind}.n{n}"
        for source in samples:
            source[group] = {layer: [] for layer in layers}
        for k in range(args.states):
            amps = packages[0].random_state(n, rng).amplitudes
            draws, block = rng.random((2, n)), rng.random((BLOCK_SHOTS, n))
            for position, qn in order if k % 2 == 0 else order[::-1]:
                timings = time_layers(qn, kind, n, amps, draws, block)
                for layer in layers:
                    samples[position][group][layer].append(timings[layer])
    for group, attacker, noise in AUTH_CELLS:
        for source in samples:
            source[f"auth.{group}"] = {layer: [] for layer in AUTH_LAYERS}
        for k in range(args.states):
            seed = int(rng.integers(2**31))
            for position, qn in order if k % 2 == 0 else order[::-1]:
                for layer, seconds in time_row(qn, attacker, noise, seed).items():
                    samples[position][f"auth.{group}"][layer].append(1e6 * seconds)
    report = [
        {group: {layer: quartiles(v) for layer, v in layers.items()} for group, layers in groups.items()}
        for groups in samples
    ]
    print(json.dumps(report))


if __name__ == "__main__":
    main()
