"""Tests of the benchmark itself: its checks, its schema and a tiny run.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05


def _first_cycle(wl, execute=None):
    wl.setup(tracing.NullTracer())
    if execute is not None:
        wl.execute = execute
    stats = run.Stats()
    run.run_cycle(wl, tracing.NullTracer(), stats, {})
    return stats


def test_out_of_interval_accept_rate_is_a_failed_unit():
    wl = workloads.AuthSweep(3, TINY)
    honest = wl.execute

    def tampered(unit, tracer):
        rows = honest(unit, tracer)
        if unit[0] == "decoy":  # every decoy session accepted: far above (1/4)^n
            rows = [dataclasses.replace(r, accept_rate=1.0) for r in rows]
        return rows

    stats = _first_cycle(wl, tampered)
    decoys = sum(unit[0] == "decoy" for unit in wl.cycle)
    assert stats.failed == decoys
    assert all("outside Wilson" in f for f in stats.failures)


def test_wrong_ghz_label_is_a_failed_unit():
    wl = workloads.GhzMonteCarlo(3, TINY)
    honest = wl.execute

    def tampered(unit, tracer):
        outcomes = honest(unit, tracer)
        if unit[1] == "ghz" and unit[2] == 4:
            first = outcomes[0]
            other = next(lab for lab in workloads.qn.all_canonical_labels(4) if lab != first.label)
            outcomes[0] = dataclasses.replace(first, label=other)
        return outcomes

    stats = _first_cycle(wl, tampered)
    assert stats.failed == 1 and stats.attempted == len(wl.cycle)


def test_a_repeat_that_differs_from_the_first_run_fails():
    wl = workloads.GhzMonteCarlo(3, TINY)
    stats = _first_cycle(wl)
    assert stats.failed == 0
    honest = wl.execute

    def drifted(unit, tracer):  # inside the oracle's 1e-9, but not the same result
        outcomes = honest(unit, tracer)
        outcomes[0] = dataclasses.replace(outcomes[0], probability=outcomes[0].probability + 1e-12)
        return outcomes

    wl.execute = drifted
    run.run_cycle(wl, tracing.NullTracer(), stats, {i: wl.digest(u, honest(u, None))
                                                    for i, u in enumerate(wl.cycle)})
    assert stats.failed == len(wl.cycle)


def test_a_slower_machine_gives_the_same_scaled_times():
    fast = [(0, i % 3, 30_000_000 + i, 1_000_000) for i in range(20)]
    slow = [(c, i, 2 * wall, 2 * kernel) for c, i, wall, kernel in fast]
    assert run.scaled_seconds(slow) == pytest.approx(run.scaled_seconds(fast))
    assert run.scaled_seconds(fast)[0] == pytest.approx(0.03)


def test_exact_rates_under_noise():
    p = 0.1
    assert workloads.exact_accept_rate("legitimate", 2, "dephasing", p) == pytest.approx(0.82**2)
    assert workloads.exact_accept_rate("legitimate", 1, "depolarizing", p) == pytest.approx(
        0.925**2 + 3 * 0.025**2
    )
    assert workloads.exact_accept_rate("decoy", 3, "depolarizing", p) == 0.25**3
    assert not workloads.binomial_outlier(1, 60, 1e-4)  # one hit on a tiny label is no outlier
    assert workloads.binomial_outlier(30, 60, 0.1)


def test_work_counts_repeat_for_a_seed():
    counts = [_first_cycle(workloads.AuthSweep(5, TINY)).counters[0] for _ in range(2)]
    assert counts[0] == counts[1] and counts[0]["sessions"] > 0
    assert workloads.AuthSweep(6, TINY).cycle != workloads.AuthSweep(5, TINY).cycle


def test_a_run_whose_cycles_count_different_work_fails():
    wl = workloads.AuthSweep(5, TINY)
    wl.setup(tracing.NullTracer())
    honest, calls = wl.counters, []

    def drifting(unit, rows):
        calls.append(unit)
        counted = honest(unit, rows)
        return {**counted, "rounds": counted["rounds"] + (len(calls) > len(wl.cycle))}

    wl.counters = drifting
    stats = run.Stats()
    run.measure(wl, 0, lambda cycle: tracing.NullTracer(), stats, {})
    assert stats.failed == 1 and stats.failures[0].startswith("work counters")


def _expected_per_layer_names() -> set[str]:
    n = lambda values: [f"n{v}" for v in values]  # noqa: E731
    names = {f"statevector.apply_gate.{k}.{m}.us" for k in ("hadamard", "cnot") for m in n((4, 8, 12, 14))}
    names |= {f"statevector.measure_qubit.{m}.us" for m in n((4, 8, 12, 14))}
    names |= {f"statevector.gates_to_matrix.{m}.ms" for m in n((4, 6, 8, 10))}
    names |= {"statevector.gates_to_matrix.calls", "statevector.gates_to_matrix.bytes_computed"}
    names |= {"bell.run_bell_qnd.us", "bell.bell_branch_table.us", "bell.bell_projection_oracle.us"}
    names |= {f"ghz.run_ghz_qnd.{m}.full.us" for m in n(range(2, 7))}
    names |= {f"ghz.run_ghz_qnd.{m}.staged.us" for m in n(range(2, 9))}
    names |= {"ghz.measurements"}
    names |= {f"ghz.ghz_projection_oracle.{m}.us" for m in n((4, 8))}
    names |= {f"ghz.ghz_branch_table.{m}.us" for m in n((4, 6))}
    names |= {f"bell_operator.{s}.{m}.ms" for s in ("build", "eigh") for m in n(range(2, 9))}
    names |= {f"bell_operator.qnd_compatibility_check.{m}.ms" for m in n(range(2, 7))}
    attackers = ("legitimate", "fresh-zero", "fresh-haar", "decoy", "guess")
    names |= {f"auth.verify_session.{a}.{m}.us" for a in attackers for m in n((1, 3))}
    names |= {"auth.verify_session.legitimate-depolarizing.n3.us", "auth.enroll.n3.us"}
    names |= {"auth.attacker_round_distribution.us", "auth.trial_rng.us"}
    names |= {"auth.sessions", "auth.rounds", "auth.accept_ratio", "auth.security_sweep.self_s"}
    commands = ("bell", "ghz", "bellop", "auth")
    names |= {"cli.import.ms"} | {f"cli.{k}.{c}.ms" for k in ("main", "process") for c in commands}
    return names | {"trace.overhead_frac"}


def test_schema_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {name for name, _ in layers.PER_LAYER} == _expected_per_layer_names()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_finishes_and_reports_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "4", "--seconds", "0", "--trace", "0",
                  "--scale", str(TINY))
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = report["report"]["environment"]
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "cpu", "seed"} <= set(env)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "4", "--seconds", "0", "--trace", "1",
                  "--scale", str(TINY))
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"]
    assert report["report"]["missing"] == {}
    assert list(result["metrics"]) == [name for name, _ in layers.PER_LAYER]
    sources = report["report"]["sources"]
    own = "auth.sessions" if workload == "auth-sweep" else "ghz.measurements"
    assert sources[own] == "workload"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "auth-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
