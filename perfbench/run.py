#!/usr/bin/env python3
"""qndnet benchmark: one workload, one process, one thread, BLAS pinned to one.

Run from the root of a checkout:

    python3 perfbench/run.py --workload auth-sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): auth-sweep, ghz-mc.  The inputs come from
``--seed`` alone.  The workload's cycle of units repeats until ``--seconds``
have passed (the cycle in progress is finished).  Every unit's first result is
checked against an exact oracle and every repeat must match it exactly.

With ``--trace 0`` the last line holds the end-to-end metrics:

* ``ops_per_s``: ops of every repeat of every unit over the time they took;
* ``latency_p50_ms`` / ``latency_p90_ms``: median and 90th percentile of the
  wall time of one unit, over every repeat;
* ``setup_s``: imports, input generation, oracle precompute and warm-up, the
  median over this process and fresh children (at least five samples);
* ``peak_rss_mb``: peak resident memory of this process.

On a shared 2-core Xeon VM everything, a pure-Python loop included, ran up
to 1.7x slower for minutes at a time.  So every time above is
given at reference speed: a fixed kernel of interpreter work and small numpy
calls (``reference_ns``) runs before each unit, and a unit's wall time is
scaled by 1 ms over the median kernel time around it.  The report line gives
the unscaled figures too.  The error rate is ``failed / attempted`` on the
last line.  With ``--trace 1`` the last line holds the per-layer metrics of
layers.py instead.  The line before the last is a report: environment, exact
work counters, sample counts, failures and where each per-layer metric came
from.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
# one BLAS thread, set before numpy is loaded here or in any child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Set-up samples: this process, then fresh children until there are at least
#: SETUP_SAMPLES and they add up to SETUP_BUDGET_S, or there are SETUP_MAX.
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 3.0
SETUP_MAX = 15

#: Reference speed: the speed at which ``reference_ns`` takes exactly this long.
REFERENCE_NS = 1_000_000
#: A unit's speed is the median kernel time of this many units on each side.
SPEED_WINDOW = 5
#: Kernel runs whose median scales a set-up time.
SETUP_KERNEL_RUNS = 21
_KERNEL_MATRIX = np.arange(16, dtype=complex).reshape(4, 4) / 16
_KERNEL_VECTOR = np.full(16, 0.25, dtype=complex)


def reference_ns() -> int:
    """Wall time of a fixed mix of interpreter work and small numpy calls.

    The mix is like the workloads' own: Python loops and dict updates, and
    numpy calls on 4x4 to 16x16 complex arrays.  No qndnet code runs in it, so
    a change to qndnet cannot move it; a slower machine slows it as much as
    the workload.  About 1 ms on a 2-core Xeon VM.
    """
    t0 = time.perf_counter_ns()
    acc = 0.0
    table: dict[int, int] = {}
    for i in range(30):
        w = np.kron(_KERNEL_MATRIX, _KERNEL_MATRIX) @ _KERNEL_VECTOR
        acc += float(np.vdot(w, w).real) + abs(_KERNEL_VECTOR[i & 15])
        table[i & 7] = table.get(i & 7, 0) + i
        acc += sum(k * k for k in range(20))
    elapsed = time.perf_counter_ns() - t0
    if not acc > 0:
        raise RuntimeError("reference kernel computed nothing")
    return elapsed


def at_reference_speed(seconds: float) -> float:
    """Seconds this process took, scaled to reference speed by kernel runs made now."""
    kernel = statistics.median(reference_ns() for _ in range(SETUP_KERNEL_RUNS))
    return seconds * REFERENCE_NS / kernel


class Stats:
    """Outcome of the timed loop."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cycles = 0
        #: (cycle, unit index, wall ns, kernel ns before it) of every unit that passed
        self.samples: list[tuple[int, int, int, int]] = []
        #: exact work counts of the first two cycles
        self.counters: list[dict[str, int]] = []

    def fail(self, where: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{where}: {problem}")


def run_cycle(wl, tracer, stats: Stats, reference: dict) -> None:
    """Run every unit of the cycle once, timing, checking and counting it."""
    counted = {} if stats.cycles < 2 else None
    for index, unit in enumerate(wl.cycle):
        stats.attempted += 1
        where = f"cycle {stats.cycles} unit {index}"
        kernel = reference_ns()
        t0 = time.perf_counter_ns()
        try:
            result = wl.execute(unit, tracer)
        except Exception as exc:  # a unit that raises is a failed unit
            stats.fail(where, f"raised {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter_ns() - t0
        try:
            digest = wl.digest(unit, result)
            if index not in reference:
                problem = wl.check(unit, result)
                reference[index] = digest
            elif digest != reference[index]:
                problem = "result differs from the first run of this unit"
            else:
                problem = None
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            stats.fail(where, problem)
            continue
        stats.samples.append((stats.cycles, index, elapsed, kernel))
        if counted is not None:
            for key, value in wl.counters(unit, result).items():
                counted[key] = counted.get(key, 0) + value
    if counted is not None:
        stats.counters.append(counted)
    stats.cycles += 1


def measure(wl, seconds: float, tracer_for_cycle, stats: Stats, reference: dict) -> None:
    """Repeat the cycle until ``seconds`` have passed and two more cycles ran.

    The cycle in progress is finished.  The first two cycles of a run must
    count exactly the same work.
    """
    deadline = time.perf_counter() + seconds
    stop = stats.cycles + 2
    while True:
        run_cycle(wl, tracer_for_cycle(stats.cycles), stats, reference)
        if time.perf_counter() >= deadline and stats.cycles >= stop:
            break
    if len(stats.counters) == 2 and stats.counters[0] != stats.counters[1]:
        stats.fail("work counters", f"cycle 0 counted {stats.counters[0]}, "
                                    f"cycle 1 counted {stats.counters[1]}")


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), q in (0, 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def scaled_seconds(samples: list[tuple[int, int, int, int]]) -> list[float]:
    """Each sample's wall time at reference speed, by the kernel times around it."""
    kernels = [s[3] for s in samples]
    return [
        wall * 1e-9 * REFERENCE_NS
        / statistics.median(kernels[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1])
        for i, (_, _, wall, _) in enumerate(samples)
    ]


def timings(wl, samples: list[tuple[int, int, int, int]]) -> dict:
    """Throughput and latency percentiles over every repeat, scaled and as measured."""
    ops = sum(wl.ops(wl.cycle[s[1]]) for s in samples)
    scaled = scaled_seconds(samples)
    wall = [s[2] * 1e-9 for s in samples]
    p90 = quantile(scaled, 0.9)
    return {
        "ops_per_s": ops / sum(scaled),
        "latency_p50_ms": quantile(scaled, 0.5) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "samples": len(scaled),
        "beyond_p90": sum(x > p90 for x in scaled),
        "kernel_ms": {q: quantile([s[3] * 1e-6 for s in samples], q) for q in (0.1, 0.5, 0.9)},
        "unscaled": {
            "ops_per_s": ops / sum(wall),
            "latency_p50_ms": quantile(wall, 0.5) * 1e3,
            "latency_p90_ms": quantile(wall, 0.9) * 1e3,
        },
    }


def setup_samples(args, own: float) -> list[float]:
    """Set-up times at reference speed: this process's, then fresh children's."""
    samples = [own]
    while len(samples) < SETUP_SAMPLES or (sum(samples) < SETUP_BUDGET_S and len(samples) < SETUP_MAX):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", str(args.scale), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples


def environment(args, wl) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "workload": wl.name,
        "op": wl.op,
        "cycle_units": len(wl.cycle),
        "reference_ns": REFERENCE_NS,
    }


def blas_threads() -> str:
    """Threads OpenBLAS reports, read through ctypes, else the pinned variable."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                return str(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, wl, setup_s: float) -> tuple[dict, dict, Stats]:
    import tracing

    setup = setup_samples(args, setup_s)
    stats = Stats()
    null = tracing.NullTracer()
    measure(wl, args.seconds, lambda cycle: null, stats, {})
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t = timings(wl, stats.samples) if stats.samples else None
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kib / 1024.0,
        **({k: t[k] for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms")} if t else {}),
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END if name in values}
    extra = {
        "timings": t,
        "setup_samples_s": setup,
        "error_rate": stats.failed / stats.attempted,
    }
    return metrics, extra, stats


def traced(args, wl, tracer, setup_stop: int) -> tuple[dict, dict, Stats]:
    import layers
    import tracing

    stats = Stats()
    reference: dict = {}
    null = tracing.NullTracer()
    # two traced cycles: their span counts must be identical too
    run_cycle(wl, tracer, stats, reference)
    first_stop = len(tracer.spans)
    run_cycle(wl, tracer, stats, reference)
    first = layers.counts(tracer, setup_stop, first_stop)
    second = layers.counts(tracer, first_stop)
    if first != second:
        stats.fail("span counters", f"cycle 0 counted {first}, cycle 1 counted {second}")

    def is_traced(cycle: int) -> bool:
        return cycle < 2 or cycle % 2 == 0

    def alternate(cycle: int):  # traced and untraced cycles alternate, so drift hits both alike
        if is_traced(cycle):
            tracer.install()
            return tracer
        tracer.uninstall()
        return null

    measure(wl, args.seconds, alternate, stats, reference)
    tracer.install()
    workload_stop = len(tracer.spans)
    traced_cycles = sum(map(is_traced, range(stats.cycles)))

    probe = layers.Probe(tracer, args.seed, args.scale)
    values, sources, missing = layers.collect(
        tracer, probe, (setup_stop, first_stop, workload_stop), traced_cycles,
        stats.counters[0] if stats.counters else {},
    )
    split: dict[bool, list] = {True: [], False: []}
    for sample in stats.samples:
        split[is_traced(sample[0])].append(sample)
    rate = {k: timings(wl, v)["ops_per_s"] for k, v in split.items() if v}
    if len(rate) == 2:
        values["trace.overhead_frac"] = 1.0 - rate[True] / rate[False]
        sources["trace.overhead_frac"] = "workload"
        del missing["trace.overhead_frac"]
    metrics = {name: metric(values[name], unit) for name, unit in layers.PER_LAYER if name in values}
    extra = {
        **layers.rounds_per_s(tracer, setup_stop, workload_stop),
        "ops_per_s_traced": rate.get(True),
        "ops_per_s_untraced": rate.get(False),
        "spans": len(tracer.spans),
        "span_counts_setup_plus_cycle0": layers.counts(tracer, 0, first_stop),
        "sources": sources,
        "missing": missing,
    }
    return metrics, extra, stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply trial, shot and repeat counts (tests use 0.05)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qndnet" / "__init__.py").is_file():
        print(f"error: no qndnet sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if not Path(workloads.qn.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: qndnet was imported from {workloads.qn.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()  # set-up work is traced too
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    wl.setup(tracer)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": at_reference_speed(setup_s)}))
        return 0

    if args.trace:
        metrics, extra, stats = traced(args, wl, tracer, len(tracer.spans))
    else:
        metrics, extra, stats = untraced(args, wl, at_reference_speed(setup_s))
    report = {
        "environment": environment(args, wl),
        "cycles": stats.cycles,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "failures": stats.failures,
        "work_counts_per_cycle": stats.counters[0] if stats.counters else {},
        **extra,
    }
    if report["work_counts_per_cycle"].get("sessions"):
        counts = report["work_counts_per_cycle"]
        report["accept_ratio"] = counts["accepted"] / counts["sessions"]
    print(json.dumps({"report": report}))
    correct = stats.failed == 0 and stats.samples != []
    print(json.dumps({
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
