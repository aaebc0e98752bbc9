"""Per-layer metrics of the traced run, and the probes that fill them.

A timing metric is the median inclusive duration of the spans whose name is
the metric name without its unit suffix (``bell.run_bell_qnd.us`` <- spans
``bell.run_bell_qnd``).  It comes from the workload's own calls when the
workload makes them; otherwise a probe below makes a few calls of the same
public function, so every traced run reports every metric.  The report names
the source of each metric.

Counters count work, not calls: sessions, rounds and accepted sessions come
from the rows ``security_sweep`` returns, GHZ measurements from the shots a
workload or probe asked for.  They cover set-up plus the first cycle, which
is fixed for a seed; the runner checks that the second cycle repeats the
first exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

import qndnet as qn
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_NS = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}

TIMINGS = (
    [f"statevector.apply_gate.{k}.n{n}.us" for k in ("hadamard", "cnot") for n in (4, 8, 12, 14)]
    + [f"statevector.measure_qubit.n{n}.us" for n in (4, 8, 12, 14)]
    + [f"statevector.gates_to_matrix.n{n}.ms" for n in (4, 6, 8, 10)]
    + ["bell.run_bell_qnd.us", "bell.bell_branch_table.us", "bell.bell_projection_oracle.us"]
    + [f"ghz.run_ghz_qnd.n{n}.full.us" for n in range(2, 7)]
    + [f"ghz.run_ghz_qnd.n{n}.staged.us" for n in range(2, 9)]
    + [f"ghz.ghz_projection_oracle.n{n}.us" for n in (4, 8)]
    + [f"ghz.ghz_branch_table.n{n}.us" for n in (4, 6)]
    + [f"bell_operator.build.n{n}.ms" for n in range(2, 9)]
    + [f"bell_operator.eigh.n{n}.ms" for n in range(2, 9)]
    + [f"bell_operator.qnd_compatibility_check.n{n}.ms" for n in range(2, 7)]
    + [f"auth.verify_session.{a}.n{n}.us" for a in workloads._ATTACKERS for n in (1, 3)]
    + ["auth.verify_session.legitimate-depolarizing.n3.us", "auth.enroll.n3.us"]
    + ["auth.attacker_round_distribution.us", "auth.trial_rng.us", "cli.import.ms"]
    + [f"cli.main.{c}.ms" for c in ("bell", "ghz", "bellop", "auth")]
    + [f"cli.process.{c}.ms" for c in ("bell", "ghz", "bellop", "auth")]
)

COUNTERS = (
    ("statevector.gates_to_matrix.calls", "count"),
    ("statevector.gates_to_matrix.bytes_computed", "B"),
    ("ghz.measurements", "count"),
    ("auth.sessions", "count"),
    ("auth.rounds", "count"),
    ("auth.accept_ratio", "fraction"),
    ("auth.security_sweep.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
)

PER_LAYER = [(name, name.rsplit(".", 1)[1]) for name in TIMINGS] + list(COUNTERS)


def span_name(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


def counts(tracer, start: int, stop: int | None = None) -> dict[str, int]:
    """Exact work counts over spans[start:stop] (sweep spans carry their rows' counts)."""
    g2m = tracer.matching("statevector.gates_to_matrix.", start, stop)
    sweeps = [s[4] for s in tracer.matching("auth.security_sweep.", start, stop)]
    return {
        "statevector.gates_to_matrix.calls": len(g2m),
        "statevector.gates_to_matrix.bytes_computed": sum(s[4] for s in g2m),
        "auth.sessions": sum(v[0] for v in sweeps),
        "auth.rounds": sum(v[1] for v in sweeps),
        "auth.accepted": sum(v[2] for v in sweeps),
    }


def build_operator(n: int, tracer):
    """The canonical operator for n parts and its spectrum."""
    with tracer.span(f"bell_operator.build.n{n}"):
        spec = qn.canonical_spec(n)
        observable = qn.chsh_operator(spec) if n == 2 else qn.bell_operator_n(spec)
    with tracer.span(f"bell_operator.eigh.n{n}"):
        values, _ = np.linalg.eigh(observable)
    return observable, values


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str]) -> int:
    """Run one ``python -m qndnet.cli`` child to the end; its exit code."""
    return subprocess.run(
        [sys.executable, "-m", "qndnet.cli", *argv], cwd=ROOT, env=cli_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def cli_argvs(seed: int) -> dict[str, list[str]]:
    """One criterion-8 invocation per CLI command, with seeds drawn from ``seed``.

    The auth sweep is the cheapest of criterion 8's, the 2-pair depolarizing
    one, at 200 trials: start-up and imports dominate the process.
    """
    s = [str(v) for v in np.random.default_rng(seed).integers(0, 2**31, size=3)]
    return {
        "bell": ["bell", "--input", "phi-", "--seed", s[0]],
        "ghz": ["ghz", "--n", "4", "--random-input", "--seed", s[1]],
        "bellop": ["bellop", "--n", "3", "--eigen"],
        "auth": ["auth", "simulate", "--pairs", "2", "--trials", "200", "--noise",
                 "depolarizing", "--p", "0.2", "--seed", s[2], "--out", "csv"],
    }


# -- probes: each takes the metric names still missing and calls the API for them --


class Probe:
    def __init__(self, tracer, seed: int, scale: float) -> None:
        self.tracer = tracer
        self.rng = np.random.default_rng((seed, 0x9B0))
        self.seed = seed
        self.scale = scale
        #: shots of run_ghz_qnd the probe asked for
        self.ghz_measurements = 0
        #: probe name -> (first span, end) of the spans it recorded
        self.ranges: dict[str, tuple[int, int]] = {}

    def reps(self, full: int) -> int:
        return max(1, int(full * self.scale))

    def state(self, n: int) -> qn.StateVector:
        return workloads._random_state(n, self.rng)

    def kernels(self, missing):
        for metric in missing:
            parts = metric.split(".")
            n = int(parts[-2][1:])
            state = self.state(n)
            reps = self.reps(200 if n < 12 else 50)
            if parts[1] == "measure_qubit":
                for draw in self.rng.random(reps):
                    qn.measure_qubit(state, n // 2, float(draw))
            else:
                gate = qn.hadamard(n // 2) if parts[2] == "hadamard" else qn.cnot(0, n - 1)
                for _ in range(reps):
                    qn.apply_gate(state, gate)

    def gates_to_matrix(self, missing):
        for metric in missing:
            n = int(metric.split(".")[-2][1:])
            gates = qn.ghz_network_gate_list(n // 2)
            for _ in range(self.reps({4: 20, 6: 10, 8: 3}.get(n, 1))):
                qn.gates_to_matrix(gates, n)

    def bell(self, missing):
        state = self.state(2)
        for metric in missing:
            if metric == "bell.run_bell_qnd.us":
                for draws in self.rng.random((self.reps(200), 2)):
                    qn.run_bell_qnd(state, draws=draws)
            elif metric == "bell.bell_branch_table.us":
                for _ in range(self.reps(50)):
                    qn.bell_branch_table(state)
            else:
                for _ in range(self.reps(50)):
                    qn.bell_projection_oracle(state)

    def ghz(self, missing):
        for metric in missing:
            parts = metric.split(".")
            n = int(parts[2][1:])
            state = self.state(n)
            if parts[1] == "run_ghz_qnd":
                shots = self.rng.random((self.reps(50), n))
                for draws in shots:
                    qn.run_ghz_qnd(state, draws=draws, staged=parts[3] == "staged")
                self.ghz_measurements += len(shots)
            elif parts[1] == "ghz_projection_oracle":
                for _ in range(self.reps(20 if n < 8 else 5)):
                    qn.ghz_projection_oracle(state)
            else:
                for _ in range(self.reps(10 if n < 6 else 3)):
                    qn.ghz_branch_table(state)

    def operator(self, missing):
        ns = sorted({int(m.split(".")[2][1:]) for m in missing})
        for n in ns:
            for _ in range(self.reps(5)):
                build_operator(n, self.tracer)

    def compat(self, missing):
        for metric in missing:
            n = int(metric.split(".")[2][1:])
            spec = qn.canonical_spec(n)
            observable = qn.chsh_operator(spec) if n == 2 else qn.bell_operator_n(spec)
            network = qn.bell_network_unitary_steps() if n == 2 else qn.ghz_network_gate_list(n)
            for _ in range(self.reps(5) if n <= 4 else 1):
                qn.qnd_compatibility_check(observable, network)

    def auth(self, missing):
        trials = self.reps(40)
        for token in workloads._ATTACKERS:
            qn.security_sweep([1, 3], qn.auth.parse_attacker(token), trials, self.seed)
        qn.security_sweep(
            [3], qn.AttackerModel.LEGITIMATE, trials, self.seed, qn.NoiseSpec("depolarizing", 0.1)
        )

    def trial_rng(self, missing):
        # a trial generator plus one legitimate n = 3 session's draws (two per round)
        for t in range(self.reps(2000)):
            with self.tracer.span("auth.trial_rng"):
                rng = np.random.default_rng((self.seed, 3, t))
                for _ in range(3):
                    rng.random(2)

    def cli_import(self, missing):
        code = "import time; t = time.perf_counter(); import qndnet.cli; print(time.perf_counter() - t)"
        for _ in range(3):
            out = subprocess.run(
                [sys.executable, "-c", code],
                cwd=ROOT,
                env=cli_env(),
                capture_output=True,
                check=True,
                text=True,
            ).stdout
            self.tracer.record("cli.import", int(float(out) * 1e9))

    def cli_main(self, missing):
        cli = sys.modules["qndnet.cli"]  # cli.main is the traced wrapper unless paused
        for metric in missing:
            argv = cli_argvs(self.seed)[metric.split(".")[2]]
            with self.tracer.paused(), redirect_stdout(StringIO()):
                cli.main(list(argv))  # warm: the metric is the in-process cost with caches filled
            for _ in range(self.reps(3)):
                with redirect_stdout(StringIO()):
                    if cli.main(list(argv)) != 0:
                        raise RuntimeError(f"qnd {' '.join(argv)} failed")

    def cli_process(self, missing):
        for metric in missing:
            command = metric.split(".")[2]
            argv = cli_argvs(self.seed)[command]
            for _ in range(3):
                with self.tracer.span(f"cli.process.{command}"):
                    code = run_process(argv)
                if code != 0:
                    raise RuntimeError(f"qnd {' '.join(argv)} exited with {code}")

    def groups(self):
        return (
            ("statevector.apply_gate.", self.kernels),
            ("statevector.measure_qubit.", self.kernels),
            ("statevector.gates_to_matrix.n", self.gates_to_matrix),
            ("bell.", self.bell),
            ("ghz.", self.ghz),
            ("bell_operator.build.", self.operator),
            ("bell_operator.eigh.", self.operator),
            ("bell_operator.qnd_compatibility_check.", self.compat),
            ("auth.verify_session.", self.auth),
            ("auth.enroll.", self.auth),
            ("auth.attacker_round_distribution", self.auth),
            ("auth.trial_rng", self.trial_rng),
            ("cli.import", self.cli_import),
            ("cli.main.", self.cli_main),
            ("cli.process.", self.cli_process),
        )


def fill_missing(tracer, probe: Probe, present: set[str], need_auth_counts: bool) -> dict[str, str]:
    """Run probes for every timing metric without spans; returns metric -> failure reason."""
    todo: dict = {}
    for metric in TIMINGS:
        if span_name(metric) in present:
            continue
        fn = next(fn for prefix, fn in probe.groups() if metric.startswith(prefix))
        todo.setdefault(fn, []).append(metric)
    if need_auth_counts:
        todo.setdefault(probe.auth, [])
    failures = {}
    for fn, missing in todo.items():
        start = len(tracer.spans)
        try:
            fn(missing)
        except Exception as exc:  # report the metric as missing, keep the run going
            for metric in missing:
                failures[metric] = f"probe failed: {type(exc).__name__}: {exc}"
        probe.ranges[fn.__name__] = (start, len(tracer.spans))
    return failures


def timing_value(tracer, metric: str, workload_stop: int) -> tuple[float | None, str]:
    """(value in the metric's unit, source): the workload's spans first, else the probe's."""
    name, unit = span_name(metric), metric.rsplit(".", 1)[1]
    value = tracer.median_ns(name, 0, workload_stop)
    source = "workload"
    if value is None:
        value, source = tracer.median_ns(name, workload_stop), "probe"
    return (None if value is None else value * _NS[unit]), source


def collect(tracer, probe: Probe, marks: tuple[int, int, int], traced_cycles: int,
            workload_counts: dict[str, int]):
    """Per-layer values of a traced run: (values, sources, missing with reasons).

    ``marks`` are the span indices where set-up, the first cycle and the
    workload's timed loop end; probes run after the last.  ``workload_counts``
    are the workload's own counters for its first cycle.
    """
    setup_stop, first_stop, workload_stop = marks
    window = counts(tracer, 0, first_stop)
    window["ghz.measurements"] = workload_counts.get("ghz_measurements", 0)
    failures = fill_missing(
        tracer, probe, tracer.names_in(0, workload_stop), window["auth.sessions"] == 0
    )
    tracer.uninstall()

    values, sources = {}, {}
    for name in TIMINGS:
        value, source = timing_value(tracer, name, workload_stop)
        if value is not None:
            values[name], sources[name] = value, source

    def probed(group: str) -> dict:  # counts of the probe that did this layer's work
        found = counts(tracer, *probe.ranges.get(group, (workload_stop, workload_stop)))
        return {**found, "ghz.measurements": probe.ghz_measurements}

    for name, group in (("statevector.gates_to_matrix.calls", "gates_to_matrix"),
                        ("statevector.gates_to_matrix.bytes_computed", "gates_to_matrix"),
                        ("ghz.measurements", "ghz")):
        value, source = window[name], "workload"
        if not value:
            value, source = probed(group)[name], "probe"
        if value:
            values[name], sources[name] = value, source
    source = "workload" if window["auth.sessions"] else "probe"
    auth = window if source == "workload" else probed("auth")
    if auth["auth.sessions"]:
        values["auth.sessions"] = auth["auth.sessions"]
        values["auth.rounds"] = auth["auth.rounds"]
        values["auth.accept_ratio"] = auth["auth.accepted"] / auth["auth.sessions"]
        if source == "workload":  # per traced cycle of the workload
            self_ns = tracer.self_ns("auth.security_sweep", setup_stop, workload_stop) / traced_cycles
        else:
            self_ns = tracer.self_ns("auth.security_sweep", *probe.ranges["auth"])
        values["auth.security_sweep.self_s"] = self_ns * 1e-9
        for name in ("auth.sessions", "auth.rounds", "auth.accept_ratio",
                     "auth.security_sweep.self_s"):
            sources[name] = source

    failures.setdefault("trace.overhead_frac", "too short for a traced and an untraced cycle")
    missing = {name: failures.get(name, "no spans or counts recorded") for name, _ in PER_LAYER
               if name not in values}
    return values, sources, missing


def rounds_per_s(tracer, start: int, stop: int) -> dict:
    """Auth rounds per second, to set beside the ROADMAP's informal baseline.

    Whole sweeps (per-trial generators included) and single sessions (median).
    """
    names = sorted(tracer.names_in(start, stop))
    sweeps = {}
    for name in (n for n in names if n.startswith("auth.security_sweep.")):
        spans = [s for s in tracer.spans[start:stop] if s[0] == name]
        sweeps[name] = sum(s[4][1] for s in spans) * 1e9 / sum(s[2] - s[1] for s in spans)
    sessions = {
        name: int(name.rsplit(".n", 1)[1]) * 1e9 / tracer.median_ns(name, start, stop)
        for name in names
        if name.startswith("auth.verify_session.")
    }
    return {"security_sweep_rounds_per_s": sweeps, "verify_session_rounds_per_s": sessions}
