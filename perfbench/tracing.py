"""In-memory spans around calls into qndnet's public functions.

A traced run replaces selected public functions, in every loaded ``qndnet``
module that refers to them, with wrappers that record one span per call.  A
span is ``[name, start_ns, end_ns, parent_index, value]``; ``value`` carries
the work a call did where the arguments or result tell it (bytes computed;
sessions, rounds and accepted sessions of a sweep).  Spans stay in memory and
are summarised when the run ends.  ``install`` and ``uninstall`` swap the
wrappers in and out, so one process can time the same work traced and
untraced.

The wrappers pass every argument and return value through unchanged.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter_ns


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Stands in for a tracer in untraced runs; records nothing."""

    def span(self, name: str, value=None) -> _NullSpan:
        return _NULL_SPAN

    def paused(self) -> _NullSpan:
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "value", "index")

    def __init__(self, tracer: "Tracer", name: str, value) -> None:
        self.tracer, self.name, self.value = tracer, name, value

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else -1
        t.spans.append([self.name, perf_counter_ns(), 0, parent, self.value])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter_ns()
        t._stack.pop()
        return False


def _arg(args: tuple, kwargs: dict, position: int, key: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(key, default)


class Tracer:
    """Records spans; ``install`` wraps the public functions listed in ``_WRAPS``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name: str, value=None) -> _Span:
        return _Span(self, name, value)

    def record(self, name: str, duration_ns: int) -> None:
        """A span timed elsewhere, such as inside a child process."""
        end = perf_counter_ns()
        self.spans.append([name, end - duration_ns, end, -1, None])

    # -- instrumentation --

    def install(self) -> None:
        if self._patches:
            return
        for module_name, func_name, make in _WRAPS:
            home = importlib.import_module(module_name)
            original = getattr(home, func_name)
            wrapper = make(self, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "qndnet" and not mod_name.startswith("qndnet."):
                    continue
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapper)
                    self._patches.append((module, func_name, original))

    def uninstall(self) -> None:
        for module, func_name, original in self._patches:
            setattr(module, func_name, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Calls made inside are not traced (the benchmark's own oracle work)."""
        installed = bool(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    # -- summaries --

    def names_in(self, start: int, stop: int | None = None) -> set[str]:
        return {s[0] for s in self.spans[start:stop]}

    def durations(self, name: str, start: int = 0, stop: int | None = None) -> list[int]:
        return [s[2] - s[1] for s in self.spans[start:stop] if s[0] == name]

    def median_ns(self, name: str, start: int = 0, stop: int | None = None) -> float | None:
        d = self.durations(name, start, stop)
        return statistics.median(d) if d else None

    def matching(self, prefix: str, start: int = 0, stop: int | None = None) -> list[list]:
        return [s for s in self.spans[start:stop] if s[0].startswith(prefix)]

    def self_ns(self, prefix: str, start: int = 0, stop: int | None = None) -> int:
        """Summed self time (duration minus direct children) of spans named ``prefix*``."""
        stop = len(self.spans) if stop is None else stop
        child_time: dict[int, int] = {}
        for s in self.spans[start:stop]:
            if s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0) + s[2] - s[1]
        return sum(
            s[2] - s[1] - child_time.get(i, 0)
            for i, s in enumerate(self.spans[start:stop], start=start)
            if s[0].startswith(prefix)
        )


# -- wrappers: one per public function whose calls the per-layer metrics need --


def _wrapper(namer, valuer=None):
    def make(tracer: Tracer, fn):
        def wrapped(*args, **kwargs):
            with tracer.span(namer(*args, **kwargs)) as span:
                result = fn(*args, **kwargs)
            if valuer is not None:
                tracer.spans[span.index][4] = valuer(args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    return make


def _make_gates_to_matrix(tracer: Tracer, fn):
    def wrapped(gates, num_qubits):
        gates = tuple(gates)
        dim = 1 << num_qubits
        # computed from sizes: one dim-long complex vector per (column, gate),
        # plus the dim x dim output
        computed = 16 * (dim * len(gates) * dim + dim * dim)
        with tracer.span(f"statevector.gates_to_matrix.n{num_qubits}", computed):
            return fn(gates, num_qubits)

    wrapped.__wrapped__ = fn
    return wrapped


def _gate_family(gate) -> str:
    kind = gate.kind.value
    return "hadamard" if kind.startswith("hadamard") else kind


def _staged(args, kwargs) -> str:
    n = args[0].num_qubits
    staged = _arg(args, kwargs, 3, "staged")
    if staged is None:
        staged = n > getattr(sys.modules["qndnet.ghz"], "FULL_REGISTER_LIMIT", 6)
    return f"ghz.run_ghz_qnd.n{n}.{'staged' if staged else 'full'}"


def _noise_suffix(noise) -> str:
    return "" if noise is None or noise.model == "none" else f"-{noise.model}"


def _sweep_name(*args, **kwargs) -> str:
    attacker = _arg(args, kwargs, 1, "attacker")
    return f"auth.security_sweep.{attacker.value}{_noise_suffix(_arg(args, kwargs, 4, 'noise'))}"


def _session_name(*args, **kwargs) -> str:
    account = args[0]
    attacker = _arg(args, kwargs, 1, "attacker")
    noise = _arg(args, kwargs, 2, "noise")
    token = "legitimate" if attacker is None else attacker.value
    return f"auth.verify_session.{token}{_noise_suffix(noise)}.n{account.num_pairs}"


def _sweep_counts(rows) -> tuple[int, int, int]:
    sessions = sum(r.trials for r in rows)
    rounds = sum(r.n * r.trials for r in rows)
    accepted = sum(round(r.accept_rate * r.trials) for r in rows)
    return sessions, rounds, accepted


def _log2_dim(matrix) -> int:
    return len(matrix).bit_length() - 1


_WRAPS = (
    ("qndnet.statevector", "gates_to_matrix", _make_gates_to_matrix),
    (
        "qndnet.statevector",
        "apply_gate",
        _wrapper(lambda s, g: f"statevector.apply_gate.{_gate_family(g)}.n{s.num_qubits}"),
    ),
    (
        "qndnet.statevector",
        "measure_qubit",
        _wrapper(lambda s, *a, **k: f"statevector.measure_qubit.n{s.num_qubits}"),
    ),
    ("qndnet.bell", "run_bell_qnd", _wrapper(lambda *a, **k: "bell.run_bell_qnd")),
    ("qndnet.bell", "bell_branch_table", _wrapper(lambda *a, **k: "bell.bell_branch_table")),
    (
        "qndnet.bell",
        "bell_projection_oracle",
        _wrapper(lambda *a, **k: "bell.bell_projection_oracle"),
    ),
    ("qndnet.ghz", "run_ghz_qnd", _wrapper(lambda *a, **k: _staged(a, k))),
    (
        "qndnet.ghz",
        "ghz_projection_oracle",
        _wrapper(lambda s, *a, **k: f"ghz.ghz_projection_oracle.n{s.num_qubits}"),
    ),
    (
        "qndnet.ghz",
        "ghz_branch_table",
        _wrapper(lambda s, *a, **k: f"ghz.ghz_branch_table.n{s.num_qubits}"),
    ),
    (
        "qndnet.bell_operator",
        "qnd_compatibility_check",
        _wrapper(lambda b, *a, **k: f"bell_operator.qnd_compatibility_check.n{_log2_dim(b)}"),
    ),
    (
        "qndnet.auth",
        "security_sweep",
        # value: (sessions, rounds, accepted sessions), from the rows
        _wrapper(_sweep_name, lambda a, k, rows: _sweep_counts(rows)),
    ),
    ("qndnet.auth", "enroll", _wrapper(lambda n, *a, **k: f"auth.enroll.n{n}")),
    (
        "qndnet.auth",
        "attacker_round_distribution",
        _wrapper(lambda *a, **k: "auth.attacker_round_distribution"),
    ),
    ("qndnet.auth", "verify_session", _wrapper(_session_name)),
    (
        "qndnet.cli",
        "main",
        _wrapper(lambda argv=None: f"cli.main.{(argv or sys.argv[1:])[0]}"),
    ),
)
