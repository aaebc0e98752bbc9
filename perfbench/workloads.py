"""The benchmark's workloads: seeded inputs, exact oracles and checks.

Each workload is a closed loop with one caller.  Its inputs are a fixed
*cycle* of units made from the seed.  The runner repeats the cycle until the
time is up and always finishes the cycle it is in, so every unit kind is
equally represented in the latency sample.  Units are deterministic: a repeat
must reproduce the first run's result exactly (``digest``), and only first
runs need the full oracle ``check``.

Trial and shot counts are sized so each unit costs about the same (30-40 ms
at the seed commit on a 2-core Xeon with one BLAS thread): every unit then
repeats dozens of times in a run, and no unit dominates ``ops_per_s``.
``scale`` multiplies trial and shot counts and changes nothing else.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import qndnet as qn

#: z of the Wilson interval every Monte Carlo rate is checked with.
WILSON_Z = 5.0
#: One-sided normal tail at 5 sigma: a count this unlikely under the oracle fails.
FIVE_SIGMA_TAIL = 2.866515718791939e-07
NOISE_P = 0.1


def wilson(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval, written here so the check does not trust the program's."""
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return center - half, center + half


def exact_accept_rate(attacker: str, n: int, noise: str, p: float) -> float:
    """Session acceptance probability at threshold 1, exact for these cells.

    A legitimate round matches iff the two noise Paulis leave the Bell label
    alone (none or the same Pauli on both qubits); a card-less attacker sees a
    uniform label whatever the noise.
    """
    if attacker != "legitimate":
        return 0.25**n
    if noise == "none":
        return 1.0
    if noise == "dephasing":
        return ((1 - p) ** 2 + p**2) ** n
    return ((1 - 3 * p / 4) ** 2 + 3 * (p / 4) ** 2) ** n


def binomial_outlier(count: int, trials: int, p: float) -> bool:
    """True when ``count`` of ``trials`` lies beyond 5 sigma of Binomial(trials, p).

    Inside mean +- 5 sigma always passes; outside, the exact binomial tail
    decides, which keeps labels with tiny expected counts from failing on a
    single hit.
    """
    if p <= 0.0 or p >= 1.0:
        return count != round(p * trials)
    mean = trials * p
    if abs(count - mean) <= 5.0 * math.sqrt(trials * p * (1 - p)):
        return False
    ks = range(count, trials + 1) if count > mean else range(0, count + 1)
    lp, lq = math.log(p), math.log1p(-p)
    lg = math.lgamma(trials + 1)
    tail = sum(
        math.exp(lg - math.lgamma(k + 1) - math.lgamma(trials - k + 1) + k * lp + (trials - k) * lq)
        for k in ks
    )
    return tail < FIVE_SIGMA_TAIL


def _random_state(n: int, rng: np.random.Generator) -> qn.StateVector:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return qn.StateVector(n, amps / np.linalg.norm(amps))


def _hash_arrays(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    """Interface the runner drives; subclasses fill in the cycle and the checks."""

    name: str
    #: What one op is, for the report.
    op: str
    cycle: list

    def setup(self, tracer) -> None:
        """Oracle precompute and warm-up (inputs are made in ``__init__``)."""

    def execute(self, unit, tracer):
        raise NotImplementedError

    def ops(self, unit) -> int:
        return 1

    def check(self, unit, result) -> str | None:
        """None if the result is correct, else what is wrong."""
        raise NotImplementedError

    def digest(self, unit, result):
        raise NotImplementedError

    def counters(self, unit, result) -> dict[str, int]:
        """Exact work counts of one unit."""
        return {}


# -- auth-sweep --

_ATTACKERS = ("legitimate", "fresh-zero", "fresh-haar", "decoy", "guess")
# (attacker, n, noise, trials): about 30 ms per cell at the seed commit
AUTH_CELLS = (
    ("legitimate", 1, "none", 700),
    ("legitimate", 2, "none", 500),
    ("legitimate", 3, "none", 400),
    ("fresh-zero", 1, "none", 300),
    ("fresh-zero", 2, "none", 185),
    ("fresh-zero", 3, "none", 150),
    ("fresh-haar", 1, "none", 255),
    ("fresh-haar", 2, "none", 150),
    ("fresh-haar", 3, "none", 120),
    ("decoy", 1, "none", 265),
    ("decoy", 2, "none", 165),
    ("decoy", 3, "none", 115),
    ("guess", 1, "none", 250),
    ("guess", 2, "none", 155),
    ("guess", 3, "none", 110),
    ("legitimate", 3, "depolarizing", 315),
    ("legitimate", 3, "dephasing", 315),
    ("decoy", 3, "depolarizing", 105),
)


class AuthSweep(Workload):
    name = "auth-sweep"
    op = "session"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31, size=len(AUTH_CELLS))
        self.cycle = [
            (attacker, n, noise, max(2, int(trials * scale)), int(s))
            for (attacker, n, noise, trials), s in zip(AUTH_CELLS, seeds)
        ]

    @staticmethod
    def _noise(model: str) -> qn.NoiseSpec:
        return qn.NOISELESS if model == "none" else qn.NoiseSpec(model, NOISE_P)

    def setup(self, tracer) -> None:
        self.expected = {
            unit: exact_accept_rate(unit[0], unit[1], unit[2], NOISE_P) for unit in self.cycle
        }
        for attacker, n, noise, _, seed in self.cycle:  # warm-up: fills the layout caches
            qn.security_sweep([n], qn.auth.parse_attacker(attacker), 2, seed, self._noise(noise))

    def execute(self, unit, tracer):
        attacker, n, noise, trials, seed = unit
        return qn.security_sweep(
            [n], qn.auth.parse_attacker(attacker), trials, seed, self._noise(noise)
        )

    def ops(self, unit) -> int:
        return unit[3]

    def check(self, unit, rows) -> str | None:
        attacker, n, noise, trials, _ = unit
        if len(rows) != 1:
            return f"expected one row, got {len(rows)}"
        row = rows[0]
        echoed = (row.n, row.attacker, row.noise, row.trials)
        if echoed != (n, attacker, noise, trials):
            return f"row echoes {echoed}, asked for {(n, attacker, noise, trials)}"
        successes = round(row.accept_rate * trials)
        if abs(successes - row.accept_rate * trials) > 1e-6:
            return f"accept_rate {row.accept_rate} is not a count over {trials}"
        expected = self.expected[unit]
        if expected == 1.0:
            if row.accept_rate != 1.0:
                return f"noiseless legitimate accept_rate {row.accept_rate} != 1"
            return None
        low, high = wilson(successes, trials)
        if not low <= expected <= high:
            return f"exact rate {expected:.6g} outside Wilson z=5 [{low:.6g}, {high:.6g}]"
        return None

    def digest(self, unit, rows):
        return tuple(tuple(sorted(row.to_dict().items())) for row in rows)

    def counters(self, unit, rows) -> dict[str, int]:
        _, n, _, trials, _ = unit
        accepted = sum(round(row.accept_rate * row.trials) for row in rows)
        return {"sessions": trials, "rounds": n * trials, "accepted": accepted}


# -- ghz-mc --

# (kind, n, shots): about the same time per block (20-40 ms at the seed commit)
GHZ_BLOCKS = (
    ("bell", 2, 420),
    ("ghz", 2, 400),
    ("ghz", 3, 280),
    ("ghz", 4, 200),
    ("ghz", 5, 120),
    ("ghz", 6, 60),
    ("ghz", 7, 90),
    ("ghz", 8, 80),
)


class GhzMonteCarlo(Workload):
    name = "ghz-mc"
    op = "measurement"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = np.random.default_rng(seed)
        self.cycle = []
        self.inputs = {}
        for index, (kind, n, shots) in enumerate(GHZ_BLOCKS):
            shots = max(2, int(shots * scale))
            state = _random_state(n, rng)
            self.inputs[index] = (state, rng.random((shots, n)))
            self.cycle.append((index, kind, n, shots))

    def setup(self, tracer) -> None:
        self.oracle = {}
        for index, kind, n, _ in self.cycle:
            state, draws = self.inputs[index]
            if kind == "bell":
                probs = {lab.token: p for lab, p, _ in qn.bell_projection_oracle(state)}
                table = qn.bell_branch_table(state)
                targets = {lab.token: qn.bell_state(lab).amplitudes for lab in qn.BellLabel}
            else:
                probs = {lab.token: p for lab, p in qn.ghz_projection_oracle(state)}
                table = qn.ghz_branch_table(state) if n <= 6 else []
                targets = {
                    lab.token: qn.ghz_state(lab).amplitudes for lab in qn.all_canonical_labels(n)
                }
            for _, label, p, _ in table:  # the branch table is a second, independent oracle
                if abs(p - probs[label.token]) > 1e-9:
                    raise RuntimeError(f"branch table and projection oracle disagree on {label.token}")
            self.oracle[index] = (probs, targets)
            self._measure(kind, state, draws[:1])  # warm-up

    @staticmethod
    def _measure(kind, state, draws):
        if kind == "bell":
            return [qn.run_bell_qnd(state, draws=d) for d in draws]
        return [qn.run_ghz_qnd(state, draws=d) for d in draws]

    def execute(self, unit, tracer):
        index, kind, _, _ = unit
        state, draws = self.inputs[index]
        return self._measure(kind, state, draws)

    def ops(self, unit) -> int:
        return unit[3]

    def check(self, unit, outcomes) -> str | None:
        index, _, _, shots = unit
        probs, targets = self.oracle[index]
        if len(outcomes) != shots:
            return f"{len(outcomes)} outcomes for {shots} shots"
        counts = dict.fromkeys(probs, 0)
        for k, out in enumerate(outcomes):
            token = out.label.token
            if token not in probs:
                return f"shot {k}: unknown label {token}"
            if abs(out.probability - probs[token]) > 1e-9:
                return f"shot {k}: probability {out.probability} vs oracle {probs[token]}"
            post = out.post_state.amplitudes
            if post.shape != targets[token].shape:
                return f"shot {k}: post state has shape {post.shape}"
            if abs(np.vdot(targets[token], post)) ** 2 < 1 - 1e-9:
                return f"shot {k}: post state is not {token} up to phase"
            counts[token] += 1
        for token, count in counts.items():
            if binomial_outlier(count, shots, probs[token]):
                return f"{token}: {count}/{shots} is beyond 5 sigma of p={probs[token]:.4g}"
        return None

    def digest(self, unit, outcomes):
        return (
            tuple((o.label.token, o.probability) for o in outcomes),
            _hash_arrays(o.post_state.amplitudes for o in outcomes),
        )

    def counters(self, unit, outcomes) -> dict[str, int]:
        _, kind, n, shots = unit
        return {f"{kind}_measurements": shots, "draws": shots * n}


WORKLOADS = {w.name: w for w in (AuthSweep, GhzMonteCarlo)}
