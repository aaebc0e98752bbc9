"""Entanglement-based card authentication, Monte Carlo and exact analysis.

An account enrolls n two-qubit pairs, each prepared in a Bell state: one
qubit lives in the user's card, the other stays in the terminal together
with a classical record of the pair's (parity, phase) bits.  A verification
session runs the nondemolition Bell measurement on every (card-slot,
terminal) pair and compares the measured bits against the records; matches
leave the pairs intact, so a legitimate card can be verified indefinitely.

An attacker without the card controls only the slot qubit.  Whatever is
inserted, the terminal qubit's marginal is maximally mixed (it is entangled
with the absent card qubit), so each round's outcome is uniform over the
four Bell states and a full match happens with probability (1/4)^n.

Noise is modeled by per-qubit trajectory sampling on the stored pair before
each round: depolarizing (uniform Pauli from {I, X, Y, Z} with probability p,
i.e. replace-with-maximally-mixed at rate p) or dephasing (Z with
probability p).

Sessions run on Bell labels, index = 2*parity + phase, not on amplitudes.
After any round the stored pair is exactly the measured Bell state, a Pauli
on either qubit XORs the label with a fixed mask (I, X, Y, Z -> 0, 2, 3, 1),
a legitimate card reads the noisy label, and a card-less attacker reads a
uniform label (the Bell-diagonal picture of Bennett, DiVincenzo, Smolin and
Wootters, quant-ph/9604024).  The label engine consumes the same draws, in
the same order, as the state-vector round (_system_for, _run_round), which
stays as the oracle behind attacker_round_distribution and the tests.

Seeding: every public operation takes an int seed or a numpy Generator.
Sweeps derive the generator for trial t at size n as default_rng((seed, n, t))
and the enrollment generator as default_rng((seed, n)), so trials are
independent and reproducible, including under parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .bell import (
    BELL_DECODE_ORDER,
    BellLabel,
    bell_bits,
    bell_state,
)
from .statevector import (
    CONVENTIONS,
    PAULI_X_MATRIX,
    PAULI_Y_MATRIX,
    PAULI_Z_MATRIX,
    StateVector,
    _require_normalized,
    apply_single_qubit_matrix,
    cnot,
    fidelity_up_to_global_phase,
    gates_to_matrix,
    hadamard,
)


class AttackerModel(Enum):
    """Who feeds the card slot.  Only the slot qubit is under attacker control."""

    LEGITIMATE = "legitimate"
    FRESH_ZERO = "fresh-zero"
    FRESH_HAAR = "fresh-haar"
    ENTANGLED_DECOY = "decoy"
    RANDOM_BELL_GUESS = "guess"

    @property
    def token(self) -> str:
        return self.value


def parse_attacker(token: str) -> AttackerModel:
    for model in AttackerModel:
        if model.value == token:
            return model
    raise ValueError(f"unknown attacker model {token!r}")


NOISE_MODELS = ("none", "depolarizing", "dephasing")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-qubit, per-session trajectory noise on the stored pair."""

    model: str = "none"
    p: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in NOISE_MODELS:
            raise ValueError(f"noise model must be one of {NOISE_MODELS}, got {self.model!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise probability must lie in [0, 1], got {self.p}")


NOISELESS = NoiseSpec()


#: The four stored-pair states, by label index 2*parity + phase; built once and
#: shared by every account, so a session recognizes them by identity.
_BELL_PAIRS = tuple(bell_state(label) for label in BELL_DECODE_ORDER)
_LABEL_BITS = tuple(bell_bits(label) for label in BELL_DECODE_ORDER)
_RECORD_LABELS = {bits: index for index, bits in enumerate(_LABEL_BITS)}

#: Fidelity deficit up to which a foreign pair still counts as its record's Bell state.
_PAIR_ATOL = 1e-10


@dataclass
class AuthAccount:
    """Stored pairs (card qubit first, terminal qubit second) plus bit records."""

    pairs: list[StateVector]
    records: list[tuple[int, int]]
    status: str = "active"

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def clone(self) -> "AuthAccount":
        return AuthAccount(list(self.pairs), [tuple(r) for r in self.records], self.status)


@dataclass(frozen=True)
class SessionResult:
    per_pair_match: tuple[bool, ...]
    match_fraction: float
    accepted: bool
    updated_records: tuple[tuple[int, int], ...]


def enroll(
    n: int,
    initial_labels: str | Sequence[BellLabel] = "random",
    seed: int | np.random.Generator = 0,
) -> AuthAccount:
    """Create an account with n pairs in the given (or seeded-random) Bell states."""
    if n < 1:
        raise ValueError(f"need at least one pair, got n={n}")
    if isinstance(initial_labels, str):
        if initial_labels != "random":
            raise ValueError(f"initial_labels must be a label list or 'random', got {initial_labels!r}")
        rng = np.random.default_rng(seed)
        indices = [int(rng.integers(4)) for _ in range(n)]
    else:
        labels = list(initial_labels)
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        try:
            indices = [BELL_DECODE_ORDER.index(label) for label in labels]
        except ValueError:
            raise ValueError(f"initial_labels must be BellLabel values, got {labels!r}") from None
    return AuthAccount(
        pairs=[_BELL_PAIRS[i] for i in indices],
        records=[_LABEL_BITS[i] for i in indices],
    )


# -- noise channels --

_DEPOLARIZING_PAULIS = (
    np.eye(2, dtype=complex),
    PAULI_X_MATRIX,
    PAULI_Y_MATRIX,
    PAULI_Z_MATRIX,
)
# The label XOR masks of the same Paulis on either qubit of a Bell pair:
# X flips parity, Z flips phase, Y = iXZ flips both.
_DEPOLARIZING_MASKS = (0, 2, 3, 1)
_DEPHASING_MASK = 1


def _apply_noise_rng(state: StateVector, spec: NoiseSpec, rng: np.random.Generator) -> StateVector:
    if spec.model == "none" or spec.p == 0.0:
        return state
    for qubit in (0, 1):
        if rng.random() < spec.p:
            if spec.model == "depolarizing":
                matrix = _DEPOLARIZING_PAULIS[int(rng.integers(4))]
            else:
                matrix = PAULI_Z_MATRIX
            state = apply_single_qubit_matrix(state, qubit, matrix)
    return state


def apply_noise(
    joint_state: StateVector, spec: NoiseSpec, seed: int | np.random.Generator = 0
) -> StateVector:
    """One noise trajectory on a 2-qubit state (qubit 0 sampled first, then 1)."""
    if joint_state.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {joint_state.num_qubits}")
    _require_normalized(joint_state, "apply_noise")
    return _apply_noise_rng(joint_state, spec, np.random.default_rng(seed))


# -- one verification round: the Bell network on (slot, terminal) of a larger register --


@lru_cache(maxsize=None)
def _round_unitary(num_system: int, slot: int, machine: int, convention: str) -> np.ndarray:
    """Dense network unitary with two ancillas appended after the system qubits.

    Same gate sequence as bell_network_unitary_steps, embedded at (slot,
    machine); cached because sessions reuse a handful of layouts.
    """
    a = num_system
    gates = [
        cnot(slot, a),
        cnot(machine, a),
        hadamard(slot, convention),
        hadamard(machine, convention),
        cnot(slot, a + 1),
        cnot(machine, a + 1),
        hadamard(slot, convention),
        hadamard(machine, convention),
    ]
    u = gates_to_matrix(gates, num_system + 2)
    u.flags.writeable = False
    return u


def _branch_probabilities(
    system_amps: np.ndarray, num_system: int, slot: int, machine: int, convention: str
) -> tuple[np.ndarray, np.ndarray]:
    """(4 outcome probabilities, evolved joint amplitudes); outcome = 2*parity + phase."""
    u = _round_unitary(num_system, slot, machine, convention)
    full = np.zeros(system_amps.size * 4, dtype=np.complex128)
    full[0::4] = system_amps  # ancillas are the two least-significant bits, in |00>
    evolved = u @ full
    probs = (np.abs(evolved) ** 2).reshape(-1, 4).sum(axis=0)
    return probs, evolved


def _run_round(
    system_amps: np.ndarray,
    num_system: int,
    slot: int,
    machine: int,
    convention: str,
    draws: np.ndarray,
) -> tuple[tuple[int, int], float, np.ndarray]:
    """Measure both ancillas sequentially; returns (bits, probability, post system)."""
    probs, evolved = _branch_probabilities(system_amps, num_system, slot, machine, convention)
    p_parity0 = probs[0] + probs[1]
    parity = 0 if draws[0] < p_parity0 else 1
    branch = probs[2 * parity : 2 * parity + 2]
    phase = 0 if draws[1] < branch[0] / (branch[0] + branch[1]) else 1
    outcome = 2 * parity + phase
    post = evolved.reshape(-1, 4)[:, outcome] / np.sqrt(probs[outcome])
    return (parity, phase), float(probs[outcome]), post


def _system_for(
    attacker: AttackerModel, pair_amps: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, int, int, int]:
    """Joint pure state fed to a round: (amplitudes, num_system, slot, machine).

    The stored pair is always (card qubit, terminal qubit); attackers prepend
    their own qubits, and the absent card qubit simply stays unmeasured.
    """
    if attacker is AttackerModel.LEGITIMATE:
        return pair_amps, 2, 0, 1
    if attacker in (AttackerModel.FRESH_ZERO, AttackerModel.FRESH_HAAR):
        if attacker is AttackerModel.FRESH_ZERO:
            qubit = np.array([1.0, 0.0], dtype=np.complex128)
        else:
            qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            qubit /= np.linalg.norm(qubit)
        return np.kron(qubit, pair_amps), 3, 0, 2
    if attacker is AttackerModel.ENTANGLED_DECOY:
        decoy = bell_state(BellLabel.PHI_PLUS).amplitudes
    elif attacker is AttackerModel.RANDOM_BELL_GUESS:
        decoy = bell_state(BELL_DECODE_ORDER[int(rng.integers(4))]).amplitudes
    else:  # pragma: no cover
        raise ValueError(f"unhandled attacker {attacker}")
    return np.kron(decoy, pair_amps), 4, 0, 3


def _stored_label(pair: StateVector, record: Sequence[int]) -> int:
    """Label index of a stored pair, which must be the Bell state its record names."""
    try:
        index = _RECORD_LABELS[tuple(record)]
    except (KeyError, TypeError):
        raise ValueError(f"record {record!r} is not a (parity, phase) bit pair") from None
    bell = _BELL_PAIRS[index]
    if pair is not bell and not (
        pair.num_qubits == 2
        and abs(fidelity_up_to_global_phase(pair, bell) - 1.0) <= _PAIR_ATOL
    ):
        raise ValueError(
            f"stored pair is not the {BELL_DECODE_ORDER[index].token} state its record names"
        )
    return index


def _noise_mask(spec: NoiseSpec, rng: np.random.Generator) -> int:
    """One noise trajectory on a stored pair as a label XOR mask; draws as _apply_noise_rng."""
    mask = 0
    for _qubit in (0, 1):
        if rng.random() < spec.p:
            if spec.model == "depolarizing":
                mask ^= _DEPOLARIZING_MASKS[int(rng.integers(4))]
            else:
                mask ^= _DEPHASING_MASK
    return mask


def verify_session(
    account: AuthAccount,
    attacker: AttackerModel = AttackerModel.LEGITIMATE,
    noise: NoiseSpec = NOISELESS,
    threshold: float = 1.0,
    seed: int | np.random.Generator = 0,
    convention: str = "paper",
    password_ok: bool = True,
) -> SessionResult:
    """One full session: noise, one round per pair, compare bits, accept/reset.

    Accepted sessions overwrite the records with the measured bits and the
    stored pairs with the collapsed Bell states (so the account can be used
    again); rejected sessions flag the account permanently.  The classical
    password gate is a boolean: when false the session is rejected before
    any qubit is touched.  A stored pair that is not the Bell state its
    record names is rejected with ValueError.

    Each round draws, in order: the noise trajectory (_noise_mask), the
    attacker's slot preparation (four standard normals for fresh-haar, one
    integers(4) for guess), then the two ancilla draws random(2).  These are
    the draws of the state-vector round, so seeded sessions agree with it bit
    for bit; the Bell outcome does not depend on the Hadamard convention.
    """
    if account.status != "active":
        raise ValueError("account is flagged; re-enrollment creates a new account")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown Hadamard convention {convention!r}")
    if not password_ok:
        return SessionResult((), 0.0, False, tuple(account.records))
    if not account.pairs or len(account.pairs) != len(account.records):
        raise ValueError("an account needs at least one stored pair and one record per pair")
    labels = [_stored_label(pair, record) for pair, record in zip(account.pairs, account.records)]
    noisy = noise.model != "none" and noise.p != 0.0
    rng = np.random.default_rng(seed)
    outcomes: list[int] = []
    for stored in labels:
        label = stored ^ _noise_mask(noise, rng) if noisy else stored
        if attacker is AttackerModel.LEGITIMATE:
            rng.random(2)  # a legitimate card reads its own label whatever the draws
            outcomes.append(label)
            continue
        if attacker is AttackerModel.FRESH_HAAR:
            rng.standard_normal(4)  # the same stream as the oracle's two standard_normal(2)
        elif attacker is AttackerModel.RANDOM_BELL_GUESS:
            rng.integers(4)
        # the terminal qubit is maximally mixed: both ancilla bits are fair coins
        parity_draw, phase_draw = rng.random(2).tolist()
        outcomes.append((2 if parity_draw >= 0.5 else 0) + (1 if phase_draw >= 0.5 else 0))
    matches = [outcome == label for outcome, label in zip(outcomes, labels)]
    fraction = sum(matches) / len(matches)
    accepted = fraction >= threshold
    measured = [_LABEL_BITS[outcome] for outcome in outcomes]
    account.pairs = [_BELL_PAIRS[outcome] for outcome in outcomes]
    if accepted:
        account.records = measured
    else:
        account.status = "flagged"
    return SessionResult(tuple(matches), fraction, accepted, tuple(measured))


def attacker_round_distribution(
    model: AttackerModel, true_pair_label: BellLabel, convention: str = "paper"
) -> np.ndarray:
    """Exact probabilities of the four (parity, phase) outcomes of one round.

    Ordered (Phi+, Phi-, Psi+, Psi-), i.e. by outcome index 2*parity + phase.
    Computed by brute-force branch sums over the enlarged pure state, noise
    free.  For the fresh-qubit models the distribution is preparation
    independent (the terminal qubit's marginal is maximally mixed), so a
    fixed representative preparation is used; the guess model averages its
    four equally likely decoys.
    """
    pair = bell_state(true_pair_label).amplitudes
    if model is AttackerModel.LEGITIMATE:
        systems = [(pair, 2, 0, 1)]
    elif model is AttackerModel.FRESH_ZERO:
        systems = [(np.kron([1.0, 0.0], pair), 3, 0, 2)]
    elif model is AttackerModel.FRESH_HAAR:
        representative = np.array([0.6, 0.8j], dtype=np.complex128)
        systems = [(np.kron(representative, pair), 3, 0, 2)]
    elif model is AttackerModel.ENTANGLED_DECOY:
        systems = [(np.kron(bell_state(BellLabel.PHI_PLUS).amplitudes, pair), 4, 0, 3)]
    else:
        systems = [
            (np.kron(bell_state(guess).amplitudes, pair), 4, 0, 3)
            for guess in BELL_DECODE_ORDER
        ]
    dist = np.zeros(4)
    for amps, num_system, slot, machine in systems:
        probs, _ = _branch_probabilities(amps, num_system, slot, machine, convention)
        dist += probs
    return dist / len(systems)


def _qubit_mask_distribution(noise: NoiseSpec) -> list[float]:
    """Probabilities of the label XOR masks 0..3 that one qubit's noise applies."""
    weights = [1.0, 0.0, 0.0, 0.0]
    if noise.model == "none":
        return weights
    weights[0] -= noise.p
    hits = _DEPOLARIZING_MASKS if noise.model == "depolarizing" else (_DEPHASING_MASK,)
    for mask in hits:
        weights[mask] += noise.p / len(hits)
    return weights


def _label_round_distribution(attacker: AttackerModel, index: int) -> np.ndarray:
    """The label engine's noise-free outcome distribution for stored label ``index``."""
    if attacker is AttackerModel.LEGITIMATE:
        dist = np.zeros(4)
        dist[index] = 1.0
        return dist
    return np.full(4, 0.25)


def _round_match_probability(attacker: AttackerModel, noise: NoiseSpec) -> float:
    """Exact probability that one round's measured bits equal the record.

    A card-less attacker reads a uniform label whatever the noise.  A
    legitimate card reads the noisy label, which equals the record iff the
    two qubits' masks are equal: (1-p)^2 + p^2 for dephasing and
    (1-3p/4)^2 + 3(p/4)^2 for depolarizing.
    """
    if attacker is not AttackerModel.LEGITIMATE:
        return 0.25
    return sum(w * w for w in _qubit_mask_distribution(noise))


def _acceptance_probability(match_probabilities: Sequence[float], threshold: float) -> float:
    """P(matches / n >= threshold) for independent rounds (a Poisson-binomial tail)."""
    n = len(match_probabilities)
    accepting = [k for k in range(n + 1) if k / n >= threshold]
    if accepting[0] == 0:
        return 1.0
    counts = [1.0]  # counts[k] = P(k matches so far)
    for q in match_probabilities:
        counts = [miss * (1.0 - q) + hit * q for miss, hit in zip(counts + [0.0], [0.0] + counts)]
    return min(1.0, sum(counts[k] for k in accepting))


def _check_label_model(attacker: AttackerModel, indices: Iterable[int], convention: str) -> None:
    """Raise unless the state-vector oracle agrees with the label engine on these labels."""
    for index in sorted(set(indices)):
        oracle = attacker_round_distribution(attacker, BELL_DECODE_ORDER[index], convention)
        if np.max(np.abs(oracle - _label_round_distribution(attacker, index))) > 1e-9:
            raise RuntimeError(
                f"label engine disagrees with the state-vector round for {attacker.token} "
                f"on {BELL_DECODE_ORDER[index].token}: {oracle}"
            )


def _require_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer count, got {value!r}")


def wilson_interval(successes: int, trials: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (z=3.0: the 99.7% level)."""
    _require_count("successes", successes)
    _require_count("trials", trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return float(max(0.0, center - half)), float(min(1.0, center + half))


@dataclass(frozen=True)
class SweepRow:
    n: int
    attacker: str
    noise: str
    p: float
    trials: int
    accept_rate: float
    analytic_rate: float
    wilson_low: float
    wilson_high: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "attacker": self.attacker,
            "noise": self.noise,
            "p": self.p,
            "trials": self.trials,
            "accept_rate": self.accept_rate,
            "analytic_rate": self.analytic_rate,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
        }


def security_sweep(
    n_range: Iterable[int],
    attacker: AttackerModel,
    trials: int,
    seed: int,
    noise: NoiseSpec = NOISELESS,
    threshold: float = 1.0,
    convention: str = "paper",
) -> list[SweepRow]:
    """Empirical acceptance rate vs the exact one, per account size.

    Each trial clones a fresh randomly enrolled account and runs one session.
    The analytic column is the exact acceptance probability under the same
    noise and threshold: the per-round match probability of the label model
    (_round_match_probability), summed over the accepting match counts.  Each
    row first checks the label model's noise-free round against the
    state-vector oracle (attacker_round_distribution) on the enrolled labels.
    """
    _require_count("trials", trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for n in n_range:
        base = enroll(n, "random", seed=np.random.default_rng((seed, n)))
        _check_label_model(attacker, (_RECORD_LABELS[r] for r in base.records), convention)
        analytic = _acceptance_probability(
            [_round_match_probability(attacker, noise)] * n, threshold
        )
        successes = 0
        for t in range(trials):
            account = base.clone()
            result = verify_session(
                account,
                attacker=attacker,
                noise=noise,
                threshold=threshold,
                seed=np.random.default_rng((seed, n, t)),
                convention=convention,
            )
            successes += result.accepted
        low, high = wilson_interval(successes, trials)
        rows.append(
            SweepRow(
                n=n,
                attacker=attacker.token,
                noise=noise.model,
                p=noise.p,
                trials=trials,
                accept_rate=successes / trials,
                analytic_rate=analytic,
                wilson_low=low,
                wilson_high=high,
            )
        )
    return rows
