"""Entanglement-based card authentication, Monte Carlo and exact analysis.

An account enrolls n two-qubit pairs, each prepared in a Bell state: one
qubit lives in the user's card, the other stays in the terminal together
with a classical record of the pair's (parity, phase) bits.  A verification
session runs the nondemolition Bell measurement on every (card-slot,
terminal) pair and compares the measured bits against the records; matches
leave the pairs intact, so a legitimate card can be verified indefinitely.

An attacker is the register it puts in front of the stored pair, slot qubit
first: nothing for the card itself (its qubit sits in the slot), |0> or a
random qubit for fresh-*, one half of a Bell pair for decoy and guess.  The
AttackerModel members are named presets of that table (_SLOT_REGISTERS),
which also lists the draws each preparation takes from the session stream.
Whatever a card-less register holds, the terminal qubit stays maximally
entangled with the absent card qubit, so its reduced state is I/2 (monogamy
of entanglement: Coffman, Kundu and Wootters, quant-ph/9907047); each round
is uniform over the four Bell states, and a full match has probability (1/4)^n.

Noise is modeled by per-qubit trajectory sampling on the stored pair before
each round: depolarizing (uniform Pauli from {I, X, Y, Z} with probability p,
i.e. replace-with-maximally-mixed at rate p) or dephasing (Z with
probability p).

Sessions run on Bell labels, index = 2*parity + phase, not on amplitudes.
After any round the stored pair is exactly the measured Bell state, a Pauli
on either qubit XORs the label with a fixed mask (I, X, Y, Z -> 0, 2, 3, 1),
and a legitimate card reads the noisy label (the Bell-diagonal picture of
Bennett, DiVincenzo, Smolin and Wootters, quant-ph/9604024).  The label
engine consumes the same draws, in the same order, as the state-vector round
(_system_for, _run_round), the oracle behind attacker_round_distribution.

Seeding: every public operation takes an int seed or a numpy Generator.
A sweep draws everything for account size n from one generator,
default_rng((seed, n)): first the enrollment, then trials 0..T-1 in order,
each session continuing the stream where the previous one stopped.  A row is
therefore reproducible from (seed, n) alone, whatever other sizes the sweep
covers, but a single trial cannot be rerun without the trials before it.
Every draw of a session is a uniform double from Generator.random(), in one
fixed layout per round (per pair, in pair order): the noise block (none when
noiseless; 2 hit uniforms for dephasing; 2 hit uniforms then 2 Pauli
uniforms, Pauli = floor(4u), for depolarizing), the slot block (2 uniforms
for fresh-haar, 1 for guess, none otherwise), then the two ancilla uniforms.
Doubles come off the bit generator in the same order whether drawn one at a
time or in bulk, so random((C, n, K)) holds exactly the draws of C
consecutive sessions: a sweep runs a row as a few array operations over
such blocks and still equals T sequential sessions on the same stream.
(Earlier versions drew depolarizing Paulis with integers(4) only on a hit,
fresh-haar's qubit from standard_normal(4) and guess's decoy with
integers(4); those rows differ from theirs, the others do not.)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .bell import (
    BELL_DECODE_ORDER,
    BellLabel,
    bell_bits,
    bell_state,
)
from .ghz import _branches, _parity_network, _table_rows, _walk
from .statevector import (
    CONVENTIONS,
    PAULI_X_MATRIX,
    PAULI_Y_MATRIX,
    PAULI_Z_MATRIX,
    StateVector,
    _apply_single_raw,
    _require_normalized,
    fidelity_up_to_global_phase,
)


class AttackerModel(Enum):
    """Who feeds the card slot: named presets of the slot-register table.

    Each member stands for the register it puts in front of the stored pair
    (_SLOT_REGISTERS); only the slot qubit takes part in the round.
    """

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

_REAL_TYPES = (int, float, np.integer, np.floating)


def _is_real(value) -> bool:
    """The one type check on a real-valued setting: one of _REAL_TYPES, but not bool (an int)."""
    return isinstance(value, _REAL_TYPES) and not isinstance(value, bool)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-qubit, per-session trajectory noise on the stored pair."""

    model: str = "none"
    p: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in NOISE_MODELS:
            raise ValueError(f"noise model must be one of {NOISE_MODELS}, got {self.model!r}")
        if not (_is_real(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"noise probability must be a real number in [0, 1], got {self.p!r}")


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
    _require_count("n", n)
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

#: The Paulis by index (I, X, Y, Z), and the label XOR mask each one applies on
#: either qubit of a Bell pair: X flips parity, Z flips phase, Y = iXZ flips both.
_PAULIS = (np.eye(2, dtype=complex), PAULI_X_MATRIX, PAULI_Y_MATRIX, PAULI_Z_MATRIX)
_PAULI_MASKS = (0, 2, 3, 1)
_PAULI_MASK_TABLE = np.array(_PAULI_MASKS, dtype=np.uint8)
_PAULI_Z = 3


def _noise_draws(spec: NoiseSpec) -> int:
    """Uniforms in a round's noise block: 0 noiseless, 2 dephasing, 4 depolarizing."""
    if spec.model == "none" or spec.p == 0.0:
        return 0
    return 4 if spec.model == "depolarizing" else 2


def _noise_paulis(spec: NoiseSpec, rng: np.random.Generator) -> list[int]:
    """One noise trajectory on a stored pair: the Pauli index on qubit 0, then on qubit 1.

    The block is random(k) (_noise_draws): qubit q is hit when its uniform
    u_q < p; a dephasing hit is Z, a depolarizing hit the Pauli floor(4 v_q)
    of the uniform v_q that follows both hit uniforms.
    """
    size = _noise_draws(spec)
    if not size:
        return [0, 0]
    draws = rng.random(size).tolist()
    if size == 2:
        return [_PAULI_Z if u < spec.p else 0 for u in draws]
    return [int(4 * v) if u < spec.p else 0 for u, v in zip(draws[:2], draws[2:])]


def _label_masks(spec: NoiseSpec, draws: np.ndarray) -> np.ndarray:
    """The label XOR masks of noise blocks draws[..., :k], decoded as in _noise_paulis."""
    hits = draws[..., :2] < spec.p
    if spec.model == "dephasing":
        per_qubit = hits.view(np.uint8)  # Z's mask is 1
    else:
        per_qubit = _PAULI_MASK_TABLE[(4 * draws[..., 2:4]).astype(np.intp)] * hits
    return per_qubit[..., 0] ^ per_qubit[..., 1]


def _apply_noise_rng(state: StateVector, spec: NoiseSpec, rng: np.random.Generator) -> StateVector:
    amps = state.amplitudes
    for qubit, pauli in enumerate(_noise_paulis(spec, rng)):
        if pauli:
            amps = _apply_single_raw(amps[None].copy(), state.num_qubits, qubit, _PAULIS[pauli])[0]
    return state if amps is state.amplitudes else StateVector(state.num_qubits, amps)


def apply_noise(
    joint_state: StateVector, spec: NoiseSpec, seed: int | np.random.Generator = 0
) -> StateVector:
    """One noise trajectory on a 2-qubit state (qubit 0 sampled first, then 1)."""
    if joint_state.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {joint_state.num_qubits}")
    _require_normalized(joint_state, "apply_noise")
    return _apply_noise_rng(joint_state, spec, np.random.default_rng(seed))


# -- one verification round: the Bell network on (slot, terminal) of a larger register --


def _branch_probabilities(
    system_amps: np.ndarray, num_system: int, slot: int, machine: int, convention: str
) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """(4 outcome probabilities, post system amplitudes per outcome); outcome = 2*parity + phase."""
    steps = _parity_network((slot, machine), num_system, convention, None)
    table = _table_rows(*_branches(system_amps, steps))
    return np.array([prob for _, prob, _ in table]), [post for _, _, post in table]


def _run_round(
    system_amps: np.ndarray,
    num_system: int,
    slot: int,
    machine: int,
    convention: str,
    draws: np.ndarray,
) -> tuple[tuple[int, int], float, np.ndarray]:
    """Measure both ancillas sequentially; returns (bits, probability, post system)."""
    steps = _parity_network((slot, machine), num_system, convention, None)
    bits, probability, post = _walk(*_branches(system_amps, steps, draws), draws)
    return tuple(bits), probability, post


@dataclass(frozen=True)
class _SlotRegister:
    build: Callable  # the register put in front of the stored pair, slot qubit first
    draws: int = 0  # uniforms ``build`` takes from the session stream: random(draws)
    representatives: tuple = ((),)  # the draws attacker_round_distribution averages over


def _haar_qubit(u: Sequence[float]) -> np.ndarray:
    """sqrt(1 - u0)|0> + sqrt(u0) e^(2 pi i u1)|1>: |amplitude of 1|^2 and phase uniform."""
    return np.array([np.sqrt(1.0 - u[0]), np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])])


#: Every attacker as data: the register it puts in front of the stored pair.
_SLOT_REGISTERS = {
    AttackerModel.LEGITIMATE: _SlotRegister(lambda _: np.ones(1)),
    AttackerModel.FRESH_ZERO: _SlotRegister(lambda _: np.array([1.0, 0.0])),
    # the representative draw builds the qubit 0.6|0> + 0.8i|1>
    AttackerModel.FRESH_HAAR: _SlotRegister(_haar_qubit, 2, ((0.64, 0.25),)),
    AttackerModel.ENTANGLED_DECOY: _SlotRegister(lambda _: _BELL_PAIRS[0].amplitudes),
    # decoy floor(4u); the representatives pick each of the four once
    AttackerModel.RANDOM_BELL_GUESS: _SlotRegister(
        lambda u: _BELL_PAIRS[int(4 * u[0])].amplitudes, 1, ((0.0,), (0.25,), (0.5,), (0.75,))
    ),
}


def _slot_register(attacker: AttackerModel) -> _SlotRegister:
    try:
        return _SLOT_REGISTERS[attacker]
    except (KeyError, TypeError):
        raise ValueError(f"attacker must be an AttackerModel, got {attacker!r}") from None


def _prepend(register: np.ndarray, pair_amps: np.ndarray) -> tuple[np.ndarray, int, int, int]:
    """Joint state of a round, (amplitudes, num_system, slot, machine): slot 0, terminal last."""
    system = np.kron(register, pair_amps)
    num_system = system.size.bit_length() - 1
    return system, num_system, 0, num_system - 1


def _system_for(
    attacker: AttackerModel, pair_amps: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, int, int, int]:
    """The attacker's register, drawn from ``rng``, in front of the stored pair."""
    slot = _slot_register(attacker)
    return _prepend(slot.build(rng.random(slot.draws)), pair_amps)


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


def _round_draws(attacker: AttackerModel, noise: NoiseSpec) -> int:
    """K, the uniforms of one round: noise block, slot block, two ancilla draws."""
    return _noise_draws(noise) + _SLOT_REGISTERS[attacker].draws + 2


def _run_sessions(
    labels: np.ndarray,
    draws: np.ndarray,
    attacker: AttackerModel,
    noise: NoiseSpec,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(outcomes, matches, accepted) of C sessions on the stored labels, from (C, n, K) draws.

    A legitimate card reads its label XOR the noise mask; a card-less
    attacker reads two fair coins, the ancilla draws compared with 1/2, and
    its noise and slot draws only advance the stream.  A session accepts
    when matches / n >= threshold.
    """
    if attacker is not AttackerModel.LEGITIMATE:
        outcomes = 2 * (draws[..., -2] >= 0.5) + (draws[..., -1] >= 0.5)
    elif _noise_draws(noise):
        outcomes = labels ^ _label_masks(noise, draws)
    else:
        outcomes = labels ^ np.zeros(draws.shape[:2], dtype=np.uint8)  # no noise: mask 0
    matches = outcomes == labels
    accepted = matches.sum(axis=1) / labels.size >= threshold
    return outcomes, matches, accepted


def _require_session_settings(threshold: float, convention: str) -> None:
    if not (_is_real(threshold) and 0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be a real number in [0, 1], got {threshold!r}")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown Hadamard convention {convention!r}")


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
    record names, or an attacker that is not an AttackerModel, is rejected
    with ValueError before any draw.

    The session draws random((1, n, K)): per pair, the noise block, the
    attacker's slot block (its _SLOT_REGISTERS draws), then the two ancilla
    uniforms, as laid out in the module's Seeding note.  These are the draws
    of the state-vector round, taken in the same order, so seeded sessions
    agree with it bit for bit; the Bell outcome does not depend on the
    Hadamard convention.
    """
    _slot_register(attacker)  # rejects a non-AttackerModel before any draw
    if account.status != "active":
        raise ValueError("account is flagged; re-enrollment creates a new account")
    _require_session_settings(threshold, convention)
    if not password_ok:
        return SessionResult((), 0.0, False, tuple(account.records))
    if not account.pairs or len(account.pairs) != len(account.records):
        raise ValueError("an account needs at least one stored pair and one record per pair")
    labels = np.array(
        [_stored_label(pair, record) for pair, record in zip(account.pairs, account.records)]
    )
    draws = np.random.default_rng(seed).random((1, labels.size, _round_draws(attacker, noise)))
    outcomes, matches, accepted = (
        column[0].tolist() for column in _run_sessions(labels, draws, attacker, noise, threshold)
    )
    measured = [_LABEL_BITS[outcome] for outcome in outcomes]
    account.pairs = [_BELL_PAIRS[outcome] for outcome in outcomes]
    if accepted:
        account.records = measured
    else:
        account.status = "flagged"
    return SessionResult(tuple(matches), sum(matches) / len(matches), accepted, tuple(measured))


def attacker_round_distribution(
    model: AttackerModel, true_pair_label: BellLabel, convention: str = "paper"
) -> np.ndarray:
    """Exact probabilities of the four (parity, phase) outcomes of one round.

    Ordered (Phi+, Phi-, Psi+, Psi-), i.e. by outcome index 2*parity + phase.
    Computed by brute-force branch sums over the attacker's register in front
    of the pair, noise free, averaged over the table's representative draws:
    the distribution is preparation independent for a card-less attacker
    (the terminal qubit's marginal is maximally mixed), so fresh-haar uses
    one fixed qubit and guess its four equally likely decoys.
    """
    slot = _slot_register(model)
    pair = bell_state(true_pair_label).amplitudes
    dist = np.zeros(4)
    for draw in slot.representatives:
        probs, _ = _branch_probabilities(*_prepend(slot.build(draw), pair), convention)
        dist += probs
    return dist / len(slot.representatives)


def _round_match_probability(attacker: AttackerModel, noise: NoiseSpec) -> float:
    """Exact probability that one round's measured bits equal the record.

    A card-less attacker reads a uniform label whatever the noise.  A
    legitimate card reads the noisy label, which equals the record iff the
    two qubits' masks are equal: (1-p)^2 + p^2 for dephasing and
    (1-3p/4)^2 + 3(p/4)^2 for depolarizing.
    """
    if attacker is not AttackerModel.LEGITIMATE:
        return 0.25
    weights = [1.0, 0.0, 0.0, 0.0]  # one qubit's probability of each label mask
    if noise.model != "none":
        weights[0] -= noise.p
        hits = range(4) if noise.model == "depolarizing" else (_PAULI_Z,)
        for pauli in hits:
            weights[_PAULI_MASKS[pauli]] += noise.p / len(hits)
    return sum(w * w for w in weights)


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


@lru_cache(maxsize=None)
def _check_label(oracle_fn: Callable, attacker: AttackerModel, index: int, convention: str) -> None:
    """Raise unless ``oracle_fn`` agrees with the label engine on one label (a pass is memoized)."""
    oracle = oracle_fn(attacker, BELL_DECODE_ORDER[index], convention)
    # the label engine: a card reads its own label, a card-less attacker a uniform one
    label_model = np.eye(4)[index] if attacker is AttackerModel.LEGITIMATE else np.full(4, 0.25)
    if np.max(np.abs(oracle - label_model)) > 1e-9:
        raise RuntimeError(
            f"label engine disagrees with the state-vector round for {attacker.token} "
            f"on {BELL_DECODE_ORDER[index].token}: {oracle}"
        )


def _check_label_model(attacker: AttackerModel, indices: Iterable[int], convention: str) -> None:
    """Raise unless the state-vector oracle agrees with the label engine on these labels.

    The oracle is resolved at call time, so a replaced one (a wrapper, a test
    double) is checked afresh; each (oracle, attacker, label, convention) passes
    once per process, and attacker_round_distribution itself caches nothing.
    """
    for index in sorted(set(indices)):
        _check_label(attacker_round_distribution, attacker, index, convention)


def _require_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer count, got {value!r}")


def wilson_interval(successes: int, trials: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (z=3.0: the 99.7% level)."""
    if not (_is_real(z) and 0.0 < z < np.inf):
        raise ValueError(f"z must be a finite positive number, got {z!r}")
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
        return asdict(self)


#: Uniforms drawn at once by a sweep row (8 MiB of doubles): bounds its memory at any T.
_CHUNK_DRAWS = 1 << 20


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

    Each account size n has its own generator, default_rng((seed, n)): it
    enrolls one random account, then each of the ``trials`` sessions runs on
    a fresh clone of it, drawing from that generator in trial order.  Rows
    are reproducible from (seed, n), independent of the other sizes in
    ``n_range``; trials within a row are sequential, not separately seeded.
    Trial 0 is a verify_session call; the other trials are drawn as
    random((C, n, K)) blocks of at most _CHUNK_DRAWS uniforms and decoded by
    the same array engine (_run_sessions).  Since a bulk draw yields the
    same doubles as the sessions' one-by-one draws, a row equals T
    sequential verify_session calls on its stream, whatever the chunk size.
    The analytic column is the exact acceptance probability under the same
    noise and threshold: the per-round match probability of the label model
    (_round_match_probability), summed over the accepting match counts.  Each
    row first checks the label model's noise-free round against the
    state-vector oracle (attacker_round_distribution) on the enrolled labels,
    once per (attacker, label, convention) in a process.  A threshold outside
    [0, 1] (NaN included) or an unknown convention raises ValueError before
    any draw.
    """
    _slot_register(attacker)  # rejects a non-AttackerModel before any trial
    _require_count("trials", trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _require_session_settings(threshold, convention)
    rows = []
    for n in n_range:
        _require_count("n", n)
        rng = np.random.default_rng((seed, n))
        base = enroll(n, "random", seed=rng)
        labels = np.array([_RECORD_LABELS[r] for r in base.records])
        _check_label_model(attacker, labels.tolist(), convention)
        analytic = _acceptance_probability(
            [_round_match_probability(attacker, noise)] * n, threshold
        )
        successes = int(
            verify_session(base.clone(), attacker, noise, threshold, rng, convention).accepted
        )
        k = _round_draws(attacker, noise)
        chunk = max(1, _CHUNK_DRAWS // (n * k))
        for start in range(1, trials, chunk):
            draws = rng.random((min(chunk, trials - start), n, k))
            accepted = _run_sessions(labels, draws, attacker, noise, threshold)[2]
            successes += int(np.count_nonzero(accepted))
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
