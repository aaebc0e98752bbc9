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

Sessions run on Bell labels, index = 2*parity + phase, not on amplitudes.
After any round the stored pair is exactly the measured Bell state, a Pauli
on either qubit XORs the label with a fixed mask (I, X, Y, Z -> 0, 2, 3, 1),
and a legitimate card reads the noisy label (the Bell-diagonal picture of
Bennett, DiVincenzo, Smolin and Wootters, quant-ph/9604024).

Noise is per-qubit trajectory sampling on the stored pair before each round.
A model is its entry in _NOISE_HITS, the masks of the Paulis that a hit
(probability p) applies, one drawn uniformly: {I, X, Y, Z} for depolarizing,
Z for dephasing.  One scalar pick rule (_noise_mask) reads a qubit's mask off
its draws, for a lone session's labels and for apply_noise, which applies the
mask's Pauli (_PAULIS) to the state.

The label engine consumes the same draws, in the same order, as the
state-vector round (_system_for, _run_round), the oracle behind
attacker_round_distribution: the staged Bell network on the slot, qubit 0,
and the terminal, the last qubit, of the joint register (_round_branches),
expanded into one branch table by the GHZ module's level builder and walked
as a shot walks.  A round's (parity, phase) bits and their probabilities are
the same under either Hadamard convention, so auth takes no convention: its
oracle runs the paper's network.  A sweep checks the label engine against
that oracle on all four labels once per (oracle, attacker) in a process
(_check_labels).  A lone session decodes its labels from those draws in
plain Python (_session_labels); a sweep's array blocks count matching rounds
without decoding a label, in one kernel over (C, n) draw columns that picks
masks as _noise_mask does (_accepted_sessions), and both accept by one rule.
A sweep row runs its trial 0 through verify_session on the account it
enrolled, and draws no block when no session would read a draw: a noiseless
legitimate card reads its own labels, so every session accepts.

Seeding: every public operation takes an int seed or a numpy Generator (a
sweep, an int seed only); an integer seed goes through the one integer check,
so a bool, a float or a negative seed raises ValueError before any draw.
A sweep draws everything for account size n from one generator,
default_rng((seed, n)): first the enrollment, then trials 0..T-1 in order,
each session continuing the stream where the previous one stopped.  A row is
therefore reproducible from (seed, n) alone, whatever other sizes the sweep
covers, but a single trial cannot be rerun without the trials before it.
Every draw of a session is a uniform double from Generator.random(), in one
fixed layout per round (per pair, in pair order): the noise block (2 hit
uniforms, then 2 Pauli uniforms, hits[floor(len(hits) u)], if a hit has a
choice; none if p = 0 or hits is empty), the slot block (2 uniforms for
fresh-haar, 1 for guess, none otherwise), then the two ancilla uniforms.
Doubles come off the bit generator in the same order whether drawn one at a
time or in bulk, so random((C, n, K)) holds exactly the draws of C
consecutive sessions, each drawing random((n, K)): a sweep runs a row as a
few array operations over such blocks and still equals T sequential sessions
on the same stream.  A row's generator ends with the row, so a row whose
sessions read none of their draws leaves them undrawn and still equals them.
"""

from __future__ import annotations

import math
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
from .ghz import _branches, _dense_network, _table_rows
from .statevector import (
    PAULI_X_MATRIX,
    PAULI_Y_MATRIX,
    PAULI_Z_MATRIX,
    StateVector,
    _apply_single_raw,
    _require_instance,
    _require_int,
    _require_normalized,
    _require_seed,
    _walk,
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


#: Each attacker's CLI token, for a lookup that scans nothing.
_ATTACKER_TOKENS = {model.value: model for model in AttackerModel}


def parse_attacker(token: str) -> AttackerModel:
    """The attacker a token names; anything else, a member or an unhashable list included, raises ValueError."""
    try:
        return _ATTACKER_TOKENS[token]
    except (KeyError, TypeError):
        raise ValueError(f"unknown attacker model {token!r}") from None


#: Every noise model as data: the Paulis a hit applies, one drawn uniformly, each as the mask it
#: XORs a Bell label with (I, X, Y, Z -> 0, 2, 3, 1).
_NOISE_HITS = {"none": (), "depolarizing": (0, 2, 3, 1), "dephasing": (1,)}
NOISE_MODELS = tuple(_NOISE_HITS)


def _is_real(value) -> bool:
    """The one type check on a real-valued setting: an integer (not bool) or a float."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-qubit, per-session trajectory noise on the stored pair; a model without hits takes p = 0 only.

    p is kept as a Python float, whatever real type it came as (and -0.0 as
    0.0), so the draws, the rows and their analytic rate all see one value.
    """

    model: str = "none"
    p: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in NOISE_MODELS:
            raise ValueError(f"noise model must be one of {NOISE_MODELS}, got {self.model!r}")
        if not (_is_real(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"noise probability must be a real number in [0, 1], got {self.p!r}")
        if self.p and not _NOISE_HITS[self.model]:
            raise ValueError(f"noise model {self.model!r} takes no probability, got p={self.p!r}")
        object.__setattr__(self, "p", float(self.p) + 0.0)  # -0.0 + 0.0 is 0.0: one setting, one value


NOISELESS = NoiseSpec()


#: The four stored-pair states, by label index 2*parity + phase; built once and
#: shared by every account, so a session recognizes them by identity.
_BELL_PAIRS = tuple(bell_state(label) for label in BELL_DECODE_ORDER)
_LABEL_BITS = tuple(bell_bits(label) for label in BELL_DECODE_ORDER)
_RECORD_LABELS = {bits: index for index, bits in enumerate(_LABEL_BITS)}

#: Fidelity deficit up to which a foreign pair still counts as its record's Bell state.
_PAIR_ATOL = 1e-10

#: Largest gap between the state-vector oracle and the label engine on one outcome probability.
_ORACLE_ATOL = 1e-9


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
    _require_int("n", n, 1)
    _require_seed(seed)
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

#: The Pauli of each label mask: Z flips the phase (1), X the parity (2), Y = iXZ both (3).
_PAULIS = (np.eye(2, dtype=complex), PAULI_Z_MATRIX, PAULI_X_MATRIX, PAULI_Y_MATRIX)
#: Each model's masks as an array, built once for the block kernel (_accepted_sessions).
_HIT_MASKS = {model: np.array(hits, dtype=np.uint8) for model, hits in _NOISE_HITS.items()}


def _noise_draws(spec: NoiseSpec) -> int:
    """Uniforms in a round's noise block: 2 hit ones, plus 2 Pauli ones if a hit has a choice."""
    hits = _NOISE_HITS[spec.model]
    return 0 if not hits or spec.p == 0.0 else 4 if len(hits) > 1 else 2


def _noise_mask(hits: tuple, p: float, row: Sequence[float], qubit: int) -> int:
    """The label mask that a noise block's draws ``row`` (Python floats) put on ``qubit``, 0 or 1.

    The one pick rule: the qubit is hit when its hit uniform row[qubit] < p, and
    then takes hits[floor(len(hits) v)], v = row[2 + qubit] the Pauli uniform
    after both hit uniforms (no choice: hits[0]); no hit is mask 0, I.
    """
    if row[qubit] >= p:
        return 0
    return hits[int(len(hits) * row[2 + qubit])] if len(hits) > 1 else hits[0]


def _apply_noise_rng(state: StateVector, spec: NoiseSpec, rng: np.random.Generator) -> StateVector:
    k = _noise_draws(spec)
    if not k:  # no noise block to draw
        return state
    hits, row, amps = _NOISE_HITS[spec.model], rng.random(k).tolist(), state.amplitudes
    for qubit in (0, 1):
        if mask := _noise_mask(hits, spec.p, row, qubit):
            amps = _apply_single_raw(amps[None].copy(), qubit, _PAULIS[mask])[0]
    return state if amps is state.amplitudes else StateVector(state.num_qubits, amps)


def apply_noise(
    joint_state: StateVector, spec: NoiseSpec, seed: int | np.random.Generator = 0
) -> StateVector:
    """One noise trajectory on a 2-qubit state (qubit 0 sampled first, then 1); ``spec`` must be a NoiseSpec."""
    if joint_state.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {joint_state.num_qubits}")
    _require_normalized(joint_state, "apply_noise")
    _require_instance("noise", spec, NoiseSpec)
    return _apply_noise_rng(joint_state, spec, np.random.default_rng(_require_seed(seed)))


# -- one verification round: the Bell network on (slot, terminal) of a larger register --


def _round_branches(system: np.ndarray) -> tuple:
    """(weights, leaves) of one round on the joint amplitudes ``system``: the paper's Bell network on
    the slot, qubit 0, and the terminal, the last qubit."""
    return _branches(system, _dense_network((0, system.size.bit_length() - 2), "paper"))


def _branch_probabilities(system: np.ndarray) -> np.ndarray:
    """The 4 outcome probabilities of one round; outcome = 2*parity + phase."""
    return np.array([prob for prob, _ in _table_rows(*_round_branches(system))])


def _run_round(system: np.ndarray, draws: np.ndarray) -> tuple[tuple[int, int], float, np.ndarray]:
    """One shot down the round's branch table, a draw per ancilla; returns (bits, probability, post system)."""
    weights, leaves = _round_branches(system)
    probability, leaf = _walk(weights, draws.tolist())  # Python floats, once: numpy scalars compare slower
    return divmod(leaf, 2), probability, leaves[leaf]


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


def _system_for(attacker: AttackerModel, pair_amps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Joint amplitudes of a round: the attacker's register, drawn from ``rng``, in front of the stored pair."""
    slot = _slot_register(attacker)
    return np.kron(slot.build(rng.random(slot.draws)), pair_amps)


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


def _session_labels(
    labels: Sequence[int], draws: Sequence[Sequence[float]], attacker: AttackerModel, noise: NoiseSpec
) -> list[int]:
    """The labels one session reads on the stored labels, from its n rows of K draws as Python floats.

    A card-less attacker reads two fair coins, 2*(a >= 1/2) + (b >= 1/2) of
    the ancilla draws, and its noise and slot draws only advance the stream.
    A legitimate card reads its label XOR both qubits' masks (_noise_mask).
    """
    if attacker is not AttackerModel.LEGITIMATE:
        return [2 * (row[-2] >= 0.5) + (row[-1] >= 0.5) for row in draws]
    if not _noise_draws(noise):
        return list(labels)
    hits, p = _NOISE_HITS[noise.model], noise.p
    return [label ^ _noise_mask(hits, p, row, 0) ^ _noise_mask(hits, p, row, 1) for label, row in zip(labels, draws)]


def _accepted_sessions(
    bits: np.ndarray, draws: np.ndarray, attacker: AttackerModel, noise: NoiseSpec, fewest: int
) -> int:
    """How many of C sessions accept, from their (C, n, K) draws on the (n, 2) record bits.

    Each session counts its matching rounds, with no label decoded: a card-less
    round matches iff its coins equal the record's bits, and a legitimate round
    iff its two qubits draw the same label mask (so a noiseless one always
    matches), the fact _round_match_probability sums.  These are the matches
    of _session_labels' labels on the same draws.  A card's masks are picked
    as _noise_mask picks them, each draw read as one (C, n) column (a slice
    over the short draw axis would make numpy loop two elements at a time),
    and the matches are tallied one round's column at a time, in a
    pointer-wide count: numpy reduces over a short axis slowly, and no n
    overflows it.
    """
    if attacker is not AttackerModel.LEGITIMATE:
        coins = (draws[..., -2:] >= 0.5) == bits
        matches = coins[..., 0] & coins[..., 1]
    elif _noise_draws(noise):
        hits, p, columns = _HIT_MASKS[noise.model], noise.p, draws.transpose(2, 0, 1)
        first, second = (
            (columns[q] < p) * (hits[np.intp(len(hits) * columns[2 + q])] if len(hits) > 1 else hits[0])
            for q in (0, 1)
        )
        matches = first == second
    else:
        return len(draws)
    tally = matches[:, 0].astype(np.intp)
    for column in range(1, matches.shape[1]):
        tally += matches[:, column]
    return int(np.count_nonzero(tally >= fewest))


def _fewest_matches(n: int, threshold: float) -> int:
    """The fewest matching rounds out of n that accept: the first k in 0..n with k / n >= threshold.

    k / n never falls as k grows, so a step or two from ceil(threshold * n)
    settles k under that same float test.
    """
    k = min(n, math.ceil(threshold * n))
    while k > 0 and (k - 1) / n >= threshold:
        k -= 1
    while k / n < threshold:
        k += 1
    return k


def _require_session_settings(threshold: float, noise: NoiseSpec) -> None:
    _require_instance("noise", noise, NoiseSpec)
    if not (_is_real(threshold) and 0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be a real number in [0, 1], got {threshold!r}")


def verify_session(
    account: AuthAccount,
    attacker: AttackerModel = AttackerModel.LEGITIMATE,
    noise: NoiseSpec = NOISELESS,
    threshold: float = 1.0,
    seed: int | np.random.Generator = 0,
    password_ok: bool = True,
) -> SessionResult:
    """One full session: noise, one round per pair, compare bits, accept/reset.

    Accepted sessions overwrite the records with the measured bits and the
    stored pairs with the collapsed Bell states (so the account can be used
    again); rejected sessions flag the account permanently.  The classical
    password gate is a boolean (bool or numpy bool_, anything else raises
    ValueError): when false the session is rejected before any qubit is
    touched.  An account that is not an AuthAccount, a stored pair that is
    not the Bell state its record names, an attacker that is not an
    AttackerModel, or a noise that is not a NoiseSpec is rejected with
    ValueError before any draw, and so is a seed that is neither a
    Generator nor an integer >= 0 (a bool included).

    The session draws random((n, K)), the doubles of a (1, n, K) block: per
    pair, the noise block, the attacker's slot block (its _SLOT_REGISTERS
    draws), then the two ancilla uniforms, as laid out in the module's
    Seeding note.  These are the draws
    of the state-vector round, taken in the same order, so seeded sessions
    agree with it bit for bit.  The Bell outcome does not depend on the
    Hadamard convention, so a session takes none.  A round matches when the
    label it reads (_session_labels) equals its record's; the session accepts
    when its match count reaches the fewest accepting matches
    (_fewest_matches), the rule a sweep's array blocks are accepted with.
    """
    _require_instance("account", account, AuthAccount)
    _slot_register(attacker)  # rejects a non-AttackerModel before any draw
    _require_seed(seed)
    if account.status != "active":
        raise ValueError("account is flagged; re-enrollment creates a new account")
    _require_session_settings(threshold, noise)
    if not isinstance(password_ok, (bool, np.bool_)):
        raise ValueError(f"password_ok must be a bool, got {password_ok!r}")
    if not password_ok:
        return SessionResult((), 0.0, False, tuple(account.records))
    if not account.pairs or len(account.pairs) != len(account.records):
        raise ValueError("an account needs at least one stored pair and one record per pair")
    labels = [_stored_label(pair, record) for pair, record in zip(account.pairs, account.records)]
    n = len(labels)
    draws = np.random.default_rng(seed).random((n, _round_draws(attacker, noise)))
    outcomes = _session_labels(labels, draws.tolist(), attacker, noise)
    matches = [o == l for o, l in zip(outcomes, labels)]
    count = sum(matches)
    accepted = count >= _fewest_matches(n, threshold)
    measured = [_LABEL_BITS[outcome] for outcome in outcomes]
    account.pairs = [_BELL_PAIRS[outcome] for outcome in outcomes]
    if accepted:
        account.records = measured
    else:
        account.status = "flagged"
    result = object.__new__(SessionResult)  # fields written as ghz._shot writes them: no frozen __init__
    fields = result.__dict__
    fields["per_pair_match"], fields["match_fraction"] = tuple(matches), count / n
    fields["accepted"], fields["updated_records"] = accepted, tuple(measured)
    return result


def attacker_round_distribution(model: AttackerModel, true_pair_label: BellLabel) -> np.ndarray:
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
        dist += _branch_probabilities(np.kron(slot.build(draw), pair))
    return dist / len(slot.representatives)


def _round_match_probability(attacker: AttackerModel, noise: NoiseSpec) -> float:
    """Exact probability that one round's measured bits equal the record.

    A card-less attacker reads a uniform label whatever the noise.  A
    legitimate card reads the noisy label, which equals the record iff the
    two qubits' masks are equal; a hit moves p / len(hits) onto each of its masks.
    """
    if attacker is not AttackerModel.LEGITIMATE:
        return 0.25
    weights = [1.0, 0.0, 0.0, 0.0]  # one qubit's probability of each label mask
    if hits := _NOISE_HITS[noise.model]:
        weights[0] -= noise.p  # once, not p / len(hits) per Pauli, so the rate keeps its last bits
        for mask in hits:
            weights[mask] += noise.p / len(hits)
    probability = 0.0  # left to right: from Python 3.12 on, sum() of floats is compensated
    for w in weights:
        probability += w * w
    return probability


def _acceptance_probability(match_probabilities: Sequence[float], fewest: int) -> float:
    """P(at least ``fewest`` matches) for independent rounds (a Poisson-binomial tail).

    ``fewest`` is the fewest accepting matches, _fewest_matches(n, threshold).  Only counts that
    can still reach it are kept: with r rounds left, k >= fewest - r.  So the first n - fewest
    rounds grow the band by one count each, every later round drops its lowest, and each kept
    count is the same two products of the same operands as in the full recurrence, bit for bit.
    At threshold 1.0 the band is one count wide."""
    if fewest == 0:
        return 1.0
    free = len(match_probabilities) - fewest  # rounds that may miss
    if not free:  # a band one count wide: the same two products per round, on one float
        count = 1.0
        for q in match_probabilities:
            count = 0.0 * (1.0 - q) + count * q
        return min(1.0, count)
    counts = [1.0]  # counts[i] = P(low + i matches so far); low rises by one in each banded round
    for q in match_probabilities[:free]:
        counts = [miss * (1.0 - q) + hit * q for miss, hit in zip(counts + [0.0], [0.0] + counts)]
    for q in match_probabilities[free:]:
        counts = [miss * (1.0 - q) + hit * q for miss, hit in zip(counts[1:] + [0.0], counts)]
    tail = 0.0  # left to right, as _round_match_probability adds
    for count in counts:
        tail += count
    return min(1.0, tail)


@lru_cache(maxsize=None)
def _check_labels(oracle_fn: Callable, attacker: AttackerModel) -> None:
    """Raise unless ``oracle_fn`` agrees with the label engine on all four labels (a pass is memoized)."""
    for index, label in enumerate(BELL_DECODE_ORDER):
        oracle = oracle_fn(attacker, label)
        # the label engine: a card reads its own label, a card-less attacker a uniform one
        label_model = np.eye(4)[index] if attacker is AttackerModel.LEGITIMATE else np.full(4, 0.25)
        if np.max(np.abs(oracle - label_model)) > _ORACLE_ATOL:
            raise RuntimeError(
                f"label engine disagrees with the state-vector round for {attacker.token} "
                f"on {label.token}: {oracle}"
            )


#: The z of every Wilson interval a sweep reports: the 99.7% level.
_WILSON_Z = 3.0


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (z=3.0: the 99.7% level)."""
    if not (_is_real(z) and 0.0 < z < np.inf):
        raise ValueError(f"z must be a finite positive number, got {z!r}")
    _require_int("trials", trials, 1)
    _require_int("successes", successes, 0, trials)
    return _wilson(successes, trials, z)


def _wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    """wilson_interval on counts and a z that are known good: no checks."""
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
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
) -> list[SweepRow]:
    """Empirical acceptance rate vs the exact one, per account size.

    Each account size n has its own generator, default_rng((seed, n)): it
    enrolls one random account, then each of the ``trials`` sessions starts
    from that account, drawing from that generator in trial order.  Rows
    are reproducible from (seed, n), independent of the other sizes in
    ``n_range``; trials within a row are sequential, not separately seeded.
    The analytic column is the exact acceptance probability under the same
    noise and threshold: the label model's per-round match probability
    (_round_match_probability), summed over the accepting match counts.
    Trial 0 is a verify_session call on the enrolled account itself (nothing
    reads the account after it), so a session stays the public unit a
    caller (or a tracer wrapping the module's functions) sees a row run; the
    other trials are drawn as random((C, n, K)) blocks of at most
    _CHUNK_DRAWS uniforms, each counting its sessions' matching rounds
    (_accepted_sessions, the matches of verify_session's labels).  Both accept
    when a session's match count reaches the fewest accepting matches
    (_fewest_matches, the first k with k / n >= threshold), and a bulk draw
    yields the same doubles as the sessions' one-by-one draws, so a row
    equals T sequential verify_session calls on its stream, whatever the
    chunk size.  No block is drawn when no session reads a draw: a noiseless
    legitimate card reads its own labels, so its other T - 1 sessions accept
    and the row's generator, which ends with the row, draws nothing for them.
    After its size checks and before any row, the sweep checks
    the label model's noise-free round against the state-vector oracle
    (attacker_round_distribution) on all four labels, once per (oracle,
    attacker) in a process, and raises RuntimeError on the first label they
    disagree on.  A threshold outside [0, 1] (NaN included), a noise that is
    not a NoiseSpec, a bad trial count, a seed that is not an integer >= 0,
    an ``n_range`` that is not iterable or any bad account size in it raises
    ValueError before any draw.
    """
    _slot_register(attacker)  # rejects a non-AttackerModel before any trial
    trials = _require_int("trials", trials, 1)  # a Python int, as are the sizes: a row holds plain ints
    _require_int("seed", seed, 0)
    _require_session_settings(threshold, noise)
    try:
        n_values = iter(n_range)
    except TypeError:  # None, a bare int
        raise ValueError(f"n_range must be an iterable of account sizes, got {n_range!r}") from None
    sizes = [_require_int("n", n, 1) for n in n_values]  # every size before the first row
    _check_labels(attacker_round_distribution, attacker)  # the oracle looked up now: a replaced one is checked afresh
    k, q = _round_draws(attacker, noise), _round_match_probability(attacker, noise)
    # a noiseless card reads its own labels, so no session reads a draw
    reads_draws = attacker is not AttackerModel.LEGITIMATE or _noise_draws(noise)
    rows = []
    for n in sizes:
        rng = np.random.default_rng((seed, n))
        account = enroll(n, "random", seed=rng)
        bits = np.array(account.records, dtype=bool)  # before trial 0, which rewrites the records
        fewest = _fewest_matches(n, threshold)
        successes = int(verify_session(account, attacker, noise, threshold, rng).accepted)
        if reads_draws:
            chunk = max(1, _CHUNK_DRAWS // (n * k))
            for start in range(1, trials, chunk):
                draws = rng.random((min(chunk, trials - start), n, k))
                successes += _accepted_sessions(bits, draws, attacker, noise, fewest)
        else:  # every other session accepts; the generator ends with the row, so no block is drawn
            successes += trials - 1
        row = object.__new__(SweepRow)  # fields written as ghz._shot writes them: no frozen __init__
        fields = row.__dict__
        fields["n"], fields["attacker"], fields["noise"], fields["p"] = n, attacker.token, noise.model, noise.p
        fields["trials"], fields["accept_rate"] = trials, successes / trials
        fields["analytic_rate"] = _acceptance_probability([q] * n, fewest)
        fields["wilson_low"], fields["wilson_high"] = _wilson(successes, trials, _WILSON_Z)
        rows.append(row)
    return rows
