"""Nondemolition measurement in the n-partite GHZ basis.

A generalized GHZ state is (|x> + sign*|x_bar>)/sqrt2 for a bitstring x and
its complement; labels are canonicalized to x_0 = 1 since {x, x_bar} name the
same ray (the '-' member only up to a global sign).  The basis carries n bits
of classical information: n-1 neighbor parities p_i = x_i XOR x_{i+1} and one
phase bit.

The network generalizes the two-qubit case: each neighbor pair writes its
parity onto its own ancilla through two CNOTs, then a Hadamard layer turns
the phase bit into the global parity of the register (under the standard
Hadamard, '+' states are supported only on even-weight kets and '-' states
only on odd-weight kets), a CNOT chain from every data qubit writes that
parity onto the last ancilla, and a second Hadamard layer restores the data.

Under the "paper" Hadamard convention the post-layer support parity is offset
by n mod 2, so the runner XORs the raw global-parity ancilla with n mod 2
before decoding; the reported phase bit is therefore canonical (0 <-> '+')
under both conventions.

The network is built once (_parity_network) as a schedule of steps (gates,
ancillas): append the ancillas in |0>, run the gates, measure and drop the
ancillas in order.  Unstaged it is one step with every ancilla live; staged
(the default for n > FULL_REGISTER_LIMIT) each parity extraction, which
commutes with the rest, is a one-ancilla step, so the live register stays at
n + 1 qubits.  Every measurement runs on one branch tree over a schedule
(_Node, built on first visit): a shot walks it, a branch table expands it.
The last state's tree stays in one slot (_state_tree), so repeated shots of a
state run no network; auth oracle rounds build a fresh tree each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .statevector import (
    _SQRT_HALF,
    MAX_QUBITS,
    ZERO_BRANCH_PROB,
    StateVector,
    _apply_network_raw,
    _collapse_raw,
    _pick_bit,
    _require_normalized,
    _split_raw,
    apply_gates,
    cnot,
    hadamard,
    inner_product,
)

#: Largest data-register size the module accepts (oracle scale bound).
MAX_PARTS = 8

#: Data-register sizes simulated with all ancillas live at once.
FULL_REGISTER_LIMIT = 6


@dataclass(frozen=True)
class GhzLabel:
    """Sign ('+' or '-') and canonical bitstring (leading bit 1) of a GHZ state."""

    sign: str
    bits: str

    def __post_init__(self) -> None:
        if self.sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")
        if len(self.bits) < 2:
            raise ValueError(f"need at least 2 bits, got {self.bits!r}")
        if not set(self.bits) <= {"0", "1"}:
            raise ValueError(f"bits may only contain 0/1, got {self.bits!r}")
        if self.bits[0] != "1":
            raise ValueError(f"label is not canonical (leading bit 0): {self.bits!r}")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def token(self) -> str:
        return f"{self.sign}:{self.bits}"


def parse_ghz_label(token: str) -> GhzLabel:
    """Parse a "+:10110"-style token."""
    sign, sep, bits = token.partition(":")
    if not sep:
        raise ValueError(f"malformed GHZ label {token!r} (expected e.g. '+:101')")
    return GhzLabel(sign, bits)


def all_canonical_labels(n: int) -> list[GhzLabel]:
    """All 2**n canonical labels for n parts, bitstrings ascending, '+' before '-'."""
    if not 2 <= n <= MAX_PARTS:
        raise ValueError(f"n must be in [2, {MAX_PARTS}], got {n}")
    labels = []
    for value in range(1 << (n - 1)):
        bits = "1" + format(value, f"0{n - 1}b")
        labels.append(GhzLabel("+", bits))
        labels.append(GhzLabel("-", bits))
    return labels


def ghz_state(label: GhzLabel) -> StateVector:
    """(|x> + sign*|x_bar>)/sqrt2 for the canonical bitstring x of ``label``."""
    n = label.n
    if n > MAX_PARTS:
        raise ValueError(f"n={n} exceeds the supported maximum {MAX_PARTS}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    index = int(label.bits, 2)
    amps[index] = _SQRT_HALF
    amps[index ^ ((1 << n) - 1)] = (1 if label.sign == "+" else -1) * _SQRT_HALF
    return StateVector(n, amps)


def ghz_bits(label: GhzLabel) -> tuple[tuple[int, ...], int]:
    """Classical encoding of a label: neighbor parities and the phase bit."""
    x = [int(c) for c in label.bits]
    parities = tuple(x[i] ^ x[i + 1] for i in range(label.n - 1))
    return parities, 0 if label.sign == "+" else 1


def decode_ghz(
    part_parity_bits: Sequence[int], global_parity_bit: int, n: int
) -> GhzLabel:
    """Rebuild the canonical label from n-1 neighbor parities and the phase bit."""
    if len(part_parity_bits) != n - 1:
        raise ValueError(f"expected {n - 1} parity bits, got {len(part_parity_bits)}")
    if global_parity_bit not in (0, 1) or not all(b in (0, 1) for b in part_parity_bits):
        raise ValueError("bits must be 0 or 1")
    x = [1]
    for p in part_parity_bits:
        x.append(x[-1] ^ p)
    return GhzLabel("+" if global_parity_bit == 0 else "-", "".join(map(str, x)))


@lru_cache(maxsize=None)
def _parity_network(
    data_qubits: tuple[int, ...], ancilla_start: int, convention: str, staged: bool
) -> tuple:
    """The network on ``data_qubits`` as a schedule of steps (gates, ancillas).

    A step appends ``ancillas`` qubits in |0> from index ``ancilla_start``,
    runs ``gates``, then measures and drops those ancillas in order.  Ancilla
    i < n - 1 takes the parity of data qubits i and i + 1; the last one takes
    the global parity between two Hadamard layers.  Unstaged, this is one
    step with all n ancillas live; staged, each ancilla's CNOT run targets
    ``ancilla_start`` in a step of its own and each layer is a 0-ancilla step.
    """
    n = len(data_qubits)
    layer = tuple(hadamard(q, convention) for q in data_qubits)
    controls = [data_qubits[i : i + 2] for i in range(n - 1)] + [data_qubits]
    runs = [
        tuple(cnot(q, ancilla_start + (0 if staged else i)) for q in qubits)
        for i, qubits in enumerate(controls)
    ]
    steps = [(run, 1) for run in runs[:-1]] + [(layer, 0), (runs[-1], 1), (layer, 0)]
    return tuple(steps) if staged else ((sum((gates for gates, _ in steps), ()), n),)


class _Node:
    """The register after a prefix of ancilla bits, ``pending`` ancillas live (0: a leaf).

    ``prob`` is the probability of the bit that led here.  Threads filling
    one child at once build equal nodes, so either may stay.
    """

    __slots__ = ("prob", "amps", "steps", "at", "pending", "p0", "live1", "m", "children")

    def __init__(self, amps: np.ndarray, steps: Sequence, at: int = 0, pending: int = 0, prob: float = 1.0):
        while not pending and at < len(steps):  # 0-ancilla steps run on to the next ancilla
            gates, pending = steps[at]
            amps = _apply_network_raw(amps, gates, pending)
            at += 1
        self.prob, self.amps, self.steps, self.at, self.pending = prob, amps, steps, at, pending
        if pending:  # the next ancilla sits right after the register
            self.p0, self.live1, self.m = _split_raw(amps, amps.size.bit_length() - 1 - pending)
            self.children = [None, None]

    def child(self, bit: int) -> "_Node":
        if self.children[bit] is None:
            prob, kept = _collapse_raw(self.m, bit, self.p0)
            self.children[bit] = _Node(kept, self.steps, self.at, self.pending - 1, prob)
        return self.children[bit]

    def walk(self, draws: Sequence[float]) -> tuple:
        """One shot, a draw per ancilla: (bits, joint probability, register amplitudes)."""
        node, bits, probability, draws = self, [], 1.0, iter(draws)
        while node.pending:
            bits.append(_pick_bit(node.p0, node.live1, next(draws)))
            node = node.child(bits[-1])
            probability *= node.prob
        return bits, probability, node.amps

    def expand(self) -> list:
        """Each leaf, bits big-endian: (bits, probability, register or None at <= ZERO_BRANCH_PROB)."""
        def rows(node, bits, prob, left):
            if node is None or not left:
                post = None if prob <= ZERO_BRANCH_PROB else node.amps
                return [(bits + tail, prob, post) for tail in product((0, 1), repeat=left)]
            weights = (node.p0, 1.0 - node.p0 if node.live1 else 0.0)
            live = [node.child(bit) if w > ZERO_BRANCH_PROB else None for bit, w in enumerate(weights)]
            return [row for bit, child in enumerate(live)
                    for row in rows(child, bits + (bit,), prob * child.prob if child else 0.0, left - 1)]

        return rows(self, (), 1.0, sum(ancillas for _, ancillas in self.steps))


#: (state, schedule, root) of the last state measured: one tree, 3.2 MiB fully expanded at n = 8.
#: It holds the state, so an ``is`` match cannot be a reused id; one tuple assignment replaces it.
_last_tree: tuple = (None, None, None)


def _state_tree(state: StateVector, steps: Sequence) -> _Node:
    global _last_tree
    last_state, last_steps, root = _last_tree
    if last_state is not state or last_steps is not steps:
        root = _Node(state.amplitudes, steps)
        _last_tree = (state, steps, root)
    return root


def ghz_network_gate_list(n: int, convention: str = "paper") -> list:
    """Gate list over n data qubits (0..n-1) plus n ancillas (n..2n-1).

    Neighbor-parity CNOT pairs, a Hadamard layer, the global-parity CNOT
    chain, and a second Hadamard layer.  For n = 2 this is the Bell network.
    """
    if not 2 <= n <= MAX_PARTS:
        raise ValueError(f"n must be in [2, {MAX_PARTS}], got {n}")
    ((gates, _),) = _parity_network(tuple(range(n)), n, convention, False)
    return list(gates)


def hadamard_layer(state: StateVector, convention: str = "standard") -> StateVector:
    """Apply the chosen Hadamard to every qubit of the register."""
    return apply_gates(
        state, [hadamard(i, convention) for i in range(state.num_qubits)]
    )


@dataclass(frozen=True)
class GhzQndOutcome:
    """Measured parity bits (canonical phase bit), decoded label, collapsed state."""

    part_parity_bits: tuple[int, ...]
    global_parity_bit: int
    label: GhzLabel
    probability: float
    post_state: StateVector


def _canonical_phase_bit(raw: int, n: int, convention: str) -> int:
    # paper-convention Hadamards shift the post-layer weight parity by n mod 2
    return raw ^ (n & 1) if convention == "paper" else raw


def _ghz_schedule(state: StateVector, convention: str, staged: bool | None, where: str) -> tuple:
    """The schedule for a checked 2..MAX_PARTS-qubit input (staged by default above the limit)."""
    n = state.num_qubits
    if not 2 <= n <= MAX_PARTS:
        raise ValueError(f"input must have 2..{MAX_PARTS} qubits, got {n}")
    if staged is None:
        staged = n > FULL_REGISTER_LIMIT
    elif not staged and 2 * n > MAX_QUBITS:
        raise ValueError(f"staged=False needs 2n <= MAX_QUBITS qubits, so n <= {MAX_QUBITS // 2}; got {n}")
    _require_normalized(state, where)
    return _parity_network(tuple(range(n)), n, convention, bool(staged))


def run_ghz_qnd(
    state: StateVector,
    convention: str = "paper",
    draws: Sequence[float] = (),
    staged: bool | None = None,
) -> GhzQndOutcome:
    """Measure the register in the GHZ basis without demolishing basis states.

    Consumes one draw per ancilla: the n-1 neighbor parities in order, then
    the global parity.  ``staged`` only picks the schedule (default: automatic,
    staged for n > FULL_REGISTER_LIMIT); both give identical outcomes for equal
    draws, and ``staged=False`` reaches n <= 7 (2n <= MAX_QUBITS).  It stays
    until the benchmark's per-layer probe stops timing the two schedules apart.
    """
    n = state.num_qubits
    steps = _ghz_schedule(state, convention, staged, "ghz network")
    if len(draws) != n:
        raise ValueError(f"run_ghz_qnd needs {n} draws, got {len(draws)}")
    bits, probability, amps = _state_tree(state, steps).walk(draws)
    parities = tuple(bits[:-1])
    g = _canonical_phase_bit(bits[-1], n, convention)
    return GhzQndOutcome(
        part_parity_bits=parities,
        global_parity_bit=g,
        label=decode_ghz(parities, g, n),
        probability=probability,
        post_state=StateVector(n, amps),
    )


def ghz_branch_table(
    state: StateVector, convention: str = "paper"
) -> list[tuple[tuple[int, ...], GhzLabel, float, StateVector | None]]:
    """All 2**n ancilla branches: (bits with canonical phase, label, probability, post state).

    Expands the tree run_ghz_qnd samples from by default (shots equal rows); n = 2..MAX_PARTS.
    """
    n = state.num_qubits
    steps = _ghz_schedule(state, convention, None, "ghz_branch_table")
    table = []
    for raw, prob, post in _state_tree(state, steps).expand():
        bits = raw[:-1] + (_canonical_phase_bit(raw[-1], n, convention),)
        post_state = None if post is None else StateVector(n, post)
        table.append((bits, decode_ghz(bits[:-1], bits[-1], n), prob, post_state))
    return table


def ghz_projection_oracle(state: StateVector) -> list[tuple[GhzLabel, float]]:
    """Brute-force GHZ decomposition by inner products against all 2**n basis states.

    Independent of the network path; probabilities sum to 1 within 1e-10.
    """
    n = state.num_qubits
    if n > MAX_PARTS:
        raise ValueError(f"oracle bound is n <= {MAX_PARTS}, got {n}")
    _require_normalized(state, "ghz_projection_oracle")
    return [
        (label, abs(inner_product(ghz_state(label), state)) ** 2)
        for label in all_canonical_labels(n)
    ]
