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

For n <= 6 the full n-data + n-ancilla register is simulated at once; for
larger n each parity extraction commutes with the rest, so ancillas are
appended, measured and dropped one at a time, keeping the live register at
n + 1 qubits (observationally equivalent, asserted by tests).

The network is built in one place (_parity_network) and run by one sampler
(_measure_network); the Bell measurement is its n = 2 case, and the
authentication oracle round places it on (slot, terminal) of a larger register.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .statevector import (
    _SQRT_HALF,
    ZERO_BRANCH_PROB,
    GateKind,
    StateVector,
    _apply_gate_raw,
    _apply_network_raw,
    _measure_drop_raw,
    _require_normalized,
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
def _parity_network(data_qubits: tuple[int, ...], ancilla_start: int, convention: str) -> tuple:
    """The network on ``data_qubits``, its ancillas numbered from ``ancilla_start``.

    Ancilla i < n - 1 takes the parity of data qubits i and i + 1; the last
    one takes the global parity between two Hadamard layers.
    """
    n = len(data_qubits)
    gates = []
    for i in range(n - 1):
        gates.append(cnot(data_qubits[i], ancilla_start + i))
        gates.append(cnot(data_qubits[i + 1], ancilla_start + i))
    layer = [hadamard(q, convention) for q in data_qubits]
    gates.extend(layer)
    gates.extend(cnot(q, ancilla_start + n - 1) for q in data_qubits)
    gates.extend(layer)
    return tuple(gates)


def _measure_network(amps: np.ndarray, gates: Sequence, draws: Sequence[float]) -> tuple:
    """Run the network with one ancilla per draw, then measure and drop them in order.

    Returns the ancilla bits, their joint probability and the register's amplitudes.
    """
    joint = _apply_network_raw(amps, gates, len(draws))
    bits, probability = [], 1.0
    for draw in draws:
        # each drop moves the next ancilla to the index right after the register
        bit, prob, joint = _measure_drop_raw(joint, amps.size.bit_length() - 1, draw)
        bits.append(bit)
        probability *= prob
    return bits, probability, joint


def _branch_columns(amps: np.ndarray, gates: Sequence, num_ancillas: int) -> tuple:
    """Per ancilla pattern: its probability and the normalized register amplitudes.

    Patterns are in big-endian order; a (numerically) zero branch has None.
    """
    m = _apply_network_raw(amps, gates, num_ancillas).reshape(-1, 1 << num_ancillas)
    probs = (np.abs(m) ** 2).sum(axis=0)
    live = probs > ZERO_BRANCH_PROB
    posts = np.divide(m, np.sqrt(probs), out=np.zeros_like(m), where=live)
    return probs, [posts[:, a] if live[a] else None for a in range(len(probs))]


def ghz_network_gate_list(n: int, convention: str = "paper") -> list:
    """Gate list over n data qubits (0..n-1) plus n ancillas (n..2n-1).

    Neighbor-parity CNOT pairs, a Hadamard layer, the global-parity CNOT
    chain, and a second Hadamard layer.  For n = 2 this is the Bell network.
    """
    if not 2 <= n <= MAX_PARTS:
        raise ValueError(f"n must be in [2, {MAX_PARTS}], got {n}")
    return list(_parity_network(tuple(range(n)), n, convention))


@lru_cache(maxsize=None)
def _staged_steps(n: int, convention: str) -> tuple:
    """The network for one live ancilla at index n.

    One step per ancilla: its CNOTs retargeted to index n, then the data-only
    gates that run once it is measured and dropped.
    """
    steps: dict[int, tuple[list, list]] = {}
    for gate in _parity_network(tuple(range(n)), n, convention):
        if gate.kind is GateKind.CNOT:
            ancilla = gate.target
            steps.setdefault(ancilla, ([], []))[0].append(cnot(gate.control, n))
        else:
            steps[ancilla][1].append(gate)
    return tuple((tuple(cnots), tuple(data_gates)) for cnots, data_gates in steps.values())


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


def run_ghz_qnd(
    state: StateVector,
    convention: str = "paper",
    draws: Sequence[float] = (),
    staged: bool | None = None,
) -> GhzQndOutcome:
    """Measure the register in the GHZ basis without demolishing basis states.

    Consumes one draw per ancilla: the n-1 neighbor parities in order, then
    the global parity.  ``staged`` controls ancilla reuse (default: automatic,
    staged for n > 6); both modes give identical outcomes for equal draws.
    """
    n = state.num_qubits
    if not 2 <= n <= MAX_PARTS:
        raise ValueError(f"input must have 2..{MAX_PARTS} qubits, got {n}")
    if len(draws) != n:
        raise ValueError(f"run_ghz_qnd needs {n} draws, got {len(draws)}")
    _require_normalized(state, "ghz network")
    if staged is None:
        staged = n > FULL_REGISTER_LIMIT

    if staged:
        bits, probability, amps = [], 1.0, state.amplitudes
        for (ancilla_gates, data_gates), draw in zip(_staged_steps(n, convention), draws):
            (bit,), prob, amps = _measure_network(amps, ancilla_gates, (draw,))
            bits.append(bit)
            probability *= prob
            for gate in data_gates:
                amps = _apply_gate_raw(amps, n, gate)
    else:
        gates = _parity_network(tuple(range(n)), n, convention)
        bits, probability, amps = _measure_network(state.amplitudes, gates, draws)

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

    Full-register enumeration of the evolution run_ghz_qnd samples from;
    limited to n <= 6 where all ancillas fit live.
    """
    n = state.num_qubits
    if n > FULL_REGISTER_LIMIT:
        raise ValueError(f"branch table needs n <= {FULL_REGISTER_LIMIT}, got {n}")
    _require_normalized(state, "ghz_branch_table")
    probs, posts = _branch_columns(state.amplitudes, ghz_network_gate_list(n, convention), n)
    table = []
    for a, (prob, post) in enumerate(zip(probs, posts)):
        raw = [(a >> (n - 1 - i)) & 1 for i in range(n)]
        bits = tuple(raw[:-1]) + (_canonical_phase_bit(raw[-1], n, convention),)
        post_state = None if post is None else StateVector(n, post)
        table.append((bits, decode_ghz(bits[:-1], bits[-1], n), float(prob), post_state))
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
