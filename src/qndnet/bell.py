"""Nondemolition measurement in the Bell basis: the n = 2 view of the GHZ network.

The Bell states are the two-qubit GHZ states (Phi+- = +-:11, Psi+- = +-:10).
The network acts on two data qubits (0, 1) and two ancillas (2, 3), both
ancillas starting in |0>:

    CNOT(0->2), CNOT(1->2)   # ancilla 2 picks up the parity bit
    H(0), H(1)               # rotates phase information into parity
    CNOT(0->3), CNOT(1->3)   # ancilla 3 picks up the (rotated) phase bit
    H(0), H(1)               # restores the data register

Measuring the ancillas identifies the Bell component and leaves the data
qubits in exactly that Bell state, so repeating the measurement yields the
same bits with no further disturbance.  Decoding table:

    (parity, phase): (0,0)->Phi+  (0,1)->Phi-  (1,0)->Psi+  (1,1)->Psi-

Under the "paper" Hadamard convention the pre-measurement joint state carries
the input's Bell coefficients on the ancilla branches with their exact signs;
the "standard" convention flips some branch-internal phases but leaves every
outcome probability and decoded bit unchanged.

This module keeps the Bell labels, their decoding table and the projection
oracle.  It runs the GHZ module's n = 2 schedule on the same level builder
and memo slot as run_ghz_qnd and ghz_branch_table, without label decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .ghz import (
    _parity_network, _state_table, _table_rows, _walk, decode_ghz, ghz_network_gate_list, ghz_state
)
from .statevector import StateVector, _apply_network_raw, _require_normalized, inner_product


class BellLabel(Enum):
    """The four Bell states: Phi+- = (|11> +- |00>)/sqrt2, Psi+- = (|10> +- |01>)/sqrt2."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def token(self) -> str:
        return self.value


#: Labels in ancilla-decoding order: index = 2*parity + phase.
BELL_DECODE_ORDER = (
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
)


def parse_bell_label(token: str) -> BellLabel:
    for label in BellLabel:
        if label.value == token:
            return label
    raise ValueError(f"unknown Bell label {token!r} (expected phi+/phi-/psi+/psi-)")


def bell_state(label: BellLabel) -> StateVector:
    """The two-qubit GHZ state with the label's bits: Phi+- = +-:11, Psi+- = +-:10."""
    parity, phase = bell_bits(label)
    return ghz_state(decode_ghz((parity,), phase, 2))


def decode_bell(parity_bit: int, phase_bit: int) -> BellLabel:
    """Ancilla bits -> Bell label (total bijection)."""
    if parity_bit not in (0, 1) or phase_bit not in (0, 1):
        raise ValueError(f"bits must be 0 or 1, got ({parity_bit}, {phase_bit})")
    return BELL_DECODE_ORDER[2 * parity_bit + phase_bit]


def bell_bits(label: BellLabel) -> tuple[int, int]:
    """Inverse of decode_bell: the (parity, phase) ancilla bits of a Bell state."""
    index = BELL_DECODE_ORDER.index(label)
    return index >> 1, index & 1


@dataclass(frozen=True)
class BellQndOutcome:
    """Measured ancilla bits, the decoded label, and the collapsed data state."""

    parity_bit: int
    phase_bit: int
    label: BellLabel
    probability: float
    post_state: StateVector


def bell_network_unitary_steps(convention: str = "paper") -> list:
    """The full 8-gate network over qubits (data 0, 1; ancillas 2, 3)."""
    return ghz_network_gate_list(2, convention)


def _require_pair(state: StateVector, where: str) -> None:
    if state.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit input, got {state.num_qubits}")
    _require_normalized(state, where)


def bell_premeasurement_state(state: StateVector, convention: str = "paper") -> StateVector:
    """Input (2 qubits) with ancillas appended and the network applied, unmeasured."""
    _require_pair(state, "bell network")
    gates = bell_network_unitary_steps(convention)
    return StateVector(4, _apply_network_raw(state.amplitudes, gates, 2))


def run_bell_qnd(
    state: StateVector,
    convention: str = "paper",
    draws: Sequence[float] = (0.0, 0.0),
) -> BellQndOutcome:
    """Run the network and measure both ancillas (qubit 2 first, then 3).

    The outcome is deterministic given ``draws``, each in [0, 1); the joint
    probability of the observed bits equals the squared overlap of the input
    with the decoded Bell state, and the returned 2-qubit post state is that
    Bell state.
    """
    if len(draws) != 2:
        raise ValueError("run_bell_qnd needs exactly two draws")
    _require_pair(state, "bell network")
    steps = _parity_network((0, 1), 2, convention, None)
    (parity, phase), probability, amps = _walk(*_state_table(state, steps, draws), draws)
    return BellQndOutcome(parity, phase, decode_bell(parity, phase), probability, StateVector(2, amps))


def bell_branch_table(
    state: StateVector, convention: str = "paper"
) -> list[tuple[tuple[int, int], BellLabel, float, StateVector | None]]:
    """All four ancilla branches of the network: (bits, label, probability, post state).

    Enumerates the same evolution run_bell_qnd samples from; branches of
    (numerically) zero probability carry ``None`` as their post state.
    """
    _require_pair(state, "bell network")
    steps = _parity_network((0, 1), 2, convention, None)
    return [
        (bits, decode_bell(*bits), prob, None if post is None else StateVector(2, post))
        for bits, prob, post in _table_rows(*_state_table(state, steps))
    ]


def bell_projection_oracle(
    state: StateVector,
) -> list[tuple[BellLabel, float, StateVector]]:
    """Brute-force Bell decomposition by direct inner products.

    Independent of the network code path; used to validate run_bell_qnd.
    """
    _require_pair(state, "bell_projection_oracle")
    out = []
    for label in BELL_DECODE_ORDER:
        basis = bell_state(label)
        amp = inner_product(basis, state)
        out.append((label, abs(amp) ** 2, basis))
    return out
