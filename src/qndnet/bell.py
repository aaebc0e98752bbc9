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
oracle.  It runs the GHZ module's n = 2 schedule on the same level builder,
memo slot, input checks (_require_table_input), finisher (_shot) and row
builder (_branch_rows) as run_ghz_qnd and ghz_branch_table, after its own
2-qubit check, handing them BellQndOutcome and the Bell view of the n = 2
label table (_bell_labels): _branch_rows takes the state, the convention token
and that label table and looks the schedule up itself, and the slot's table
keeps Bell outcomes apart from GHZ ones, each finished once per leaf, with no
decoding per shot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

from .ghz import _branch_rows, _ghz_labels, _require_table_input, _shot, decode_ghz, ghz_network_gate_list, ghz_state
from .statevector import (
    StateVector,
    _apply_network_raw,
    _require_instance,
    _require_int,
    _require_normalized,
    inner_product,
)


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


#: Each Bell label's token, for a lookup that scans nothing.
_BELL_TOKENS = {label.value: label for label in BellLabel}


def parse_bell_label(token: str) -> BellLabel:
    """The Bell label a token names; anything else, a member or an unhashable list included, raises ValueError."""
    try:
        return _BELL_TOKENS[token]
    except (KeyError, TypeError):
        raise ValueError(f"unknown Bell label {token!r} (expected phi+/phi-/psi+/psi-)") from None


def bell_state(label: BellLabel) -> StateVector:
    """The two-qubit GHZ state with the label's bits: Phi+- = +-:11, Psi+- = +-:10."""
    parity, phase = bell_bits(label)
    return ghz_state(decode_ghz((parity,), phase, 2))


def decode_bell(parity_bit: int, phase_bit: int) -> BellLabel:
    """Ancilla bits (ints, not bools) -> Bell label (total bijection)."""
    _require_int("parity bit", parity_bit, 0, 1)
    _require_int("phase bit", phase_bit, 0, 1)
    return BELL_DECODE_ORDER[2 * parity_bit + phase_bit]


def bell_bits(label: BellLabel) -> tuple[int, int]:
    """Inverse of decode_bell: the (parity, phase) ancilla bits of a Bell state."""
    index = BELL_DECODE_ORDER.index(_require_instance("label", label, BellLabel))
    return index >> 1, index & 1


@dataclass(frozen=True)
class BellQndOutcome:
    """Measured ancilla bits, the decoded label, and the collapsed data state."""

    parity_bit: int
    phase_bit: int
    label: BellLabel
    probability: float
    post_state: StateVector


@lru_cache(maxsize=None)
def _bell_labels(convention: str) -> tuple:
    """Each n = 2 leaf's (parity, phase, Bell label): the Bell view of the GHZ label table."""
    return tuple((p, g, decode_bell(p, g)) for (p,), g, _ in _ghz_labels(2, convention))


def bell_network_unitary_steps(convention: str = "paper") -> list:
    """The full 8-gate network over qubits (data 0, 1; ancillas 2, 3)."""
    return ghz_network_gate_list(2, convention)


def _require_two_qubits(state: StateVector) -> None:
    if state.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit input, got {state.num_qubits}")


def _require_pair(state: StateVector, where: str) -> None:
    _require_two_qubits(state)
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
    Bell state.  A state's first shot expands all four branches at once and
    later shots only walk them.  Repeated shots of one state that reach the
    same leaf may return the same immutable outcome object.  The register
    size is checked on every shot, since a larger GHZ register can hold the
    memo slot; _shot checks the rest.
    """
    _require_two_qubits(state)
    return _shot(state, convention, draws, "run_bell_qnd", BellQndOutcome, _bell_labels, convention)


def bell_branch_table(
    state: StateVector, convention: str = "paper"
) -> list[tuple[tuple[int, int], BellLabel, float, StateVector | None]]:
    """All four ancilla branches of the network: (bits, label, probability, post state).

    Enumerates the same evolution run_bell_qnd samples from; branches of
    (numerically) zero probability carry ``None`` as their post state.
    """
    _require_two_qubits(state)
    convention = _require_table_input(state, convention, "bell_branch_table")
    return _branch_rows(state, convention, _bell_labels(convention))


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
