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
(the default above FULL_REGISTER_LIMIT parts) each parity extraction, which
commutes with the rest, is a one-ancilla step, so the live register stays at
n + 1 qubits.  One level builder (_branches) runs every measurement, one array
pass per depth over all live bit prefixes.  A state's first shot builds its path
and keeps only the memo slot (state, schedule); a repeat, or a branch table,
expands every branch once, and later shots walk that table (_state_table).
Auth oracle rounds build unmemoized tables.
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
    _apply_gate_raw,
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


def _require_parts(n: int) -> None:
    """The one range check on a part count, shared by the GHZ, operator and CLI entry points."""
    if not 2 <= n <= MAX_PARTS:
        raise ValueError(f"n must lie in [2, {MAX_PARTS}], got {n}")


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
    _require_parts(n)
    labels = []
    for value in range(1 << (n - 1)):
        bits = "1" + format(value, f"0{n - 1}b")
        labels.append(GhzLabel("+", bits))
        labels.append(GhzLabel("-", bits))
    return labels


def ghz_state(label: GhzLabel) -> StateVector:
    """(|x> + sign*|x_bar>)/sqrt2 for the canonical bitstring x of ``label``."""
    n = label.n
    _require_parts(n)
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
    data_qubits: tuple[int, ...], ancilla_start: int, convention: str, staged: bool | None
) -> tuple:
    """The network on ``data_qubits`` as a schedule of steps (gates, ancillas).

    A step appends ``ancillas`` qubits in |0> from index ``ancilla_start``,
    runs ``gates``, then measures and drops those ancillas in order.  Ancilla
    i < n - 1 takes the parity of data qubits i and i + 1; the last one takes
    the global parity between two Hadamard layers.  Unstaged, this is one
    step with all n ancillas live; staged, each ancilla's CNOT run targets
    ``ancilla_start`` in a step of its own and each layer is a 0-ancilla step.
    ``staged=None`` applies the one schedule rule, staged iff n > FULL_REGISTER_LIMIT,
    and returns the same cached schedule as the explicit choice, so every caller
    of one network (Bell, GHZ, the auth round, the flat gate list) shares one object.
    """
    n = len(data_qubits)
    if staged is None:
        return _parity_network(data_qubits, ancilla_start, convention, n > FULL_REGISTER_LIMIT)
    layer = tuple(hadamard(q, convention) for q in data_qubits)
    controls = [data_qubits[i : i + 2] for i in range(n - 1)] + [data_qubits]
    runs = [
        tuple(cnot(q, ancilla_start + (0 if staged else i)) for q in qubits)
        for i, qubits in enumerate(controls)
    ]
    steps = [(run, 1) for run in runs[:-1]] + [(layer, 0), (runs[-1], 1), (layer, 0)]
    return tuple(steps) if staged else ((sum((gates for gates, _ in steps), ()), n),)


def _branches(amps: np.ndarray, steps: Sequence, draws: Sequence[float] | None = None) -> tuple:
    """(weights, leaves) of ``steps`` on ``amps``, one array pass per depth over the live prefixes.

    weights[k][i] is ancilla k's (w0, w1) after the k-bit prefix i (big-endian; None if dead),
    leaves[i] the register after bits i.  With ``draws`` only their path is built."""
    rows, live, weights = amps[None], [0], []
    for gates, ancillas in steps:
        qubit = rows.shape[1].bit_length() - 1  # the step's ancillas sit from here on
        rows = _apply_network_raw(rows, (), ancillas)
        for gate in gates:  # rebinding frees each gate's input before the next one runs
            rows = _apply_gate_raw(rows, qubit + ancillas, gate)
        for _ in range(ancillas):
            level = [None] * (1 << len(weights))
            for r, i in enumerate(live):
                level[i] = _split_raw(rows[r], qubit)[0]
            if draws is None:  # every branch: one copy splits the rows, one division normalizes them
                kept = [2 * r + bit for r, i in enumerate(live) for bit in (0, 1) if level[i][bit]]
                rows = np.ascontiguousarray(rows.reshape(len(live), 1 << qubit, 2, -1).swapaxes(1, 2))
                rows = rows.reshape(2 * len(live), -1)
                rows = rows[kept] if len(kept) < len(rows) else rows  # dead branches leave
                rows /= np.sqrt([level[live[k >> 1]][k & 1] for k in kept])[:, None]
                live = [2 * live[k >> 1] + (k & 1) for k in kept]
            else:  # the drawn branch alone, collapsed as measure_qubit collapses it
                bit = _pick_bit(level[live[0]], draws[len(weights)])
                rows = _collapse_raw(rows.reshape(1 << qubit, 2, -1), bit, level[live[0]])[None]
                live = [2 * live[0] + bit]
            weights.append(level)
    return weights, dict(zip(live, rows))


def _walk(weights: list, leaves: dict, draws: Sequence[float]) -> tuple:
    """One shot on a branch table, a draw per ancilla: (bits, joint probability, register amplitudes)."""
    bits, probability, i = [], 1.0, 0
    for level, draw in zip(weights, draws):
        bit = _pick_bit(level[i], draw)
        bits.append(bit)
        probability *= level[i][bit]
        i = 2 * i + bit
    return bits, probability, leaves[i]


def _table_rows(weights: list, leaves: dict) -> list:
    """Each leaf, bits big-endian: (bits, probability, register or None at <= ZERO_BRANCH_PROB)."""
    probs = [1.0]
    for level in weights:
        probs = [p * w for p, pair in zip(probs, level) for w in pair or (0.0, 0.0)]
    return [(bits, p, None if p <= ZERO_BRANCH_PROB else leaves[i])
            for i, (bits, p) in enumerate(zip(product((0, 1), repeat=len(weights)), probs))]


#: (state, schedule, table or None before a repeat) of the last state measured; held, so ``is`` is safe.
_last_table: tuple = (None, None, None)


def _state_table(state: StateVector, steps: Sequence, draws: Sequence[float] | None = None) -> tuple:
    """A first shot (``draws``) builds its path and keeps the slot; a repeat or a table call, the table."""
    global _last_table
    last_state, last_steps, table = _last_table
    if last_state is not state or last_steps is not steps:
        _last_table, table = (state, steps, None), None
        if draws is not None:
            return _branches(state.amplitudes, steps, draws)
    if table is None:
        table = _branches(state.amplitudes, steps)
        _last_table = (state, steps, table)
    return table


def ghz_network_gate_list(n: int, convention: str = "paper") -> list:
    """Gate list over n data qubits (0..n-1) plus n ancillas (n..2n-1).

    Neighbor-parity CNOT pairs, a Hadamard layer, the global-parity CNOT
    chain, and a second Hadamard layer.  For n = 2 this is the Bell network.
    """
    _require_parts(n)
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
    """The schedule for a checked 2..MAX_PARTS-qubit input (``staged`` as _parity_network takes it)."""
    n = state.num_qubits
    _require_parts(n)
    if staged is not None and not staged and 2 * n > MAX_QUBITS:
        raise ValueError(f"staged=False needs 2n <= MAX_QUBITS qubits, so n <= {MAX_QUBITS // 2}; got {n}")
    _require_normalized(state, where)
    return _parity_network(tuple(range(n)), n, convention, staged)


def run_ghz_qnd(
    state: StateVector,
    convention: str = "paper",
    draws: Sequence[float] = (),
    staged: bool | None = None,
) -> GhzQndOutcome:
    """Measure the register in the GHZ basis without demolishing basis states.

    Consumes one draw per ancilla: the n-1 neighbor parities in order, then
    the global parity.  ``staged`` only picks the schedule (default: the rule
    in _parity_network); both give identical outcomes for equal
    draws, and ``staged=False`` reaches n <= 7 (2n <= MAX_QUBITS).  It stays
    until the benchmark's per-layer probe stops timing the two schedules apart.
    """
    n = state.num_qubits
    steps = _ghz_schedule(state, convention, staged, "ghz network")
    if len(draws) != n:
        raise ValueError(f"run_ghz_qnd needs {n} draws, got {len(draws)}")
    bits, probability, amps = _walk(*_state_table(state, steps, draws), draws)
    parities = tuple(bits[:-1])
    g = _canonical_phase_bit(bits[-1], n, convention)
    return GhzQndOutcome(parities, g, decode_ghz(parities, g, n), probability, StateVector(n, amps))


def ghz_branch_table(
    state: StateVector, convention: str = "paper"
) -> list[tuple[tuple[int, ...], GhzLabel, float, StateVector | None]]:
    """All 2**n ancilla branches: (bits with canonical phase, label, probability, post state).

    Expands the table run_ghz_qnd samples from by default (shots equal rows); n = 2..MAX_PARTS.
    """
    n = state.num_qubits
    steps = _ghz_schedule(state, convention, None, "ghz_branch_table")
    rows = [(raw[:-1] + (_canonical_phase_bit(raw[-1], n, convention),), prob, post)
            for raw, prob, post in _table_rows(*_state_table(state, steps))]
    return [(bits, decode_ghz(bits[:-1], bits[-1], n), prob, None if post is None else StateVector(n, post))
            for bits, prob, post in rows]


def ghz_projection_oracle(state: StateVector) -> list[tuple[GhzLabel, float]]:
    """Brute-force GHZ decomposition by inner products against all 2**n basis states.

    Independent of the network path; probabilities sum to the input's squared norm.
    """
    _require_normalized(state, "ghz_projection_oracle")
    return [
        (label, abs(inner_product(ghz_state(label), state)) ** 2)
        for label in all_canonical_labels(state.num_qubits)  # checks 2 <= n <= MAX_PARTS
    ]
