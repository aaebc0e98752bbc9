"""Dense pure-state simulation of small qubit registers.

The basis convention is big-endian: qubit 0 is the leftmost symbol of a ket,
so |q0 q1 ... q_{n-1}> sits at index sum(q_i * 2**(n-1-i)).  Reshaping an
amplitude array to shape (2,)*n therefore puts qubit i on axis i, and
appending ancillas in |0> extends indices at the least-significant end.

Two self-inverse Hadamard variants are supported:

* ``standard`` -- the textbook matrix, |0> -> (|0>+|1>)/sqrt2,
  |1> -> (|0>-|1>)/sqrt2.
* ``paper``    -- the basis-reversed form, |1> -> (|1>+|0>)/sqrt2,
  |0> -> (|1>-|0>)/sqrt2 (equal to X.H.X).

All operations return new states; ``StateVector`` instances are immutable.
Randomness is always caller-supplied (an explicit draw in [0, 1)), never
global, so runs are reproducible and trials can be parallelized safely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

#: Largest register size the simulator accepts.
MAX_QUBITS = 14

#: Tolerance used when checking that an input state is normalized.
NORM_ATOL = 1e-8

#: Weight at or below which a measurement branch is dead (never sampled, no
#: post state); _split_raw alone applies it to a branch.
ZERO_BRANCH_PROB = 1e-15

_SQRT_HALF = 1.0 / np.sqrt(2.0)

HADAMARD_STANDARD_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT_HALF
HADAMARD_PAPER_MATRIX = np.array([[-1, 1], [1, 1]], dtype=complex) * _SQRT_HALF
PAULI_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y_MATRIX = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)

CONVENTIONS = ("paper", "standard")


class GateKind(Enum):
    """Supported gate set: the two Hadamard variants, Pauli X and CNOT."""

    HADAMARD_STANDARD = "hadamard-standard"
    HADAMARD_PAPER = "hadamard-paper"
    PAULI_X = "pauli-x"
    CNOT = "cnot"


_SINGLE_QUBIT_MATRICES = {
    GateKind.HADAMARD_STANDARD: HADAMARD_STANDARD_MATRIX,
    GateKind.HADAMARD_PAPER: HADAMARD_PAPER_MATRIX,
    GateKind.PAULI_X: PAULI_X_MATRIX,
}


def hadamard_kind(convention: str) -> GateKind:
    """Map a convention token ('paper' or 'standard') to its gate kind."""
    if convention == "paper":
        return GateKind.HADAMARD_PAPER
    if convention == "standard":
        return GateKind.HADAMARD_STANDARD
    raise ValueError(f"unknown Hadamard convention {convention!r}")


@dataclass(frozen=True)
class GateOp:
    """A single gate application: ``kind`` on ``target``, CNOT also has ``control``."""

    kind: GateKind
    target: int
    control: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, GateKind):
            raise ValueError(f"kind must be a GateKind, got {self.kind!r}")
        if self.target < 0:
            raise ValueError(f"negative target index {self.target}")
        if self.kind is GateKind.CNOT:
            if self.control is None:
                raise ValueError("CNOT requires a control index")
            if self.control < 0:
                raise ValueError(f"negative control index {self.control}")
            if self.control == self.target:
                raise ValueError("control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind.value} takes no control index")

    @property
    def max_index(self) -> int:
        return self.target if self.control is None else max(self.target, self.control)


def cnot(control: int, target: int) -> GateOp:
    return GateOp(GateKind.CNOT, target=target, control=control)


def hadamard(target: int, convention: str = "paper") -> GateOp:
    return GateOp(hadamard_kind(convention), target=target)


def pauli_x(target: int) -> GateOp:
    return GateOp(GateKind.PAULI_X, target=target)


def _require_qubits(num_qubits: int) -> None:
    """The one range check on a register size, made before any 2**num_qubits array is built."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")


@dataclass(frozen=True)
class StateVector:
    """Immutable amplitude vector over the 2**num_qubits computational basis."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _require_qubits(self.num_qubits)
        arr = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if arr.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.num_qubits, self.amplitudes / n)


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of a single-qubit computational-basis measurement."""

    bit: int
    probability: float
    post_state: StateVector


def _require_normalized(state: StateVector, where: str) -> None:
    # written as "not <=" so that a NaN norm fails the check too
    if not abs(state.norm() - 1.0) <= NORM_ATOL:
        raise ValueError(f"{where}: state is not normalized (norm={state.norm()!r})")


def _as_bits(bits: str | Iterable[int], expected: int) -> tuple[int, ...]:
    if isinstance(bits, str):
        if not set(bits) <= {"0", "1"}:
            raise ValueError(f"bitstring may only contain 0/1, got {bits!r}")
        seq = tuple(int(c) for c in bits)
    else:
        seq = tuple(int(b) for b in bits)
        if not all(b in (0, 1) for b in seq):
            raise ValueError(f"bits must be 0 or 1, got {seq}")
    if len(seq) != expected:
        raise ValueError(f"expected {expected} bits, got {len(seq)}")
    return seq


def basis_index(bits: Sequence[int]) -> int:
    """Big-endian index of the computational-basis ket with the given bits."""
    index = 0
    for b in bits:
        index = (index << 1) | b
    return index


def make_basis_state(num_qubits: int, bits: str | Iterable[int]) -> StateVector:
    """Computational-basis state |bits>, e.g. make_basis_state(3, "101")."""
    _require_qubits(num_qubits)
    seq = _as_bits(bits, num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[basis_index(seq)] = 1.0
    return StateVector(num_qubits, amps)


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-like random pure state (normalized complex Gaussian amplitudes)."""
    _require_qubits(num_qubits)
    dim = 1 << num_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


# -- raw-array kernels (shared by the network modules; avoid per-gate wrapping) --
# Gates act on axis 1 of (registers, 2**n, columns...) arrays and may overwrite it: pass an owned one.


def _apply_single_raw(amps: np.ndarray, n: int, target: int, u: np.ndarray) -> np.ndarray:
    # big-endian: qubit `target` is the middle axis of (registers * 2**target, 2, rest)
    m = amps.reshape(len(amps) << target, 2, -1)
    a0, a1 = m[:, 0, :], m[:, 1, :]
    new0 = u[0, 0] * a0 + u[0, 1] * a1
    a1[...] = u[1, 0] * a0 + u[1, 1] * a1
    a0[...] = new0
    return m.reshape(amps.shape)


@lru_cache(maxsize=None)
def _cnot_permutation(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    tmask = 1 << (n - 1 - target)
    src = idx ^ (((idx >> (n - 1 - control)) & 1) * tmask)
    src.flags.writeable = False
    return src


def _apply_gate_raw(amps: np.ndarray, n: int, gate: GateOp) -> np.ndarray:
    if gate.max_index >= n:
        raise ValueError(f"gate {gate} out of range for {n} qubits")
    if gate.kind is GateKind.CNOT:
        return amps.take(_cnot_permutation(n, gate.control, gate.target), axis=1)
    return _apply_single_raw(amps, n, gate.target, _SINGLE_QUBIT_MATRICES[gate.kind])


def _split_raw(amps: np.ndarray, qubit: int) -> tuple[tuple[float, float], np.ndarray]:
    """Each branch's own squared norm, 0.0 if dead (<= ZERO_BRANCH_PROB), and the (2**qubit, 2, rest) view."""
    m = amps.reshape(1 << qubit, 2, -1)
    branch0, branch1 = m[:, 0, :].reshape(-1), m[:, 1, :].reshape(-1)
    w0, w1 = float(np.vdot(branch0, branch0).real), float(np.vdot(branch1, branch1).real)
    return (w0 if w0 > ZERO_BRANCH_PROB else 0.0, w1 if w1 > ZERO_BRANCH_PROB else 0.0), m


def _pick_bit(weights: tuple[float, float], draw: float) -> int:
    """0 iff draw < weights[0] or branch 1 is dead; draw in [0, 1)."""
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"random draw must lie in [0, 1), got {draw}")
    return 0 if draw < weights[0] or not weights[1] else 1


def _collapse_raw(m: np.ndarray, bit: int, weights: tuple[float, float]) -> np.ndarray:
    """The branch's amplitudes with the qubit dropped, divided by the branch's own norm."""
    return m[:, bit, :].reshape(-1) / np.sqrt(weights[bit])


def _measure_drop_raw(amps: np.ndarray, qubit: int, draw: float) -> tuple[int, float, np.ndarray]:
    """Measure one qubit and remove it from the register in a single step."""
    weights, m = _split_raw(amps, qubit)
    bit = _pick_bit(weights, draw)
    return bit, weights[bit], _collapse_raw(m, bit, weights)


def _apply_network_raw(amps: np.ndarray, gates: Iterable[GateOp], num_ancillas: int) -> np.ndarray:
    """Append ``num_ancillas`` qubits in |0> after each register (1-D ``amps``: one), then apply ``gates``."""
    rows = amps if amps.ndim > 1 else amps[None]
    num_qubits = (rows.shape[1] << num_ancillas).bit_length() - 1
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"register of {num_qubits} qubits exceeds the cap of {MAX_QUBITS}")
    joint = np.zeros((len(rows), 1 << num_qubits) + rows.shape[2:], dtype=np.complex128)
    joint[:, :: 1 << num_ancillas] = rows
    for gate in gates:
        joint = _apply_gate_raw(joint, num_qubits, gate)
    return joint if amps.ndim > 1 else joint[0]


def _drop_raw(amps: np.ndarray, qubit: int, bit: int) -> np.ndarray:
    m = amps.reshape(1 << qubit, 2, -1)
    kept = m[:, bit, :].reshape(-1)
    residue = float(np.linalg.norm(m[:, 1 - bit, :]))
    if residue > 1e-9:
        raise ValueError(
            f"cannot drop qubit {qubit}: opposite branch still carries weight {residue}"
        )
    return kept


# -- public operations --


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate; returns a new state with the same norm (within 1e-12)."""
    amps = _apply_gate_raw(state.amplitudes[None].copy(), state.num_qubits, gate)
    return StateVector(state.num_qubits, amps[0])


def apply_gates(state: StateVector, gates: Iterable[GateOp]) -> StateVector:
    return StateVector(state.num_qubits, _apply_network_raw(state.amplitudes, gates, 0))


def apply_single_qubit_matrix(state: StateVector, qubit: int, matrix: np.ndarray) -> StateVector:
    """Apply an arbitrary 2x2 matrix to one qubit (used by noise channels and oracles)."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    amps = _apply_single_raw(state.amplitudes[None].copy(), state.num_qubits, qubit, m)
    return StateVector(state.num_qubits, amps[0])


def apply_dense_operator(state: StateVector, matrix: np.ndarray) -> StateVector:
    """Matrix-vector product against the full register.

    No normalization is enforced: the operator may be a non-unitary projector
    (this is the brute-force oracle substrate, not a gate).
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (state.dim, state.dim):
        raise ValueError(f"operator shape {m.shape} does not match dimension {state.dim}")
    return StateVector(state.num_qubits, m @ state.amplitudes)


def measure_qubit(state: StateVector, qubit: int, random_draw: float) -> MeasurementResult:
    """Projective measurement of one qubit, deterministic given the draw.

    A branch's probability is its own squared norm; its post state, divided by
    that norm, keeps the full register with the measured qubit collapsed and
    can be measured again.  The outcome is 0 iff random_draw < P(bit = 0), but
    a branch of probability at most ZERO_BRANCH_PROB is never selected.
    """
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    _require_normalized(state, "measure_qubit")
    bit, prob, kept = _measure_drop_raw(state.amplitudes, qubit, random_draw)
    post = np.zeros((1 << qubit, 2, state.dim >> (qubit + 1)), dtype=np.complex128)
    post[:, bit, :] = kept.reshape(1 << qubit, -1)
    return MeasurementResult(bit, prob, StateVector(state.num_qubits, post.reshape(-1)))


def drop_qubit(state: StateVector, qubit: int, bit: int) -> StateVector:
    """Remove a qubit known to be in |bit> (e.g. a measured ancilla)."""
    if state.num_qubits < 2:
        raise ValueError("cannot drop the last qubit")
    return StateVector(state.num_qubits - 1, _drop_raw(state.amplitudes, qubit, bit))


def append_ancillas(state: StateVector, count: int) -> StateVector:
    """Extend the register with ``count`` fresh qubits in |0>, appended last."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return StateVector(state.num_qubits + count, _apply_network_raw(state.amplitudes, (), count))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity_up_to_global_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2: equals 1 iff the states agree up to a global phase."""
    return abs(inner_product(a, b)) ** 2


def states_close(a: StateVector, b: StateVector, atol: float = 1e-10) -> bool:
    """Equality of normalized states up to global phase, within ``atol`` fidelity deficit."""
    if a.num_qubits != b.num_qubits:
        return False
    return fidelity_up_to_global_phase(a, b) >= 1.0 - atol


def gates_to_matrix(gates: Sequence[GateOp], num_qubits: int) -> np.ndarray:
    """Dense unitary of a gate list: the network run on the identity's columns at once."""
    return _apply_network_raw(np.eye(1 << num_qubits)[None], gates, 0)[0]


# -- JSON dump format: {"num_qubits": n, "amplitudes": [[re, im], ...]} --


def to_dump(state: StateVector) -> dict:
    return {
        "num_qubits": state.num_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def from_dump(obj: dict) -> StateVector:
    try:
        n = obj["num_qubits"]
        pairs = obj["amplitudes"]
        amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state dump: {exc}") from exc
    # bool is an int subclass; a float or a string would be silently truncated or parsed
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"malformed state dump: num_qubits must be an integer, got {n!r}")
    state = StateVector(n, amps)
    _require_normalized(state, "state dump")
    return state


def load_dump(path: str | Path) -> StateVector:
    with open(path, "r", encoding="utf-8") as fh:
        return from_dump(json.load(fh))
