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

A convention is chosen only where gates are defined (hadamard and the gate
lists built from it).  Bell/GHZ shots, branch tables and auth rounds run the
paper's network and take none: the textbook one gives every branch the same
probability, bits and post state.  A public gate list is read once and each
of its items checked as a GateOp (_require_gates).

All operations return new states; ``StateVector`` instances are immutable.
A state's amplitudes are a read-only view of a read-only array over an
immutable bytes copy, so numpy refuses ``writeable = True`` on them and on
their ``.base``, and every memo keyed by a state's identity (the GHZ memo
slot, auth's shared Bell pairs) stays sound.  The norm is taken once, on
first use, and every normalization check reads it.  The public constructor
always copies; the measurement engine adopts a finished leaf of its branch
table instead (``StateVector._adopt``, its fields written directly), and such
a state keeps that table's sealed ndarray block of leaves alive for as long as
it lives.
Randomness is always caller-supplied (an explicit draw in [0, 1)), never
global, so runs are reproducible and trials can be parallelized safely.

One runner applies a network to dense rows, gate by gate, many registers
per call (_apply_network_raw), and the level builder splits many registers
per call at their last qubit, the ancilla a step measures (_split_rows),
with the sums of measure_qubit's split at any qubit (_split_raw), byte for
byte, zeroing a dead branch's row rather than dropping it.  The auth round
runs its schedule that way, and the tests take it as the reference.  The
GHZ register's own schedule (ghz._ghz_network) runs on compact rows instead,
each holding only the kets its dense row can hold, interleaved by the bit
measured next, with closed-form Hadamard layers; _split_rows splits those
rows too, with the same sums, and each step equals its dense twin byte for
byte.
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
#: post state); _split_raw applies it to a branch of any qubit, _split_rows to
#: a branch of each row's last qubit.
ZERO_BRANCH_PROB = 1e-15

#: Norm of the opposite branch above which drop_qubit refuses to drop a qubit.
_DROP_RESIDUE_ATOL = 1e-9

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


def _require_convention(convention: str) -> str:
    """The one check on a Hadamard convention, made before any cache is keyed on it: a str in CONVENTIONS."""
    if not (isinstance(convention, str) and convention in CONVENTIONS):
        raise ValueError(f"unknown Hadamard convention {convention!r}")
    return convention


def hadamard_kind(convention: str) -> GateKind:
    """Map a convention token ('paper' or 'standard') to its gate kind."""
    if _require_convention(convention) == "paper":
        return GateKind.HADAMARD_PAPER
    return GateKind.HADAMARD_STANDARD


def _require_int(name: str, value, low: int, high: int | None = None) -> int:
    """The one integer check: an int or numpy integer, never a bool, in [low, high] (high=None: no cap), as an int."""
    # a plain int, the case on every shot, costs one type test; any other integer is returned as one
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer count or index, got {value!r}")
        value = int(value)
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return value


def _require_instance(name: str, value, kind: type):
    """The one type check on a structured argument (a label, a noise spec): an instance of ``kind``, returned."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _require_items(name: str, value, what: str) -> tuple:
    """The one collection check: any iterable, read once into a tuple; a number or None raises ValueError."""
    try:
        items = iter(value)
    except TypeError:
        raise ValueError(f"{name} must be {what}, got {value!r}") from None
    return tuple(items)


def _require_seed(seed: int | np.random.Generator) -> int | np.random.Generator:
    """The one seed check: a numpy Generator as it is, or an integer seed >= 0 (not a bool) through _require_int."""
    return seed if isinstance(seed, np.random.Generator) else _require_int("seed", seed, 0)


@dataclass(frozen=True)
class GateOp:
    """A single gate application: ``kind`` on ``target``, CNOT also has ``control``."""

    kind: GateKind
    target: int
    control: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, GateKind):
            raise ValueError(f"kind must be a GateKind, got {self.kind!r}")
        _require_int("target", self.target, 0)
        if self.kind is GateKind.CNOT:
            _require_int("control", self.control, 0)
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


def _require_gates(gates: Iterable[GateOp]) -> tuple:
    """The one check on a public gate list: any iterable, read once, each item a GateOp."""
    return tuple(_require_instance("gate", g, GateOp) for g in _require_items("gates", gates, "an iterable of gates"))


def _require_qubits(num_qubits: int) -> None:
    """The one check on a register size, made before any 2**num_qubits array is built."""
    _require_int("num_qubits", num_qubits, 1, MAX_QUBITS)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable amplitude vector over the 2**num_qubits computational basis.

    The constructor copies its input once, into a bytes object, and holds a
    read-only view of the read-only array over it: neither the view nor its
    ``.base`` can be made writable.  A finished leaf of a branch table is
    adopted instead (``_adopt``), which writes the two fields straight into the
    instance's ``__dict__``, with no copy, no checks and no frozen
    ``__setattr__`` to get round.  Its base is that table's sealed ndarray block
    of leaves, which numpy would let an owner make writable again; sealing every
    block in bytes would cost a copy per table.

    Equality is exact: the same size and equal amplitudes (so outcomes holding a
    state compare too).  A state is not hashable."""

    num_qubits: int
    amplitudes: np.ndarray

    #: the norm, taken on first use (amplitudes never change)
    _norm = None

    def __post_init__(self) -> None:
        _require_qubits(self.num_qubits)
        arr = np.asarray(self.amplitudes, dtype=np.complex128)
        if arr.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {arr.shape}"
            )
        # the copy is an immutable bytes object: numpy refuses to make the array over it, or a
        # view of that array, writable again
        sealed = np.frombuffer(arr.tobytes(), np.complex128)
        object.__setattr__(self, "amplitudes", sealed.view())

    @classmethod
    def _adopt(cls, num_qubits: int, amplitudes: np.ndarray) -> "StateVector":
        """Wrap a checked, normalized, read-only view of a read-only base without copying it."""
        state = object.__new__(cls)
        fields = state.__dict__  # written directly: no frozen __setattr__ to get round
        fields["num_qubits"], fields["amplitudes"] = num_qubits, amplitudes
        return state

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and np.array_equal(self.amplitudes, other.amplitudes)

    def __reduce__(self):
        # copies and pickles go through the constructor: sealed too, and no cached norm
        # rides along onto amplitudes that a plain deepcopy would leave writable
        return StateVector, (self.num_qubits, self.amplitudes)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        if self._norm is None:
            object.__setattr__(self, "_norm", float(np.linalg.norm(self.amplitudes)))
        return self._norm

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
        items = _require_items("bits", bits, "a bitstring or an iterable of bits")
        seq = tuple(_require_int("bit", b, 0, 1) for b in items)
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


def random_state(num_qubits: int, rng: int | np.random.Generator) -> StateVector:
    """Haar-like random pure state (normalized complex Gaussian amplitudes).

    ``rng`` is a numpy Generator, drawn from as it is, or an integer seed >= 0; anything else
    (None, a bool, a float) raises ValueError."""
    _require_qubits(num_qubits)
    rng = np.random.default_rng(_require_seed(rng))
    dim = 1 << num_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


# -- raw-array kernels (shared by the network modules; avoid per-gate wrapping) --
# Gates act on axis 1 of (registers, 2**n, columns...) arrays and may overwrite it: pass an owned one.


def _apply_single_raw(amps: np.ndarray, target: int, u: np.ndarray) -> np.ndarray:
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
    return _apply_single_raw(amps, gate.target, _SINGLE_QUBIT_MATRICES[gate.kind])


def _split_raw(amps: np.ndarray, qubit: int) -> tuple[tuple[float, float], np.ndarray]:
    """Each branch's own squared norm, 0.0 if dead (<= ZERO_BRANCH_PROB), and the (2**qubit, 2, rest) view."""
    m = amps.reshape(1 << qubit, 2, -1)
    branch0, branch1 = m[:, 0, :].reshape(-1), m[:, 1, :].reshape(-1)
    w0, w1 = float(np.vdot(branch0, branch0).real), float(np.vdot(branch1, branch1).real)
    return (w0 if w0 > ZERO_BRANCH_PROB else 0.0, w1 if w1 > ZERO_BRANCH_PROB else 0.0), m


def _walk(weights: Sequence, draws: Sequence[float]) -> tuple[float, int]:
    """One shot down per-level branch weights, a draw in [0, 1) per level: (joint probability, leaf).

    weights[k][j] is the weight of the (k + 1)-bit prefix j (big-endian) given its first k bits.
    The one pick rule: bit 0 iff draw < w0 or branch 1 is dead (0.0), so a dead branch is never
    picked.  Callers pass an ndarray of draws as Python floats (numpy scalars compare slower).  A
    valid Python draw answers the range test with True and pays no call; any other answer goes to
    _draw_in_range.  A draw that is not a real number (a string, a complex, a list, as each row of
    a 2-D array is, or an array) raises ValueError naming it.  Each level's weights are read where
    they lie, with no temporaries: the probability takes the picked weight, one multiplication a level."""
    levels = zip(weights, draws)  # outside the try: draws that are no sequence raise as they are
    probability, i = 1.0, 0
    try:
        for level, draw in levels:
            i += i
            if (0.0 <= draw < 1.0) is not True and not _draw_in_range(draw):
                break
            if draw >= level[i] and level[i + 1]:
                i += 1
            probability *= level[i]
        else:
            return probability, i
    except (TypeError, ValueError):  # no order against floats, or an array's truth value
        raise ValueError(f"random draw must be a real number, got {draw!r}") from None
    raise ValueError(f"random draw must lie in [0, 1), got {draw}")


def _draw_in_range(draw) -> bool:
    """_walk's range test for a draw that did not answer it with True: a numpy scalar in [0, 1) passes.

    An array of one or more values raises TypeError, since a one-element array compares as its
    element would."""
    if getattr(draw, "ndim", 0):
        raise TypeError(draw)
    return bool(0.0 <= draw < 1.0)


def _collapse_raw(m: np.ndarray, bit: int, weights: tuple[float, float]) -> np.ndarray:
    """The branch's amplitudes with the qubit dropped, divided by the branch's own norm."""
    return m[:, bit, :].reshape(-1) / np.sqrt(weights[bit])


def _measure_drop_raw(amps: np.ndarray, qubit: int, draw: float) -> tuple[int, float, np.ndarray]:
    """Measure one qubit and remove it from the register in a single step."""
    weights, m = _split_raw(amps, qubit)
    bit = _walk((weights,), (draw,))[1]
    return bit, weights[bit], _collapse_raw(m, bit, weights)


def _apply_network_raw(amps: np.ndarray, gates: Iterable[GateOp], num_ancillas: int) -> np.ndarray:
    """Append ``num_ancillas`` qubits in |0> after each register (1-D ``amps``: one), then apply ``gates``."""
    rows = amps if amps.ndim > 1 else amps[None]
    num_qubits = rows.shape[1].bit_length() - 1 + num_ancillas
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
    if residue > _DROP_RESIDUE_ATOL:
        raise ValueError(
            f"cannot drop qubit {qubit}: opposite branch still carries norm {residue}"
        )
    return kept


def _split_rows(rows: np.ndarray, keep: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's branch weights at its last qubit (registers, 2), 0.0 where dead, and its branches
    (registers, 2, rest), each divided by its own norm (a dead one zeroed: all under it weighs 0.0), as
    a contiguous array; ``keep`` cuts each branch to its first ``keep`` values before the division.

    The weights are _split_raw's vdot sums from one stacked matmul over the layout vdot reads, the
    stride-2 view (branch b of a row is row[b::2]; BLAS adds strided and contiguous vectors in
    different orders).  The GHZ register's compact rows hold a prefix's support interleaved by the
    measured bit, so the stride-2 view reads a dense row's nonzero terms in the dense row's order,
    and the sums are the same.  The division is x * (1 / norm) on the float64 view, numpy's complex
    x / norm byte for byte when no part is -0.0, and the rows a step hands on carry none (a dead
    branch's zeros may be -0.0, and the next step takes them as +0.0)."""
    branches = rows.reshape(len(rows), -1, 2).swapaxes(1, 2)
    w = (branches.conj()[..., None, :] @ branches[..., None]).real[..., 0, 0]
    split = np.ascontiguousarray(branches[..., :keep])
    parts = split.view(np.float64)
    alive = w > ZERO_BRANCH_PROB
    np.multiply(parts, (alive / np.sqrt(np.maximum(w, ZERO_BRANCH_PROB)))[..., None], out=parts)
    return w * alive, split


# -- public operations --


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate; returns a new state with the same norm (within 1e-12)."""
    _require_instance("gate", gate, GateOp)
    amps = state.amplitudes[None]
    if gate.kind is not GateKind.CNOT:  # the single-qubit kernel overwrites its input; a CNOT's take does not
        amps = amps.copy()
    return StateVector(state.num_qubits, _apply_gate_raw(amps, state.num_qubits, gate)[0])


def apply_gates(state: StateVector, gates: Iterable[GateOp]) -> StateVector:
    return StateVector(state.num_qubits, _apply_network_raw(state.amplitudes, _require_gates(gates), 0))


def apply_single_qubit_matrix(state: StateVector, qubit: int, matrix: np.ndarray) -> StateVector:
    """Apply an arbitrary 2x2 matrix to one qubit (used by noise channels and oracles)."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    _require_int("qubit", qubit, 0, state.num_qubits - 1)
    amps = _apply_single_raw(state.amplitudes[None].copy(), qubit, m)
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
    _require_int("qubit", qubit, 0, state.num_qubits - 1)
    _require_normalized(state, "measure_qubit")
    bit, prob, kept = _measure_drop_raw(state.amplitudes, qubit, random_draw)
    post = np.zeros((1 << qubit, 2, state.dim >> (qubit + 1)), dtype=np.complex128)
    post[:, bit, :] = kept.reshape(1 << qubit, -1)
    return MeasurementResult(bit, prob, StateVector(state.num_qubits, post.reshape(-1)))


def drop_qubit(state: StateVector, qubit: int, bit: int) -> StateVector:
    """Remove a qubit known to be in |bit> (e.g. a measured ancilla)."""
    if state.num_qubits < 2:
        raise ValueError("cannot drop the last qubit")
    _require_int("qubit", qubit, 0, state.num_qubits - 1)
    _require_int("bit", bit, 0, 1)
    return StateVector(state.num_qubits - 1, _drop_raw(state.amplitudes, qubit, bit))


def append_ancillas(state: StateVector, count: int) -> StateVector:
    """Extend the register with ``count`` fresh qubits in |0>, appended last."""
    _require_int("count", count, 1, MAX_QUBITS - state.num_qubits)
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
    _require_qubits(num_qubits)
    return _apply_network_raw(np.eye(1 << num_qubits)[None], _require_gates(gates), 0)[0]


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
        if any(isinstance(part, bool) for pair in pairs for part in pair):  # complex(True) would be 1
            raise TypeError("an amplitude part is a boolean")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state dump: {exc}") from exc
    state = StateVector(n, amps)
    _require_normalized(state, "state dump")
    return state


def load_dump(path: str | Path) -> StateVector:
    with open(path, "r", encoding="utf-8") as fh:
        return from_dump(json.load(fh))
