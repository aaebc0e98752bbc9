"""Every public count, size and index goes through one integer check.

Each entry below is rejected with ValueError (never TypeError or IndexError)
for a bool, a non-integral float and a value just past each of its bounds,
and takes a numpy integer in range like a Python int.
"""

import json

import numpy as np
import pytest

from qndnet.auth import AttackerModel, enroll, security_sweep, wilson_interval
from qndnet.bell_operator import canonical_spec
from qndnet.ghz import MAX_PARTS, all_canonical_labels
from qndnet.statevector import (
    MAX_QUBITS,
    PAULI_X_MATRIX,
    GateKind,
    GateOp,
    StateVector,
    append_ancillas,
    apply_single_qubit_matrix,
    cnot,
    drop_qubit,
    gates_to_matrix,
    make_basis_state,
    measure_qubit,
    random_state,
)

PAIR = make_basis_state(2, "00")
FOUR_AMPLITUDES = np.array([1.0, 0.0, 0.0, 0.0])
FRESH_ZERO = AttackerModel.FRESH_ZERO

# name: (call with the integer argument, values past its bounds, a value in range)
ENTRIES = {
    "StateVector.num_qubits": (lambda v: StateVector(v, FOUR_AMPLITUDES), [0, MAX_QUBITS + 1], 2),
    "make_basis_state.num_qubits": (lambda v: make_basis_state(v, "00"), [0, MAX_QUBITS + 1], 2),
    "random_state.num_qubits": (
        lambda v: random_state(v, np.random.default_rng(0)), [0, MAX_QUBITS + 1], 2
    ),
    "gates_to_matrix.num_qubits": (lambda v: gates_to_matrix([], v), [0, MAX_QUBITS + 1], 2),
    "GateOp.target": (lambda v: GateOp(GateKind.PAULI_X, v), [-1], 3),
    "cnot.control": (lambda v: cnot(v, 0), [-1], 3),
    "cnot.target": (lambda v: cnot(0, v), [-1], 3),
    "measure_qubit.qubit": (lambda v: measure_qubit(PAIR, v, 0.5), [-1, 2], 1),
    "apply_single_qubit_matrix.qubit": (
        lambda v: apply_single_qubit_matrix(PAIR, v, PAULI_X_MATRIX), [-1, 2], 1
    ),
    "drop_qubit.qubit": (lambda v: drop_qubit(PAIR, v, 0), [-1, 2], 1),
    "drop_qubit.bit": (lambda v: drop_qubit(PAIR, 1, v), [-1, 2], 0),
    "append_ancillas.count": (lambda v: append_ancillas(PAIR, v), [0, MAX_QUBITS - 1], 1),
    "all_canonical_labels.n": (all_canonical_labels, [1, MAX_PARTS + 1], 3),
    "canonical_spec.n": (canonical_spec, [1, MAX_PARTS + 1], 3),
    "enroll.n": (enroll, [0], 2),
    "security_sweep.n": (lambda v: security_sweep([v], FRESH_ZERO, 1, 0), [0], 2),
    "security_sweep.trials": (lambda v: security_sweep([1], FRESH_ZERO, v, 0), [0], 2),
    "wilson_interval.successes": (lambda v: wilson_interval(v, 10), [-1, 11], 3),
    "wilson_interval.trials": (lambda v: wilson_interval(0, v), [0], 10),
}

REJECTED = [
    pytest.param(name, value, id=f"{name}={value!r}")
    for name, (_, past_bounds, _) in ENTRIES.items()
    for value in [True, 1.5, *past_bounds]
]


@pytest.mark.parametrize("name, value", REJECTED)
def test_bad_integer_argument_raises_value_error(name, value):
    call = ENTRIES[name][0]
    with pytest.raises(ValueError, match="must be (an integer|in|>=)"):
        call(value)


@pytest.mark.parametrize("name", ENTRIES)
def test_numpy_integer_is_accepted(name):
    call, _, in_range = ENTRIES[name]
    call(np.int64(in_range))


def test_a_sweep_row_from_numpy_integers_holds_python_numbers():
    # the row equals the plain-int row field for field, types included, so it serializes as that row does
    plain = security_sweep([2], FRESH_ZERO, 5, 1)[0].to_dict()
    row = security_sweep([np.int64(2)], FRESH_ZERO, np.int64(5), np.int64(1))[0].to_dict()
    assert [(key, type(value), value) for key, value in row.items()] == [
        (key, type(value), value) for key, value in plain.items()
    ]
    assert type(row["n"]) is int and type(row["trials"]) is int and type(row["accept_rate"]) is float
    assert json.dumps(row) == json.dumps(plain)
