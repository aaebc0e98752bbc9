"""The level builder's compiled kernels against the gate-by-gate reference, byte for byte."""

from itertools import product

import numpy as np
import pytest

from qndnet.bell import BellQndOutcome, run_bell_qnd
from qndnet.ghz import (
    GhzQndOutcome,
    _branches,
    _ghz_network,
    _parity_network,
    _table_rows,
    all_canonical_labels,
    ghz_branch_table,
    ghz_state,
    run_ghz_qnd,
)
from qndnet.statevector import (
    MeasurementResult,
    StateVector,
    _apply_gate_raw,
    _apply_network_raw,
    _collapse_raw,
    _compile_step,
    _split_raw,
    _split_rows,
    _widen,
    cnot,
    hadamard,
    measure_qubit,
    pauli_x,
    random_state,
)


def random_rows(rng, registers: int, qubits: int) -> np.ndarray:
    """Complex rows with exact zeros, real-only entries and imaginary-only entries mixed in."""
    shape = (registers, 1 << qubits)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows[rng.random(shape) < 0.15] = 0.0
    rows.imag[rng.random(shape) < 0.15] = 0.0
    rows.real[rng.random(shape) < 0.15] = 0.0
    if rng.random() < 0.3:
        rows.imag = 0.0  # a real-only register block
    return rows


def random_gates(rng, qubits: int, count: int) -> tuple:
    """Runs of CNOT/X and Hadamard gates (both conventions, repeated targets allowed)."""
    gates = []
    while len(gates) < count:
        if rng.random() < 0.5:
            for _ in range(rng.integers(1, 5)):
                target = int(rng.integers(qubits))
                if rng.random() < 0.2:
                    gates.append(pauli_x(target))
                else:
                    control = int(rng.choice([q for q in range(qubits) if q != target]))
                    gates.append(cnot(control, target))
        else:
            for _ in range(rng.integers(1, qubits + 2)):
                gates.append(hadamard(int(rng.integers(qubits)), ("paper", "standard")[rng.integers(2)]))
    return tuple(gates)


def run_compiled(rows: np.ndarray, gates: tuple, qubits: int) -> np.ndarray:
    for kernel in _compile_step(gates, 0, qubits):
        rows = kernel(rows)
    return rows


def run_reference(rows: np.ndarray, gates: tuple, qubits: int) -> np.ndarray:
    for gate in gates:
        rows = _apply_gate_raw(rows, qubits, gate)
    return rows


@pytest.mark.parametrize("qubits", range(2, 15))
def test_compiled_runs_equal_the_gates_one_by_one(qubits):
    rng = np.random.default_rng(700 + qubits)
    largest = min(256, max(1, (1 << 16) >> qubits))  # at most 2**16 amplitudes per case
    for registers in sorted({1, 2, 3, largest, int(rng.integers(1, largest + 1))}):
        for convention in ("paper", "standard"):
            # a random mix of runs, and the GHZ network's own runs where it fits
            runs = [random_gates(rng, qubits, 12)]
            if qubits >= 4:
                ((network, _),) = _parity_network(tuple(range(qubits // 2)), qubits // 2, convention, False)
                runs.append(network)
            for gates in runs:
                rows = random_rows(rng, registers, qubits)
                want = run_reference(rows.copy(), gates, qubits)
                got = run_compiled(rows.copy(), gates, qubits)
                assert got.tobytes() == want.tobytes(), (registers, convention, gates)


def test_a_permutation_run_is_one_take_and_a_hadamard_run_one_layer():
    gates = (cnot(0, 3), pauli_x(1), cnot(2, 3), hadamard(0), hadamard(1, "standard"), hadamard(0), cnot(1, 2))
    kernels = _compile_step(gates, 0, 4)
    assert [k.func.__name__ for k in kernels] == ["_permute", "_hadamard_passes", "_permute"]
    assert len(kernels[1].keywords["passes"]) == 3
    with pytest.raises(ValueError, match="out of range for 4 qubits"):
        _compile_step((cnot(0, 4),), 1, 4)


@pytest.mark.parametrize("ancillas", [0, 1, 2, 3])
def test_compiled_steps_equal_the_network_runner(ancillas):
    # a step appends its ancillas in |0> and runs its gates: _widen folds the append into the
    # first permutation's take, or stands alone before a leading Hadamard run
    rng = np.random.default_rng(750 + ancillas)
    for qubits in range(2, 12 - ancillas):
        size = qubits + ancillas
        for gates in (random_gates(rng, size, 10), (hadamard(0),) + random_gates(rng, size, 6), ()):
            rows = random_rows(rng, int(rng.integers(1, 9)), qubits)
            got = rows.copy()
            for kernel in _compile_step(gates, ancillas, size):
                got = kernel(got)
            assert got.tobytes() == _apply_network_raw(rows, gates, ancillas).tobytes(), (qubits, gates)


def test_widened_rows_carry_no_negative_zero():
    rows = np.array([[1.0, -0.0, complex(-0.0, -0.0), 0.5j]])
    wide = _widen(rows, np.array([4, 0, 1, 4, 2, 3]))
    assert np.array_equal(wide, [[0, 1, 0, 0, 0, 0.5j]])
    parts = wide.view(np.float64)
    assert not np.signbit(parts[parts == 0]).any()


def test_hadamard_layers_need_rows_free_of_negative_zeros():
    # u*a on complex numbers adds a signed 0*a, so a -0.0 part can flip the sign of a zero the
    # float-view layer keeps; _widen turns every -0.0 into +0.0 before a layer runs
    parts = np.array(list(product((0.0, -0.0, 1.0, -0.5), repeat=4)))  # (a0.re, a0.im, a1.re, a1.im)
    rows = parts.reshape(-1).view(np.complex128)[None]
    qubits = rows.shape[1].bit_length() - 1
    for convention in ("paper", "standard"):
        gates = (hadamard(qubits - 1, convention),)  # the last qubit pairs each (a0, a1)
        raw = run_compiled(rows.copy(), gates, qubits)
        assert raw.tobytes() != run_reference(rows.copy(), gates, qubits).tobytes()
        clean = _widen(rows, np.arange(rows.shape[1]))
        assert run_compiled(clean.copy(), gates, qubits).tobytes() == run_reference(clean, gates, qubits).tobytes()


@pytest.mark.parametrize("rest", [1, 2, 8])
def test_stacked_level_weights_equal_split_raw_row_by_row(rest):
    # rest = 1 (the measured qubit is the last one) reads the stride-2 view, otherwise the split copy
    rng = np.random.default_rng(800 + rest)
    for registers in (1, 2, 7, 64, 256):
        for qubit in (2, 5, 8):
            rows = random_rows(rng, registers, qubit + rest.bit_length())
            for r in rng.choice(registers, (registers + 1) // 2):  # dead branches: exact zeros or residue
                rows[r].reshape(1 << qubit, 2, -1)[:, rng.integers(2)] *= rng.choice([0.0, 1e-9])
            weights, branches = _split_rows(rows, qubit)
            assert weights.shape == (registers, 2) and branches.shape == (registers, 2, rows.shape[1] // 2)
            for r in range(registers):
                pair, m = _split_raw(rows[r], qubit)
                assert weights[r].tobytes() == np.array(pair).tobytes()
                for bit in (0, 1):  # a live branch divided by its norm as _collapse_raw divides it
                    if pair[bit]:
                        assert branches[r, bit].tobytes() == _collapse_raw(m, bit, pair).tobytes()
                    else:  # dropped or never picked, but finite: no division by zero
                        assert np.isfinite(branches[r, bit]).all()


def test_stride_two_weights_are_not_contiguous_sums():
    # the trap the stacked weights avoid: on a last-qubit split, vdot over each branch's stride-2
    # view and over a contiguous copy of it round differently, so a copy may not stand in for the view
    rng = np.random.default_rng(900)
    rows = random_rows(rng, 400, 9)
    weights, _ = _split_rows(rows, 8)
    copies = np.ascontiguousarray(rows.reshape(400, 256, 2).swapaxes(1, 2))
    contiguous = np.array([[np.vdot(b, b).real for b in row] for row in copies])
    reference = np.array([_split_raw(row, 8)[0] for row in rows])
    assert weights.tobytes() == reference.tobytes()
    assert (contiguous != reference).any()


def list_product(weights: list) -> list:
    """The leaf probabilities as a Python product, level by level, first level first."""
    probs = [1.0]
    for level in weights:
        probs = [p * w for p, pair in zip(probs, zip(level[::2], level[1::2])) for w in pair]
    return probs


@pytest.mark.parametrize("n", range(2, 9))
def test_table_probabilities_equal_the_list_product(n):
    rng = np.random.default_rng(1000 + n)
    labels = all_canonical_labels(n)
    for convention in ("paper", "standard"):
        schedule = _ghz_network(n, convention)
        states = [random_state(n, rng)] + [ghz_state(labels[k]) for k in rng.choice(len(labels), 3)]
        for state in states:
            weights, leaves = _branches(state.amplitudes, schedule)
            rows = _table_rows(weights, leaves)
            assert np.array([p for p, _ in rows]).tobytes() == np.array(list_product(weights)).tobytes()
            assert all((post is None) == (p <= 1e-15) for p, post in rows)


@pytest.mark.parametrize("n", [2, 3, 7, 8])
def test_negative_zero_parts_measure_as_their_positive_zero_twin(n):
    # the compiled Hadamard layers equal the complex gates on inputs free of -0.0 parts; an
    # input's -0.0 enters the register as +0.0, so the sign of a zero never reaches an outcome
    rng = np.random.default_rng(1100 + n)
    for convention in ("paper", "standard"):
        for k in range(4):
            parts = random_state(n, rng).amplitudes.view(np.float64).copy()
            parts[rng.random(parts.size) < 0.4] = -0.0
            parts /= np.linalg.norm(parts)
            twin = parts + 0.0
            assert np.signbit(parts[parts == 0]).all() and not np.signbit(twin[twin == 0]).any()
            state, twin_state = StateVector(n, parts.view(np.complex128)), StateVector(n, twin.view(np.complex128))
            for draws in rng.random((3, n)):
                got, want = run_ghz_qnd(state, convention, draws), run_ghz_qnd(twin_state, convention, draws)
                assert (got.label, got.probability) == (want.label, want.probability)
                assert got.post_state.amplitudes.tobytes() == want.post_state.amplitudes.tobytes()
            got = ghz_branch_table(StateVector(n, parts.view(np.complex128)), convention)
            for (_, _, p, post), (_, _, q, twin_post) in zip(got, ghz_branch_table(twin_state, convention), strict=True):
                assert p == q
                assert (post is None and twin_post is None) or post.amplitudes.tobytes() == twin_post.amplitudes.tobytes()


def test_states_and_outcomes_compare_by_value():
    rng = np.random.default_rng(5)
    a = random_state(3, rng).amplitudes
    assert StateVector(3, a) == StateVector(3, a)
    assert StateVector(3, a) != StateVector(3, -a)
    assert StateVector(2, a[:4]) != StateVector(2, a[4:])
    assert StateVector(1, [1.0, 0.0]) != StateVector(2, [1.0, 0.0, 0.0, 0.0])
    assert StateVector(1, [1.0, -0.0]) == StateVector(1, [1.0, 0.0])
    assert StateVector(1, [1.0, 0.0]) != [1.0, 0.0]
    with pytest.raises(TypeError, match="unhashable"):
        hash(StateVector(3, a))
    for draws in product((0.1, 0.9), repeat=3):
        first = run_ghz_qnd(StateVector(3, a), "paper", draws)  # fresh objects: no memo is shared
        second = run_ghz_qnd(StateVector(3, a), "paper", draws)
        assert isinstance(first, GhzQndOutcome) and first is not second and first == second
    pair = random_state(2, rng).amplitudes
    bell = [run_bell_qnd(StateVector(2, pair), draws=(0.3, 0.6)) for _ in range(2)]
    assert isinstance(bell[0], BellQndOutcome) and bell[0] == bell[1]
    results = [measure_qubit(StateVector(3, a), 1, 0.4) for _ in range(2)]
    assert isinstance(results[0], MeasurementResult) and results[0] == results[1]
    assert results[0] != measure_qubit(StateVector(3, a), 1, 0.99)
