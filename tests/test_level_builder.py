"""The level builder's stacked split, leaf products and signed zeros against their references, byte for byte."""

from itertools import product

import numpy as np
import pytest

from qndnet.bell import BellQndOutcome, run_bell_qnd
from qndnet.ghz import (
    GhzQndOutcome,
    _branches,
    _dense_network,
    _ghz_network,
    _table_rows,
    all_canonical_labels,
    ghz_branch_table,
    ghz_state,
    run_ghz_qnd,
)
from qndnet.statevector import (
    MeasurementResult,
    StateVector,
    _collapse_raw,
    _split_raw,
    _split_rows,
    measure_qubit,
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


def test_stacked_level_weights_equal_split_raw_row_by_row():
    # the measured qubit is each row's last one, read through the stride-2 view
    rng = np.random.default_rng(801)
    for registers in (1, 2, 7, 64, 256):
        for qubit in (2, 5, 8):
            rows = random_rows(rng, registers, qubit + 1)
            for r in rng.choice(registers, (registers + 1) // 2):  # dead branches: exact zeros or residue
                rows[r].reshape(1 << qubit, 2, -1)[:, rng.integers(2)] *= rng.choice([0.0, 1e-9])
            weights, branches = _split_rows(rows)
            assert weights.shape == (registers, 2) and branches.shape == (registers, 2, rows.shape[1] // 2)
            for r in range(registers):
                pair, m = _split_raw(rows[r], qubit)
                assert weights[r].tobytes() == np.array(pair).tobytes()
                for bit in (0, 1):  # a live branch divided by its norm as _collapse_raw divides it
                    if pair[bit]:
                        assert branches[r, bit].tobytes() == _collapse_raw(m, bit, pair).tobytes()
                    else:  # zeroed, so nothing expanded under it weighs more than 0.0
                        assert not branches[r, bit].any()


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_every_step_measures_at_most_one_ancilla(n, convention):
    # the level builder splits each step's rows once, at their last qubit, so no step may measure two
    schedules = [_ghz_network(n, convention)]
    schedules += [_dense_network(data, convention) for data in (tuple(range(n)), (0, n - 1))]
    for schedule in schedules:
        assert [step[1] for step in schedule if step[1] not in (0, 1)] == []
        assert sum(step[1] for step in schedule) == len(schedule) - 2  # every step but the two layers


def test_stride_two_weights_are_not_contiguous_sums():
    # the trap the stacked weights avoid: on a last-qubit split, vdot over each branch's stride-2
    # view and over a contiguous copy of it round differently, so a copy may not stand in for the view
    rng = np.random.default_rng(900)
    rows = random_rows(rng, 400, 9)
    weights, _ = _split_rows(rows)
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
    # an input's -0.0 enters the register as +0.0, so the sign of a zero never reaches an outcome
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


@pytest.mark.parametrize("n", range(2, 9))
def test_dense_steps_hand_on_no_negative_zero(n):
    # every dense step, of the GHZ register and of an auth-style round on qubits (0, n - 1), takes an
    # input's -0.0 parts as +0.0: it equals the step on the +0.0 twin and hands on no -0.0 part
    rng = np.random.default_rng(1200 + n)
    for convention in ("paper", "standard"):
        for data in (tuple(range(n)), (0, n - 1)):
            for step, _ in _dense_network(data, convention):
                parts = rng.standard_normal((3, 2 << n))
                parts[rng.random(parts.shape) < 0.4] = -0.0
                rows = parts.view(np.complex128)
                got = step(rows.copy())
                assert got.tobytes() == step(rows + 0.0).tobytes()
                got_parts = got.view(np.float64)
                assert not np.signbit(got_parts[got_parts == 0]).any()


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
