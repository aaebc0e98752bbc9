"""Core simulator tests against independently built dense matrices."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qndnet.statevector import (
    GateKind,
    GateOp,
    HADAMARD_PAPER_MATRIX,
    HADAMARD_STANDARD_MATRIX,
    MAX_QUBITS,
    PAULI_X_MATRIX,
    StateVector,
    append_ancillas,
    apply_dense_operator,
    apply_gate,
    apply_gates,
    apply_single_qubit_matrix,
    cnot,
    drop_qubit,
    fidelity_up_to_global_phase,
    from_dump,
    gates_to_matrix,
    hadamard,
    inner_product,
    load_dump,
    make_basis_state,
    measure_qubit,
    pauli_x,
    random_state,
    states_close,
    to_dump,
)

S2 = 1.0 / np.sqrt(2.0)


# -- independent oracle: embed gates as explicit kron products (big-endian) --

_I2 = np.eye(2, dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def kron_chain(factors):
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def embed_single(u, qubit, n):
    return kron_chain([u if i == qubit else _I2 for i in range(n)])


def embed_cnot(control, target, n):
    keep = kron_chain([_P0 if i == control else _I2 for i in range(n)])
    flip = kron_chain(
        [_P1 if i == control else (PAULI_X_MATRIX if i == target else _I2) for i in range(n)]
    )
    return keep + flip


def gate_matrix_oracle(gate: GateOp, n: int) -> np.ndarray:
    if gate.kind is GateKind.CNOT:
        return embed_cnot(gate.control, gate.target, n)
    u = {
        GateKind.HADAMARD_STANDARD: HADAMARD_STANDARD_MATRIX,
        GateKind.HADAMARD_PAPER: HADAMARD_PAPER_MATRIX,
        GateKind.PAULI_X: PAULI_X_MATRIX,
    }[gate.kind]
    return embed_single(u, gate.target, n)


def random_gate(rng, n) -> GateOp:
    kind = rng.integers(4)
    if kind == 3 and n >= 2:
        control, target = rng.choice(n, size=2, replace=False)
        return cnot(int(control), int(target))
    convention = "paper" if rng.integers(2) else "standard"
    if kind == 2:
        return pauli_x(int(rng.integers(n)))
    return hadamard(int(rng.integers(n)), convention)


# -- basis encoding --


@pytest.mark.parametrize(
    "n,bits,index",
    [(2, "00", 0), (2, "11", 3), (3, "101", 5), (2, "10", 2), (4, "0001", 1)],
)
def test_basis_state_encoding(n, bits, index):
    state = make_basis_state(n, bits)
    expected = np.zeros(1 << n)
    expected[index] = 1.0
    np.testing.assert_allclose(state.amplitudes, expected, atol=0)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=10))
def test_basis_state_index_property(bits):
    state = make_basis_state(len(bits), bits)
    index = sum(b << (len(bits) - 1 - i) for i, b in enumerate(bits))
    assert state.amplitudes[index] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_basis_state_errors():
    with pytest.raises(ValueError):
        make_basis_state(3, "10")
    with pytest.raises(ValueError):
        make_basis_state(2, "1x")
    with pytest.raises(ValueError):
        make_basis_state(MAX_QUBITS + 1, "0" * (MAX_QUBITS + 1))
    with pytest.raises(ValueError):
        make_basis_state(0, "")


@pytest.mark.parametrize("n", [-1, 0, 15, 40])
def test_qubit_count_is_checked_before_any_allocation(n):
    # 40 qubits would ask for 8 TiB (16 TiB for the basis state) before the StateVector check ran
    rng = np.random.default_rng(0)
    for build in (lambda: random_state(n, rng), lambda: make_basis_state(n, "0" * max(n, 0))):
        with pytest.raises(ValueError, match=r"num_qubits must be in \[1, 14\]"):
            build()
    with pytest.raises(ValueError, match=r"num_qubits must be in \[1, 14\]"):
        StateVector(n, np.ones(1))


def test_cap_is_at_least_twelve():
    assert MAX_QUBITS >= 12
    make_basis_state(12, "0" * 12)


def test_statevector_is_immutable():
    state = make_basis_state(2, "00")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


# -- gates --


def test_cnot_flips_target_when_control_set():
    state = apply_gate(make_basis_state(2, "10"), cnot(0, 1))
    np.testing.assert_allclose(state.amplitudes, make_basis_state(2, "11").amplitudes, atol=0)
    # control clear: nothing happens
    state = apply_gate(make_basis_state(2, "01"), cnot(0, 1))
    np.testing.assert_allclose(state.amplitudes, make_basis_state(2, "01").amplitudes, atol=0)


def test_hadamard_paper_action():
    plus = apply_gate(make_basis_state(1, "1"), hadamard(0, "paper"))
    np.testing.assert_allclose(plus.amplitudes, [S2, S2], atol=1e-15)
    minus = apply_gate(make_basis_state(1, "0"), hadamard(0, "paper"))
    np.testing.assert_allclose(minus.amplitudes, [-S2, S2], atol=1e-15)


def test_hadamard_standard_action():
    plus = apply_gate(make_basis_state(1, "0"), hadamard(0, "standard"))
    np.testing.assert_allclose(plus.amplitudes, [S2, S2], atol=1e-15)
    minus = apply_gate(make_basis_state(1, "1"), hadamard(0, "standard"))
    np.testing.assert_allclose(minus.amplitudes, [S2, -S2], atol=1e-15)


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_gates_self_inverse(convention):
    rng = np.random.default_rng(42)
    for _ in range(25):
        state = random_state(3, rng)
        for gate in [hadamard(1, convention), pauli_x(2), cnot(0, 2)]:
            twice = apply_gate(apply_gate(state, gate), gate)
            assert fidelity_up_to_global_phase(twice, state) > 1 - 1e-12
            np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


def test_gate_errors():
    state = make_basis_state(2, "00")
    with pytest.raises(ValueError):
        apply_gate(state, hadamard(2))
    with pytest.raises(ValueError):
        apply_gate(state, cnot(0, 3))
    with pytest.raises(ValueError):
        cnot(1, 1)
    with pytest.raises(ValueError):
        GateOp(GateKind.PAULI_X, target=0, control=1)


def test_apply_gate_matches_kron_oracle():
    # apply_gate vs apply_dense_operator fed the explicitly constructed matrix
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        for _ in range(20):
            state = random_state(n, rng)
            gate = random_gate(rng, n)
            expected = apply_dense_operator(state, gate_matrix_oracle(gate, n))
            np.testing.assert_allclose(
                apply_gate(state, gate).amplitudes, expected.amplitudes, atol=1e-12
            )


def test_gates_to_matrix_matches_kron_oracle():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        gates = [random_gate(rng, n) for _ in range(6)]
        expected = np.eye(1 << n, dtype=complex)
        for gate in gates:
            expected = gate_matrix_oracle(gate, n) @ expected
        np.testing.assert_allclose(gates_to_matrix(gates, n), expected, atol=1e-12)


def test_norm_preserved_over_long_random_sequences():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        state = random_state(n, rng)
        state = apply_gates(state, [random_gate(rng, n) for _ in range(50)])
        assert abs(state.norm() - 1.0) < 1e-10


# -- measurement --


def test_measure_eigenstate_deterministic():
    result = measure_qubit(make_basis_state(1, "0"), 0, 0.7)
    assert result.bit == 0
    assert result.probability == pytest.approx(1.0, abs=1e-12)
    result = measure_qubit(make_basis_state(1, "1"), 0, 0.0)
    assert result.bit == 1


def test_measure_symmetric_superposition_draw_rule():
    plus = StateVector(1, np.array([S2, S2]))
    low = measure_qubit(plus, 0, 0.49)
    assert low.bit == 0 and low.probability == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(low.post_state.amplitudes, [1, 0], atol=1e-12)
    high = measure_qubit(plus, 0, 0.51)
    assert high.bit == 1
    np.testing.assert_allclose(high.post_state.amplitudes, [0, 1], atol=1e-12)


def test_measure_middle_qubit_collapse():
    rng = np.random.default_rng(5)
    state = random_state(3, rng)
    result = measure_qubit(state, 1, 0.3)
    # the measured qubit is now an eigenstate; re-measuring repeats the outcome
    again = measure_qubit(result.post_state, 1, 0.9)
    assert again.bit == result.bit
    assert again.probability == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("norm", [1.0, 1.0 - 9e-9, 1.0 + 9e-9])
@pytest.mark.parametrize("n", range(2, 9))
def test_measurement_repeats_on_its_post_state(n, norm):
    # inputs off by 9e-9 are accepted (NORM_ATOL = 1e-8); each branch is normalized by its own
    # norm, so the post state is normalized and measuring it again repeats the bit
    rng = np.random.default_rng(600 + n)
    for qubit in range(n):
        for _ in range(5):
            state = StateVector(n, random_state(n, rng).amplitudes * norm)
            result = measure_qubit(state, qubit, rng.random())
            assert abs(result.post_state.norm() - 1.0) <= (1e-14 if norm == 1.0 else 1e-12)
            again = measure_qubit(result.post_state, qubit, rng.random())
            assert again.bit == result.bit
            assert again.probability == pytest.approx(1.0, abs=1e-12)


def test_measurement_statistics_match_probability():
    state = StateVector(1, np.array([0.6, 0.8]))
    rng = np.random.default_rng(99)
    draws = rng.random(100_000)
    hits = sum(measure_qubit(state, 0, float(d)).bit for d in draws)
    p1 = 0.64
    se = np.sqrt(p1 * (1 - p1) / draws.size)
    assert abs(hits / draws.size - p1) < 4 * se


def test_measure_never_selects_a_zero_probability_branch():
    # branches of weight 1e-18 and 4e-16: rounding residue, below ZERO_BRANCH_PROB
    low = measure_qubit(StateVector(1, np.array([1e-9, 1.0])), 0, 0.0)
    assert low.bit == 1 and low.probability == 1.0
    residue = 4e-16
    state = StateVector(1, np.array([np.sqrt(1.0 - residue), np.sqrt(residue)]))
    high = measure_qubit(state, 0, float(np.nextafter(1.0, 0.0)))
    assert high.bit == 0
    assert high.probability == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(high.post_state.amplitudes, [1, 0], atol=1e-12)


def test_measure_rejects_bad_inputs():
    with pytest.raises(ValueError):
        measure_qubit(StateVector(1, np.array([0.5, 0.5])), 0, 0.1)  # unnormalized
    with pytest.raises(ValueError):
        measure_qubit(make_basis_state(1, "0"), 0, 1.0)  # draw outside [0, 1)
    with pytest.raises(ValueError):
        measure_qubit(make_basis_state(1, "0"), 1, 0.5)


# -- dense operators and fidelity --


def test_apply_dense_identity():
    state = random_state(2, np.random.default_rng(1))
    out = apply_dense_operator(state, np.eye(4))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=0)


def test_projector_on_bell_state_is_unnormalized():
    phi_plus = StateVector(2, np.array([S2, 0, 0, S2]))
    projector = np.zeros((4, 4))
    projector[0, 0] = 1.0
    out = apply_dense_operator(phi_plus, projector)
    np.testing.assert_allclose(out.amplitudes, [S2, 0, 0, 0], atol=1e-15)


def test_xx_leaves_phi_plus_invariant():
    # oracle: direct 4x4 multiplication of the explicit kron product
    phi_plus = StateVector(2, np.array([S2, 0, 0, S2]))
    xx = np.kron(PAULI_X_MATRIX, PAULI_X_MATRIX)
    out = apply_dense_operator(phi_plus, xx)
    np.testing.assert_allclose(out.amplitudes, phi_plus.amplitudes, atol=1e-15)


def test_dense_operator_shape_mismatch():
    with pytest.raises(ValueError):
        apply_dense_operator(make_basis_state(2, "00"), np.eye(8))


def test_fidelity_properties():
    rng = np.random.default_rng(3)
    psi = random_state(3, rng)
    assert fidelity_up_to_global_phase(psi, psi) == pytest.approx(1.0, abs=1e-12)
    minus = StateVector(3, -psi.amplitudes)
    assert fidelity_up_to_global_phase(psi, minus) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_up_to_global_phase(
        make_basis_state(1, "0"), make_basis_state(1, "1")
    ) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        inner_product(make_basis_state(1, "0"), make_basis_state(2, "00"))


# -- register plumbing --


def test_append_and_drop_ancillas():
    state = random_state(2, np.random.default_rng(8))
    extended = append_ancillas(state, 2)
    assert extended.num_qubits == 4
    np.testing.assert_allclose(extended.amplitudes[0::4], state.amplitudes, atol=0)
    back = drop_qubit(drop_qubit(extended, 3, 0), 2, 0)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=0)


def test_drop_qubit_rejects_entangled_qubit():
    phi_plus = StateVector(2, np.array([S2, 0, 0, S2]))
    with pytest.raises(ValueError):
        drop_qubit(phi_plus, 1, 0)


def test_apply_single_qubit_matrix_arbitrary():
    rng = np.random.default_rng(12)
    state = random_state(2, rng)
    matrix = np.array([[0, -1j], [1j, 0]])  # Pauli Y
    out = apply_single_qubit_matrix(state, 1, matrix)
    expected = embed_single(matrix, 1, 2) @ state.amplitudes
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


# -- dump format --


def test_dump_roundtrip(tmp_path):
    state = random_state(3, np.random.default_rng(21))
    obj = to_dump(state)
    assert obj["num_qubits"] == 3
    assert len(obj["amplitudes"]) == 8
    again = from_dump(obj)
    assert states_close(state, again, atol=1e-12)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    assert states_close(load_dump(path), state, atol=1e-12)


def test_dump_comparison_ignores_global_phase():
    state = random_state(2, np.random.default_rng(4))
    rotated = StateVector(2, state.amplitudes * np.exp(0.7j))
    assert states_close(state, rotated, atol=1e-10)
    assert not states_close(state, make_basis_state(2, "01"))


def test_from_dump_rejects_unnormalized():
    with pytest.raises(ValueError):
        from_dump({"num_qubits": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]})
    with pytest.raises(ValueError):
        from_dump({"num_qubits": 1, "amplitudes": [[1.0, 0.0]]})


def test_from_dump_rejects_non_finite_amplitudes():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not normalized"):
            from_dump({"num_qubits": 1, "amplitudes": [[bad, 0.0], [0.0, 0.0]]})


@pytest.mark.parametrize("count", [2.9, True, "2", None])
def test_from_dump_rejects_non_integer_qubit_count(count):
    amplitudes = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="num_qubits must be an integer"):
        from_dump({"num_qubits": count, "amplitudes": amplitudes})


def test_normalization_check_rejects_nan():
    state = StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="not normalized"):
        measure_qubit(state, 0, 0.5)
