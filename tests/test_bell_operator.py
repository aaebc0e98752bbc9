"""Correlation-operator tests: spectra, recursion structure, branch compatibility."""

import tracemalloc

import numpy as np
import pytest

from qndnet.bell import BellLabel, bell_network_unitary_steps, bell_state
from qndnet.bell_operator import (
    BellOperatorSpec,
    bell_operator_n,
    canonical_chsh_spec,
    canonical_spec,
    chsh_operator,
    direction_operator,
    hermiticity_residual,
    qnd_compatibility_check,
    spectral_radius,
)
from qndnet.ghz import GhzLabel, ghz_network_gate_list, ghz_state
from qndnet.statevector import (
    PAULI_X_MATRIX,
    PAULI_Y_MATRIX,
    PAULI_Z_MATRIX,
    StateVector,
    cnot,
    gates_to_matrix,
    hadamard,
    random_state,
)

X_DIR = np.array([1.0, 0.0, 0.0])
Y_DIR = np.array([0.0, 1.0, 0.0])
Z_DIR = np.array([0.0, 0.0, 1.0])

TWO_SQRT_TWO = 2.0 * np.sqrt(2.0)


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_spec(rng, n=2) -> BellOperatorSpec:
    return BellOperatorSpec(tuple((random_unit(rng), random_unit(rng)) for _ in range(n)))


def test_direction_operator_axes():
    np.testing.assert_allclose(direction_operator(X_DIR), PAULI_X_MATRIX, atol=0)
    np.testing.assert_allclose(direction_operator(Y_DIR), PAULI_Y_MATRIX, atol=0)
    np.testing.assert_allclose(direction_operator(Z_DIR), PAULI_Z_MATRIX, atol=0)
    with pytest.raises(ValueError):
        direction_operator([1.0, 1.0, 0.0])


def test_canonical_chsh_spectrum():
    # eigensolver oracle on the explicitly constructed matrix
    operator = chsh_operator(canonical_chsh_spec())
    eigenvalues = np.linalg.eigvalsh(operator)
    np.testing.assert_allclose(
        eigenvalues, [-TWO_SQRT_TWO, 0.0, 0.0, TWO_SQRT_TWO], atol=1e-10
    )
    # it collapses to sqrt2*(ZZ + XX), whose top eigenvector is Phi+
    expected = np.sqrt(2) * (
        np.kron(PAULI_Z_MATRIX, PAULI_Z_MATRIX) + np.kron(PAULI_X_MATRIX, PAULI_X_MATRIX)
    )
    np.testing.assert_allclose(operator, expected, atol=1e-12)
    top = np.linalg.eigh(operator)[1][:, -1]
    overlap = abs(np.vdot(bell_state(BellLabel.PHI_PLUS).amplitudes, top)) ** 2
    assert overlap > 1 - 1e-10


def test_degenerate_directions_collapse_to_zz():
    spec = BellOperatorSpec(((Z_DIR, Z_DIR), (Z_DIR, Z_DIR)))
    operator = chsh_operator(spec)
    np.testing.assert_allclose(operator, 2 * np.kron(PAULI_Z_MATRIX, PAULI_Z_MATRIX), atol=1e-12)
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(operator)), [-2, -2, 2, 2], atol=1e-12)


def test_hermiticity_and_tsirelson_bound():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        operator = chsh_operator(random_spec(rng))
        assert hermiticity_residual(operator) < 1e-12
        assert spectral_radius(operator) <= TWO_SQRT_TWO + 1e-9


def test_spec_validation():
    with pytest.raises(ValueError):
        BellOperatorSpec(((Z_DIR, 2 * Z_DIR), (Z_DIR, Z_DIR)))
    with pytest.raises(ValueError):
        BellOperatorSpec(((Z_DIR, Z_DIR),))
    with pytest.raises(ValueError):
        chsh_operator(BellOperatorSpec(((Z_DIR, X_DIR),) * 3))
    with pytest.raises(ValueError):
        bell_operator_n(BellOperatorSpec(((Z_DIR, X_DIR),) * 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_direction_is_rejected(bad):
    direction = np.array([bad, 0.0, 1.0])
    with pytest.raises(ValueError, match="unit vector"):
        BellOperatorSpec(((direction, X_DIR), (Z_DIR, X_DIR)))
    with pytest.raises(ValueError, match="unit vector"):
        direction_operator(direction)


def test_mermin_configuration_reaches_four():
    spec = BellOperatorSpec(((X_DIR, Y_DIR),) * 3)
    operator = bell_operator_n(spec)
    assert hermiticity_residual(operator) < 1e-12
    assert spectral_radius(operator) == pytest.approx(4.0, abs=1e-10)


def test_equal_primed_directions_drop_second_term():
    # a_k == a_k' makes the recursion collapse to B_{n-1} (x) (a_n . sigma)
    rng = np.random.default_rng(11)
    pairs = tuple((v, v) for v in (random_unit(rng), random_unit(rng), random_unit(rng)))
    spec = BellOperatorSpec(pairs)
    operator = bell_operator_n(spec)
    base = chsh_operator(BellOperatorSpec(pairs[:2]))
    expected = np.kron(base, direction_operator(pairs[2][0]))
    np.testing.assert_allclose(operator, expected, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_canonical_spec_top_eigenvector_is_ghz(n):
    operator = bell_operator_n(canonical_spec(n))
    values, vectors = np.linalg.eigh(operator)
    assert values[-1] == pytest.approx(2 ** ((n + 1) / 2), abs=1e-9)
    ghz = ghz_state(GhzLabel("+", "1" * n))
    overlap = abs(np.vdot(ghz.amplitudes, vectors[:, -1])) ** 2
    assert overlap > 1 - 1e-10


def test_hermiticity_recursive_operators():
    rng = np.random.default_rng(5)
    for n in (3, 4):
        operator = bell_operator_n(random_spec(rng, n))
        assert hermiticity_residual(operator) < 1e-12


# -- network/observable compatibility --


def test_bell_network_preserves_canonical_chsh_eigenstates():
    observable = chsh_operator(canonical_chsh_spec())
    network = bell_network_unitary_steps("paper")
    report = qnd_compatibility_check(
        observable, network, eigenstates=[bell_state(label) for label in BellLabel]
    )
    assert report.max_commutator < 1e-10
    assert report.all_preserved
    for entry in report.eigenstates:
        assert entry.eigen_residual < 1e-10
        supported = [p for p in entry.branch_probabilities if p > 1e-10]
        assert len(supported) == 1 and supported[0] == pytest.approx(1.0, abs=1e-10)


def test_default_eigenbasis_refinement_handles_degeneracy():
    observable = chsh_operator(canonical_chsh_spec())
    report = qnd_compatibility_check(observable, bell_network_unitary_steps("paper"))
    assert report.all_preserved  # 0-eigenspace refined onto {Phi-, Psi+}


def test_single_qubit_observable_is_not_compatible():
    observable = np.kron(PAULI_Z_MATRIX, np.eye(2))
    report = qnd_compatibility_check(observable, bell_network_unitary_steps("paper"))
    assert report.max_commutator > 0.1
    assert not report.all_preserved


def test_identity_network_commutes_with_everything():
    rng = np.random.default_rng(13)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    observable = (h + h.conj().T) / 2
    report = qnd_compatibility_check(observable, [])
    assert report.max_commutator == 0.0
    assert report.all_preserved


def test_compatibility_check_validates():
    with pytest.raises(ValueError):
        qnd_compatibility_check(np.array([[0.0, 1.0], [0.0, 0.0]]), [])
    with pytest.raises(ValueError):
        qnd_compatibility_check(np.zeros((3, 3)), [])


def test_compatibility_report_matches_dense_unitary_loop():
    # reference: slice K_m out of the full unitary and score each state branch by branch
    rng = np.random.default_rng(29)
    for _ in range(10):
        num_data, num_anc = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        span = num_data + num_anc
        network = []
        for _ in range(8):
            q = rng.permutation(span)
            network.append(cnot(int(q[0]), int(q[1])) if span > 1 and rng.integers(2) else hadamard(int(q[0])))
        d, a = 1 << num_data, 1 << num_anc
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        observable = (h + h.conj().T) / 2
        states = [random_state(num_data, rng) for _ in range(3)]
        report = qnd_compatibility_check(observable, network, eigenstates=states)
        kraus = gates_to_matrix(network, span).reshape(d, a, d, a)[:, :, :, 0]
        for m, branch in enumerate(report.branches):
            k = kraus[:, m, :]
            assert branch.commutator_max == pytest.approx(np.max(np.abs(k @ observable - observable @ k)), abs=1e-12)
        for state, entry in zip(states, report.eigenstates):
            vec = state.amplitudes
            assert entry.eigenvalue == pytest.approx(np.vdot(vec, observable @ vec).real, abs=1e-12)
            for m, (p, f) in enumerate(zip(entry.branch_probabilities, entry.self_fidelities)):
                out = kraus[:, m, :] @ vec
                expected_p = np.vdot(out, out).real
                assert p == pytest.approx(expected_p, abs=1e-12)
                if expected_p > 1e-9:
                    assert f == pytest.approx(abs(np.vdot(vec, out)) ** 2 / expected_p, abs=1e-9)


def canonical_observable(n):
    spec = canonical_spec(n)
    return chsh_operator(spec) if n == 2 else bell_operator_n(spec)


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 8))
def test_ghz_network_preserves_canonical_operator_eigenstates(n, convention):
    # the paper's nonlocal claim: every branch leaves every eigenstate fixed
    report = qnd_compatibility_check(canonical_observable(n), ghz_network_gate_list(n, convention))
    assert report.max_commutator < 1e-10
    assert report.all_preserved
    assert len(report.eigenstates) == 1 << n


def test_compatibility_check_rejects_networks_beyond_the_register_cap():
    # the n = 8 network spans 16 qubits; the check reaches n = 7 (2n <= MAX_QUBITS)
    with pytest.raises(ValueError, match=r"spans 16 qubits.*reach n <= 7"):
        qnd_compatibility_check(canonical_observable(8), ghz_network_gate_list(8))


def test_compatibility_check_never_builds_the_dense_unitary():
    # at n = 6 the (d*a)^2 unitary alone is 256 MiB; the d needed columns are 4 MiB
    observable = canonical_observable(6)
    network = ghz_network_gate_list(6)
    tracemalloc.start()
    try:
        report = qnd_compatibility_check(observable, network)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_preserved
    assert peak < 32 * 2**20
