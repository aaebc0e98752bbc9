"""Bell network tests: decoding table, exact branch signs, oracle equivalence."""

import numpy as np
import pytest

from qndnet.bell import (
    BELL_DECODE_ORDER,
    BellLabel,
    bell_bits,
    bell_branch_table,
    bell_network_unitary_steps,
    bell_premeasurement_state,
    bell_projection_oracle,
    bell_state,
    decode_bell,
    parse_bell_label,
    run_bell_qnd,
)
from qndnet import ghz as ghz_module
from qndnet.ghz import ghz_branch_table, ghz_state, run_ghz_qnd
from qndnet.statevector import (
    GateKind,
    StateVector,
    apply_gates,
    fidelity_up_to_global_phase,
    inner_product,
    make_basis_state,
    random_state,
)

S2 = 1.0 / np.sqrt(2.0)

#: Input norms: exact, and off by 9e-9, which NORM_ATOL (1e-8) still accepts.
NORMS = [1.0, 1.0 - 9e-9, 1.0 + 9e-9]

# frozen amplitude vectors (big-endian index order 00, 01, 10, 11)
BELL_AMPLITUDES = {
    BellLabel.PHI_PLUS: [S2, 0, 0, S2],
    BellLabel.PHI_MINUS: [-S2, 0, 0, S2],
    BellLabel.PSI_PLUS: [0, S2, S2, 0],
    BellLabel.PSI_MINUS: [0, -S2, S2, 0],
}

TABLE_1 = {
    BellLabel.PHI_PLUS: (0, 0),
    BellLabel.PHI_MINUS: (0, 1),
    BellLabel.PSI_PLUS: (1, 0),
    BellLabel.PSI_MINUS: (1, 1),
}


def random_bell_coefficients(rng):
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return coeffs / np.linalg.norm(coeffs)


def state_from_bell_coefficients(coeffs) -> StateVector:
    amps = sum(
        c * np.asarray(BELL_AMPLITUDES[label])
        for c, label in zip(coeffs, BELL_DECODE_ORDER)
    )
    return StateVector(2, amps)


def test_bell_state_amplitudes_frozen():
    for label, expected in BELL_AMPLITUDES.items():
        np.testing.assert_allclose(bell_state(label).amplitudes, expected, atol=1e-15)


def test_parse_bell_label():
    assert parse_bell_label("psi-") is BellLabel.PSI_MINUS
    with pytest.raises(ValueError):
        parse_bell_label("bogus")


def test_decode_bell_matches_table():
    for label, bits in TABLE_1.items():
        assert decode_bell(*bits) is label
        assert bell_bits(label) == bits
    with pytest.raises(ValueError):
        decode_bell(2, 0)


def test_network_gate_list_shape():
    gates = bell_network_unitary_steps("paper")
    assert len(gates) == 8
    kinds = [g.kind for g in gates]
    assert kinds == [
        GateKind.CNOT,
        GateKind.CNOT,
        GateKind.HADAMARD_PAPER,
        GateKind.HADAMARD_PAPER,
        GateKind.CNOT,
        GateKind.CNOT,
        GateKind.HADAMARD_PAPER,
        GateKind.HADAMARD_PAPER,
    ]
    assert [(g.control, g.target) for g in gates if g.kind is GateKind.CNOT] == [
        (0, 2),
        (1, 2),
        (0, 3),
        (1, 3),
    ]
    standard = bell_network_unitary_steps("standard")
    assert all(
        g.kind in (GateKind.CNOT, GateKind.HADAMARD_STANDARD) for g in standard
    )


def test_parity_extraction_step():
    # first two gates write the parity onto ancilla 2 and leave the data alone
    for label, expected_bit in [(BellLabel.PSI_PLUS, "1"), (BellLabel.PHI_MINUS, "0")]:
        joint = StateVector(4, np.kron(bell_state(label).amplitudes, make_basis_state(2, "00").amplitudes))
        stepped = apply_gates(joint, bell_network_unitary_steps("paper")[:2])
        expected = np.kron(bell_state(label).amplitudes, make_basis_state(2, expected_bit + "0").amplitudes)
        np.testing.assert_allclose(stepped.amplitudes, expected, atol=1e-12)


def test_hadamard_pair_basis_rotation():
    # the middle Hadamard pair permutes the Bell basis (with a sign on Psi-)
    rotation = bell_network_unitary_steps("paper")[2:4]
    expected_map = {
        BellLabel.PHI_PLUS: (BellLabel.PHI_PLUS, 1),
        BellLabel.PHI_MINUS: (BellLabel.PSI_PLUS, 1),
        BellLabel.PSI_PLUS: (BellLabel.PHI_MINUS, 1),
        BellLabel.PSI_MINUS: (BellLabel.PSI_MINUS, -1),
    }
    for source, (target, sign) in expected_map.items():
        rotated = apply_gates(bell_state(source), [g for g in rotation])
        np.testing.assert_allclose(
            rotated.amplitudes, sign * bell_state(target).amplitudes, atol=1e-12
        )


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_bell_inputs_reproduce_decoding_table(convention):
    for label, bits in TABLE_1.items():
        outcome = run_bell_qnd(bell_state(label), convention, (0.42, 0.77))
        assert (outcome.parity_bit, outcome.phase_bit) == bits
        assert outcome.label is label
        assert outcome.probability == pytest.approx(1.0, abs=1e-12)
        assert fidelity_up_to_global_phase(outcome.post_state, bell_state(label)) > 1 - 1e-10


def test_repeated_measurement_is_nondemolition():
    rng = np.random.default_rng(17)
    for label in BellLabel:
        state = bell_state(label)
        bits = None
        for _ in range(10):
            outcome = run_bell_qnd(state, "paper", tuple(rng.random(2)))
            if bits is None:
                bits = (outcome.parity_bit, outcome.phase_bit)
            assert (outcome.parity_bit, outcome.phase_bit) == bits
            state = outcome.post_state
        assert fidelity_up_to_global_phase(state, bell_state(label)) > 1 - 1e-10


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_repeat_on_random_post_state_gives_the_same_label(convention, norm):
    rng = np.random.default_rng(19)
    for _ in range(50):
        out = run_bell_qnd(StateVector(2, random_state(2, rng).amplitudes * norm), convention, rng.random(2))
        assert abs(out.post_state.norm() - 1.0) <= 1e-12
        again = run_bell_qnd(out.post_state, convention, rng.random(2))
        assert again.label is out.label
        assert again.probability == pytest.approx(1.0, abs=1e-12)


def test_uniform_superposition_collapses_to_each_component():
    state = state_from_bell_coefficients([0.5, 0.5, 0.5, 0.5])
    table = bell_branch_table(state, "paper")
    for (bits, label, probability, post) in table:
        assert probability == pytest.approx(0.25, abs=1e-12)
        assert fidelity_up_to_global_phase(post, bell_state(label)) > 1 - 1e-10
    # sampled runs land in every quadrant of the draw space
    seen = set()
    for d0, d1 in [(0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)]:
        outcome = run_bell_qnd(state, "paper", (d0, d1))
        seen.add((outcome.parity_bit, outcome.phase_bit))
        assert outcome.probability == pytest.approx(0.25, abs=1e-12)
    assert len(seen) == 4


def test_premeasurement_branch_signs_exact():
    # the four-step evolution keeps each Bell coefficient, including the sign
    # of the Psi- branch, attached to its ancilla pattern
    rng = np.random.default_rng(23)
    for _ in range(50):
        coeffs = random_bell_coefficients(rng)
        joint = bell_premeasurement_state(state_from_bell_coefficients(coeffs), "paper")
        m = joint.amplitudes.reshape(4, 4)
        for a, (coeff, label) in enumerate(zip(coeffs, BELL_DECODE_ORDER)):
            expected = coeff * np.asarray(BELL_AMPLITUDES[label])
            np.testing.assert_allclose(m[:, a], expected, atol=1e-10)


def test_projection_oracle_basics():
    results = bell_projection_oracle(bell_state(BellLabel.PHI_MINUS))
    probs = {label: p for label, p, _ in results}
    assert probs[BellLabel.PHI_MINUS] == pytest.approx(1.0, abs=1e-12)
    assert probs[BellLabel.PHI_PLUS] == pytest.approx(0.0, abs=1e-12)

    # |00> splits evenly between Phi+ and Phi- with opposite-sign amplitudes
    zero = make_basis_state(2, "00")
    assert inner_product(bell_state(BellLabel.PHI_PLUS), zero) == pytest.approx(S2)
    assert inner_product(bell_state(BellLabel.PHI_MINUS), zero) == pytest.approx(-S2)
    probs = {label: p for label, p, _ in bell_projection_oracle(zero)}
    assert probs[BellLabel.PHI_PLUS] == pytest.approx(0.5, abs=1e-12)
    assert probs[BellLabel.PHI_MINUS] == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(31)
    for _ in range(20):
        results = bell_projection_oracle(random_state(2, rng))
        assert sum(p for _, p, _ in results) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_network_matches_projection_oracle(convention, norm):
    rng = np.random.default_rng(47)
    for _ in range(200):
        state = StateVector(2, random_state(2, rng).amplitudes * norm)
        oracle = {label: (p, post) for label, p, post in bell_projection_oracle(state)}
        for bits, label, probability, post in bell_branch_table(state, convention):
            expected_p, expected_post = oracle[label]
            assert abs(probability - expected_p) < 1e-12
            if post is not None:
                assert abs(post.norm() - 1.0) <= (1e-14 if norm == 1.0 else 1e-12)
            if probability > 1e-9:
                assert fidelity_up_to_global_phase(post, expected_post) > 1 - 1e-10


def test_conventions_agree_on_outcomes():
    rng = np.random.default_rng(53)
    for _ in range(50):
        state = random_state(2, rng)
        paper = bell_branch_table(state, "paper")
        standard = bell_branch_table(state, "standard")
        for (bits_p, label_p, prob_p, _), (bits_s, label_s, prob_s, _) in zip(paper, standard):
            assert bits_p == bits_s and label_p is label_s
            assert abs(prob_p - prob_s) < 1e-10


def test_global_phase_is_erased():
    rng = np.random.default_rng(61)
    state = random_state(2, rng)
    base = [p for _, _, p, _ in bell_branch_table(state, "paper")]
    for theta in (0.3, 1.7, np.pi, 5.1):
        rotated = StateVector(2, state.amplitudes * np.exp(1j * theta))
        probs = [p for _, _, p, _ in bell_branch_table(rotated, "paper")]
        np.testing.assert_allclose(probs, base, atol=1e-12)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_bell_qnd(StateVector(2, np.array([1.0, 1.0, 0, 0])), "paper", (0.1, 0.2))
    with pytest.raises(ValueError):
        run_bell_qnd(make_basis_state(3, "000"), "paper", (0.1, 0.2))
    with pytest.raises(ValueError):
        run_bell_qnd(bell_state(BellLabel.PHI_PLUS), "paper", (0.1,))
    with pytest.raises(ValueError):
        bell_premeasurement_state(bell_state(BellLabel.PHI_PLUS), "sideways")


@pytest.mark.parametrize("draws", [(1.0, 0.0), (0.0, 1.0), (-0.1, 0.5), (float("nan"), 0.5)])
def test_rejects_draws_outside_unit_interval(draws):
    # a draw of 1.0 used to select a zero-probability branch and renormalize rounding noise
    with pytest.raises(ValueError, match=r"random draw must lie in \[0, 1\)"):
        run_bell_qnd(bell_state(BellLabel.PHI_PLUS), "paper", draws)


@pytest.mark.parametrize("draw", [0.0, float(np.nextafter(1.0, 0.0))])
@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_extreme_draws_never_select_a_zero_probability_branch(convention, draw):
    # the largest Generator.random() value used to read psi- at probability 7.8e-16
    for label in BellLabel:
        outcome = run_bell_qnd(bell_state(label), convention, (draw, draw))
        assert outcome.label is label
        assert outcome.probability == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_bell_is_the_n2_case_of_ghz(convention):
    # same input and draws: equal bits, == probabilities, equal post states, row by row
    rng = np.random.default_rng(77)
    states = [bell_state(label) for label in BellLabel] + [random_state(2, rng) for _ in range(20)]
    for state in states:
        twin = StateVector(2, state.amplitudes)  # its own memo slot: the GHZ side reruns the network
        for draws in rng.random((4, 2)):
            bell = run_bell_qnd(state, convention, draws)
            ghz = run_ghz_qnd(twin, convention, draws)
            assert (bell.parity_bit, bell.phase_bit) == ghz.part_parity_bits + (ghz.global_parity_bit,)
            assert np.array_equal(bell_state(bell.label).amplitudes, ghz_state(ghz.label).amplitudes)
            assert bell.probability == ghz.probability
            assert np.array_equal(bell.post_state.amplitudes, ghz.post_state.amplitudes)
        for (bits, label, prob, post), (g_bits, g_label, g_prob, g_post) in zip(
            bell_branch_table(state, convention), ghz_branch_table(twin, convention), strict=True
        ):
            assert bits == g_bits and prob == g_prob
            assert np.array_equal(bell_state(label).amplitudes, ghz_state(g_label).amplitudes)
            assert (post is None) == (g_post is None)
            assert post is None or np.array_equal(post.amplitudes, g_post.amplitudes)
    # one schedule rule: Bell and n = 2 GHZ, default or all-live, share one schedule, so one
    # memo slot: their shots keep its (state, schedule), and the repeat's table stays put
    run_bell_qnd(states[-1], convention)
    state, steps, _ = ghz_module._last_table
    tables = []
    for staged in (None, False):
        run_ghz_qnd(states[-1], convention, (0.0, 0.0), staged=staged)
        assert ghz_module._last_table[0] is state and ghz_module._last_table[1] is steps
        tables.append(ghz_module._last_table[2])
    assert tables[0] is not None and tables[1] is tables[0]
