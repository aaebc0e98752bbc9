"""GHZ network tests: parity identities, non-demolition, oracle equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qndnet.bell import BellLabel, bell_network_unitary_steps, bell_state
from qndnet.ghz import (
    GhzLabel,
    all_canonical_labels,
    decode_ghz,
    ghz_bits,
    ghz_branch_table,
    ghz_network_gate_list,
    ghz_projection_oracle,
    ghz_state,
    hadamard_layer,
    parse_ghz_label,
    run_ghz_qnd,
)
from qndnet.statevector import (
    GateKind,
    StateVector,
    apply_gates,
    fidelity_up_to_global_phase,
    make_basis_state,
    random_state,
)

S2 = 1.0 / np.sqrt(2.0)


def ket_weight(index: int) -> int:
    return bin(index).count("1")


# -- labels --


def test_ghz_state_examples():
    np.testing.assert_allclose(
        ghz_state(GhzLabel("+", "11")).amplitudes, bell_state(BellLabel.PHI_PLUS).amplitudes, atol=0
    )
    np.testing.assert_allclose(
        ghz_state(GhzLabel("-", "10")).amplitudes, bell_state(BellLabel.PSI_MINUS).amplitudes, atol=0
    )
    three = ghz_state(GhzLabel("+", "111"))
    expected = np.zeros(8)
    expected[0] = expected[7] = S2
    np.testing.assert_allclose(three.amplitudes, expected, atol=0)


def test_non_canonical_labels_rejected():
    with pytest.raises(ValueError):
        GhzLabel("+", "011")
    with pytest.raises(ValueError):
        GhzLabel("x", "11")
    with pytest.raises(ValueError):
        GhzLabel("+", "1")
    with pytest.raises(ValueError):
        parse_ghz_label("+?101")


def test_label_token_roundtrip():
    label = GhzLabel("-", "10110")
    assert label.token == "-:10110"
    assert parse_ghz_label(label.token) == label


def test_all_canonical_labels_count():
    for n in range(2, 6):
        labels = all_canonical_labels(n)
        assert len(labels) == 1 << n
        assert len(set(labels)) == 1 << n
        # the basis they name is orthonormal and complete
        matrix = np.array([ghz_state(l).amplitudes for l in labels])
        np.testing.assert_allclose(matrix @ matrix.conj().T, np.eye(1 << n), atol=1e-12)


# -- decoding --


@pytest.mark.parametrize(
    "parities,g,n,expected",
    [
        ((0,), 0, 2, GhzLabel("+", "11")),
        ((1, 1), 1, 3, GhzLabel("-", "101")),
        ((0, 0, 0), 0, 4, GhzLabel("+", "1111")),
    ],
)
def test_decode_examples(parities, g, n, expected):
    assert decode_ghz(parities, g, n) == expected


def test_decode_validates():
    with pytest.raises(ValueError):
        decode_ghz((0, 1), 0, 2)
    with pytest.raises(ValueError):
        decode_ghz((0, 2), 0, 3)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 8), st.data())
def test_decode_encode_roundtrip(n, data):
    value = data.draw(st.integers(0, (1 << (n - 1)) - 1))
    sign = data.draw(st.sampled_from("+-"))
    label = GhzLabel(sign, "1" + format(value, f"0{n - 1}b"))
    parities, g = ghz_bits(label)
    assert decode_ghz(parities, g, n) == label


# -- network structure --


def test_gate_list_reduces_to_bell_network():
    for convention in ("paper", "standard"):
        assert ghz_network_gate_list(2, convention) == bell_network_unitary_steps(convention)


def test_gate_list_counts_n3():
    gates = ghz_network_gate_list(3, "paper")
    assert len(gates) == 13
    kinds = [g.kind for g in gates]
    assert kinds[:4] == [GateKind.CNOT] * 4
    assert kinds[4:7] == [GateKind.HADAMARD_PAPER] * 3
    assert kinds[7:10] == [GateKind.CNOT] * 3
    assert kinds[10:] == [GateKind.HADAMARD_PAPER] * 3
    assert [(g.control, g.target) for g in gates[:4]] == [(0, 3), (1, 3), (1, 4), (2, 4)]
    assert [(g.control, g.target) for g in gates[7:10]] == [(0, 5), (1, 5), (2, 5)]


def test_part_parity_sublist_writes_neighbor_parities():
    # brute-force check of the x_i xor x_{i+1} claim on both branches
    state = ghz_state(GhzLabel("+", "101"))
    joint = StateVector(5, np.kron(state.amplitudes, make_basis_state(2, "00").amplitudes))
    stepped = apply_gates(joint, ghz_network_gate_list(3, "paper")[:4])
    expected = np.kron(state.amplitudes, make_basis_state(2, "11").amplitudes)
    np.testing.assert_allclose(stepped.amplitudes, expected, atol=1e-12)


# -- the phase-to-parity identity --


def test_hadamard_layer_weight_support_standard():
    # '+' states land on even-weight kets only, '-' states on odd, any n
    for n in range(2, 6):
        for label in all_canonical_labels(n):
            image = hadamard_layer(ghz_state(label), "standard")
            bad_parity = 1 if label.sign == "+" else 0
            leakage = [
                abs(a)
                for k, a in enumerate(image.amplitudes)
                if ket_weight(k) % 2 == bad_parity
            ]
            assert max(leakage) < 1e-12


def test_hadamard_layer_weight_support_paper_shifts_with_n():
    # under the reversed convention the support parity is offset by n mod 2
    for n in (3, 5):
        label = GhzLabel("+", "1" * n)
        image = hadamard_layer(ghz_state(label), "paper")
        support = {ket_weight(k) % 2 for k, a in enumerate(image.amplitudes) if abs(a) > 1e-12}
        assert support == {1}


# -- running the network --


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_run_examples(convention):
    rng = np.random.default_rng(9)
    out = run_ghz_qnd(ghz_state(GhzLabel("-", "101")), convention, rng.random(3))
    assert out.part_parity_bits == (1, 1)
    assert out.global_parity_bit == 1
    assert out.label == GhzLabel("-", "101")
    assert out.probability == pytest.approx(1.0, abs=1e-12)

    out = run_ghz_qnd(ghz_state(GhzLabel("+", "111")), convention, rng.random(3))
    assert out.part_parity_bits == (0, 0) and out.global_parity_bit == 0

    out = run_ghz_qnd(bell_state(BellLabel.PHI_MINUS), convention, rng.random(2))
    assert out.part_parity_bits == (0,) and out.global_parity_bit == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_nondemolition_all_labels(n):
    rng = np.random.default_rng(100 + n)
    for label in all_canonical_labels(n):
        state = ghz_state(label)
        first = None
        for _ in range(5):
            out = run_ghz_qnd(state, "paper", rng.random(n))
            bits = out.part_parity_bits + (out.global_parity_bit,)
            if first is None:
                first = bits
            assert bits == first
            assert out.label == label
            state = out.post_state
        assert fidelity_up_to_global_phase(state, ghz_state(label)) > 1 - 1e-10


def test_projection_oracle_basics():
    for label in all_canonical_labels(3):
        probs = dict(ghz_projection_oracle(ghz_state(label)))
        assert probs[label] == pytest.approx(1.0, abs=1e-12)
    # |000> splits between (+,111) and (-,111)
    probs = dict(ghz_projection_oracle(make_basis_state(3, "000")))
    assert probs[GhzLabel("+", "111")] == pytest.approx(0.5, abs=1e-12)
    assert probs[GhzLabel("-", "111")] == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(77)
    for n in (2, 3, 4):
        total = sum(p for _, p in ghz_projection_oracle(random_state(n, rng)))
        assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", [2, 3, 4, 7, 8])
def test_branch_table_matches_oracle(convention, n):
    rng = np.random.default_rng(1000 * n)
    for _ in range(50 if n <= 4 else 3):
        state = random_state(n, rng)
        oracle = dict(ghz_projection_oracle(state))
        for bits, label, probability, post in ghz_branch_table(state, convention):
            assert abs(probability - oracle[label]) < 1e-10
            if probability > 1e-9:
                assert fidelity_up_to_global_phase(post, ghz_state(label)) > 1 - 1e-10


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_sampled_probability_equals_its_table_row(convention):
    # the walker (run_ghz_qnd) against the expander (ghz_branch_table) on one schedule
    rng = np.random.default_rng(2718)
    for n in range(2, 9):
        for _ in range(3):
            state = random_state(n, rng)
            rows = {label: probability for _, label, probability, _ in ghz_branch_table(state, convention)}
            for _ in range(5):
                out = run_ghz_qnd(state, convention, rng.random(n))
                assert abs(out.probability - rows[out.label]) < 1e-12, n


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_staged_equals_full_for_same_draws(convention):
    rng = np.random.default_rng(321)
    for n in (2, 3, 4, 5, 6):
        for _ in range(10):
            state = random_state(n, rng)
            draws = rng.random(n)
            full = run_ghz_qnd(state, convention, draws, staged=False)
            staged = run_ghz_qnd(state, convention, draws, staged=True)
            assert full.part_parity_bits == staged.part_parity_bits
            assert full.global_parity_bit == staged.global_parity_bit
            assert abs(full.probability - staged.probability) < 1e-12
            assert fidelity_up_to_global_phase(full.post_state, staged.post_state) > 1 - 1e-10


@pytest.mark.parametrize("n", [7, 8])
def test_large_registers_run_staged(n):
    rng = np.random.default_rng(n)
    labels = all_canonical_labels(n)
    for label in (labels[0], labels[3], labels[-1]):
        out = run_ghz_qnd(ghz_state(label), "paper", rng.random(n))
        assert out.label == label
        assert out.probability == pytest.approx(1.0, abs=1e-10)
        assert fidelity_up_to_global_phase(out.post_state, ghz_state(label)) > 1 - 1e-9


def test_monte_carlo_frequencies_match_oracle():
    # 10^5 seeded runs on one random 4-qubit state vs the exact distribution
    n, trials = 4, 100_000
    state = random_state(n, np.random.default_rng(8128))
    expected = {label.token: p for label, p in ghz_projection_oracle(state)}
    rng = np.random.default_rng(496)
    counts: dict[str, int] = {}
    for _ in range(trials):
        out = run_ghz_qnd(state, "paper", rng.random(n))
        counts[out.label.token] = counts.get(out.label.token, 0) + 1
    for token, p in expected.items():
        se = np.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(counts.get(token, 0) / trials - p) < 4 * se + 1e-9


def test_run_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_ghz_qnd(make_basis_state(1, "0"), "paper", (0.1,))
    with pytest.raises(ValueError):
        run_ghz_qnd(ghz_state(GhzLabel("+", "111")), "paper", (0.1, 0.2))
    with pytest.raises(ValueError):
        run_ghz_qnd(StateVector(2, np.array([1.0, 1.0, 0, 0])), "paper", (0.1, 0.2))
    with pytest.raises(ValueError):
        ghz_network_gate_list(9)
    for n in (1, 9):
        with pytest.raises(ValueError):
            ghz_branch_table(random_state(n, np.random.default_rng(0)))


@pytest.mark.parametrize("staged", [False, True])
@pytest.mark.parametrize("bad", [1.0, -0.1, float("nan")])
@pytest.mark.parametrize("position", [0, 2])
def test_run_rejects_draws_outside_unit_interval(staged, bad, position):
    draws = [0.5, 0.5, 0.5]
    draws[position] = bad
    with pytest.raises(ValueError, match=r"random draw must lie in \[0, 1\)"):
        run_ghz_qnd(ghz_state(GhzLabel("+", "101")), "paper", draws, staged=staged)


@pytest.mark.parametrize("staged", [False, True])
@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_extreme_draws_never_select_a_zero_probability_branch(convention, staged):
    # rounding residue in a dead branch grows with n; it must never be sampled
    top = float(np.nextafter(1.0, 0.0))
    for n in range(2, 9 if staged else 7):
        for label in all_canonical_labels(n):
            for draw in (0.0, top):
                out = run_ghz_qnd(ghz_state(label), convention, (draw,) * n, staged=staged)
                assert out.label == label, (n, draw)
                assert out.probability == pytest.approx(1.0, abs=1e-12)
