"""Authentication protocol tests: enrollment, sessions, attackers, noise, sweeps."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qndnet import auth
from qndnet.auth import (
    AttackerModel,
    AuthAccount,
    NOISELESS,
    NoiseSpec,
    _acceptance_probability,
    _apply_noise_rng,
    _branch_probabilities,
    _round_match_probability,
    _run_round,
    _system_for,
    apply_noise,
    attacker_round_distribution,
    enroll,
    parse_attacker,
    security_sweep,
    verify_session,
    wilson_interval,
)
from qndnet.bell import (
    BELL_DECODE_ORDER,
    BellLabel,
    bell_bits,
    bell_state,
    decode_bell,
    run_bell_qnd,
)
from qndnet.cli import main
from qndnet.statevector import (
    PAULI_X_MATRIX,
    PAULI_Y_MATRIX,
    PAULI_Z_MATRIX,
    StateVector,
    fidelity_up_to_global_phase,
    random_state,
    states_close,
)

UNIFORM = np.full(4, 0.25)
PAULIS = (np.eye(2), PAULI_X_MATRIX, PAULI_Y_MATRIX, PAULI_Z_MATRIX)
GOLDEN = Path(__file__).parent / "data" / "golden_auth_sweeps.json"


# -- enrollment --


def test_enroll_single_phi_plus():
    account = enroll(1, [BellLabel.PHI_PLUS])
    assert account.records == [(0, 0)]
    assert states_close(account.pairs[0], bell_state(BellLabel.PHI_PLUS))
    assert account.status == "active"


def test_enroll_records_match_labels():
    account = enroll(2, [BellLabel.PSI_MINUS, BellLabel.PHI_MINUS])
    assert account.records == [(1, 1), (0, 1)]


def test_enroll_random_is_seed_reproducible():
    a = enroll(3, "random", seed=7)
    b = enroll(3, "random", seed=7)
    c = enroll(3, "random", seed=8)
    assert a.records == b.records
    assert any(x != y for x, y in zip(a.records, c.records)) or a.records != c.records


def test_enroll_validation():
    with pytest.raises(ValueError):
        enroll(0)
    with pytest.raises(ValueError):
        enroll(2, [BellLabel.PHI_PLUS])
    with pytest.raises(ValueError):
        enroll(1, "sometimes")
    with pytest.raises(ValueError, match="BellLabel"):
        enroll(2, ["phi+", "psi-"])


@pytest.mark.parametrize("n", [True, False, 2.0, "2", None])
def test_account_size_must_be_an_integer_count(n):
    with pytest.raises(ValueError, match="n must be an integer count"):
        enroll(n)
    with pytest.raises(ValueError, match="n must be an integer count"):
        security_sweep([n], AttackerModel.LEGITIMATE, trials=1, seed=0)
    assert enroll(np.int64(2)).num_pairs == 2


# -- sessions --


def test_legitimate_session_accepts_and_keeps_records():
    for n in (1, 3, 5):
        account = enroll(n, "random", seed=n)
        before = list(account.records)
        result = verify_session(account, seed=123)
        assert result.accepted and result.match_fraction == 1.0
        assert all(result.per_pair_match)
        assert account.records == before
        assert account.status == "active"


def test_circular_use_is_invariant():
    account = enroll(2, [BellLabel.PSI_PLUS, BellLabel.PHI_MINUS])
    records = list(account.records)
    rng = np.random.default_rng(55)
    for _ in range(100):
        result = verify_session(account, seed=rng)
        assert result.accepted
        assert account.records == records
    for pair, record in zip(account.pairs, account.records):
        assert fidelity_up_to_global_phase(pair, bell_state(decode_bell(*record))) > 1 - 1e-10


def test_session_updates_records_after_accepted_attack():
    # threshold 0 accepts anything; the account then holds the measured state
    account = enroll(1, [BellLabel.PHI_PLUS])
    result = verify_session(account, attacker=AttackerModel.FRESH_ZERO, threshold=0.0, seed=2)
    assert result.accepted
    assert account.records == [result.updated_records[0]]
    assert fidelity_up_to_global_phase(
        account.pairs[0], bell_state(decode_bell(*account.records[0]))
    ) > 1 - 1e-10


def test_rejected_session_flags_account():
    account = enroll(4, [BellLabel.PHI_PLUS] * 4)
    rng = np.random.default_rng(0)
    result = None
    for _ in range(50):  # a fresh-qubit attacker fails fast at threshold 1
        result = verify_session(account.clone(), attacker=AttackerModel.FRESH_ZERO, seed=rng)
        if not result.accepted:
            break
    assert result is not None and not result.accepted
    flagged = account.clone()
    verify_session(flagged, attacker=AttackerModel.FRESH_ZERO, seed=1)
    if flagged.status == "flagged":
        with pytest.raises(ValueError):
            verify_session(flagged, seed=2)


def test_session_rejects_a_pair_that_is_not_its_records_bell_state():
    account = enroll(2, [BellLabel.PHI_PLUS, BellLabel.PSI_MINUS])
    account.pairs[1] = bell_state(BellLabel.PSI_PLUS)
    with pytest.raises(ValueError, match="psi-"):
        verify_session(account, seed=1)
    account.pairs[1] = random_state(2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        verify_session(account, seed=1)
    account.pairs[1] = StateVector(2, 2 * bell_state(BellLabel.PSI_MINUS).amplitudes)
    with pytest.raises(ValueError):
        verify_session(account, seed=1)
    account.pairs[1] = bell_state(BellLabel.PSI_MINUS)
    account.records[0] = (2, 0)
    with pytest.raises(ValueError):
        verify_session(account, seed=1)
    account.records[0] = (0, 0)
    account.pairs.pop()
    with pytest.raises(ValueError, match="one record per pair"):
        verify_session(account, seed=1)
    account.pairs, account.records = [], []
    with pytest.raises(ValueError, match="at least one"):
        verify_session(account, seed=1)


def test_session_accepts_an_equal_pair_built_elsewhere():
    # not the shared instance: the fidelity fallback recognizes it, global phase included
    account = enroll(1, [BellLabel.PSI_PLUS])
    account.pairs[0] = StateVector(2, 1j * bell_state(BellLabel.PSI_PLUS).amplitudes)
    assert verify_session(account, seed=4).accepted


def test_password_gate_rejects_without_measurement():
    account = enroll(2, [BellLabel.PHI_PLUS, BellLabel.PSI_PLUS])
    pairs_before = list(account.pairs)
    result = verify_session(account, password_ok=False, seed=9)
    assert not result.accepted and result.match_fraction == 0.0
    assert account.pairs == pairs_before and account.status == "active"


def test_threshold_semantics():
    account = enroll(2, [BellLabel.PHI_PLUS, BellLabel.PHI_PLUS])
    # find one half-matching fresh-qubit session; threshold 0.5 accepts it
    rng = np.random.default_rng(10)
    for _ in range(200):
        trial = account.clone()
        result = verify_session(trial, attacker=AttackerModel.FRESH_ZERO, threshold=0.5, seed=rng)
        if result.match_fraction == 0.5:
            assert result.accepted
            break
    else:
        pytest.fail("never saw a half-match session")


# -- attacker analysis --


def test_legitimate_round_distribution_is_deterministic():
    for label in BellLabel:
        dist = attacker_round_distribution(AttackerModel.LEGITIMATE, label)
        expected = np.zeros(4)
        parity, phase = bell_bits(label)
        expected[2 * parity + phase] = 1.0
        np.testing.assert_allclose(dist, expected, atol=1e-12)


@pytest.mark.parametrize(
    "model",
    [
        AttackerModel.FRESH_ZERO,
        AttackerModel.FRESH_HAAR,
        AttackerModel.ENTANGLED_DECOY,
        AttackerModel.RANDOM_BELL_GUESS,
    ],
)
def test_attacker_round_distribution_exactly_uniform(model):
    for label in BellLabel:
        dist = attacker_round_distribution(model, label)
        assert float(np.max(np.abs(dist - UNIFORM))) < 1e-10


def test_fresh_attacker_distribution_is_preparation_independent():
    # any inserted pure qubit sees the maximally mixed terminal marginal
    rng = np.random.default_rng(42)
    pair = bell_state(BellLabel.PSI_MINUS).amplitudes
    for _ in range(20):
        qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        qubit /= np.linalg.norm(qubit)
        probs, _ = _branch_probabilities(np.kron(qubit, pair), 3, 0, 2, "paper")
        np.testing.assert_allclose(probs, UNIFORM, atol=1e-12)


def test_round_engine_agrees_with_reference_network():
    # the oracle round vs run_bell_qnd on the plain 2-qubit layout
    rng = np.random.default_rng(77)
    for _ in range(50):
        state = random_state(2, rng)
        draws = rng.random(2)
        bits, prob, post = _run_round(state.amplitudes, 2, 0, 1, "paper", draws)
        reference = run_bell_qnd(state, "paper", draws)
        assert bits == (reference.parity_bit, reference.phase_bit)
        assert prob == pytest.approx(reference.probability, abs=1e-12)
        assert abs(np.vdot(post, reference.post_state.amplitudes)) ** 2 > 1 - 1e-12


def test_attacker_layouts_are_well_formed():
    rng = np.random.default_rng(3)
    pair = bell_state(BellLabel.PHI_PLUS).amplitudes
    for model, num_system in [
        (AttackerModel.LEGITIMATE, 2),
        (AttackerModel.FRESH_ZERO, 3),
        (AttackerModel.FRESH_HAAR, 3),
        (AttackerModel.ENTANGLED_DECOY, 4),
        (AttackerModel.RANDOM_BELL_GUESS, 4),
    ]:
        system, size, slot, machine = _system_for(model, pair, rng)
        assert size == num_system and system.size == 1 << size
        assert abs(np.linalg.norm(system) - 1.0) < 1e-12
        assert slot != machine


NOT_ATTACKERS = ["legitimate", "LEGITIMATE", None, 0, ["guess"]]


@pytest.mark.parametrize("attacker", NOT_ATTACKERS, ids=repr)
def test_session_rejects_a_non_attacker_model_before_any_draw(attacker):
    account = enroll(2, [BellLabel.PHI_PLUS, BellLabel.PSI_MINUS])
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="attacker must be an AttackerModel"):
        verify_session(account, attacker=attacker, seed=rng)
    assert rng.bit_generator.state == before
    assert account.status == "active" and account.records == [(0, 0), (1, 1)]


@pytest.mark.parametrize("attacker", NOT_ATTACKERS, ids=repr)
def test_round_distribution_rejects_a_non_attacker_model(attacker):
    with pytest.raises(ValueError, match="attacker must be an AttackerModel"):
        attacker_round_distribution(attacker, BellLabel.PHI_PLUS)


@pytest.mark.parametrize("attacker", NOT_ATTACKERS, ids=repr)
def test_sweep_rejects_a_non_attacker_model_before_any_trial(attacker, monkeypatch):
    sessions = []
    monkeypatch.setattr(auth, "verify_session", lambda *a, **k: sessions.append(a))
    with pytest.raises(ValueError, match="attacker must be an AttackerModel"):
        security_sweep([1], attacker, trials=5, seed=1)
    assert sessions == []


_AMPLITUDE = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def attacker_registers(draw):
    """The slot plus up to 3 more qubits: a generic entangled state or a product of qubits."""
    size = draw(st.integers(1, 4))
    if draw(st.booleans()):
        factors = [draw(st.lists(_AMPLITUDE, min_size=1 << size, max_size=1 << size))]
    else:
        factors = [draw(st.lists(_AMPLITUDE, min_size=2, max_size=2)) for _ in range(size)]
    register = np.ones(1, dtype=complex)
    for factor in factors:
        amps = np.array(factor, dtype=complex)
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        register = np.kron(register, amps / norm)
    return register


@settings(max_examples=200, deadline=None)
@given(register=attacker_registers(), stored=st.sampled_from(BELL_DECODE_ORDER))
def test_any_card_less_register_sees_a_uniform_round(register, stored):
    # monogamy: the terminal qubit's marginal is I/2 whatever sits in front of the pair
    system = auth._prepend(register, bell_state(stored).amplitudes)
    assert system[1] == register.size.bit_length() + 1
    for convention in ("paper", "standard"):
        probs, _ = _branch_probabilities(*system, convention)
        assert np.max(np.abs(probs - UNIFORM)) <= 1e-12, convention


def test_parse_attacker():
    assert parse_attacker("decoy") is AttackerModel.ENTANGLED_DECOY
    with pytest.raises(ValueError):
        parse_attacker("mallory")


# -- noise --


def test_noise_p_zero_is_identity():
    state = bell_state(BellLabel.PSI_PLUS)
    for model in ("none", "depolarizing", "dephasing"):
        out = apply_noise(state, NoiseSpec(model, 0.0), seed=4)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("thermal", 0.1)
    with pytest.raises(ValueError):
        NoiseSpec("dephasing", 1.5)


BELL_AMPLITUDES = tuple(bell_state(label).amplitudes for label in BELL_DECODE_ORDER)


def _bell_outcome_of(state_amps) -> BellLabel:
    overlaps = [abs(np.vdot(bell, state_amps)) ** 2 for bell in BELL_AMPLITUDES]
    return BELL_DECODE_ORDER[int(np.argmax(overlaps))]


@pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("model", ["dephasing", "depolarizing"])
def test_apply_noise_is_the_replayed_pauli_product(model, p):
    # the reference replays the draws on a same-seeded generator and applies kron(P0, P1):
    # two hit uniforms, then (depolarizing) two Pauli uniforms, Pauli = floor(4v)
    spec = NoiseSpec(model, p)
    bells = [bell_state(label) for label in BELL_DECODE_ORDER]
    engine, replay, masks = (np.random.default_rng(2027) for _ in range(3))
    block = 4 if model == "depolarizing" else 2
    for t in range(10_000):
        stored = t % 4
        noisy = apply_noise(bells[stored], spec, seed=engine)
        hits = [replay.random() < p for _qubit in (0, 1)]
        paulis = [int(4 * replay.random()) if model == "depolarizing" else 3 for _qubit in (0, 1)]
        drawn = [PAULIS[pauli] if hit else PAULIS[0] for hit, pauli in zip(hits, paulis)]
        assert np.array_equal(noisy.amplitudes, np.kron(*drawn) @ bells[stored].amplitudes), t
        label = stored ^ int(auth._label_masks(spec, masks.random(block)))
        assert abs(np.vdot(bells[label].amplitudes, noisy.amplitudes)) ** 2 > 1 - 1e-12, t
    assert engine.bit_generator.state == replay.bit_generator.state == masks.bit_generator.state


def test_dephasing_preserves_parity():
    # brute-force oracle: the I/Z pair cases map Phi+ only onto Phi+ or Phi-
    phi_plus = bell_state(BellLabel.PHI_PLUS)
    for p1 in (np.eye(2), PAULI_Z_MATRIX):
        for p2 in (np.eye(2), PAULI_Z_MATRIX):
            mapped = np.kron(p1, p2) @ phi_plus.amplitudes
            assert _bell_outcome_of(mapped) in (BellLabel.PHI_PLUS, BellLabel.PHI_MINUS)
    # trajectory sampling shows the same support and the exact mixture weights
    p = 0.3
    rng = np.random.default_rng(500)
    trials = 20_000
    counts = {label: 0 for label in BellLabel}
    for _ in range(trials):
        noisy = apply_noise(phi_plus, NoiseSpec("dephasing", p), seed=rng)
        counts[_bell_outcome_of(noisy.amplitudes)] += 1
    assert counts[BellLabel.PSI_PLUS] == 0 and counts[BellLabel.PSI_MINUS] == 0
    expected_phi_minus = 2 * p * (1 - p)  # exactly one qubit dephased
    se = np.sqrt(expected_phi_minus * (1 - expected_phi_minus) / trials)
    assert abs(counts[BellLabel.PHI_MINUS] / trials - expected_phi_minus) < 4 * se


def test_full_depolarizing_scrambles_uniformly():
    # exact channel oracle: both qubits hit by a uniform Pauli from {I,X,Y,Z}
    phi_plus = bell_state(BellLabel.PHI_PLUS)
    paulis = (np.eye(2), PAULI_X_MATRIX, PAULI_Y_MATRIX, PAULI_Z_MATRIX)
    exact = np.zeros(4)
    for p1 in paulis:
        for p2 in paulis:
            mapped = np.kron(p1, p2) @ phi_plus.amplitudes
            for i, label in enumerate(BELL_DECODE_ORDER):
                exact[i] += abs(np.vdot(bell_state(label).amplitudes, mapped)) ** 2 / 16
    np.testing.assert_allclose(exact, UNIFORM, atol=1e-12)
    # 10^5 trajectories of the sampled channel reproduce the oracle
    rng = np.random.default_rng(321)
    trials = 100_000
    counts = np.zeros(4)
    for _ in range(trials):
        noisy = apply_noise(phi_plus, NoiseSpec("depolarizing", 1.0), seed=rng)
        counts[BELL_DECODE_ORDER.index(_bell_outcome_of(noisy.amplitudes))] += 1
    se = np.sqrt(0.25 * 0.75 / trials)
    assert np.max(np.abs(counts / trials - UNIFORM)) < 4 * se


def test_reset_correctness_under_dephasing():
    # accepted sessions always leave states equal to the decoded records
    rng = np.random.default_rng(888)
    noise = NoiseSpec("dephasing", 0.4)
    accepted = 0
    for trial in range(60):
        account = enroll(2, "random", seed=trial)
        result = verify_session(account, noise=noise, threshold=0.0, seed=rng)
        assert result.accepted  # threshold 0 accepts every session
        accepted += 1
        for pair, record in zip(account.pairs, account.records):
            target = bell_state(decode_bell(*record))
            assert fidelity_up_to_global_phase(pair, target) > 1 - 1e-10
    assert accepted == 60


# -- sweeps --


def test_wilson_interval_shape():
    low, high = wilson_interval(25, 100, z=3.0)
    assert 0.0 <= low < 0.25 < high <= 1.0
    assert wilson_interval(0, 10)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_interval(10, 10)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_sweep_analytic_column_is_quarter_powers():
    rows = security_sweep([1, 2, 3], AttackerModel.FRESH_ZERO, trials=200, seed=1)
    analytic = [row.analytic_rate for row in rows]
    np.testing.assert_allclose(analytic, [0.25, 0.0625, 0.015625], atol=1e-12)
    assert all(a >= b for a, b in zip(analytic, analytic[1:]))


def test_sweep_legitimate_rate_is_one():
    rows = security_sweep([1, 3], AttackerModel.LEGITIMATE, trials=300, seed=2)
    for row in rows:
        assert row.accept_rate == 1.0
        assert row.analytic_rate == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "model", [AttackerModel.FRESH_HAAR, AttackerModel.ENTANGLED_DECOY, AttackerModel.RANDOM_BELL_GUESS]
)
def test_sweep_empirical_within_wilson_of_analytic(model):
    rows = security_sweep([1, 2], model, trials=4000, seed=11)
    for row in rows:
        assert row.wilson_low <= row.analytic_rate <= row.wilson_high


def test_sweep_is_seed_reproducible():
    a = security_sweep([2], AttackerModel.FRESH_ZERO, trials=500, seed=99)
    b = security_sweep([2], AttackerModel.FRESH_ZERO, trials=500, seed=99)
    assert a == b


def test_sweep_validation():
    with pytest.raises(ValueError):
        security_sweep([1], AttackerModel.FRESH_ZERO, trials=0, seed=1)
    with pytest.raises(ValueError, match="integer count"):
        security_sweep([1], AttackerModel.FRESH_ZERO, trials=True, seed=1)


@pytest.mark.parametrize(
    "threshold, convention",
    [(float("nan"), "paper"), (1.5, "paper"), (-0.25, "paper"), (0.5, "bogus")],
    ids=["nan", "above-1", "below-0", "unknown-convention"],
)
def test_sweep_rejects_bad_settings_before_any_draw(threshold, convention, monkeypatch):
    enrolled = []
    monkeypatch.setattr(auth, "enroll", lambda *a, **k: enrolled.append(a))
    with pytest.raises(ValueError, match="threshold|convention"):
        security_sweep(
            [1, 2], AttackerModel.FRESH_ZERO, 10, 1, threshold=threshold, convention=convention
        )
    assert enrolled == []


def test_wilson_interval_rejects_non_integer_counts():
    for successes, trials in [(True, 1), (1, True), (0.5, 2), (1, 2.0), ("1", 2)]:
        with pytest.raises(ValueError):
            wilson_interval(successes, trials)
    assert wilson_interval(np.int64(3), np.int64(10)) == wilson_interval(3, 10)


def test_account_clone_is_independent():
    account = enroll(2, [BellLabel.PHI_PLUS, BellLabel.PSI_PLUS])
    twin = account.clone()
    verify_session(twin, attacker=AttackerModel.FRESH_ZERO, threshold=0.0, seed=5)
    assert account.records == [(0, 0), (1, 0)]
    assert account.status == "active"


# -- the label engine against the state-vector oracle --


def _state_vector_session(account, attacker, noise, threshold, rng, convention):
    """The session as the dense engine runs it: noise, layout, network, branch sampling."""
    measured, matches = [], []
    for pair, record in zip(account.pairs, account.records):
        noisy = _apply_noise_rng(pair, noise, rng)
        system, num_system, slot, machine = _system_for(attacker, noisy.amplitudes, rng)
        bits, _, _ = _run_round(system, num_system, slot, machine, convention, rng.random(2))
        measured.append(bits)
        matches.append(bits == tuple(record))
    return tuple(measured), tuple(matches), sum(matches) / len(matches) >= threshold


def _oracle_sweep_accepts(n, attacker, trials, seed, noise, threshold, convention="paper"):
    """Accepted sessions of one sweep row, run by the dense engine on the sweep's stream.

    One generator per (seed, n): enrollment draws first, then trial after trial.
    """
    rng = np.random.default_rng((seed, n))
    base = enroll(n, "random", seed=rng)
    return sum(
        _state_vector_session(base, attacker, noise, threshold, rng, convention)[2]
        for _ in range(trials)
    )


ORACLE_NOISES = [
    NOISELESS,
    NoiseSpec("depolarizing", 0.1),
    NoiseSpec("depolarizing", 1.0),
    NoiseSpec("dephasing", 0.1),
    NoiseSpec("dephasing", 1.0),
]


@pytest.mark.parametrize("noise", ORACLE_NOISES, ids=lambda s: f"{s.model}-{s.p}")
@pytest.mark.parametrize("attacker", list(AttackerModel), ids=lambda m: m.token)
def test_label_engine_matches_state_vector_oracle_trial_by_trial(attacker, noise):
    seed, trials = 2024, 12
    for convention in ("paper", "standard"):
        for threshold in (1.0, 0.5, 0.0):
            for n in (1, 2, 3):
                base = enroll(n, "random", seed=np.random.default_rng((seed, n)))
                for t in range(trials):
                    account = base.clone()
                    expected = _state_vector_session(
                        base, attacker, noise, threshold, np.random.default_rng((seed, n, t)),
                        convention,
                    )
                    result = verify_session(
                        account, attacker, noise, threshold,
                        np.random.default_rng((seed, n, t)), convention,
                    )
                    got = (result.updated_records, result.per_pair_match, result.accepted)
                    assert got == expected, (convention, threshold, n, t)
                    for pair, bits in zip(account.pairs, result.updated_records):
                        assert states_close(pair, bell_state(decode_bell(*bits)))


@pytest.mark.parametrize("noise", ORACLE_NOISES, ids=lambda s: f"{s.model}-{s.p}")
@pytest.mark.parametrize("attacker", list(AttackerModel), ids=lambda m: m.token)
def test_sweep_rows_match_the_state_vector_oracle_on_the_same_stream(attacker, noise):
    seed, trials = 4242, 20
    for convention in ("paper", "standard"):
        for threshold in (1.0, 0.5, 0.0):
            rows = security_sweep([1, 2, 3], attacker, trials, seed, noise, threshold, convention)
            assert [row.n for row in rows] == [1, 2, 3]
            for row in rows:
                accepted = _oracle_sweep_accepts(
                    row.n, attacker, trials, seed, noise, threshold, convention
                )
                assert row.accept_rate == accepted / trials, (convention, threshold, row.n)


def test_sweep_rows_do_not_depend_on_the_other_account_sizes():
    # each size has its own stream, so a joint sweep is the single-size sweeps side by side
    for attacker, noise in [
        (AttackerModel.FRESH_HAAR, NOISELESS),
        (AttackerModel.LEGITIMATE, NoiseSpec("depolarizing", 0.3)),
        (AttackerModel.RANDOM_BELL_GUESS, NoiseSpec("dephasing", 0.1)),
    ]:
        joint = security_sweep([1, 2, 3], attacker, 60, seed=5, noise=noise, threshold=0.5)
        single = [
            row
            for n in (1, 2, 3)
            for row in security_sweep([n], attacker, 60, seed=5, noise=noise, threshold=0.5)
        ]
        assert joint == single


# -- array-drawn rows: a row is T sequential sessions on its stream --


def _sequential_sweep_accepts(n, attacker, trials, seed, noise, threshold):
    """Accepted sessions of one sweep row, one verify_session call per trial."""
    rng = np.random.default_rng((seed, n))
    base = enroll(n, "random", seed=rng)
    return sum(
        verify_session(base.clone(), attacker, noise, threshold, rng).accepted
        for _ in range(trials)
    )


@pytest.mark.parametrize("noise", ORACLE_NOISES, ids=lambda s: f"{s.model}-{s.p}")
@pytest.mark.parametrize("attacker", list(AttackerModel), ids=lambda m: m.token)
def test_sweep_rows_equal_sequential_sessions_on_the_same_stream(attacker, noise):
    seed, trials = 808, 64
    for threshold in (1.0, 0.5, 0.0):
        rows = security_sweep([1, 2, 3], attacker, trials, seed, noise, threshold)
        for row in rows:
            accepted = _sequential_sweep_accepts(row.n, attacker, trials, seed, noise, threshold)
            assert row.accept_rate == accepted / trials, (threshold, row.n)


@pytest.mark.parametrize("attacker", list(AttackerModel), ids=lambda m: m.token)
def test_sweep_rows_do_not_depend_on_the_chunk_size(attacker, monkeypatch):
    # at 7 uniforms a chunk holds at most three sessions, so a row spans many chunks
    cases = [(noise, threshold) for noise in ORACLE_NOISES[:4] for threshold in (1.0, 0.5)]
    whole = [security_sweep([1, 2, 3], attacker, 50, 31, noise, t) for noise, t in cases]
    monkeypatch.setattr(auth, "_CHUNK_DRAWS", 7)
    assert [security_sweep([1, 2, 3], attacker, 50, 31, noise, t) for noise, t in cases] == whole


def test_a_million_fresh_zero_trials_at_n6_meet_the_exact_rate():
    # (1/4)^6 ~ 2.4e-4: about 244 accepted sessions, visible only at this trial count
    (row,) = security_sweep([6], AttackerModel.FRESH_ZERO, 1_000_000, seed=13)
    assert row.analytic_rate == 0.25**6
    low, high = wilson_interval(round(row.accept_rate * row.trials), row.trials, z=4.0)
    assert low <= 0.25**6 <= high


@pytest.mark.parametrize(
    "attacker", [AttackerModel.FRESH_HAAR, AttackerModel.LEGITIMATE], ids=lambda m: m.token
)
def test_a_million_trial_row_at_n8_runs_in_bounded_memory(attacker):
    # K = 8 uniforms per round; drawn all at once, the row would take 512 MB
    import tracemalloc

    noise = NoiseSpec("depolarizing", 0.1)
    tracemalloc.start()
    try:
        (row,) = security_sweep([8], attacker, 1_000_000, seed=17, noise=noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert row.wilson_low <= row.analytic_rate <= row.wilson_high


def test_pauli_noise_xors_the_bell_label():
    # brute force: each Pauli maps every Bell state onto one Bell state, by a fixed mask
    masks = (0, 2, 3, 1)  # I, X, Y, Z
    for qubit in (0, 1):
        for pauli, mask in zip(PAULIS, masks):
            op = np.kron(pauli, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), pauli)
            for index, label in enumerate(BELL_DECODE_ORDER):
                mapped = op @ bell_state(label).amplitudes
                assert _bell_outcome_of(mapped) is BELL_DECODE_ORDER[index ^ mask]
                target = bell_state(BELL_DECODE_ORDER[index ^ mask]).amplitudes
                assert abs(np.vdot(target, mapped)) ** 2 == pytest.approx(1.0, abs=1e-12)


# -- the exact analytic column --


def _channel_match_probability(noise, label):
    """Legitimate round match probability by an explicit Pauli-channel sum on the pair."""
    if noise.model == "none":
        weights = [1.0, 0.0, 0.0, 0.0]
    elif noise.model == "dephasing":
        weights = [1 - noise.p, 0.0, 0.0, noise.p]
    else:
        weights = [1 - 3 * noise.p / 4] + [noise.p / 4] * 3
    pair = bell_state(label).amplitudes
    total = 0.0
    for w0, p0 in zip(weights, PAULIS):
        for w1, p1 in zip(weights, PAULIS):
            total += w0 * w1 * abs(np.vdot(pair, np.kron(p0, p1) @ pair)) ** 2
    return total


@pytest.mark.parametrize("p", [0.0, 0.1, 0.37, 0.5, 1.0])
@pytest.mark.parametrize("model", ["none", "depolarizing", "dephasing"])
def test_round_match_probability_matches_the_pauli_channel(model, p):
    noise = NoiseSpec(model, 0.0 if model == "none" else p)
    for label in BellLabel:
        exact = _channel_match_probability(noise, label)
        assert _round_match_probability(AttackerModel.LEGITIMATE, noise) == pytest.approx(
            exact, abs=1e-12
        )
    for attacker in AttackerModel:
        if attacker is not AttackerModel.LEGITIMATE:
            assert _round_match_probability(attacker, noise) == 0.25


@pytest.mark.parametrize("attacker", list(AttackerModel), ids=lambda m: m.token)
def test_noise_free_match_probability_matches_attacker_round_distribution(attacker):
    for noise in (NOISELESS, NoiseSpec("depolarizing", 0.0), NoiseSpec("dephasing", 0.0)):
        q = _round_match_probability(attacker, noise)
        for index, label in enumerate(BELL_DECODE_ORDER):
            for convention in ("paper", "standard"):
                dist = attacker_round_distribution(attacker, label, convention)
                assert q == pytest.approx(float(dist[index]), abs=1e-12)


def test_acceptance_probability_is_the_binomial_tail():
    from math import comb

    for q in (0.0, 0.25, 0.82, 1.0):
        for n in (1, 2, 3, 5):
            for threshold in (0.0, 0.2, 0.5, 0.6, 1.0):
                exact = sum(
                    comb(n, k) * q**k * (1 - q) ** (n - k)
                    for k in range(n + 1)
                    if k / n >= threshold
                )
                assert _acceptance_probability([q] * n, threshold) == pytest.approx(exact, abs=1e-12)
    # mixed per-round probabilities: enumerate every match pattern
    qs = [0.9, 0.25, 0.6]
    exact = 0.0
    for pattern in range(8):
        hits = [(pattern >> i) & 1 for i in range(3)]
        weight = np.prod([q if h else 1 - q for q, h in zip(qs, hits)])
        exact += weight if sum(hits) >= 2 else 0.0
    assert _acceptance_probability(qs, 0.5) == pytest.approx(exact, abs=1e-12)


def test_analytic_rate_is_exactly_one_when_every_session_accepts():
    for noise in (NOISELESS, NoiseSpec("dephasing", 1.0)):
        for row in security_sweep([1, 2, 3], AttackerModel.LEGITIMATE, 5, seed=3, noise=noise):
            assert row.analytic_rate == 1.0 and row.accept_rate == 1.0
    for attacker in AttackerModel:
        rows = security_sweep([1, 3], attacker, 5, seed=3, threshold=0.0)
        assert [row.analytic_rate for row in rows] == [1.0, 1.0]


def test_noisy_analytic_rate_holds_at_high_trial_counts():
    # the dephasing case whose analytic column used to read 1 beside an 0.82 accept rate
    rows = security_sweep(
        [1, 2], AttackerModel.LEGITIMATE, 20000, seed=0, noise=NoiseSpec("dephasing", 0.1)
    )
    assert [row.analytic_rate for row in rows] == pytest.approx([0.82, 0.82**2], abs=1e-12)
    for row in rows:
        assert row.wilson_low <= row.analytic_rate <= row.wilson_high


def test_sweep_checks_the_label_model_against_the_oracle(monkeypatch):
    skewed = np.array([0.4, 0.2, 0.2, 0.2])
    monkeypatch.setattr(auth, "attacker_round_distribution", lambda *a, **k: skewed)
    with pytest.raises(RuntimeError, match="state-vector"):
        security_sweep([1], AttackerModel.FRESH_ZERO, 2, seed=1)


# -- golden sweeps: accept rates recorded from the state-vector oracle session --


@pytest.fixture(scope="module")
def golden_runs():
    """(recorded rows, rows printed now) for every golden CLI invocation."""
    runs = []
    for run in json.loads(GOLDEN.read_text())["runs"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(run["argv"])) == 0
        runs.append((run["rows"], json.loads(out.getvalue())))
    return runs


def test_golden_sweeps_match_the_state_vector_engine(golden_runs):
    # every column, byte for byte: the exact analytic column is pinned too
    assert len(golden_runs) == 30
    for recorded, printed in golden_runs:
        assert printed == recorded


def test_golden_grid_accept_rates_lie_within_wilson_of_the_analytic_rate(golden_runs):
    # attacker x noise x threshold x n; z = 4 keeps 90 seeded checks clear of chance misses
    checked = 0
    for _, printed in golden_runs:
        for row in printed:
            successes = round(row["accept_rate"] * row["trials"])
            low, high = wilson_interval(successes, row["trials"], z=4.0)
            assert low <= row["analytic_rate"] <= high, row
            checked += 1
    assert checked == 90
