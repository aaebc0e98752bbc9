"""GHZ network tests: parity identities, non-demolition, oracle equivalence."""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qndnet.bell import BellLabel, bell_network_unitary_steps, bell_state
from qndnet.ghz import (
    FULL_REGISTER_LIMIT,
    GhzLabel,
    _parity_network,
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
    MAX_QUBITS,
    GateKind,
    StateVector,
    _apply_network_raw,
    _measure_drop_raw,
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


#: Input norms: exact, and off by 9e-9, which NORM_ATOL (1e-8) still accepts.
NORMS = [1.0, 1.0 - 9e-9, 1.0 + 9e-9]


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_branch_table_matches_oracle(convention, n, norm):
    rng = np.random.default_rng(1000 * n)
    for _ in range(50 if n <= 4 else 3):
        state = StateVector(n, random_state(n, rng).amplitudes * norm)
        oracle = dict(ghz_projection_oracle(state))
        for bits, label, probability, post in ghz_branch_table(state, convention):
            assert abs(probability - oracle[label]) < 1e-12
            if post is not None:
                assert abs(post.norm() - 1.0) <= (1e-14 if norm == 1.0 else 1e-12)
            if probability > 1e-9:
                assert fidelity_up_to_global_phase(post, ghz_state(label)) > 1 - 1e-10


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_repeat_on_post_state_gives_the_same_label(convention, n, norm):
    rng = np.random.default_rng(700 + n)
    for _ in range(10):
        out = run_ghz_qnd(StateVector(n, random_state(n, rng).amplitudes * norm), convention, rng.random(n))
        for _ in range(3):
            assert abs(out.post_state.norm() - 1.0) <= 1e-12
            again = run_ghz_qnd(out.post_state, convention, rng.random(n))
            assert again.label == out.label
            assert again.probability == pytest.approx(1.0, abs=1e-12)
            out = again


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


def test_unstaged_schedule_rejects_registers_beyond_the_cap():
    # all 2n qubits live: n = 8 needs 16 > MAX_QUBITS, named before any other check or run
    for state in (random_state(8, np.random.default_rng(0)), StateVector(8, np.ones(256))):
        with pytest.raises(ValueError, match=r"staged=False .* n <= 7"):
            run_ghz_qnd(state, "paper", (0.5,) * 8, staged=False)


# -- the level builder against the per-shot schedule walker --


def reference_walk(amps, steps, draws):
    """Run each step, then measure and drop its ancillas one by one."""
    bits, probability, draws = [], 1.0, iter(draws)
    for gates, ancillas in steps:
        register = amps.size.bit_length() - 1
        amps = _apply_network_raw(amps, gates, ancillas)
        for _ in range(ancillas):
            bit, prob, amps = _measure_drop_raw(amps, register, next(draws))
            bits.append(bit)
            probability *= prob
    return bits, probability, amps


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_tree_shots_equal_reference_walker(n, convention):
    rng = np.random.default_rng(4000 + n)
    states = [random_state(n, rng) for _ in range(3)]
    tables = [
        {bits: (probability, post) for bits, _, probability, post in ghz_branch_table(s, convention)}
        for s in states
    ]
    for staged in (False, True) if 2 * n <= MAX_QUBITS else (True,):
        steps = _parity_network(tuple(range(n)), n, convention, staged)
        # repeated shots of one state, then shots interleaved across three (each evicts the slot)
        for k in [0] * 12 + [0, 1, 2] * 8:
            draws = rng.random(n)
            out = run_ghz_qnd(states[k], convention, draws, staged=staged)
            bits, probability, amps = reference_walk(states[k].amplitudes, steps, draws)
            phase = bits[-1] ^ (n & 1) if convention == "paper" else bits[-1]
            assert out.part_parity_bits + (out.global_parity_bit,) == tuple(bits[:-1]) + (phase,)
            assert out.probability == probability
            assert np.array_equal(out.post_state.amplitudes, amps)
            if staged == (n > FULL_REGISTER_LIMIT):
                row_probability, row_post = tables[k][tuple(bits[:-1]) + (phase,)]
                assert out.probability == row_probability
                assert np.array_equal(out.post_state.amplitudes, row_post.amplitudes)


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_path_to_table_switch_equals_reference_walker(n, convention):
    # shot -> table -> shots and table -> shots on one state: the first shot's path, the
    # expansion on the repeat and the walks on the table; GHZ basis states carry their
    # dead branches across the switch under both extreme draws
    rng = np.random.default_rng(5000 + n)
    steps = _parity_network(tuple(range(n)), n, convention, None)
    labels = all_canonical_labels(n)
    top = float(np.nextafter(1.0, 0.0))
    cases = [(random_state(n, rng).amplitudes, None, None) for _ in range(2)]
    for label in (labels[k] for k in rng.choice(len(labels), 2)):
        cases += [(ghz_state(label).amplitudes, draw, label) for draw in (0.0, top)]
    for amps, draw, label in cases:
        for table_first in (False, True):
            state = StateVector(n, amps)  # a new object: the memo slot starts over
            shots = [rng.random(n) if draw is None else np.full(n, draw) for _ in range(3)]
            outs = [] if table_first else [run_ghz_qnd(state, convention, shots[0])]
            table = {bits: (prob, post) for bits, _, prob, post in ghz_branch_table(state, convention)}
            outs += [run_ghz_qnd(state, convention, d) for d in shots[len(outs):]]
            for out, d in zip(outs, shots, strict=True):
                bits, probability, post = reference_walk(amps, steps, d)
                phase = bits[-1] ^ (n & 1) if convention == "paper" else bits[-1]
                key = tuple(bits[:-1]) + (phase,)
                assert out.part_parity_bits + (out.global_parity_bit,) == key
                assert out.probability == probability == table[key][0]
                assert np.array_equal(out.post_state.amplitudes, post)
                assert np.array_equal(table[key][1].amplitudes, post)
                assert label is None or out.label == label


def test_branch_tree_memo_holds_one_tree():
    # eight n = 8 states measured in turn, then a full table: only the last table stays
    rng = np.random.default_rng(88)
    states = [random_state(8, rng) for _ in range(8)]
    shots = rng.random((8, 80, 8))
    run_ghz_qnd(random_state(8, rng), "paper", shots[0, 0])  # fills the schedule and kernel caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for state, draws in zip(states, shots):
            for d in draws:
                run_ghz_qnd(state, "paper", d)
        ghz_branch_table(states[0])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 3.2 * 2**20


def test_cold_n8_table_peaks_under_3_mib():
    # one pass per depth frees each depth's rows before the next: the whole expansion,
    # the memoized table and the returned rows stay under 3 MiB at once
    rng = np.random.default_rng(89)
    ghz_branch_table(random_state(8, rng))  # fills the schedule and kernel caches
    run_ghz_qnd(random_state(2, rng), "paper", (0.5, 0.5))  # the slot lets go of that table
    state = random_state(8, rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ghz_branch_table(state)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_threads_sharing_the_tree_slot_match_single_threaded():
    # two workers on their own states, in lockstep shot by shot, evict each other's memo slot
    rng = np.random.default_rng(99)
    jobs = [(random_state(6, rng), rng.random((300, 6))) for _ in range(2)]
    lockstep = None

    def measure(state, draws):
        out = []
        for d in draws:
            if lockstep is not None:
                lockstep.wait(timeout=60)
            out.append(run_ghz_qnd(state, "paper", d))
        return out

    reference = [measure(*job) for job in jobs]
    lockstep = threading.Barrier(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(2e-4)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(measure, *job) for job in jobs]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, reference):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.label, a.probability) == (b.label, b.probability)
            assert np.array_equal(a.post_state.amplitudes, b.post_state.amplitudes)
