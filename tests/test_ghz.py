"""GHZ network tests: parity identities, non-demolition, oracle equivalence."""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qndnet.bell import BellLabel, bell_network_unitary_steps, bell_state
from qndnet.ghz import (
    GhzLabel,
    GhzQndOutcome,
    _branches,
    _dense_network,
    _parity_network,
    _table_rows,
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
    _walk,
    apply_gates,
    cnot,
    fidelity_up_to_global_phase,
    hadamard,
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


@pytest.mark.parametrize(
    "sign, bits", [("+", ["1", "0"]), ("+", ("1", "0")), ("+", 101), ("+", b"10"), (["+"], "10"), (1, "10")]
)
def test_labels_take_only_strings(sign, bits):
    with pytest.raises(ValueError, match="must be strings"):
        GhzLabel(sign, bits)


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


def definition_gate_list(n: int, convention: str) -> list:
    """The network from its definition: parity CNOT pairs onto ancilla n + i, the layer, the chain onto
    2n - 1, the layer."""
    layer = [hadamard(q, convention) for q in range(n)]
    parity = [cnot(q, n + i) for i in range(n - 1) for q in (i, i + 1)]
    return parity + layer + [cnot(q, 2 * n - 1) for q in range(n)] + layer


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_gate_list_follows_the_definition(n, convention):
    assert ghz_network_gate_list(n, convention) == definition_gate_list(n, convention)


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


def standard_branches(state: StateVector) -> tuple:
    """(weights, leaves) of the textbook Hadamard's dense schedule on ``state``, which no shot or table
    runs.  Its last bit is the phase bit as it is: the textbook layers leave the weight parity alone, so
    no n mod 2 is undone."""
    return _standard_expansion(state.amplitudes.tobytes(), state.num_qubits)


@lru_cache(maxsize=1)
def _standard_expansion(amplitudes: bytes, n: int) -> tuple:
    """standard_branches by the input's bytes: the last one is kept, as a shot keeps its state's table,
    so shots of equal inputs in a row expand it once (its leaves are sealed)."""
    return _branches(np.frombuffer(amplitudes, np.complex128), _dense_network(tuple(range(n)), "standard"))


def leaf_bits(leaf: int, n: int) -> tuple:
    return tuple(int(c) for c in format(leaf, f"0{n}b"))


def standard_branch_table(state: StateVector) -> list:
    """ghz_branch_table's rows from the textbook schedule."""
    n, rows = state.num_qubits, []
    for leaf, (p, post) in enumerate(_table_rows(*standard_branches(state))):
        bits = leaf_bits(leaf, n)
        rows.append((bits, decode_ghz(bits[:-1], bits[-1], n), p, None if post is None else StateVector(n, post)))
    return rows


def standard_shot(state: StateVector, draws) -> GhzQndOutcome:
    """run_ghz_qnd's outcome from the textbook schedule, its weights walked as a shot walks the engine's."""
    n = state.num_qubits
    weights, leaves = standard_branches(state)
    probability, leaf = _walk(weights, [float(d) for d in draws])
    bits = leaf_bits(leaf, n)
    label = decode_ghz(bits[:-1], bits[-1], n)
    return GhzQndOutcome(bits[:-1], bits[-1], label, probability, StateVector(n, leaves[leaf]))


#: Each convention's shot and branch table.  Shots and tables run the paper's schedule; the textbook
#: one, which gate lists still build, is held to the same checks through the helpers above.
SHOTS = {"paper": run_ghz_qnd, "standard": standard_shot}
TABLES = {"paper": ghz_branch_table, "standard": standard_branch_table}


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_run_examples(convention):
    run_ghz_qnd = SHOTS[convention]
    rng = np.random.default_rng(9)
    out = run_ghz_qnd(ghz_state(GhzLabel("-", "101")), rng.random(3))
    assert out.part_parity_bits == (1, 1)
    assert out.global_parity_bit == 1
    assert out.label == GhzLabel("-", "101")
    assert out.probability == pytest.approx(1.0, abs=1e-12)

    out = run_ghz_qnd(ghz_state(GhzLabel("+", "111")), rng.random(3))
    assert out.part_parity_bits == (0, 0) and out.global_parity_bit == 0

    out = run_ghz_qnd(bell_state(BellLabel.PHI_MINUS), rng.random(2))
    assert out.part_parity_bits == (0,) and out.global_parity_bit == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_nondemolition_all_labels(n):
    rng = np.random.default_rng(100 + n)
    for label in all_canonical_labels(n):
        state = ghz_state(label)
        first = None
        for _ in range(5):
            out = run_ghz_qnd(state, rng.random(n))
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
    ghz_branch_table = TABLES[convention]
    rng = np.random.default_rng(1000 * n)
    for _ in range(50 if n <= 4 else 3):
        state = StateVector(n, random_state(n, rng).amplitudes * norm)
        oracle = dict(ghz_projection_oracle(state))
        for bits, label, probability, post in ghz_branch_table(state):
            assert abs(probability - oracle[label]) < 1e-12
            if post is not None:
                assert abs(post.norm() - 1.0) <= (1e-14 if norm == 1.0 else 1e-12)
            if probability > 1e-9:
                assert fidelity_up_to_global_phase(post, ghz_state(label)) > 1 - 1e-10


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_repeat_on_post_state_gives_the_same_label(convention, n, norm):
    run_ghz_qnd = SHOTS[convention]
    rng = np.random.default_rng(700 + n)
    for _ in range(10):
        out = run_ghz_qnd(StateVector(n, random_state(n, rng).amplitudes * norm), rng.random(n))
        for _ in range(3):
            assert abs(out.post_state.norm() - 1.0) <= 1e-12
            again = run_ghz_qnd(out.post_state, rng.random(n))
            assert again.label == out.label
            assert again.probability == pytest.approx(1.0, abs=1e-12)
            out = again


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_sampled_probability_equals_its_table_row(convention):
    # the walker (run_ghz_qnd) against the expander (ghz_branch_table) on one schedule
    run_ghz_qnd, ghz_branch_table = SHOTS[convention], TABLES[convention]
    rng = np.random.default_rng(2718)
    for n in range(2, 9):
        for _ in range(3):
            state = random_state(n, rng)
            rows = {label: probability for _, label, probability, _ in ghz_branch_table(state)}
            for _ in range(5):
                out = run_ghz_qnd(state, rng.random(n))
                assert abs(out.probability - rows[out.label]) < 1e-12, n


@pytest.mark.parametrize("staged", [None, False, True])
def test_staged_keyword_is_ignored(staged):
    # every schedule is staged: each value, by keyword or by position, gives the default's outcome;
    # under each value a draw out of range raises and an extreme draw reads a basis state's label
    rng = np.random.default_rng(322)
    for n in range(2, 9):
        state = random_state(n, rng)
        for draws in rng.random((3, n)):
            default = run_ghz_qnd(StateVector(n, state.amplitudes), draws)
            assert run_ghz_qnd(state, draws, staged=staged) == default
            assert run_ghz_qnd(StateVector(n, state.amplitudes), draws, staged) == default
    label, top = GhzLabel("-", "1011"), float(np.nextafter(1.0, 0.0))
    with pytest.raises(ValueError, match=r"random draw must lie in \[0, 1\)"):
        run_ghz_qnd(ghz_state(GhzLabel("+", "101")), [0.5, 1.0, 0.5], staged=staged)
    assert run_ghz_qnd(ghz_state(label), (top,) * 4, staged=staged).label == label


@pytest.mark.parametrize("n", [7, 8])
def test_large_registers_run_staged(n):
    rng = np.random.default_rng(n)
    labels = all_canonical_labels(n)
    for label in (labels[0], labels[3], labels[-1]):
        out = run_ghz_qnd(ghz_state(label), rng.random(n))
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
        out = run_ghz_qnd(state, rng.random(n))
        counts[out.label.token] = counts.get(out.label.token, 0) + 1
    for token, p in expected.items():
        se = np.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(counts.get(token, 0) / trials - p) < 4 * se + 1e-9


def test_run_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_ghz_qnd(make_basis_state(1, "0"), (0.1,))
    with pytest.raises(ValueError):
        run_ghz_qnd(ghz_state(GhzLabel("+", "111")), (0.1, 0.2))
    with pytest.raises(ValueError):
        run_ghz_qnd(StateVector(2, np.array([1.0, 1.0, 0, 0])), (0.1, 0.2))
    with pytest.raises(ValueError):
        ghz_network_gate_list(9)
    for n in (1, 9):
        with pytest.raises(ValueError):
            ghz_branch_table(random_state(n, np.random.default_rng(0)))


@pytest.mark.parametrize("bad", [1.0, -0.1, float("nan")])
@pytest.mark.parametrize("position", [0, 2])
def test_run_rejects_draws_outside_unit_interval(bad, position):
    draws = [0.5, 0.5, 0.5]
    draws[position] = bad
    with pytest.raises(ValueError, match=r"random draw must lie in \[0, 1\)"):
        run_ghz_qnd(ghz_state(GhzLabel("+", "101")), draws)


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_extreme_draws_never_select_a_zero_probability_branch(convention):
    # rounding residue in a dead branch grows with n; it must never be sampled
    run_ghz_qnd = SHOTS[convention]
    top = float(np.nextafter(1.0, 0.0))
    for n in range(2, 9):
        for label in all_canonical_labels(n):
            for draw in (0.0, top):
                out = run_ghz_qnd(ghz_state(label), (draw,) * n)
                assert out.label == label, (n, draw)
                assert out.probability == pytest.approx(1.0, abs=1e-12)


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
def test_shots_equal_the_flat_gate_list_walk(convention):
    # the staged engine (or the textbook staged schedule) against the public all-live gate list run as
    # one step, to rounding: this ties ghz_network_gate_list to the schedule every shot runs
    run_ghz_qnd = SHOTS[convention]
    rng = np.random.default_rng(321)
    for n in range(2, MAX_QUBITS // 2 + 1):  # all 2n qubits live at once
        flat = ((ghz_network_gate_list(n, convention), n),)
        for _ in range(10):
            state = random_state(n, rng)
            draws = rng.random(n)
            out = run_ghz_qnd(state, draws)
            bits, probability, amps = reference_walk(state.amplitudes, flat, draws)
            phase = bits[-1] ^ (n & 1) if convention == "paper" else bits[-1]
            assert out.part_parity_bits + (out.global_parity_bit,) == tuple(bits[:-1]) + (phase,)
            assert abs(out.probability - probability) < 1e-12
            assert fidelity_up_to_global_phase(out.post_state, StateVector(n, amps)) > 1 - 1e-10


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_tree_shots_equal_reference_walker(n, convention):
    run_ghz_qnd, ghz_branch_table = SHOTS[convention], TABLES[convention]
    rng = np.random.default_rng(4000 + n)
    states = [random_state(n, rng) for _ in range(3)]
    tables = [
        {bits: (probability, post) for bits, _, probability, post in ghz_branch_table(s)}
        for s in states
    ]
    steps = _parity_network(tuple(range(n)), convention)
    # repeated shots of one state, then shots interleaved across three (each evicts the slot)
    for k in [0] * 12 + [0, 1, 2] * 8:
        draws = rng.random(n)
        out = run_ghz_qnd(states[k], draws)
        bits, probability, amps = reference_walk(states[k].amplitudes, steps, draws)
        phase = bits[-1] ^ (n & 1) if convention == "paper" else bits[-1]
        assert out.part_parity_bits + (out.global_parity_bit,) == tuple(bits[:-1]) + (phase,)
        assert out.probability == probability
        assert np.array_equal(out.post_state.amplitudes, amps)
        row_probability, row_post = tables[k][tuple(bits[:-1]) + (phase,)]
        assert out.probability == row_probability
        assert np.array_equal(out.post_state.amplitudes, row_post.amplitudes)


@pytest.mark.parametrize("n", range(2, 9))
def test_shot_first_and_table_first_equal_reference_walker(n):
    # shot -> table -> shots and table -> shots on one state: the table the first call expands
    # and the walks on it; GHZ basis states carry their dead branches through both orders
    # under both extreme draws
    rng = np.random.default_rng(5000 + n)
    steps = _parity_network(tuple(range(n)), "paper")
    labels = all_canonical_labels(n)
    top = float(np.nextafter(1.0, 0.0))
    cases = [(random_state(n, rng).amplitudes, None, None) for _ in range(2)]
    for label in (labels[k] for k in rng.choice(len(labels), 2)):
        cases += [(ghz_state(label).amplitudes, draw, label) for draw in (0.0, top)]
    for amps, draw, label in cases:
        for table_first in (False, True):
            state = StateVector(n, amps)  # a new object: the memo slot starts over
            shots = [rng.random(n) if draw is None else np.full(n, draw) for _ in range(3)]
            outs = [] if table_first else [run_ghz_qnd(state, shots[0])]
            table = {bits: (prob, post) for bits, _, prob, post in ghz_branch_table(state)}
            outs += [run_ghz_qnd(state, d) for d in shots[len(outs):]]
            for out, d in zip(outs, shots, strict=True):
                bits, probability, post = reference_walk(amps, steps, d)
                phase = bits[-1] ^ (n & 1)
                key = tuple(bits[:-1]) + (phase,)
                assert out.part_parity_bits + (out.global_parity_bit,) == key
                assert out.probability == probability == table[key][0]
                assert np.array_equal(out.post_state.amplitudes, post)
                assert np.array_equal(table[key][1].amplitudes, post)
                assert label is None or out.label == label


@pytest.mark.parametrize("n", range(2, 9))
def test_repeat_visits_return_the_first_visits_outcome(n):
    # the same draws twice over: the table finishes a leaf on its first visit, and every
    # repeat visit returns that outcome, which equals the reference walker's shot
    rng = np.random.default_rng(6000 + n)
    steps = _parity_network(tuple(range(n)), "paper")
    state = random_state(n, rng)
    shots = rng.random((12, n))
    finished = {}
    for k, draws in enumerate(np.concatenate([shots, shots])):
        out = run_ghz_qnd(state, draws)
        bits, probability, post = reference_walk(state.amplitudes, steps, draws)
        phase = bits[-1] ^ (n & 1)
        assert out.part_parity_bits + (out.global_parity_bit,) == tuple(bits[:-1]) + (phase,)
        assert out.label == decode_ghz(bits[:-1], phase, n)
        assert out.probability == probability
        assert out.post_state.amplitudes.tobytes() == post.tobytes()
        assert finished.setdefault(tuple(bits), out) is out  # shot 0 expands the table and keeps its leaf
    assert len(finished) < 2 * len(shots) - 1


def test_finished_n8_leaves_stay_under_3_2_mib():
    # draws of 0.0 or just below 1 pick each bit outright, so 256 shots reach every leaf of
    # a random n = 8 state: the slot then holds its table and one outcome per leaf
    rng = np.random.default_rng(90)
    top = float(np.nextafter(1.0, 0.0))
    shots = [np.array(d) for d in product((0.0, top), repeat=8)]
    run_ghz_qnd(random_state(8, rng), shots[0])  # fills the schedule and kernel caches
    state = random_state(8, rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        labels = {run_ghz_qnd(state, d).label for d in shots + shots[:1]}
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(labels) >= 240
    assert held <= 3.2 * 2**20


def test_branch_tree_memo_holds_one_tree():
    # eight n = 8 states measured in turn, then a full table: only the last table stays
    rng = np.random.default_rng(88)
    states = [random_state(8, rng) for _ in range(8)]
    shots = rng.random((8, 80, 8))
    run_ghz_qnd(random_state(8, rng), shots[0, 0])  # fills the schedule and kernel caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for state, draws in zip(states, shots):
            for d in draws:
                run_ghz_qnd(state, d)
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
    run_ghz_qnd(random_state(2, rng), (0.5, 0.5))  # the slot lets go of that table
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
            out.append(run_ghz_qnd(state, d))
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


@pytest.mark.parametrize("n", range(3, 9))
def test_a_table_row_agrees_with_the_shot_that_reaches_it(n):
    # -:10..0 lives on every level (1e-8 on its first parity, then 1e-8 of that on the phase) but jointly
    # weighs 1e-16: a shot reaches it, so its row carries the shot's post state, not None
    small, tiny = GhzLabel("+", "1" + "0" * (n - 1)), GhzLabel("-", "1" + "0" * (n - 1))
    weights = {GhzLabel("+", "1" * n): 1 - 1e-8 - 1e-16, small: 1e-8, tiny: 1e-16}
    state = StateVector(n, sum(np.sqrt(w) * ghz_state(label).amplitudes for label, w in weights.items()))
    rows = ghz_branch_table(state)
    (prob,) = [row[2] for row in rows if row[1] == tiny]
    assert 0.0 < prob < 1e-15
    for leaf, (bits, label, prob, post) in enumerate(rows):
        assert (post is None) == (prob == 0.0)
        if post is not None:
            draws = [float(np.nextafter(1.0, 0.0)) if leaf >> (n - 1 - k) & 1 else 0.0 for k in range(n)]
            shot = run_ghz_qnd(StateVector(n, state.amplitudes), draws)
            assert (shot.part_parity_bits + (shot.global_parity_bit,), shot.label) == (bits, label)
            assert shot.probability.hex() == prob.hex()
            assert shot.post_state.amplitudes.tobytes() == post.amplitudes.tobytes()
