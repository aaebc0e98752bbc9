"""The GHZ register's closed-form Hadamard layers against the paper's dense steps, byte for byte."""

import contextlib

import numpy as np
import pytest

import qndnet.ghz as ghz
import qndnet.statevector as statevector
from qndnet.auth import AttackerModel, NoiseSpec, _run_round, _system_for, attacker_round_distribution, security_sweep
from qndnet.bell import BellLabel, bell_branch_table, bell_state, run_bell_qnd
from qndnet.ghz import (
    _dense_network,
    _ghz_labels,
    _ghz_network,
    all_canonical_labels,
    ghz_branch_table,
    ghz_state,
    run_ghz_qnd,
)
from qndnet.statevector import StateVector, _split_rows, random_state

SUBNORMAL = (5e-324, 3e-310, 1e-308)


def sign_matrix(n: int) -> np.ndarray:
    """S[y, z], the sign of the n-qubit paper layer's entry from ket z to ket y, from the bits of y and z:
    (-1)^|~y & ~z|, since the paper Hadamard is [[-1, 1], [1, 1]]."""
    y, z = np.arange(1 << n)[:, None], np.arange(1 << n)[None, :]
    ones = sum(((~y & ~z & ((1 << n) - 1)) >> k) & 1 for k in range(n))
    return 1 - 2 * (ones & 1)


def canonical_x(n: int) -> np.ndarray:
    """The canonical bitstring of each parity prefix, from the label table's bits."""
    return np.array([int(label.bits, 2) for _, _, label in _ghz_labels(n)[::2]])


def interleaved_kets(n: int) -> np.ndarray:
    """The kets in the first layer's output order: the j-th ket of weight parity g (ket order) at 2j + g."""
    kets = np.arange(1 << n)
    parity = sum((kets >> k) & 1 for k in range(n)) & 1
    return np.stack((kets[parity == 0], kets[parity == 1]), axis=1).reshape(-1)


def layer_steps(n: int) -> tuple:
    """(closed first, closed second, dense first, dense second) layer steps of the GHZ register, each
    called as step(rows) on one row per prefix (first) or leaf (second), dead ones zeroed.

    The closed layers run on compact rows, so here each is wrapped to take and give the dense rows the
    dense layer takes and gives: the first reads each row's support (a_x_bar, a_x) and puts its
    interleaved outputs back in ket order; the second reads each branch at ket g, the one value its
    compact row keeps.  Each wrapper checks that the dense rows hold nothing off what it reads."""
    closed, dense = _ghz_network(n), _dense_network(tuple(range(n)), "paper")
    (first, _), (second, _) = dense[n - 1], dense[n + 1]
    (closed_first, _), (closed_second, _) = closed[n - 1], closed[n + 1]
    full, order = (1 << n) - 1, interleaved_kets(n)

    def dense_first(rows: np.ndarray) -> np.ndarray:
        at = np.arange(len(rows))[:, None], canonical_x(n)[:, None] ^ [full, 0]
        pair = rows[at].copy()
        rows[at] = 0.0
        assert not rows.any()
        out = np.empty_like(rows)
        out[:, order] = closed_first(pair)
        return out

    def dense_second(rows: np.ndarray) -> np.ndarray:
        g = np.arange(len(rows)) & 1  # leaf (p, g) keeps ket g of its parity class
        kept = rows[np.arange(len(rows)), g].copy()
        parity = sum((np.arange(1 << n) >> k) & 1 for k in range(n)) & 1
        assert not rows[parity[None, :] != g[:, None]].any()
        return closed_second(kept[:, None])

    return dense_first, dense_second, first, second


def pair_values(rng, n: int, count: int) -> list:
    """(a_x, a_x_bar) per row, in every shape the parity steps can hand the first layer."""
    a, b = rng.standard_normal((2, count)) + 1j * rng.standard_normal((2, count))
    s = statevector._SQRT_HALF
    cases = [
        (a, b),  # random
        (a, np.zeros(count, complex)),  # one of the two is zero: a basis state
        (np.zeros(count, complex), b),
        (np.full(count, s + 0j), np.full(count, s + 0j)),  # GHZ states: A - B or A + B cancels
        (np.full(count, s + 0j), np.full(count, -s + 0j)),
        (a, a),
        (a.real + 0j, b.real + 0j),  # real states: every imaginary part is +0.0
        (a.imag * 1j, b.imag * 1j),
    ]
    for re in SUBNORMAL:
        for sign in (1.0, -1.0):
            cases.append((np.full(count, sign * re + 0.6j), np.full(count, 3 * re + 0.8j)))
            cases.append((np.full(count, complex(0.6, sign * re)), np.full(count, complex(-0.8, 3 * re))))
    return cases


def first_layer_rows(n: int, live: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows as the parity steps leave them, one per prefix: a live one holds a_x at x and a_x_bar at
    x_bar, a dead one nothing, and every other part is +0.0."""
    x = canonical_x(n)[live]
    rows = np.zeros((len(canonical_x(n)), 1 << n), complex)
    rows[live, x] = a[: len(live)]
    rows[live, ((1 << n) - 1) ^ x] = b[: len(live)]
    return rows + 0.0  # as a dense step hands them on (x + 0.0): no -0.0 part


def live_sets(rng, count: int) -> list:
    """Every row live, one row live, and a random strict subset (the rows of the others zeroed)."""
    subset = np.sort(rng.choice(count, max(1, count // 2), replace=False))
    return [np.arange(count), np.array([count - 1]), subset]


@pytest.mark.parametrize("n", range(2, 9))
def test_first_layer_equals_the_dense_layer(n):
    rng = np.random.default_rng(1300 + n)
    closed, _, dense, _ = layer_steps(n)
    prefixes = 1 << (n - 1)
    for a, b in pair_values(rng, n, prefixes):
        for live in live_sets(rng, prefixes):
            rows = first_layer_rows(n, live, a, b)
            want = dense(rows.copy())
            got = closed(rows.copy())
            assert got.tobytes() == want.tobytes(), (live, a[0], b[0])


def second_layer_input(n: int, live: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows, one per leaf, as the dense global-parity step leaves them after the dense first layer:
    a dead branch zeroed by the split, as in the level builder."""
    _, _, first, _ = layer_steps(n)
    rows = first(first_layer_rows(n, live, a, b))
    global_parity, _ = _dense_network(tuple(range(n)), "paper")[n]
    w, split = _split_rows(global_parity(rows))
    return split.reshape(w.size, -1)


@pytest.mark.parametrize("n", range(2, 9))
def test_second_layer_equals_the_dense_layer(n):
    rng = np.random.default_rng(1400 + n)
    _, closed, _, dense = layer_steps(n)
    prefixes = 1 << (n - 1)
    for a, b in pair_values(rng, n, prefixes):
        for live in live_sets(rng, prefixes):
            rows = second_layer_input(n, live, a, b)
            want = dense(rows.copy())
            got = closed(rows.copy())
            assert got.tobytes() == want.tobytes(), (live, a[0], b[0])
            assert (np.count_nonzero(got, axis=1) <= 2).all()


def local_table(flat: np.ndarray, width: int) -> np.ndarray:
    """A kernel's read-only flat indices into rows of ``width`` as the 2-D table by prefix or leaf they encode."""
    assert not flat.flags.writeable and flat.ndim == 2
    local = flat - (np.arange(len(flat)) * width)[:, None]
    assert ((0 <= local) & (local < width)).all()
    return local


def prefix_kets(n: int) -> list:
    """Each depth's kets by prefix, as the parity gathers lay them out: depth 0 holds every ket
    in ket order, and branch b of a prefix's interleaved row is row[b::2]."""
    depths = [[np.arange(1 << n)]]
    for step, _ in _ghz_network(n)[: n - 1]:
        width = 1 << (n + 1 - len(depths))
        local = local_table(step.keywords["gather"], width)
        assert local.shape == (len(depths[-1]), width)
        depths.append([kets[row][b::2] for kets, row in zip(depths[-1], local) for b in (0, 1)])
    return depths


@pytest.mark.parametrize("n", range(2, 9))
def test_layer_tables_follow_the_hadamard_signs(n):
    # against S from the bits of the paper matrix, not the Kronecker product the module takes
    s, full = sign_matrix(n), (1 << n) - 1
    x = canonical_x(n)
    assert [label.bits[0] for _, _, label in _ghz_labels(n)] == ["1"] * (1 << n)

    def bit(q: int, i: int) -> int:
        return (q >> (n - 1 - i)) & 1

    # the parity gathers: each depth's rows are their prefix's support in ket order, and the
    # first layer reads (a_x_bar, a_x)
    for k, rows in enumerate(prefix_kets(n)):
        for p, kets in enumerate(rows):
            want = [q for q in range(1 << n) if all(bit(q, i) ^ bit(q, i + 1) == (p >> (k - 1 - i)) & 1 for i in range(k))]
            assert list(kets) == want, (k, p)
        if k == n - 1:
            assert np.array_equal(np.array(rows), np.stack((full ^ x, x), axis=1))
    first = _ghz_network(n)[n - 1][0]
    select = local_table(first.keywords["select"], 4)
    assert select.shape == (1 << (n - 1), 1 << n)
    order = interleaved_kets(n)
    assert sorted(order) == list(range(1 << n))
    for p, xp in enumerate(x):
        for i, y in enumerate(order):
            assert bin(y).count("1") % 2 == i % 2  # output y of parity g at 2j + g
            alpha, beta = s[y, xp], s[y, full ^ xp]  # output y = s^n * (alpha a_x + beta a_x_bar)
            assert select[p, i] == {(1, 1): 0, (1, -1): 1, (-1, -1): 2, (-1, 1): 3}[alpha, beta]
    assert list(order[:2]) == [0, 1]  # the value each global-parity branch keeps is its ket g
    second = _ghz_network(n)[n + 1][0]
    assert set(second.keywords) == {"n", "write", "signs"}
    write = local_table(second.keywords["write"], 1 << n)
    signs = local_table(second.keywords["signs"], 2)
    for leaf in range(1 << n):
        xp = x[leaf >> 1]
        assert np.array_equal(write[leaf], [xp, full ^ xp])
        assert list(signs[leaf]) == [s[leaf & 1, xp] < 0, s[leaf & 1, full ^ xp] < 0]


def test_compact_schedule_mirrors_the_dense_schedule():
    # step for step: n - 1 parity gathers, the first layer, the global-parity split that keeps one
    # value per branch, the second layer; the same ancillas in the same places
    for n in range(2, 9):
        closed, dense = _ghz_network(n), _dense_network(tuple(range(n)), "paper")
        assert len(closed) == len(dense) == n + 2
        assert [step[1] for step in closed] == [ancillas for _, ancillas in dense] == [1] * (n - 1) + [0, 1, 0]
        names = ["_parity_step"] * (n - 1) + ["_first_layer", None, "_second_layer"]
        for step, name in zip(closed, names):
            if name is None:
                assert step == ((), 1, 1)
            else:
                assert len(step) == 2 and step[0].func.__name__ == name


@contextlib.contextmanager
def counted_dense_steps():
    """Count ghz._dense_step calls; the dense schedules' cache starts over on entry and exit, so none keeps the
    counter."""
    calls = []
    real = ghz._dense_step

    def counted(rows, gates, ancillas):
        calls.append(len(gates))
        return real(rows, gates, ancillas)

    ghz._dense_step = counted
    _dense_network.cache_clear()
    try:
        yield calls
    finally:
        ghz._dense_step = real
        _dense_network.cache_clear()


def test_ghz_and_bell_measurements_never_run_a_dense_step():
    rng = np.random.default_rng(1700)
    states = {n: [random_state(n, rng) for _ in range(2)] + [ghz_state(all_canonical_labels(n)[1])] for n in range(2, 9)}
    draws = rng.random(8)
    with counted_dense_steps() as calls:
        for n, group in states.items():
            for state in group:
                ghz_branch_table(StateVector(n, state.amplitudes))
                run_ghz_qnd(StateVector(n, state.amplitudes), draws[:n])
        for label in BellLabel:
            bell_branch_table(StateVector(2, bell_state(label).amplitudes))
            run_bell_qnd(StateVector(2, bell_state(label).amplitudes), draws=draws[:2])
    assert calls == []


def test_auth_rounds_run_the_dense_steps_with_unchanged_output():
    noise = NoiseSpec("depolarizing", 0.1)
    system = _system_for(AttackerModel.ENTANGLED_DECOY, bell_state(BellLabel.PSI_MINUS).amplitudes, np.random.default_rng(0))
    draws = np.array([0.3, 0.8])

    def outputs():
        rows = [row.to_dict() for row in security_sweep([1, 3], AttackerModel.LEGITIMATE, 40, 7, noise)]
        rows += [row.to_dict() for row in security_sweep([2], AttackerModel.ENTANGLED_DECOY, 40, 7)]
        dists = [attacker_round_distribution(model, label).tobytes() for model in AttackerModel for label in BellLabel]
        bits, probability, post = _run_round(system, draws)
        return rows, dists, (bits, probability, post.tobytes())

    want = outputs()
    with counted_dense_steps() as calls:
        got = outputs()
    assert calls and got == want
