"""The GHZ register's compact steps against the dense steps they replace, byte for byte.

The GHZ schedule runs on compact rows: each prefix's row holds only the kets its dense row can hold,
in ket order.  Expanding both schedules once with the one level builder, each step recording the rows
it receives, one per prefix, pins each compact step to its dense twin: the same weights at every
level, the same rows after every step, dead prefixes' zeroed rows included, and each compact row the
dense row's support in the compact row's order, with the dense row zero everywhere else.  The textbook
Hadamard's dense schedule is held to the same weights and leaves, up to the order of each last-level
pair at odd n."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from test_closed_layers import SUBNORMAL, interleaved_kets
from test_ghz import standard_branch_table

from qndnet.ghz import (
    _branches,
    _dense_network,
    _ghz_network,
    all_canonical_labels,
    ghz_branch_table,
    ghz_state,
)
from qndnet.statevector import ZERO_BRANCH_PROB, StateVector, random_state


def prefix_support(n: int, prefix: int, depth: int) -> np.ndarray:
    """The kets whose first ``depth`` neighbour parities are ``prefix``'s bits (big-endian), in ket order."""
    kets = np.arange(1 << n)
    bits = [(kets >> (n - 1 - i)) & 1 for i in range(n)]
    held = np.ones(1 << n, bool)
    for i in range(depth):
        held &= (bits[i] ^ bits[i + 1]) == (prefix >> (depth - 1 - i)) & 1
    return kets[held]


@lru_cache(maxsize=None)
def layout(n: int, steps: int) -> tuple:
    """For every key a row can have after ``steps`` steps: (the kets its dense row can hold, in the compact
    row's order, cut to the ones the compact row keeps; True on every ket its dense row cannot hold).

    After the parity steps a row holds its prefix's support; after the first layer every ket, the j-th
    ket of weight parity g at 2j + g; after the global-parity split its parity class, of which it keeps
    the first.  The second layer's dense leaves are the level builder's leaves."""
    kets = np.arange(1 << n)
    if steps < n:
        held = [prefix_support(n, key, steps) for key in range(1 << steps)]
    elif steps == n:
        held = [interleaved_kets(n)] * (1 << (n - 1))
    else:
        parity = sum((kets >> k) & 1 for k in range(n)) & 1
        held = [kets[parity == key & 1] for key in range(1 << n)]
    off = np.ones((len(held), 1 << n), bool)
    for key, row in enumerate(held):
        off[key, row] = False
    keep = 1 if steps > n else None
    return np.array([row[:keep] for row in held]), off


def recorded(schedule) -> tuple:
    """(the schedule with each step's kernel wrapped to record a copy of the rows it receives, that
    record).  A bare split gets a kernel that hands its rows on as they are."""
    seen = []

    def record(kernel):
        def step(rows):
            seen.append(rows.copy())
            return kernel(rows) if kernel else rows

        return step

    return [(record(kernel), *rest) for kernel, *rest in schedule], seen


def assert_same_table(got: tuple, want: tuple) -> None:
    """Equal (weights, leaves) byte for byte: every level's weights and every leaf's register, dead ones included."""
    (weights, leaves), (want_weights, want_leaves) = got, want
    assert [np.array(level).tobytes() for level in weights] == [np.array(level).tobytes() for level in want_weights]
    assert leaves.shape == want_leaves.shape == (1 << len(weights), want_leaves.shape[1])
    assert leaves.tobytes() == want_leaves.tobytes()


def assert_steps_match(amps: np.ndarray, n: int) -> None:
    """One expansion per schedule, compact and the paper's dense one: the rows every step receives,
    which are the rows after the steps before it, then the leaves after the last step, with the
    weights of every level."""
    compact, got = recorded(_ghz_network(n))
    dense, want = recorded(_dense_network(tuple(range(n)), "paper"))
    assert_same_table(_branches(amps, compact), _branches(amps, dense))
    for steps, (rows, want_rows) in enumerate(zip(got, want, strict=True)):
        kept, off = layout(n, steps)
        assert len(rows) == len(want_rows) == len(kept), steps  # one row per prefix, dead or not
        assert rows.tobytes() == want_rows[np.arange(len(rows))[:, None], kept].tobytes(), steps
        assert not want_rows[off].any(), steps


def assert_standard_matches(amps: np.ndarray, n: int) -> None:
    """The textbook Hadamard's dense schedule against the engine's compact one.  Its parity steps are
    the paper's, so up to the first layer every step receives the compact rows, laid out as
    assert_steps_match checks them.  After the layers it gives every level's weights and every leaf the
    engine's bytes, but at odd n it reads the raw phase bit the other way round (the engine's labels
    XOR it with n mod 2), so its last level lists each pair of weights, and of leaves, swapped."""
    compact, got = recorded(_ghz_network(n))
    dense, want = recorded(_dense_network(tuple(range(n)), "standard"))
    weights, leaves = _branches(amps, dense)
    want_weights, want_leaves = _branches(amps, compact)
    for steps, (rows, want_rows) in enumerate(zip(got[:n], want[:n], strict=True)):
        kept, off = layout(n, steps)
        assert rows.tobytes() == want_rows[np.arange(len(rows))[:, None], kept].tobytes(), steps
        assert not want_rows[off].any(), steps
    if n & 1:
        want_weights = want_weights[:-1] + [[want_weights[-1][i ^ 1] for i in range(1 << n)]]
        want_leaves = want_leaves.reshape(-1, 2, want_leaves.shape[1])[:, ::-1].reshape(want_leaves.shape)
    assert repr(weights) == repr(want_weights)
    assert leaves.tobytes() == want_leaves.tobytes()


#: Each convention's check of an input: the paper's dense schedule step for step, the textbook one as far
#: as it runs the same steps and then leaf for leaf.
CHECKS = {"paper": assert_steps_match, "standard": assert_standard_matches}


def table_states(rng, n: int) -> list:
    """Random, basis, GHZ, real, zero-laced, subnormal-laced and slightly unnormalized states, and GHZ
    states with their twin mixed in at weight (0, ZERO_BRANCH_PROB]: the split zeroes that global-parity
    branch, whose zeros may be -0.0, and the second layer must take them as the dense one does."""
    size = 1 << n
    states = [random_state(n, rng).amplitudes for _ in range(3)]
    states += [np.eye(size)[k] + 0j for k in rng.choice(size, 3)]
    states += [ghz_state(label).amplitudes for label in all_canonical_labels(n)[:4]]
    real = rng.standard_normal(size)
    states.append(real / np.linalg.norm(real) + 0j)
    laced = random_state(n, rng).amplitudes.copy()
    laced[rng.random(size) < 0.4] = 0.0
    laced[0] = 0.5
    states.append(laced / np.linalg.norm(laced))
    for re in SUBNORMAL:
        amps = np.full(size, complex(re, 0.6)) / np.sqrt(size)
        amps[size // 2 :] = complex(3 * re, 0.8) / np.sqrt(size)
        states.append(amps)
    off = random_state(n, rng).amplitudes
    states += [off * (1 + 9e-9), off * (1 - 9e-9)]
    labels = all_canonical_labels(n)
    for k, eps in ((0, -1e-8), (len(labels) - 2, 3e-8j)):
        mixed = ghz_state(labels[k]).amplitudes + eps * ghz_state(labels[k + 1]).amplitudes
        states.append(mixed / np.linalg.norm(mixed))
    return states


#: Weights of a near-dead prefix given its parent: nonzero, at most ZERO_BRANCH_PROB, one with subnormal parts.
NEAR_DEAD = (9e-16, 1e-16, 1e-310)


def dead_prefix_states(rng, n: int) -> list:
    """(amplitudes, depth, dead prefixes at that depth) for each parity depth: a random state with the
    support of about half the prefixes set to zero; one with every prefix but the last zero; and for
    each NEAR_DEAD weight t, one whose random prefix's support weighs t given its parent's."""
    states = []
    for depth in range(1, n):
        for dead in (rng.random(1 << depth) < 0.5, np.arange(1 << depth) < (1 << depth) - 1):
            amps = random_state(n, rng).amplitudes.copy()
            for prefix in np.flatnonzero(dead):
                amps[prefix_support(n, prefix, depth)] = 0.0
            if np.linalg.norm(amps) > 0.0:
                states.append((amps / np.linalg.norm(amps), depth, np.flatnonzero(dead)))
        for t in NEAR_DEAD:
            amps = random_state(n, rng).amplitudes.copy()
            prefix = rng.integers(1 << depth)
            support, parent = prefix_support(n, prefix, depth), prefix_support(n, prefix >> 1, depth - 1)
            own, rest = (np.vdot(amps[kets], amps[kets]).real for kets in (support, np.setdiff1d(parent, support)))
            amps[support] *= np.sqrt(t / (1 - t) * rest / own)  # own / (own + rest) = t
            states.append((amps / np.linalg.norm(amps), depth, np.array([prefix])))
    return states


@pytest.mark.parametrize("seed", [2300, 1500])
@pytest.mark.parametrize("convention", CHECKS)
@pytest.mark.parametrize("n", range(2, 9))
def test_each_compact_step_equals_its_dense_step(n, convention, seed):
    # seed 1500 + n draws the whole-table inputs; 2300 + n draws them and the dead-prefix states
    rng = np.random.default_rng(seed + n)
    states = table_states(rng, n) + ([amps for amps, _, _ in dead_prefix_states(rng, n)] if seed == 2300 else [])
    for amps in states:
        CHECKS[convention](amps, n)


@pytest.mark.parametrize("convention", CHECKS)
@pytest.mark.parametrize("n", range(2, 9))
def test_everything_under_a_dead_prefix_weighs_exactly_zero(n, convention):
    # the split zeroes a dead branch's row, so every level below it weighs 0.0 and no leaf under it
    # carries a register; near-dead prefixes, whose support weighs (0, ZERO_BRANCH_PROB], included.  The
    # textbook dense schedule, which no table runs, does the same
    rng = np.random.default_rng(2600 + n)
    if convention == "paper":
        schedule, table = _ghz_network(n), ghz_branch_table
    else:
        schedule, table = _dense_network(tuple(range(n)), convention), standard_branch_table
    near = []
    for amps, depth, dead in dead_prefix_states(rng, n):
        weights, _ = _branches(amps, schedule)
        rows = table(StateVector(n, amps))
        for prefix in dead:  # the input is what it claims: at most ZERO_BRANCH_PROB of the parent's weight
            own, parent = (prefix_support(n, p, d) for p, d in ((prefix, depth), (prefix >> 1, depth - 1)))
            weight = np.vdot(amps[own], amps[own]).real
            assert weight <= ZERO_BRANCH_PROB * np.vdot(amps[parent], amps[parent]).real
            near += [depth] if weight else []
            for level in range(depth - 1, n):
                span = 1 << (level + 1 - depth)  # the (level + 1)-bit prefixes under the depth-bit one
                assert weights[level][prefix * span : (prefix + 1) * span] == [0.0] * span, (depth, prefix, level)
            span = 1 << (n - depth)
            assert [(p, post) for _, _, p, post in rows[prefix * span : (prefix + 1) * span]] == [(0.0, None)] * span
    assert near == [depth for depth in range(1, n) for _ in NEAR_DEAD]


def negative_zero_twins(rng, n: int) -> list:
    """A random state with about 40 % of its parts set to -0.0, and its twin with those parts +0.0."""
    parts = random_state(n, rng).amplitudes.view(np.float64).copy()
    parts[rng.random(parts.size) < 0.4] = -0.0
    parts /= np.linalg.norm(parts)
    return [parts.view(np.complex128), (parts + 0.0).view(np.complex128)]


@pytest.mark.parametrize("seed", [2400, 1600])
@pytest.mark.parametrize("convention", CHECKS)
@pytest.mark.parametrize("n", range(2, 9))
def test_compact_steps_on_negative_zero_twins(n, convention, seed):
    # an input's -0.0 parts enter as +0.0 in the first parity gather, as in the first dense step's x + 0.0
    rng = np.random.default_rng(seed + n)
    for _ in range(3):
        for amps in negative_zero_twins(rng, n):
            CHECKS[convention](amps, n)


@pytest.mark.parametrize("convention", CHECKS)
def test_compact_steps_on_every_ghz_basis_state(convention):
    # 508 inputs per convention, 1016 in all: a basis state leaves one live prefix at every depth
    for n in range(2, 9):
        for label in all_canonical_labels(n):
            CHECKS[convention](ghz_state(label).amplitudes, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_the_standard_network_measures_what_the_engine_measures(n):
    # the textbook Hadamard's dense schedule gives every level's weights and every leaf the engine's
    # bytes, up to the order of each last-level pair at odd n (assert_standard_matches).  This is why
    # shots and branch tables take no Hadamard convention.
    rng = np.random.default_rng(3700 + n)
    states = table_states(rng, n) + negative_zero_twins(rng, n)
    # the last parity depth's dead and near-dead prefixes: the states dead_prefix_states lists last
    states += [amps for amps, _, _ in dead_prefix_states(rng, n)[-5:]]
    for amps in states:
        assert_standard_matches(amps, n)


@pytest.mark.parametrize(("n", "limit_mib"), [(7, 0.5), (8, 1.8)])
def test_a_cold_table_allocates_no_dense_intermediates(n, limit_mib):
    # the dense rows peaked at 0.57 and 2.08 MiB; the compact rows stay well below
    rng = np.random.default_rng(2500 + n)
    ghz_branch_table(random_state(n, rng))  # schedule, gather and label tables built outside the trace
    state = random_state(n, rng)
    tracemalloc.start()
    try:
        ghz_branch_table(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20, peak / 2**20
