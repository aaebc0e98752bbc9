"""The GHZ register's compact steps against the dense steps they replace, byte for byte.

The GHZ schedule runs on compact rows: each live prefix's row holds only the kets its dense row
can hold, in ket order.  Truncating both schedules after every step and expanding them with the one
level builder pins each compact step to its dense twin: the same weights at every level, the same
live rows, and each compact row the dense row's support in the compact row's order, with the dense
row zero everywhere else."""

import tracemalloc

import numpy as np
import pytest
from test_closed_layers import assert_same_table, interleaved_kets, table_states

from qndnet.ghz import _branches, _dense_network, _ghz_network, all_canonical_labels, ghz_branch_table, ghz_state
from qndnet.statevector import random_state

CONVENTIONS = ("paper", "standard")


def prefix_support(n: int, prefix: int, depth: int) -> np.ndarray:
    """The kets whose first ``depth`` neighbour parities are ``prefix``'s bits (big-endian), in ket order."""
    kets = np.arange(1 << n)
    bits = [(kets >> (n - 1 - i)) & 1 for i in range(n)]
    held = np.ones(1 << n, bool)
    for i in range(depth):
        held &= (bits[i] ^ bits[i + 1]) == (prefix >> (depth - 1 - i)) & 1
    return kets[held]


def layout(n: int, steps: int, key: int) -> tuple:
    """(the kets a dense row of ``key`` can hold after ``steps`` steps, in the compact row's order, and how
    many of them the compact row keeps).

    After the parity steps a row holds its prefix's support; after the first layer every ket, the j-th
    ket of weight parity g at 2j + g; after the global-parity split its parity class, of which it keeps
    the first; after the second layer the dense leaf."""
    if steps < n:
        return prefix_support(n, key, steps), None
    if steps == n:
        return interleaved_kets(n), None
    if steps == n + 1:
        kets = np.arange(1 << n)
        return kets[sum((kets >> k) & 1 for k in range(n)) & 1 == key & 1], 1
    return np.arange(1 << n), None


def assert_steps_match(amps: np.ndarray, n: int, convention: str) -> None:
    compact, dense = _ghz_network(n, convention), _dense_network(tuple(range(n)), n, convention)
    for steps in range(1, n + 3):
        (weights, rows), (want_weights, want_rows) = _branches(amps, compact[:steps]), _branches(amps, dense[:steps])
        assert [np.array(level).tobytes() for level in weights] == [np.array(level).tobytes() for level in want_weights]
        assert rows.keys() == want_rows.keys()
        for key, row in rows.items():
            kets, keep = layout(n, steps, key)
            want = want_rows[key]
            assert row.tobytes() == want[kets[:keep]].tobytes(), (steps, key)
            off = np.ones(1 << n, bool)
            off[kets] = False
            assert not want[off].any()
    assert_same_table((weights, rows), (want_weights, want_rows))


def dead_prefix_states(rng, n: int) -> list:
    """At each parity depth, a random state with the support of about half the prefixes set to zero,
    so the live prefixes there are a strict subset; and one with every prefix but the last dead."""
    states = []
    for depth in range(1, n):
        for dead in (rng.random(1 << depth) < 0.5, np.arange(1 << depth) < (1 << depth) - 1):
            amps = random_state(n, rng).amplitudes.copy()
            for prefix in np.flatnonzero(dead):
                amps[prefix_support(n, prefix, depth)] = 0.0
            if np.linalg.norm(amps) > 0.0:
                states.append(amps / np.linalg.norm(amps))
    return states


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("n", range(2, 9))
def test_each_compact_step_equals_its_dense_step(n, convention):
    rng = np.random.default_rng(2300 + n)
    for amps in table_states(rng, n) + dead_prefix_states(rng, n):
        assert_steps_match(amps, n, convention)


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("n", range(2, 9))
def test_compact_steps_on_negative_zero_twins(n, convention):
    # an input's -0.0 parts enter as +0.0 in the first parity gather, as in the first dense step's x + 0.0
    rng = np.random.default_rng(2400 + n)
    for _ in range(3):
        parts = random_state(n, rng).amplitudes.view(np.float64).copy()
        parts[rng.random(parts.size) < 0.4] = -0.0
        parts /= np.linalg.norm(parts)
        for amps in (parts.view(np.complex128), (parts + 0.0).view(np.complex128)):
            assert_steps_match(amps, n, convention)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_compact_steps_on_every_ghz_basis_state(convention):
    # 508 inputs per convention, 1016 in all: a basis state leaves one live prefix at every depth
    for n in range(2, 9):
        for label in all_canonical_labels(n):
            assert_steps_match(ghz_state(label).amplitudes, n, convention)


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
