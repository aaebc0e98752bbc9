"""A shot tests the memo slot first: a repeat shot of the slot's state, under the slot's
convention, expands nothing and takes no norm, and every shot still equals a fresh twin's."""

import numpy as np
import pytest

import qndnet.ghz as ghz_module
from qndnet.bell import bell_branch_table, run_bell_qnd
from qndnet.ghz import ghz_branch_table, run_ghz_qnd
from qndnet.statevector import CONVENTIONS, StateVector, random_state


@pytest.fixture
def counts(monkeypatch):
    """Every table expansion (_branches) and every StateVector.norm call from here on, by kind."""
    calls = {"branches": 0, "norm": 0}
    real_branches, real_norm = ghz_module._branches, StateVector.norm

    def branches(amps, schedule):
        calls["branches"] += 1
        return real_branches(amps, schedule)

    def norm(self):
        calls["norm"] += 1
        return real_norm(self)

    monkeypatch.setattr(ghz_module, "_branches", branches)
    monkeypatch.setattr(StateVector, "norm", norm)
    return calls


def outcome_fields(outcome):
    """Every field of an outcome, the post state as its amplitude bytes."""
    return tuple(v.amplitudes.tobytes() if isinstance(v, StateVector) else v for v in vars(outcome).values())


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_repeat_shots_expand_nothing_and_take_no_norm(n, convention, counts):
    rng = np.random.default_rng(2400 + n)
    state = random_state(n, rng)
    runs = [run_ghz_qnd] + [run_bell_qnd] * (n == 2)
    for run in runs:  # each kind's first shot; a Bell one after a GHZ one at n = 2 is already a hit
        run(state, convention, rng.random(n))
    assert counts == {"branches": 1, "norm": 1}
    for draws in rng.random((50, n)):
        for run in runs:
            run(state, convention, draws)
    assert counts == {"branches": 1, "norm": 1}


@pytest.mark.parametrize("n", [2, 3, 8])
def test_shots_that_alternate_conventions_equal_a_fresh_twin(n, counts):
    # each convention change evicts the slot; a table call of the other convention in between
    # takes it over, and every shot still equals, byte for byte, the same shot on a fresh twin
    rng = np.random.default_rng(2500 + n)
    state = random_state(n, rng)
    shots = rng.random((12, n))
    conventions = ["paper", "standard"] * 6
    expected = [outcome_fields(run_ghz_qnd(StateVector(n, state.amplitudes), c, d)) for c, d in zip(conventions, shots)]
    other = {"paper": "standard", "standard": "paper"}
    for k, (convention, draws) in enumerate(zip(conventions, shots)):
        assert outcome_fields(run_ghz_qnd(state, convention, draws)) == expected[k]
        assert outcome_fields(run_ghz_qnd(state, convention, draws)) == expected[k]  # a hit
        ghz_branch_table(state, other[convention])
    if n == 2:
        for convention, draws in zip(conventions, shots):
            bell = run_bell_qnd(state, convention, draws)
            twin = run_bell_qnd(StateVector(2, state.amplitudes), convention, draws)
            assert outcome_fields(bell) == outcome_fields(twin)
            bell_branch_table(state, other[convention])


def test_bell_refuses_a_three_qubit_slot_state():
    rng = np.random.default_rng(2600)
    state = random_state(3, rng)
    run_ghz_qnd(state, "paper", rng.random(3))
    assert ghz_module._last_table[0] is state
    for _ in range(2):
        with pytest.raises(ValueError, match="expected a 2-qubit input, got 3"):
            run_bell_qnd(state, "paper", rng.random(2))
    assert ghz_module._last_table[0] is state


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_a_table_call_leaves_a_slot_hit_for_the_next_shot(n, convention, counts):
    rng = np.random.default_rng(2700 + n)
    state = random_state(n, rng)
    rows = ghz_branch_table(state, convention)
    assert counts == {"branches": 1, "norm": 1}
    outcome = run_ghz_qnd(state, convention, rng.random(n))
    assert counts == {"branches": 1, "norm": 1}
    assert (outcome.label, outcome.probability) in {(label, p) for _, label, p, _ in rows}
    if n == 2:
        bell_branch_table(state, convention)  # checks the norm, and finds the slot's table
        run_bell_qnd(state, convention, rng.random(2))
        assert counts == {"branches": 1, "norm": 2}


def test_an_equal_convention_string_finds_the_slots_table(counts):
    # a convention equal to the token but another object takes the checked path, which finds
    # the slot's table: no expansion, and the same outcome
    rng = np.random.default_rng(2800)
    state = random_state(4, rng)
    draws = rng.random(4)
    first = run_ghz_qnd(state, "paper", draws)
    built = "".join(["pa", "per"])
    assert built == CONVENTIONS[0] and built is not CONVENTIONS[0]
    assert run_ghz_qnd(state, built, draws) is first
    assert counts["branches"] == 1
