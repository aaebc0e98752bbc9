"""A fresh state's first shot expands its table once, at every n; draws that are not real
numbers, or no sequence, are refused by name."""

import numpy as np
import pytest

import qndnet.ghz as ghz_module
from qndnet.bell import bell_branch_table, run_bell_qnd
from qndnet.ghz import ghz_branch_table, run_ghz_qnd
from qndnet.statevector import StateVector, random_state


@pytest.fixture
def expansions(monkeypatch):
    """Every _branches call from here on, each one table expansion, by the schedule it ran."""
    calls = []
    real = ghz_module._branches

    def counted(amps, schedule):
        calls.append(schedule)
        return real(amps, schedule)

    monkeypatch.setattr(ghz_module, "_branches", counted)
    return calls


def _shots(run, table, n, state, draws, expansions, **kwargs):
    """The first shot, its repeat with the same draws, a fresh twin's shot, and the expansions made."""
    first = run(state, draws=draws, **kwargs)
    again = run(state, draws=draws, **kwargs)
    table(state, kwargs.get("convention", "paper"))
    calls = len(expansions)
    twin = run(StateVector(n, state.amplitudes), draws=draws, **kwargs)
    return first, again, twin, calls


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_first_shot_keeps_its_table(n, convention, expansions):
    # at every n the first shot expands the table once, its repeat returns the same outcome,
    # and the branch table is not rebuilt
    rng = np.random.default_rng(9100 + n)
    state = random_state(n, rng)
    first, again, twin, calls = _shots(
        run_ghz_qnd, ghz_branch_table, n, state, rng.random(n), expansions, convention=convention
    )
    assert calls == 1
    assert again is first
    assert twin == first and twin is not first


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_bell_first_shot_keeps_its_table(convention, expansions):
    rng = np.random.default_rng(9200)
    state = random_state(2, rng)
    first, again, twin, calls = _shots(
        run_bell_qnd, bell_branch_table, 2, state, rng.random(2), expansions, convention=convention
    )
    assert calls == 1
    assert again is first
    assert twin == first and twin is not first


def _bad_draws(n):
    """(draws of the right length, a fragment of the error message naming what is wrong)."""
    letters = "abcdefgh"[:n]
    return [
        (letters, "'a'"),
        (np.full((n, 1), 0.5), r"\[0\.5\]"),  # each row of a 2-D array is a list
        (np.full((n, 2), 0.5), r"\[0\.5, 0\.5\]"),
        ([[0.5]] * n, r"\[0\.5\]"),
        ([0.5] * (n - 1) + [0.5j], r"0\.5j"),
        ([None] * n, "None"),
        ([0.5] * (n - 1) + [np.array([0.5])], r"array\(\[0\.5\]\)"),  # compares as its one element would
        ([np.array([0.5, 0.5])] + [0.5] * (n - 1), r"array\(\[0\.5, 0\.5\]\)"),
    ]


def _unsized_draws(n):
    """(draws that are no sequence, a fragment of the error message naming them)."""
    return [
        (5, "5"),
        (None, "None"),
        (iter([0.5] * n), "<list_iterator object"),
        ((0.5 for _ in range(n)), "<generator object"),
    ]


@pytest.mark.parametrize("n", [2, 6, 7, 8])
def test_ghz_draws_that_are_not_real_numbers_raise_value_error(n):
    rng = np.random.default_rng(9500 + n)
    state = random_state(n, rng)
    for bad, named in _bad_draws(n):
        with pytest.raises(ValueError, match=f"random draw must be a real number, got {named}"):
            run_ghz_qnd(random_state(n, rng), "paper", bad)  # a fresh state
        with pytest.raises(ValueError, match=named):
            run_ghz_qnd(state, "paper", bad)  # the slot's state
    for bad, named in _unsized_draws(n):
        with pytest.raises(ValueError, match=f"run_ghz_qnd needs a sequence of {n} draws, got {named}"):
            run_ghz_qnd(state, "paper", bad)
    draws = rng.random(n)
    assert run_ghz_qnd(state, "paper", draws) == run_ghz_qnd(StateVector(n, state.amplitudes), "paper", draws)


def test_bell_draws_that_are_not_real_numbers_raise_value_error():
    rng = np.random.default_rng(9600)
    for bad, named in _bad_draws(2):
        with pytest.raises(ValueError, match=f"random draw must be a real number, got {named}"):
            run_bell_qnd(random_state(2, rng), "paper", bad)
    for bad, named in _unsized_draws(2):
        with pytest.raises(ValueError, match=f"run_bell_qnd needs a sequence of 2 draws, got {named}"):
            run_bell_qnd(random_state(2, rng), "paper", bad)

