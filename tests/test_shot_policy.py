"""A fresh state's first shot expands its table once, on every schedule; draws that are not
real numbers are refused by name."""

import numpy as np
import pytest

import qndnet.ghz as ghz_module
from qndnet.bell import bell_branch_table, run_bell_qnd
from qndnet.ghz import ghz_branch_table, run_ghz_qnd
from qndnet.statevector import StateVector, random_state


@pytest.fixture
def expansions(monkeypatch):
    """Every _branches call from here on, as 'table' or 'path' (a call given draws)."""
    calls = []
    real = ghz_module._branches

    def counted(amps, schedule, draws=None):
        calls.append("table" if draws is None else "path")
        return real(amps, schedule, draws)

    monkeypatch.setattr(ghz_module, "_branches", counted)
    return calls


def _shots(run, table, n, state, draws, expansions, **kwargs):
    """The first shot, its repeat with the same draws, a fresh twin's shot, and the calls made."""
    first = run(state, draws=draws, **kwargs)
    again = run(state, draws=draws, **kwargs)
    table(state, kwargs.get("convention", "paper"))
    calls = list(expansions)
    twin = run(StateVector(n, state.amplitudes), draws=draws, **kwargs)
    return first, again, twin, calls


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_first_shot_keeps_its_table(n, convention, expansions):
    # all-live (n <= 6) and staged (n = 7, 8) alike: the first shot expands the table once,
    # its repeat returns the same outcome, and the branch table is not rebuilt
    rng = np.random.default_rng(9100 + n)
    state = random_state(n, rng)
    first, again, twin, calls = _shots(
        run_ghz_qnd, ghz_branch_table, n, state, rng.random(n), expansions, convention=convention
    )
    assert calls == ["table"]
    assert again is first
    assert twin == first and twin is not first


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_bell_first_shot_keeps_its_table(convention, expansions):
    rng = np.random.default_rng(9200)
    state = random_state(2, rng)
    first, again, twin, calls = _shots(
        run_bell_qnd, bell_branch_table, 2, state, rng.random(2), expansions, convention=convention
    )
    assert calls == ["table"]
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
    draws = rng.random(n)
    assert run_ghz_qnd(state, "paper", draws) == run_ghz_qnd(StateVector(n, state.amplitudes), "paper", draws)


def test_bell_draws_that_are_not_real_numbers_raise_value_error():
    rng = np.random.default_rng(9600)
    for bad, named in _bad_draws(2):
        with pytest.raises(ValueError, match=f"random draw must be a real number, got {named}"):
            run_bell_qnd(random_state(2, rng), "paper", bad)

