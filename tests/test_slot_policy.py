"""The memo slot's policy.  A shot tests the slot first: a repeat shot of the slot's state, under the
slot's convention, expands nothing and takes no norm, and every shot still equals a fresh twin's.  A
fresh state's first shot expands its table once, at every n.  Every other shot or table call checks
its input in one sequence, the convention, then the size, then the norm, whatever the slot holds.
Draws that are not real numbers, or no sequence, are refused by name."""

import numpy as np
import pytest

import qndnet.ghz as ghz_module
from qndnet.bell import BellQndOutcome, bell_branch_table, run_bell_qnd
from qndnet.ghz import MAX_PARTS, GhzQndOutcome, ghz_branch_table, run_ghz_qnd
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


# -- a fresh state's first shot keeps its table --


def _shots(run, table, n, state, draws, counts, **kwargs):
    """The first shot, its repeat with the same draws, a fresh twin's shot, and the expansions made."""
    first = run(state, draws=draws, **kwargs)
    again = run(state, draws=draws, **kwargs)
    table(state, kwargs.get("convention", "paper"))
    calls = counts["branches"]
    twin = run(StateVector(n, state.amplitudes), draws=draws, **kwargs)
    return first, again, twin, calls


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("n", range(2, 9))
def test_first_shot_keeps_its_table(n, convention, counts):
    # at every n the first shot expands the table once, its repeat returns the same outcome,
    # and the branch table is not rebuilt
    rng = np.random.default_rng(9100 + n)
    state = random_state(n, rng)
    first, again, twin, calls = _shots(
        run_ghz_qnd, ghz_branch_table, n, state, rng.random(n), counts, convention=convention
    )
    assert calls == 1
    assert again is first
    assert twin == first and twin is not first


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_bell_first_shot_keeps_its_table(convention, counts):
    rng = np.random.default_rng(9200)
    state = random_state(2, rng)
    first, again, twin, calls = _shots(
        run_bell_qnd, bell_branch_table, 2, state, rng.random(2), counts, convention=convention
    )
    assert calls == 1
    assert again is first
    assert twin == first and twin is not first


# -- draws that are not real numbers, or no sequence --


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


# -- a shot tests the slot first --


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


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_bell_and_ghz_shots_alternate_on_one_slot(convention):
    # Bell and n = 2 GHZ share one schedule, so one slot and one table: each kind finishes
    # its own leaves, and every shot equals, byte for byte, the same shot on a fresh twin
    rng = np.random.default_rng(79)
    state = random_state(2, rng)
    shots = np.concatenate([rng.random((8, 2)), np.zeros((4, 2)), rng.random((8, 2))])
    kinds = [(run_bell_qnd, BellQndOutcome), (run_ghz_qnd, GhzQndOutcome)] * len(shots)
    # the twins' shots first: each twin evicts the slot and expands its own table
    expected = [outcome_fields(run(StateVector(2, state.amplitudes), convention, d))
                for (run, _), d in zip(kinds, np.repeat(shots, 2, axis=0))]
    for (run, kind), d, want in zip(kinds, np.repeat(shots, 2, axis=0), expected):
        out = run(state, convention, d)
        assert type(out) is kind
        assert outcome_fields(out) == want
    slot_state, _, (_, _, finished) = ghz_module._last_table
    assert slot_state is state
    assert {type(out) for out in finished.values()} == {BellQndOutcome, GhzQndOutcome}


# -- one check sequence for every shot and table input --

#: Each shot and table entry: (name, the register size it takes, a call on a state and a convention).
CHECKED_ENTRIES = [
    ("run_ghz_qnd", 3, lambda state, convention: run_ghz_qnd(state, convention, (0.5,) * state.num_qubits)),
    ("run_bell_qnd", 2, lambda state, convention: run_bell_qnd(state, convention, (0.5,) * state.num_qubits)),
    ("ghz_branch_table", 3, ghz_branch_table),
    ("bell_branch_table", 2, bell_branch_table),
]


@pytest.mark.parametrize("held", [False, True], ids=["empty-slot", "held-slot"])
@pytest.mark.parametrize("name, n, call", CHECKED_ENTRIES, ids=[name for name, _, _ in CHECKED_ENTRIES])
def test_an_entry_checks_the_convention_then_the_size_then_the_norm(name, n, call, held, counts, monkeypatch):
    # whether or not the slot holds a state, a bad convention and a wrong size (which Bell checks
    # first) are both refused before any norm is taken, and an unnormalized state is refused under
    # the entry's own name; nothing is expanded, and the slot keeps what it held
    rng = np.random.default_rng(3100 + n)
    valid = random_state(n, rng)
    if held:
        call(valid, "paper")  # the slot holds ``valid`` under "paper"
    else:
        monkeypatch.setattr(ghz_module, "_last_table", (None, None, None))
    slot = ghz_module._last_table
    unnormalized = StateVector(n, np.ones(1 << n))
    wrong_sizes = {k: StateVector(k, np.ones(1 << k)) for k in ((1, MAX_PARTS + 1) if n == 3 else (1, 3))}
    counts.update(branches=0, norm=0)
    for state in (unnormalized, valid):
        with pytest.raises(ValueError, match=r"^unknown Hadamard convention 'bogus'$"):
            call(state, "bogus")
    for k, state in wrong_sizes.items():
        size_error = rf"^n must be in \[2, {MAX_PARTS}\], got {k}$" if n == 3 else rf"^expected a 2-qubit input, got {k}$"
        with pytest.raises(ValueError, match=size_error):
            call(state, "paper")
    assert counts == {"branches": 0, "norm": 0}
    with pytest.raises(ValueError, match=rf"^{name}: state is not normalized"):
        call(unnormalized, "paper")
    assert counts["branches"] == 0
    assert ghz_module._last_table is slot
