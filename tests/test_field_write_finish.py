"""A finished leaf is written field by field, not built through its frozen dataclass's __init__:
it must still be the object the public constructor builds from the same fields, in every way a
caller can look at it, and an adopted post state must hold only a constructed state's fields."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from qndnet.bell import BellQndOutcome, bell_branch_table, run_bell_qnd
from qndnet.ghz import GhzQndOutcome, ghz_branch_table, run_ghz_qnd
from qndnet.statevector import StateVector, random_state

#: (name, register size, shot function, table function, outcome class): Bell and GHZ at n = 2..8
KINDS = [("bell", 2, run_bell_qnd, bell_branch_table, BellQndOutcome)] + [
    (f"ghz.n{n}", n, run_ghz_qnd, ghz_branch_table, GhzQndOutcome) for n in range(2, 9)
]


def _shots(kind, convention, seed):
    """Distinct finished outcomes of one random state's shots, each the first to reach its leaf."""
    _, n, shot, _, _ = kind
    rng = np.random.default_rng(seed)
    state = random_state(n, rng)
    outcomes = {}
    for draws in rng.random((48, n)):
        outcome = shot(state, convention, draws.tolist())
        outcomes[id(outcome)] = outcome
    return list(outcomes.values())


def _comparable(value):
    """A value with every ndarray inside it as (dtype, shape, bytes), so tuples of them compare."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(_comparable(v) for v in value)
    return value


def _twin(outcome):
    """The outcome its public constructor builds from the same fields, the post state constructed too."""
    post = outcome.post_state
    fields = [getattr(outcome, f.name) for f in dataclasses.fields(outcome)][:-1]
    return type(outcome)(*fields, StateVector(post.num_qubits, post.amplitudes))


def _check_post_state(post):
    assert list(vars(post)) == ["num_qubits", "amplitudes"]
    assert not post.amplitudes.flags.writeable
    post.norm()
    assert list(vars(post)) == ["num_qubits", "amplitudes", "_norm"]


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("kind", KINDS, ids=[k[0] for k in KINDS])
def test_a_finished_shot_is_its_constructed_twin(kind, convention):
    outcomes = _shots(kind, convention, 2800 + kind[1])
    assert len(outcomes) > 1
    for outcome in outcomes:
        twin = _twin(outcome)
        assert type(outcome) is kind[4]
        assert list(vars(outcome)) == [f.name for f in dataclasses.fields(twin)]
        assert outcome == twin and twin == outcome
        assert repr(outcome) == repr(twin)
        assert _comparable(dataclasses.astuple(outcome)) == _comparable(dataclasses.astuple(twin))
        assert dataclasses.replace(outcome) == twin
        assert dataclasses.replace(outcome, probability=0.5) == dataclasses.replace(twin, probability=0.5)
        for copied in (pickle.loads(pickle.dumps(outcome)), copy.deepcopy(outcome)):
            assert type(copied) is type(outcome) and copied == outcome and repr(copied) == repr(outcome)
            assert not copied.post_state.amplitudes.flags.writeable
        for field in dataclasses.fields(outcome):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(outcome, field.name, None)
        assert outcome == twin  # the refused assignments changed nothing


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("kind", KINDS, ids=[k[0] for k in KINDS])
def test_an_adopted_post_state_holds_only_its_fields(kind, convention):
    for outcome in _shots(kind, convention, 2900 + kind[1]):
        _check_post_state(outcome.post_state)
        assert outcome.post_state == StateVector(outcome.post_state.num_qubits, outcome.post_state.amplitudes)
    _, n, _, table, _ = kind
    rows = table(random_state(n, np.random.default_rng(3000 + n)), convention)
    live = [post for _, _, _, post in rows if post is not None]
    assert live
    for post in live:
        _check_post_state(post)
        assert post == StateVector(n, post.amplitudes)
        assert repr(post) == repr(StateVector(n, post.amplitudes))

