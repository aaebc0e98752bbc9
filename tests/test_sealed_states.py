"""Sealed states: amplitudes that cannot be written, a norm taken once, leaves finished from one table."""

import copy
import pickle

import numpy as np
import pytest

from qndnet.auth import (
    _BELL_PAIRS,
    AttackerModel,
    NoiseSpec,
    apply_noise,
    enroll,
    security_sweep,
    verify_session,
)
from qndnet.bell import (
    BellLabel,
    _BELL_LABELS,
    bell_branch_table,
    bell_premeasurement_state,
    bell_projection_oracle,
    bell_state,
    decode_bell,
    run_bell_qnd,
)
from qndnet.ghz import (
    GhzLabel,
    _ghz_labels,
    decode_ghz,
    ghz_bits,
    ghz_branch_table,
    ghz_state,
    hadamard_layer,
    run_ghz_qnd,
)
from qndnet.statevector import (
    PAULI_X_MATRIX,
    StateVector,
    append_ancillas,
    apply_dense_operator,
    apply_gate,
    apply_gates,
    apply_single_qubit_matrix,
    cnot,
    drop_qubit,
    from_dump,
    hadamard,
    make_basis_state,
    measure_qubit,
    random_state,
    to_dump,
)


def _public_states():
    """(name, state) for a StateVector from every public call that returns one."""
    rng = np.random.default_rng(41)
    pair, triple = random_state(2, rng), random_state(3, rng)
    account = enroll(3, seed=4)
    verify_session(account, seed=5)
    yield "StateVector", StateVector(2, [1.0, 0.0, 0.0, 0.0])
    yield "make_basis_state", make_basis_state(3, "101")
    yield "random_state", triple
    yield "normalized", StateVector(1, [3.0, 4.0]).normalized()
    yield "apply_gate.hadamard", apply_gate(triple, hadamard(1))
    yield "apply_gate.cnot", apply_gate(triple, cnot(0, 2))
    yield "apply_gates", apply_gates(triple, [hadamard(0), cnot(0, 1)])
    yield "apply_single_qubit_matrix", apply_single_qubit_matrix(pair, 1, PAULI_X_MATRIX)
    yield "apply_dense_operator", apply_dense_operator(pair, np.eye(4))
    yield "measure_qubit", measure_qubit(triple, 1, 0.3).post_state
    yield "drop_qubit", drop_qubit(make_basis_state(2, "01"), 0, 0)
    yield "append_ancillas", append_ancillas(pair, 2)
    yield "from_dump", from_dump(to_dump(triple))
    yield "copy.deepcopy", copy.deepcopy(triple)
    yield "pickle", pickle.loads(pickle.dumps(triple))
    yield "ghz_state", ghz_state(GhzLabel("-", "101"))
    yield "hadamard_layer", hadamard_layer(triple)
    yield "run_ghz_qnd", run_ghz_qnd(random_state(4, rng), (0.2, 0.4, 0.6, 0.8)).post_state
    for n in (3, 7):  # a shallow and a deep staged table
        for k, (_, _, _, post) in enumerate(ghz_branch_table(random_state(n, rng))):
            if post is not None and k % 5 == 0:
                yield f"ghz_branch_table.n{n}.{k}", post
    yield "bell_state", bell_state(BellLabel.PSI_MINUS)
    yield "bell_premeasurement_state", bell_premeasurement_state(pair)
    yield "run_bell_qnd", run_bell_qnd(random_state(2, rng), (0.3, 0.7)).post_state
    for k, (_, _, _, post) in enumerate(bell_branch_table(pair)):
        yield f"bell_branch_table.{k}", post
    for k, (_, _, basis) in enumerate(bell_projection_oracle(pair)):
        yield f"bell_projection_oracle.{k}", basis
    yield "apply_noise.hit", apply_noise(bell_state(BellLabel.PHI_PLUS), NoiseSpec("depolarizing", 1.0), 3)
    yield "apply_noise.none", apply_noise(bell_state(BellLabel.PHI_PLUS), NoiseSpec(), 3)
    for k, stored in enumerate(_BELL_PAIRS):
        yield f"auth._BELL_PAIRS.{k}", stored
    for k, stored in enumerate(account.pairs):
        yield f"verify_session.pairs.{k}", stored


@pytest.mark.parametrize("name, state", list(_public_states()), ids=lambda v: v if isinstance(v, str) else "")
def test_amplitudes_refuse_to_become_writable(name, state):
    amps = state.amplitudes
    with pytest.raises(ValueError):
        amps.flags.writeable = True
    with pytest.raises(ValueError):
        amps[0] = 0.0
    assert amps.base is not None and not amps.base.flags.writeable


def test_constructor_copies_its_input():
    source = np.array([0.6, 0.8j])
    state = StateVector(1, source)
    source[0] = 1.0
    assert not np.shares_memory(state.amplitudes, source)
    assert state.amplitudes[0] == 0.6


def test_overwriting_a_memoized_state_is_refused():
    # two shots leave the state's table in the memo slot; its amplitudes cannot then be swapped
    # for |000>, so a third shot answers for the state it was given, as a fresh copy does
    rng = np.random.default_rng(2)
    state = random_state(3, rng)
    draws = rng.random((3, 3))
    run_ghz_qnd(state, draws[0])
    run_ghz_qnd(state, draws[1])
    with pytest.raises(ValueError):
        state.amplitudes.flags.writeable = True
    with pytest.raises(ValueError):
        state.amplitudes[:] = make_basis_state(3, "000").amplitudes
    out = run_ghz_qnd(state, draws[2])
    fresh = run_ghz_qnd(StateVector(3, state.amplitudes), draws[2])
    assert (out.label, out.probability) == (fresh.label, fresh.probability)
    assert out.post_state.amplitudes.tobytes() == fresh.post_state.amplitudes.tobytes()


def _constructed_states():
    """(name, state) for a StateVector built by the public constructor, directly or inside a call."""
    rng = np.random.default_rng(42)
    triple = random_state(3, rng)
    yield "StateVector", StateVector(2, [1.0, 0.0, 0.0, 0.0])
    yield "random_state", triple
    yield "make_basis_state", make_basis_state(3, "101")
    yield "ghz_state", ghz_state(GhzLabel("-", "101"))
    yield "bell_state", bell_state(BellLabel.PSI_MINUS)
    yield "normalized", StateVector(1, [3.0, 4.0]).normalized()
    yield "apply_gate.hadamard", apply_gate(triple, hadamard(1))
    yield "apply_gate.cnot", apply_gate(triple, cnot(0, 2))
    yield "apply_gates", apply_gates(triple, [hadamard(0), cnot(0, 1)])
    yield "measure_qubit", measure_qubit(triple, 1, 0.3).post_state
    yield "from_dump", from_dump(to_dump(triple))
    yield "pickle", pickle.loads(pickle.dumps(triple))


@pytest.mark.parametrize("name, state", list(_constructed_states()), ids=lambda v: v if isinstance(v, str) else "")
def test_constructed_amplitudes_refuse_a_writable_base(name, state):
    base = state.amplitudes.base
    with pytest.raises(ValueError):
        base.flags.writeable = True
    with pytest.raises(ValueError):
        base[0] = 0.0


def test_overwriting_a_memoized_state_through_its_base_is_refused():
    # the base of a constructed state's view sits over an immutable copy, so after two shots
    # it cannot be made writable and rewritten to |000>: a third shot answers as a fresh copy does
    rng = np.random.default_rng(2)
    state = random_state(3, rng)
    draws = rng.random((3, 3))
    run_ghz_qnd(state, draws[0])
    run_ghz_qnd(state, draws[1])
    base = state.amplitudes.base
    with pytest.raises(ValueError):
        base.flags.writeable = True
    with pytest.raises(ValueError):
        base[:] = make_basis_state(3, "000").amplitudes
    out = run_ghz_qnd(state, draws[2])
    fresh = run_ghz_qnd(StateVector(3, state.amplitudes), draws[2])
    assert (out.label, out.probability) == (fresh.label, fresh.probability)
    assert out.post_state.amplitudes.tobytes() == fresh.post_state.amplitudes.tobytes()


def test_constructor_copies_its_input_byte_for_byte():
    # signed zeros and strided or non-native-order input included
    source = np.array([-0.0, 0.6 - 0.0j, 0.8j, complex(0.0, -0.0)])
    for given in (source, source.tolist(), np.repeat(source, 2)[::2], source.astype(">c16")):
        assert StateVector(2, given).amplitudes.tobytes() == source.tobytes()


def test_norm_is_taken_once(monkeypatch):
    real_norm = np.linalg.norm
    calls = []
    monkeypatch.setattr(np.linalg, "norm", lambda a: calls.append(a.size) or real_norm(a))
    state = StateVector(3, np.full(8, np.sqrt(1 / 8)))
    for draws in ((0.1, 0.2, 0.3), (0.9, 0.8, 0.7), (0.1, 0.2, 0.3)):
        run_ghz_qnd(state, draws)
    ghz_branch_table(state)
    assert calls == [8]


@pytest.mark.parametrize(
    "amplitudes", [np.ones(8), [np.nan] + [0.0] * 7, [np.inf] + [0.0] * 7], ids=["norm-sqrt8", "nan", "inf"]
)
def test_a_bad_cached_norm_is_rejected_on_every_shot(amplitudes):
    state = StateVector(3, amplitudes)
    for _ in range(3):
        with pytest.raises(ValueError, match="not normalized"):
            run_ghz_qnd(state, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="not normalized"):
            ghz_branch_table(state)
    pair = StateVector(2, np.asarray(amplitudes)[:4])
    for _ in range(3):
        with pytest.raises(ValueError, match="not normalized"):
            run_bell_qnd(pair, (0.5, 0.5))


@pytest.mark.parametrize("n", range(2, 9))
def test_label_table_equals_the_public_decoders(n):
    table = _ghz_labels(n)
    assert len(table) == 1 << n
    for leaf, (parities, g, label) in enumerate(table):
        raw = tuple(int(c) for c in format(leaf, f"0{n}b"))
        assert parities == raw[:-1]
        assert g == raw[-1] ^ (n & 1)
        assert label == decode_ghz(parities, g, n)
        assert ghz_bits(label) == (parities, g)
    if n == 2:
        assert _BELL_LABELS == {2: tuple((leaf >> 1, leaf & 1, decode_bell(leaf >> 1, leaf & 1)) for leaf in range(4))}


@pytest.mark.parametrize("n", [2, 5, 8])
def test_ndarray_and_list_draws_give_the_same_outcome_objects(n):
    rng = np.random.default_rng(300 + n)
    state = random_state(n, rng)
    shots = rng.random((6, n))
    twin = run_ghz_qnd(StateVector(n, state.amplitudes), shots[0].tolist())
    first = run_ghz_qnd(state, shots[0])  # each a fresh state's first shot, on its own table
    assert (first.label, first.global_parity_bit, first.probability) == (
        twin.label, twin.global_parity_bit, twin.probability
    )
    assert first.post_state.amplitudes.tobytes() == twin.post_state.amplitudes.tobytes()
    for draws in shots:  # the first shot's table, and one outcome per leaf
        assert run_ghz_qnd(state, draws) is run_ghz_qnd(state, draws.tolist())
    if n == 2:
        pair = random_state(2, rng)
        run_bell_qnd(pair, shots[0])  # the first shot expands the table; later shots read it
        for draws in shots:
            assert run_bell_qnd(pair, draws) is run_bell_qnd(pair, draws.tolist())


def test_ndarray_draws_are_still_range_checked():
    state = random_state(3, np.random.default_rng(8))
    for _ in range(2):  # a fresh state's first shot, then a shot on its kept table
        with pytest.raises(ValueError, match="random draw"):
            run_ghz_qnd(state, np.array([0.5, 1.0, 0.5]))
        run_ghz_qnd(state, np.array([0.5, 0.5, 0.5]))


# -- seeds and decoded bits at the library boundary --

BAD_SEEDS = [True, False, 1.5, -1, "3", None]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_bad_seed_raises_before_any_draw_or_account_change(seed):
    account = enroll(2, [BellLabel.PHI_PLUS, BellLabel.PSI_MINUS])
    with pytest.raises(ValueError, match="seed must be"):
        enroll(2, seed=seed)
    for password_ok in (True, False):
        with pytest.raises(ValueError, match="seed must be"):
            verify_session(account, AttackerModel.FRESH_ZERO, seed=seed, password_ok=password_ok)
    assert account.status == "active" and account.records == [(0, 0), (1, 1)]
    with pytest.raises(ValueError, match="seed must be"):
        apply_noise(bell_state(BellLabel.PHI_PLUS), NoiseSpec("depolarizing", 0.5), seed)
    with pytest.raises(ValueError, match="seed must be"):
        security_sweep([1, 2], AttackerModel.FRESH_ZERO, 10, seed)


def test_generator_and_numpy_integer_seeds_still_pass():
    assert enroll(4, seed=np.int64(9)).records == enroll(4, seed=9).records
    assert enroll(4, seed=np.random.default_rng(9)).records == enroll(4, seed=9).records
    results = [
        verify_session(enroll(3, seed=1), AttackerModel.RANDOM_BELL_GUESS, threshold=0.0, seed=seed)
        for seed in (7, np.uint8(7), np.random.default_rng(7))
    ]
    assert results[0] == results[1] == results[2]
    noisy = NoiseSpec("depolarizing", 1.0)
    outs = [apply_noise(bell_state(BellLabel.PHI_PLUS), noisy, seed).amplitudes for seed in (3, np.int32(3))]
    assert outs[0].tobytes() == outs[1].tobytes()
    rows = [security_sweep([2], AttackerModel.LEGITIMATE, 20, seed) for seed in (11, np.int64(11))]
    assert rows[0] == rows[1]


@pytest.mark.parametrize("bits", [(True, False), (False, True), (1.0, 0), (0, 1.0), (2, 0), (0, -1)], ids=repr)
def test_decode_bell_takes_integer_bits_only(bits):
    with pytest.raises(ValueError, match="bit must be"):
        decode_bell(*bits)


@pytest.mark.parametrize(
    "parities, g", [((1.0,), 0), ((True,), 0), ((0,), False), ((0,), 1.0), ((0, 2), 0), ((0, 1), -1)], ids=repr
)
def test_decode_ghz_takes_integer_bits_only(parities, g):
    with pytest.raises(ValueError, match="bit must be"):
        decode_ghz(parities, g, len(parities) + 1)


def test_decoders_take_numpy_integer_bits():
    assert decode_bell(np.int64(1), np.uint8(1)) is BellLabel.PSI_MINUS
    assert decode_ghz((np.int64(1), np.int8(0)), np.int64(1), 3) == GhzLabel("-", "100")
