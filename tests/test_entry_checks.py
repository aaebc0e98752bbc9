"""Conventions, gates, labels, label tokens, bits, noise arguments, seeds and operator arguments are checked at
every public entry, before any cache or draw: whatever their type, a bad one raises ValueError, never TypeError or
AttributeError."""

import dataclasses
import re

import numpy as np
import pytest

from qndnet.auth import AttackerModel, apply_noise, attacker_round_distribution, enroll, security_sweep, verify_session
from qndnet.bell_operator import (
    BellOperatorSpec,
    bell_operator_n,
    canonical_spec,
    chsh_operator,
    qnd_compatibility_check,
    spectral_radius,
)
from qndnet.bell import (
    BellLabel,
    bell_bits,
    bell_network_unitary_steps,
    bell_premeasurement_state,
    bell_state,
    parse_bell_label,
)
from qndnet.ghz import (
    decode_ghz,
    ghz_bits,
    ghz_network_gate_list,
    ghz_state,
    hadamard_layer,
    parse_ghz_label,
)
from qndnet.statevector import (
    GateKind,
    apply_gate,
    apply_gates,
    cnot,
    gates_to_matrix,
    hadamard,
    make_basis_state,
    random_state,
)

PAIR = random_state(2, np.random.default_rng(2900))
TRIPLE = random_state(3, np.random.default_rng(2901))

# name: a call with the convention argument (only what defines gates takes one)
ENTRIES = {
    "hadamard": lambda c: hadamard(0, c),
    "ghz_network_gate_list": lambda c: ghz_network_gate_list(3, c),
    "bell_network_unitary_steps": bell_network_unitary_steps,
    "bell_premeasurement_state": lambda c: bell_premeasurement_state(PAIR, c),
    "hadamard_layer": lambda c: hadamard_layer(PAIR, c),
}


@pytest.mark.parametrize("convention", [["paper"], "bogus", None], ids=["list", "bogus", "none"])
@pytest.mark.parametrize("name", ENTRIES)
def test_a_bad_convention_raises_value_error(name, convention):
    ENTRIES[name]("paper")
    with pytest.raises(ValueError, match=r"unknown Hadamard convention"):
        ENTRIES[name](convention)


# name: a call with one gate, alone or after a valid one in a gate list
GATE_ENTRIES = {
    "apply_gate": lambda gate: apply_gate(PAIR, gate),
    "apply_gates": lambda gate: apply_gates(PAIR, [cnot(0, 1), gate]),
    "gates_to_matrix": lambda gate: gates_to_matrix([cnot(0, 1), gate], 2),
}


@pytest.mark.parametrize("gate", [1, None, "h", GateKind.CNOT], ids=["int", "none", "str", "kind"])
@pytest.mark.parametrize("name", GATE_ENTRIES)
def test_a_gate_that_is_no_gate_op_raises_value_error_naming_it(name, gate):
    GATE_ENTRIES[name](hadamard(1))
    with pytest.raises(ValueError, match=re.escape(f"gate must be a GateOp, got {gate!r}")):
        GATE_ENTRIES[name](gate)


@pytest.mark.parametrize(
    "token", [None, b"+:10", 5, ["+", "10"], BellLabel.PSI_MINUS], ids=["none", "bytes", "int", "list", "member"]
)
def test_a_label_token_that_is_no_str_raises_value_error(token):
    with pytest.raises(ValueError, match="GHZ label must be a str"):
        parse_ghz_label(token)
    with pytest.raises(ValueError, match="unknown Bell label"):
        parse_bell_label(token)


def test_random_state_takes_an_integer_seed_or_a_generator():
    seeded = random_state(3, 1)
    assert seeded == random_state(3, np.random.default_rng(1)) == random_state(3, np.int64(1))
    rng = np.random.default_rng(7)
    twin = np.random.default_rng(7)
    assert random_state(3, rng) == random_state(3, twin)
    assert random_state(3, rng) == random_state(3, twin)  # a Generator is drawn from, not reseeded


@pytest.mark.parametrize(
    "seed", [None, -1, True, 1.0, "1", np.random.RandomState(1)], ids=["none", "negative", "bool", "float", "str", "legacy"]
)
def test_random_state_refuses_any_other_seed(seed):
    with pytest.raises(ValueError, match="seed must be"):
        random_state(3, seed)


# name: a call with the noise argument and a Generator seed (a sweep takes an integer seed only)
NOISE_ENTRIES = {
    "verify_session": lambda noise, rng: verify_session(enroll(2), noise=noise, seed=rng),
    "security_sweep": lambda noise, rng: security_sweep([1], AttackerModel.LEGITIMATE, 5, 1, noise=noise),
    "apply_noise": lambda noise, rng: apply_noise(PAIR, noise, rng),
}


@pytest.mark.parametrize("noise", ["depolarizing", None, 0.1], ids=["model", "none", "p"])
@pytest.mark.parametrize("name", NOISE_ENTRIES)
def test_a_noise_that_is_no_noise_spec_raises_value_error_before_any_draw(name, noise):
    rng = np.random.default_rng(2902)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="noise must be a NoiseSpec, got"):
        NOISE_ENTRIES[name](noise, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize(
    ("call", "label", "kind"),
    [
        (ghz_state, "+:101", "GhzLabel"),
        (ghz_bits, "+:101", "GhzLabel"),
        (bell_state, "phi+", "BellLabel"),
        (bell_bits, None, "BellLabel"),
        (lambda label: attacker_round_distribution(AttackerModel.ENTANGLED_DECOY, label), "phi+", "BellLabel"),
    ],
    ids=["ghz_state", "ghz_bits", "bell_state", "bell_bits", "attacker_round_distribution"],
)
def test_a_label_of_the_wrong_type_raises_value_error_naming_it(call, label, kind):
    with pytest.raises(ValueError, match=re.escape(f"label must be a {kind}, got {label!r}")):
        call(label)


@pytest.mark.parametrize("n", [2.0, True, "2", None], ids=["float", "bool", "str", "none"])
def test_decode_ghz_takes_an_integer_part_count(n):
    with pytest.raises(ValueError, match="n must be an integer count or index"):
        decode_ghz((0,), 0, n)
    assert decode_ghz((0,), 0, np.int64(2)) == decode_ghz((0,), 0, 2) == parse_ghz_label("+:11")


@pytest.mark.parametrize("n_range", [3, None, 2.5], ids=["int", "none", "float"])
def test_a_sweep_size_list_that_is_no_iterable_raises_value_error(n_range):
    with pytest.raises(ValueError, match=re.escape(f"n_range must be an iterable of account sizes, got {n_range!r}")):
        security_sweep(n_range, AttackerModel.LEGITIMATE, 5, 1)


@pytest.mark.parametrize("account", [None, [(0, 0)], "account"], ids=["none", "list", "str"])
def test_a_session_account_that_is_no_auth_account_raises_value_error_before_any_draw(account):
    rng = np.random.default_rng(2903)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"^account must be an? AuthAccount, got {re.escape(repr(account))}$"):
        verify_session(account, seed=rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("bits", [5, None], ids=["int", "none"])
def test_parity_bits_that_are_no_sequence_raise_value_error_naming_them(bits):
    with pytest.raises(ValueError, match=re.escape(f"part_parity_bits must be a sequence of bits, got {bits!r}")):
        decode_ghz(bits, 0, 3)


@pytest.mark.parametrize("bits", [5, None], ids=["int", "none"])
def test_basis_bits_that_are_no_bitstring_or_iterable_raise_value_error_naming_them(bits):
    with pytest.raises(ValueError, match=re.escape(f"bits must be a bitstring or an iterable of bits, got {bits!r}")):
        make_basis_state(2, bits)
    assert make_basis_state(2, iter((1, 0))) == make_basis_state(2, "10")  # any iterable of bits, read once


@pytest.mark.parametrize("pairs", [None, 3], ids=["none", "int"])
def test_direction_pairs_that_are_no_sequence_raise_value_error_naming_them(pairs):
    with pytest.raises(ValueError, match=re.escape(f"pairs must be a sequence of direction pairs, got {pairs!r}")):
        BellOperatorSpec(pairs)


def test_a_compatibility_check_names_a_gate_or_eigenstate_of_the_wrong_type():
    observable, network = bell_operator_n(canonical_spec(2)), ghz_network_gate_list(2)
    with pytest.raises(ValueError, match=re.escape("gate must be a GateOp, got 1")):
        qnd_compatibility_check(observable, [1])
    with pytest.raises(ValueError, match=re.escape("eigenstate must be a StateVector, got 1")):
        qnd_compatibility_check(observable, network, [1])
    assert qnd_compatibility_check(observable, network, [bell_state(BellLabel.PHI_PLUS)]).all_preserved


OBSERVABLE, NETWORK = bell_operator_n(canonical_spec(2)), ghz_network_gate_list(2)

# function.argument: (a call on that collection argument, its items, whether None is refused)
COLLECTIONS = {
    "decode_ghz.part_parity_bits": (lambda items: decode_ghz(items, 1, 3), (1, 0), True),
    "make_basis_state.bits": (lambda items: make_basis_state(3, items), (1, 0, 1), True),
    "BellOperatorSpec.pairs": (
        lambda items: bell_operator_n(BellOperatorSpec(items)).tobytes(),
        canonical_spec(3).pairs,
        True,
    ),
    "BellOperatorSpec.pair": (
        lambda items: bell_operator_n(BellOperatorSpec((items, canonical_spec(2).pairs[1]))).tobytes(),
        canonical_spec(2).pairs[0],
        True,
    ),
    "security_sweep.n_range": (lambda items: security_sweep(items, AttackerModel.FRESH_ZERO, 5, 1), (1, 3), True),
    "apply_gates.gates": (
        lambda items: apply_gates(TRIPLE, items),
        (hadamard(0), cnot(0, 1), cnot(1, 2), hadamard(2, "standard")),
        True,
    ),
    "gates_to_matrix.gates": (lambda items: gates_to_matrix(items, 4).tobytes(), NETWORK, True),
    "qnd_compatibility_check.network": (lambda items: qnd_compatibility_check(OBSERVABLE, items), NETWORK, True),
    # None is the default: check the observable's own eigenvectors
    "qnd_compatibility_check.eigenstates": (
        lambda items: qnd_compatibility_check(OBSERVABLE, NETWORK, items),
        tuple(bell_state(label) for label in BellLabel),
        False,
    ),
    "enroll.initial_labels": (
        lambda items: enroll(2, items, seed=0),
        (BellLabel.PSI_MINUS, BellLabel.PHI_PLUS),
        True,
    ),
}


@pytest.mark.parametrize("entry", COLLECTIONS)
def test_a_collection_argument_is_any_iterable_read_once_and_a_number_or_none_is_refused_by_name(entry):
    call, items, refuses_none = COLLECTIONS[entry]
    name = entry.rsplit(".", 1)[1]
    for bad in (5, None) if refuses_none else (5,):
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {bad!r}$"):
            call(bad)
    # repr: a compatibility report holds NaN fidelities, which never compare equal
    expected = repr(call(list(items)))
    assert repr(call(tuple(items))) == expected
    assert repr(call(item for item in items)) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_generator_network_gets_the_report_of_its_list(n):
    # one read of the network feeds both the span check and the branch maps
    observable = bell_operator_n(canonical_spec(n))
    for network in (ghz_network_gate_list(n), [cnot(0, n)]):
        from_list = qnd_compatibility_check(observable, network)
        from_generator = qnd_compatibility_check(observable, (gate for gate in network))
        for field in dataclasses.fields(from_list):
            assert repr(getattr(from_generator, field.name)) == repr(getattr(from_list, field.name)), field.name
    demolished = qnd_compatibility_check(observable, iter([cnot(0, n)]))
    assert not demolished.all_preserved and len(demolished.branches) == 2


@pytest.mark.parametrize("call", [bell_operator_n, chsh_operator], ids=["bell_operator_n", "chsh_operator"])
@pytest.mark.parametrize("spec", [None, canonical_spec(2).pairs], ids=["none", "pairs"])
def test_an_operator_spec_that_is_no_spec_raises_value_error_naming_it(call, spec):
    with pytest.raises(ValueError, match=re.escape(f"spec must be a BellOperatorSpec, got {spec!r}")):
        call(spec)


@pytest.mark.parametrize(
    "observable",
    [None, "x", *(np.eye(2).astype(kind) for kind in (object, bool, np.float16, np.longdouble, np.clongdouble))],
    ids=["none", "str", "object", "bool", "float16", "longdouble", "clongdouble"],
)
def test_spectral_radius_of_a_matrix_eigvalsh_cannot_take_raises_value_error(observable):
    with pytest.raises(ValueError, match="observable must hold integers, float32/64 or complex64/128, got"):
        spectral_radius(observable)


def test_spectral_radius_takes_every_matrix_type_eigvalsh_takes_as_it_is():
    for kind in (np.int8, np.uint64, np.float32, np.complex64, np.float64, np.complex128):
        assert spectral_radius(np.diag([1, 3]).astype(kind)) == 3.0
