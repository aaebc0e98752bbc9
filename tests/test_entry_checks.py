"""Conventions, labels, label tokens, bits, noise arguments, seeds and operator arguments are checked at every
public entry, before any cache or draw: whatever their type, a bad one raises ValueError, never TypeError or
AttributeError."""

import re

import numpy as np
import pytest

from qndnet.auth import AttackerModel, apply_noise, attacker_round_distribution, enroll, security_sweep, verify_session
from qndnet.bell_operator import BellOperatorSpec, bell_operator_n, canonical_spec, qnd_compatibility_check
from qndnet.bell import (
    BellLabel,
    bell_bits,
    bell_branch_table,
    bell_premeasurement_state,
    bell_state,
    parse_bell_label,
    run_bell_qnd,
)
from qndnet.ghz import (
    decode_ghz,
    ghz_bits,
    ghz_branch_table,
    ghz_network_gate_list,
    ghz_state,
    hadamard_layer,
    parse_ghz_label,
    run_ghz_qnd,
)
from qndnet.statevector import make_basis_state, random_state

PAIR = random_state(2, np.random.default_rng(2900))
TRIPLE = random_state(3, np.random.default_rng(2901))

# name: a call with the convention argument
ENTRIES = {
    "run_ghz_qnd": lambda c: run_ghz_qnd(random_state(3, np.random.default_rng(1)), c, (0.5,) * 3),
    "run_ghz_qnd.slot": lambda c: run_ghz_qnd(TRIPLE, c, (0.5,) * 3),
    "run_bell_qnd": lambda c: run_bell_qnd(random_state(2, np.random.default_rng(1)), c, (0.5, 0.5)),
    "run_bell_qnd.slot": lambda c: run_bell_qnd(PAIR, c, (0.5, 0.5)),
    "ghz_branch_table": lambda c: ghz_branch_table(TRIPLE, c),
    "bell_branch_table": lambda c: bell_branch_table(PAIR, c),
    "ghz_network_gate_list": lambda c: ghz_network_gate_list(3, c),
    "bell_premeasurement_state": lambda c: bell_premeasurement_state(PAIR, c),
    "hadamard_layer": lambda c: hadamard_layer(PAIR, c),
}


@pytest.mark.parametrize("convention", [["paper"], "bogus", None], ids=["list", "bogus", "none"])
@pytest.mark.parametrize("name", ENTRIES)
def test_a_bad_convention_raises_value_error(name, convention):
    # the ".slot" entries hold the memo slot under "paper" first, so the bad convention misses it
    ENTRIES[name]("paper")
    with pytest.raises(ValueError, match=r"unknown Hadamard convention"):
        ENTRIES[name](convention)


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
