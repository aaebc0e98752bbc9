"""CLI tests: outputs, exit codes, determinism, flag inventory."""

import json
from pathlib import Path

import numpy as np
import pytest

from qndnet import cli
from qndnet.bell import bell_projection_oracle, bell_state
from qndnet.cli import build_parser, main
from qndnet.ghz import ghz_projection_oracle, ghz_state
from qndnet.statevector import load_dump, random_state, to_dump


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bell_phi_plus(capsys):
    code, out, err = run_cli(capsys, "bell", "--input", "phi+", "--seed", "1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["parity"] == 0 and payload["phase"] == 0
    assert payload["label"] == "phi+"
    assert payload["probability"] == pytest.approx(1.0, abs=1e-10)


def test_bell_bogus_input_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bell", "--input", "bogus"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_bell_reads_state_dump(tmp_path, capsys):
    state = random_state(2, np.random.default_rng(6))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(to_dump(state)))
    code, out, _ = run_cli(capsys, "bell", "--input", str(path), "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] in ("phi+", "phi-", "psi+", "psi-")
    assert 0.0 <= payload["probability"] <= 1.0


def test_bell_unnormalized_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"num_qubits": 2, "amplitudes": [[1, 0]] * 4}))
    code, out, err = run_cli(capsys, "bell", "--input", str(path))
    assert code == 1 and out == "" and "error" in err


def test_bell_nan_file_exits_1(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"num_qubits": 2, "amplitudes": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}')
    code, out, err = run_cli(capsys, "bell", "--input", str(path))
    assert code == 1 and out == "" and "not normalized" in err


def test_bell_three_qubit_file_exits_1(tmp_path, capsys):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(to_dump(random_state(3, np.random.default_rng(4)))))
    code, out, err = run_cli(capsys, "bell", "--input", str(path))
    assert code == 1 and out == "" and "2-qubit" in err


def test_ghz_label_run(capsys):
    code, out, _ = run_cli(capsys, "ghz", "--n", "3", "--label=-:101", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["part_parity"] == [1, 1]
    assert payload["global_parity"] == 1
    assert payload["label"] == "-:101"
    assert payload["probability"] == pytest.approx(1.0, abs=1e-10)


def test_ghz_random_input(capsys):
    code, out, _ = run_cli(capsys, "ghz", "--n", "4", "--random-input", "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["part_parity"]) == 3


def test_ghz_flag_validation():
    for argv in (
        ["ghz", "--n", "3", "--label", "?:101"],
        ["ghz", "--n", "3", "--label", "+:1011"],
        ["ghz", "--n", "3"],
        ["ghz", "--n", "3", "--label", "+:101", "--random-input"],
        ["ghz", "--n", "9", "--random-input"],
        ["bellop", "--n", "1"],
        ["bellop", "--n", "9"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_bellop_canonical_eigen(capsys):
    code, out, _ = run_cli(capsys, "bellop", "--n", "2", "--eigen")
    assert code == 0
    payload = json.loads(out)
    bound = 2 * np.sqrt(2)
    assert payload["spectral_radius"] == pytest.approx(bound, abs=1e-10)
    np.testing.assert_allclose(
        payload["eigenvalues"], [-bound, 0.0, 0.0, bound], atol=1e-10
    )
    assert payload["top_eigenvector_overlaps"]["+:11"] == pytest.approx(1.0, abs=1e-10)


def test_bellop_spec_file(tmp_path, capsys):
    spec = {"pairs": [[[0, 0, 1], [0, 0, 1]], [[0, 0, 1], [0, 0, 1]]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "bellop", "--n", "2", "--spec", str(path), "--eigen")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["eigenvalues"], [-2, -2, 2, 2], atol=1e-10)


def test_bellop_bad_spec_exits_1(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"pairs": [[[0, 0, 2], [0, 0, 1]], [[0, 0, 1], [0, 0, 1]]]}))
    code, out, err = run_cli(capsys, "bellop", "--n", "2", "--spec", str(path))
    assert code == 1 and "error" in err


def test_bellop_nan_direction_exits_1(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"pairs": [[[NaN, 0, 1], [0, 0, 1]], [[0, 0, 1], [0, 0, 1]]]}')
    code, out, err = run_cli(capsys, "bellop", "--n", "2", "--spec", str(path))
    assert code == 1 and out == "" and "unit vector" in err


def test_auth_simulate_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "auth", "simulate", "--pairs", "1,2", "--trials", "400",
        "--attacker", "fresh-zero", "--seed", "1",
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [1, 2]
    assert rows[0]["analytic_rate"] == pytest.approx(0.25, abs=1e-12)
    assert rows[1]["analytic_rate"] == pytest.approx(0.0625, abs=1e-12)
    for row in rows:
        assert set(row) == {
            "n", "attacker", "noise", "p", "trials",
            "accept_rate", "analytic_rate", "wilson_low", "wilson_high",
        }


def test_auth_simulate_takes_a_large_account_in_one_trial(capsys):
    # the acceptance tail keeps only the counts that can still accept: linear in n at threshold 1
    code, out, _ = run_cli(capsys, "auth", "simulate", "--pairs", "100000", "--trials", "1")
    assert code == 0
    (row,) = json.loads(out)
    assert row["n"] == 100000 and row["trials"] == 1


def test_auth_simulate_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "auth", "simulate", "--pairs", "1", "--trials", "100",
        "--attacker", "decoy", "--noise", "dephasing", "--p", "0.1",
        "--seed", "2", "--out", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,attacker,noise,p,trials,accept_rate,analytic_rate,wilson_low,wilson_high"
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[1] == "decoy" and fields[2] == "dephasing"


@pytest.mark.parametrize("out", ["json", "csv"])
@pytest.mark.parametrize("noise", ["none", "dephasing"])
def test_auth_simulate_reads_a_negative_zero_p_as_zero(capsys, noise, out):
    def simulate(p):
        argv = ("auth", "simulate", "--pairs", "1", "--trials", "3", "--noise", noise, "--p", p, "--out", out)
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        return stdout

    assert simulate("-0") == simulate("0")


def test_auth_flag_validation(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a rejected flag reached the sweep")

    monkeypatch.setattr(cli, "security_sweep", no_sweep)  # exit 2 comes before any draw
    for argv in (
        ["auth", "simulate", "--pairs", "0", "--trials", "10"],
        ["auth", "simulate", "--pairs", "1", "--trials", "0"],
        ["auth", "simulate", "--pairs", "1", "--trials", "10", "--p", "1.5"],
        ["auth", "simulate", "--pairs", "1", "--trials", "10", "--p", "nan"],
        ["auth", "simulate", "--pairs", "1", "--trials", "10", "--noise", "none", "--p", "-0.5"],
        ["auth", "simulate", "--pairs", "1", "--trials", "10", "--p", "0.5"],
        ["auth", "simulate", "--pairs", "1", "--trials", "10", "--threshold", "nan"],
        ["auth", "simulate", "--pairs", "1", "--trials", "10", "--threshold", "1.5"],
        ["auth", "simulate", "--pairs", "1", "--trials", "10", "--attacker", "mallory"],
        ["auth", "simulate", "--pairs", "1", "--trials", "10", "--seed", "-1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["auth", "simulate", "--pairs", "1", "--trials", "10", "--p", "1.5"], "usage: qnd auth simulate"),
        (["auth", "simulate", "--pairs", "1", "--trials", "10", "--threshold", "2"], "usage: qnd auth simulate"),
        (["ghz", "--n", "3", "--label", "+:10"], "usage: qnd ghz"),
        # the flag left shots: an unknown flag is refused under the subcommand's usage line
        (["bell", "--input", "phi+", "--convention", "paper"], "usage: qnd bell"),
        (["ghz", "--n", "3", "--random-input", "--convention", "standard"], "usage: qnd ghz"),
    ],
)
def test_value_errors_print_the_subcommand_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(usage + " ")


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["bell", "--input", "phi+", "--frobnicate"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bell", "--input", "psi-", "--seed", "7"],
        ["ghz", "--n", "5", "--random-input", "--seed", "21"],
        ["bellop", "--n", "3", "--eigen"],
        ["auth", "simulate", "--pairs", "1,2", "--trials", "300", "--attacker", "guess", "--seed", "5"],
        ["auth", "simulate", "--pairs", "2", "--trials", "200", "--out", "csv", "--seed", "5"],
    ],
)
def test_repeated_invocations_are_byte_identical(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second and first[0] == 0


# golden flag inventory: every flag the dispatcher accepts appears in help
EXPECTED_FLAGS = {
    "bell": {"--input", "--seed"},
    "ghz": {"--n", "--label", "--random-input", "--seed"},
    "bellop": {"--n", "--spec", "--eigen"},
    ("auth", "simulate"): {
        "--pairs", "--trials", "--attacker", "--noise", "--p", "--threshold", "--seed", "--out",
    },
}


def _subparser_map(parser):
    actions = {}
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            actions.update(action.choices)
    return actions


def test_help_lists_every_flag():
    parser = build_parser()
    top = _subparser_map(parser)
    assert set(top) == {"bell", "ghz", "bellop", "auth"}
    for key, expected in EXPECTED_FLAGS.items():
        if isinstance(key, tuple):
            sub = _subparser_map(top[key[0]])[key[1]]
        else:
            sub = top[key]
        declared = {
            opt for action in sub._actions for opt in action.option_strings
        } - {"-h", "--help"}
        assert declared == expected
        help_text = sub.format_help()
        for flag in expected:
            assert flag in help_text


# stdout of seeded bell/ghz/bellop runs; seeded output must stay byte-identical, and a
# re-recording is a documented break named in its "source"
GOLDEN_CLI = Path(__file__).parent / "data" / "golden_cli.json"
GOLDEN = json.loads(GOLDEN_CLI.read_text())
#: one case a run, named by its argv, so a changed run does not hide the runs after it
GOLDEN_IDS = ["_".join(arg.lstrip("-") for arg in run["argv"]) for run in GOLDEN["runs"]]
#: the bell and ghz runs, which print a measured probability
MEASURED = [(run, name) for run, name in zip(GOLDEN["runs"], GOLDEN_IDS) if run["argv"][0] in ("bell", "ghz")]


@pytest.fixture
def golden_dump(tmp_path):
    dump = tmp_path / "state.json"
    dump.write_text(json.dumps(GOLDEN["dump"]))
    return dump


def golden_argv(run, dump):
    return [str(dump) if arg == "{dump}" else arg for arg in run["argv"]]


def test_golden_file_holds_every_run():
    assert len(GOLDEN["runs"]) == 40 and len(MEASURED) == 37
    assert len(set(GOLDEN_IDS)) == 40


@pytest.mark.parametrize("run", GOLDEN["runs"], ids=GOLDEN_IDS)
def test_golden_stdout_is_byte_identical(run, golden_dump, capsys):
    code, out, err = run_cli(capsys, *golden_argv(run, golden_dump))
    assert (code, err) == (0, "")
    assert out == run["stdout"]


@pytest.mark.parametrize("run", [run for run, _ in MEASURED], ids=[name for _, name in MEASURED])
def test_golden_probabilities_match_the_projection_oracles(run, golden_dump):
    # each bell/ghz input rebuilt from its argv: a recording is checked against the oracle, not the engine
    args = build_parser().parse_args(golden_argv(run, golden_dump))
    if args.command == "bell":
        state = load_dump(args.input) if isinstance(args.input, Path) else bell_state(args.input)
        oracle = {label.token: p for label, p, _ in bell_projection_oracle(state)}
    else:
        rng = np.random.default_rng(args.seed)
        state = random_state(args.n, rng) if args.random_input else ghz_state(args.label)
        oracle = {label.token: p for label, p in ghz_projection_oracle(state)}
    printed = json.loads(run["stdout"])
    assert abs(printed["probability"] - oracle[printed["label"]]) <= 1e-12
