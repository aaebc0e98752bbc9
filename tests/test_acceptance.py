"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Every tolerance and trial count is pinned here; nothing is calibrated later.
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np

from qndnet.auth import AttackerModel, attacker_round_distribution, security_sweep
from qndnet.bell import (
    BELL_DECODE_ORDER,
    BellLabel,
    bell_branch_table,
    bell_premeasurement_state,
    bell_projection_oracle,
    bell_state,
    run_bell_qnd,
)
from qndnet.bell_operator import canonical_chsh_spec, chsh_operator, spectral_radius
from qndnet.cli import main as cli_main
from qndnet.ghz import (
    GhzLabel,
    all_canonical_labels,
    ghz_branch_table,
    ghz_projection_oracle,
    ghz_state,
    hadamard_layer,
    run_ghz_qnd,
)
from qndnet.statevector import (
    StateVector,
    fidelity_up_to_global_phase,
    random_state,
)

TWO_SQRT_TWO = 2.0 * np.sqrt(2.0)

TABLE_1 = {
    BellLabel.PHI_PLUS: (0, 0),
    BellLabel.PHI_MINUS: (0, 1),
    BellLabel.PSI_PLUS: (1, 0),
    BellLabel.PSI_MINUS: (1, 1),
}


def _verdict(number: int, name: str, ok: bool, started: float, budget: float | None, detail: str = ""):
    elapsed = time.monotonic() - started
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} ({elapsed:.2f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_decoding_table_reproduction():
    started = time.monotonic()
    ok = True
    for label, bits in TABLE_1.items():
        outcome = run_bell_qnd(bell_state(label), (0.37, 0.61))
        ok &= (outcome.parity_bit, outcome.phase_bit) == bits
        ok &= abs(outcome.probability - 1.0) < 1e-10
        ok &= fidelity_up_to_global_phase(outcome.post_state, bell_state(label)) >= 1 - 1e-10
    _verdict(1, "Bell ancilla decoding table", ok, started, budget=1.0)


def test_criterion_2_four_step_branch_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(20240515)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coeffs /= np.linalg.norm(coeffs)
        amps = sum(
            c * bell_state(label).amplitudes for c, label in zip(coeffs, BELL_DECODE_ORDER)
        )
        joint = bell_premeasurement_state(StateVector(2, amps), "paper")
        branches = joint.amplitudes.reshape(4, 4)
        for a, (c, label) in enumerate(zip(coeffs, BELL_DECODE_ORDER)):
            error = np.max(np.abs(branches[:, a] - c * bell_state(label).amplitudes))
            worst = max(worst, float(error))
    _verdict(2, "pre-measurement branch coefficients (exact signs)", worst < 1e-10,
             started, budget=5.0, detail=f"max amplitude error {worst:.2e}")


def test_criterion_3_phase_to_parity_identity():
    started = time.monotonic()
    rng = np.random.default_rng(31337)
    worst = 0.0

    def leakage(label: GhzLabel) -> float:
        image = hadamard_layer(ghz_state(label), "standard")
        bad_parity = 1 if label.sign == "+" else 0
        bad = [
            abs(a)
            for k, a in enumerate(image.amplitudes)
            if bin(k).count("1") % 2 == bad_parity
        ]
        return max(bad)

    for n in range(2, 6):
        for label in all_canonical_labels(n):
            worst = max(worst, leakage(label))
    for n in (6, 7, 8):
        for _ in range(200):
            bits = "1" + "".join(str(b) for b in rng.integers(0, 2, n - 1))
            sign = "+" if rng.integers(2) == 0 else "-"
            worst = max(worst, leakage(GhzLabel(sign, bits)))
    _verdict(3, "Hadamard layer maps sign to global parity", worst < 1e-12,
             started, budget=30.0, detail=f"max off-parity amplitude {worst:.2e}")


def test_criterion_4_network_equals_projection_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(271828)
    ok = True
    for _ in range(200):
        state = random_state(2, rng)
        oracle = {label: (p, post) for label, p, post in bell_projection_oracle(state)}
        for bits, label, prob, post in bell_branch_table(state):
            expected_p, expected_post = oracle[label]
            ok &= abs(prob - expected_p) < 1e-10
            if prob > 1e-9:
                ok &= fidelity_up_to_global_phase(post, expected_post) >= 1 - 1e-10
    for n in (2, 3, 4):
        for _ in range(50):
            state = random_state(n, rng)
            oracle_probs = dict(ghz_projection_oracle(state))
            for bits, label, prob, post in ghz_branch_table(state):
                ok &= abs(prob - oracle_probs[label]) < 1e-10
                if prob > 1e-9:
                    ok &= fidelity_up_to_global_phase(post, ghz_state(label)) >= 1 - 1e-10
    _verdict(4, "network outcomes equal brute-force projections", ok, started, budget=60.0)


def test_criterion_5_nondemolition_repetition():
    started = time.monotonic()
    rng = np.random.default_rng(1618)
    ok = True
    for label in BellLabel:
        state = bell_state(label)
        reference = None
        for _ in range(100):
            outcome = run_bell_qnd(state, tuple(rng.random(2)))
            bits = (outcome.parity_bit, outcome.phase_bit)
            reference = bits if reference is None else reference
            ok &= bits == reference
            state = outcome.post_state
        ok &= fidelity_up_to_global_phase(state, bell_state(label)) >= 1 - 1e-9
    for n in (2, 3, 4, 5):
        for label in all_canonical_labels(n):
            state = ghz_state(label)
            reference = None
            for _ in range(100):
                outcome = run_ghz_qnd(state, rng.random(n))
                bits = outcome.part_parity_bits + (outcome.global_parity_bit,)
                reference = bits if reference is None else reference
                ok &= bits == reference
                state = outcome.post_state
            ok &= fidelity_up_to_global_phase(state, ghz_state(label)) >= 1 - 1e-9
    _verdict(5, "repeated measurements agree and preserve the state", ok, started, budget=None)


def test_criterion_6_chsh_spectrum():
    started = time.monotonic()
    eigenvalues = np.linalg.eigvalsh(chsh_operator(canonical_chsh_spec()))
    ok = bool(
        np.all(np.abs(eigenvalues - np.array([-TWO_SQRT_TWO, 0.0, 0.0, TWO_SQRT_TWO])) < 1e-10)
    )
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(100):
        pairs = []
        for _ in range(2):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            pairs.append((a / np.linalg.norm(a), b / np.linalg.norm(b)))
        from qndnet.bell_operator import BellOperatorSpec

        radius = spectral_radius(chsh_operator(BellOperatorSpec(tuple(pairs))))
        worst = max(worst, radius)
        ok &= radius <= TWO_SQRT_TWO + 1e-9
    _verdict(6, "CHSH spectrum and Tsirelson bound", ok, started, budget=None,
             detail=f"max random-setting radius {worst:.12f}")


def test_criterion_7_security_scaling():
    started = time.monotonic()
    ok = True
    attackers = (
        AttackerModel.FRESH_ZERO,
        AttackerModel.FRESH_HAAR,
        AttackerModel.ENTANGLED_DECOY,
        AttackerModel.RANDOM_BELL_GUESS,
    )
    worst_dev = 0.0
    for attacker in attackers:
        for label in BellLabel:
            dist = attacker_round_distribution(attacker, label)
            worst_dev = max(worst_dev, float(np.max(np.abs(dist - 0.25))))
    ok &= worst_dev < 1e-10

    analytic_rows = security_sweep(range(1, 9), AttackerModel.FRESH_ZERO, trials=1, seed=7)
    for row in analytic_rows:
        ok &= abs(row.analytic_rate - 0.25 ** row.n) < 1e-10

    empirical_rows = security_sweep([1, 2], AttackerModel.FRESH_ZERO, trials=100_000, seed=7)
    for row in empirical_rows:
        ok &= row.wilson_low <= row.analytic_rate <= row.wilson_high
    rates = {row.n: row.accept_rate for row in empirical_rows}
    _verdict(
        7, "per-round 1/4 and (1/4)^n session scaling", ok, started, budget=60.0,
        detail=f"uniformity dev {worst_dev:.1e}; empirical n=1: {rates[1]:.4f}, n=2: {rates[2]:.4f}",
    )


def test_criterion_8_cli_determinism():
    started = time.monotonic()
    invocations = [
        ["bell", "--input", "phi-", "--seed", "11"],
        ["bell", "--input", "psi+", "--seed", "12"],
        ["ghz", "--n", "4", "--random-input", "--seed", "13"],
        ["ghz", "--n", "3", "--label=-:110", "--seed", "14"],
        ["bellop", "--n", "3", "--eigen"],
        ["auth", "simulate", "--pairs", "1,2", "--trials", "2000",
         "--attacker", "fresh-haar", "--seed", "15"],
        ["auth", "simulate", "--pairs", "2", "--trials", "1000",
         "--noise", "depolarizing", "--p", "0.2", "--seed", "16", "--out", "csv"],
    ]
    ok = True
    for argv in invocations:
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = cli_main(list(argv))
            ok &= code == 0
            outputs.append(buffer.getvalue().encode())
        ok &= outputs[0] == outputs[1]
    # sanity: the seeded bell run decodes deterministically
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        cli_main(["bell", "--input", "phi+", "--seed", "1"])
    payload = json.loads(buffer.getvalue())
    ok &= payload["parity"] == 0 and payload["phase"] == 0
    _verdict(8, "seeded CLI runs are byte-reproducible", ok, started, budget=None)
