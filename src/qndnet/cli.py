"""Command-line interface: seeded, machine-readable runs of the library surfaces.

Four subcommands: ``bell`` (one nondemolition Bell measurement), ``ghz`` (the
n-partite variant), ``bellop`` (correlation-operator spectra), and
``auth simulate`` (authentication Monte Carlo sweeps).  Identical flags plus
seed produce byte-identical json/csv output.  Exit codes: 0 success, 2 flag
or value errors (before any computation), 1 runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from .auth import (
    NOISE_MODELS,
    NoiseSpec,
    SweepRow,
    _ATTACKER_TOKENS,
    _require_session_settings,
    parse_attacker,
    security_sweep,
)
from .bell import _BELL_TOKENS, bell_state, parse_bell_label, run_bell_qnd
from .bell_operator import (
    BellOperatorSpec,
    bell_operator_n,
    canonical_spec,
    hermiticity_residual,
    spectral_radius,
)
from .ghz import MAX_PARTS, _require_parts, ghz_projection_oracle, ghz_state, parse_ghz_label, run_ghz_qnd
from .statevector import CONVENTIONS, StateVector, _require_int, load_dump, random_state


def _arg(parse):
    """An argparse type from a parser that raises ValueError: a bad value exits 2 with its message."""

    def checked(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return checked


_seed_value = _arg(lambda text: _require_int("seed", int(text), 0, 2**64 - 1))
_trials_count = _arg(lambda text: _require_int("trials", int(text), 1))
_parts_count = _arg(lambda text: _require_parts(int(text)))
_pairs_list = _arg(lambda text: [_require_int("account size", int(part), 1) for part in text.split(",")])
_ghz_label = _arg(parse_ghz_label)


def _bell_input(text: str):
    if text in _BELL_TOKENS:
        return parse_bell_label(text)
    path = Path(text)
    if path.is_file():
        return path
    raise argparse.ArgumentTypeError(
        f"{text!r} is neither a Bell label ({'/'.join(_BELL_TOKENS)}) nor an existing file"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnd",
        description="Nondemolition Bell/GHZ measurement networks and the "
        "entanglement-based authentication simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bell = sub.add_parser("bell", help="run one Bell-basis nondemolition measurement")
    bell.add_argument(
        "--input",
        required=True,
        type=_bell_input,
        help="phi+/phi-/psi+/psi- or a path to a state-dump JSON file",
    )
    bell.add_argument("--convention", choices=CONVENTIONS, default="paper")
    bell.add_argument("--seed", type=_seed_value, default=0)

    ghz = sub.add_parser("ghz", help="run one GHZ-basis nondemolition measurement")
    ghz.add_argument("--n", type=_parts_count, required=True, help=f"number of data qubits (2..{MAX_PARTS})")
    ghz_input = ghz.add_mutually_exclusive_group(required=True)
    ghz_input.add_argument(
        "--label",
        type=_ghz_label,
        help="input GHZ state, e.g. '+:10110' (write --label=-:10110 for '-' states)",
    )
    ghz_input.add_argument(
        "--random-input", action="store_true", help="measure a seeded random input state"
    )
    ghz.add_argument("--convention", choices=CONVENTIONS, default="paper")
    ghz.add_argument("--seed", type=_seed_value, default=0)

    bellop = sub.add_parser("bellop", help="build a correlation operator and report its spectrum")
    bellop.add_argument("--n", type=_parts_count, required=True, help=f"number of particles (2..{MAX_PARTS})")
    bellop.add_argument(
        "--spec",
        help="JSON file {'pairs': [[[ax,ay,az],[bx,by,bz]], ...]}; default: canonical settings",
    )
    bellop.add_argument(
        "--eigen",
        action="store_true",
        help="include eigenvalues and top-eigenvector overlaps with the GHZ basis",
    )

    auth = sub.add_parser("auth", help="authentication protocol simulations")
    auth_sub = auth.add_subparsers(dest="auth_command", required=True)
    simulate = auth_sub.add_parser("simulate", help="Monte Carlo acceptance sweep")
    simulate.add_argument("--pairs", type=_pairs_list, required=True, help="account size, or comma list")
    simulate.add_argument("--trials", type=_trials_count, required=True)
    simulate.add_argument("--attacker", choices=_ATTACKER_TOKENS, default="legitimate")
    simulate.add_argument("--noise", choices=NOISE_MODELS, default="none")
    simulate.add_argument("--p", type=float, default=0.0, help="per-qubit noise probability")
    simulate.add_argument("--threshold", type=float, default=1.0)
    simulate.add_argument("--seed", type=_seed_value, default=0)
    simulate.add_argument("--out", choices=("json", "csv"), default="json")
    # each subcommand runs its own function and reports a value error under its own usage line
    for command, run in ((bell, _run_bell), (ghz, _run_ghz), (bellop, _run_bellop), (simulate, _run_auth)):
        command.set_defaults(run=run, error=command.error)
    return parser


def _run_bell(args: argparse.Namespace) -> str:
    if isinstance(args.input, Path):
        state = load_dump(args.input)
    else:
        state = bell_state(args.input)
    rng = np.random.default_rng(args.seed)
    outcome = run_bell_qnd(state, args.convention, rng.random(2))
    return json.dumps(
        {
            "parity": outcome.parity_bit,
            "phase": outcome.phase_bit,
            "label": outcome.label.token,
            "probability": outcome.probability,
        },
        sort_keys=True,
    )


def _run_ghz(args: argparse.Namespace) -> str:
    rng = np.random.default_rng(args.seed)
    if args.random_input:
        state = random_state(args.n, rng)
    else:
        if args.label.n != args.n:
            args.error(f"--label has {args.label.n} bits but --n is {args.n}")
        state = ghz_state(args.label)
    outcome = run_ghz_qnd(state, args.convention, rng.random(args.n))
    return json.dumps(
        {
            "part_parity": list(outcome.part_parity_bits),
            "global_parity": outcome.global_parity_bit,
            "label": outcome.label.token,
            "probability": outcome.probability,
        },
        sort_keys=True,
    )


def _load_operator_spec(path: str, n: int) -> BellOperatorSpec:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        pairs = tuple(
            (np.asarray(a, dtype=float), np.asarray(b, dtype=float)) for a, b in obj["pairs"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed operator spec file: {exc}") from exc
    if len(pairs) != n:
        raise ValueError(f"spec file holds {len(pairs)} pairs but --n is {n}")
    return BellOperatorSpec(pairs)


def _run_bellop(args: argparse.Namespace) -> str:
    spec = _load_operator_spec(args.spec, args.n) if args.spec else canonical_spec(args.n)
    observable = bell_operator_n(spec)
    payload: dict = {
        "n": args.n,
        "dimension": 1 << args.n,
        "hermiticity_residual": hermiticity_residual(observable),
        "spectral_radius": spectral_radius(observable),
    }
    if args.eigen:
        values, vectors = np.linalg.eigh(observable)
        payload["eigenvalues"] = [float(v) for v in values]
        # the extremal-|eigenvalue| vector, preferring the top of the spectrum
        top = vectors[:, -1 if abs(values[-1]) >= abs(values[0]) else 0]
        overlaps = ghz_projection_oracle(StateVector(args.n, top))
        payload["top_eigenvector_overlaps"] = {label.token: float(p) for label, p in overlaps}
    return json.dumps(payload, sort_keys=True)


def _run_auth(args: argparse.Namespace) -> str:
    try:  # the library's own limits, checked before any draw
        noise = NoiseSpec(args.noise, args.p)
        _require_session_settings(args.threshold, noise)
    except ValueError as exc:
        args.error(str(exc))
    rows = security_sweep(
        args.pairs,
        attacker=parse_attacker(args.attacker),
        trials=args.trials,
        seed=args.seed,
        noise=noise,
        threshold=args.threshold,
    )
    if args.out == "json":
        return json.dumps([row.to_dict() for row in rows], sort_keys=True)
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=[field.name for field in dataclasses.fields(SweepRow)],
        lineterminator="\n",
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row.to_dict())
    return buf.getvalue().rstrip("\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
