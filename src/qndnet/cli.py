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
    AttackerModel,
    NOISE_MODELS,
    NoiseSpec,
    SweepRow,
    parse_attacker,
    security_sweep,
)
from .bell import BellLabel, bell_state, parse_bell_label, run_bell_qnd
from .bell_operator import (
    BellOperatorSpec,
    bell_operator_n,
    canonical_spec,
    chsh_operator,
    hermiticity_residual,
    spectral_radius,
)
from .ghz import MAX_PARTS, all_canonical_labels, ghz_state, parse_ghz_label, run_ghz_qnd
from .statevector import CONVENTIONS, StateVector, load_dump, random_state

_BELL_TOKENS = tuple(label.value for label in BellLabel)
_ATTACKER_TOKENS = tuple(model.value for model in AttackerModel)


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from exc
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _bell_input(text: str):
    if text in _BELL_TOKENS:
        return parse_bell_label(text)
    path = Path(text)
    if path.is_file():
        return path
    raise argparse.ArgumentTypeError(
        f"{text!r} is neither a Bell label ({'/'.join(_BELL_TOKENS)}) nor an existing file"
    )


def _ghz_label(text: str):
    try:
        return parse_ghz_label(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parts_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if not 2 <= value <= MAX_PARTS:
        raise argparse.ArgumentTypeError(f"must lie in [2, {MAX_PARTS}], got {value}")
    return value


def _pairs_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--pairs wants an integer or comma list, got {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("--pairs entries must be >= 1")
    return values


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
    ghz.add_argument(
        "--label",
        type=_ghz_label,
        help="input GHZ state, e.g. '+:10110' (write --label=-:10110 for '-' states)",
    )
    ghz.add_argument(
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
    simulate.add_argument("--trials", type=int, required=True)
    simulate.add_argument("--attacker", choices=_ATTACKER_TOKENS, default="legitimate")
    simulate.add_argument("--noise", choices=NOISE_MODELS, default="none")
    simulate.add_argument("--p", type=float, default=0.0, help="per-qubit noise probability")
    simulate.add_argument("--threshold", type=float, default=1.0)
    simulate.add_argument("--seed", type=_seed_value, default=0)
    simulate.add_argument("--out", choices=("json", "csv"), default="json")
    return parser


def _run_bell(args: argparse.Namespace) -> str:
    if isinstance(args.input, Path):
        state = load_dump(args.input)
        if state.num_qubits != 2:
            raise ValueError(f"bell input must have 2 qubits, got {state.num_qubits}")
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


def _run_ghz(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    if args.random_input == (args.label is not None):
        parser.error("provide exactly one of --label and --random-input")
    rng = np.random.default_rng(args.seed)
    if args.random_input:
        state = random_state(args.n, rng)
    else:
        if args.label.n != args.n:
            parser.error(f"--label has {args.label.n} bits but --n is {args.n}")
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
    observable = chsh_operator(spec) if args.n == 2 else bell_operator_n(spec)
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
        top_state = StateVector(args.n, top)
        payload["top_eigenvector_overlaps"] = {
            label.token: float(abs(np.vdot(ghz_state(label).amplitudes, top_state.amplitudes)) ** 2)
            for label in all_canonical_labels(args.n)
        }
    return json.dumps(payload, sort_keys=True)


def _run_auth(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if not 0.0 <= args.p <= 1.0:
        parser.error("--p must lie in [0, 1]")
    if not 0.0 <= args.threshold <= 1.0:
        parser.error("--threshold must lie in [0, 1]")
    rows = security_sweep(
        args.pairs,
        attacker=parse_attacker(args.attacker),
        trials=args.trials,
        seed=args.seed,
        noise=NoiseSpec(args.noise, args.p),
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bell":
            output = _run_bell(args)
        elif args.command == "ghz":
            output = _run_ghz(args, parser)
        elif args.command == "bellop":
            output = _run_bellop(args)
        else:
            output = _run_auth(args, parser)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
