"""CHSH-type correlation observables and their recursive n-particle extension.

Each particle k carries a pair of measurement directions (a_k, a_k') as unit
vectors in R^3, entering through the spin projection a.sigma.  The two-particle
operator is

    B_2 = a.s (x) b.s  +  a.s (x) b'.s  +  a'.s (x) b.s  -  a'.s (x) b'.s

and larger operators follow the Mermin-Klyshko recursion

    B_n  = B_{n-1} (x) (a_n.s + a_n'.s)/2  +  B'_{n-1} (x) (a_n.s - a_n'.s)/2

where B' is B with every primed and unprimed direction exchanged.  These are
Hermitian; the spectral radius of B_2 never exceeds 2*sqrt(2) (the Tsirelson
bound), and for suitable settings the extremal eigenvectors are Bell / GHZ
basis states, which is what makes them repeatable-measurement observables for
the ancilla networks in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ghz import _require_parts
from .statevector import (
    _SQRT_HALF,
    MAX_QUBITS,
    PAULI_X_MATRIX,
    PAULI_Y_MATRIX,
    PAULI_Z_MATRIX,
    GateOp,
    StateVector,
    _apply_network_raw,
    _require_instance,
    _require_normalized,
)

_UNIT_ATOL = 1e-12

#: Largest branch probability that counts as no support, and fidelity deficit that counts as none.
_COMPAT_ATOL = 1e-10

#: Largest |B - B^dagger| entry an observable may have and still count as Hermitian.
_HERMITIAN_ATOL = 1e-9

#: Eigenvalues closer than this share one degenerate eigenspace.
_DEGENERACY_ATOL = 1e-8

#: Largest |B v - lambda v| of a candidate that still counts as an eigenstate.
_EIGEN_RESIDUAL_ATOL = 1e-8


def _as_unit_vector(v: Sequence[float]) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {arr.shape}")
    # written as "not <=" so that a NaN component fails the check too
    if not abs(np.linalg.norm(arr) - 1.0) <= _UNIT_ATOL:
        raise ValueError(f"direction must be a unit vector, |v|={float(np.linalg.norm(arr))!r}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BellOperatorSpec:
    """Per-particle measurement-direction pairs (a_k, a_k'), unit vectors in R^3."""

    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        try:
            count = len(self.pairs)
        except TypeError:  # None, a number, an iterator
            raise ValueError(f"pairs must be a sequence of direction pairs, got {self.pairs!r}") from None
        if count < 2:
            raise ValueError("need at least two direction pairs")
        frozen = tuple(
            (_as_unit_vector(a), _as_unit_vector(ap)) for a, ap in self.pairs
        )
        object.__setattr__(self, "pairs", frozen)

    @property
    def num_particles(self) -> int:
        return len(self.pairs)


def direction_operator(v: Sequence[float]) -> np.ndarray:
    """Spin projection v . (X, Y, Z) along a unit direction."""
    arr = _as_unit_vector(v)
    return arr[0] * PAULI_X_MATRIX + arr[1] * PAULI_Y_MATRIX + arr[2] * PAULI_Z_MATRIX


def _chsh_from_pairs(first: tuple, second: tuple) -> np.ndarray:
    a, ap = (direction_operator(v) for v in first)
    b, bp = (direction_operator(v) for v in second)
    return np.kron(a, b) + np.kron(a, bp) + np.kron(ap, b) - np.kron(ap, bp)


def chsh_operator(spec: BellOperatorSpec) -> np.ndarray:
    """The 4x4 two-particle operator: bell_operator_n restricted to exactly 2 pairs."""
    if spec.num_particles != 2:
        raise ValueError(f"chsh_operator needs exactly 2 pairs, got {spec.num_particles}")
    return bell_operator_n(spec)


def bell_operator_n(spec: BellOperatorSpec) -> np.ndarray:
    """The Mermin-Klyshko operator, n = 2..MAX_PARTS: CHSH is the base case, n = 2 takes no step."""
    _require_parts(spec.num_particles)
    b = _chsh_from_pairs(spec.pairs[0], spec.pairs[1])
    bprime = _chsh_from_pairs(spec.pairs[0][::-1], spec.pairs[1][::-1])
    for a, ap in spec.pairs[2:]:
        plus = (direction_operator(a) + direction_operator(ap)) / 2.0
        minus = (direction_operator(a) - direction_operator(ap)) / 2.0
        b, bprime = (
            np.kron(b, plus) + np.kron(bprime, minus),
            np.kron(bprime, plus) - np.kron(b, minus),
        )
    return b


_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])


def canonical_chsh_spec() -> BellOperatorSpec:
    """The maximal-violation CHSH setting: a=z, a'=x, b=(z+x)/sqrt2, b'=(z-x)/sqrt2.

    Collapses to sqrt2*(ZZ + XX) with eigenvalues {+-2*sqrt2, 0, 0} and the
    top eigenvector Phi+.
    """
    return BellOperatorSpec(((_Z, _X), ((_Z + _X) * _SQRT_HALF, (_Z - _X) * _SQRT_HALF)))


def canonical_spec(n: int) -> BellOperatorSpec:
    """Settings whose top eigenvector is the all-ones GHZ basis state.

    Particles 1..n-1 measure along (x, y); the last pair is (x, y) rotated in
    the equatorial plane so that the extremal eigenvalue 2**((n+1)/2) is
    attained exactly on (|0...0> + |1...1>)/sqrt2.  For n = 2 returns the
    CHSH setting above.
    """
    _require_parts(n)
    if n == 2:
        return canonical_chsh_spec()
    # scalar Mermin-Klyshko recursion on the span {|0..0>, |1..1>} with
    # all-(x, y) settings; the last pair is rotated by -arg(f) to make the
    # extremal matrix element real positive
    f, fp = 2.0 + 2.0j, -2.0 + 2.0j
    for _ in range(3, n + 1):
        f, fp = f * (1 + 1j) / 2 + fp * (1 - 1j) / 2, fp * (1 + 1j) / 2 - f * (1 - 1j) / 2
    theta = -np.angle(f)
    last = (
        np.array([np.cos(theta), np.sin(theta), 0.0]),
        np.array([-np.sin(theta), np.cos(theta), 0.0]),
    )
    return BellOperatorSpec(tuple([(_X, _Y)] * (n - 1)) + (last,))


def hermiticity_residual(observable: np.ndarray) -> float:
    """Max-abs deviation of a square matrix from its own conjugate transpose; ValueError if not square or empty."""
    m = np.asarray(observable)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"observable must be square and non-empty, got shape {m.shape}")
    return float(np.max(np.abs(m - m.conj().T)))


def _require_hermitian(observable: np.ndarray) -> None:
    """ValueError unless ``observable`` is finite, square and Hermitian within _HERMITIAN_ATOL."""
    if not np.isfinite(observable).all():  # a NaN residual would pass the tolerance test
        raise ValueError("observable has non-finite entries")
    res = hermiticity_residual(observable)
    if res > _HERMITIAN_ATOL:
        raise ValueError(f"observable is not Hermitian (residual {res})")


def spectral_radius(observable: np.ndarray) -> float:
    """Largest |eigenvalue| of a Hermitian matrix (eigvalsh reads one triangle, so others raise ValueError)."""
    _require_hermitian(observable)
    return float(np.max(np.abs(np.linalg.eigvalsh(observable))))


@dataclass(frozen=True)
class BranchReport:
    """One ancilla outcome branch of the network, as a map on the data register."""

    ancilla_bits: tuple[int, ...]
    commutator_max: float


@dataclass(frozen=True)
class EigenstateReport:
    """How one candidate eigenstate fares under every branch map."""

    eigenvalue: float
    eigen_residual: float
    branch_probabilities: tuple[float, ...]
    self_fidelities: tuple[float, ...]  # NaN where the branch has no support
    preserved: bool


@dataclass(frozen=True)
class CompatibilityReport:
    branches: tuple[BranchReport, ...]
    eigenstates: tuple[EigenstateReport, ...]
    max_commutator: float
    all_preserved: bool


def _branch_kraus_operators(network: Sequence[GateOp], num_data: int) -> np.ndarray:
    """K[m] = <m|U|0...0> on the data register, one per ancilla pattern m (big-endian).

    The network runs on the d identity columns with the ancillas appended in
    |0...0>, so only those d columns of the unitary are ever built.
    """
    span = max((g.max_index + 1 for g in network), default=num_data)
    d = 1 << num_data
    columns = _apply_network_raw(np.eye(d)[None], network, max(span - num_data, 0))[0]
    return columns.reshape(d, -1, d).transpose(1, 0, 2)


def _refine_degenerate(basis: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    # pick, inside a degenerate eigenspace, the basis that diagonalizes the
    # (Hermitian parts of the) restricted branch maps when they commute
    mix = np.zeros((basis.shape[1],) * 2, dtype=complex)
    for weight, k in enumerate(kraus, start=1):
        restricted = basis.conj().T @ k @ basis
        mix += weight * (restricted + restricted.conj().T) / 2.0
    _, rot = np.linalg.eigh(mix)
    return basis @ rot


def qnd_compatibility_check(
    observable: np.ndarray,
    network: Sequence[GateOp],
    eigenstates: Iterable[StateVector] | None = None,
) -> CompatibilityReport:
    """Does the measurement network leave the observable's eigenstates alone?

    The network (over the data register plus ancillas assumed to start in
    |0..0>) induces one Kraus operator K_m per ancilla outcome m.  The report
    gives ||[K_m, B]||_max per branch and, for each eigenstate, whether every
    branch with support maps it onto itself up to phase -- the repeatable-
    measurement property in finite dimensions.

    Eigenstates default to the observable's eigenvectors (degenerate
    eigenspaces are refined against the branch maps); pass explicit states
    (any non-empty iterable, read once) to pin the basis under test.
    """
    span = max((_require_instance("gate", g, GateOp).max_index + 1 for g in network), default=0)
    if span > MAX_QUBITS:
        raise ValueError(f"network spans {span} qubits > MAX_QUBITS; GHZ checks reach n <= {MAX_QUBITS // 2}")
    b = np.asarray(observable, dtype=np.complex128)
    _require_hermitian(b)
    num_data = int(b.shape[0]).bit_length() - 1
    if 1 << num_data != b.shape[0]:
        raise ValueError(f"observable dimension {b.shape[0]} is not a power of two")
    if eigenstates is not None and not (eigenstates := list(eigenstates)):  # read once: a generator is spent
        raise ValueError("eigenstates is empty; pass None to check the observable's own eigenvectors")
    for state in eigenstates or ():
        if _require_instance("eigenstate", state, StateVector).num_qubits != num_data:
            raise ValueError(f"eigenstate has {state.num_qubits} qubits, the observable acts on {num_data}")
        _require_normalized(state, "qnd_compatibility_check")

    kraus = _branch_kraus_operators(network, num_data)
    num_anc = (len(kraus) - 1).bit_length()
    branches = tuple(
        BranchReport(
            ancilla_bits=tuple((m >> (num_anc - 1 - i)) & 1 for i in range(num_anc)),
            commutator_max=float(np.max(np.abs(k @ b - b @ k))),
        )
        for m, k in enumerate(kraus)
    )

    if eigenstates is None:
        vals, vecs = np.linalg.eigh(b)
        columns = []
        start = 0
        while start < len(vals):
            stop = start + 1
            while stop < len(vals) and abs(vals[stop] - vals[start]) < _DEGENERACY_ATOL:
                stop += 1
            block = vecs[:, start:stop]
            if stop - start > 1:
                block = _refine_degenerate(block, kraus)
            columns.append(block)
            start = stop
        vecs = np.hstack(columns)
    else:
        vecs = np.stack([s.amplitudes for s in eigenstates], axis=1)

    # every candidate (column of vecs) under every branch map at once
    images = b @ vecs
    eigenvalues = np.einsum("ij,ij->j", vecs.conj(), images).real
    residuals = np.linalg.norm(images - eigenvalues * vecs, axis=0)
    outs = kraus @ vecs
    probs = (np.abs(outs) ** 2).sum(axis=1)
    supported = probs > _COMPAT_ATOL
    overlaps = np.abs(np.einsum("ij,mij->mj", vecs.conj(), outs)) ** 2
    fids = np.where(supported, overlaps / np.where(supported, probs, 1.0), np.nan)
    preserved = np.all(~supported | (fids >= 1.0 - _COMPAT_ATOL), axis=0)
    preserved &= residuals <= _EIGEN_RESIDUAL_ATOL
    reports = tuple(
        EigenstateReport(
            eigenvalue=float(eigenvalues[j]),
            eigen_residual=float(residuals[j]),
            branch_probabilities=tuple(probs[:, j].tolist()),
            self_fidelities=tuple(fids[:, j].tolist()),
            preserved=bool(preserved[j]),
        )
        for j in range(vecs.shape[1])
    )

    return CompatibilityReport(
        branches=branches,
        eigenstates=reports,
        max_commutator=max(br.commutator_max for br in branches),
        all_preserved=all(r.preserved for r in reports),
    )
