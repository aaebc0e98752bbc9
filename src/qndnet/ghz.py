"""Nondemolition measurement in the n-partite GHZ basis.

A generalized GHZ state is (|x> + sign*|x_bar>)/sqrt2 for a bitstring x and
its complement; labels are canonicalized to x_0 = 1 since {x, x_bar} name the
same ray (the '-' member only up to a global sign).  The basis carries n bits
of classical information: n-1 neighbor parities p_i = x_i XOR x_{i+1} and one
phase bit.

The network generalizes the two-qubit case: each neighbor pair writes its
parity onto its own ancilla through two CNOTs, then a Hadamard layer turns
the phase bit into the global parity of the register (under the standard
Hadamard, '+' states are supported only on even-weight kets and '-' states
only on odd-weight kets), a CNOT chain from every data qubit writes that
parity onto the last ancilla, and a second Hadamard layer restores the data.

Under the "paper" Hadamard convention the post-layer support parity is offset
by n mod 2, so the runner XORs the raw global-parity ancilla with n mod 2
before decoding; the reported phase bit is therefore canonical (0 <-> '+')
under both conventions.

The network is built once (_parity_network) as one staged schedule of steps
(gates, ancillas): append the ancilla, if any, in |0> after the last data
qubit, run the gates, measure and drop it.  Every measurement (Bell, GHZ at
every n, the auth round) runs it: each parity extraction, which commutes with
the rest, is a one-ancilla step and each Hadamard layer a 0-ancilla one, so
the live register stays at n + 1 qubits and a step measures at most one
qubit, its last.  The flat gate list with all n ancillas live
(ghz_network_gate_list) is read off the same steps, the i-th one-ancilla
step's CNOTs onto ancilla n + i.  The auth round, whose register carries the
attacker's qubits, runs each step on dense rows, gate by gate
(_dense_network).  GHZ shots look their own schedule up by (n,
convention) (_ghz_network), where the data register is the whole register, so
a prefix's dense row is mostly zeros: after k parity bits it can hold only the
2**(n-k) kets whose neighbor parities match the prefix.  That schedule runs on
compact rows, each holding only that support in ket order, through gather
tables built once per (n, convention).  Each parity step is one gather that
lays every row out interleaved by its next parity bit (_parity_step), so the
split reads the dense row's nonzero terms in the dense row's order.  After
the parity steps a row holds only (a_x_bar, a_x), x fixed by its parity
prefix, and both layers are closed forms: the first (_first_layer) is a few
sums per row, written interleaved by global parity, the order the
global-parity split reads; that split normalizes only the one value per
branch that the second layer reads; and the second (_second_layer) writes
each leaf's value, up to sign, at x and x_bar of the dense leaf.  Every step
equals its dense twin byte for byte, weights and leaves.  One level builder
(_branches) expands every measurement, one array pass per depth with a row
for every bit prefix: each depth's branch weights and normalized branches
come from one stacked split of the rows' last qubit (statevector._split_rows)
that sums what the per-register measurement sums, in the same layout, and
zeroes a dead branch's row, so all under it weighs 0.0 and a sparse input (a
basis state) costs what a dense one does.  A state's first shot expands
every branch at once and keeps the table in the memo slot (state,
CONVENTIONS token, table), and later shots walk it (_state_table,
statevector._walk), so each state runs its network once; a caller that takes
one shot per fresh state pays for the whole table.  A shot tests the slot
first (_shot).  When the slot holds the shot's state itself under the shot's
convention token, the call that filled it has checked n, the convention and
the norm of that immutable object, so the shot only checks its draws, walks
the table and finishes its leaf.  Any other shot, and every table call, makes
those checks in one sequence (_require_table_input): the convention, before
any cache, then n, then the norm.  Only then does _state_table look the
schedule up and expand the table, so a state that fails a check never enters
the slot.
The table also keeps each leaf's finished outcome per outcome class, built by
the first shot that reaches it, so later shots to that leaf return it.  Bell
and GHZ shots share one finisher (_shot): it writes the outcome's fields,
from the leaf's entry of a label table, straight into a new instance rather
than through its frozen dataclass __init__, and both branch tables share one
row builder (_branch_rows).  Auth rounds walk and read unmemoized tables.

Label tables are built once per (n, convention) and indexed by leaf
(_ghz_labels: neighbor parities, canonical phase bit and label; Bell's view
of it for n = 2), so no shot or table row decodes bits.  The level builder
seals its last rows (read-only, their base too) before it hands out a leaf,
so a finished outcome or table row adopts its leaf as the post state without
a copy, its two fields written directly (StateVector._adopt).  Draws given as
an ndarray are read as Python floats once, where a shot or an auth round takes
them; each is still range-checked, and one that is not a real number (a row of
a 2-D array or an array of one value included) raises ValueError, as do draws
that are no sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .statevector import (
    _SINGLE_QUBIT_MATRICES,
    _SQRT_HALF,
    ZERO_BRANCH_PROB,
    StateVector,
    _apply_network_raw,
    _require_convention,
    _require_instance,
    _require_int,
    _require_normalized,
    _split_rows,
    _walk,
    apply_gates,
    cnot,
    hadamard,
    hadamard_kind,
    inner_product,
)

#: Largest data-register size the module accepts (oracle scale bound).
MAX_PARTS = 8


def _require_parts(n: int) -> int:
    """The one range check on a part count, shared by the GHZ, operator and CLI entry points."""
    return _require_int("n", n, 2, MAX_PARTS)


@dataclass(frozen=True)
class GhzLabel:
    """Sign ('+' or '-') and canonical bitstring (leading bit 1) of a GHZ state."""

    sign: str
    bits: str

    def __post_init__(self) -> None:
        if not isinstance(self.sign, str) or not isinstance(self.bits, str):
            raise ValueError(f"sign and bits must be strings, got {self.sign!r} and {self.bits!r}")
        if self.sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")
        if len(self.bits) < 2:
            raise ValueError(f"need at least 2 bits, got {self.bits!r}")
        if not set(self.bits) <= {"0", "1"}:
            raise ValueError(f"bits may only contain 0/1, got {self.bits!r}")
        if self.bits[0] != "1":
            raise ValueError(f"label is not canonical (leading bit 0): {self.bits!r}")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def token(self) -> str:
        return f"{self.sign}:{self.bits}"


def parse_ghz_label(token: str) -> GhzLabel:
    """Parse a "+:10110"-style token; a token that is not a str (None, bytes) raises ValueError."""
    if not isinstance(token, str):
        raise ValueError(f"GHZ label must be a str token (e.g. '+:101'), got {token!r}")
    sign, sep, bits = token.partition(":")
    if not sep:
        raise ValueError(f"malformed GHZ label {token!r} (expected e.g. '+:101')")
    return GhzLabel(sign, bits)


def all_canonical_labels(n: int) -> list[GhzLabel]:
    """All 2**n canonical labels for n parts, bitstrings ascending, '+' before '-'."""
    _require_parts(n)
    labels = []
    for value in range(1 << (n - 1)):
        bits = "1" + format(value, f"0{n - 1}b")
        labels.append(GhzLabel("+", bits))
        labels.append(GhzLabel("-", bits))
    return labels


def ghz_state(label: GhzLabel) -> StateVector:
    """(|x> + sign*|x_bar>)/sqrt2 for the canonical bitstring x of ``label``."""
    n = _require_instance("label", label, GhzLabel).n
    _require_parts(n)
    amps = np.zeros(1 << n, dtype=np.complex128)
    index = int(label.bits, 2)
    amps[index] = _SQRT_HALF
    amps[index ^ ((1 << n) - 1)] = (1 if label.sign == "+" else -1) * _SQRT_HALF
    return StateVector(n, amps)


def ghz_bits(label: GhzLabel) -> tuple[tuple[int, ...], int]:
    """Classical encoding of a label: neighbor parities and the phase bit."""
    x = [int(c) for c in _require_instance("label", label, GhzLabel).bits]
    parities = tuple(x[i] ^ x[i + 1] for i in range(label.n - 1))
    return parities, 0 if label.sign == "+" else 1


def decode_ghz(
    part_parity_bits: Sequence[int], global_parity_bit: int, n: int
) -> GhzLabel:
    """Rebuild the canonical label from n-1 neighbor parities and the phase bit (ints, not bools)."""
    try:
        count = len(part_parity_bits)
    except TypeError:  # a number, None, an iterator
        raise ValueError(f"part_parity_bits must be a sequence of bits, got {part_parity_bits!r}") from None
    if count != _require_int("n", n, 2) - 1:
        raise ValueError(f"expected {n - 1} parity bits, got {count}")
    for b in part_parity_bits:
        _require_int("parity bit", b, 0, 1)
    _require_int("phase bit", global_parity_bit, 0, 1)
    x = [1]
    for p in part_parity_bits:
        x.append(x[-1] ^ p)
    return GhzLabel("+" if global_parity_bit == 0 else "-", "".join(map(str, x)))


@lru_cache(maxsize=None)
def _parity_network(data_qubits: tuple[int, ...], convention: str) -> tuple:
    """The network on ``data_qubits`` as a schedule of steps (gates, ancillas).

    A step appends ``ancillas`` (0 or 1) qubits in |0> at index data_qubits[-1] + 1,
    runs ``gates``, then measures and drops that ancilla.  The
    i-th one-ancilla step, i < n - 1, takes the parity of data qubits i and
    i + 1; the last one takes the global parity between two Hadamard layers,
    each a 0-ancilla step.
    """
    layer = tuple(hadamard(q, convention) for q in data_qubits)
    controls = [data_qubits[i : i + 2] for i in range(len(data_qubits) - 1)] + [data_qubits]
    runs = [tuple(cnot(q, data_qubits[-1] + 1) for q in qubits) for qubits in controls]
    return (*((run, 1) for run in runs[:-1]), (layer, 0), (runs[-1], 1), (layer, 0))


def _dense_step(rows: np.ndarray, gates: tuple, ancillas: int) -> np.ndarray:
    """A step on dense rows, gate by gate: ``ancillas`` appended in |0> to each row, then ``gates``.
    A -0.0 part enters as +0.0 (x + 0.0), as in the compact steps."""
    return _apply_network_raw(rows + 0.0, gates, ancillas)


@lru_cache(maxsize=None)
def _dense_network(data_qubits: tuple[int, ...], convention: str) -> tuple:
    """The staged schedule on dense rows, one _dense_step kernel a step: ((kernel, ancillas), ...)."""
    steps = _parity_network(data_qubits, convention)
    return tuple((partial(_dense_step, gates=gates, ancillas=ancillas), ancillas) for gates, ancillas in steps)


@lru_cache(maxsize=None)
def _ghz_network(n: int, convention: str) -> tuple:
    """The GHZ register's own schedule on compact rows, looked up by (n, convention); n is checked once.

    It measures what _dense_network(tuple(range(n)), convention) measures, byte for byte, but each
    prefix's row holds only its support in ket order, zeros if dead: n - 1 neighbour-parity gathers
    (_parity_step), the first layer (_first_layer), which writes its rows interleaved by global parity,
    the global-parity split, which normalizes only the one value per branch that the second layer reads,
    and the second layer (_second_layer), which writes the dense leaves.  Only a table expansion looks
    it up (_state_table); the memo slot is keyed on the convention token, not on the schedule."""
    _require_parts(n)
    first, second = _closed_layers(n, convention)
    parity = tuple((partial(_parity_step, gather=_gather(local, local.shape[1])), 1) for local in _parity_gathers(n))
    return (*parity, (first, 0), ((), 1, 1), (second, 0))


def _parity_gathers(n: int) -> list:
    """Each neighbour-parity step's gather table by prefix, depth k = 0..n-2, into rows of 2**(n - k).

    Prefix p's support at depth k is its 2**(n - k) kets in ket order: entry j has x_0 = the top bit
    of j and x_(k+1)..x_(n-1) its other bits, since x_1..x_k follow from x_0 and p.  Row p of the table
    puts branch b's j-th ket at 2j + b: that ket has x_(k+1) = x_k ^ b = x_0 ^ c ^ b, c = p's parity."""
    tables = []
    for k in range(n - 1):
        half, quarter = 1 << (n - k - 1), 1 << (n - k - 2)
        j = np.arange(half)
        x0, rest = j // quarter, j % quarter
        by_parity = [
            np.stack([x0 * half + (x0 ^ c ^ b) * quarter + rest for b in (0, 1)], axis=1).reshape(-1)
            for c in (0, 1)
        ]
        prefix_parity = [bin(p).count("1") & 1 for p in range(1 << k)]
        tables.append(np.stack(by_parity)[prefix_parity])
    return tables


def _parity_step(rows: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """A neighbour-parity step on compact rows: one gather lays each prefix's support (zeros if dead) out
    interleaved by the step's parity bit, so _split_rows' stride-2 view reads branch b's kets in ket order,
    the dense row's nonzero terms in its order.  A -0.0 part enters as +0.0 (_dense_step's x + 0.0)."""
    out = rows.reshape(-1).take(gather)
    return np.add(out, 0.0, out=out)


def _closed_layers(n: int, convention: str) -> tuple:
    """The GHZ register's two Hadamard layers as kernels of rows, one per prefix or leaf, with their tables.

    S[y, z] is the sign of the layer's matrix entry from ket z to ket y.  A parity prefix p fixes the
    canonical x_p; _first_layer's selector picks output y's value from (A + B, A - B, -(A + B),
    -(A - B)) by S[y, x_p] and S[y, x_p_bar], the outputs y of weight parity g in ket order at 2j + g.
    A leaf (p, g) reads the first value of its branch, ket g of its parity class, and _second_layer
    writes it to x_p with sign S[g, x_p] and to x_p_bar with S[g, x_p_bar]."""
    size, full = 1 << n, (1 << n) - 1
    sign = np.sign(_SINGLE_QUBIT_MATRICES[hadamard_kind(convention)].real).astype(np.int8)
    s = reduce(np.kron, [sign] * n)
    x = np.array([int(label.bits, 2) for _, _, label in _ghz_labels(n, convention)[::2]])
    ket = np.arange(size)
    odd = (sum((ket >> k) & 1 for k in range(n)) & 1).astype(bool)
    interleaved = np.stack((ket[~odd], ket[odd]), axis=1).reshape(-1)  # the j-th ket of parity g at 2j + g
    select = (2 * (s[:, x] < 0) + (s[:, x] != s[:, full ^ x])).astype(np.int8)
    leaves = np.stack((x, full ^ x), axis=1).repeat(2, axis=0)  # (x_p, x_p_bar) by leaf
    minus = s[(ket & 1)[:, None], leaves] < 0
    first = partial(_first_layer, n=n, select=_gather(select[interleaved].T, 4))
    second = partial(_second_layer, n=n, write=_gather(leaves, size), signs=_gather(minus, 2))
    return first, second


def _gather(local: np.ndarray, width: int) -> np.ndarray:
    """The 2-D table ``local`` (by prefix or leaf) as read-only flat indices into rows of ``width``."""
    flat = local + (np.arange(len(local)) * width)[:, None]
    flat.flags.writeable = False
    return flat


def _first_layer(rows: np.ndarray, n: int, select: np.ndarray) -> np.ndarray:
    """The first Hadamard layer on compact rows (a_x_bar, a_x), x the canonical ket of the row's parity
    prefix, its outputs interleaved by global parity so that the global-parity step splits them as they are.

    Every pass multiplies each part by s and adds or subtracts it and a +0.0, so A and B are a_x and
    a_x_bar times s n times in turn, and each output is one last sum fl(+-A +- B): A + B, 0.0 - (A + B),
    A - B or 0.0 - (A - B), the signed zeros included, plus the global-parity step's +0.0.  This is
    the dense layer, gate by gate, byte for byte, the outputs reordered."""
    parts = rows.view(np.float64)
    for _ in range(n):
        np.multiply(parts, _SQRT_HALF, out=parts)
    sums = np.empty((len(rows), 4), dtype=np.complex128)
    np.add(rows[:, 1], rows[:, 0], out=sums[:, 0])
    np.subtract(rows[:, 1], rows[:, 0], out=sums[:, 1])
    np.subtract(0.0, sums[:, :2], out=sums[:, 2:])
    np.add(sums, 0.0, out=sums)
    return sums.reshape(-1).take(select)


def _second_layer(rows: np.ndarray, n: int, write: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The second Hadamard layer on the global-parity branches: each leaf ends as +-v at x and x_bar.

    A branch holds one value v up to sign on its parity class, and its row holds only the first, at
    ket g.  The first pass pairs each ket with a zero, and every later pass doubles or cancels, so v is
    multiplied by s once, then n - 1 times by s and added to itself; a minus is 0.0 - v.  This is the
    dense layer, gate by gate, byte for byte.  A -0.0 part, which only a dead branch's zeroed row
    holds, enters as +0.0 (_dense_step's x + 0.0)."""
    v = rows.reshape(-1)
    parts = v.view(np.float64)
    np.add(parts, 0.0, out=parts)
    np.multiply(parts, _SQRT_HALF, out=parts)
    for _ in range(n - 1):
        np.multiply(parts, _SQRT_HALF, out=parts)
        np.add(parts, parts, out=parts)
    signed = np.empty((len(v), 2), dtype=np.complex128)
    signed[:, 0] = v
    np.subtract(0.0, v, out=signed[:, 1])
    out = np.zeros((len(v), 1 << n), dtype=np.complex128)
    out.put(write, signed.take(signs))
    return out


def _branches(amps: np.ndarray, schedule: Sequence) -> tuple:
    """(weights, leaves) of a ``schedule`` on ``amps``, one array pass per depth, one row per bit prefix.

    A step is (kernel, ancillas) or (kernel, ancillas, keep).  The kernel is called as kernel(rows), or
    is () for a bare split.  A step measures at most one ancilla, the rows' last qubit, as every
    schedule here does: when ``ancillas`` is 1, it is split off, and ``keep``, if given, is how many
    leading values of each branch the split normalizes and keeps.  A dead branch keeps its row,
    zeroed by the split, so every prefix under it weighs 0.0; a sparse input (a basis state) costs
    what a dense one does.  weights[k][j] is the weight of the (k + 1)-bit prefix j given its first k
    bits (big-endian; 0.0 if dead), leaves[i] the register after bits i, (2**bits, dim) in all,
    read-only over a read-only block."""
    rows, weights = amps[None], []
    for kernel, ancillas, *keep in schedule:
        if kernel:
            rows = kernel(rows)
        if ancillas:  # every branch, all rows in one call
            w, rows = _split_rows(rows, *keep)
            rows = rows.reshape(w.size, -1)
            weights.append(w.reshape(-1).tolist())
    if rows.base is not None:  # sealed before any leaf view is taken, so no leaf can be made writable
        rows.base.flags.writeable = False
    rows.flags.writeable = False
    return weights, rows


def _table_rows(weights: list, leaves: np.ndarray) -> list:
    """Each leaf by index (bits big-endian): (probability, register or None at <= ZERO_BRANCH_PROB).

    A leaf's probability is its prefixes' weights multiplied first level first, one array product per level."""
    probs = np.ones(1)
    for level in weights:
        probs = probs.repeat(2) * level
    return [(p, None if p <= ZERO_BRANCH_PROB else leaves[i]) for i, p in enumerate(probs.tolist())]


#: (state, CONVENTIONS token, table) of the last state measured; held, so ``is`` is safe.  Only a state
#: that passed _require_table_input under that token enters it.
_last_table: tuple = (None, None, None)


def _require_table_input(state: StateVector, convention: str, where: str) -> str:
    """The one check sequence on a table's input, before any cache: the convention, then 2 <= n <=
    MAX_PARTS, then the norm under ``where``'s name.  Returns the CONVENTIONS token."""
    convention = _require_convention(convention)
    _require_parts(state.num_qubits)
    _require_normalized(state, where)
    return convention


def _state_table(state: StateVector, convention: str) -> tuple:
    """(weights, leaves, finished) for ``state``: its table with its finished leaves, kept in the slot.

    A fresh state expands the table on its first shot or table call, running the schedule it looks up
    (_ghz_network), so every later one only walks it.  Callers pass ``state`` through
    _require_table_input first, and ``convention`` as the token it returns."""
    global _last_table
    last_state, last_convention, table = _last_table
    if last_state is not state or last_convention is not convention:
        table = (*_branches(state.amplitudes, _ghz_network(state.num_qubits, convention)), {})
        _last_table = (state, convention, table)
    return table


def _shot(
    state: StateVector, convention: str, draws: Sequence[float], where: str, outcome: type, labels: Callable, *key
) -> object:
    """One shot of ``where``: walk ``state``'s table in the memo slot and finish the leaf it reaches.

    The slot is tested first.  When it holds ``state`` itself under ``convention`` (the CONVENTIONS
    token, by identity; n follows from the state), the call that filled it has checked n, the
    convention and the norm of this immutable object, so the shot only checks its draws, walks
    (_walk) and finishes the leaf.  Otherwise _require_table_input makes those checks under
    ``where``'s name, and _state_table expands the table, or finds it for a convention equal
    to the token but not the token.  A state that fails a check never enters the slot, so it fails
    every shot.  The caller checks anything the slot does not fix (Bell: a 2-qubit register).

    ``draws`` must be a sized sequence of one draw per qubit of ``state`` (an ancilla each);
    _walk checks each draw it reads.  A leaf is finished by writing ``outcome``'s five fields
    (``__match_args__``: the three of ``labels(*key)[leaf]``, the probability and the post state,
    its sealed register adopted) into a bare instance's ``__dict__``, so no frozen-dataclass
    ``__init__`` runs; it equals what ``outcome(...)`` would build from the same fields.  The table
    keeps it by (outcome, leaf), so ``key`` must follow from n and ``convention``, and Bell and
    n = 2 GHZ, which share one schedule, keep their own; a later shot to that leaf returns it."""
    n = state.num_qubits
    last_state, last_convention, table = _last_table
    if last_state is not state or last_convention is not convention:  # a miss: check, then expand
        convention = _require_table_input(state, convention, where)
        table = None
    try:
        if len(draws) != n:
            raise ValueError(f"{where} needs {n} draws, got {len(draws)}")
    except TypeError:  # a number, None, an iterator
        raise ValueError(f"{where} needs a sequence of {n} draws, got {draws!r}") from None
    if isinstance(draws, np.ndarray):  # Python floats, once: numpy scalars compare slower
        draws = draws.tolist()
    weights, leaves, finished = table or _state_table(state, convention)
    probability, i = _walk(weights, draws)
    done = finished.get((outcome, i))
    if done is None:  # the label table is read only for a leaf not finished yet
        done = object.__new__(outcome)  # fields written as _adopt writes them: no frozen __init__
        fields, (bits, phase, label, prob, post) = done.__dict__, outcome.__match_args__
        fields[bits], fields[phase], fields[label] = labels(*key)[i]
        fields[prob], fields[post] = probability, StateVector._adopt(n, leaves[i])
        finished[outcome, i] = done
    return done


def ghz_network_gate_list(n: int, convention: str = "paper") -> list:
    """Gate list over n data qubits (0..n-1) plus n ancillas (n..2n-1), all live at once.

    Neighbor-parity CNOT pairs, a Hadamard layer, the global-parity CNOT
    chain, and a second Hadamard layer.  For n = 2 this is the Bell network.
    It is the staged schedule's gates in order, the i-th one-ancilla step's
    CNOTs retargeted to ancilla n + i.
    """
    gates, target = [], _require_parts(n)
    for run, ancillas in _parity_network(tuple(range(n)), _require_convention(convention)):
        gates += [cnot(gate.control, target) for gate in run] if ancillas else run
        target += ancillas
    return gates


def hadamard_layer(state: StateVector, convention: str = "standard") -> StateVector:
    """Apply the chosen Hadamard to every qubit of the register."""
    return apply_gates(
        state, [hadamard(i, convention) for i in range(state.num_qubits)]
    )


@dataclass(frozen=True)
class GhzQndOutcome:
    """Measured parity bits (canonical phase bit), decoded label, collapsed state."""

    part_parity_bits: tuple[int, ...]
    global_parity_bit: int
    label: GhzLabel
    probability: float
    post_state: StateVector


def _canonical_phase_bit(raw: int, n: int, convention: str) -> int:
    # paper-convention Hadamards shift the post-layer weight parity by n mod 2
    return raw ^ (n & 1) if convention == "paper" else raw


@lru_cache(maxsize=None)
def _ghz_labels(n: int, convention: str) -> tuple:
    """Each leaf's (neighbor parities, canonical phase bit, label), by raw ancilla bits big-endian."""
    table = []
    for raw in product((0, 1), repeat=n):
        g = _canonical_phase_bit(raw[-1], n, convention)
        table.append((raw[:-1], g, decode_ghz(raw[:-1], g, n)))
    return tuple(table)


def _branch_rows(state: StateVector, convention: str, labels: Sequence) -> list:
    """Each leaf's (bits with canonical phase, label, probability, post state or None).

    ``convention`` is the token _require_table_input returned.  The bits come from the GHZ label table,
    the label from ``labels`` (last field of each entry)."""
    n = state.num_qubits
    rows = _table_rows(*_state_table(state, convention)[:2])
    return [(parities + (g,), entry[-1], prob, None if post is None else StateVector._adopt(n, post))
            for (parities, g, _), entry, (prob, post) in zip(_ghz_labels(n, convention), labels, rows)]


def run_ghz_qnd(
    state: StateVector,
    convention: str = "paper",
    draws: Sequence[float] = (),
    staged: bool | None = None,
) -> GhzQndOutcome:
    """Measure the register in the GHZ basis without demolishing basis states.

    Consumes one draw per ancilla: the n-1 neighbor parities in order, then
    the global parity.  Every n = 2..MAX_PARTS runs the one staged schedule.
    ``staged`` is ignored, whatever its value: it stays only while the
    benchmark's per-layer probe still passes it, and goes with that probe.
    A state's first shot expands its whole branch table, so later shots only
    walk it.  Repeated shots of one state that reach the same leaf may return
    the same immutable outcome object.
    """
    return _shot(state, convention, draws, "run_ghz_qnd", GhzQndOutcome, _ghz_labels, state.num_qubits, convention)


def ghz_branch_table(
    state: StateVector, convention: str = "paper"
) -> list[tuple[tuple[int, ...], GhzLabel, float, StateVector | None]]:
    """All 2**n ancilla branches: (bits with canonical phase, label, probability, post state).

    Expands the table run_ghz_qnd samples from (shots equal rows); n = 2..MAX_PARTS.
    """
    convention = _require_table_input(state, convention, "ghz_branch_table")
    return _branch_rows(state, convention, _ghz_labels(state.num_qubits, convention))


def ghz_projection_oracle(state: StateVector) -> list[tuple[GhzLabel, float]]:
    """Brute-force GHZ decomposition by inner products against all 2**n basis states.

    Independent of the network path; probabilities sum to the input's squared norm.
    """
    _require_normalized(state, "ghz_projection_oracle")
    return [
        (label, abs(inner_product(ghz_state(label), state)) ** 2)
        for label in all_canonical_labels(state.num_qubits)  # checks 2 <= n <= MAX_PARTS
    ]
