"""Turn channel-expectation problems into independent single-ancilla subtasks.

The central identity: for a channel Phi(rho) = sum_p A_p rho A_p^dagger with
A_p = sum_i c_{p,i} U_{p,i} and each U factorized across parts as
U_{p,i} = sum_alpha coeff_alpha (x)_a U^a_{p,i,alpha}, a product observable and
product input make Tr(O Phi(rho)) a weighted sum of per-part overlaps

    <psi0^a| (U^a_{p,j,alpha'})^dagger O^a U^a_{p,i,alpha} |psi0^a>,

each measurable with one ancilla (Hadamard-test style). This module enumerates
those subtasks as a ``Plan``, an ``OverlapTable`` with each row's indices and
coefficient. The table is the one type of overlap rows from planner to
backend: tables of the distinct part circuits, observables and input labels,
and read-only columns of row ids and table positions, converted and checked
once at construction (operands once per distinct combination rather than
once per row). It keeps what the runtime derives from its columns, shared by
the plans of one channel, and every table, of one row or many, finds the
distinct part states its rows read the same way (``_side_rows``); a channel
plan reads these values off its channel's term list. The tables on one
holder with the same labels form a stack (``_stacks``), which the runtime
reads and reduces as one. The runtime computes each row's overlap from the
gate lists;
``build_estimator_circuit`` gives the hardware-faithful single-ancilla circuit
of a subtask on request. A ``ChannelLCU`` is taken as given: no channel is
ever made dense, so trace preservation is the caller's to hold. The module
also carries the two GHZ pipelines: overlap tomography across a cut, whose
gram entries are overlaps of two-qubit part states (``ghz`` runs them as one
table per readout), and the wire-cut density baseline.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    PauliString,
    circuit_unitary,
    pauli_matrix,
)
from .factorize import cz_cutting_decomposition
from .linalg import _complex_product, is_unitary, kron

__all__ = [
    "FactorizedUnitary",
    "ChannelLCU",
    "Subtask",
    "Plan",
    "EstimatorCircuit",
    "Evaluation",
    "CutSetting",
    "ShapeMismatch",
    "NonUnitaryObservable",
    "IncompleteTables",
    "NonPhysical",
    "enumerate_subtasks",
    "build_estimator_circuit",
    "check_overlap_operands",
    "ghz_overlap_plan",
    "assemble_grams",
    "reconstruct_density_matrix",
    "ghz_cutting_plan",
    "ghz4_template",
    "ghz_state",
    "scaling_counts",
    "PAULI_2Q_LABELS",
]


class ShapeMismatch(ValueError):
    """Raised when parts/widths/labels of a plan do not line up."""


class NonUnitaryObservable(ValueError):
    """Raised when an estimator observable is not unitary."""


class IncompleteTables(ValueError):
    """Raised when a reconstruction is attempted with missing gram entries."""


class NonPhysical(ValueError):
    """Raised when a reconstructed density matrix is too far from PSD."""


PAULI_2Q_LABELS: tuple[str, ...] = tuple(
    a + b for a in "IXYZ" for b in "IXYZ"
)


@dataclass(frozen=True, eq=False)
class FactorizedUnitary:
    """A unitary written as sum_alpha coeff_alpha * (x)_a (circuit for part a).

    Every term carries one circuit per part; the weighted kron of the term
    unitaries must sum to a unitary.
    """

    terms: tuple[tuple[complex, tuple[Circuit, ...]], ...]

    def __post_init__(self):
        if not self.terms:
            raise ShapeMismatch("FactorizedUnitary needs at least one term")
        widths = self.part_widths
        for _, circs in self.terms:
            if len(circs) != len(widths):
                raise ShapeMismatch("terms disagree on part count")
            if tuple(c.n_qubits for c in circs) != widths:
                raise ShapeMismatch("terms disagree on part widths")

    @property
    def ell(self) -> int:
        return len(self.terms)

    @functools.cached_property
    def part_widths(self) -> tuple[int, ...]:
        return tuple(c.n_qubits for c in self.terms[0][1])

    @classmethod
    def from_circuits(cls, circuits: tuple[Circuit, ...]) -> "FactorizedUnitary":
        """Single-term wrapper (ell = 1, coefficient 1)."""
        return cls(terms=((1.0 + 0j, tuple(circuits)),))

    @classmethod
    def from_layered(cls, decomposition) -> "FactorizedUnitary":
        """Wrap a LayeredDecomposition's term iterator (ell = product of cut ells)."""
        return cls(terms=tuple((c, parts) for c, parts in decomposition.terms()))


@dataclass(frozen=True, eq=False)
class ChannelLCU:
    """Phi(rho) = sum_p A_p rho A_p^dagger with A_p = sum_i c_{p,i} U_{p,i}.

    branches[p] = (coefficients, factorized unitaries), both of length m.
    """

    branches: tuple[tuple[tuple[complex, ...], tuple[FactorizedUnitary, ...]], ...]

    def __post_init__(self):
        if not self.branches:
            raise ShapeMismatch("ChannelLCU needs at least one branch")
        m = len(self.branches[0][0])
        widths = self.part_widths
        for coeffs, fus in self.branches:
            if len(coeffs) != m or len(fus) != m:
                raise ShapeMismatch("all branches must share the same m")
            for fu in fus:
                if fu.part_widths != widths:
                    raise ShapeMismatch("all unitaries must share part widths")

    @functools.cached_property
    def part_widths(self) -> tuple[int, ...]:
        return self.branches[0][1][0].part_widths

    @functools.cached_property
    def _subtask_columns(self) -> dict:
        """The Plan fields that no input or observable changes: the table of
        distinct part circuits, the read-only columns of every row in id
        order, whose ``observable`` and ``label`` are the part a, and one
        holder of what the runtime derives from them, which keeps the term
        list (``_Terms``) it derives them from. Built once, so all plans of
        this channel share them. A group's coefficient
        c_i conj(c_j) coeff_alpha conj(coeff_alpha2) is multiplied left to
        right, each product rounded as a scalar complex multiply rounds it."""
        # circuits by first use: each branch's unitaries' terms' parts, in order
        circuits = dict.fromkeys(
            c for _, fus in self.branches for fu in fus for _, parts in fu.terms for c in parts)
        position = dict(zip(circuits, range(len(circuits))))
        n_parts = len(self.part_widths)
        columns = []  # per branch: indices, left, right, coefficient, its term list
        n_terms = 0  # terms of the branches before this one
        for p, (coeffs, fus) in enumerate(self.branches):
            terms = [(i, alpha, ca, tuple(map(position.__getitem__, parts)))
                     for i, fu in enumerate(fus) for alpha, (ca, parts) in enumerate(fu.terms)]
            unitary, alpha, coeff, parts = (np.array(col) for col in zip(*terms))
            # every (left term, right term) pair, in (i, j, alpha, alpha2) order
            left, right = np.divmod(np.arange(len(terms) ** 2), len(terms))
            order = np.lexsort((alpha[right], alpha[left], unitary[right], unitary[left]))
            left, right = left[order], right[order]
            c = np.asarray(coeffs, dtype=complex)
            group_coeff = _complex_product(_complex_product(_complex_product(
                c[unitary[left]], c[unitary[right]].conj()), coeff[left]), coeff[right].conj())
            group = np.stack([np.full(len(left), p), unitary[left], unitary[right],
                              alpha[left], alpha[right]], axis=1)
            coefficient = np.ones((len(left), n_parts), dtype=complex)
            coefficient[:, 0] = group_coeff  # on the a = 0 member only
            columns.append((
                np.column_stack([np.repeat(group, n_parts, axis=0),
                                 np.tile(np.arange(n_parts), len(left))]),
                parts[left].ravel(), parts[right].ravel(), coefficient.ravel(),
                parts, n_terms + left, n_terms + right, group_coeff,
            ))
            n_terms += len(terms)
        indices, left, right, coefficient, *terms = (np.concatenate(col) for col in zip(*columns))
        part = np.ascontiguousarray(indices[:, 5])
        fields = dict(circuits=tuple(circuits), ids=np.arange(len(part)), indices=indices,
                      left=left, right=right, observable=part, label=part, coefficient=coefficient)
        terms = _Terms(*terms)
        for column in (*fields.values(), *terms):
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
        source = map(fields.get, ("circuits", *Plan._columns))
        return dict(fields, _derived=_Derived(source, terms))


@dataclass(frozen=True, eq=False)
class Subtask:
    """One per-part overlap of the factorized expansion.

    indices = (p, i, j, alpha, alpha2, a); the sibling-group coefficient
    c_{p,i} * conj(c_{p,j}) * coeff_alpha * conj(coeff_alpha2) is attached to
    the a = 0 member only (siblings carry 1).
    """

    id: int
    indices: tuple[int, int, int, int, int, int]
    left_circuit: Circuit
    right_circuit: Circuit
    observable: PauliString | np.ndarray
    input_label: str
    coefficient: complex


# the readouts of an overlap row; "e:" stands for each "e:<P>"
_OVERLAP_READOUTS = frozenset(("ax", "ay", "p0", "p1", "e:"))


def _parse_readout(desc: str, n_qubits: int) -> tuple[str | None, str]:
    """Split a readout descriptor on n qubits into (ancilla part, Pauli
    letters over the rest): the one rule for descriptors, of estimator tasks
    and of overlap tables' "e:<P>" readouts."""
    if desc in ("ax", "ay"):
        return desc, "I" * (n_qubits - 1)
    for prefix in ("p0:", "p1:", "e:"):
        if desc.startswith(prefix):
            letters = desc[len(prefix):]
            want = n_qubits if prefix == "e:" else n_qubits - 1
            if len(letters) != want or any(ch not in "IXYZ" for ch in letters):
                raise ValueError(f"bad readout descriptor {desc!r}")
            return (None if prefix == "e:" else prefix[:2]), letters
    raise ValueError(f"unknown readout descriptor {desc!r}")

# the one message of each column rule, locally and in a worker's decoded batch items
_ID_RULE = "a row id must be an integer >= 0, got {!r}"
_POSITION_RULE = "a table position must be an integer, got {!r}"


def _frozen(values, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a read-only array of ``dtype`` and ``shape``; an array
    that is one already is kept as it is."""
    if not (isinstance(values, np.ndarray) and values.dtype == dtype and values.shape == shape
            and not values.flags.writeable):
        values = np.array(values, dtype=dtype)
        if values.shape != shape:
            values = values.reshape(shape)
        values.setflags(write=False)
    return values


def _index_column(values, rule: str, least: int | None = None) -> np.ndarray:
    """``values`` as a read-only intp column. Each must be an int, not a bool,
    and at least ``least`` when that is given; ``rule`` is the message that
    refuses the first that is not. An integer array is checked as a whole,
    and so is a list of exact ints (a worker's decoded columns): one pass
    over their types and one ``min``, the per-element loop only to name
    the first refused."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        bad = [] if least is None else values[values < least].tolist()
    else:
        values = values.tolist() if isinstance(values, np.ndarray) else tuple(values)
        exact = set(map(type, values)) <= {int}
        if exact and (least is None or min(values, default=least) >= least):
            bad = []
        else:
            bad = [x for x in values if not isinstance(x, int) or isinstance(x, bool)
                   or least is not None and x < least]
    if bad:
        raise ValueError(rule.format(bad[0]))
    return _frozen(values, np.intp, (len(values),))


class _Terms(NamedTuple):
    """A channel's term list, which its plans' derived values are read from:
    the part circuit positions of each term of each branch, in order (terms x
    parts), and for each (left term, right term) pair in row order, the
    positions of its two terms and its group's coefficient. Row r of the
    plan is part r % parts of pair r // parts."""

    parts: np.ndarray
    left: np.ndarray
    right: np.ndarray
    coefficient: np.ndarray


class _Derived(dict):
    """What the runtime derives from a table's columns, by key, each computed
    on first use. ``source`` is the circuit table and the columns it is
    derived from: the tables built on these same objects share the holder
    (the plans of one channel), and a table with any other column gets its
    own, so it never reads values derived from another's. ``terms`` is the
    term list of a channel's columns, None for any other table."""

    def __init__(self, source, terms: _Terms | None = None):
        super().__init__()
        self.source = tuple(source)
        self.terms = terms


def _stacks(items: list) -> list[list[int]]:
    """The positions of the items that are read as one stack: the tables on
    one derived-value holder (the plans of one channel) with the same labels
    and readouts share their columns, side rows and part states; any other
    item is a stack of one."""
    stacks: dict = {}
    for k, t in enumerate(items):
        key = (id(t._derived), t.labels, t.readouts) if isinstance(t, OverlapTable) else (k,)
        stacks.setdefault(key, []).append(k)
    return list(stacks.values())


def _extent(t: "OverlapTable") -> tuple:
    """What the table checks read of the columns alone: whether the ids
    ascend strictly, the (least, greatest) position
    in ``left``, ``right``, ``observable`` and ``label`` ((0, -1) when
    empty), and the first row, in id order, of each distinct (left width,
    right width, observable position, label position), none when a circuit
    position is out of bounds. That is what
    ``check_overlap_operands`` reads of a row, so a row passes or fails
    with the first row of its combination. A channel plan reads them off its
    term list: its ids count up from 0, every term pairs with every term,
    and its first pair's rows are parts 0, 1, ..., the first of each
    combination."""
    terms = t._derived.terms
    if terms is not None:
        n_parts = terms.parts.shape[1]
        circuits = (int(terms.parts.min()), int(terms.parts.max()))
        return True, [circuits, circuits] + [(0, n_parts - 1)] * 2, list(range(n_parts))
    ids, *columns = (c.tolist() for c in (t.ids, t.left, t.right, t.observable, t.label))
    bounds = [(min(col), max(col)) if col else (0, -1) for col in columns]
    width = [c.n_qubits for c in t.circuits]
    first: dict = {}
    if all(0 <= low and high < len(width) for low, high in bounds[:2]):
        for k, key in enumerate(zip(map(width.__getitem__, columns[0]),
                                    map(width.__getitem__, columns[1]), *columns[2:])):
            first.setdefault(key, k)
    return all(map(operator.lt, ids, ids[1:])), bounds, list(first.values())


def _side_rows(t: "OverlapTable", ket: str, bra: str) -> list[tuple]:
    """The distinct states that the rows' z = <bra| O |ket> read, in blocks
    of rows that share a part width and an observable: (the block's rows,
    its observable position, the distinct (circuit, label) positions of its
    bra states, each row's position among those, the same of its ket
    states). The rows are a slice when the table has one block.

    A channel plan's blocks are its parts, read off its term list: one tuple
    of part a's distinct circuits serves both sides, and a row reads the
    states of its pair's two terms."""
    terms = t._derived.terms
    if terms is not None:
        side, n_parts = {"left": terms.left, "right": terms.right}, terms.parts.shape[1]
        out = []
        for a in range(n_parts):
            circuits = list(dict.fromkeys(terms.parts[:, a].tolist()))  # part a's, distinct
            position = np.zeros(len(t.circuits), dtype=np.intp)  # of each among them
            position[circuits] = np.arange(len(circuits))
            of_term, at = position[terms.parts[:, a]], tuple((c, a) for c in circuits)
            out.append((slice(a, None, n_parts), a, at, of_term[side[bra]], at, of_term[side[ket]]))
        return out
    label, n_observables = t.label, len(t.observables)
    n_labels = int(label.max(initial=-1)) + 1

    def distinct_states(circuit: np.ndarray, rows) -> tuple:
        """The distinct (circuit, label) positions of the rows, and each row's
        position among them (each pair coded as one integer)."""
        codes, of_row = np.unique(circuit[rows] * n_labels + label[rows], return_inverse=True)
        return tuple(zip(*(x.tolist() for x in np.divmod(codes, n_labels)))), of_row

    width = np.array([c.n_qubits for c in t.circuits], dtype=np.intp)[getattr(t, ket)]
    block = width * n_observables + t.observable
    blocks = sorted(set(block.tolist()))
    out = []
    for key in blocks:
        rows = slice(None) if len(blocks) == 1 else np.flatnonzero(block == key)
        out.append((rows, key % n_observables, *distinct_states(getattr(t, bra), rows),
                    *distinct_states(getattr(t, ket), rows)))
    return out


@dataclass(frozen=True, eq=False, kw_only=True)
class OverlapTable:
    """Overlap rows z = <label| U_right^dagger O U_left |label> as one table.

    ``circuits``, ``observables`` and ``labels`` hold the distinct part
    circuits, observables (PauliStrings or unitary matrices) and input
    labels. Each row is one overlap, in ascending id order: ``ids`` and the
    table positions ``left``, ``right``, ``observable`` and ``label``, each
    a read-only intp column, converted here once. An id is an int >= 0 and
    a position an int, neither a bool, the rules a worker reads a batch
    row by. Every row is read as ``readouts``, drawn from "ax", "ay", "p0",
    "p1" (p0 / p1 need Pauli observables) and "e:<P>", whose Pauli letters
    P span the row's width (``_parse_readout``). A table whose readouts are
    all "e:<P>" pushes its states through non-unitary RAW gates too: that
    is how density tasks run.

    The columns' lengths, the ascending ids and the table bounds are checked
    here; a row's operands are checked by ``check_overlap_operands`` alone,
    called once per distinct (left width, right width, observable, label)
    on that combination's first row, so the first bad row raises that
    rule's own error. What the runtime derives from the columns (each side
    pair's distinct states, and a plan's sibling groups) is kept in
    ``_derived``, shared by the tables built on the same columns.
    """

    circuits: tuple[Circuit, ...]
    observables: tuple[PauliString | np.ndarray, ...]
    labels: tuple[str, ...]
    ids: np.ndarray
    left: np.ndarray
    right: np.ndarray
    observable: np.ndarray
    label: np.ndarray
    readouts: tuple[str, ...] = ("ax", "ay")
    _derived: _Derived | None = field(default=None, repr=False)

    # the columns, which with the circuit table are the derived values' source
    _columns: ClassVar[tuple[str, ...]] = ("ids", "left", "right", "observable", "label")

    def __post_init__(self):
        fields = vars(self)  # each field is converted here, once
        fields["ids"] = _index_column(self.ids, _ID_RULE, 0)
        for name in ("left", "right", "observable", "label"):
            fields[name] = _index_column(fields[name], _POSITION_RULE)
        columns = [fields[name] for name in self._columns]
        if any(len(col) != len(self.ids) for col in columns):
            raise ShapeMismatch("plan columns differ in length")
        circuits = fields["circuits"] = tuple(self.circuits)
        labels = fields["labels"] = tuple(self.labels)
        if self._derived is None or not all(map(operator.is_, self._derived.source,
                                                (circuits, *columns))):
            fields["_derived"] = _Derived((circuits, *columns))

        ascending, bounds, operand_rows = self._derive("extent", _extent)
        if not ascending:
            raise ShapeMismatch("plan ids must be distinct and ascending")
        if any(low < 0 or high >= len(table)
               for (low, high), table in zip(bounds, (circuits, circuits, self.observables, labels))):
            raise ShapeMismatch("plan row points outside its operand table")
        observables = fields["observables"] = tuple(
            o if isinstance(o, PauliString) else np.asarray(o, dtype=complex)
            for o in self.observables)
        for k in operand_rows:
            check_overlap_operands(circuits[self.left[k]], circuits[self.right[k]],
                                   observables[self.observable[k]], labels[self.label[k]])
        readouts = self.readouts
        kinds = ["e:" if isinstance(d, str) and d.startswith("e:") else d for d in readouts]
        if not readouts or not _OVERLAP_READOUTS.issuperset(kinds):
            raise ValueError(f"overlap readouts must be drawn from {sorted(_OVERLAP_READOUTS)}, "
                             f"got {list(readouts)}")
        for desc, k in itertools.product(readouts, operand_rows):
            if desc.startswith("e:"):
                _parse_readout(desc, circuits[self.left[k]].n_qubits)
        if not ({"p0", "p1"}.isdisjoint(readouts)
                or all(isinstance(o, PauliString) for o in observables)):
            raise ValueError("overlap readouts p0 / p1 need a Pauli observable")
        if not isinstance(readouts, tuple):
            fields["readouts"] = tuple(readouts)

    def _derive(self, key, compute):
        """``compute(self)``, kept in the derived values under ``key``."""
        derived = self._derived
        if key not in derived:
            derived[key] = compute(self)
        return derived[key]

    def sides(self, ket: str, bra: str) -> list[tuple]:
        """``_side_rows`` of the (ket, bra) side pair, computed once per columns."""
        return self._derive((ket, bra), lambda t: _side_rows(t, ket, bra))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_qubits(self) -> int:
        """The widest part its rows read (0 for a table without rows): a
        worker's table holds every circuit of its batch."""
        first_rows = self._derive("extent", _extent)[2]
        return max((self.circuits[k].n_qubits for k in self.left[first_rows].tolist()), default=0)


def _groups(plan: "Plan") -> tuple[np.ndarray, list]:
    """The sibling groups as aggregation reads them: a group is a run of
    rows whose indices[:5] agree. Returns each group's coefficient (that of
    its last a = 0 row, else 1) and, for each member position k, the groups
    that have a k-th member and the row of that member. A channel plan's
    groups are its pairs, read off its term list, and every pair's k-th
    member is part k, so both are slices."""
    terms = plan._derived.terms
    if terms is not None:
        n_parts = terms.parts.shape[1]
        return terms.coefficient, [(slice(None), slice(k, None, n_parts)) for k in range(n_parts)]
    n = len(plan)
    first = np.ones(n, dtype=bool)  # where a group starts
    np.not_equal(plan.indices[1:, :5], plan.indices[:-1, :5]).any(1, out=first[1:])
    starts = np.flatnonzero(first)
    size = np.diff(starts, append=n)
    # each group's last a = 0 row, or -1 when it has none
    row = np.maximum.reduceat(np.where(plan.indices[:, 5] == 0, np.arange(n), -1), starts)
    coefficient = plan.coefficient[row]
    coefficient[row < 0] = 1.0
    members = []
    for k in range(size.max(initial=0)):
        more = np.flatnonzero(size > k)
        members.append((more, starts[more] + k))
    return coefficient, members


@dataclass(frozen=True, eq=False, kw_only=True)
class Plan(OverlapTable):
    """A subtask plan: an overlap table whose rows read ("ax", "ay"), with
    each row's ``indices`` (p, i, j, alpha, alpha2, a), an n x 6 intp array,
    and its ``coefficient``, a complex column. The plans of one channel share
    its circuit table, columns and derived values. ``len`` counts rows;
    iterating yields them as Subtasks.
    """

    readouts: ClassVar[tuple[str, ...]] = ("ax", "ay")
    indices: np.ndarray
    coefficient: np.ndarray

    _columns: ClassVar[tuple[str, ...]] = OverlapTable._columns + ("indices", "coefficient")

    def __post_init__(self):
        fields = vars(self)
        indices = self.indices
        try:
            if not (isinstance(indices, np.ndarray) and indices.dtype.kind in "iu"):
                rows = indices.tolist() if isinstance(indices, np.ndarray) else list(indices)
                if any(len(row) != 6 for row in rows):
                    raise ValueError
                _index_column([x for row in rows for x in row], _POSITION_RULE)
            fields["indices"] = _frozen(indices, np.intp, (len(indices), 6))
        except (TypeError, ValueError):
            raise ShapeMismatch("plan indices must be six integers per row") from None
        fields["coefficient"] = _frozen(self.coefficient, complex, (len(self.coefficient),))
        super().__post_init__()

    @classmethod
    def from_subtasks(cls, subtasks) -> "Plan":
        """The table of a hand-built subtask list (rows sorted by id)."""
        rows = sorted(subtasks, key=lambda s: s.id)
        circuits: dict[Circuit, int] = {}  # Circuit hashes by identity
        observables: dict = {}  # PauliStrings by value, matrices by identity
        labels: dict[str, int] = {}
        left, right, observable, label = [], [], [], []
        obs_table = []
        for s in rows:
            left.append(circuits.setdefault(s.left_circuit, len(circuits)))
            right.append(circuits.setdefault(s.right_circuit, len(circuits)))
            key = s.observable if isinstance(s.observable, PauliString) else id(s.observable)
            if key not in observables:
                observables[key] = len(obs_table)
                obs_table.append(s.observable)
            observable.append(observables[key])
            label.append(labels.setdefault(s.input_label, len(labels)))
        return cls(
            circuits=tuple(circuits), observables=tuple(obs_table), labels=tuple(labels),
            ids=tuple(s.id for s in rows), indices=tuple(s.indices for s in rows),
            left=tuple(left), right=tuple(right), observable=tuple(observable),
            label=tuple(label), coefficient=tuple(s.coefficient for s in rows),
        )

    @property
    def groups(self) -> tuple[np.ndarray, list]:
        """``_groups``, computed once per columns."""
        return self._derive("groups", _groups)

    def __iter__(self):
        return (self.row(k) for k in range(len(self)))

    def row(self, k: int) -> Subtask:
        return Subtask(
            id=int(self.ids[k]),
            indices=tuple(self.indices[k].tolist()),
            left_circuit=self.circuits[self.left[k]],
            right_circuit=self.circuits[self.right[k]],
            observable=self.observables[self.observable[k]],
            input_label=self.labels[self.label[k]],
            coefficient=complex(self.coefficient[k]),
        )


@dataclass(frozen=True, eq=False)
class EstimatorCircuit:
    """Single-ancilla overlap circuit: qubit 0 is the ancilla.

    Reading <sigma_x>_anc + i <sigma_y>_anc after running on |0> (x) |psi0>
    yields <psi0| U_right^dagger O U_left |psi0>.
    """

    circuit: Circuit
    readouts: tuple[str, ...] = ("ax", "ay")

    @property
    def n_system(self) -> int:
        return self.circuit.n_qubits - 1


def enumerate_subtasks(
    ch: ChannelLCU,
    rho_parts: tuple[str, ...],
    obs_parts: tuple,
) -> Plan:
    """Expand a ChannelLCU expectation into its full subtask plan.

    ``rho_parts`` are per-part computational basis labels (e.g. ("00", "0"));
    ``obs_parts`` are per-part PauliStrings (or unitary RAW matrices). Ids are
    dense 0..N-1 in lexicographic (p, i, j, alpha, alpha2, a) order; N equals
    q * sum over (i,j) of ell_i * ell_j * A. The plan's circuit table holds
    the channel's distinct part circuits; its observable and label tables
    hold one entry per part.
    """
    n_parts = len(ch.part_widths)
    if len(rho_parts) != n_parts or len(obs_parts) != n_parts:
        raise ShapeMismatch(
            f"need {n_parts} input labels and observables, got "
            f"{len(rho_parts)} and {len(obs_parts)}"
        )
    return Plan(observables=tuple(obs_parts), labels=tuple(rho_parts), **ch._subtask_columns)


def _observable_matrix(obs) -> np.ndarray:
    if isinstance(obs, PauliString):
        return obs.matrix()
    return np.asarray(obs, dtype=complex)


def check_overlap_operands(left: Circuit, right: Circuit, observable, input_label: str) -> None:
    """Validate one overlap <label| U_right^dagger O U_left |label>.

    The circuits must share a width w, the observable must be a w-letter
    PauliString or a unitary 2^w x 2^w matrix, and the input label must be a
    string of w bits. Pauli observables are never expanded to a dense matrix here.
    """
    w = left.n_qubits
    if right.n_qubits != w:
        raise ShapeMismatch("left/right circuits must have the same width")
    if not isinstance(input_label, str):
        raise ShapeMismatch(f"an overlap's input must be a string, got {input_label!r}")
    if len(input_label) != w or any(ch not in "01" for ch in input_label):
        raise ShapeMismatch(f"input label {input_label!r} does not fit width {w}")
    if isinstance(observable, PauliString):
        if observable.n_qubits != w:
            raise ShapeMismatch("observable width does not match the circuits")
        return
    obs = np.asarray(observable, dtype=complex)
    if obs.shape != (2**w, 2**w):
        raise ShapeMismatch("observable width does not match the circuits")
    if not is_unitary(obs):
        raise NonUnitaryObservable("estimator observables must be unitary")


def build_estimator_circuit(s: Subtask) -> EstimatorCircuit:
    """Synthesize the single-ancilla circuit for one subtask.

    Layout (ancilla = qubit 0): H on the ancilla; the right circuit fires on
    ancilla |0> (anti-controlled); the left circuit and then the observable fire
    on ancilla |1> (controlled). All controls are RAW two-block matrices. The
    final state is (|0> U_right|psi> + |1> O U_left|psi>)/sqrt(2), so the
    ancilla coherence <sigma_x> + i <sigma_y> is <psi|U_right^dagger O U_left|psi>.

    This is the hardware-faithful export of a subtask and the oracle the tests
    hold the runtime's "overlap" tasks to; run_plan itself never synthesizes
    it. The input label is not part of the circuit (prepare it on qubits 1..w).
    """
    check_overlap_operands(s.left_circuit, s.right_circuit, s.observable, s.input_label)
    w = s.left_circuit.n_qubits
    obs = _observable_matrix(s.observable)
    dim = 2**w
    u_left = circuit_unitary(s.left_circuit)
    u_right = circuit_unitary(s.right_circuit)
    eye = np.eye(dim, dtype=complex)

    def two_block(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        out = np.zeros((2 * dim, 2 * dim), dtype=complex)
        out[:dim, :dim] = upper
        out[dim:, dim:] = lower
        return out

    all_qubits = tuple(range(w + 1))
    gates = (
        Gate("H", (0,)),
        Gate("RAW", all_qubits, raw=two_block(u_right, eye)),
        Gate("RAW", all_qubits, raw=two_block(eye, u_left)),
        Gate("RAW", all_qubits, raw=two_block(eye, obs)),
    )
    return EstimatorCircuit(circuit=Circuit(w + 1, gates))


# --- GHZ overlap tomography across one cut -------------------------------------

@dataclass(frozen=True)
class Evaluation:
    """One scheduled observable evaluation of the GHZ overlap plan."""

    id: int
    template: int  # 0 probes the |phi_j> pair, 1 probes the |psi_k> pair
    setting: str  # two-qubit Pauli label measured on the part
    readout: str  # "ax" | "ay" | "p0" | "p1", an overlap-task readout


def ghz4_template() -> Circuit:
    """The 4-qubit GHZ preparation used throughout: H's + CZ ladder."""
    return Circuit(
        4,
        (
            Gate("H", (0,)),
            Gate("H", (1,)),
            Gate("H", (2,)),
            Gate("H", (3,)),
            Gate("CZ", (0, 1)),
            Gate("H", (1,)),
            Gate("CZ", (1, 2)),
            Gate("H", (2,)),
            Gate("CZ", (2, 3)),
            Gate("H", (3,)),
        ),
    )


def ghz_state(n_qubits: int = 4) -> np.ndarray:
    v = np.zeros(2**n_qubits, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return v


def ghz_overlap_plan() -> tuple[
    tuple[tuple[Circuit, Circuit], tuple[Circuit, Circuit]], tuple[Evaluation, ...]
]:
    """Two templates x 16 Pauli settings x 4 readouts = 128 evaluations.

    A template is the (left, right) pair of two-qubit circuits that prepare
    its two part states from |00>: template 0 holds |phi_2> = (I x Z)|phi_1>
    and the Bell pair |phi_1> of part A, template 1 holds |psi_2> = |11> and
    |psi_1> = |00> of part B. Each evaluation is one overlap-task readout with
    the setting M as observable: "ax" + i "ay" is the off-diagonal gram entry
    <state_1|M|state_2>, and "p0" / "p1" are half the diagonal entries
    <state_1|M|state_1> / <state_2|M|state_2>, as on the single-ancilla
    circuit that prepares (|0>|state_1> + |1>|state_2>)/sqrt(2).
    """
    bell = (Gate("H", (0,)), Gate("H", (1,)), Gate("CZ", (0, 1)), Gate("H", (1,)))
    template_a = (Circuit(2, bell + (Gate("Z", (1,)),)), Circuit(2, bell))
    template_b = (Circuit(2, (Gate("X", (0,)), Gate("X", (1,)))), Circuit(2, ()))
    evaluations: list[Evaluation] = []
    next_id = 0
    for template in (0, 1):
        for setting in PAULI_2Q_LABELS:
            for readout in ("ax", "ay", "p0", "p1"):
                evaluations.append(
                    Evaluation(id=next_id, template=template, setting=setting, readout=readout)
                )
                next_id += 1
    return (template_a, template_b), tuple(evaluations)


def assemble_grams(
    evaluations: tuple[Evaluation, ...], values: dict[int, float]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Fold evaluation results into per-setting 2x2 gram tables (part A, part B).

    gram[M][r, c] = <state_{r+1}| M |state_{c+1}>: diagonals from the projector
    readouts (doubled branch weights), off-diagonal from the ancilla coherence.
    """
    raw: dict[tuple[int, str], dict[str, float]] = {}
    for ev in evaluations:
        if ev.id not in values:
            raise IncompleteTables(f"missing value for evaluation {ev.id}")
        raw.setdefault((ev.template, ev.setting), {})[ev.readout] = values[ev.id]
    tables: tuple[dict[str, np.ndarray], dict[str, np.ndarray]] = ({}, {})
    for template in (0, 1):
        for setting in PAULI_2Q_LABELS:
            entry = raw.get((template, setting), {})
            if set(entry) != {"ax", "ay", "p0", "p1"}:
                raise IncompleteTables(
                    f"incomplete readouts for template {template}, setting {setting}"
                )
            coherence = entry["ax"] + 1j * entry["ay"]
            tables[template][setting] = np.array(
                [
                    [2.0 * entry["p0"], coherence],
                    [np.conj(coherence), 2.0 * entry["p1"]],
                ],
                dtype=complex,
            )
    return tables


_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])


def reconstruct_density_matrix(
    gram_a: dict[str, np.ndarray],
    gram_b: dict[str, np.ndarray],
    *,
    check_physical: bool = True,
) -> np.ndarray:
    """Rebuild the 16x16 density matrix from the two per-part gram tables.

    <P_a x P_b> = N^-1 sum_{j,j',k,k'} s_jk s_j'k' gram_a[P_a][j',j] gram_b[P_b][k',k]
    with s = [[1,1],[1,-1]] and N the same contraction at P = identity; then
    rho = 2^-4 sum_P <P> P.
    """
    for name, table in (("gram_a", gram_a), ("gram_b", gram_b)):
        missing = [p for p in PAULI_2Q_LABELS if p not in table]
        if missing:
            raise IncompleteTables(f"{name} missing settings {missing}")

    def contract(ga: np.ndarray, gb: np.ndarray) -> complex:
        return complex(np.einsum("jk,ab,aj,bk->", _SIGNS, _SIGNS, ga, gb))

    norm = contract(gram_a["II"], gram_b["II"])
    if abs(norm) < 1e-12:
        raise NonPhysical("normalization contraction vanished")
    paulis = {p: pauli_matrix(p) for p in PAULI_2Q_LABELS}
    rho = np.zeros((16, 16), dtype=complex)
    for pa in PAULI_2Q_LABELS:
        for pb in PAULI_2Q_LABELS:
            expec = contract(gram_a[pa], gram_b[pb]) / norm
            rho += expec * kron(paulis[pa], paulis[pb])
    rho /= 16.0
    rho = (rho + rho.conj().T) / 2.0
    if abs(float(np.trace(rho).real) - 1.0) > 1e-9:
        raise NonPhysical("reconstructed trace differs from 1 beyond 1e-9")
    if check_physical:
        min_eig = float(np.min(np.linalg.eigvalsh(rho)))
        if min_eig < -1e-6:
            raise NonPhysical(f"reconstruction has eigenvalue {min_eig:.3e} < -1e-6")
    return rho


# --- GHZ via wire-cut quasi-probability density path ----------------------------

@dataclass(frozen=True)
class CutSetting:
    """One tomography setting of the wire-cut pipeline: a term and a 2-qubit Pauli."""

    id: int
    term: int
    pauli: str


def ghz_cutting_plan() -> tuple[
    tuple[tuple[Circuit, Circuit], ...],
    tuple[CutSetting, ...],
    "object",
]:
    """Quasi-probability baseline: 10 subcircuit pairs, 160 tomography settings.

    Each decomposition term yields a part-A and a part-B 2-qubit circuit with
    the term's (possibly non-unitary) local map inserted at the cut position;
    both run on the density path. The combiner takes per-setting value pairs
    (part A expectation, part B expectation, aligned with the settings list)
    and returns (normalized rho, raw trace).
    """
    decomposition = cz_cutting_decomposition()
    subcircuits: list[tuple[Circuit, Circuit]] = []
    for _, (ops_a, ops_b) in decomposition.terms:
        (ka,) = ops_a
        (kb,) = ops_b
        circ_a = Circuit(
            2,
            (
                Gate("H", (0,)),
                Gate("H", (1,)),
                Gate("CZ", (0, 1)),
                Gate("H", (1,)),
                Gate("RAW", (1,), raw=ka),
            ),
        )
        circ_b = Circuit(
            2,
            (
                Gate("H", (0,)),
                Gate("H", (1,)),
                Gate("RAW", (0,), raw=kb),
                Gate("H", (0,)),
                Gate("CZ", (0, 1)),
                Gate("H", (1,)),
            ),
        )
        subcircuits.append((circ_a, circ_b))
    settings: list[CutSetting] = []
    next_id = 0
    for term in range(decomposition.n_terms):
        for pauli in PAULI_2Q_LABELS:
            settings.append(CutSetting(id=next_id, term=term, pauli=pauli))
            next_id += 1

    coeffs = tuple(c for c, _ in decomposition.terms)

    def combiner(values: list[tuple[float, float]]) -> tuple[np.ndarray, float]:
        if len(values) != len(settings):
            raise IncompleteTables(
                f"combiner needs {len(settings)} value pairs, got {len(values)}"
            )
        paulis = [pauli_matrix(pauli) for pauli in PAULI_2Q_LABELS]
        rho = np.zeros((16, 16), dtype=complex)
        for term, coeff in enumerate(coeffs):
            rho_a = np.zeros((4, 4), dtype=complex)
            rho_b = np.zeros((4, 4), dtype=complex)
            for k, mat in enumerate(paulis):
                va, vb = values[term * 16 + k]
                rho_a += (va / 4.0) * mat
                rho_b += (vb / 4.0) * mat
            rho += coeff * kron(rho_a, rho_b)
        raw_trace = float(np.trace(rho).real)
        if abs(raw_trace) < 1e-12:
            raise NonPhysical("combined state has vanishing trace")
        return rho / raw_trace, raw_trace

    return tuple(subcircuits), tuple(settings), combiner


def scaling_counts(m: int) -> dict[str, int]:
    """Per-observable-set subtask counts at m crossing gates: ours vs cutting."""
    return {"ours": 8 * 2**m, "cutting": 16 * 10**m}
