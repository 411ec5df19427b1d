"""The one type of overlap rows, from planner to backend, and its column rules.

An ``OverlapTable`` holds the distinct part circuits, observables and input
labels of its rows, and read-only columns of row ids and table positions,
converted and checked once at construction (operands once per distinct
combination rather than once per row, by ``check_overlap_operands``). It
keeps what the runtime derives from its columns, shared by the tables built
on the same columns (the plans of one channel), and every table, of one row
or many, finds the distinct part states its rows read the same way
(``_side_rows``); a channel plan reads these values off its channel's term
list (``_Terms``). The tables on one holder with the same labels form a
stack (``_stacks``), which the runtime reads and reduces as one.

A column's rules have one implementation each, for a local table and for a
worker's decoded batch items alike: ``_index_column`` for row ids and table
positions, ``_parse_readout`` for readout descriptors and
``check_overlap_operands`` for operands, so a worker refuses the rows a
controller would, with the same message.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .circuit import Circuit, PauliString
from .linalg import is_unitary


class ShapeMismatch(ValueError):
    """Raised when parts/widths/labels of a plan do not line up."""


class NonUnitaryObservable(ValueError):
    """Raised when an estimator observable is not unitary."""


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
