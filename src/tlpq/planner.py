"""Turn channel-expectation problems into independent single-ancilla subtasks.

The central identity: for a channel Phi(rho) = sum_p A_p rho A_p^dagger with
A_p = sum_i c_{p,i} U_{p,i} and each U factorized across parts as
U_{p,i} = sum_alpha coeff_alpha (x)_a U^a_{p,i,alpha}, a product observable and
product input make Tr(O Phi(rho)) a weighted sum of per-part overlaps

    <psi0^a| (U^a_{p,j,alpha'})^dagger O^a U^a_{p,i,alpha} |psi0^a>,

each measurable with one ancilla (Hadamard-test style). This module enumerates
those subtasks as a ``Plan``: tables of the distinct part circuits,
observables and input labels, and one row of table positions per subtask, so
operands are checked once per distinct operand rather than once per row. The
runtime computes each row's overlap from the gate lists;
``build_estimator_circuit`` gives the hardware-faithful single-ancilla circuit
of a subtask on request. The module also carries the two GHZ pipelines:
overlap tomography across a cut, whose gram entries are overlaps of two-qubit
part states, and the wire-cut density baseline.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    PauliString,
    circuit_unitary,
    pauli_matrix,
)
from .factorize import ChannelQuasiDecomposition, cz_cutting_decomposition
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

    @property
    def n_parts(self) -> int:
        return len(self.terms[0][1])

    @property
    def part_widths(self) -> tuple[int, ...]:
        return tuple(c.n_qubits for c in self.terms[0][1])

    def dense(self) -> np.ndarray:
        """Dense sum over terms of coeff * kron of part unitaries (<= 12 qubits)."""
        total_width = sum(self.part_widths)
        if total_width > 12:
            raise ShapeMismatch("dense check limited to 12 total qubits")
        out = np.zeros((2**total_width,) * 2, dtype=complex)
        for coeff, circs in self.terms:
            block = circuit_unitary(circs[0])
            for c in circs[1:]:
                block = kron(block, circuit_unitary(c))
            out += coeff * block
        return out

    def check_unitary(self, tol: float = 1e-8) -> None:
        if not is_unitary(self.dense(), tol):
            raise ShapeMismatch("factorized terms do not resum to a unitary")

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
    With ``cptp_expected`` the trace-preservation identity
    sum_p A_p^dagger A_p == I is checked densely at construction.
    """

    branches: tuple[tuple[tuple[complex, ...], tuple[FactorizedUnitary, ...]], ...]
    cptp_expected: bool = False

    def __post_init__(self):
        if not self.branches:
            raise ShapeMismatch("ChannelLCU needs at least one branch")
        m = len(self.branches[0][0])
        widths = self.branches[0][1][0].part_widths
        for coeffs, fus in self.branches:
            if len(coeffs) != m or len(fus) != m:
                raise ShapeMismatch("all branches must share the same m")
            for fu in fus:
                if fu.part_widths != widths:
                    raise ShapeMismatch("all unitaries must share part widths")
        if self.cptp_expected:
            self._check_trace_preserving()

    @property
    def q(self) -> int:
        return len(self.branches)

    @property
    def m(self) -> int:
        return len(self.branches[0][0])

    @property
    def part_widths(self) -> tuple[int, ...]:
        return self.branches[0][1][0].part_widths

    @functools.cached_property
    def _subtask_columns(self) -> tuple[tuple[Circuit, ...], "_Columns"]:
        """The subtask rows that no input or observable changes, as arrays: the
        table of distinct part circuits, and the columns of every row in id
        order, whose ``observable`` and ``label`` are the part a. Built once,
        so all plans of this channel share them. A group's coefficient
        c_i conj(c_j) coeff_alpha conj(coeff_alpha2) is multiplied left to
        right, each product rounded as a scalar complex multiply rounds it."""
        # circuits by first use: each branch's unitaries' terms' parts, in order
        circuits = dict.fromkeys(
            c for _, fus in self.branches for fu in fus for _, parts in fu.terms for c in parts)
        position = dict(zip(circuits, range(len(circuits))))
        n_parts = len(self.part_widths)
        columns = []  # per branch: indices, left, right, coefficient
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
            ))
        indices, left, right, coefficient = (np.concatenate(col) for col in zip(*columns))
        part = np.ascontiguousarray(indices[:, 5])
        return tuple(circuits), _Columns(np.arange(len(part)), indices, left, right, part, part,
                                         coefficient)

    @functools.cached_property
    def _subtask_rows(self) -> tuple:
        """``_subtask_columns`` as the tuples a Plan holds: the circuit table,
        then the indices (p, i, j, alpha, alpha2, a), left and right circuit
        positions and coefficients of every row."""
        circuits, rows = self._subtask_columns
        return (circuits, tuple(zip(*rows.indices.T.tolist())), tuple(rows.left.tolist()),
                tuple(rows.right.tolist()), tuple(rows.coefficient.tolist()))

    @functools.cached_property
    def _plan_fields(self) -> dict:
        """The Plan fields every plan of this channel shares, as tuples."""
        circuits, indices, left, right, coefficient = self._subtask_rows
        n_parts = len(self.part_widths)
        part = tuple(range(n_parts)) * (len(indices) // n_parts)
        return dict(circuits=circuits, ids=tuple(range(len(indices))), indices=indices,
                    left=left, right=right, observable=part, label=part, coefficient=coefficient)

    def branch_operator(self, p: int) -> np.ndarray:
        coeffs, fus = self.branches[p]
        out = None
        for c, fu in zip(coeffs, fus):
            block = c * fu.dense()
            out = block if out is None else out + block
        return out

    def _check_trace_preserving(self, tol: float = 1e-8) -> None:
        total_width = sum(self.part_widths)
        if total_width > 6:
            return  # dense check only at small scale
        dim = 2**total_width
        acc = np.zeros((dim, dim), dtype=complex)
        for p in range(self.q):
            a_p = self.branch_operator(p)
            acc += a_p.conj().T @ a_p
        if float(np.max(np.abs(acc - np.eye(dim)))) > tol:
            raise NonPhysical("channel is not trace preserving within 1e-8")


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


@dataclass(frozen=True, eq=False)
class _Columns:
    """The rows of a plan as arrays: ``ids``, ``left``, ``right``,
    ``observable`` and ``label`` (intp), ``indices`` (n x 6 intp) and
    ``coefficient`` (complex). The plans of one channel share one; a plan
    built by hand reads its own from its tuples, once, at construction.
    ``sides`` is the runtime's cache of the rows' distinct part states,
    filled on first use."""

    ids: np.ndarray
    indices: np.ndarray
    left: np.ndarray
    right: np.ndarray
    observable: np.ndarray
    label: np.ndarray
    coefficient: np.ndarray
    sides: dict = field(default_factory=dict)

    @classmethod
    def read(cls, plan: "Plan") -> "_Columns":
        """The columns of ``plan``'s tuples."""
        n = len(plan.ids)
        ids, left, right, observable, label = (
            np.fromiter(col, np.intp, n)
            for col in (plan.ids, plan.left, plan.right, plan.observable, plan.label))
        try:
            indices = np.array(plan.indices, dtype=np.intp).reshape(n, 6)
        except (TypeError, ValueError):
            raise ShapeMismatch("plan indices must be six integers per row") from None
        return cls(ids, indices, left, right, observable, label,
                   np.fromiter(plan.coefficient, complex, n))

    @functools.cached_property
    def extent(self) -> tuple[bool, list[tuple[int, int]], list[int]]:
        """What the plan checks read of the columns alone: whether the ids
        ascend strictly; the (least, greatest) position in ``left``,
        ``right``, ``observable`` and ``label`` ((0, -1) when empty); the
        observable positions in use."""
        bounds = [(int(col.min(initial=0)), int(col.max(initial=-1)))
                  for col in (self.left, self.right, self.observable, self.label)]
        return (bool((self.ids[1:] > self.ids[:-1]).all()), bounds,
                sorted(set(self.observable.tolist())))

    @functools.cached_property
    def groups(self) -> tuple[np.ndarray, list]:
        """The sibling groups as aggregation reads them: a group is a run of
        rows whose indices[:5] agree. Returns each group's coefficient (that
        of its last a = 0 row, else 1) and, for each member position k, the
        groups that have a k-th member and the row of that member."""
        n = len(self.ids)
        first = np.ones(n, dtype=bool)  # where a group starts
        np.not_equal(self.indices[1:, :5], self.indices[:-1, :5]).any(1, out=first[1:])
        starts = np.flatnonzero(first)
        size = np.diff(starts, append=n)
        # each group's last a = 0 row, or -1 when it has none
        row = np.maximum.reduceat(np.where(self.indices[:, 5] == 0, np.arange(n), -1), starts)
        coefficient = self.coefficient[row]
        coefficient[row < 0] = 1.0
        members = []
        for k in range(size.max(initial=0)):
            more = np.flatnonzero(size > k)
            members.append((more, starts[more] + k))
        return coefficient, members


# each Plan's _Columns, kept beside the plan so its __dict__ holds only its fields
_COLUMNS: "weakref.WeakKeyDictionary[Plan, _Columns]" = weakref.WeakKeyDictionary()


def _plan_columns(plan: "Plan") -> _Columns:
    """A plan's rows as arrays: the channel's it shares, or its own, read
    from its tuples on first use."""
    rows = _COLUMNS.get(plan)
    if rows is None:
        rows = _COLUMNS[plan] = _Columns.read(plan)
    return rows


@dataclass(frozen=True, eq=False)
class Plan:
    """A subtask plan as a table.

    ``circuits``, ``observables`` and ``labels`` hold the distinct part
    circuits, observables (PauliStrings or unitary matrices) and input
    labels. Each row is one subtask, in ascending id order: ``ids``,
    ``indices`` (p, i, j, alpha, alpha2, a), the table positions ``left``,
    ``right``, ``observable`` and ``label``, and ``coefficient``. Every
    distinct operand is checked once, under the rules of
    ``check_overlap_operands``, and every row's operand widths must agree;
    the checks run on the rows as arrays. Those arrays are kept beside the
    plan, not in it: the plans of one channel share the channel's, and a
    plan built by hand reads its own from its tuples. ``len`` counts rows;
    iterating yields them as Subtasks.
    """

    circuits: tuple[Circuit, ...]
    observables: tuple[PauliString | np.ndarray, ...]
    labels: tuple[str, ...]
    ids: tuple[int, ...]
    indices: tuple[tuple[int, int, int, int, int, int], ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    observable: tuple[int, ...]
    label: tuple[int, ...]
    coefficient: tuple[complex, ...]

    def __post_init__(self):
        columns = (self.indices, self.left, self.right, self.observable, self.label,
                   self.coefficient)
        if any(len(col) != len(self.ids) for col in columns):
            raise ShapeMismatch("plan columns differ in length")
        rows = _plan_columns(self)
        ascending, bounds, observables_used = rows.extent
        if not ascending:
            raise ShapeMismatch("plan ids must be distinct and ascending")
        tables = (self.circuits, self.circuits, self.observables, self.labels)
        if any(low < 0 or high >= len(table) for (low, high), table in zip(bounds, tables)):
            raise ShapeMismatch("plan row points outside its operand table")
        observables = tuple(
            o if isinstance(o, PauliString) else np.asarray(o, dtype=complex)
            for o in self.observables
        )
        object.__setattr__(self, "observables", observables)
        circuit_w = np.array([c.n_qubits for c in self.circuits], dtype=np.intp)
        observable_w = np.array([_observable_width(o) for o in observables], dtype=np.intp)
        label_w = np.array([len(b) if b and set(b) <= {"0", "1"} else -1 for b in self.labels],
                           dtype=np.intp)
        width = circuit_w[rows.left]
        bad = ((circuit_w[rows.right] != width) | (observable_w[rows.observable] != width)
               | (label_w[rows.label] != width))
        if bad.any():
            s = self.row(int(bad.argmax()))  # the rule raises its own error for the first bad row
            check_overlap_operands(s.left_circuit, s.right_circuit, s.observable, s.input_label)
        for o in observables_used:
            if not isinstance(observables[o], PauliString) and not is_unitary(observables[o]):
                raise NonUnitaryObservable("estimator observables must be unitary")

    @classmethod
    def _sharing(cls, rows: _Columns, **fields) -> "Plan":
        """The plan of ``fields`` whose rows, as arrays, are ``rows``: how the
        plans of one channel share its columns."""
        plan = object.__new__(cls)
        _COLUMNS[plan] = rows
        plan.__init__(**fields)
        return plan

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

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return (self.row(k) for k in range(len(self.ids)))

    def row(self, k: int) -> Subtask:
        return Subtask(
            id=self.ids[k],
            indices=self.indices[k],
            left_circuit=self.circuits[self.left[k]],
            right_circuit=self.circuits[self.right[k]],
            observable=self.observables[self.observable[k]],
            input_label=self.labels[self.label[k]],
            coefficient=self.coefficient[k],
        )

    @property
    def n_qubits(self) -> int:
        """The widest part of the plan (0 for an empty plan)."""
        return max((c.n_qubits for c in self.circuits), default=0)


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
    return Plan._sharing(ch._subtask_columns[1], observables=tuple(obs_parts),
                         labels=tuple(rho_parts), **ch._plan_fields)


def _observable_matrix(obs) -> np.ndarray:
    if isinstance(obs, PauliString):
        return obs.matrix()
    return np.asarray(obs, dtype=complex)


def _observable_width(obs) -> int:
    """The width an observable fits: its letters, or log2 of a square 2^w matrix
    (-1 for any other shape)."""
    if isinstance(obs, PauliString):
        return obs.n_qubits
    shape = np.shape(obs)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2 or shape[0] & (shape[0] - 1):
        return -1
    return shape[0].bit_length() - 1


def check_overlap_operands(left: Circuit, right: Circuit, observable, input_label: str) -> None:
    """Validate one overlap <label| U_right^dagger O U_left |label>.

    The circuits must share a width w, the observable must be a w-letter
    PauliString or a unitary 2^w x 2^w matrix, and the input label must be w
    bits. Pauli observables are never expanded to a dense matrix here.
    """
    w = left.n_qubits
    if right.n_qubits != w:
        raise ShapeMismatch("left/right circuits must have the same width")
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
    rho = np.zeros((16, 16), dtype=complex)
    for pa in PAULI_2Q_LABELS:
        for pb in PAULI_2Q_LABELS:
            expec = contract(gram_a[pa], gram_b[pb]) / norm
            rho += expec * kron(pauli_matrix(pa), pauli_matrix(pb))
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
        rho = np.zeros((16, 16), dtype=complex)
        for term, coeff in enumerate(coeffs):
            rho_a = np.zeros((4, 4), dtype=complex)
            rho_b = np.zeros((4, 4), dtype=complex)
            for k, pauli in enumerate(PAULI_2Q_LABELS):
                va, vb = values[term * 16 + k]
                mat = pauli_matrix(pauli)
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
