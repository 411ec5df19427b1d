"""Turn channel-expectation problems into independent single-ancilla subtasks.

The central identity: for a channel Phi(rho) = sum_p A_p rho A_p^dagger with
A_p = sum_i c_{p,i} U_{p,i} and each U factorized across parts as
U_{p,i} = sum_alpha coeff_alpha (x)_a U^a_{p,i,alpha}, a product observable and
product input make Tr(O Phi(rho)) a weighted sum of per-part overlaps

    <psi0^a| (U^a_{p,j,alpha'})^dagger O^a U^a_{p,i,alpha} |psi0^a>,

each measurable with one ancilla (Hadamard-test style). This module enumerates
those subtasks as a ``Plan``, a ``table.OverlapTable`` with each row's
indices and coefficient. The plans of one channel share its circuit table,
columns and derived values, which ``ChannelLCU._subtask_columns`` builds
once, with the term list that the table reads them off. The runtime
computes each row's overlap from the gate lists;
``build_estimator_circuit`` gives the hardware-faithful single-ancilla circuit
of a subtask on request. A ``ChannelLCU`` is taken as given: no channel is
ever made dense, so trace preservation is the caller's to hold. The GHZ
demonstration plans live in ``ghz``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    PauliString,
    circuit_unitary,
)
from .linalg import _complex_product
from .table import (_POSITION_RULE, NonUnitaryObservable, OverlapTable, ShapeMismatch, _Derived,
                    _Terms, _frozen, _index_column, check_overlap_operands)

__all__ = [
    "FactorizedUnitary",
    "ChannelLCU",
    "Subtask",
    "Plan",
    "EstimatorCircuit",
    "ShapeMismatch",
    "NonUnitaryObservable",
    "enumerate_subtasks",
    "build_estimator_circuit",
    "check_overlap_operands",
    "scaling_counts",
    "PAULI_2Q_LABELS",
]


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


def scaling_counts(m: int) -> dict[str, int]:
    """Per-observable-set subtask counts at m crossing gates: ours vs cutting."""
    return {"ours": 8 * 2**m, "cutting": 16 * 10**m}
