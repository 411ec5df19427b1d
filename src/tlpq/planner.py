"""Turn channel-expectation problems into independent single-ancilla subtasks.

The central identity: for a channel Phi(rho) = sum_p A_p rho A_p^dagger with
A_p = sum_i c_{p,i} U_{p,i} and each U factorized across parts as
U_{p,i} = sum_alpha coeff_alpha (x)_a U^a_{p,i,alpha}, a product observable and
product input make Tr(O Phi(rho)) a weighted sum of per-part overlaps

    <psi0^a| (U^a_{p,j,alpha'})^dagger O^a U^a_{p,i,alpha} |psi0^a>,

each measurable with one ancilla (Hadamard-test style). This module enumerates
those subtasks and validates their operands. The runtime computes each
subtask's overlap from its gate lists; ``build_estimator_circuit`` gives the
hardware-faithful single-ancilla circuit of a subtask on request. The module
also carries the two GHZ pipelines: overlap tomography across a cut, whose
gram entries are overlaps of two-qubit part states, and the wire-cut density
baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    PauliString,
    circuit_unitary,
    pauli_matrix,
)
from .factorize import ChannelQuasiDecomposition, cz_cutting_decomposition
from .linalg import is_unitary, kron

__all__ = [
    "FactorizedUnitary",
    "ChannelLCU",
    "Subtask",
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
) -> list[Subtask]:
    """Expand a ChannelLCU expectation into its full subtask list.

    ``rho_parts`` are per-part computational basis labels (e.g. ("00", "0"));
    ``obs_parts`` are per-part PauliStrings (or unitary RAW matrices). Ids are
    dense 0..N-1 in lexicographic (p, i, j, alpha, alpha2, a) order; N equals
    q * sum over (i,j) of ell_i * ell_j * A.
    """
    widths = ch.part_widths
    n_parts = len(widths)
    if len(rho_parts) != n_parts or len(obs_parts) != n_parts:
        raise ShapeMismatch(
            f"need {n_parts} input labels and observables, got "
            f"{len(rho_parts)} and {len(obs_parts)}"
        )
    for a, (label, obs) in enumerate(zip(rho_parts, obs_parts)):
        if len(label) != widths[a] or any(ch not in "01" for ch in label):
            raise ShapeMismatch(f"input label {label!r} does not fit width {widths[a]}")
        if isinstance(obs, PauliString):
            if obs.n_qubits != widths[a]:
                raise ShapeMismatch(f"observable for part {a} has wrong width")
        else:
            mat = np.asarray(obs, dtype=complex)
            if mat.shape != (2 ** widths[a],) * 2:
                raise ShapeMismatch(f"observable matrix for part {a} has wrong shape")
    out: list[Subtask] = []
    next_id = 0
    for p, (coeffs, fus) in enumerate(ch.branches):
        m = len(coeffs)
        for i in range(m):
            for j in range(m):
                for alpha, (ca, left_parts) in enumerate(fus[i].terms):
                    for alpha2, (cb, right_parts) in enumerate(fus[j].terms):
                        group_coeff = coeffs[i] * np.conj(coeffs[j]) * ca * np.conj(cb)
                        for a in range(n_parts):
                            out.append(
                                Subtask(
                                    id=next_id,
                                    indices=(p, i, j, alpha, alpha2, a),
                                    left_circuit=left_parts[a],
                                    right_circuit=right_parts[a],
                                    observable=obs_parts[a],
                                    input_label=rho_parts[a],
                                    coefficient=(
                                        complex(group_coeff) if a == 0 else 1.0 + 0j
                                    ),
                                )
                            )
                            next_id += 1
    return out


def _observable_matrix(obs) -> np.ndarray:
    if isinstance(obs, PauliString):
        return obs.matrix()
    return np.asarray(obs, dtype=complex)


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
