"""The 4-qubit GHZ demonstration plans behind ``tlpq ghz`` and ``tlpq ghz-cut``.

Overlap tomography across one cut: the gram entries are overlaps of
two-qubit part states, which ``ghz`` runs as one overlap table per readout
and folds back into the 16x16 density matrix. The wire-cut baseline: the
CZ across the cut becomes its 10 local-map pairs, run on the density path
and recombined with the quasi-probability coefficients. No channel plan or
worker reads this module, so ``import tlpq`` loads it on first use only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, pauli_matrix
from .factorize import cz_cutting_decomposition
from .linalg import kron
from .planner import PAULI_2Q_LABELS

__all__ = [
    "Evaluation",
    "CutSetting",
    "IncompleteTables",
    "NonPhysical",
    "ghz4_template",
    "ghz_state",
    "ghz_overlap_plan",
    "assemble_grams",
    "reconstruct_density_matrix",
    "ghz_cutting_plan",
]


class IncompleteTables(ValueError):
    """Raised when a reconstruction is attempted with missing gram entries."""


class NonPhysical(ValueError):
    """Raised when a reconstructed density matrix is too far from PSD."""


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
    # every Pauli entry is 0, +-1 or +-i, so each entry product is exact and
    # the stack holds np.kron's bits: row 16 a + b is P_a (x) P_b
    p = np.stack([pauli_matrix(label) for label in PAULI_2Q_LABELS])
    products = (p[:, None, :, None, :, None] * p[None, :, None, :, None, :]).reshape(256, 16, 16)
    rho = np.zeros((16, 16), dtype=complex)
    pairs = ((pa, pb) for pa in PAULI_2Q_LABELS for pb in PAULI_2Q_LABELS)
    for (pa, pb), product in zip(pairs, products):
        expec = contract(gram_a[pa], gram_b[pb]) / norm
        rho += expec * product
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
