"""Decompositions of two-qubit gates and crossing-gate expansion.

Three decomposition flavors live here:

- ``operator_schmidt``: minimal-length expansion of a two-qubit unitary as a sum
  of tensor products of *unitary* one-qubit factors, computed through the magic
  (Bell) basis; the term count equals the operator Schmidt rank.
- ``pauli_expansion``: expansion over the two-qubit Pauli basis (up to 16
  terms, always unitary factors); ``operator_schmidt``'s fallback.
- ``cz_cutting_decomposition``: a quasi-probability decomposition of the CZ
  *channel* into 10 local (possibly non-unitary) single-Kraus channel pairs,
  used for wire-cut style baselines.

``expand_layered`` rewrites a circuit with a bipartition into a sum over
products of per-part circuits, replacing each crossing two-qubit gate by its
operator Schmidt expansion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    NotUnitary,
    PAULI_1Q,
    circuit_unitary,
    gate_matrix,
)
from .linalg import is_unitary, kron
from .partition import CutAssignment

__all__ = [
    "GateLCU",
    "ChannelQuasiDecomposition",
    "LayeredDecomposition",
    "UnsupportedCrossingGate",
    "operator_schmidt",
    "pauli_expansion",
    "cz_cutting_decomposition",
    "expand_layered",
    "reshuffled_rank",
]


class UnsupportedCrossingGate(ValueError):
    """Raised when a gate crossing the cut cannot be expanded (e.g. arity > 2)."""


@dataclass(frozen=True, eq=False)
class GateLCU:
    """A gate written as sum_t coeff_t * (factor_t[0] x factor_t[1] x ...).

    All factors are unitary matrices; ``ell`` is the term count.
    """

    terms: tuple[tuple[complex, tuple[np.ndarray, ...]], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("GateLCU needs at least one term")
        parts = len(self.terms[0][1])
        for coeff, factors in self.terms:
            if len(factors) != parts:
                raise ValueError("all terms must have the same part count")
            for f in factors:
                if not is_unitary(f):
                    raise NotUnitary("GateLCU factors must be unitary within 1e-10")

    @property
    def ell(self) -> int:
        return len(self.terms)

    @property
    def parts(self) -> int:
        return len(self.terms[0][1])

    def resum(self) -> np.ndarray:
        """Dense matrix sum_t coeff_t * kron(factors_t...)."""
        out = None
        for coeff, factors in self.terms:
            block = factors[0]
            for f in factors[1:]:
                block = kron(block, f)
            out = coeff * block if out is None else out + coeff * block
        return out


@dataclass(frozen=True, eq=False)
class ChannelQuasiDecomposition:
    """A channel as a signed sum of product channels.

    Each term is (coefficient, (kraus_ops_part0, kraus_ops_part1)); applying the
    term to rho means sum_k (K0_k x K1_k) rho (K0_k x K1_k)^dagger. Coefficients
    are real and may be negative; ``overhead`` is sum |coeff|.
    """

    terms: tuple[tuple[float, tuple[tuple[np.ndarray, ...], ...]], ...]

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def overhead(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the resummed channel to a density matrix on the joint space."""
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for coeff, part_ops in self.terms:
            for ops in itertools.product(*part_ops):
                big = ops[0]
                for k in ops[1:]:
                    big = kron(big, k)
                out = out + coeff * (big @ rho @ big.conj().T)
        return out


# --- magic-basis machinery ----------------------------------------------------

_MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2.0)

_PAULIS = (PAULI_1Q["I"], PAULI_1Q["X"], PAULI_1Q["Y"], PAULI_1Q["Z"])


def _reshuffle(m4: np.ndarray) -> np.ndarray:
    """Rearrange a 4x4 matrix so tensor-product structure becomes rank structure."""
    return m4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def reshuffled_rank(u4: np.ndarray, tol: float = 1e-10) -> int:
    """Number of nonzero singular values of the reshuffled matrix."""
    s = np.linalg.svd(_reshuffle(np.asarray(u4, dtype=complex)), compute_uv=False)
    return int(np.sum(s > tol))


def _kron_factor(m4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor an exact tensor product m4 = A x B into (A, B)."""
    r = _reshuffle(m4)
    u, s, vh = np.linalg.svd(r)
    if s[0] <= 0 or (len(s) > 1 and s[1] > 1e-9 * s[0]):
        raise ValueError("matrix is not an exact tensor product")
    a = (u[:, 0] * np.sqrt(s[0])).reshape(2, 2)
    b = (vh[0, :] * np.sqrt(s[0])).reshape(2, 2)
    return a, b


def _unitarize(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Rescale a matrix proportional to a unitary; returns (unitary, scale)."""
    c = float(np.sqrt((a.conj().T @ a)[0, 0].real))
    if c <= 0:
        raise ValueError("zero factor")
    return a / c, c


def _simdiag_real_sym(p: np.ndarray, q: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthogonal O simultaneously diagonalizing commuting real symmetric p, q."""
    wp, o = np.linalg.eigh(p)
    o = o.copy()
    n = len(wp)
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(wp[j] - wp[i]) < tol:
            j += 1
        if j - i > 1:
            block = o[:, i:j]
            qb = block.T @ q @ block
            qb = (qb + qb.T) / 2
            _, oq = np.linalg.eigh(qb)
            o[:, i:j] = block @ oq
        i = j
    return o


def operator_schmidt(u4, tol: float = 1e-10) -> GateLCU:
    """Minimal tensor-product expansion of a two-qubit unitary with unitary factors.

    The term count equals the operator Schmidt rank (the rank of the reshuffled
    matrix): 1 for product gates, 2 for CZ/CNOT-like gates, 4 for SWAP and
    generic gates.
    """
    u = np.asarray(u4, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    if not is_unitary(u):
        raise NotUnitary("operator_schmidt needs a unitary matrix")
    rank = reshuffled_rank(u, tol)
    if rank == 1:
        a, b = _kron_factor(u)
        a_u, ca = _unitarize(a)
        b_u, cb = _unitarize(b)
        coeff = complex(np.trace(kron(a_u, b_u).conj().T @ u) / 4.0)
        return GateLCU(terms=((coeff, (a_u, b_u)),))
    lcu = _magic_schmidt(u, rank)
    if lcu is None:
        # Guarded fallback for unitaries outside the reach of the canonical
        # construction; not minimal, but always exact.
        return pauli_expansion(u)
    return lcu


def _magic_schmidt(u: np.ndarray, rank: int) -> GateLCU | None:
    m = _MAGIC
    mdag = m.conj().T
    v = mdag @ u @ m
    g = v.T @ v
    p = (g.real + g.real.T) / 2
    q = (g.imag + g.imag.T) / 2
    o = _simdiag_real_sym(p, q)
    o_r = o.T
    if np.linalg.det(o_r) < 0:
        o_r = o_r.copy()
        o_r[0, :] *= -1
    lam = np.diag(o_r @ g @ o_r.T)
    lam = lam / np.abs(lam)
    half = np.exp(1j * np.angle(lam) / 2)
    best: tuple[int, np.ndarray, np.ndarray, np.ndarray] | None = None
    for signs in itertools.product((1.0, -1.0), repeat=4):
        d = np.array(signs) * half
        o_l = v @ o_r.T @ np.diag(1.0 / d)
        if float(np.max(np.abs(o_l.imag))) > 1e-7:
            continue
        o_lr = o_l.real
        if abs(np.linalg.det(o_lr) - 1.0) > 1e-6:
            continue
        if float(np.max(np.abs(o_lr @ o_lr.T - np.eye(4)))) > 1e-7:
            continue
        diag_core = m @ np.diag(d) @ mdag
        gammas = np.array(
            [np.trace(kron(s, s).conj().T @ diag_core) / 4.0 for s in _PAULIS]
        )
        residual = sum(gm * kron(s, s) for gm, s in zip(gammas, _PAULIS)) - diag_core
        if float(np.max(np.abs(residual))) > 1e-9:
            continue
        nnz = int(np.sum(np.abs(gammas) > 1e-10))
        if best is None or nnz < best[0]:
            best = (nnz, d, o_lr, gammas)
    if best is None:
        return None
    nnz, d, o_lr, gammas = best
    k_l = m @ o_lr.astype(complex) @ mdag
    k_r = m @ (o_r if isinstance(o_r, np.ndarray) else o_r).astype(complex) @ mdag
    try:
        a, c = _kron_factor(k_l)
        b, dm = _kron_factor(k_r)
        a, _ = _unitarize(a)
        c, _ = _unitarize(c)
        b, _ = _unitarize(b)
        dm, _ = _unitarize(dm)
    except ValueError:
        return None
    # fix scales so (a x c) == k_l exactly up to the phases folded into gammas
    phase_l = complex(np.trace(kron(a, c).conj().T @ k_l) / 4.0)
    phase_r = complex(np.trace(kron(b, dm).conj().T @ k_r) / 4.0)
    terms = []
    for gm, s in zip(gammas, _PAULIS):
        if abs(gm) <= 1e-10:
            continue
        coeff = complex(gm * phase_l * phase_r)
        terms.append((coeff, (a @ s @ b, c @ s @ dm)))
    lcu = GateLCU(terms=tuple(terms))
    if float(np.max(np.abs(lcu.resum() - u))) > 1e-9:
        return None
    if lcu.ell != rank:
        return None
    return lcu


def pauli_expansion(u4, tol: float = 1e-12) -> GateLCU:
    """Expansion of any two-qubit unitary over the Pauli basis (<= 16 terms)."""
    u = np.asarray(u4, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    if not is_unitary(u):
        raise NotUnitary("pauli_expansion needs a unitary matrix")
    terms = []
    for sa in _PAULIS:
        for sb in _PAULIS:
            coeff = complex(np.trace(kron(sa, sb).conj().T @ u) / 4.0)
            if abs(coeff) > tol:
                terms.append((coeff, (sa, sb)))
    return GateLCU(terms=tuple(terms))


def cz_cutting_decomposition() -> ChannelQuasiDecomposition:
    """CZ channel as a signed sum of 10 local single-Kraus channel pairs.

    Terms: two correlated Z-rotation pairs with weight +1/2 each, and eight
    projector/rotation cross terms with weights -a1*a2/2 over a1, a2 in {+1,-1}.
    The sampling overhead sum|coeff| is 5.0 and the resummed channel equals CZ
    conjugation exactly.
    """
    i2, z = PAULI_1Q["I"], PAULI_1Q["Z"]

    def rz(theta: float) -> np.ndarray:
        # e^{i theta Z}
        return np.diag([np.exp(1j * theta), np.exp(-1j * theta)]).astype(complex)

    def proj(alpha: int) -> np.ndarray:
        return (i2 + alpha * z) / 2.0

    quarter = np.pi / 4.0
    terms: list[tuple[float, tuple[tuple[np.ndarray, ...], ...]]] = [
        (0.5, ((rz(quarter),), (rz(quarter),))),
        (0.5, ((rz(-quarter),), (rz(-quarter),))),
    ]
    for a1 in (1, -1):
        for a2 in (1, -1):
            w = -0.5 * a1 * a2
            terms.append((w, ((proj(a1),), (rz((a2 + 1) * quarter),))))
            terms.append((w, ((rz((a1 + 1) * quarter),), (proj(a2),))))
    return ChannelQuasiDecomposition(terms=tuple(terms))


# --- layered expansion of a bipartitioned circuit ------------------------------

@dataclass(frozen=True, eq=False)
class LayeredDecomposition:
    """A circuit with a cut, expanded into a sum of per-part circuit products."""

    circuit: Circuit
    cut: CutAssignment
    cut_gate_indices: tuple[int, ...]
    lcus: tuple[GateLCU, ...]
    part_qubits: tuple[tuple[int, ...], tuple[int, ...]]

    @property
    def term_count(self) -> int:
        out = 1
        for lcu in self.lcus:
            out *= lcu.ell
        return out

    def terms(self):
        """Yield (coefficient, (part0 circuit, part1 circuit)) lexicographically.

        The index tuple runs over the per-crossing-gate term indices, first
        crossing gate slowest.
        """
        local = [
            {q: i for i, q in enumerate(self.part_qubits[0])},
            {q: i for i, q in enumerate(self.part_qubits[1])},
        ]
        cut_pos = {gi: t for t, gi in enumerate(self.cut_gate_indices)}
        ranges = [range(lcu.ell) for lcu in self.lcus]
        for alpha in itertools.product(*ranges):
            coeff = 1.0 + 0j
            part_gates: tuple[list[Gate], list[Gate]] = ([], [])
            for gi, g in enumerate(self.circuit.gates):
                if gi in cut_pos:
                    t = cut_pos[gi]
                    c_t, factors = self.lcus[t].terms[alpha[t]]
                    coeff *= c_t
                    for pos, q in enumerate(g.qubits):
                        p = self.cut.part_of[q]
                        part_gates[p].append(
                            Gate("RAW", (local[p][q],), raw=factors[pos])
                        )
                else:
                    p = self.cut.part_of[g.qubits[0]]
                    mapped = tuple(local[p][q] for q in g.qubits)
                    part_gates[p].append(
                        Gate(g.kind, mapped, params=g.params, raw=g.raw)
                    )
            yield coeff, (
                Circuit(max(1, len(self.part_qubits[0])), tuple(part_gates[0])),
                Circuit(max(1, len(self.part_qubits[1])), tuple(part_gates[1])),
            )

    def resum_unitary(self) -> np.ndarray:
        """Dense check: sum of coeff x kron(part circuits) over ``terms()``,
        permuted back to the global qubit order."""
        n = self.circuit.n_qubits
        if n > 8:
            raise ValueError("resum check is limited to 8 qubits")
        total = np.zeros((2**n,) * 2, dtype=complex)
        for coeff, (c0, c1) in self.terms():
            total += coeff * kron(circuit_unitary(c0), circuit_unitary(c1))
        # axis i of total is global qubit order[i]; inverse permutation restores q
        order = self.part_qubits[0] + self.part_qubits[1]
        axes = [order.index(q) for q in range(n)]
        total = total.reshape((2,) * (2 * n)).transpose(axes + [n + a for a in axes])
        return total.reshape(2**n, 2**n)


def expand_layered(c: Circuit, cut: CutAssignment) -> LayeredDecomposition:
    """Expand a bipartitioned circuit into per-part circuit products, using the
    minimal operator Schmidt expansion of each crossing gate."""
    part_of = cut.part_of
    missing = [q for q in range(c.n_qubits) if q not in part_of]
    if missing:
        raise ValueError(f"cut does not cover qubits {missing}")
    part0 = tuple(sorted(q for q in range(c.n_qubits) if part_of[q] == 0))
    part1 = tuple(sorted(q for q in range(c.n_qubits) if part_of[q] == 1))
    if not part0 or not part1:
        raise ValueError("cut must put at least one qubit in each part")
    cut_indices: list[int] = []
    lcus: list[GateLCU] = []
    for gi, g in enumerate(c.gates):
        sides = {part_of[q] for q in g.qubits}
        if len(sides) < 2:
            continue
        if len(g.qubits) != 2:
            raise UnsupportedCrossingGate(
                f"gate {gi} ({g.kind}) crosses the cut with arity {len(g.qubits)}"
            )
        cut_indices.append(gi)
        lcus.append(operator_schmidt(gate_matrix(g)))
    return LayeredDecomposition(
        circuit=c,
        cut=cut,
        cut_gate_indices=tuple(cut_indices),
        lcus=tuple(lcus),
        part_qubits=(part0, part1),
    )
