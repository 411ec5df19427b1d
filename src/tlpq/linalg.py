"""Dense complex linear algebra: Kronecker products, Hermitian eigendecomposition,
matrix exponentials, overlaps, and fidelities.

All functions are pure and operate on ``numpy`` arrays with ``complex128`` entries.
The intended scale is dense matrices of dimension <= 4096.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotHermitian",
    "NotDensityMatrix",
    "ZeroVector",
    "DimensionMismatch",
    "kron",
    "eigh",
    "matexp",
    "pure_state_fidelity",
    "vector_fidelity",
    "is_unitary",
    "is_hermitian",
]

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10


class NotHermitian(ValueError):
    """Raised when an operation requires a Hermitian matrix and the input is not."""


class NotDensityMatrix(ValueError):
    """Raised when a matrix fails the density-matrix checks (Hermitian, PSD, unit trace)."""


class ZeroVector(ValueError):
    """Raised when a vector overlap is requested for a zero vector."""


class DimensionMismatch(ValueError):
    """Raised when operand dimensions are incompatible."""


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an int (not a bool) of at least ``least``: the one
    rule for counts, seeds and indices read from configs and JSON."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def _as_vector(v) -> np.ndarray:
    u = np.asarray(v, dtype=complex)
    if u.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {u.shape}")
    return u


def is_hermitian(m) -> bool:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.max(np.abs(m - m.conj().T))) < HERMITIAN_TOL


def is_unitary(m) -> bool:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(_unitary_each(m))


def _unitary_each(m: np.ndarray) -> np.ndarray:
    """``is_unitary``'s test of a square matrix, or of each matrix of a stack
    (n, d, d) at once: max |M^dagger M - I| < 1e-10."""
    eye = np.eye(m.shape[-1])
    return np.abs(m.conj().swapaxes(-1, -2) @ m - eye).max(axis=(-2, -1)) < UNITARY_TOL


def _complex_product(a, b) -> np.ndarray:
    """a * b elementwise, with the bits of Python's and numpy's scalar complex
    multiply: Re = a.re b.re - a.im b.im and Im = a.re b.im + a.im b.re, each
    product and sum rounded on its own. numpy's array multiply may fuse a
    product into the sum (FMA), which can move the last bit."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    np.subtract(a.real * b.real, a.imag * b.imag, out=out.real)
    np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
    return out


def _sequential_sum(terms) -> np.complex128 | np.ndarray:
    """0j + terms[..., 0] + terms[..., 1] + ..., added left to right along
    the last axis as a loop or ``functools.reduce`` adds them (``np.sum``
    adds pairwise): one ``np.cumsum`` for every row of a stack of terms."""
    terms = np.asarray(terms, dtype=complex)
    start = np.zeros(terms.shape[:-1] + (1,), dtype=complex)
    return np.cumsum(np.concatenate((start, terms), axis=-1), axis=-1)[..., -1]


def kron(a, b) -> np.ndarray:
    """Kronecker product; dims multiply, blocks are a[i,j] * b."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix V with columns as
    eigenvectors) so that h == V @ diag(w) @ V†.
    """
    h = _as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"eigh needs a square matrix, got {h.shape}")
    if not is_hermitian(h):
        raise NotHermitian("matrix is not Hermitian within 1e-10")
    w, v = np.linalg.eigh(h)
    return w, v


def matexp(a, scale: complex) -> np.ndarray:
    """exp(scale * a) for a square matrix, or for each matrix of a stack
    (n, d, d), with the bits of its own call.

    A Hermitian matrix (``is_hermitian``'s check, per matrix) with ``scale``
    purely real or purely imaginary takes the eigendecomposition path, which
    keeps unitary results exactly unitary; a stack whose matrices all take
    it shares one ``np.linalg.eigh``. Any other takes a scaling-and-squaring
    truncated power series (dimensions here are small, so no Pade machinery
    is needed).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3:
        return matexp(_as_matrix(a)[None], scale)[0]
    if a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"matexp needs a square matrix, got {a.shape[1:]}")
    scale = complex(scale)
    if scale == 0:
        return np.broadcast_to(np.eye(a.shape[1], dtype=complex), a.shape).copy()
    mag = abs(scale)
    pure_axis = abs(scale.real) < 1e-14 * mag or abs(scale.imag) < 1e-14 * mag
    # is_hermitian's check of each matrix, taken only when the scale qualifies
    if pure_axis and (np.abs(a - a.conj().swapaxes(1, 2)).max(axis=(1, 2)) < HERMITIAN_TOL).all():
        w, v = np.linalg.eigh(a)
        return (v * np.exp(scale * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
    if len(a) != 1:  # each matrix on its own path
        return np.array([matexp(m, scale) for m in a]).reshape(a.shape)
    return _series_exp(scale * a[0])[None]


def _series_exp(b: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a truncated Taylor series."""
    norm = float(np.linalg.norm(b, 1))
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        b = b / (2.0**squarings)
    dim = b.shape[0]
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 64):
        term = term @ b / k
        result = result + term
        if float(np.max(np.abs(term))) < 1e-16 * max(1.0, float(np.max(np.abs(result)))):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def pure_state_fidelity(rho, psi, *, clip: bool = False) -> float:
    """<psi|rho|psi> for a density matrix rho and a normalized pure state psi.

    With ``clip=True`` (intended for finite-shot reconstructions only) negative
    eigenvalues are clipped to zero before the overlap is taken; the trace is
    left as reconstructed (no renormalization — that would bias the estimate
    low by the clipped mass) and the value may exceed 1 by sampling noise. The
    input is never mutated. With the default strict mode the input must be
    Hermitian, PSD and unit-trace within 1e-8, and the result lies in [0, 1]
    up to 1e-10.
    """
    rho = _as_matrix(rho)
    psi = _as_vector(psi)
    if rho.shape[0] != rho.shape[1]:
        raise NotDensityMatrix(f"density matrix must be square, got {rho.shape}")
    if rho.shape[0] != psi.shape[0]:
        raise DimensionMismatch(f"state dim {psi.shape[0]} != matrix dim {rho.shape[0]}")
    if float(np.max(np.abs(rho - rho.conj().T))) >= 1e-8:
        raise NotDensityMatrix("matrix is not Hermitian within 1e-8")
    if abs(float(np.linalg.norm(psi)) - 1.0) > 1e-8:
        raise ValueError("psi must be normalized")
    if clip:
        w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
        w = np.clip(w, 0.0, None)
        if float(np.sum(w)) <= 0:
            raise NotDensityMatrix("clipped matrix has no positive weight")
        rho = (v * w) @ v.conj().T
    else:
        if abs(float(np.trace(rho).real) - 1.0) > 1e-8 or abs(float(np.trace(rho).imag)) > 1e-8:
            raise NotDensityMatrix("trace is not 1 within 1e-8")
        min_eig = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)))
        if min_eig < -1e-8:
            raise NotDensityMatrix(f"matrix is not PSD (min eigenvalue {min_eig:.3e})")
    val = np.vdot(psi, rho @ psi)
    if abs(val.imag) > 1e-10:
        raise NotDensityMatrix(f"overlap has imaginary residue {val.imag:.3e}")
    return float(val.real)


def vector_fidelity(u, v) -> float:
    """Squared normalized overlap |<u|v>|^2 / (|u|^2 |v|^2) of two vectors."""
    u = _as_vector(u)
    v = _as_vector(v)
    if u.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"vector dims differ: {u.shape[0]} vs {v.shape[0]}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("vector_fidelity of a zero vector is undefined")
    ov = abs(np.vdot(u, v)) / (nu * nv)
    return float(ov * ov)
