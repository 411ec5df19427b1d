"""Linear combination of Hamiltonian simulations.

A non-unitary propagator generated by A = H - iL (H, L Hermitian, L the decay
part) is approximated by a Cauchy-kernel quadrature over unitary evolutions:

    u(T) ~= sum_j c_j exp(-i (H + k_j L) T) u0,
    k_j = -K + 2jK/M,  c_j = w_j / (pi (1 + k_j^2)),

with trapezoidal weights w_j (K/M at the endpoints, 2K/M inside). H and L are
constant in time, so each node is one exact exponential and no step size
enters the quadrature; only the reference integrator ``trotter_oracle`` steps
by dt. Expectations can be computed either densely from the pairwise overlaps
or, term by term, as planner subtasks that the runtime runs as overlap tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, isfinite, pi

import numpy as np

from .circuit import PauliString
from .linalg import (
    DimensionMismatch, NotHermitian, _complex_product, _sequential_sum, eigh, is_hermitian, matexp)

__all__ = [
    "QuadratureScheme",
    "GeneratorSpec",
    "EvolutionResult",
    "DegenerateQuadrature",
    "NotPSD",
    "build_quadrature",
    "unitary_node",
    "lchs_state",
    "lchs_expectation",
    "lchs_forms",
    "imaginary_time",
    "trotter_oracle",
    "exact_ground",
]


class DegenerateQuadrature(ValueError):
    """Raised when the requested quadrature has too few nodes to mean anything."""


class NotPSD(ValueError):
    """Raised when imaginary-time evolution is requested for a non-PSD matrix."""


@dataclass(frozen=True)
class QuadratureScheme:
    """Cauchy-kernel trapezoidal quadrature: M+1 nodes on [-K, K]."""

    eps: float
    c: float
    T: float
    K: int
    M: int
    nodes: np.ndarray
    weights: np.ndarray
    coeffs: np.ndarray


def build_quadrature(
    eps: float, c: float, T: float, *, emulate_float_truncation: bool = False
) -> QuadratureScheme:
    """Build the scheme with K = floor(c/eps) and M = floor(2KT/eps).

    By default K and M are computed from exact decimal rationals of the inputs,
    so e.g. T=0.6 gives M=12 rather than tripping over binary-float artifacts.
    ``emulate_float_truncation=True`` floors plain binary-float quotients
    instead, reproducing published node counts computed that way (T=0.6 -> 11).
    """
    if not all(x > 0 and isfinite(x) for x in (eps, c, T)):
        raise ValueError("eps, c, T must all be positive and finite")
    if emulate_float_truncation:
        k_cut = floor(c / eps)
        m = floor(2 * k_cut * T / eps)
    else:
        k_cut = int(Fraction(str(c)) / Fraction(str(eps)))
        m = int(2 * k_cut * Fraction(str(T)) / Fraction(str(eps)))
    if k_cut < 1:
        raise DegenerateQuadrature(f"K = floor({c}/{eps}) < 1")
    if m < 2:
        raise DegenerateQuadrature(f"M = {m} < 2 nodes")
    j = np.arange(m + 1)
    nodes = (2 * j - m) * (k_cut / m)
    weights = np.full(m + 1, 2 * k_cut / m, dtype=float)
    weights[0] = weights[-1] = k_cut / m
    coeffs = weights / (pi * (1.0 + nodes**2))
    return QuadratureScheme(
        eps=float(eps), c=float(c), T=float(T), K=k_cut, M=m,
        nodes=nodes, weights=weights, coeffs=coeffs,
    )


@dataclass(frozen=True)
class GeneratorSpec:
    """A = H - iL with Hermitian H and L, both constant in time."""

    H: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.H, dtype=complex)
        l_mat = np.asarray(self.L, dtype=complex)
        if h.shape != l_mat.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("H and L must be square matrices of equal dimension")
        if not is_hermitian(h) or not is_hermitian(l_mat):
            raise NotHermitian("H and L must both be Hermitian within 1e-10")
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "L", l_mat)


@dataclass(frozen=True)
class EvolutionResult:
    """Assembled (unnormalized) state, optionally the per-node states."""

    state: np.ndarray
    per_node_states: tuple[np.ndarray, ...] | None = None


def unitary_node(g: GeneratorSpec, k: float | np.ndarray, T: float) -> np.ndarray:
    """exp(-i (H + k L) T), one node of the quadrature. For a 1-D array of
    nodes, the stack of their unitaries from one ``matexp`` call, whose one
    ``np.linalg.eigh`` diagonalizes every node; each has the bits of its
    own call."""
    return matexp(g.H + np.multiply.outer(k, g.L), -1j * T)


def _step_count(T: float, dt: float) -> int:
    """The number of dt steps that make up T: dt must be positive and divide T."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    steps = round(T / dt)
    if steps < 1 or abs(steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"dt={dt} does not divide T={T}")
    return steps


def lchs_state(g: GeneratorSpec, u0, scheme: QuadratureScheme) -> EvolutionResult:
    """u(T) = sum_j c_j U_j u0, keeping the per-node states."""
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    per_node = tuple(unitary_node(g, scheme.nodes, scheme.T) @ u0)
    state = np.zeros_like(u0)
    for c_j, v_j in zip(scheme.coeffs, per_node):
        state = state + c_j * v_j
    return EvolutionResult(state=state, per_node_states=per_node)


def lchs_expectation(
    g: GeneratorSpec,
    u0,
    scheme: QuadratureScheme,
    obs,
    normalize: bool = True,
) -> float:
    """sum_{k,k'} c_k c_k' <v_k|O|v_k'> over the (M+1)^2 node pairs.

    Each pairwise overlap maps to one estimator subtask; the summation order is
    lexicographic in (k, k') to match the runtime's aggregation order exactly.
    With ``normalize`` the form is divided by its O = identity counterpart.
    """
    v = lchs_state(g, u0, scheme).per_node_states
    return lchs_forms(v, scheme.coeffs, (obs,), normalize)[0]


def lchs_forms(per_node_states, coeffs, observables, normalize: bool = True) -> list[float]:
    """``lchs_expectation`` of each observable, from node states already built.

    Every observable must be Hermitian. One stacked ``np.matmul`` forms
    O v_b for every observable and node (per node the matvec of ``O @
    v_b``), and the identity form reads the node states themselves. One
    ``np.vecdot`` then gives every form's (a, b) overlaps <v_a|O v_b>,
    running the BLAS dot of ``np.vdot`` pair by pair. Each term c_a c_b
    <v_a|O v_b> is rounded as a scalar complex product, and one
    ``np.cumsum`` adds each form's terms left to right in lexicographic
    (a, b) order, so a form has the bits of the sequential sum of per-pair
    ``np.vdot`` terms. The identity form that ``normalize`` divides by is
    summed once for all observables, and each form stays a
    ``np.complex128`` through the division.
    """
    v = np.array(list(per_node_states))
    n, dim = v.shape
    mats = []
    for obs in observables:
        if isinstance(obs, PauliString):
            obs = obs.matrix()
        obs = np.asarray(obs, dtype=complex)
        if not is_hermitian(obs):
            raise NotHermitian("lchs_expectation needs a Hermitian observable")
        if obs.shape != (dim, dim):
            raise DimensionMismatch(f"observable shape {obs.shape} does not match dimension {dim}")
        mats.append(obs)
    weights = np.multiply.outer(coeffs, coeffs).ravel()  # c_a c_b, real
    # kets[o, b]: O_o v_b for each observable, then v_b for the identity form
    stack = np.array(mats).reshape(len(mats), 1, dim, dim)
    kets = np.concatenate((np.matmul(stack, v[..., None])[..., 0], v[None]))
    # each form's sum over (a, b) of c_a c_b <v_a|kets[o, b]>
    overlaps = np.vecdot(np.repeat(v, n, axis=0), np.tile(kets, (1, n, 1)))
    *numerators, denominator = _sequential_sum(_complex_product(weights, overlaps))
    values = []
    for numerator in numerators:
        value = numerator / denominator if normalize else numerator
        if abs(value.imag) > 1e-9 * max(1.0, abs(value)):
            raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
        values.append(float(value.real))
    return values


def imaginary_time(h, T: float, scheme: QuadratureScheme, u0=None) -> EvolutionResult:
    """Approximate exp(-h T) u0 via the H := 0, L := h specialization.

    ``h`` must be Hermitian PSD (the Cauchy identity represents e^{-|x|}).
    ``u0`` defaults to |0...0>.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise NotHermitian("imaginary-time generator must be Hermitian")
    if float(np.min(np.linalg.eigvalsh(h))) < -1e-10:
        raise NotPSD("imaginary-time evolution needs a PSD matrix")
    if abs(T - scheme.T) > 1e-12 * max(1.0, abs(T)):
        raise ValueError(f"T={T} disagrees with the scheme's T={scheme.T}")
    if u0 is None:
        u0 = np.zeros(h.shape[0], dtype=complex)
        u0[0] = 1.0
    g = GeneratorSpec(H=np.zeros_like(h), L=h)
    return lchs_state(g, u0, scheme)


def trotter_oracle(g_or_a, u0, T, dt: float = 0.01) -> np.ndarray | list[np.ndarray]:
    """Reference integrator: u <- exp(-i A dt) u repeated T/dt times, A = H - iL.

    ``T`` is a time or a sequence of times; for a sequence the state at each
    T comes back in order. Every T's step count is checked (``_step_count``)
    before the one step matrix is built and the first step is taken, and
    one trajectory from u0 passes every T: the state after s steps has the
    bits of s steps replayed from u0."""
    if isinstance(g_or_a, GeneratorSpec):
        a_mat = g_or_a.H - 1j * g_or_a.L
    else:
        a_mat = np.asarray(g_or_a, dtype=complex)
    u = np.asarray(u0, dtype=complex).reshape(-1)
    steps = [_step_count(t, dt) for t in (T if np.ndim(T) else (T,))]
    step, at = matexp(a_mat, -1j * dt), dict.fromkeys(steps)
    for s in range(1, max(steps, default=0) + 1):
        u = step @ u
        if s in at:
            at[s] = u
    states = [at[s] for s in steps]
    return states if np.ndim(T) else states[0]


def exact_ground(h) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of a Hermitian matrix."""
    w, v = eigh(h)
    return float(w[0]), v[:, 0]

