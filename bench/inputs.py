"""Seeded workload inputs and the independent checks on their results.

Nothing here imports tlpq: the expected values are computed with plain numpy
(a statevector simulator of its own) and scipy.linalg.expm, so they cannot
share a fault with the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, pi

import numpy as np
from scipy.linalg import expm

# The nonherm sweep at the CLI defaults: eps 0.2, c 0.5, dt 0.01, T = 0.1..1.0.
NONHERM = {
    "eps": 0.2,
    "c": 0.5,
    "dt": 0.01,
    "T": [0.1 + j * 0.1 for j in range(10)],
}

# The two routes of the wide-net workload, each on its own seeded circuit:
# (part width w, crossing CZ gates, observables measured per pipeline run)
WIDE = {
    "overlap": (5, 2, 1),
    "cut": (6, 1, 2),
}

# An observable whose exact value is near 0 would pass a broken pipeline.
MIN_ABS_EXPECTATION = 0.25
TOL = 1e-9

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": np.eye(2, dtype=complex), "X": _SX, "Y": _SY, "Z": _SZ}


# --- nonherm-local -------------------------------------------------------------

def nonherm_observable(seed: int) -> np.ndarray:
    """The seed's Hermitian observable R: (G + G^dagger)/2 with G complex normal."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (g + g.conj().T) / 2.0


def quadrature(eps: float, c: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Cauchy-kernel trapezoid on [-K, K]: K = floor(c/eps), M = floor(2KT/eps).

    Returns (nodes k_j, coefficients w_j / (pi (1 + k_j^2))), with the inputs
    read as the decimals they print as.
    """
    eps_q, c_q, t_q = (Fraction(repr(x)) for x in (eps, c, t))
    k_cut = floor(c_q / eps_q)
    m = floor(2 * k_cut * t_q / eps_q)
    j = np.arange(m + 1)
    nodes = -k_cut + 2.0 * j * k_cut / m
    weights = np.full(m + 1, 2.0 * k_cut / m)
    weights[0] = weights[-1] = k_cut / m
    return nodes, weights / (pi * (1.0 + nodes**2))


def nonherm_expected(seed: int, t: float, eps: float, c: float) -> dict:
    """Expected sx/sy/sz/R values of one row, H = sigma_x, L = I + sigma_z, u0 = |0>.

    "quadrature" is sum c_k c_k' <v_k|O|v_k'> / sum c_k c_k' <v_k|v_k'> with
    v_k = expm(-i (H + k L) T) u0; "exact" is the normalized expectation in
    expm(-(iH + L) T) u0.
    """
    h, l_mat = _SX, np.eye(2) + _SZ
    u0 = np.array([1.0, 0.0], dtype=complex)
    nodes, coeffs = quadrature(eps, c, t)
    u = sum(ck * (expm(-1j * (h + k * l_mat) * t) @ u0) for k, ck in zip(nodes, coeffs))
    v = expm(-(1j * h + l_mat) * t) @ u0
    observables = {"sx": _SX, "sy": _SY, "sz": _SZ, "R": nonherm_observable(seed)}

    def ratio(x, o):
        return float((np.vdot(x, o @ x) / np.vdot(x, x)).real)

    return {
        "M": len(nodes) - 1,
        "quadrature": {name: ratio(u, o) for name, o in observables.items()},
        "exact": {name: ratio(v, o) for name, o in observables.items()},
    }


def check_nonherm(seed: int, result: dict) -> list[str]:
    """Compare one run's rows with the independent values; returns the mismatches."""
    errors = []
    r_own = nonherm_observable(seed)
    r_got = np.array([[complex(*e) for e in row] for row in result["R"]])
    if not np.allclose(r_got, r_own, rtol=0, atol=1e-15):
        errors.append("observable R differs from the seed's")
    rows = result["rows"]
    if [row["T"] for row in rows] != NONHERM["T"]:
        errors.append("rows do not cover the requested T values")
        return errors
    for row in rows:
        want = nonherm_expected(seed, row["T"], NONHERM["eps"], NONHERM["c"])
        if row["M"] != want["M"]:
            errors.append(f"T={row['T']}: M={row['M']}, expected {want['M']}")
        for name in ("sx", "sy", "sz", "R"):
            for column, ref in (("tlp", "quadrature"), ("dense", "quadrature"), ("oracle", "exact")):
                got = row[f"{name}_{column}"]
                if not abs(got - want[ref][name]) <= TOL:
                    errors.append(
                        f"T={row['T']}: {name}_{column}={got!r}, expected {want[ref][name]!r}"
                    )
    return errors


# --- wide circuits -------------------------------------------------------------

def _one_qubit(kind: str, theta: float) -> np.ndarray:
    half = theta / 2.0
    if kind == "RX":
        return np.cos(half) * PAULI["I"] - 1j * np.sin(half) * _SX
    if kind == "RY":
        return np.cos(half) * PAULI["I"] - 1j * np.sin(half) * _SY
    if kind == "RZ":
        return np.cos(half) * PAULI["I"] - 1j * np.sin(half) * _SZ
    raise ValueError(f"no matrix for {kind}")


def statevector(n: int, gates: list) -> np.ndarray:
    """Final state of |0...0> under a gate list; qubit 0 is the most significant bit."""
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for kind, qubits, params in gates:
        if kind == "CZ":
            index = [slice(None)] * n
            index[qubits[0]] = index[qubits[1]] = 1
            psi[tuple(index)] *= -1.0
        else:
            (q,) = qubits
            psi = np.moveaxis(np.tensordot(_one_qubit(kind, params[0]), psi, axes=(1, q)), 0, q)
    return psi.reshape(-1)


def pauli_expectation(psi: np.ndarray, letters: str) -> float:
    n = len(letters)
    phi = psi.reshape((2,) * n)
    for q, ch in enumerate(letters):
        if ch != "I":
            phi = np.moveaxis(np.tensordot(PAULI[ch], phi, axes=(1, q)), 0, q)
    return float(np.vdot(psi, phi.reshape(-1)).real)


def _draw_circuit(rng: np.random.Generator, w: int, crossing: int) -> list:
    """Rotation layers and in-part CZ chains around `crossing` CZs between the halves."""
    n = 2 * w
    parts = (range(w), range(w, n))

    def rotations(kind):
        return [(kind, (q,), (float(rng.uniform(0.2, 1.3)),)) for q in range(n)]

    def chains():
        return [("CZ", (q, q + 1), ()) for part in parts for q in part if q + 1 in part]

    pairs = set()
    while len(pairs) < crossing:
        pairs.add((int(rng.integers(0, w)), int(rng.integers(w, n))))
    gates = rotations("RY") + chains()
    gates += [("CZ", pair, ()) for pair in sorted(pairs)]
    gates += rotations("RX") + chains() + rotations("RZ") + rotations("RY")
    return gates


def wide_inputs(route: str, seed: int) -> dict:
    """Seeded circuit, observables and their exact values for one wide route.

    Observables are X/Y/Z on one qubit of each half; the ones with the largest
    |value| are kept, and the circuit is redrawn until they all reach
    MIN_ABS_EXPECTATION, so the check never compares numbers near 0.
    """
    w, crossing, n_obs = WIDE[route]
    n = 2 * w
    rng = np.random.default_rng(seed)
    while True:
        gates = _draw_circuit(rng, w, crossing)
        psi = statevector(n, gates)
        scored = []
        for a in range(w):
            for b in range(w, n):
                for la in "XYZ":
                    for lb in "XYZ":
                        letters = ["I"] * n
                        letters[a], letters[b] = la, lb
                        text = "".join(letters)
                        scored.append((-abs(pauli_expectation(psi, text)), text))
        scored.sort()
        chosen = [text for _, text in scored[:n_obs]]
        expected = [pauli_expectation(psi, text) for text in chosen]
        if min(abs(v) for v in expected) >= MIN_ABS_EXPECTATION:
            return {
                "w": w,
                "crossing": crossing,
                "n": n,
                "gates": gates,
                "observables": chosen,
                "expected": expected,
            }


def check_wide(inputs: dict, result: dict) -> list[str]:
    errors = []
    values = result["values"]
    if len(values) != len(inputs["expected"]):
        return [f"{len(values)} values for {len(inputs['expected'])} observables"]
    for letters, (re, im), want in zip(inputs["observables"], values, inputs["expected"]):
        if not abs(complex(re, im) - want) <= TOL:
            errors.append(f"<{letters}> = {complex(re, im)!r}, expected {want!r}")
    return errors


# --- dispatch ------------------------------------------------------------------

def make_input(workload: str, seed: int) -> dict:
    if workload == "nonherm-local":
        return dict(NONHERM)
    return {route: wide_inputs(route, seed) for route in WIDE}


def without_expected(workload: str, workload_input: dict) -> dict:
    """The part of a workload's input that tlpq receives."""
    if workload == "nonherm-local":
        return dict(workload_input)
    return {
        route: {k: v for k, v in inp.items() if k != "expected"}
        for route, inp in workload_input.items()
    }


def check(workload: str, seed: int, workload_input: dict, result: dict) -> list[str]:
    """Mismatches between one pipeline run's result and the expected values."""
    if workload == "nonherm-local":
        return check_nonherm(seed, result)
    return [
        f"{route}: {error}"
        for route in WIDE
        for error in check_wide(workload_input[route], result[route])
    ]
