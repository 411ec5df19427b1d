"""Shared test helpers: random unitaries/states and dense reference algebra."""

from __future__ import annotations

import numpy as np
import pytest


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the distribution is Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_all(mats) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_label_matrix(letters: str) -> np.ndarray:
    return kron_all(PAULI[ch] for ch in letters)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def one_row_table(id, left, right, observable, input_label, readouts=("ax", "ay")):
    """The overlap <label| U_right^dagger O U_left |label> as a one-row table."""
    from tlpq.planner import OverlapTable

    return OverlapTable(circuits=(left, right), observables=(observable,), labels=(input_label,),
                        ids=(id,), left=(0,), right=(1,), observable=(0,), label=(0,),
                        readouts=readouts)


def record_steps(monkeypatch) -> list[tuple]:
    """Record each step that ``_evolve`` applies (one gate call) for the
    part-state cache (``tlpq.backend._PartStates``), as the gates that the
    states of its stack get, one per state, in order."""
    import tlpq.backend

    steps = []
    real = tlpq.backend._evolve

    def recorded(gates, state, **kw):
        count = len(state) if kw.get("stack") else 1
        steps.extend(g if isinstance(g, tuple) else (g,) * count for g in gates)
        return real(gates, state, **kw)

    monkeypatch.setattr(tlpq.backend, "_evolve", recorded)
    return steps
