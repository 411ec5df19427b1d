"""Dense-algebra layer: exponentials, fidelities, validation errors.

Matrix exponentials are checked against scipy.linalg.expm as an independent
oracle (scipy is a test-only dependency).
"""

import numpy as np
import pytest
import scipy.linalg

from conftest import haar_unitary, random_hermitian, random_state

from tlpq.linalg import (
    DimensionMismatch,
    NotDensityMatrix,
    NotHermitian,
    ZeroVector,
    eigh,
    is_hermitian,
    is_unitary,
    kron,
    matexp,
    pure_state_fidelity,
    vector_fidelity,
)


class TestKron:
    def test_matches_numpy(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.allclose(kron(a, b), np.kron(a, b), atol=1e-14)

    def test_identity_neutral(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.allclose(kron(np.eye(1), a), a)


class TestEigh:
    def test_ascending_and_reconstructs(self, rng):
        h = random_hermitian(6, rng)
        w, v = eigh(h)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)

    def test_rejects_non_hermitian(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        with pytest.raises(NotHermitian):
            eigh(m)


class TestMatexp:
    def test_hermitian_imaginary_scale_vs_scipy(self, rng):
        h = random_hermitian(4, rng)
        got = matexp(h, -1j * 0.73)
        want = scipy.linalg.expm(-1j * 0.73 * h)
        assert np.max(np.abs(got - want)) < 1e-12
        assert is_unitary(got)

    def test_hermitian_real_scale_vs_scipy(self, rng):
        h = random_hermitian(3, rng)
        got = matexp(h, -0.4)
        want = scipy.linalg.expm(-0.4 * h)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_general_matrix_vs_scipy(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        got = matexp(a, 1.0)
        want = scipy.linalg.expm(a)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_general_complex_scale_vs_scipy(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        s = 0.3 - 0.9j
        got = matexp(a, s)
        want = scipy.linalg.expm(s * a)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_large_norm_scaling_squaring(self, rng):
        a = 40.0 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        got = matexp(a, 1.0)
        want = scipy.linalg.expm(a)
        assert np.max(np.abs(got - want)) < 1e-8 * max(1.0, np.max(np.abs(want)))

    def test_zero_matrix(self):
        assert np.allclose(matexp(np.zeros((3, 3)), 2.0), np.eye(3))


class TestPureStateFidelity:
    def test_self_fidelity_is_one(self, rng):
        psi = random_state(8, rng)
        rho = np.outer(psi, psi.conj())
        assert pure_state_fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self, rng):
        psi = random_state(4, rng)
        assert pure_state_fidelity(np.eye(4) / 4, psi) == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal_state_zero(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        psi = np.array([0.0, 1.0], dtype=complex)
        assert pure_state_fidelity(rho, psi) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_hermitian(self, rng):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotDensityMatrix):
            pure_state_fidelity(m, np.array([1.0, 0.0]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotDensityMatrix):
            pure_state_fidelity(np.eye(2, dtype=complex), np.array([1.0, 0.0]))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(NotDensityMatrix):
            pure_state_fidelity(rho, np.array([1.0, 0.0]))

    def test_clip_mode_drops_negative_part_only(self):
        # eigenbasis is computational: clipping zeroes the -0.05 without
        # touching the 1.05, so the overlap keeps the unclipped weight
        rho = np.diag([1.05, -0.05]).astype(complex)
        psi = np.array([1.0, 0.0], dtype=complex)
        got = pure_state_fidelity(rho, psi, clip=True)
        assert got == pytest.approx(1.05, abs=1e-12)

    def test_clip_mode_never_mutates(self):
        rho = np.diag([1.05, -0.05]).astype(complex)
        before = rho.copy()
        pure_state_fidelity(rho, np.array([1.0, 0.0]), clip=True)
        assert np.array_equal(rho, before)

    def test_strict_range(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            u = haar_unitary(4, rng)
            rho = u @ np.diag(p).astype(complex) @ u.conj().T
            psi = random_state(4, rng)
            f = pure_state_fidelity(rho, psi)
            assert -1e-10 <= f <= 1.0 + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pure_state_fidelity(np.eye(2) / 2, np.array([1.0, 0, 0, 0]))


class TestVectorFidelity:
    def test_squared_overlap(self, rng):
        u = random_state(4, rng)
        v = random_state(4, rng)
        overlap = abs(np.vdot(u, v))
        assert vector_fidelity(u, v) == pytest.approx(overlap**2, abs=1e-12)

    def test_normalization_and_phase_invariance(self, rng):
        u = random_state(5, rng)
        v = random_state(5, rng)
        f = vector_fidelity(u, v)
        assert vector_fidelity(3.7 * u, v) == pytest.approx(f, abs=1e-12)
        assert vector_fidelity(u, np.exp(0.51j) * v) == pytest.approx(f, abs=1e-12)

    def test_identical_vectors(self, rng):
        u = random_state(4, rng)
        assert vector_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            vector_fidelity(np.zeros(3), np.array([1.0, 0, 0]))


class TestPredicates:
    def test_is_unitary(self, rng):
        assert is_unitary(haar_unitary(4, rng))
        assert not is_unitary(np.diag([1.0, 0.999]))

    def test_is_hermitian(self, rng):
        assert is_hermitian(random_hermitian(3, rng))
        assert not is_hermitian(1j * np.eye(2) + np.ones((2, 2)))
