"""Non-unitary propagation via a quadrature over Hamiltonian evolutions.

Oracles: scipy.linalg.expm for every exact propagator, closed forms for the
Cauchy kernel (its integral over [-K, K] is (2/pi) arctan K), and frozen
regression targets for the two demonstration scenarios.
"""

from math import atan, pi

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import PAULI, random_hermitian

from tlpq import (
    DegenerateQuadrature,
    GeneratorSpec,
    NotPSD,
    PauliString,
    build_quadrature,
    exact_ground,
    imaginary_time,
    lchs_expectation,
    lchs_state,
    trotter_oracle,
    unitary_node,
)
from tlpq.linalg import NotHermitian


# T sweep generated by float accumulation (matches how sweep grids are usually
# produced); with truncation emulation this grid pins the node counts below
ACCUMULATED_T = tuple(0.1 + j * 0.1 for j in range(10))
EMULATED_M_GRID = (2, 4, 6, 8, 10, 11, 14, 16, 18, 20)

# frozen regression targets: squared-overlap fidelity of the assembled state
# against the exact propagator, for the two demonstration scenarios
DECAY_FIDELITY_TARGETS = (0.9999, 0.9987, 0.9945, 0.9870, 0.9808,
                          0.9828, 0.9929, 0.9999, 0.9964, 0.9871)
COOLING_GAMMAS = tuple(0.2 * k for k in range(1, 11))
COOLING_FIDELITY_TARGETS = (0.9990, 0.9969, 0.9950, 0.9944, 0.9952,
                            0.9967, 0.9983, 0.9995, 0.99998, 0.99977)


def decay_generator() -> tuple[GeneratorSpec, np.ndarray]:
    """Qubit with coherent drive X and decay part I + Z."""
    g = GeneratorSpec(H=PAULI["X"], L=np.eye(2) + PAULI["Z"])
    u0 = np.array([1.0, 0.0], dtype=complex)
    return g, u0


def overlap_squared(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2 /
                 (np.vdot(a, a).real * np.vdot(b, b).real))


def exact_propagated(g: GeneratorSpec, u0: np.ndarray, T: float) -> np.ndarray:
    a_mat = g.H - 1j * g.L
    return scipy.linalg.expm(-1j * a_mat * T) @ u0


# --- quadrature construction -----------------------------------------------------


def test_quadrature_small_example():
    q = build_quadrature(0.2, 0.5, 0.5)
    assert q.K == 2 and q.M == 10
    assert len(q.nodes) == len(q.weights) == len(q.coeffs) == 11
    assert q.nodes[0] == -2.0 and q.nodes[-1] == 2.0


def test_quadrature_exact_rationals_beat_float_truncation():
    exact = build_quadrature(0.2, 0.5, 0.6)
    emulated = build_quadrature(0.2, 0.5, 0.6, emulate_float_truncation=True)
    assert exact.M == 12      # 2*2*0.6/0.2 is exactly 12
    assert emulated.M == 11   # binary floats land just below 12


def test_quadrature_emulated_node_count_grid():
    got = tuple(
        build_quadrature(0.2, 0.5, t, emulate_float_truncation=True).M
        for t in ACCUMULATED_T
    )
    assert got == EMULATED_M_GRID
    total_terms = sum((m + 1) ** 2 for m in got)
    assert total_terms == 1745


def test_quadrature_cooling_params():
    assert build_quadrature(0.3, 1.0, 0.5).K == 3
    assert build_quadrature(0.3, 1.0, 0.5).M == 10
    # this quotient happens to round cleanly (3.0/0.3 == 10.0 in binary), so
    # truncation emulation agrees here; only the decay sweep needs the flag
    assert build_quadrature(0.3, 1.0, 0.5, emulate_float_truncation=True).M == 10


def test_quadrature_nodes_are_symmetric():
    q = build_quadrature(0.2, 0.5, 0.7)
    for j in range(q.M + 1):
        assert q.nodes[j] == -q.nodes[q.M - j]


def test_quadrature_trapezoid_weights():
    q = build_quadrature(0.2, 0.5, 0.5)
    expected_edge = q.K / q.M
    assert q.weights[0] == q.weights[-1] == expected_edge
    assert np.all(q.weights[1:-1] == 2 * expected_edge)
    assert np.sum(q.weights) == pytest.approx(2 * q.K)


def test_quadrature_coefficients_follow_cauchy_kernel():
    q = build_quadrature(0.2, 0.5, 0.5)
    manual = q.weights / (pi * (1.0 + q.nodes**2))
    assert np.array_equal(q.coeffs, manual)
    # the coefficient sum approximates integral of the kernel over [-K, K]
    assert np.sum(q.coeffs) == pytest.approx(2 * atan(q.K) / pi, abs=0.02)
    assert 0.7 < np.sum(q.coeffs) <= 1.0


def test_quadrature_degenerate_and_invalid_inputs():
    with pytest.raises(DegenerateQuadrature):
        build_quadrature(2.0, 0.5, 1.0)   # K = floor(0.25) = 0
    with pytest.raises(DegenerateQuadrature):
        build_quadrature(0.4, 0.5, 0.1)   # M = floor(0.5) = 0
    for bad in ((0.0, 1.0, 1.0), (0.2, -1.0, 1.0), (0.2, 1.0, 0.0)):
        with pytest.raises(ValueError):
            build_quadrature(*bad)


@pytest.mark.parametrize("emulate", [False, True])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_quadrature_refuses_non_finite_inputs_with_its_own_message(emulate, value, at):
    inputs = [0.2, 0.5, 0.5]
    inputs[at] = value
    with pytest.raises(ValueError, match="^eps, c, T must all be positive and finite$"):
        build_quadrature(*inputs, emulate_float_truncation=emulate)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(min_value=0.05, max_value=0.5),
    c=st.floats(min_value=0.3, max_value=2.0),
    T=st.floats(min_value=0.1, max_value=2.0),
)
def test_quadrature_invariants_hold_generally(eps, c, T):
    try:
        q = build_quadrature(eps, c, T)
    except DegenerateQuadrature:
        return
    assert len(q.nodes) == q.M + 1
    # endpoints sit at +-K up to one rounding of K/M
    assert q.nodes[0] == pytest.approx(-q.K, rel=1e-12)
    assert q.nodes[-1] == pytest.approx(q.K, rel=1e-12)
    # symmetry is exact: the integer prefactors negate exactly
    assert np.array_equal(q.nodes, -q.nodes[::-1])
    assert q.weights[0] == q.weights[-1]
    assert np.sum(q.weights) == pytest.approx(2 * q.K, rel=1e-12)
    assert np.array_equal(q.coeffs, q.weights / (pi * (1.0 + q.nodes**2)))
    # the weights are exactly the trapezoid rule over the node grid
    kernel = 1.0 / (pi * (1.0 + q.nodes**2))
    assert np.sum(q.coeffs) == pytest.approx(
        float(np.trapezoid(kernel, q.nodes)), rel=1e-12
    )
    assert np.sum(q.coeffs) > 0.0
    if 2 * q.K / q.M <= 1.0:
        # with spacing <= 1 the rule cannot overshoot the full integral 1
        assert np.sum(q.coeffs) <= 1.0


# --- single-node propagators ------------------------------------------------------


def test_unitary_node_matches_expm(rng):
    for _ in range(10):
        h = random_hermitian(2, rng)
        l_mat = random_hermitian(2, rng)
        k = float(rng.uniform(-3, 3))
        T = float(rng.uniform(0.1, 2.0))
        g = GeneratorSpec(H=h, L=l_mat)
        got = unitary_node(g, k, T)
        want = scipy.linalg.expm(-1j * (h + k * l_mat) * T)
        assert np.allclose(got, want, atol=1e-10)
        assert np.allclose(got @ got.conj().T, np.eye(2), atol=1e-10)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.lists(st.floats(-40, 40), max_size=9),
       st.sampled_from([0.0, 0.3]) | st.floats(0.01, 3.0), st.integers(0, 2**32 - 1))
def test_unitary_node_on_a_node_array_stacks_its_per_node_calls_bit_for_bit(n, nodes, T, seed):
    rng = np.random.default_rng(seed)
    g = GeneratorSpec(H=random_hermitian(2**n, rng), L=random_hermitian(2**n, rng))
    stack = unitary_node(g, np.array(nodes), T)
    assert stack.shape == (len(nodes), 2**n, 2**n)
    for k, u in zip(nodes, stack):
        assert u.tobytes() == unitary_node(g, k, T).tobytes()


def test_matexp_of_a_stack_takes_each_matrix_s_own_path_bit_for_bit(rng):
    from tlpq.linalg import matexp

    h = random_hermitian(4, rng)
    # the middle matrix is not Hermitian
    stack = np.array([h, h + 1e-6j * random_hermitian(4, rng), 2 * h])
    for scale in (-0.7j, -0.4, 0.3 + 0.2j, 0):
        got = matexp(stack, scale)
        assert [m.tobytes() for m in got] == [matexp(m, scale).tobytes() for m in stack]


def test_generator_spec_validates_matrices():
    with pytest.raises(NotHermitian):
        GeneratorSpec(H=np.array([[0, 1], [0, 0]], dtype=complex), L=np.eye(2))
    with pytest.raises(ValueError):
        GeneratorSpec(H=np.eye(2), L=np.eye(3))


# --- assembled states ---------------------------------------------------------------


def test_state_with_zero_decay_is_pure_unitary_evolution(rng):
    h = random_hermitian(2, rng)
    g = GeneratorSpec(H=h, L=np.zeros((2, 2)))
    u0 = np.array([1.0, 0.0], dtype=complex)
    q = build_quadrature(0.2, 0.5, 0.5)
    result = lchs_state(g, u0, q)
    assert len(result.per_node_states) == q.M + 1
    exact = scipy.linalg.expm(-1j * h * 0.5) @ u0
    # every node applies the same unitary, so the sum is (sum c_j) * exact
    scale = float(np.sum(q.coeffs))
    assert np.allclose(result.state, scale * exact, atol=1e-12)
    assert overlap_squared(result.state, exact) == pytest.approx(1.0, abs=1e-12)


def test_state_full_period_flips_sign():
    g = GeneratorSpec(H=PAULI["X"], L=np.zeros((2, 2)))
    u0 = np.array([0.0, 1.0], dtype=complex)
    q = build_quadrature(0.2, 0.5, float(np.pi))
    result = lchs_state(g, u0, q)
    scale = float(np.sum(q.coeffs))
    assert np.allclose(result.state, -scale * u0, atol=1e-10)


def test_state_pure_decay_reproduces_exponential():
    # H = 0, L = I: each node contributes e^{-ikT} u0, and the quadrature
    # reconstructs the Cauchy integral representation of e^{-T}
    g = GeneratorSpec(H=np.zeros((2, 2)), L=np.eye(2))
    u0 = np.array([1.0, 0.0], dtype=complex)
    q = build_quadrature(0.05, 1.0, 0.5)
    result = lchs_state(g, u0, q)
    got = complex(result.state[0])
    assert abs(got - np.exp(-0.5)) < 0.02
    assert abs(result.state[1]) == 0.0


def test_state_matches_exact_nonunitary_propagator():
    g, u0 = decay_generator()
    q = build_quadrature(0.1, 0.5, 0.5)
    result = lchs_state(g, u0, q)
    exact = exact_propagated(g, u0, 0.5)
    assert overlap_squared(result.state, exact) > 0.99


def test_state_error_decreases_with_tighter_eps():
    g, u0 = decay_generator()
    errors = []
    for eps in (0.4, 0.2, 0.1):
        q = build_quadrature(eps, 0.5, 1.0)
        got = lchs_state(g, u0, q).state
        exact = exact_propagated(g, u0, 1.0)
        errors.append(float(np.linalg.norm(
            got / np.linalg.norm(got) - exact / np.linalg.norm(exact)
        )))
    assert errors[0] > errors[1] > errors[2]


# --- pairwise-overlap expectation values ---------------------------------------------


def test_expectation_equals_rayleigh_quotient(rng):
    g, u0 = decay_generator()
    q = build_quadrature(0.2, 0.5, 0.5)
    obs = random_hermitian(2, rng)
    got = lchs_expectation(g, u0, q, obs)
    state = lchs_state(g, u0, q).state
    want = float(np.real(np.vdot(state, obs @ state) / np.vdot(state, state)))
    assert got == pytest.approx(want, abs=1e-12)


def test_expectation_matches_manual_double_sum(rng):
    g, u0 = decay_generator()
    q = build_quadrature(0.2, 0.5, 0.3)
    obs = random_hermitian(2, rng)
    v = lchs_state(g, u0, q).per_node_states
    num = sum(
        q.coeffs[a] * q.coeffs[b] * np.vdot(v[a], obs @ v[b])
        for a in range(len(v))
        for b in range(len(v))
    )
    got_raw = lchs_expectation(g, u0, q, obs, normalize=False)
    assert got_raw == pytest.approx(float(num.real), abs=1e-12)


def test_expectation_accepts_pauli_string():
    g, u0 = decay_generator()
    q = build_quadrature(0.2, 0.5, 0.5)
    a = lchs_expectation(g, u0, q, PauliString(1, "X"))
    b = lchs_expectation(g, u0, q, PAULI["X"])
    assert a == b


def test_expectation_rejects_non_hermitian_observable():
    g, u0 = decay_generator()
    q = build_quadrature(0.2, 0.5, 0.5)
    with pytest.raises(NotHermitian):
        lchs_expectation(g, u0, q, np.array([[0, 1], [0, 0]], dtype=complex))


def lchs_forms_by_pair(per_node_states, coeffs, observables, normalize=True) -> list[float]:
    """The reference: one ``np.vdot`` and one scalar product per node pair,
    added left to right, as the forms were summed before they were stacked."""
    import functools
    import operator

    v = list(per_node_states)
    n = len(v)
    weights = [coeffs[a] * coeffs[b] for a in range(n) for b in range(n)]
    bras = [v_a for v_a in v for _ in range(n)]

    def form(kets):
        terms = map(operator.mul, weights, map(np.vdot, bras, kets * n))
        return functools.reduce(operator.add, terms, 0.0 + 0j)

    mats = [o.matrix() if isinstance(o, PauliString) else np.asarray(o, dtype=complex)
            for o in observables]
    numerators = [form([obs @ v_b for v_b in v]) for obs in mats]
    denominator = form(v) if normalize else None
    return [float((x / denominator if normalize else x).real) for x in numerators]


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("normalize", [True, False])
def test_forms_equal_the_sequential_vdot_sum_bit_for_bit(rng, dim, normalize):
    from tlpq.lchs import lchs_forms

    for t_val in (0.1, 0.4, 0.7, 1.0):
        h, l_mat = random_hermitian(dim, rng), random_hermitian(dim, rng)
        l_mat = l_mat @ l_mat  # PSD decay part
        g = GeneratorSpec(H=h, L=l_mat)
        u0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        q = build_quadrature(0.2, 0.5, t_val)
        v = lchs_state(g, u0 / np.linalg.norm(u0), q).per_node_states
        observables = (random_hermitian(dim, rng), random_hermitian(dim, rng),
                       PauliString(dim.bit_length() - 1, "X" * (dim.bit_length() - 1)))
        got = lchs_forms(v, q.coeffs, observables, normalize)
        assert got == lchs_forms_by_pair(v, q.coeffs, observables, normalize)


# --- frozen regression targets ---------------------------------------------------------


def test_decay_scenario_fidelity_table():
    g, u0 = decay_generator()
    for t_val, target in zip(ACCUMULATED_T, DECAY_FIDELITY_TARGETS):
        q = build_quadrature(0.2, 0.5, t_val, emulate_float_truncation=True)
        got = lchs_state(g, u0, q).state
        exact = exact_propagated(g, u0, t_val)
        assert overlap_squared(got, exact) == pytest.approx(target, abs=5e-3), \
            f"T={t_val}"


def test_cooling_scenario_fidelity_table():
    for gamma, target in zip(COOLING_GAMMAS, COOLING_FIDELITY_TARGETS):
        h = 2 * np.eye(2) + gamma * PAULI["X"]
        q = build_quadrature(0.3, 1.0, 0.5)
        assert (q.M + 1) ** 2 == 121
        result = imaginary_time(h, 0.5, q)
        exact = scipy.linalg.expm(-h * 0.5) @ np.array([1.0, 0.0])
        fid = overlap_squared(result.state, exact)
        assert fid == pytest.approx(target, abs=5e-3), f"gamma={gamma}"


# --- imaginary-time specialization -------------------------------------------------------


def test_imaginary_time_rejects_bad_generators():
    q = build_quadrature(0.3, 1.0, 0.5)
    with pytest.raises(NotPSD):
        imaginary_time(PAULI["Z"], 0.5, q)  # eigenvalue -1
    with pytest.raises(NotHermitian):
        imaginary_time(np.array([[0, 1], [0, 0]], dtype=complex), 0.5, q)
    with pytest.raises(ValueError):
        imaginary_time(np.eye(2), 0.7, q)  # T disagrees with the scheme


def test_imaginary_time_contracts_norm():
    h = 2 * np.eye(2) + 0.8 * PAULI["X"]
    q = build_quadrature(0.3, 1.0, 0.5)
    result = imaginary_time(h, 0.5, q)
    assert np.linalg.norm(result.state) < 1.0


def test_imaginary_time_cools_toward_ground_energy():
    gamma = 0.8
    h = 2 * np.eye(2) + gamma * PAULI["X"]
    e0, _ = exact_ground(h)
    energies = []
    for t_val in (0.5, 1.0, 1.5):
        q = build_quadrature(0.3, 1.0, t_val)
        state = imaginary_time(h, t_val, q).state
        energies.append(
            float(np.real(np.vdot(state, h @ state) / np.vdot(state, state)))
        )
    assert energies[0] > energies[1] > energies[2]
    assert all(e > e0 - 0.05 for e in energies)
    assert energies[-1] == pytest.approx(e0, abs=0.05)


def test_imaginary_time_default_start_is_basis_zero():
    h = 2 * np.eye(2) + 0.4 * PAULI["X"]
    q = build_quadrature(0.3, 1.0, 0.5)
    a = imaginary_time(h, 0.5, q).state
    b = imaginary_time(h, 0.5, q, u0=np.array([1.0, 0.0])).state
    assert np.array_equal(a, b)


# --- reference integrator and ground-state extraction --------------------------------------


def test_trotter_oracle_static_matches_expm(rng):
    h = random_hermitian(2, rng)
    l_mat = random_hermitian(2, rng)
    l_mat = l_mat @ l_mat.conj().T  # PSD decay part
    g = GeneratorSpec(H=h, L=l_mat)
    u0 = np.array([0.6, 0.8j], dtype=complex)
    got = trotter_oracle(g, u0, 1.5)
    want = scipy.linalg.expm(-1j * (h - 1j * l_mat) * 1.5) @ u0
    assert np.allclose(got, want, atol=1e-9)
    # a raw matrix argument means A itself
    got_raw = trotter_oracle(h - 1j * l_mat, u0, 1.5)
    assert np.allclose(got_raw, want, atol=1e-9)


def test_trotter_oracle_rejects_a_dt_that_does_not_divide_T():
    with pytest.raises(ValueError, match="does not divide"):
        trotter_oracle(PAULI["X"], np.array([1.0, 0.0]), 0.25, dt=0.1)


def test_trotter_oracle_over_a_tuple_of_times_equals_per_t_calls_bit_for_bit(rng):
    h, l_mat = random_hermitian(2, rng), random_hermitian(2, rng)
    g = GeneratorSpec(H=h, L=l_mat @ l_mat)
    u0 = np.array([0.6, 0.8j])
    times = (0.5, 0.1, 1.5, 0.5, 0.30000000000000004)  # unsorted, repeated, float-accumulated
    got = trotter_oracle(g, u0, times, 0.01)
    assert len(got) == len(times)
    for t_val, state in zip(times, got):
        assert state.tobytes() == trotter_oracle(g, u0, t_val, 0.01).tobytes()
    assert [s.tobytes() for s in trotter_oracle(g, u0, np.array(times), 0.01)] == \
        [s.tobytes() for s in got]
    assert trotter_oracle(g, u0, (), 0.01) == []  # `nonherm --T ""` walks no step


def test_a_dt_that_does_not_divide_one_of_the_times_raises_before_any_step(monkeypatch):
    import tlpq.lchs

    built = []
    monkeypatch.setattr(tlpq.lchs, "matexp", lambda *a: built.append(a) or np.eye(2))
    with pytest.raises(ValueError, match="^dt=0.1 does not divide T=0.25$"):
        trotter_oracle(PAULI["X"], np.array([1.0, 0.0]), (0.5, 1.0, 0.25, 2.0), dt=0.1)
    assert built == []  # no step matrix was built, so no step was taken


@pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
def test_a_dt_that_is_not_positive_is_refused_by_one_rule(dt):
    with pytest.raises(ValueError, match="^dt must be positive$"):
        trotter_oracle(PAULI["X"], np.array([1.0, 0.0]), 0.25, dt=dt)


def test_exact_ground_closed_form():
    for gamma in (0.0, 0.4, 0.8, 1.6, 2.0):
        h = 2 * np.eye(2) + gamma * PAULI["X"]
        e0, vec = exact_ground(h)
        assert e0 == pytest.approx(2.0 - gamma, abs=1e-14)
        if gamma > 0:
            direction = np.array([1.0, -1.0]) / np.sqrt(2)
            assert abs(abs(np.vdot(direction, vec)) - 1.0) < 1e-12


def test_exact_ground_matches_eigvalsh(rng):
    h = random_hermitian(4, rng)
    e0, vec = exact_ground(h)
    assert e0 == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)
    assert np.allclose(h @ vec, e0 * vec, atol=1e-10)
