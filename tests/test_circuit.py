"""Statevector simulator: gate semantics, bit ordering, serialization.

Oracles are dense matrices assembled in-test with np.kron (qubit 0 is the
most-significant bit, so a gate on qubit q is lifted as I⊗...⊗U⊗...⊗I with q
identity factors on the left).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import PAULI, haar_unitary, kron_all, pauli_label_matrix, random_state

from tlpq.circuit import (
    Circuit,
    CircuitFormatError,
    Gate,
    NotUnitary,
    PauliString,
    basis_state,
    circuit_to_json,
    circuit_unitary,
    gate_matrix,
    parse_circuit,
    simulate,
)
from tlpq.linalg import DimensionMismatch


def lift(mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Dense operator acting as mat on the given (adjacent or not) qubits.

    Built by conjugating with explicit basis reindexing — fully independent of
    the package's tensordot path.
    """
    k = len(qubits)
    full = np.zeros((2**n, 2**n), dtype=complex)
    rest = [q for q in range(n) if q not in qubits]
    for col in range(2**n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = 0
        for j, q in enumerate(qubits):
            sub_in = (sub_in << 1) | bits[q]
        for sub_out in range(2**k):
            amp = mat[sub_out, sub_in]
            if amp == 0:
                continue
            out_bits = list(bits)
            for j, q in enumerate(qubits):
                out_bits[q] = (sub_out >> (k - 1 - j)) & 1
            row = 0
            for b in out_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


class TestBitOrdering:
    def test_qubit0_is_most_significant(self):
        c = Circuit(2, (Gate("X", (0,)),))
        out = simulate(c, basis_state(2))
        assert out[2] == pytest.approx(1.0)  # |10> = index 2

    def test_qubit_last_is_least_significant(self):
        c = Circuit(2, (Gate("X", (1,)),))
        out = simulate(c, basis_state(2))
        assert out[1] == pytest.approx(1.0)

    def test_cnot_control_msb(self):
        #  CNOT(0,1) on |10> flips the target: -> |11>
        c = Circuit(2, (Gate("CNOT", (0, 1)),))
        out = simulate(c, np.array([0, 0, 1, 0], dtype=complex))
        assert out[3] == pytest.approx(1.0)


class TestGateMatrices:
    def test_fixed_gates(self):
        assert np.allclose(gate_matrix(Gate("H", (0,))),
                           np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert np.allclose(gate_matrix(Gate("S", (0,))), np.diag([1, 1j]))
        assert np.allclose(gate_matrix(Gate("T", (0,))),
                           np.diag([1, np.exp(1j * np.pi / 4)]))
        for p in "IXYZ":
            assert np.allclose(gate_matrix(Gate(p, (0,))), PAULI[p])

    def test_rotation_sign_convention(self):
        # R_P(theta) = exp(-i theta P / 2): at theta=pi it equals -iP
        for kind, p in (("RX", "X"), ("RY", "Y"), ("RZ", "Z")):
            got = gate_matrix(Gate(kind, (0,), params=(np.pi,)))
            assert np.allclose(got, -1j * PAULI[p], atol=1e-12), kind

    def test_phase_gate(self):
        th = 0.73
        assert np.allclose(gate_matrix(Gate("PHASE", (0,), params=(th,))),
                           np.diag([1.0, np.exp(1j * th)]))

    def test_two_qubit_gates(self):
        assert np.allclose(gate_matrix(Gate("CZ", (0, 1))), np.diag([1, 1, 1, -1]))
        assert np.allclose(
            gate_matrix(Gate("CNOT", (0, 1))),
            np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        )


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(CircuitFormatError):
            Gate("Q", (0,))

    def test_wrong_arity(self):
        with pytest.raises(CircuitFormatError):
            Gate("H", (0, 1))
        with pytest.raises(CircuitFormatError):
            Gate("CZ", (0,))

    def test_duplicate_qubits(self):
        with pytest.raises(CircuitFormatError):
            Gate("CNOT", (1, 1))

    def test_param_count(self):
        with pytest.raises(CircuitFormatError):
            Gate("RX", (0,))
        with pytest.raises(CircuitFormatError):
            Gate("H", (0,), params=(0.1,))

    def test_raw_needs_square_power_of_two(self):
        with pytest.raises(CircuitFormatError):
            Gate("RAW", (0,), raw=np.ones((3, 3)))
        with pytest.raises(CircuitFormatError):
            Gate("RAW", (0, 1), raw=np.eye(2))

    def test_gate_out_of_range(self):
        with pytest.raises(CircuitFormatError):
            Circuit(1, (Gate("H", (1,)),))


class TestSimulate:
    def test_bell_pair(self):
        c = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
        out = simulate(c, basis_state(2))
        assert np.allclose(out, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_accepts_vector_input(self, rng):
        psi = random_state(4, rng)
        c = Circuit(2, (Gate("Z", (1,)),))
        out = simulate(c, psi)
        assert np.allclose(out, lift(PAULI["Z"], (1,), 2) @ psi)

    def test_raw_gate_must_be_unitary(self):
        c = Circuit(1, (Gate("RAW", (0,), raw=np.diag([1.0, 0.5])),))
        with pytest.raises(NotUnitary):
            simulate(c, basis_state(1))

    def test_dimension_mismatch(self):
        c = Circuit(2, (Gate("H", (0,)),))
        with pytest.raises(DimensionMismatch):
            simulate(c, np.ones(2))

    def test_non_adjacent_two_qubit_gate(self, rng):
        u = haar_unitary(4, rng)
        psi = random_state(8, rng)
        c = Circuit(3, (Gate("RAW", (2, 0), raw=u),))
        assert np.allclose(simulate(c, psi), lift(u, (2, 0), 3) @ psi, atol=1e-12)


@st.composite
def small_circuits(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    n_gates = draw(st.integers(min_value=0, max_value=8))
    gates = []
    for _ in range(n_gates):
        kind = draw(st.sampled_from(
            ["H", "X", "Y", "Z", "S", "T", "RX", "RY", "RZ", "PHASE", "CZ", "CNOT"]
        ))
        if kind in ("CZ", "CNOT"):
            if n < 2:
                continue
            qubits = tuple(draw(st.permutations(range(n)))[:2])
        else:
            qubits = (draw(st.integers(min_value=0, max_value=n - 1)),)
        params = ()
        if kind in ("RX", "RY", "RZ", "PHASE"):
            params = (draw(st.floats(min_value=-6.3, max_value=6.3,
                                     allow_nan=False, allow_infinity=False)),)
        gates.append(Gate(kind, qubits, params=params))
    return Circuit(n, tuple(gates))


class TestSimulatorProperty:
    @given(small_circuits(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_simulate_matches_dense_product(self, c, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(2**c.n_qubits, rng)
        dense = np.eye(2**c.n_qubits, dtype=complex)
        for g in c.gates:
            dense = lift(gate_matrix(g), g.qubits, c.n_qubits) @ dense
        assert np.max(np.abs(simulate(c, psi) - dense @ psi)) < 1e-10

    @given(small_circuits())
    @settings(max_examples=30, deadline=None)
    def test_circuit_unitary_matches_columns(self, c):
        u = circuit_unitary(c)
        for idx in (0, 2**c.n_qubits - 1):
            assert np.allclose(u[:, idx], simulate(c, basis_state(c.n_qubits, idx)),
                               atol=1e-10)


class TestPauliString:
    def test_matrix_matches_kron(self):
        p = PauliString(3, "XZY")
        assert np.allclose(p.matrix(), pauli_label_matrix("XZY"))

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            PauliString(2, "XA")
        with pytest.raises(ValueError):
            PauliString(3, "XZ")


class TestSerialization:
    def test_round_trip(self, rng):
        u = haar_unitary(4, rng)
        c = Circuit(
            3,
            (
                Gate("H", (0,)),
                Gate("RX", (1,), params=(0.25,)),
                Gate("CNOT", (2, 0)),
                Gate("RAW", (1, 2), raw=u),
            ),
        )
        back = parse_circuit(circuit_to_json(c))
        assert back.n_qubits == c.n_qubits
        assert len(back.gates) == len(c.gates)
        for g1, g2 in zip(c.gates, back.gates):
            assert g1.kind == g2.kind
            assert g1.qubits == g2.qubits
            assert g1.params == pytest.approx(g2.params)
        assert np.allclose(back.gates[3].raw, u, atol=1e-15)

    def test_unknown_field_rejected(self):
        obj = circuit_to_json(Circuit(1, (Gate("H", (0,)),)))
        obj["surprise"] = 1
        with pytest.raises(CircuitFormatError):
            parse_circuit(obj)

    def test_unknown_gate_field_rejected(self):
        obj = circuit_to_json(Circuit(1, (Gate("H", (0,)),)))
        obj["gates"][0]["surprise"] = 1
        with pytest.raises(CircuitFormatError):
            parse_circuit(obj)

    def test_matrix_on_non_raw_rejected(self):
        obj = circuit_to_json(Circuit(1, (Gate("H", (0,)),)))
        obj["gates"][0]["raw"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(CircuitFormatError):
            parse_circuit(obj)

    def test_non_unitary_raw_rejected_by_default(self):
        c_obj = {
            "n": 1,
            "gates": [{"kind": "RAW", "qubits": [0],
                       "raw": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}],
        }
        with pytest.raises(NotUnitary):
            parse_circuit(c_obj)
        c = parse_circuit(c_obj, require_unitary=False)
        assert np.allclose(c.gates[0].raw, np.diag([1.0, 0.5]))

    def test_malformed_rejected(self):
        with pytest.raises(CircuitFormatError):
            parse_circuit({"n": 1})
        with pytest.raises(CircuitFormatError):
            parse_circuit({"n": "x", "gates": []})
        with pytest.raises(CircuitFormatError):
            parse_circuit({"n": 1, "gates": [{"kind": "H"}]})
