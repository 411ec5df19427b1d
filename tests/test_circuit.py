"""Statevector simulator: gate semantics, bit ordering, serialization.

Oracles are dense matrices assembled in-test with np.kron (qubit 0 is the
most-significant bit, so a gate on qubit q is lifted as I⊗...⊗U⊗...⊗I with q
identity factors on the left).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (PAULI, haar_unitary, kron_all, pauli_label_matrix, random_state,
                      record_steps)

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

    def test_fields_are_stored_as_ints_and_floats_whatever_they_were_given_as(self):
        for qubits in ((1,), [1], (True,), (np.int64(1),), (1.0,), (1.7,)):
            for params in ((0.5,), [0.5], (np.float64(0.5),), [1]):
                g = Gate("RY", qubits, params=params)
                assert g.qubits == (1,) and type(g.qubits) is tuple
                assert type(g.qubits[0]) is int and type(g.params[0]) is float
        assert Gate("CZ", [0, True]).qubits == (0, 1)
        assert Gate("H", (0,), params=[]).params == ()
        with pytest.raises(CircuitFormatError, match="repeated qubit in CZ gate"):
            Gate("CZ", (1, True))  # the typed memo keeps True beside 1, and both are 1
        with pytest.raises(CircuitFormatError, match="negative qubit index in H"):
            Gate("H", (-1,))
        with pytest.raises(TypeError):
            Gate("H", (1 + 0j,))
        with pytest.raises(TypeError):
            Gate("RY", (0,), params=None)


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


def _reference_apply(state_t, mat, qubits):
    """The gate kernel as np.tensordot writes it."""
    k = len(qubits)
    out = np.tensordot(mat.reshape((2,) * (2 * k)), state_t,
                       axes=(tuple(range(k, 2 * k)), qubits))
    return np.moveaxis(out, tuple(range(k)), qubits)


def _reference_rotation(kind: str, theta: float) -> np.ndarray:
    t = theta / 2
    if kind == "RX":
        return np.array([[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]],
                        dtype=complex)
    if kind == "RY":
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
    if kind == "RZ":
        return np.diag([np.exp(-1j * t), np.exp(1j * t)]).astype(complex)
    return np.diag([1.0, np.exp(1j * theta)]).astype(complex)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGateKernel:
    """``_apply`` runs, per state, tensordot's own np.dot call: same bits, same
    result layout."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_apply_equals_tensordot_bit_for_bit(self, rng, n):
        from tlpq.circuit import _apply

        state = random_state(2**n, rng).reshape((2,) * n)
        targets = [(q,) for q in range(n)]
        targets += [(a, b) for a in range(n) for b in range(n) if a != b]
        for qubits in targets:
            mat = haar_unitary(2 ** len(qubits), rng)
            for m in (mat, np.ascontiguousarray(mat.T)):
                got, want = _apply(state, m, qubits), _reference_apply(state, m, qubits)
                assert np.array_equal(got, want) and _same_bits(got, want)
                assert got.strides == want.strides

    def test_apply_takes_a_transposed_raw_matrix_as_tensordot_does(self, rng):
        from tlpq.circuit import _apply

        state = random_state(8, rng).reshape(2, 2, 2)
        for qubits in ((2, 0), (1,), (0, 2)):
            dim = 2 ** len(qubits)
            for mat in (haar_unitary(dim, rng).T, haar_unitary(2 * dim, rng)[::2, 1::2]):
                assert not mat.flags.c_contiguous
                # tensordot's reshapes hand np.dot the matrix with its own strides
                view = mat.reshape((2,) * (2 * len(qubits))).reshape(mat.shape)
                assert np.shares_memory(view, mat) and view.strides == mat.strides
                got, want = _apply(state, mat, qubits), _reference_apply(state, mat, qubits)
                assert np.array_equal(got, want) and _same_bits(got, want)

    def test_apply_keeps_a_trailing_batch_axis(self, rng):
        from tlpq.circuit import _apply

        batch = (random_state(8, rng)[:, None] * np.arange(1, 6)).reshape(2, 2, 2, 5)
        for qubits in ((2, 0), (1,), (0, 1, 2)):
            mat = haar_unitary(2 ** len(qubits), rng)
            got, want = _apply(batch, mat, qubits), _reference_apply(batch, mat, qubits)
            assert got.shape == (2, 2, 2, 5)
            assert np.array_equal(got, want) and _same_bits(got, want)

    def test_a_circuit_evolves_as_the_tensordot_loop(self, rng):
        from tlpq.circuit import _evolve

        gates = [Gate("RY", (q,), params=(float(rng.normal()),)) for q in range(5)]
        gates += [Gate("CZ", (4, 1)), Gate("CNOT", (0, 3)), Gate("H", (2,)),
                  Gate("RAW", (3, 0), raw=haar_unitary(4, rng).T),
                  Gate("PHASE", (1,), params=(-0.0,)), Gate("RX", (4,), params=(0.3,))]
        c = Circuit(5, tuple(gates))
        want = basis_state(5).reshape((2,) * 5)
        for g in gates:
            want = _reference_apply(want, gate_matrix(g), g.qubits)
        got = _evolve(c.gates, basis_state(5).reshape((2,) * 5), check_unitary=True)
        assert _same_bits(got, want)
        assert _same_bits(circuit_unitary(c), circuit_unitary(c))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stacked_pushes_keep_the_bits_of_each_state_pushed_alone(self, rng, n):
        # widths 1-6 hold 0-5 qubits beside a 1- or 2-qubit gate; np.dot over a
        # trailing stack axis rounds differently when there are few of them
        from tlpq.circuit import _evolve

        for count in (1, 2, 3, 5, 17, 65):
            stack = np.array([random_state(2**n, rng) for _ in range(count)])
            stack = stack.reshape((count,) + (2,) * n)
            steps, mats = [], []  # mats: per step, the matrix of each state
            for _ in range(6):
                k = int(rng.integers(1, min(n, 2) + 1))
                qubits = tuple(int(q) for q in rng.permutation(n)[:k])
                if rng.random() < 0.5:  # one Gate, its matrix broadcast over the stack
                    raw = haar_unitary(2**k, rng)
                    steps.append(Gate("RAW", qubits, raw=raw.T if rng.random() < 0.5 else raw))
                    mats.append([gate_matrix(steps[-1])] * count)
                else:  # one Gate per state, their matrices stacked
                    steps.append(tuple(Gate("RAW", qubits, raw=haar_unitary(2**k, rng))
                                       for _ in range(count)))
                    mats.append([gate_matrix(g) for g in steps[-1]])
            got = _evolve(steps, stack, check_unitary=True, stack=True)
            assert got.shape == stack.shape
            for i in range(count):
                want = stack[i]
                for g, m in zip(steps, mats):
                    want = _reference_apply(want, m[i], (g[0] if isinstance(g, tuple) else g).qubits)
                assert _same_bits(got[i], want), (count, i)

    def test_part_states_pushed_together_keep_the_bits_of_each_circuit_run_alone(
            self, rng, monkeypatch):
        # circuits of widths 1-4 that share prefixes of Gate objects and leave
        # them at random depths, read under two labels, in one push and then
        # in later pushes, each of which walks from the root again
        from tlpq.circuit import _PartStates

        circuits = []
        for n in range(1, 5):
            trunk = [Gate("RAW", tuple(int(q) for q in rng.permutation(n)[:min(n, 2)]),
                          raw=haar_unitary(2 ** min(n, 2), rng)) for _ in range(8)]
            pool = [Gate(kind, (q,)) for kind in "HST" for q in range(n)]
            for _ in range(5):
                leave = int(rng.integers(0, 9))
                tail = [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(0, 4)))]
                circuits.append(Circuit(n, tuple(trunk[:leave] + tail)))
        pairs = [(c, label) for c in circuits
                 for label in ("0" * c.n_qubits, "1" + "0" * (c.n_qubits - 1))]
        first, later = pairs[:len(pairs) // 2 + 1], pairs[len(pairs) // 2 + 1:]
        states = _PartStates()
        # later, one circuit ends above a branch point that an earlier push made
        a, b = Gate("H", (0,)), Gate("RY", (1,), params=(0.3,))
        branched = [Circuit(2, (a, b, Gate("S", (0,)))), Circuit(2, (a, b, Gate("T", (1,))))]
        late = [Circuit(2, (a,)), Circuit(2, (a, b, Gate("X", (0,)), Gate("H", (1,))))]
        groups = (first, later, [(c, "01") for c in branched], [(c, "01") for c in late])
        alone = {(c, label): simulate(c, basis_state(c.n_qubits, int(label, 2)))
                 for group in groups for c, label in group}
        steps = record_steps(monkeypatch)
        for group in groups:
            states.push(group)
            pushed = len(steps)
            for c, label in group:
                assert _same_bits(states.state(c, label), alone[c, label])
            assert len(steps) == pushed  # the push computed every state it was asked for


class TestGateCaches:
    """A gate keeps its matrix; decoded gates are shared per exact parameter
    bits within one parse."""

    @pytest.mark.parametrize("kind", ["RX", "RY", "RZ", "PHASE"])
    def test_signed_zero_keeps_its_own_matrix_bits_in_either_order(self, kind):
        for order in ((0.0, -0.0), (-0.0, 0.0)):
            for theta in order + order:
                got = gate_matrix(Gate(kind, (0,), params=(theta,)))
                assert _same_bits(got, _reference_rotation(kind, theta))
        plus, minus = (_reference_rotation(kind, t) for t in (0.0, -0.0))
        if kind != "PHASE":  # exp(1j * -0.0) has the bits of exp(1j * 0.0)
            assert not _same_bits(plus, minus)

    @pytest.mark.parametrize("kind", ["RY", "RZ", "PHASE"])
    def test_parsed_signed_zero_keeps_its_own_matrix_bits_in_either_order(self, kind):
        import json

        for order in ((0.0, -0.0), (-0.0, 0.0)):
            entries = [{"kind": kind, "qubits": [0], "params": [t]} for t in order + order]
            parsed = parse_circuit(json.loads(json.dumps({"n": 1, "gates": entries})))
            for theta, g in zip(order + order, parsed.gates):
                assert np.copysign(1.0, g.params[0]) == np.copysign(1.0, theta)
                assert _same_bits(gate_matrix(g), _reference_rotation(kind, theta))
            a, b, a_again, b_again = parsed.gates
            assert a is a_again and b is b_again and a is not b

    def test_cached_matrices_are_read_only(self):
        for g in (Gate("RY", (0,), params=(0.7,)), Gate("H", (0,)), Gate("CZ", (0, 1)),
                  Gate("X", (0,)), Gate("PHASE", (0,), params=(1.0,))):
            mat = gate_matrix(g)
            assert not mat.flags.writeable
            with pytest.raises(ValueError):
                mat[0, 0] = 2.0
            assert gate_matrix(g) is mat

    def test_raw_gates_decode_one_by_one_and_others_are_shared(self):
        entry = {"kind": "RAW", "qubits": [0], "raw": [[[0.0, 0.0], [1.0, 0.0]],
                                                       [[1.0, 0.0], [0.0, 0.0]]]}
        h = {"kind": "H", "qubits": [1]}
        raw_a, h_a, raw_b, h_b, h_0 = parse_circuit(
            {"n": 2, "gates": [entry, h, entry, h, {"kind": "H", "qubits": [0]}]}).gates
        assert raw_a is not raw_b and h_a is h_b and h_0 is not h_a

    def test_the_memo_lives_for_one_call(self):
        obj = {"n": 2, "gates": [{"kind": "RY", "qubits": [1], "params": [0.5]}]}
        assert parse_circuit(obj).gates[0] is not parse_circuit(obj).gates[0]


class TestStrictNumbers:
    """Counts and qubits are JSON integers, params finite JSON numbers."""

    @pytest.mark.parametrize("obj", [
        {"n": 2.7, "gates": []},
        {"n": "2", "gates": []},
        {"n": True, "gates": []},
        {"n": 2, "gates": [{"kind": "H", "qubits": [1.9]}]},
        {"n": 2, "gates": [{"kind": "H", "qubits": [True]}]},
        {"n": 2, "gates": [{"kind": "H", "qubits": ["1"]}]},
        {"n": 2, "gates": [{"kind": "CZ", "qubits": "01"}]},
        {"n": 2, "gates": [{"kind": "RY", "qubits": [0], "params": ["0.5"]}]},
        {"n": 2, "gates": [{"kind": "RY", "qubits": [0], "params": ["nan"]}]},
        {"n": 2, "gates": [{"kind": "RY", "qubits": [0], "params": [float("nan")]}]},
        {"n": 2, "gates": [{"kind": "RY", "qubits": [0], "params": [float("-inf")]}]},
        {"n": 2, "gates": [{"kind": "RY", "qubits": [0], "params": [True]}]},
        {"n": 2, "gates": [{"kind": "RY", "qubits": [0], "params": [10**400]}]},
        {"n": 2, "gates": [{"kind": "RY", "qubits": [0], "params": 0.5}]},
        {"n": 2, "gates": [{"kind": "RAW", "qubits": [True], "raw": [[[1, 0], [0, 0]],
                                                                     [[0, 0], [1, 0]]]}]},
    ])
    def test_truncated_or_text_numbers_are_rejected(self, obj):
        with pytest.raises(CircuitFormatError):
            parse_circuit(obj)

    def test_integer_params_and_a_true_after_a_one_are_read_as_before(self):
        c = parse_circuit({"n": 2, "gates": [{"kind": "RY", "qubits": [1], "params": [2]}]})
        assert c.gates[0].params == (2.0,) and c.gates[0].qubits == (1,)
        with pytest.raises(CircuitFormatError):  # (1, True) equals (1, 1) as a key
            parse_circuit({"n": 2, "gates": [{"kind": "CZ", "qubits": [0, True]}]})


def bits(a: np.ndarray) -> bytes:
    """The exact bits of a complex array, signed zeros included."""
    return np.ascontiguousarray(a, dtype=complex).tobytes()


class TestStateCache:
    """``_apply_observable`` on stacks and ``_PartStates``' unitarity checks."""

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_a_matrix_observable_on_a_stack_is_each_state_s_own_matvec(self, rng, w):
        from tlpq.circuit import _apply_observable

        for count in (1, 2, 7):
            for _ in range(40):
                o = rng.normal(size=(2**w, 2**w)) + 1j * rng.normal(size=(2**w, 2**w))
                stack = rng.normal(size=(count, 2**w)) + 1j * rng.normal(size=(count, 2**w))
                got = _apply_observable(o, stack)
                assert got.shape == stack.shape
                assert bits(got) == bits(np.array([o @ s for s in stack]))
                assert bits(_apply_observable(o, stack[0])) == bits(o @ stack[0])

    def test_an_overlap_state_refuses_a_non_unitary_gate_a_density_state_runs(self):
        from tlpq.circuit import _PartStates

        squash = Gate("RAW", (1,), raw=np.array([[1, 0], [0.2, 0.5]], dtype=complex))
        c = Circuit(2, (Gate("H", (0,)), squash, Gate("CZ", (0, 1))))
        for first in ("density", "overlap"):
            states = _PartStates()
            if first == "density":  # the density row registers and pushes the gate first
                states.state(c, "01", unitary=False)
            with pytest.raises(NotUnitary, match=r"^RAW gate on \(1,\) is not unitary "
                                                 r"within 1e-10$"):
                states.state(c, "01")
            dense = basis_state(2, 1)
            for g in c.gates:
                dense = lift(gate_matrix(g), g.qubits, 2) @ dense
            assert np.allclose(states.state(c, "01", unitary=False), dense, atol=1e-14)

    def test_each_registered_raw_gate_is_tested_once_in_one_stack_per_size(self, rng,
                                                                            monkeypatch):
        import tlpq.circuit
        from tlpq.circuit import _PartStates

        tested = []
        real = tlpq.circuit._unitary_each
        monkeypatch.setattr(tlpq.circuit, "_unitary_each",
                            lambda m: tested.append(m.shape) or real(m))
        one = [Gate("RAW", (0,), raw=haar_unitary(2, rng)) for _ in range(5)]
        two = Gate("RAW", (0, 1), raw=haar_unitary(4, rng))
        circuits = [Circuit(2, (g, two)) for g in one] + [Circuit(2, (two, one[0]))]
        states = _PartStates()
        states.push([(c, "00") for c in circuits])
        assert sorted(tested) == [(1, 4, 4), (5, 2, 2)]
        for c in circuits:  # states pushed later test nothing again
            states.state(c, "01")
            states.state(c, "00", unitary=False)
        assert len(tested) == 2
        states.state(Circuit(2, (Gate("H", (0,)), one[1])), "00")  # a known gate, a new path
        assert len(tested) == 2
