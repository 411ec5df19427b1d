"""Two-qubit gate decompositions: product-term expansions, wire cutting,
layered circuit expansion.

The universal oracle here is an in-test reshuffle+SVD: reshape the 4x4
operator to group (row_a,col_a)x(row_b,col_b) indices, SVD it, and read the
exact minimal term count off the singular values. Any valid product-term
expansion must reproduce the operator and match that count.
"""

import numpy as np
import pytest

from conftest import haar_unitary, kron_all, pauli_label_matrix

from tlpq.circuit import Circuit, CircuitFormatError, Gate, NotUnitary, circuit_unitary
from tlpq.factorize import (
    ChannelQuasiDecomposition,
    GateLCU,
    LayeredDecomposition,
    UnsupportedCrossingGate,
    cz_cutting_decomposition,
    expand_layered,
    operator_schmidt,
    pauli_expansion,
    reshuffled_rank,
)
from tlpq.partition import CutAssignment, build_graph, global_min_cut

CZ = np.diag([1, 1, 1, -1]).astype(complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)


def oracle_rank(u4: np.ndarray, tol: float = 1e-9) -> int:
    r = u4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(r, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def resum_terms(lcu: GateLCU) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for coeff, factors in lcu.terms:
        out += coeff * kron_all(factors)
    return out


GATE_CASES = [
    ("cz", CZ, 2),
    ("cnot", CNOT, 2),
    ("swap", SWAP, 4),
    ("iswap", ISWAP, 4),
]


class TestOperatorSchmidt:
    @pytest.mark.parametrize("name,u,want_ell", GATE_CASES)
    def test_named_gates(self, name, u, want_ell):
        lcu = operator_schmidt(u)
        assert lcu.ell == want_ell == oracle_rank(u)
        assert np.max(np.abs(resum_terms(lcu) - u)) < 1e-9

    def test_product_gate_is_single_term(self, rng):
        u = kron_all([haar_unitary(2, rng), haar_unitary(2, rng)])
        lcu = operator_schmidt(u)
        assert lcu.ell == 1 == oracle_rank(u)
        assert np.max(np.abs(resum_terms(lcu) - u)) < 1e-9

    def test_haar_random_gates(self, rng):
        for _ in range(25):
            u = haar_unitary(4, rng)
            lcu = operator_schmidt(u)
            assert lcu.ell == oracle_rank(u)
            assert np.max(np.abs(resum_terms(lcu) - u)) < 1e-8
            for coeff, factors in lcu.terms:
                for f in factors:
                    assert np.max(np.abs(f @ f.conj().T - np.eye(2))) < 1e-8

    def test_controlled_phase_family(self):
        # interpolates between rank 1 (identity) and rank 2 (full CZ)
        for th in (0.3, 1.1, np.pi / 2, 3.0):
            u = np.diag([1, 1, 1, np.exp(1j * th)]).astype(complex)
            lcu = operator_schmidt(u)
            assert lcu.ell == 2 == oracle_rank(u)
            assert np.max(np.abs(resum_terms(lcu) - u)) < 1e-9

    def test_factors_are_unitary_for_named_gates(self):
        for _, u, _ in GATE_CASES:
            for _, factors in operator_schmidt(u).terms:
                for f in factors:
                    assert np.max(np.abs(f @ f.conj().T - np.eye(2))) < 1e-10

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            operator_schmidt(np.eye(3))

    def test_rejects_non_unitary(self):
        with pytest.raises((NotUnitary, ValueError)):
            operator_schmidt(np.diag([1.0, 1.0, 1.0, 0.5]))


class TestReshuffledRank:
    def test_matches_oracle(self, rng):
        for _, u, want in GATE_CASES:
            assert reshuffled_rank(u) == want
        for _ in range(10):
            u = haar_unitary(4, rng)
            assert reshuffled_rank(u) == oracle_rank(u)


class TestPauliExpansion:
    def test_reconstructs_random_unitary(self, rng):
        u = haar_unitary(4, rng)
        lcu = pauli_expansion(u)
        assert np.max(np.abs(resum_terms(lcu) - u)) < 1e-12

    def test_cnot_has_four_terms(self):
        lcu = pauli_expansion(CNOT)
        assert lcu.ell == 4
        assert np.max(np.abs(resum_terms(lcu) - CNOT)) < 1e-12

    def test_factors_are_paulis(self):
        lcu = pauli_expansion(CZ)
        singles = [pauli_label_matrix(ch) for ch in "IXYZ"]
        for _, factors in lcu.terms:
            for f in factors:
                assert any(np.allclose(f, s) for s in singles)


class TestGateLCUValidation:
    def test_rejects_non_unitary_factor(self):
        with pytest.raises(NotUnitary):
            GateLCU(terms=((1.0 + 0j, (np.diag([1.0, 0.5]),)),))


class TestCzCutting:
    def test_term_count_and_overhead(self):
        dec = cz_cutting_decomposition()
        assert dec.n_terms == 10
        assert dec.overhead == pytest.approx(5.0, abs=1e-12)

    def test_channel_identity_on_complete_basis(self):
        # acting on all 16 two-qubit matrix units reproduces CZ . CZ†
        dec = cz_cutting_decomposition()
        worst = 0.0
        for a in range(4):
            for b in range(4):
                e = np.zeros((4, 4), dtype=complex)
                e[a, b] = 1.0
                err = np.max(np.abs(dec.apply(e) - CZ @ e @ CZ.conj().T))
                worst = max(worst, float(err))
        assert worst < 1e-10

    def test_coefficients_are_real_and_sum_to_one(self):
        dec = cz_cutting_decomposition()
        assert all(isinstance(c, float) for c, _ in dec.terms)
        assert sum(c for c, _ in dec.terms) == pytest.approx(1.0, abs=1e-12)

    def test_local_factor_shapes(self):
        for _, (kraus_a, kraus_b) in cz_cutting_decomposition().terms:
            for k in list(kraus_a) + list(kraus_b):
                assert k.shape == (2, 2)


def two_crossing_cnot_circuit() -> Circuit:
    """Edge weights (0,1):3, (1,2):2, (2,3):3 force the middle cut."""
    gates = [Gate("H", (0,))]
    gates += [Gate("CNOT", (0, 1))] * 3
    gates += [Gate("CNOT", (2, 3))] * 3
    gates += [Gate("CNOT", (1, 2))] * 2
    return Circuit(4, tuple(gates))


class TestExpandLayered:
    def test_single_cz_crossing(self):
        c = Circuit(2, (Gate("H", (0,)), Gate("CZ", (0, 1)), Gate("H", (1,))))
        cut = global_min_cut(build_graph(c))
        ld = expand_layered(c, cut)
        assert ld.term_count == 2
        assert np.max(np.abs(ld.resum_unitary() - circuit_unitary(c))) < 1e-9

    def test_two_crossings_default_method(self):
        c = two_crossing_cnot_circuit()
        cut = global_min_cut(build_graph(c))
        assert cut.weight == 2
        ld = expand_layered(c, cut)
        assert ld.term_count == 4
        assert np.max(np.abs(ld.resum_unitary() - circuit_unitary(c))) < 1e-9

    def test_terms_are_part_local_circuits(self):
        c = two_crossing_cnot_circuit()
        cut = global_min_cut(build_graph(c))
        ld = expand_layered(c, cut)
        p0, p1 = cut.parts()
        total = 0
        for coeff, (c0, c1) in ld.terms():
            total += 1
            assert c0.n_qubits == len(p0)
            assert c1.n_qubits == len(p1)
        assert total == ld.term_count

    def test_term_resummation_weighted_kron(self):
        # sum_t coeff_t (U_t^0 x U_t^1) over part-local unitaries equals the
        # full circuit (up to the fixed part-qubit ordering)
        c = Circuit(2, (Gate("CZ", (0, 1)),))
        cut = global_min_cut(build_graph(c))
        ld = expand_layered(c, cut)
        acc = np.zeros((4, 4), dtype=complex)
        for coeff, (c0, c1) in ld.terms():
            acc += coeff * kron_all([circuit_unitary(c0), circuit_unitary(c1)])
        assert np.max(np.abs(acc - CZ)) < 1e-9

    def test_haar_raw_crossing_gate(self, rng):
        u = haar_unitary(4, rng)
        c = Circuit(2, (Gate("RAW", (0, 1), raw=u),))
        cut = global_min_cut(build_graph(c))
        ld = expand_layered(c, cut)
        assert ld.term_count == oracle_rank(u)
        assert np.max(np.abs(ld.resum_unitary() - u)) < 1e-8

    @pytest.mark.parametrize("part_of", [
        {0: 0, 1: 1, 2: 0, 3: 1},  # interleaved parts
        {0: 1, 1: 0, 2: 1, 3: 1},  # part 0 is one middle qubit
    ])
    def test_resum_restores_global_qubit_order(self, rng, part_of):
        gates = [Gate("RAW", (q,), raw=haar_unitary(2, rng)) for q in range(4)]
        gates += [Gate("CNOT", (0, 1)), Gate("CZ", (2, 1)),
                  Gate("RAW", (3, 0), raw=haar_unitary(4, rng)), Gate("CNOT", (0, 2))]
        c = Circuit(4, tuple(gates))
        ld = expand_layered(c, CutAssignment(part_of=part_of, weight=0))
        assert np.max(np.abs(ld.resum_unitary() - circuit_unitary(c))) < 1e-8

    def test_cut_must_cover_all_qubits(self):
        c = two_crossing_cnot_circuit()
        cut = global_min_cut(build_graph(c))
        bad = type(cut)(part_of={0: 0, 1: 0, 2: 1}, weight=0, crossing_gate_indices=())
        with pytest.raises(ValueError):
            expand_layered(c, bad)


class TestExpansionCache:
    def test_only_raw_crossing_gates_run_operator_schmidt(self, rng, monkeypatch):
        from tlpq import factorize

        calls = []
        real = factorize.operator_schmidt
        monkeypatch.setattr(factorize, "operator_schmidt",
                            lambda u: calls.append(u) or real(u))
        factorize._fixed_lcu.cache_clear()
        raw = haar_unitary(4, rng)
        c = Circuit(4, (Gate("CZ", (0, 2)), Gate("H", (1,)), Gate("CZ", (3, 1)),
                        Gate("CNOT", (1, 2)), Gate("RAW", (0, 3), raw=raw),
                        Gate("RAW", (0, 3), raw=raw), Gate("CZ", (1, 2))))
        cut = CutAssignment(part_of={0: 0, 1: 0, 2: 1, 3: 1}, weight=0)
        ld = expand_layered(c, cut)
        assert len(calls) == 2  # each RAW gate on its own; CZ and CNOT are literals
        assert ld.lcus[0] is ld.lcus[1] is ld.lcus[5]
        assert ld.lcus[2] is not ld.lcus[0] and ld.lcus[3] is not ld.lcus[4]
        again = expand_layered(c, cut)
        assert len(calls) == 4 and again.lcus[0] is ld.lcus[0] and again.lcus[2] is ld.lcus[2]
        assert np.allclose(ld.resum_unitary(), circuit_unitary(c), atol=1e-9)


class TestExpansionBits:
    # sha256 over each term's coefficient and factor bytes: the closed forms
    # ((1 - i)/2) S x S + ((1 + i)/2) S^dagger x S^dagger for CZ and
    # ((1 - i)/2) S x HSH + ((1 + i)/2) S^dagger x HS^daggerH for CNOT, as literals
    PINNED = {
        "CZ": "2e8e422ca909bde79f8416d039ef0dcd3b06147877ff474006606baeb585bb6a",
        "CNOT": "824cf65050d896f5b59180391c6ecf3f4c9ca52543f9acb4308dc8b4ab12de54",
    }

    @pytest.mark.parametrize("kind", ["CZ", "CNOT"])
    def test_fixed_expansions_keep_their_bits(self, kind):
        import hashlib

        from tlpq.factorize import _fixed_lcu

        digest = hashlib.sha256()
        for coeff, factors in _fixed_lcu(kind).terms:
            digest.update(np.complex128(coeff).tobytes())
            for f in factors:
                digest.update(np.ascontiguousarray(f).tobytes())
        assert digest.hexdigest() == self.PINNED[kind]

    @pytest.mark.parametrize("kind", ["CZ", "CNOT"])
    def test_fixed_expansions_resum_exactly_with_read_only_factors(self, kind):
        from tlpq.circuit import gate_matrix
        from tlpq.factorize import _fixed_lcu

        lcu = _fixed_lcu(kind)
        assert lcu.ell == oracle_rank(gate_matrix(Gate(kind, (0, 1)))) == 2
        assert np.array_equal(lcu.resum(), gate_matrix(Gate(kind, (0, 1))))
        for _, factors in lcu.terms:
            for f in factors:
                assert not f.flags.writeable
                with pytest.raises(ValueError):
                    f[0, 0] = 0

    def test_terms_share_each_mapped_gate_and_resum_as_fresh_gates(self, rng):
        # parts {0, 1} | {2, 3}; CZ(0, 2), RAW(1, 3) and CZ(1, 2) cross the cut
        gates = (Gate("H", (0,)), Gate("CZ", (0, 2)), Gate("RY", (3,), params=(0.4,)),
                 Gate("RAW", (1, 3), raw=haar_unitary(4, rng)), Gate("CNOT", (0, 1)),
                 Gate("CZ", (1, 2)))
        c = Circuit(4, gates)
        cut = CutAssignment(part_of={0: 0, 1: 0, 2: 1, 3: 1}, weight=0)
        ld = expand_layered(c, cut)
        terms = list(ld.terms())
        assert len(terms) == ld.term_count == 2 * 4 * 2
        alphas = list(np.ndindex(2, 4, 2))  # first crossing gate slowest
        # part 0 runs H, CZ factor, RAW factor, CNOT, CZ factor; part 1 runs
        # CZ factor, RY, RAW factor, CZ factor
        for part, at in ((0, 0), (0, 3), (1, 1)):  # H, CNOT, RY: one Gate in every term
            assert len({id(parts[part].gates[at]) for _, parts in terms}) == 1
        for part, at, t in ((0, 1, 0), (1, 0, 0), (0, 2, 1), (1, 2, 1), (0, 4, 2), (1, 3, 2)):
            # a crossing factor: one Gate per LCU term of its gate, in every term
            by_index = {}
            for alpha, (_, parts) in zip(alphas, terms):
                assert by_index.setdefault(alpha[t], parts[part].gates[at]) is parts[part].gates[at]
            assert len({id(g) for g in by_index.values()}) == ld.lcus[t].ell
        # the resummation has the bits of one built from fresh Gates per term
        local = {0: 0, 1: 1, 2: 0, 3: 1}
        total = np.zeros((16, 16), dtype=complex)
        for alpha in np.ndindex(*(lcu.ell for lcu in ld.lcus)):
            coeff, part_gates = 1.0 + 0j, ([], [])
            for gi, g in enumerate(gates):
                if gi in ld.cut_gate_indices:
                    t = ld.cut_gate_indices.index(gi)
                    c_t, factors = ld.lcus[t].terms[alpha[t]]
                    coeff *= c_t
                    for q, f in zip(g.qubits, factors):
                        part_gates[cut.part_of[q]].append(Gate("RAW", (local[q],), raw=f))
                else:
                    part_gates[cut.part_of[g.qubits[0]]].append(Gate(
                        g.kind, tuple(local[q] for q in g.qubits), params=g.params, raw=g.raw))
            total += coeff * kron_all([circuit_unitary(Circuit(2, tuple(p))) for p in part_gates])
        order = ld.part_qubits[0] + ld.part_qubits[1]
        axes = [order.index(q) for q in range(4)]
        total = total.reshape((2,) * 8).transpose(axes + [4 + a for a in axes]).reshape(16, 16)
        assert ld.resum_unitary().tobytes() == total.tobytes()
