"""Subtask planning: estimator circuits, channel expansion, GHZ pipelines.

Dense oracles are built in-test with explicit kron algebra: the channel is
materialized as Phi(rho) = sum_p A_p rho A_p† and compared against the
aggregated subtask sum.
"""

import numpy as np
import pytest

from conftest import haar_unitary, kron_all, pauli_label_matrix, random_state

from tlpq.circuit import (
    Circuit,
    Gate,
    PauliString,
    basis_state,
    circuit_unitary,
    simulate,
)
from tlpq.planner import (
    ChannelLCU,
    FactorizedUnitary,
    IncompleteTables,
    NonPhysical,
    ShapeMismatch,
    Subtask,
    assemble_grams,
    build_estimator_circuit,
    enumerate_subtasks,
    ghz4_template,
    ghz_cutting_plan,
    ghz_overlap_plan,
    ghz_state,
    reconstruct_density_matrix,
    scaling_counts,
)
from tlpq.runtime import (
    ClusterConfig,
    ExactBackend,
    OverlapSpec,
    TaskSpec,
    _readout_pairs,
    aggregate,
    run_plan,
)


def raw_circuit(u: np.ndarray, n: int) -> Circuit:
    return Circuit(n, (Gate("RAW", tuple(range(n)), raw=u),))


def ancilla_overlap(circuit: Circuit) -> complex:
    backend = ExactBackend()
    values, _ = backend.run_task(
        TaskSpec(id=0, kind="estimator", circuit=circuit, readouts=("ax", "ay")),
        None,
        0,
    )
    return complex(values[0], values[1])


def label_state(label: str) -> np.ndarray:
    return basis_state(len(label), int(label, 2))


class TestEstimatorCircuit:
    def test_worked_single_qubit_example(self):
        # U_left = X, U_right = I, O = Y on |0>:  <0| Y X |0> = -i
        s = Subtask(
            id=0,
            indices=(0, 0, 1, 0, 0, 0),
            left_circuit=Circuit(1, (Gate("X", (0,)),)),
            right_circuit=Circuit(1, (Gate("I", (0,)),)),
            observable=PauliString(1, "Y"),
            input_label="0",
            coefficient=1.0 + 0j,
        )
        est = build_estimator_circuit(s)
        assert ancilla_overlap(est.circuit) == pytest.approx(-1j, abs=1e-12)

    def test_identity_gives_plus_one(self):
        s = Subtask(
            id=0,
            indices=(0, 0, 0, 0, 0, 0),
            left_circuit=Circuit(1, (Gate("I", (0,)),)),
            right_circuit=Circuit(1, (Gate("I", (0,)),)),
            observable=PauliString(1, "Z"),
            input_label="0",
            coefficient=1.0 + 0j,
        )
        assert ancilla_overlap(build_estimator_circuit(s).circuit) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_structure(self):
        s = Subtask(
            id=0,
            indices=(0, 0, 0, 0, 0, 0),
            left_circuit=Circuit(2, (Gate("H", (0,)),)),
            right_circuit=Circuit(2, (Gate("X", (1,)),)),
            observable=PauliString(2, "ZZ"),
            input_label="00",
            coefficient=1.0 + 0j,
        )
        est = build_estimator_circuit(s)
        assert est.n_system == 2
        assert est.circuit.n_qubits == 3
        assert est.circuit.gates[0].kind == "H"
        assert est.circuit.gates[0].qubits == (0,)
        assert all(g.kind == "RAW" for g in est.circuit.gates[1:])

    def test_random_overlaps_match_dense(self, rng):
        # ancilla <sx> + i<sy> == <psi| U_right† O U_left |psi>
        for trial in range(120):
            n = int(rng.integers(1, 4))
            ul = haar_unitary(2**n, rng)
            ur = haar_unitary(2**n, rng)
            letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            label = "".join(rng.choice(list("01")) for _ in range(n))
            s = Subtask(
                id=0,
                indices=(0, 0, 1, 0, 0, 0),
                left_circuit=raw_circuit(ul, n),
                right_circuit=raw_circuit(ur, n),
                observable=PauliString(n, letters),
                input_label=label,
                coefficient=1.0 + 0j,
            )
            est = build_estimator_circuit(s)
            prep = tuple(
                Gate("X", (1 + idx,)) for idx, ch in enumerate(label) if ch == "1"
            )
            full = Circuit(n + 1, prep + est.circuit.gates)
            got = ancilla_overlap(full)
            psi = label_state(label)
            want = np.vdot(ur @ psi, pauli_label_matrix(letters) @ (ul @ psi))
            assert abs(got - want) < 1e-10, f"trial {trial}"


def random_channel_instance(rng, n_parts=2):
    """Random channel plus the in-test dense branch operators it was built from."""
    widths = [int(rng.integers(1, 3)) for _ in range(n_parts)]
    dim = 2 ** sum(widths)
    q = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    branches = []
    dense_branches = []
    for _ in range(q):
        coeffs = tuple(
            complex(rng.normal(), rng.normal()) / (q * m) for _ in range(m)
        )
        fus = []
        a_dense = np.zeros((dim, dim), dtype=complex)
        for i in range(m):
            ell = int(rng.integers(1, 4))
            terms = []
            for _ in range(ell):
                d = complex(rng.normal(), rng.normal()) / ell
                mats = [haar_unitary(2**w, rng) for w in widths]
                a_dense += coeffs[i] * d * kron_all(mats)
                factors = tuple(raw_circuit(u, w) for u, w in zip(mats, widths))
                terms.append((d, factors))
            fus.append(FactorizedUnitary(terms=tuple(terms)))
        branches.append((coeffs, tuple(fus)))
        dense_branches.append(a_dense)
    ch = ChannelLCU(branches=tuple(branches))
    labels = tuple("".join(rng.choice(list("01")) for _ in range(w)) for w in widths)
    obs = tuple(
        PauliString(w, "".join(rng.choice(list("IXYZ")) for _ in range(w)))
        for w in widths
    )
    return ch, labels, obs, dense_branches


def dense_channel_value(dense_branches, labels, obs) -> complex:
    rho_vec = kron_all([label_state(lb) for lb in labels])
    rho = np.outer(rho_vec, rho_vec.conj())
    o = kron_all([pauli_label_matrix(p.letters) for p in obs])
    phi = np.zeros_like(rho)
    for a_p in dense_branches:
        phi += a_p @ rho @ a_p.conj().T
    return complex(np.trace(o @ phi))


class TestEnumerateSubtasks:
    def test_count_formula(self, rng):
        ch, labels, obs, dense_branches = random_channel_instance(rng)
        plan = enumerate_subtasks(ch, labels, obs)
        expected = 0
        for coeffs, fus in ch.branches:
            for fi in fus:
                for fj in fus:
                    expected += fi.ell * fj.ell * len(ch.part_widths)
        assert len(plan) == expected

    def test_ids_dense_and_ordered(self, rng):
        ch, labels, obs, dense_branches = random_channel_instance(rng)
        plan = enumerate_subtasks(ch, labels, obs)
        assert [s.id for s in plan] == list(range(len(plan)))
        keys = [s.indices for s in plan]
        assert keys == sorted(keys)

    def test_coefficient_on_first_part_only(self, rng):
        ch, labels, obs, dense_branches = random_channel_instance(rng)
        for s in enumerate_subtasks(ch, labels, obs):
            if s.indices[5] != 0:
                assert s.coefficient == 1.0 + 0j

    def test_group_coefficient_value(self, rng):
        ch, labels, obs, dense_branches = random_channel_instance(rng)
        plan = enumerate_subtasks(ch, labels, obs)
        for s in plan:
            p, i, j, a, a2, part = s.indices
            if part == 0:
                coeffs, fus = ch.branches[p]
                want = (
                    coeffs[i]
                    * np.conj(coeffs[j])
                    * fus[i].terms[a][0]
                    * np.conj(fus[j].terms[a2][0])
                )
                assert abs(s.coefficient - want) < 1e-14

    def test_aggregate_matches_dense_channel(self, rng):
        cfg = ClusterConfig()
        for trial in range(60):
            ch, labels, obs, dense_branches = random_channel_instance(rng)
            plan = enumerate_subtasks(ch, labels, obs)
            got = aggregate(plan, run_plan(plan, cfg))
            want = dense_channel_value(dense_branches, labels, obs)
            assert abs(got - want) < 1e-9, f"trial {trial}: {got} vs {want}"

    def test_shape_validation(self, rng):
        ch, labels, obs, dense_branches = random_channel_instance(rng)
        with pytest.raises(ShapeMismatch):
            enumerate_subtasks(ch, labels[:1], obs)
        with pytest.raises(ShapeMismatch):
            enumerate_subtasks(ch, labels, obs[:1])
        bad_labels = ("0" * (len(labels[0]) + 1),) + labels[1:]
        with pytest.raises(ShapeMismatch):
            enumerate_subtasks(ch, bad_labels, obs)

    def test_trace_preservation_check(self):
        # a single unitary branch is trace preserving; a scaled one is not
        fu = FactorizedUnitary.from_circuits((Circuit(1, (Gate("I", (0,)),)),))
        ChannelLCU(branches=(((1.0 + 0j,), (fu,)),), cptp_expected=True)
        with pytest.raises(NonPhysical):
            ChannelLCU(branches=(((0.5 + 0j,), (fu,)),), cptp_expected=True)


class TestGhzTemplatesAndPlan:
    def test_template_prepares_ghz(self):
        psi = simulate(ghz4_template(), basis_state(4))
        assert np.max(np.abs(psi - ghz_state(4))) < 1e-12

    def test_plan_shape(self):
        templates, evaluations = ghz_overlap_plan()
        assert len(templates) == 2
        assert len(evaluations) == 128
        assert [ev.id for ev in evaluations] == list(range(128))
        # template-major ordering; four readouts per (template, setting)
        assert all(ev.template == 0 for ev in evaluations[:64])
        kinds = [ev.readout.split(":")[0] for ev in evaluations[:4]]
        assert sorted(kinds) == ["ax", "ay", "p0", "p1"]

    def test_gram_identity_setting(self):
        templates, evaluations = ghz_overlap_plan()
        backend = ExactBackend()
        values = {}
        for ev in evaluations:
            left, right = templates[ev.template]
            vals, _ = backend.run_task(
                OverlapSpec(id=ev.id, left=left, right=right,
                            observable=PauliString(2, ev.setting), input_label="00",
                            readouts=(ev.readout,)),
                None,
                0,
            )
            values[ev.id] = vals[0]
        gram_a, gram_b = assemble_grams(evaluations, values)
        # branch states are orthonormal on both parts: II gram is the identity
        assert np.max(np.abs(gram_a["II"] - np.eye(2))) < 1e-10
        assert np.max(np.abs(gram_b["II"] - np.eye(2))) < 1e-10
        rho = reconstruct_density_matrix(gram_a, gram_b)
        assert abs(np.trace(rho) - 1.0) < 1e-9
        fid = float(np.real(np.vdot(ghz_state(4), rho @ ghz_state(4))))
        assert fid == pytest.approx(1.0, abs=1e-9)

    def test_evaluations_match_the_ancilla_templates(self):
        # reference: the 3-qubit single-ancilla circuits (ancilla = qubit 0) that
        # prepare (|0>|state_1> + |1>|state_2>)/sqrt(2), then controlled-M
        anc_a = (Gate("H", (0,)), Gate("H", (1,)), Gate("H", (2,)), Gate("CZ", (1, 2)),
                 Gate("H", (2,)), Gate("CZ", (0, 2)))
        anc_b = (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2)))
        templates, evaluations = ghz_overlap_plan()
        for ev in evaluations:
            controlled = np.zeros((8, 8), dtype=complex)
            controlled[:4, :4] = np.eye(4)
            controlled[4:, 4:] = pauli_label_matrix(ev.setting)
            gates = (anc_a, anc_b)[ev.template] + (Gate("RAW", (0, 1, 2), raw=controlled),)
            desc = ev.readout if ev.readout in ("ax", "ay") else f"{ev.readout}:{ev.setting}"
            reference = TaskSpec(id=ev.id, kind="estimator", circuit=Circuit(3, gates),
                                 readouts=(desc,))
            left, right = templates[ev.template]
            task = OverlapSpec(id=ev.id, left=left, right=right,
                               observable=PauliString(2, ev.setting), input_label="00",
                               readouts=(ev.readout,))
            want = np.array(_readout_pairs(reference, {}))
            got = np.array(_readout_pairs(task, {}))
            assert np.max(np.abs(got - want)) <= 1e-12, ev

    def test_assemble_grams_missing_value(self):
        templates, evaluations = ghz_overlap_plan()
        with pytest.raises(IncompleteTables):
            assemble_grams(evaluations, {0: 1.0})

    def test_reconstruct_rejects_garbage_when_checked(self):
        bad_a = {}
        bad_b = {}
        rng = np.random.default_rng(0)
        for label in ("II", "IX", "IY", "IZ", "XI", "XX", "XY", "XZ",
                      "YI", "YX", "YY", "YZ", "ZI", "ZX", "ZY", "ZZ"):
            bad_a[label] = np.eye(2, dtype=complex)
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            bad_b[label] = g + g.conj().T
        with pytest.raises(NonPhysical):
            reconstruct_density_matrix(bad_a, bad_b)


class TestGhzCuttingPlan:
    def test_counts(self):
        subcircuits, settings, _ = ghz_cutting_plan()
        assert len(subcircuits) == 10
        assert len(settings) == 160
        assert [st.id for st in settings] == list(range(160))

    def test_subcircuits_are_two_qubit(self):
        subcircuits, _, _ = ghz_cutting_plan()
        for ca, cb in subcircuits:
            assert ca.n_qubits == 2
            assert cb.n_qubits == 2

    def test_exact_reconstruction(self):
        subcircuits, settings, combiner = ghz_cutting_plan()
        backend = ExactBackend()

        def density_value(circuit, pauli):
            task = TaskSpec(id=0, kind="density", circuit=circuit, readouts=(f"e:{pauli}",))
            return backend.run_task(task, None, 0)[0][0]

        values = []
        for st in settings:
            ca, cb = subcircuits[st.term]
            values.append((density_value(ca, st.pauli), density_value(cb, st.pauli)))
        rho, raw_trace = combiner(values)
        assert raw_trace == pytest.approx(1.0, abs=1e-10)
        fid = float(np.real(np.vdot(ghz_state(4), rho @ ghz_state(4))))
        assert fid == pytest.approx(1.0, abs=1e-9)


class TestScalingCounts:
    @pytest.mark.parametrize("m,ours,cutting", [(1, 16, 160), (2, 32, 1600), (3, 64, 16000)])
    def test_formula(self, m, ours, cutting):
        got = scaling_counts(m)
        assert got["ours"] == ours
        assert got["cutting"] == cutting
