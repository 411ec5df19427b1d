"""Subtask planning: estimator circuits, channel expansion, GHZ pipelines.

Dense oracles are built in-test with explicit kron algebra: the channel is
materialized as Phi(rho) = sum_p A_p rho A_p† and compared against the
aggregated subtask sum.
"""

import dataclasses
import re

import numpy as np
import pytest

from conftest import haar_unitary, kron_all, one_row_table, pauli_label_matrix, random_state

from tlpq.circuit import (
    Circuit,
    Gate,
    PauliString,
    basis_state,
    circuit_unitary,
    simulate,
)
from tlpq.ghz import (
    IncompleteTables,
    NonPhysical,
    assemble_grams,
    ghz4_template,
    ghz_cutting_plan,
    ghz_overlap_plan,
    ghz_state,
    reconstruct_density_matrix,
)
from tlpq.planner import (
    ChannelLCU,
    FactorizedUnitary,
    NonUnitaryObservable,
    Plan,
    ShapeMismatch,
    Subtask,
    build_estimator_circuit,
    check_overlap_operands,
    enumerate_subtasks,
    scaling_counts,
)
from tlpq.runtime import (
    ClusterConfig,
    ExactBackend,
    TaskSpec,
    _PartStates,
    aggregate,
    execute_tasks,
    run_plan,
)
from tlpq.backend import _readout_pairs


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

    def test_group_coefficient_bits_and_shared_rows(self, rng):
        # the sibling-group coefficient is c_i conj(c_j) coeff_alpha conj(coeff_alpha2)
        # multiplied left to right, as each subtask used to be built one by one
        ch, labels, obs, dense_branches = random_channel_instance(rng)
        plan = enumerate_subtasks(ch, labels, obs)
        for s in plan:
            p, i, j, a, a2, part = s.indices
            if part == 0:
                coeffs, fus = ch.branches[p]
                want = (coeffs[i] * np.conj(coeffs[j]) * fus[i].terms[a][0]
                        * np.conj(fus[j].terms[a2][0]))
                assert s.coefficient == complex(want)
        # plans of one channel share its circuit table and row columns
        other = enumerate_subtasks(ch, labels, obs)
        assert other.circuits is plan.circuits and other.coefficient is plan.coefficient

    @pytest.mark.parametrize("n_parts", [1, 2, 3])
    def test_subtask_columns_equal_the_loop_that_built_them_row_by_row(self, rng, n_parts):
        def rows_by_loop(ch):
            circuits: dict = {}
            indices, left, right, coefficient = [], [], [], []
            for p, (coeffs, fus) in enumerate(ch.branches):
                for i in range(len(coeffs)):
                    for j in range(len(coeffs)):
                        c_ij = coeffs[i] * np.conj(coeffs[j])
                        for alpha, (ca, left_parts) in enumerate(fus[i].terms):
                            lefts = [circuits.setdefault(c, len(circuits)) for c in left_parts]
                            for alpha2, (cb, right_parts) in enumerate(fus[j].terms):
                                indices += [(p, i, j, alpha, alpha2, a) for a in range(n_parts)]
                                left += lefts
                                right += [circuits.setdefault(c, len(circuits))
                                          for c in right_parts]
                                coefficient.append(complex(c_ij * ca * np.conj(cb)))
                                coefficient += [1.0 + 0j] * (n_parts - 1)
            return (tuple(circuits), tuple(indices), tuple(left), tuple(right),
                    tuple(coefficient))

        for _ in range(10):
            ch, labels, obs, _ = random_channel_instance(rng, n_parts)
            want = rows_by_loop(ch)
            plan = enumerate_subtasks(ch, labels, obs)
            got = (plan.circuits, tuple(map(tuple, plan.indices.tolist())),
                   *(tuple(col.tolist()) for col in (plan.left, plan.right, plan.coefficient)))
            assert got[0] == want[0]
            assert repr(got[1:]) == repr(want[1:])  # repr tells -0.0 from 0.0
            assert all(type(x) is type(y) for g, w in zip(got[1:], want[1:]) for x, y in zip(g, w))

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


def two_width_rows(n: int = 60) -> list[Subtask]:
    """``n`` rows in two operand combinations: even ids are one-qubit rows
    (Z, label "0"), odd ids two-qubit rows (XY, label "01"); every row has
    its own circuit objects."""
    rows = []
    for k in range(n):
        w = 1 + k % 2
        rows.append(Subtask(
            id=k, indices=(0, k, k, 0, 0, 0),
            left_circuit=Circuit(w, (Gate("X", (0,)),)), right_circuit=Circuit(w, ()),
            observable=PauliString(1, "Z") if w == 1 else PauliString(2, "XY"),
            input_label="0" * w if w == 1 else "01", coefficient=1.0))
    return rows


def replaced(rows: list[Subtask], k: int, **changes) -> list[Subtask]:
    return rows[:k] + [dataclasses.replace(rows[k], **changes)] + rows[k + 1:]


def rule_error(s: Subtask) -> ValueError:
    """The error ``check_overlap_operands`` raises for ``s``."""
    try:
        check_overlap_operands(s.left_circuit, s.right_circuit, s.observable, s.input_label)
    except ValueError as exc:
        return exc
    pytest.fail(f"row {s.id} passes the operand rule")


class TestPlanOperandRule:
    def test_one_rule_call_per_operand_combination(self, monkeypatch):
        import tlpq.planner

        seen = []
        rule = tlpq.planner.check_overlap_operands
        monkeypatch.setattr("tlpq.table.check_overlap_operands",
                            lambda *operands: seen.append(operands) or rule(*operands))
        rows = two_width_rows()
        plan = Plan.from_subtasks(rows)
        assert len(plan) == 60 and len(plan.circuits) == 120
        first = [(s.left_circuit, s.right_circuit, s.observable, s.input_label)
                 for s in rows[:2]]
        assert seen == first

    @pytest.mark.parametrize("changes", [
        {"observable": PauliString(2, "XX")},
        {"observable": np.diag([1.0, 0.5])},
        {"observable": np.eye(4)},
        {"input_label": "2"},
        {"input_label": "00"},
        {"right_circuit": Circuit(2, ())},
    ], ids=["pauli-width", "non-unitary", "matrix-width", "label-bits", "label-width",
            "right-width"])
    def test_a_bad_row_deep_in_a_plan_raises_the_rule_error(self, changes):
        rows = replaced(two_width_rows(), 46, **changes)
        want = rule_error(rows[46])
        with pytest.raises(type(want), match=re.escape(str(want))):
            Plan.from_subtasks(rows)

    def test_the_first_bad_row_reports_by_any_rule(self):
        # a non-unitary observable at id 10 comes before a width fault at id 30
        rows = replaced(replaced(two_width_rows(), 10, observable=np.diag([1.0, 0.5])),
                        30, right_circuit=Circuit(2, ()))
        with pytest.raises(NonUnitaryObservable):
            Plan.from_subtasks(rows)


@pytest.mark.parametrize("bad", [0.7, 1.0, True, "1"])
def test_plan_indices_are_six_integers_per_row_not_coerced(bad):
    c = Circuit(1, (Gate("H", (0,)),))
    fields = dict(circuits=(c,), observables=(PauliString(1, "Z"),), labels=("0",), ids=(0, 1),
                  left=(0, 0), right=(0, 0), observable=(0, 0), label=(0, 0),
                  coefficient=(1.0, 1.0))
    good = Plan(indices=((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)), **fields)
    assert good.indices.tolist() == [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]
    for indices in (((0, 0, 0, 0, 0, 0), (bad, 0, 0, 0, 0, 1)),
                    np.array([[0, 0, 0, 0, 0, 0], [bad, 0, 0, 0, 0, 1]], dtype=object)):
        with pytest.raises(ShapeMismatch, match="^plan indices must be six integers per row$"):
            Plan(indices=indices, **fields)
    with pytest.raises(ShapeMismatch, match="six integers"):
        Plan(indices=((0,) * 6, (0,) * 5), **fields)


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
                one_row_table(ev.id, left, right, PauliString(2, ev.setting), "00",
                              (ev.readout,)),
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
            task = one_row_table(ev.id, left, right, PauliString(2, ev.setting), "00",
                                 (ev.readout,))
            want = np.array(_readout_pairs(reference, _PartStates()))
            got = np.array(_readout_pairs(task, _PartStates()))
            assert np.max(np.abs(got - want)) <= 1e-12, ev

    def test_assemble_grams_missing_value(self):
        templates, evaluations = ghz_overlap_plan()
        with pytest.raises(IncompleteTables):
            assemble_grams(evaluations, {0: 1.0})

    @pytest.mark.parametrize("shots", [None, 100])
    def test_reconstruction_keeps_the_bits_of_the_loop_that_built_each_pauli_per_term(
            self, shots):
        from tlpq.cli import run_ghz_pipeline
        from tlpq.linalg import kron
        from tlpq.ghz import _SIGNS
        from tlpq.planner import PAULI_2Q_LABELS
        from tlpq.circuit import pauli_matrix

        def reference(gram_a, gram_b):  # the sum as written before the 16 were built once
            def contract(ga, gb):
                return complex(np.einsum("jk,ab,aj,bk->", _SIGNS, _SIGNS, ga, gb))

            norm = contract(gram_a["II"], gram_b["II"])
            rho = np.zeros((16, 16), dtype=complex)
            for pa in PAULI_2Q_LABELS:
                for pb in PAULI_2Q_LABELS:
                    expec = contract(gram_a[pa], gram_b[pb]) / norm
                    rho += expec * kron(pauli_matrix(pa), pauli_matrix(pb))
            rho /= 16.0
            return (rho + rho.conj().T) / 2.0

        _, evaluations = ghz_overlap_plan()
        values = run_ghz_pipeline(ClusterConfig(shots=shots, seed=3))["values"]
        grams = assemble_grams(evaluations, values)
        got = reconstruct_density_matrix(*grams, check_physical=False)
        assert got.tobytes() == reference(*grams).tobytes()

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

        def density_value(circuit, pauli):
            task = TaskSpec(id=0, kind="density", circuit=circuit, readouts=(f"e:{pauli}",))
            return execute_tasks([task], ClusterConfig())[0].value[0]

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
