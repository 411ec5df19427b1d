"""The drivers of the command-line pipelines, importable without the command line.

``run_ghz_pipeline``, ``run_ghz_cut_pipeline``, ``run_nonherm_rows``,
``run_imagtime_rows`` and ``plan_report`` compute what the ``tlpq``
subcommands write; the click layer (options, config files, writers, exit
codes) lives in ``commands``. This module does not import click, so a
process that only runs a driver never loads it. ``tlpq.cli.main``, the
console script's entry point, resolves to ``commands.main`` on first use.
"""

from __future__ import annotations

import numpy as np

from .circuit import PAULI_1Q, Circuit, Gate, NotUnitary, PauliString
from .factorize import UnsupportedCrossingGate, expand_layered
from .lchs import (
    GeneratorSpec,
    build_quadrature,
    exact_ground,
    imaginary_time,
    lchs_forms,
    trotter_oracle,
    unitary_node,
)
from .linalg import pure_state_fidelity, vector_fidelity
from .partition import balanced_bisection, build_graph, global_min_cut
from .planner import (
    PAULI_2Q_LABELS,
    ChannelLCU,
    FactorizedUnitary,
    OverlapTable,
    enumerate_subtasks,
    scaling_counts,
)
from .runtime import ClusterConfig, TaskSpec, estimate_plans, execute_tasks

_DEFAULT_NONHERM_T = tuple(0.1 + j * 0.1 for j in range(10))
_DEFAULT_GAMMAS = tuple(0.2 * k for k in range(11))

# the label imagtime's outputs carry for vector_fidelity, a squared overlap
FIDELITY_CONVENTION = "overlap_squared"


# --- drivers (the click commands in ``commands`` are thin wrappers) -------------

def run_ghz_pipeline(cluster: ClusterConfig) -> dict:
    """Overlap-plan pipeline: 128 evaluations as four 32-row overlap tables, one
    per readout -> gram tables -> 16x16 state.

    Table r holds the evaluations with ids 4k + r, each row with its own id,
    so every evaluation keeps the shot stream (seed, id, 0) it has as a
    one-row task. The tables share the four template circuits."""
    from .ghz import assemble_grams, ghz_overlap_plan, ghz_state, reconstruct_density_matrix

    templates, plan = ghz_overlap_plan()
    circuits = templates[0] + templates[1]  # template t is circuits 2t (left) and 2t + 1
    observables = tuple(PauliString(2, setting) for setting in PAULI_2Q_LABELS)
    tables = []
    for readout in ("ax", "ay", "p0", "p1"):
        rows = [ev for ev in plan if ev.readout == readout]
        tables.append(OverlapTable(
            circuits=circuits, observables=observables, labels=("00",),
            ids=[ev.id for ev in rows], left=[2 * ev.template for ev in rows],
            right=[2 * ev.template + 1 for ev in rows],
            observable=[PAULI_2Q_LABELS.index(ev.setting) for ev in rows],
            label=[0] * len(rows), readouts=(readout,)))
    results = execute_tasks(tables, cluster)
    values = dict(sorted((r.task_id, r.value[0]) for table in results for r in table))
    gram_a, gram_b = assemble_grams(plan, values)
    exact = cluster.shots is None
    rho = reconstruct_density_matrix(gram_a, gram_b, check_physical=exact)
    fidelity = pure_state_fidelity(rho, ghz_state(4), clip=not exact)
    return {
        "rho": rho,
        "fidelity": fidelity,
        "evaluations": len(plan),
        "values": values,
    }


def run_ghz_cut_pipeline(cluster: ClusterConfig) -> dict:
    """Wire-cut baseline: 10 subcircuit pairs x 16 settings on the density path."""
    from .ghz import ghz_cutting_plan, ghz_state

    subcircuits, settings, combiner = ghz_cutting_plan()
    tasks = []
    for st in settings:
        circ_a, circ_b = subcircuits[st.term]
        tasks.append(
            TaskSpec(id=2 * st.id, kind="density", circuit=circ_a,
                     readouts=(f"e:{st.pauli}",))
        )
        tasks.append(
            TaskSpec(id=2 * st.id + 1, kind="density", circuit=circ_b,
                     readouts=(f"e:{st.pauli}",))
        )
    results = execute_tasks(tasks, cluster)
    by_id = {r.task_id: r.value[0] for r in results}
    pairs = [(by_id[2 * st.id], by_id[2 * st.id + 1]) for st in settings]
    rho, raw_trace = combiner(pairs)
    fidelity = pure_state_fidelity(rho, ghz_state(4), clip=cluster.shots is not None)
    return {
        "rho": rho,
        "fidelity": fidelity,
        "subcircuits": len(subcircuits),
        "settings": len(settings),
        "tasks": len(tasks),
        "raw_trace": raw_trace,
    }


def nonherm_generator() -> tuple[GeneratorSpec, np.ndarray]:
    """The driven-dissipative benchmark: H = sigma_x, L = I + sigma_z, u0 = |0>."""
    return (GeneratorSpec(H=PAULI_1Q["X"], L=np.eye(2) + PAULI_1Q["Z"]),
            np.array([1.0, 0.0], dtype=complex))


def random_hermitian_observable(seed: int) -> np.ndarray:
    """Seed-derived 2 x 2 Hermitian observable, written to output headers."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (g + g.conj().T) / 2.0


def _channel_from_unitaries(unitaries, coeffs) -> ChannelLCU:
    """One-branch ChannelLCU whose unitaries are the quadrature node evolutions."""
    fus = tuple(
        FactorizedUnitary.from_circuits((Circuit(1, (Gate("RAW", (0,), raw=u),)),))
        for u in unitaries
    )
    return ChannelLCU(branches=((tuple(complex(c) for c in coeffs), fus),))


def run_nonherm_rows(
    cluster: ClusterConfig,
    *,
    eps: float = 0.2,
    c: float = 0.5,
    dt: float = 0.01,
    t_values: tuple[float, ...] = _DEFAULT_NONHERM_T,
    emulate_float_truncation: bool = False,
    normalize: bool = True,
) -> tuple[np.ndarray, list[dict]]:
    """One row per T with sy/sz/R/sx columns for methods tlp, dense, oracle.

    The tlp column is the raw quadratic form <sum c_k U_k u0 | P | sum c_k' U_k' u0>
    per 1-qubit Pauli P, run as planner subtasks through the runtime: all
    T x 4 Pauli plans go to one estimate_plans call, and the 4 plans of one T
    share its node circuits, so they run as one stack and each node state is
    simulated once. Each T's node unitaries are one ``unitary_node`` stack
    (one ``np.linalg.eigh``), which the dense column reuses, forming its four
    observables and the identity form in one ``lchs_forms`` pass. The oracle
    column walks one ``trotter_oracle`` trajectory through every T.
    """
    g, u0 = nonherm_generator()
    observable_r = random_hermitian_observable(cluster.seed)
    beta = {p: float(np.trace(observable_r @ mat).real) / 2.0 for p, mat in PAULI_1Q.items()}
    schemes = [
        build_quadrature(eps, c, t, emulate_float_truncation=emulate_float_truncation)
        for t in t_values
    ]
    # the reference integrator checks dt against every T, before any task runs
    oracles = trotter_oracle(g, u0, t_values, dt)
    unitaries = [unitary_node(g, s.nodes, s.T) for s in schemes]
    plans = []
    for scheme, us in zip(schemes, unitaries):
        channel = _channel_from_unitaries(us, scheme.coeffs)
        plans += [
            enumerate_subtasks(channel, ("0",), (PauliString(1, letter),))
            for letter in PAULI_1Q
        ]
    values = estimate_plans(plans, cluster)
    letters = len(PAULI_1Q)
    forms_per_t = [
        {letter: float(v.real) for letter, v in zip(PAULI_1Q, values[k:k + letters])}
        for k in range(0, len(plans), letters)
    ]
    rows: list[dict] = []
    for t, scheme, us, forms, w in zip(t_values, schemes, unitaries, forms_per_t, oracles):
        norm_form = forms["I"]
        dense = lchs_forms(
            us @ u0, scheme.coeffs,
            (PAULI_1Q["X"], PAULI_1Q["Y"], PAULI_1Q["Z"], observable_r), normalize,
        )
        w_norm = float(np.vdot(w, w).real)
        row = {"T": t, "M": scheme.M, "terms": (scheme.M + 1) ** 2}
        for (name, letter), dense_value in zip(
            (("sx", "X"), ("sy", "Y"), ("sz", "Z")), dense
        ):
            raw = forms[letter]
            row[f"{name}_tlp"] = raw / norm_form if normalize else raw
            row[f"{name}_dense"] = dense_value
            row[f"{name}_oracle"] = float(np.vdot(w, PAULI_1Q[letter] @ w).real) / w_norm
        raw_r = sum(beta[p] * forms[p] for p in PAULI_1Q)
        row["R_tlp"] = raw_r / norm_form if normalize else raw_r
        row["R_dense"] = dense[3]
        row["R_oracle"] = float(np.vdot(w, observable_r @ w).real) / w_norm
        rows.append(row)
    return observable_r, rows


def run_imagtime_rows(
    *,
    eps: float = 0.3,
    c: float = 1.0,
    big_t: float = 0.5,
    dt: float = 0.01,
    gammas: tuple[float, ...] = _DEFAULT_GAMMAS,
    normalize: bool = True,
) -> list[dict]:
    """One row per gamma: LCHS expectations, exact ground energy, fidelity, baselines.

    The sweep is dense in-process code that never reaches the task runtime.
    Each gamma's node states are built once and serve the state and all
    three expectations, and one ``trotter_oracle`` trajectory passes its
    three horizons (``big_t``, 0.5 and 1.5)."""
    sx, sz = PAULI_1Q["X"], PAULI_1Q["Z"]
    scheme = build_quadrature(eps, c, big_t)
    u0 = np.array([1.0, 0.0], dtype=complex)
    rows: list[dict] = []
    for gamma in gammas:
        h_gamma = 2.0 * np.eye(2, dtype=complex) + gamma * sx
        gen = GeneratorSpec(H=np.zeros((2, 2), dtype=complex), L=h_gamma)
        result = imaginary_time(h_gamma, big_t, scheme, u0=u0)
        reference, *baselines = trotter_oracle(gen, u0, (big_t, 0.5, 1.5), dt)
        h_lchs, sx_lchs, sz_lchs = lchs_forms(
            result.per_node_states, scheme.coeffs, (h_gamma, sx, sz), normalize
        )
        row = {
            "gamma": gamma,
            "M": scheme.M,
            "terms": (scheme.M + 1) ** 2,
            "H_lchs": h_lchs,
            "sx_lchs": sx_lchs,
            "sz_lchs": sz_lchs,
            "E0_exact": exact_ground(h_gamma)[0],
            "fidelity": vector_fidelity(result.state, reference),
        }
        for label, w in zip(("H_trotter_T05", "H_trotter_T15"), baselines):
            row[label] = float(np.vdot(w, h_gamma @ w).real / np.vdot(w, w).real)
        rows.append(row)
    return rows


def plan_report(circ: Circuit) -> dict:
    """Partition summary plus subtask-count comparison for one circuit."""
    graph = build_graph(circ)
    min_cut = global_min_cut(graph)
    bisection = balanced_bisection(graph)

    def cut_payload(cut) -> dict:
        p0, p1 = cut.parts()
        return {
            "part0": list(p0),
            "part1": list(p1),
            "weight": cut.weight,
            "crossing_gates": list(cut.crossing_gate_indices),
        }

    term_count: int | None = None
    subtasks: int | None = None
    try:
        decomposition = expand_layered(circ, min_cut)
        term_count = decomposition.term_count
        subtasks = 2 * term_count**2
    except (UnsupportedCrossingGate, NotUnitary, ValueError):
        pass
    m_prime = min_cut.weight
    return {
        "n_qubits": circ.n_qubits,
        "edges": {f"{u}-{v}": w for (u, v), w in sorted(graph.edges.items())},
        "min_cut": cut_payload(min_cut),
        "bisection": cut_payload(bisection),
        "m_prime": m_prime,
        "term_count": term_count,
        "subtasks_per_observable": subtasks,
        "comparison": {"m": m_prime, **scaling_counts(m_prime)},
    }


def __getattr__(name: str):
    # PEP 562: the click group loads with the first use of ``main``
    if name == "main":
        from .commands import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    import sys

    # ``commands`` imports the pipeline functions from ``tlpq.cli``: under
    # ``python -m`` this module is that one, so it is not run a second time
    sys.modules.setdefault("tlpq.cli", sys.modules[__name__])
    from tlpq.commands import main

    main()
