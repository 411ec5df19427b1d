"""One cold pipeline run: import tlpq, run one workload's pipeline once, report.

Reads a JSON job on stdin ({"workload", "seed", "trace", "workers", "input"})
and prints one JSON line: the import time, the pipeline time, the result the
benchmark checks and, when traced, the per-layer totals. An exception inside
the pipeline is reported as {"ok": false}; failing to import tlpq is not an
operation and exits non-zero.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import peak


def nonherm_local(tlpq, job: dict) -> dict:
    from tlpq import cli

    inp = job["input"]
    observable_r, rows = cli.run_nonherm_rows(
        tlpq.runtime.ClusterConfig(mode="local", nodes=1, seed=job["seed"]),
        eps=inp["eps"],
        c=inp["c"],
        dt=inp["dt"],
        t_values=tuple(inp["T"]),
    )
    return {
        "R": [[[float(x.real), float(x.imag)] for x in row] for row in observable_r],
        "rows": rows,
    }


def _circuit_and_cut(tlpq, inp: dict):
    circuit = tlpq.circuit.Circuit(
        inp["n"],
        tuple(tlpq.circuit.Gate(kind, qubits, params=params) for kind, qubits, params in inp["gates"]),
    )
    cut = tlpq.partition.balanced_bisection(tlpq.partition.build_graph(circuit))
    return circuit, cut


def overlap_route(tlpq, inp: dict, cluster) -> dict:
    """The paper's TLP route: cut, expand the crossing gates, enumerate overlap
    subtasks, run, reduce."""
    circuit, cut = _circuit_and_cut(tlpq, inp)
    decomposition = tlpq.factorize.expand_layered(circuit, cut)
    unitary = tlpq.planner.FactorizedUnitary.from_layered(decomposition)
    channel = tlpq.planner.ChannelLCU(branches=(((1.0 + 0j,), (unitary,)),))
    parts = decomposition.part_qubits
    values = []
    for letters in inp["observables"]:
        observables = tuple(
            tlpq.circuit.PauliString(len(part), "".join(letters[q] for q in part)) for part in parts
        )
        plan = tlpq.planner.enumerate_subtasks(
            channel, tuple("0" * len(part) for part in parts), observables
        )
        value = tlpq.runtime.aggregate(plan, tlpq.runtime.run_plan(plan, cluster))
        values.append([value.real, value.imag])
    return {"values": values, "subtasks": len(plan), "part_widths": [len(p) for p in parts]}


def cut_route(tlpq, inp: dict, cluster) -> dict:
    """Wire-cut baseline: each crossing CZ becomes one of its 10 local-map pairs.

    Every part circuit runs as a density task reading the per-part Pauli
    expectations, recombined with the quasi-probability coefficients.
    """
    circuit, cut = _circuit_and_cut(tlpq, inp)
    parts = cut.parts()
    local = {q: (a, parts[a].index(q)) for a in (0, 1) for q in parts[a]}
    crossing = {gi: t for t, gi in enumerate(cut.crossing_gate_indices)}
    decomposition = tlpq.factorize.cz_cutting_decomposition()
    readouts = tuple(
        tuple("e:" + "".join(letters[q] for q in part) for letters in inp["observables"])
        for part in parts
    )
    Gate = tlpq.circuit.Gate
    tasks, coefficients = [], []
    for combo in itertools.product(range(decomposition.n_terms), repeat=len(crossing)):
        coefficient = 1.0
        gates = ([], [])
        for gi, gate in enumerate(circuit.gates):
            if gi in crossing:
                weight, (ops_first, ops_second) = decomposition.terms[combo[crossing[gi]]]
                coefficient *= weight
                for q, (kraus,) in zip(gate.qubits, (ops_first, ops_second)):
                    part, index = local[q]
                    gates[part].append(Gate("RAW", (index,), raw=kraus))
            else:
                part = local[gate.qubits[0]][0]
                mapped = tuple(local[q][1] for q in gate.qubits)
                gates[part].append(Gate(gate.kind, mapped, params=gate.params))
        coefficients.append(coefficient)
        for part in (0, 1):
            tasks.append(
                tlpq.runtime.TaskSpec(
                    id=len(tasks),
                    kind="density",
                    circuit=tlpq.circuit.Circuit(len(parts[part]), tuple(gates[part])),
                    readouts=readouts[part],
                )
            )
    results = tlpq.runtime.execute_tasks(tasks, cluster)
    by_id = {r.task_id: r.value for r in results}
    values = []
    for o in range(len(inp["observables"])):
        total = 0.0
        for term, coefficient in enumerate(coefficients):
            total += coefficient * by_id[2 * term][o] * by_id[2 * term + 1][o]
        values.append([total, 0.0])
    return {"values": values, "tasks": len(tasks), "part_widths": [len(p) for p in parts]}


def wide_net(tlpq, job: dict) -> dict:
    """Both routes on the two workers, each on its own circuit."""
    cluster = tlpq.runtime.ClusterConfig(
        mode="network", nodes=tuple(job["workers"]), seed=job["seed"]
    )
    return {
        "overlap": overlap_route(tlpq, job["input"]["overlap"], cluster),
        "cut": cut_route(tlpq, job["input"]["cut"], cluster),
    }


PIPELINES = {
    "nonherm-local": nonherm_local,
    "wide-net": wide_net,
}


def main() -> int:
    job = json.loads(sys.stdin.read())
    pipeline = PIPELINES[job["workload"]]
    start = time.perf_counter()
    import tlpq

    if pipeline is nonherm_local:
        import tlpq.cli  # noqa: F401  (the CLI's own import cost)
    import_s = time.perf_counter() - start
    totals = None
    if job["trace"]:
        import tracing

        totals = tracing.install_controller()
    report: dict = {"import_s": import_s}
    start = time.perf_counter()
    try:
        report["result"] = pipeline(tlpq, job)
        report["ok"] = True
    except Exception as exc:  # one failed operation; the benchmark counts it
        report["ok"] = False
        report["error"] = f"{type(exc).__name__}: {exc}"
    report["run_s"] = time.perf_counter() - start
    if totals is not None:
        report["layers"] = dict(totals.values)
    report["peak_rss_mb"] = peak.peak_rss_mb()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
