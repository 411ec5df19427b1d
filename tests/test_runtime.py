"""Execution layer: sampling, the in-process backend, the TCP protocol, and
result aggregation.

Oracles here are dense linear algebra built inside the tests (kron products,
explicit density-matrix propagation) so the backend's tensor-contraction path
is checked against an independent computation.
"""

import dataclasses
import json
import re
import select
import socket
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (PAULI, kron_all, one_row_table, pauli_label_matrix, haar_unitary,
                      record_steps)

import tlpq
from tlpq import (
    Circuit,
    ClusterConfig,
    FactorizedUnitary,
    Gate,
    PauliString,
    Subtask,
    TaskSpec,
    aggregate,
    build_estimator_circuit,
    circuit_to_json,
    enumerate_subtasks,
    execute_tasks,
    run_plan,
    sample_shots,
    simulate,
)
from tlpq.circuit import basis_state
from tlpq.planner import (
    PAULI_2Q_LABELS as PAULI_2Q,
    ChannelLCU,
    NonUnitaryObservable,
    OverlapTable,
    Plan,
    ShapeMismatch,
)
from tlpq.runtime import (
    PROTOCOL_VERSION,
    CapabilityMismatch,
    ExactBackend,
    MissingResult,
    NodeFailure,
    TaskResult,
    WorkerServer,
    _density_tables,
    _PartStates,
    _readout_pair,
    _readout_pairs,
    _sampled_mean,
    estimate_plans,
    serve_worker,
)


# --- helpers --------------------------------------------------------------------


@contextmanager
def live_worker(max_qubits: int = 12, fail_after_tasks: int | None = None):
    """A WorkerServer on an ephemeral port, torn down afterwards."""
    server = WorkerServer(("127.0.0.1", 0), max_qubits=max_qubits,
                          fail_after_tasks=fail_after_tasks)
    # a short shutdown poll: serve_forever's default 0.5 s is paid on every teardown
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


@contextmanager
def raw_connection(address: str):
    """Line-oriented JSON client speaking the wire protocol by hand."""
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=10)
    f = sock.makefile("rwb")

    def send(obj):
        f.write((json.dumps(obj) + "\n").encode())
        f.flush()

    def recv():
        line = f.readline()
        return None if not line else json.loads(line.decode())

    try:
        yield send, recv
    finally:
        sock.close()


@contextmanager
def counted_sends(monkeypatch):
    """(worker address, message type) of every message the controller sends."""
    import tlpq.runtime as runtime

    sent = []
    real_send = runtime._WorkerClient._send
    monkeypatch.setattr(runtime._WorkerClient, "_send",
                        lambda self, line: sent.append((self.address, json.loads(line)["type"]))
                        or real_send(self, line))
    yield sent


def batch_message(rows: list[dict], circuits: list, shots=None, seed: int = 0) -> dict:
    """A protocol-7 batch message by hand: the gates of ``circuits`` (Circuits
    or circuit JSON) go into one gate table in order, each circuit becomes
    {"n", "gates": [its positions in that table]}, and each row is one item
    that points into the circuits by position. An overlap row {"id", "kind",
    "left", "right", "obs", "input", "readout"} becomes a one-row overlap
    item, with its observable and input as the item's tables; any other row
    is an item as it is."""
    objs = [c if isinstance(c, dict) else circuit_to_json(c) for c in circuits]
    table, wire = [], []
    for obj in objs:
        first = len(table)
        table.extend(obj["gates"])
        wire.append({"n": obj["n"], "gates": list(range(first, len(table)))})
    width = max((obj["n"] for obj in objs if type(obj["n"]) is int), default=1)
    items = [{"kind": "overlap", "observables": [row["obs"]], "labels": [row["input"]],
              "readout": row["readout"], "ids": [row["id"]], "left": [row["left"]],
              "right": [row["right"]], "observable": [0], "label": [0]}
             if row["kind"] == "overlap" else row for row in rows]
    return {"type": "batch", "shots": shots, "seed": seed, "gates": {"n": width, "gates": table},
            "circuits": wire, "items": items}


def random_circuit(rng, n_qubits: int, n_gates: int = 4) -> Circuit:
    gates = []
    for _ in range(n_gates):
        width = int(rng.integers(1, min(2, n_qubits) + 1))
        start = int(rng.integers(0, n_qubits - width + 1))
        qubits = tuple(range(start, start + width))
        gates.append(Gate("RAW", qubits, raw=haar_unitary(2**width, rng)))
    return Circuit(n_qubits, tuple(gates))


def dense_state(circ: Circuit) -> np.ndarray:
    """|0..0> pushed through the gate list with explicit kron lifts."""
    n = circ.n_qubits
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for g in circ.gates:
        psi = lift_gate(g, n) @ psi
    return psi


def lift_gate(g: Gate, n: int) -> np.ndarray:
    from tlpq.circuit import gate_matrix

    mat = gate_matrix(g)
    width = len(g.qubits)
    assert g.qubits == tuple(range(g.qubits[0], g.qubits[0] + width))
    before = g.qubits[0]
    after = n - before - width
    return kron_all([np.eye(2**before), mat, np.eye(2**after)])


def dense_density(circ: Circuit) -> np.ndarray:
    rho = np.zeros((2**circ.n_qubits,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    for g in circ.gates:
        full = lift_gate(g, circ.n_qubits)
        rho = full @ rho @ full.conj().T
    return rho


# --- sample_shots ---------------------------------------------------------------


def test_sample_shots_deterministic_per_rng_seed():
    p = [0.1, 0.2, 0.3, 0.4]
    a = sample_shots(p, 500, np.random.default_rng(7))
    b = sample_shots(p, 500, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_sample_shots_certain_outcome_is_exact():
    freq = sample_shots([1.0, 0.0], 37, np.random.default_rng(0))
    assert np.array_equal(freq, [1.0, 0.0])


def test_sample_shots_frequencies_sum_to_one():
    freq = sample_shots([0.25, 0.25, 0.5], 99, np.random.default_rng(3))
    assert freq.sum() == pytest.approx(1.0)
    assert np.all(freq >= 0)


def test_sample_shots_rejects_unnormalized():
    with pytest.raises(ValueError):
        sample_shots([0.5, 0.6], 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_shots([1.5, -0.5], 10, np.random.default_rng(0))


def test_sample_shots_rejects_zero_draws():
    with pytest.raises(ValueError):
        sample_shots([1.0], 0, np.random.default_rng(0))


def test_sample_shots_draws_from_the_law_numpy_clips_and_renormalizes():
    class Recorder:  # an rng that keeps the law it is asked to draw from
        def multinomial(self, n, pvals):
            self.pvals = [float(x) for x in pvals]
            return np.zeros(len(pvals), dtype=np.int64)

    laws = np.random.default_rng(17)
    for k in range(2000):
        w = 1.0 if k % 3 == 0 else float(laws.uniform(0.0, 1.0))
        m = float(laws.uniform(-w, w)) if k % 5 else w
        probs = [(w - m) / 2.0, 1.0 - w, (w + m) / 2.0]
        if k % 7 == 0:
            probs[0] -= 1e-12  # a rounding residue below 0, clipped away
        p = np.clip(np.asarray(probs, dtype=float), 0.0, None)
        want = (p / float(np.sum(p))).tolist()
        rng = Recorder()
        sample_shots(probs, 10, rng)
        assert rng.pvals == want
        if k < 200:
            shots = (1, 2, 100, 10_000)[k % 4]
            draws = np.random.default_rng(k).multinomial(shots, want) / float(shots)
            assert np.array_equal(sample_shots(probs, shots, np.random.default_rng(k)), draws)


def test_sample_shots_error_shrinks_with_more_draws():
    p = np.array([0.5, 0.5])
    errs = {}
    for n in (100, 10_000):
        devs = [
            abs(sample_shots(p, n, np.random.default_rng((n, k)))[0] - 0.5)
            for k in range(30)
        ]
        errs[n] = float(np.mean(devs))
    # expected scaling is 1/sqrt(n): a factor-100 increase should cut the
    # mean deviation by ~10; demand at least 3 to keep the test stable
    assert errs[10_000] < errs[100] / 3


# --- ExactBackend readouts vs dense oracles --------------------------------------


def test_backend_ancilla_readouts_match_dense(rng):
    for trial in range(20):
        circ = random_circuit(rng, 3)
        task = TaskSpec(id=trial, kind="estimator", circuit=circ,
                        readouts=("ax", "ay"))
        (ax, ay), shots_used = ExactBackend().run_task(task, None, 0)
        psi = dense_state(circ)
        x0 = kron_all([PAULI["X"], np.eye(4)])
        y0 = kron_all([PAULI["Y"], np.eye(4)])
        assert ax == pytest.approx(np.real(psi.conj() @ x0 @ psi), abs=1e-12)
        assert ay == pytest.approx(np.real(psi.conj() @ y0 @ psi), abs=1e-12)
        assert shots_used == 0


def test_backend_projector_readouts_match_dense(rng):
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    proj1 = np.diag([0.0, 1.0]).astype(complex)
    for trial in range(10):
        circ = random_circuit(rng, 3)
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(2))
        task = TaskSpec(id=trial, kind="estimator", circuit=circ,
                        readouts=(f"p0:{letters}", f"p1:{letters}"))
        (v0, v1), _ = ExactBackend().run_task(task, None, 0)
        psi = dense_state(circ)
        rest = pauli_label_matrix(letters)
        w0 = np.real(psi.conj() @ kron_all([proj0, rest]) @ psi)
        w1 = np.real(psi.conj() @ kron_all([proj1, rest]) @ psi)
        assert v0 == pytest.approx(w0, abs=1e-12)
        assert v1 == pytest.approx(w1, abs=1e-12)


def test_backend_density_pauli_readout_matches_trace(rng):
    for trial in range(10):
        circ = random_circuit(rng, 2)
        # make one gate non-unitary so the density path is genuinely exercised
        squash = np.array([[1.0, 0.2], [0.0, 0.5]], dtype=complex)
        circ = Circuit(2, circ.gates + (Gate("RAW", (0,), raw=squash),))
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(2))
        task = TaskSpec(id=trial, kind="density", circuit=circ,
                        readouts=(f"e:{letters}",))
        ((val,),) = (r.value for r in execute_tasks([task], ClusterConfig()))
        rho = dense_density(circ)
        expected = np.real(np.trace(rho @ pauli_label_matrix(letters)))
        assert val == pytest.approx(expected, abs=1e-12)


def contraction(dim: int, rng, scale: float = 0.9) -> np.ndarray:
    """A random non-unitary matrix with spectral norm `scale` (< 1)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * g / np.linalg.norm(g, 2)


def random_map_circuit(rng, n_qubits: int) -> Circuit:
    """Random unitaries with a non-unitary 1-qubit and 2-qubit map among them."""
    gates = list(random_circuit(rng, n_qubits, n_gates=3 * n_qubits).gates)
    q1 = int(rng.integers(0, n_qubits))
    q2 = int(rng.integers(0, n_qubits - 1))
    gates.insert(n_qubits, Gate("RAW", (q1,), raw=contraction(2, rng)))
    gates.append(Gate("RAW", (q2, q2 + 1), raw=contraction(4, rng)))
    return Circuit(n_qubits, tuple(gates))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_backend_density_readouts_match_dense_propagation(rng, n):
    for trial in range(3):
        circ = random_map_circuit(rng, n)
        rho = dense_density(circ)
        assert np.real(np.trace(rho)) < 0.99  # the maps really lose weight
        letters = ["".join(rng.choice(list("IXYZ")) for _ in range(n)) for _ in range(3)]
        letters.insert(1, "I" * n)
        expected = [np.trace(rho @ pauli_label_matrix(p)) for p in letters]
        task = TaskSpec(id=trial, kind="density", circuit=circ,
                        readouts=tuple(f"e:{p}" for p in letters))
        (result,) = execute_tasks([task], ClusterConfig())
        assert result.shots_used == 0
        for got, want in zip(result.value, expected):
            assert got == pytest.approx(float(np.real(want)), abs=1e-12)


def test_backend_sampled_density_with_lost_weight_converges(rng):
    circ = random_map_circuit(rng, 6)
    rho = dense_density(circ)
    assert np.real(np.trace(rho)) < 0.99
    readouts = ("e:IIIIII", "e:ZZIXIY")  # the kept weight Tr(rho), and a Pauli expectation
    exact_e = float(np.real(np.trace(rho)))
    exact_p = float(np.real(np.trace(rho @ pauli_label_matrix("ZZIXIY"))))
    errs = {}
    for n in (100, 10_000):
        tasks = [TaskSpec(id=k, kind="density", circuit=circ, readouts=readouts)
                 for k in range(20)]
        draws = np.array([r.value for r in execute_tasks(tasks, ClusterConfig(shots=n, seed=n))])
        errs[n] = float(np.mean(np.abs(draws - [exact_e, exact_p])))
        if n == 10_000:
            # each shot is worth -1, 0 or +1, so 20 x 10^4 shots pin the mean to ~0.002
            assert np.mean(draws[:, 0]) == pytest.approx(exact_e, abs=0.01)
            assert np.mean(draws[:, 1]) == pytest.approx(exact_p, abs=0.01)
    assert errs[10_000] < errs[100] / 3


# --- the readout law: a (w, m) pair per readout --------------------------------------


def law_of_pair(w: float, m: float) -> np.ndarray:
    """[P(-1), P(0), P(+1)] of the readout law of a (w, m) pair."""
    return np.array([(w - m) / 2, 1 - w, (w + m) / 2])


def dense_law(rho: np.ndarray, desc: str) -> np.ndarray:
    """[P(-1), P(0), P(+1)] of one readout descriptor, from projectors on rho.

    Outcome +/-1 is the kept subspace ``keep`` times the +/-1 eigenspace of
    ``op``; outcome 0 is everything else, including weight a map has lost.
    """
    n = int(np.log2(rho.shape[0]))
    if desc in ("ax", "ay"):
        keep = np.eye(2**n)
        op = kron_all([PAULI[desc[1].upper()], np.eye(2 ** (n - 1))])
    elif desc.startswith("e:"):
        keep = np.eye(2**n)
        op = pauli_label_matrix(desc[2:])
    else:
        proj = np.diag([1.0, 0.0] if desc.startswith("p0:") else [0.0, 1.0])
        keep = kron_all([proj, np.eye(2 ** (n - 1))])
        op = kron_all([proj, pauli_label_matrix(desc[3:])])

    def prob(projector):
        return float(np.real(np.trace(rho @ projector)))

    return np.array([prob((keep - op) / 2), 1 - prob(keep), prob((keep + op) / 2)])


def every_descriptor(rng, n: int) -> tuple[str, ...]:
    rest = "".join(rng.choice(list("IXYZ")) for _ in range(n - 1))
    full = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    return ("ax", "ay", f"p0:{rest}", f"p1:{rest}", f"e:{full}", f"e:{'I' * n}")


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_readout_law_matches_dense_probabilities_on_estimator_circuits(rng, w):
    for trial in range(5):
        circ = random_circuit(rng, w + 1, n_gates=3 * (w + 1))
        task = TaskSpec(id=trial, kind="estimator", circuit=circ,
                        readouts=every_descriptor(rng, w + 1))
        psi = dense_state(circ)
        rho = np.outer(psi, psi.conj())
        for desc, (wt, m) in zip(task.readouts, zip(*_readout_pairs(task, _PartStates()))):
            assert np.max(np.abs(law_of_pair(wt, m) - dense_law(rho, desc))) <= 1e-12, desc


@pytest.mark.parametrize("n", [2, 4, 6])
def test_readout_law_matches_dense_probabilities_on_density_circuits(rng, n):
    """A density task runs as a table of "e:<P>" readouts: on random
    non-unitary map circuits each readout's law is the dense one."""
    for trial in range(3):
        circuits = [random_map_circuit(rng, n) for _ in range(2)]
        readouts = tuple(f"e:{p}" for p in ["".join(rng.choice(list("IXYZ"), size=n))
                                            for _ in range(4)] + ["I" * n])
        (table,) = _density_tables([TaskSpec(id=2 * trial + k, kind="density", circuit=c,
                                             readouts=readouts) for k, c in enumerate(circuits)])
        ws, ms = _readout_pairs(table, _PartStates())
        for k, circ in enumerate(circuits):
            rho = dense_density(circ)
            assert np.real(np.trace(rho)) < 0.99  # the maps lose weight: P(0) > 0 everywhere
            for j, desc in enumerate(readouts):
                at = k * len(readouts) + j
                got = law_of_pair(ws[at], ms[at])
                assert np.max(np.abs(got - dense_law(rho, desc))) <= 1e-12, desc


def test_e_readouts_keep_the_bits_of_the_density_vector_readout(rng):
    """An "e:<P>" table readout has the bits of (|v|^2, Re <v|P|v>), one
    ``np.vdot`` each, on the unnormalized density vector v = A|0...0>."""
    for n in (2, 3, 5):
        readouts = tuple(f"e:{p}" for p in ("Z" * n, "".join(rng.choice(list("IXYZ"), size=n))))
        tasks = [TaskSpec(id=k, kind="density", circuit=random_map_circuit(rng, n),
                          readouts=readouts) for k in range(4)]
        (table,) = _density_tables(tasks)
        states = _PartStates()
        got = _readout_pairs(table, states)
        want = [_readout_pair(desc, states.state(t.circuit, "0" * n, unitary=False))
                for t in tasks for desc in readouts]
        assert np.array(want).T.tobytes() == got.tobytes()


def test_readout_law_of_overlap_tasks_matches_estimator_circuits(rng):
    for s in random_subtasks(rng, count_per_width=4):
        psi = dense_state(estimator_task(s, s.id).circuit)
        rho = np.outer(psi, psi.conj())
        readouts, descriptors = ("ax", "ay"), ("ax", "ay")
        if isinstance(s.observable, PauliString):  # the ancilla-branch projectors
            letters = s.observable.letters
            readouts += ("p0", "p1")
            descriptors += (f"p0:{letters}", f"p1:{letters}")
        task = one_row_table(s.id, s.left_circuit, s.right_circuit, s.observable,
                             s.input_label, readouts)
        for desc, (wt, m) in zip(descriptors, zip(*_readout_pairs(task, _PartStates()))):
            if desc in ("ax", "ay"):
                assert wt == 1.0
            assert np.max(np.abs(law_of_pair(wt, m) - dense_law(rho, desc))) <= 1e-12, desc


def test_readout_law_spends_no_draw_on_vanishing_lost_weight():
    for k, m in enumerate((-1.0, -0.3, 0.0, 0.55, 1.0)):
        for w in (1.0, 1.0 - 1e-13, 1.0 + 1e-13):
            two = sample_shots([(w - m) / 2, (w + m) / 2], 101, np.random.default_rng(k))
            got = _sampled_mean(w, m, 101, np.random.default_rng(k))
            assert got == two[1] - two[0]
    # a real loss is a third outcome worth 0: P(+1) = 1/4, P(0) = 3/4, mean 1/4
    got = _sampled_mean(0.25, 0.25, 10_000, np.random.default_rng(0))
    assert got == pytest.approx(0.25, abs=0.03)


def test_backend_shot_values_are_seed_deterministic():
    circ = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    task = TaskSpec(id=5, kind="estimator", circuit=circ, readouts=("ax", "ay"))
    backend = ExactBackend()
    first, used1 = backend.run_task(task, 200, seed=9)
    second, used2 = backend.run_task(task, 200, seed=9)
    assert first == second
    assert used1 == used2 == 400  # shots x number of readouts
    other, _ = backend.run_task(task, 200, seed=10)
    assert first != other


def test_backend_shot_estimates_converge(rng):
    circ = Circuit(1, (Gate("RY", (0,), params=(0.7,)),))
    task = TaskSpec(id=0, kind="estimator", circuit=circ, readouts=("ax",))
    psi = dense_state(circ)
    truth = float(np.real(psi.conj() @ PAULI["X"] @ psi))
    errs = {}
    for n in (100, 10_000):
        devs = []
        for k in range(20):
            t = TaskSpec(id=k, kind="estimator", circuit=circ, readouts=("ax",))
            (v,), _ = ExactBackend().run_task(t, n, seed=n)
            devs.append(abs(v - truth))
        errs[n] = float(np.mean(devs))
    assert errs[10_000] < errs[100] / 3


def test_backend_rejects_too_wide_circuit():
    circ = Circuit(4, (Gate("X", (0,)),))
    task = TaskSpec(id=0, kind="estimator", circuit=circ, readouts=("ax",))
    with pytest.raises(CapabilityMismatch):
        ExactBackend(max_qubits=3).run_task(task, None, 0)


def test_backend_rejects_unknown_kind():
    circ = Circuit(1, (Gate("X", (0,)),))
    task = TaskSpec(id=0, kind="mystery", circuit=circ, readouts=("ax",))
    with pytest.raises(ValueError):
        ExactBackend().run_task(task, None, 0)


def test_backend_rejects_bad_readout_descriptor():
    circ = Circuit(2, (Gate("X", (0,)),))
    for bad in ("p0:Q", "p0:XX", "e:X", "zz"):
        task = TaskSpec(id=0, kind="estimator", circuit=circ, readouts=(bad,))
        with pytest.raises(ValueError):
            ExactBackend().run_task(task, None, 0)


# --- ClusterConfig validation ------------------------------------------------------


def test_cluster_config_defaults():
    cfg = ClusterConfig()
    assert cfg.mode == "local" and cfg.nodes == 1 and cfg.shots is None
    assert cfg.retry_limit == 2


def test_cluster_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ClusterConfig(mode="cloud")
    with pytest.raises(ValueError):
        ClusterConfig(mode="local", nodes=0)
    with pytest.raises(ValueError):
        ClusterConfig(mode="local", nodes=("127.0.0.1:1",))
    with pytest.raises(ValueError):
        ClusterConfig(mode="network", nodes=3)
    with pytest.raises(ValueError):
        ClusterConfig(mode="network", nodes=("localhost",))  # no port
    for address in ("127.0.0.1:0", "127.0.0.1:65536", "127.0.0.1:x", ":80", "127.0.0.1:"):
        with pytest.raises(ValueError, match="port in 1..65535"):
            ClusterConfig(mode="network", nodes=("127.0.0.1:1", address))
    with pytest.raises(ValueError):
        ClusterConfig(shots=0)
    with pytest.raises(ValueError):
        ClusterConfig(retry_limit=0)


def test_cluster_config_normalizes_address_list():
    cfg = ClusterConfig(mode="network", nodes=["127.0.0.1:1", "127.0.0.1:2"])
    assert isinstance(cfg.nodes, tuple) and len(cfg.nodes) == 2


@pytest.mark.parametrize("changes", [
    {"retry_limit": 1.5}, {"retry_limit": True}, {"retry_limit": "3"}, {"retry_limit": 0},
    {"nodes": True}, {"nodes": 1.5}, {"nodes": "2"},
], ids=["retry-float", "retry-bool", "retry-str", "retry-0", "nodes-bool", "nodes-float",
        "nodes-str"])
def test_cluster_config_rejects_a_retry_limit_or_node_count_that_is_not_a_count(changes):
    with pytest.raises(ValueError, match="retry_limit must be an integer|node count"):
        ClusterConfig(**changes)


# --- execute_tasks: local scheduling ------------------------------------------------


def make_tasks(rng, count: int = 9) -> list[TaskSpec]:
    """Density tasks on two qubits, on unitary and on lossy circuits, under
    three readout tuples: a call runs them as three overlap tables whose rows
    interleave by id."""
    readouts = (("e:XZ", "e:ZI"), ("e:YY",), ("e:IZ", "e:XX", "e:ZY"))
    return [TaskSpec(id=i, kind="density", readouts=readouts[i % 3],
                     circuit=random_circuit(rng, 2) if i % 2 else random_map_circuit(rng, 2))
            for i in range(count)]


def test_execute_tasks_orders_results_and_assigns_round_robin(rng):
    tasks = make_tasks(rng)
    shuffled = list(tasks)
    rng.shuffle(shuffled)
    results = execute_tasks(shuffled, ClusterConfig(nodes=3))
    assert [r.task_id for r in results] == list(range(len(tasks)))
    assert [r.node_id for r in results] == [i % 3 for i in range(len(tasks))]


def test_execute_tasks_local_rejects_too_wide_plan():
    wide = TaskSpec(id=0, kind="estimator",
                    circuit=Circuit(13, ()), readouts=("ax",))
    with pytest.raises(CapabilityMismatch):
        execute_tasks([wide], ClusterConfig())


# --- mode invariance: local 1 node == local 16 nodes == 2 TCP workers ---------------


@pytest.mark.parametrize("shots", [None, 64])
def test_modes_agree_bit_for_bit(rng, shots):
    tasks = make_tasks(rng, count=8)
    base = execute_tasks(tasks, ClusterConfig(nodes=1, shots=shots, seed=4))
    wide = execute_tasks(tasks, ClusterConfig(nodes=16, shots=shots, seed=4))
    with live_worker() as addr_a, live_worker() as addr_b:
        net = execute_tasks(
            tasks,
            ClusterConfig(mode="network", nodes=(addr_a, addr_b),
                          shots=shots, seed=4),
        )
    for a, b, c in zip(base, wide, net):
        assert a.value == b.value == c.value  # exact equality, no tolerance
        assert a.shots_used == b.shots_used == c.shots_used


def test_network_failure_injection_retries_elsewhere(rng):
    tasks = make_tasks(rng, count=8)
    healthy = execute_tasks(tasks, ClusterConfig(nodes=1, seed=4))
    with live_worker(fail_after_tasks=3) as flaky, live_worker() as solid:
        survived = execute_tasks(
            tasks,
            ClusterConfig(mode="network", nodes=(flaky, solid),
                          seed=4, retry_limit=2),
        )
    assert [r.value for r in survived] == [r.value for r in healthy]


def test_all_nodes_dead_raises_node_failure(rng):
    tasks = make_tasks(rng, count=4)
    with live_worker(fail_after_tasks=0) as addr:
        with pytest.raises(NodeFailure):
            execute_tasks(
                tasks, ClusterConfig(mode="network", nodes=(addr,), seed=0)
            )


def test_network_capability_mismatch_propagates():
    wide = TaskSpec(id=0, kind="density",
                    circuit=Circuit(5, ()), readouts=("e:IIIII",))
    with live_worker(max_qubits=4) as addr:
        with pytest.raises(CapabilityMismatch):
            # too-wide tasks are refused outright, not retried as node failures
            execute_tasks([wide], ClusterConfig(mode="network", nodes=(addr,)))


# --- network dispatch: one batch per start node, all sent before any reply ------------


def closed_address() -> str:
    """A 127.0.0.1 address nothing listens on: connecting to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{sock.getsockname()[1]}"


def test_dispatch_sends_every_batch_before_reading_any_reply():
    b_has_batch = threading.Event()
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]
    addresses = [f"127.0.0.1:{s.getsockname()[1]}" for s in listeners]
    batches = {}

    def fake_worker(name, listener, before_reply):
        """Speaks the protocol by hand; each row's value is its own id."""
        listener.settimeout(10)
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as f:
            def send(obj):
                f.write((json.dumps(obj) + "\n").encode())
                f.flush()

            f.readline()  # the hello
            send({"type": "hello_ack", "proto": PROTOCOL_VERSION, "max_qubits": 12})
            batches[name] = batch = json.loads(f.readline())
            if not before_reply():
                send({"type": "error", "id": -1, "message": "worker B never got its batch"})
                return
            ids = [i for item in batch["items"] for i in item["ids"]]
            send({"type": "result", "values": [[float(i)] for i in ids],
                  "shots_used": [0] * len(ids)})

    # A withholds its reply until B holds its batch: dispatch that waited on A's
    # reply before sending B its batch would get A's error instead
    threads = [
        threading.Thread(target=fake_worker, daemon=True,
                         args=("a", listeners[0], lambda: b_has_batch.wait(timeout=2))),
        threading.Thread(target=fake_worker, daemon=True,
                         args=("b", listeners[1], lambda: b_has_batch.set() or True)),
    ]
    for t in threads:
        t.start()
    one = Circuit(1, (Gate("H", (0,)),))
    tasks = [TaskSpec(id=i, kind="density", circuit=one, readouts=("e:Z",)) for i in range(4)]
    try:
        results = execute_tasks(tasks, ClusterConfig(mode="network", nodes=tuple(addresses)))
    finally:
        for t in threads:
            t.join(timeout=5)
        for listener in listeners:
            listener.close()
    assert not any(t.is_alive() for t in threads)
    assert [r.value for r in results] == [(0.0,), (1.0,), (2.0,), (3.0,)]
    assert [r.node_id for r in results] == [addresses[i % 2] for i in range(4)]
    assert [[i for item in batches[k]["items"] for i in item["ids"]] for k in "ab"] == [
        [0, 2], [1, 3]]


def test_worker_parses_each_circuit_once_and_simulates_each_state_once(rng, monkeypatch):
    import tlpq.runtime as runtime

    left = random_circuit(rng, 2)
    rights = [random_circuit(rng, 2) for _ in range(3)]
    tasks = [
        one_row_table(i, left, rights[i % 3], PauliString(2, "XZ" if i < 3 else "ZY"), label,
                      ("ax", "ay") if i % 2 else ("p0", "ax", "p1"))
        for i, label in enumerate(["01"] * 5 + ["10"])
    ]
    local = execute_tasks(tasks, ClusterConfig(seed=2, shots=32))
    parsed = []
    real_parse = runtime.parse_circuit
    monkeypatch.setattr(runtime, "parse_circuit",
                        lambda obj, **kw: parsed.append(obj) or real_parse(obj, **kw))
    steps = record_steps(monkeypatch)
    with live_worker() as addr:  # one node: every row is in one batch
        net = execute_tasks(tasks, ClusterConfig(mode="network", nodes=(addr,), seed=2,
                                                 shots=32))
    assert net == [[TaskResult(r.task_id, r.value, r.shots_used, addr) for r in rows]
                   for rows in local]
    # one gate table: the 4 distinct gates of one left and three right circuits
    assert len(parsed) == 1 and len(parsed[0]["gates"]) == 4 * 4
    states = {(c, t.labels[0]) for t in tasks for c in t.circuits}
    # each state simulated once, no two share a gate: row 5 reads two circuits under label 10
    assert len(states) == 6 and sum(map(len, steps)) == 4 * len(states)
    # the worker pushes each item's new states as one stack: one gate call per depth and
    # qubit tuple among them
    seen, calls = set(), 0
    for t in tasks:
        new = {c for c in t.circuits if (c, t.labels[0]) not in seen}
        seen.update((c, t.labels[0]) for c in new)
        calls += sum(len({c.gates[d].qubits for c in new}) for d in range(4))
    assert len(steps) == calls < 4 * len(states)


def test_a_call_sends_one_batch_per_non_empty_start_node(rng, monkeypatch):
    tasks = make_tasks(rng, count=9)
    plans = [factorized_plan(rng) for _ in range(3)]
    with counted_sends(monkeypatch) as sent, live_worker() as a, live_worker() as b:
        for nodes, items, want in (
            ((a, b, a), tasks, 3),
            ((a, b), [t for t in tasks if t.id % 2 == 0], 1),  # node b has no rows
            ((a, b), plans, 2),  # the rows of all plans of a call share a batch
        ):
            sent.clear()
            execute_tasks(items, ClusterConfig(mode="network", nodes=nodes))
            batches = [address for address, kind in sent if kind == "batch"]
            assert len(batches) == want, nodes
            assert len(set(batches)) == len(set(nodes[:want]))


def test_dead_start_node_fails_a_batch_after_retry_limit_attempts(rng):
    tasks = [t for t in make_tasks(rng, count=8) if t.id % 2 == 0]  # all start on node 0
    dead = closed_address()
    with live_worker() as live:
        with pytest.raises(NodeFailure, match=r"after 1 attempt\(s\)"):
            execute_tasks(tasks, ClusterConfig(mode="network", nodes=(dead, live),
                                               retry_limit=1))
        moved = execute_tasks(tasks, ClusterConfig(mode="network", nodes=(dead, live),
                                                   retry_limit=2))
    assert [r.node_id for r in moved] == [live] * len(tasks)
    assert [r.value for r in moved] == [r.value for r in execute_tasks(tasks, ClusterConfig())]


_SQUASH = Circuit(1, (Gate("RAW", (0,), raw=np.diag([1.0, 0.5])),))


def test_worker_error_reply_names_the_row(rng):
    good = one_row_table(2, random_circuit(rng, 1), random_circuit(rng, 1), PauliString(1, "Z"),
                         "0")
    bad = one_row_table(5, _SQUASH, _SQUASH, PauliString(1, "Z"), "0")  # the worker refuses it
    with live_worker() as addr:
        with pytest.raises(RuntimeError, match="task 5: RAW gate on \\(0,\\) is not unitary"):
            execute_tasks([good, bad], ClusterConfig(mode="network", nodes=(addr,)))


def test_a_network_call_that_holds_an_estimator_task_raises_before_any_batch(rng, monkeypatch):
    estimator = TaskSpec(id=5, kind="estimator", circuit=random_circuit(rng, 2),
                         readouts=("ax",))
    with counted_sends(monkeypatch) as sent, live_worker() as addr:
        with pytest.raises(CapabilityMismatch, match="task 5: estimator tasks run in process"):
            execute_tasks(make_tasks(rng, count=4) + [estimator],
                          ClusterConfig(mode="network", nodes=(addr,)))
        assert sent == []  # not even a hello
    local = execute_tasks(make_tasks(rng, count=4) + [estimator], ClusterConfig())
    assert [r.task_id for r in local] == [0, 1, 2, 3, 5]


@pytest.mark.parametrize("readouts", [("e:ZZ",), ("e:XI",)])
@pytest.mark.parametrize("mode", ["local", "network"])
def test_a_call_whose_tasks_repeat_an_id_is_refused_before_anything_runs(
        rng, monkeypatch, mode, readouts):
    # the repeated task shares its readouts with the first (one table) or not (two)
    tasks = [TaskSpec(id=i, kind="density", circuit=random_circuit(rng, 2), readouts=("e:ZZ",))
             for i in (0, 3, 1)]
    tasks.append(TaskSpec(id=3, kind="density", circuit=random_circuit(rng, 2),
                          readouts=readouts))
    ran = []
    monkeypatch.setattr(ExactBackend, "run_rows", lambda self, *a: ran.append(a))
    with counted_sends(monkeypatch) as sent, live_worker() as addr:
        cfg = ClusterConfig() if mode == "local" else ClusterConfig(mode="network", nodes=(addr,))
        with pytest.raises(ValueError, match=r"^task id 3 is repeated: the tasks of a call "
                                             r"need distinct ids$"):
            execute_tasks(tasks, cfg)
        assert sent == [] and ran == []  # not even a hello


def test_the_tlp_route_runs_end_to_end_locally_and_on_two_workers(rng):
    """The paper's route on 8 qubits: bisect, expand the two crossing CZs and
    the crossing CNOT, enumerate the subtasks, run them, reduce."""
    from tlpq.circuit import _apply_observable
    from tlpq.factorize import expand_layered
    from tlpq.partition import balanced_bisection, build_graph

    gates = [Gate("RY", (q,), params=(float(rng.uniform(0, 2 * np.pi)),)) for q in range(8)]
    for part in ((0, 1, 2, 3), (4, 5, 6, 7)):  # in-part chains, two CZs per pair
        gates += [Gate("CZ", pair) for pair in zip(part, part[1:]) for _ in range(2)]
    gates += [Gate("CZ", (1, 5)), Gate("RX", (2,), params=(0.7,)), Gate("CNOT", (6, 3)),
              Gate("RZ", (6,), params=(-0.4,)), Gate("CZ", (0, 7))]
    gates += [Gate("RY", (q,), params=(float(rng.uniform(0, 2 * np.pi)),)) for q in range(8)]
    circuit = Circuit(8, tuple(gates))
    cut = balanced_bisection(build_graph(circuit))
    decomposition = expand_layered(circuit, cut)
    assert decomposition.part_qubits == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert [circuit.gates[gi].kind for gi in decomposition.cut_gate_indices] == ["CZ", "CNOT", "CZ"]
    assert decomposition.term_count == 8
    unitary = FactorizedUnitary.from_layered(decomposition)
    channel = ChannelLCU(branches=(((1.0 + 0j,), (unitary,)),))
    psi = simulate(circuit, basis_state(8))

    def expectation(letters: str) -> complex:
        return np.vdot(psi, _apply_observable(PauliString(8, letters), psi))

    # the two observables of one Pauli per part with the largest |value|
    singles = ["".join(p if q == at else "I" for q in range(8))
               for at in range(8) for p in "XYZ"]
    pairs = [a[:4] + b[4:] for a in singles[:12] for b in singles[12:]]
    chosen = sorted(pairs, key=lambda letters: -abs(expectation(letters)))[:2]
    assert min(abs(expectation(letters)) for letters in chosen) > 0.1
    with live_worker() as a, live_worker() as b:
        network = ClusterConfig(mode="network", nodes=(a, b))
        for letters in chosen:
            observables = tuple(PauliString(4, "".join(letters[q] for q in part))
                                for part in decomposition.part_qubits)
            plan = enumerate_subtasks(channel, ("0000", "0000"), observables)
            assert len(plan) == 2 * 8**2
            local, remote = (run_plan(plan, cfg) for cfg in (ClusterConfig(), network))
            assert [r.value for r in remote] == [r.value for r in local]
            assert {r.node_id for r in remote} == {a, b}
            value = aggregate(plan, local)
            assert aggregate(plan, remote) == value
            assert abs(value - expectation(letters)) < 1e-10


# --- worker sessions: one handshake per worker per ClusterConfig ---------------------


def kept_sockets(cfg: ClusterConfig) -> list[socket.socket]:
    """The connections ``cfg`` keeps between calls."""
    import tlpq.runtime as runtime

    return [c.sock for c in runtime._KEPT.get(id(cfg), {}).values()]


def test_calls_on_one_config_handshake_each_worker_once(rng, monkeypatch):
    tasks = make_tasks(rng, count=8)
    plan = factorized_plan(rng)
    local_tasks = execute_tasks(tasks, ClusterConfig(seed=3))
    local_plan = run_plan(plan, ClusterConfig(seed=3))
    with counted_sends(monkeypatch) as sent, live_worker() as a, live_worker() as b:
        cfg = ClusterConfig(mode="network", nodes=(a, b), seed=3)
        first = execute_tasks(tasks, cfg)
        second = run_plan(plan, cfg)
        # the first call greets both workers before it sends either batch
        assert sent == [(a, "hello"), (b, "hello"), (a, "batch"), (b, "batch"),
                        (a, "batch"), (b, "batch")]
        assert len(kept_sockets(cfg)) == 2
        # an equal config is another object: it shares no connection
        sent.clear()
        other = execute_tasks(tasks, ClusterConfig(mode="network", nodes=(a, b), seed=3))
        assert sorted(kind for _, kind in sent) == ["batch", "batch", "hello", "hello"]
    assert [r.value for r in first] == [r.value for r in other] == [r.value for r in local_tasks]
    assert [r.value for r in second] == [r.value for r in local_plan]
    assert [r.node_id for r in first] == [(a, b)[r.task_id % 2] for r in first]
    assert [r.node_id for r in second] == [(a, b)[r.task_id % 2] for r in second]
    assert vars(cfg) == vars(ClusterConfig(mode="network", nodes=(a, b), seed=3))


def _greeting_worker(listener, greeted: threading.Event, other: threading.Event):
    """Acks a hello only once ``other`` is set (another worker read its hello),
    and hangs up after 2 s without one; then answers one batch, each row's
    value its own id."""
    listener.settimeout(10)
    conn, _ = listener.accept()
    with conn, conn.makefile("rwb") as f:
        f.readline()  # the hello
        greeted.set()
        if not other.wait(timeout=2):
            return
        f.write((json.dumps({"type": "hello_ack", "proto": PROTOCOL_VERSION,
                             "max_qubits": 12}) + "\n").encode())
        f.flush()
        ids = [i for item in json.loads(f.readline())["items"] for i in item["ids"]]
        f.write((json.dumps({"type": "result", "values": [[float(i)] for i in ids],
                             "shots_used": [0] * len(ids)}) + "\n").encode())
        f.flush()


def test_handshakes_overlap():
    """Each worker acks its hello only after the other has read its own: a
    controller that waited for one ack before greeting the next worker gets
    a hang-up instead."""
    listeners = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]
    addresses = tuple(f"127.0.0.1:{s.getsockname()[1]}" for s in listeners)
    greeted = [threading.Event(), threading.Event()]
    threads = [threading.Thread(target=_greeting_worker, daemon=True,
                                args=(listeners[k], greeted[k], greeted[1 - k]))
               for k in range(2)]
    for t in threads:
        t.start()
    one = Circuit(1, (Gate("H", (0,)),))
    tasks = [TaskSpec(id=i, kind="density", circuit=one, readouts=("e:Z",)) for i in range(2)]
    try:
        results = execute_tasks(tasks, ClusterConfig(mode="network", nodes=addresses,
                                                     retry_limit=1))
    finally:
        for t in threads:
            t.join(timeout=5)
        for listener in listeners:
            listener.close()
    assert not any(t.is_alive() for t in threads)
    assert [(r.value, r.node_id) for r in results] == [((0.0,), addresses[0]),
                                                       ((1.0,), addresses[1])]


def test_a_connection_the_worker_closed_is_replaced_without_an_attempt(rng):
    """A worker that serves each connection once: the second call finds its
    kept connection closed and handshakes afresh, within retry_limit=1."""
    listener = socket.create_server(("127.0.0.1", 0))
    address = f"127.0.0.1:{listener.getsockname()[1]}"
    closed = threading.Event()
    task = one_row_table(0, random_circuit(rng, 1), random_circuit(rng, 1), PauliString(1, "Z"),
                         "0")
    ((local,),) = execute_tasks([task], ClusterConfig())
    reply = json.dumps({"type": "result", "values": [list(local.value)], "shots_used": [0]})

    def fake_worker():
        for _ in range(2):
            _fake_worker(listener, _hello_ack({}), reply.encode())
            closed.set()

    thread = threading.Thread(target=fake_worker, daemon=True)
    thread.start()
    cfg = ClusterConfig(mode="network", nodes=(address,), retry_limit=1)
    try:
        first = execute_tasks([task], cfg)
        assert closed.wait(timeout=5)
        (kept,) = kept_sockets(cfg)
        assert select.select([kept], [], [], 5)[0]  # the worker's hang-up has arrived
        second = execute_tasks([task], cfg)
    finally:
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()  # both connections served
    assert first == second == [[TaskResult(0, local.value, 0, address)]]


def test_a_call_that_raises_keeps_no_connection(rng, monkeypatch):
    """After CapabilityMismatch, an error reply or NodeFailure, the next call
    on the same config handshakes again."""
    tasks = [t for t in make_tasks(rng, count=4) if t.id % 2 == 0]  # all start on node 0
    local = [r.value for r in execute_tasks(tasks, ClusterConfig())]
    with counted_sends(monkeypatch) as sent, live_worker(max_qubits=4) as a:
        dead = closed_address()
        for bad, error, nodes in (
            (TaskSpec(id=0, kind="density", circuit=Circuit(5, ()), readouts=("e:IIIII",)),
             CapabilityMismatch, (a,)),
            (one_row_table(0, _SQUASH, _SQUASH, PauliString(1, "Z"), "0"),
             RuntimeError, (a,)),  # the worker's error reply
            (TaskSpec(id=1, kind="density", circuit=random_circuit(rng, 2), readouts=("e:ZZ",)),
             NodeFailure, (a, dead)),  # id 1 starts on the dead node
        ):
            cfg = ClusterConfig(mode="network", nodes=nodes, retry_limit=1)
            assert [r.value for r in execute_tasks(tasks, cfg)] == local
            with pytest.raises(error):
                execute_tasks([bad], cfg)
            assert kept_sockets(cfg) == []
            sent.clear()
            assert [r.value for r in execute_tasks(tasks, cfg)] == local
            assert [m for m in sent if m[0] == a] == [(a, "hello"), (a, "batch")]


@pytest.mark.parametrize("shots", [None, 64])
def test_threads_sharing_one_config_get_local_values(rng, shots):
    tasks = make_tasks(rng, count=8)
    plan = factorized_plan(rng)
    local = ([r.value for r in execute_tasks(tasks, ClusterConfig(shots=shots, seed=6))],
             [r.value for r in run_plan(plan, ClusterConfig(shots=shots, seed=6))])
    got, start = [], threading.Barrier(3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade places often, at check-out and check-in too
    try:
        with live_worker() as a, live_worker() as b:
            cfg = ClusterConfig(mode="network", nodes=(a, b), shots=shots, seed=6)

            def run():
                start.wait(timeout=10)
                for _ in range(4):
                    got.append(([r.value for r in execute_tasks(tasks, cfg)],
                                [r.value for r in run_plan(plan, cfg)]))

            threads = [threading.Thread(target=run, daemon=True) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(kept_sockets(cfg)) == 2  # one per worker, the others closed
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == [local] * 12


@pytest.mark.parametrize("host", ["a..b", "x" * 64 + ".example", "é..x"],
                         ids=["empty_label", "long_label", "non_ascii"])
def test_a_host_that_cannot_be_resolved_fails_its_node(rng, host):
    """A host the resolver or the idna codec refuses is a failed connection:
    alone it ends in NodeFailure, next to a live worker its batch moves there."""
    tasks = make_tasks(rng, count=4)
    local = [r.value for r in execute_tasks(tasks, ClusterConfig())]
    bad = f"{host}:5000"
    with pytest.raises(NodeFailure):
        execute_tasks(tasks, ClusterConfig(mode="network", nodes=(bad,), retry_limit=1))
    with live_worker() as addr:
        moved = execute_tasks(tasks, ClusterConfig(mode="network", nodes=(bad, addr)))
    assert [(r.value, r.node_id) for r in moved] == [(v, addr) for v in local]


def test_a_stopped_worker_answers_no_kept_connection(rng):
    tasks = make_tasks(rng, count=4)
    with live_worker() as addr:
        cfg = ClusterConfig(mode="network", nodes=(addr,), retry_limit=1)
        execute_tasks(tasks, cfg)
        assert len(kept_sockets(cfg)) == 1
    with pytest.raises(NodeFailure):
        execute_tasks(tasks, cfg)


# --- wire protocol, spoken by hand ---------------------------------------------------


def test_protocol_hello_handshake():
    with live_worker(max_qubits=7) as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        ack = recv()
        assert ack == {"type": "hello_ack", "proto": PROTOCOL_VERSION,
                       "max_qubits": 7}


def test_protocol_version_mismatch_closes_connection():
    with live_worker() as addr:
        for proto in (999, 5):  # 5: batches of one dict per row
            with raw_connection(addr) as (send, recv):
                send({"type": "hello", "proto": proto})
                reply = recv()
                assert reply["type"] == "error" and reply["id"] == -1
                assert recv() is None  # server hung up


def test_protocol_malformed_line_keeps_connection():
    with live_worker() as addr:
        host, _, port = addr.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write(b"{this is not json\n")
            f.flush()
            reply = json.loads(f.readline().decode())
            assert reply["type"] == "error" and reply["id"] == -1
            # the connection survives: a well-formed message still works
            f.write((json.dumps({"type": "hello",
                                 "proto": PROTOCOL_VERSION}) + "\n").encode())
            f.flush()
            ack = json.loads(f.readline().decode())
            assert ack["type"] == "hello_ack"


def test_protocol_unknown_type_reports_error_and_continues():
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "frobnicate"})
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == -1
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        assert recv()["type"] == "hello_ack"


def test_protocol_task_roundtrip_matches_local_backend(rng):
    circ = random_map_circuit(rng, 2)
    task = TaskSpec(id=11, kind="density", circuit=circ, readouts=("e:XZ", "e:YI"))
    (local,) = execute_tasks([task], ClusterConfig(shots=50, seed=3))
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        # the overlap item the task is lowered to: left = right, identity, label 00
        send(batch_message([{"id": 11, "kind": "overlap", "left": 0, "right": 0, "obs": "II",
                             "input": "00", "readout": ["e:XZ", "e:YI"]}],
                           [circ], shots=50, seed=3))
        reply = recv()
    assert reply.keys() == {"type", "values"} and reply["type"] == "result"
    assert all(isinstance(v, float) for v in reply["values"][0])  # plain floats
    assert tuple(reply["values"][0]) == local.value


def test_protocol_refuses_estimator_tasks_and_keeps_serving(rng):
    circ = random_circuit(rng, 2)
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(batch_message([{"id": 12, "kind": "estimator", "circuit": 0,
                             "readout": ["ax", "ay"]}], [circ]))
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == -1  # no overlap item's ids
        assert "'estimator'" in reply["message"]
        send(batch_message([overlap_row(13, "ZZ", "00", 0, 0)], [circ]))
        assert recv()["type"] == "result"


def test_a_worker_refuses_a_protocol_6_density_item_naming_the_one_accepted_kind(rng):
    circ = random_map_circuit(rng, 2)
    density = {"id": 13, "kind": "density", "circuit": 0, "readout": ["e:ZZ"]}
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(batch_message([density], [circ]))
        assert recv() == {"type": "error", "id": -1,
                          "message": f"task kind 'density' is not accepted over the wire "
                                     f"(protocol {PROTOCOL_VERSION} carries overlap items only)"}
        # the same task as the overlap item it is lowered to
        send(batch_message([{"id": 13, "kind": "overlap", "left": 0, "right": 0, "obs": "II",
                             "input": "00", "readout": ["e:ZZ"]}], [circ]))
        reply = recv()
    task = TaskSpec(id=13, kind="density", circuit=circ, readouts=("e:ZZ",))
    assert reply == {"type": "result",
                     "values": [list(execute_tasks([task], ClusterConfig())[0].value)]}


def test_protocol_2_hello_is_refused():
    with live_worker() as addr:
        with raw_connection(addr) as (send, recv):
            send({"type": "hello", "proto": 2})
            reply = recv()
            assert reply["type"] == "error" and reply["id"] == -1
            assert "unsupported protocol 2" in reply["message"]
            assert recv() is None  # server hung up
        with raw_connection(addr) as (send, recv):  # the worker keeps serving
            send({"type": "hello", "proto": PROTOCOL_VERSION})
            assert recv()["type"] == "hello_ack"


def test_protocol_3_hello_and_task_message_are_refused():
    one = circuit_to_json(Circuit(1, (Gate("H", (0,)),)))
    with live_worker() as addr:
        with raw_connection(addr) as (send, recv):
            send({"type": "hello", "proto": 3})
            reply = recv()
            assert reply["type"] == "error" and reply["id"] == -1
            assert "unsupported protocol 3" in reply["message"]
            assert recv() is None  # server hung up
        with raw_connection(addr) as (send, recv):
            send({"type": "hello", "proto": PROTOCOL_VERSION})
            assert recv()["type"] == "hello_ack"
            # the one-row "task" message of protocol 3 is an unknown type now
            send({"type": "task", "id": 7, "kind": "overlap", "left": one, "right": one,
                  "obs": "Z", "input": "0", "readout": ["ax", "ay"], "shots": None, "seed": 0})
            reply = recv()
            assert reply["type"] == "error" and "unknown type 'task'" in reply["message"]


def test_protocol_task_before_hello_is_refused():
    one = Circuit(1, (Gate("H", (0,)),))
    batch = batch_message([{"id": 7, "kind": "overlap", "left": 0, "right": 0, "obs": "Z",
                            "input": "0", "readout": ["ax", "ay"]}], [one])
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        for _ in range(2):  # refused every time, never served
            send(batch)
            reply = recv()
            assert reply["type"] == "error" and reply["id"] == -1  # the whole batch
            assert "handshake required" in reply["message"]
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        assert recv()["type"] == "hello_ack"
        send(batch)
        assert recv()["type"] == "result"


def test_protocol_task_error_reports_id_and_keeps_serving():
    one = Circuit(1, (Gate("H", (0,)),))
    good = overlap_row(41, "Z", "0", 0, 0)
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        # the error names the failing row, not the batch's first one
        send(batch_message([good, {**good, "id": 42, "readout": ["bogus"]}], [one]))
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == 42
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        assert recv()["type"] == "hello_ack"


@pytest.mark.parametrize("address", ["127.0.0.1:99999", "127.0.0.1:x", "nohostport"])
def test_serve_worker_refuses_a_bad_listen_address_before_binding(monkeypatch, address):
    def bind(*args, **kwargs):
        pytest.fail("the worker bound a bad address")

    monkeypatch.setattr("tlpq.runtime.WorkerServer", bind)
    with pytest.raises(ValueError, match=r"port in 0\.\.65535"):
        serve_worker(address, announce=bind)


def test_serve_worker_announces_bound_address_and_stops_on_shutdown():
    lines = []
    done = threading.Event()

    def run():
        serve_worker("127.0.0.1:0", announce=lines.append)
        done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    for _ in range(200):
        if lines:
            break
        threading.Event().wait(0.01)
    assert lines and lines[0].startswith("tlpq-worker listening on 127.0.0.1:")
    addr = lines[0].rsplit(" ", 1)[-1]
    with raw_connection(addr) as (send, recv):
        send({"type": "shutdown"})
    assert done.wait(timeout=5)
    thread.join(timeout=2)


# --- run_plan + aggregate ------------------------------------------------------------


def two_part_plan(rng):
    """A tiny hand-built plan: one sibling group spanning two parts."""
    u0 = haar_unitary(2, rng)
    u1 = haar_unitary(2, rng)
    v0 = haar_unitary(2, rng)
    v1 = haar_unitary(2, rng)
    coeff = 0.3 - 0.4j
    subtasks = [
        Subtask(id=0, indices=(0, 0, 0, 0, 0, 0),
                left_circuit=Circuit(1, (Gate("RAW", (0,), raw=u0),)),
                right_circuit=Circuit(1, (Gate("RAW", (0,), raw=v0),)),
                observable=PauliString(1, "Z"), input_label="0",
                coefficient=coeff),
        Subtask(id=1, indices=(0, 0, 0, 0, 0, 1),
                left_circuit=Circuit(1, (Gate("RAW", (0,), raw=u1),)),
                right_circuit=Circuit(1, (Gate("RAW", (0,), raw=v1),)),
                observable=PauliString(1, "Z"), input_label="1",
                coefficient=1.0),
    ]
    zero = np.array([1.0, 0.0], dtype=complex)
    one = np.array([0.0, 1.0], dtype=complex)
    overlap0 = (v0 @ zero).conj() @ PAULI["Z"] @ (u0 @ zero)
    overlap1 = (v1 @ one).conj() @ PAULI["Z"] @ (u1 @ one)
    return subtasks, coeff * overlap0 * overlap1


def test_run_plan_and_aggregate_match_dense_product(rng):
    plan, expected = two_part_plan(rng)
    results = run_plan(plan, ClusterConfig())
    # one float per readout: (Re z, Im z)
    assert all(len(r.value) == 2 and all(isinstance(v, float) for v in r.value)
               for r in results)
    total = aggregate(plan, results)
    assert abs(total - expected) < 1e-10


def test_aggregate_rejects_duplicate_results(rng):
    plan, _ = two_part_plan(rng)
    results = run_plan(plan, ClusterConfig())
    with pytest.raises(MissingResult):
        aggregate(plan, results + [results[0]])


def test_aggregate_rejects_missing_results(rng):
    plan, _ = two_part_plan(rng)
    results = run_plan(plan, ClusterConfig())
    with pytest.raises(MissingResult):
        aggregate(plan, results[:-1])


def test_aggregate_rejects_a_result_that_is_no_plan_row(rng):
    plan, _ = two_part_plan(rng)
    results = run_plan(plan, ClusterConfig())
    stray = TaskResult(task_id=99, value=(5.0, 0.0), shots_used=0, node_id=0)
    with pytest.raises(MissingResult, match="task 99"):
        aggregate(plan, results + [stray])


@pytest.mark.parametrize("value", [(1.0,), (1.0, 2.0, 3.0), 5.0, ("a", "b"), ((1.0,), (2.0,))])
def test_aggregate_rejects_a_value_that_is_no_re_im_pair(rng, value):
    plan, _ = two_part_plan(rng)
    results = run_plan(plan, ClusterConfig())
    results[1] = TaskResult(task_id=1, value=value, shots_used=0, node_id=0)
    with pytest.raises(ValueError, match="task 1 "):
        aggregate(plan, results)


def aggregate_by_row(plan: Plan, results) -> complex:
    """The reference: one Python complex product and sum per row, in id order,
    as aggregation ran before it read its values as arrays."""
    by_id = {r.task_id: r for r in results}
    total = 0.0 + 0j
    group_key = None
    coeff = product = 1.0 + 0j
    for i, indices, c in zip(plan.ids.tolist(), plan.indices.tolist(), plan.coefficient.tolist()):
        if indices[:5] != group_key:
            if group_key is not None:
                total += coeff * product
            group_key = indices[:5]
            coeff = product = 1.0 + 0j
        if indices[5] == 0:
            coeff = c
        re, im = by_id[i].value
        product *= complex(re, im)
    if group_key is not None:
        total += coeff * product
    return total


@pytest.mark.parametrize("widths", [(1, 2), (2, 1, 1)])
def test_aggregate_equals_the_sequential_loop_bit_for_bit(rng, widths):
    def fu(ell):
        return FactorizedUnitary(terms=tuple(
            (complex(rng.normal(), rng.normal()), tuple(random_circuit(rng, w) for w in widths))
            for _ in range(ell)))

    branches = tuple((tuple(complex(rng.normal(), rng.normal()) for _ in range(2)),
                      (fu(1), fu(3))) for _ in range(2))
    plan = enumerate_subtasks(ChannelLCU(branches=branches), tuple("0" * w for w in widths),
                              tuple(PauliString(w, "Z" * w) for w in widths))
    results = run_plan(plan, ClusterConfig())
    assert aggregate(plan, results) == aggregate_by_row(plan, results)
    for _ in range(20):  # random values, in a shuffled order
        shuffled = [TaskResult(r.task_id, tuple(rng.normal(size=2) * 10.0 ** rng.integers(-3, 4)),
                               0, 0) for r in results]
        rng.shuffle(shuffled)
        assert aggregate(plan, shuffled) == aggregate_by_row(plan, shuffled)
    hand_built = list(plan)[:7]  # a cut-off last group, and float coefficients
    hand_built = [Subtask(s.id, s.indices, s.left_circuit, s.right_circuit, s.observable,
                          s.input_label, float(abs(s.coefficient))) for s in hand_built]
    rows = Plan.from_subtasks(hand_built)
    assert aggregate(rows, results[:7]) == aggregate_by_row(rows, results[:7])


# --- overlap tasks: gate lists in, z = <U_r psi0| O U_l psi0> out -------------------


def matrix_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def estimator_task(s: Subtask, task_id: int) -> TaskSpec:
    """The oracle: the synthesized single-ancilla circuit, input prepared by X gates."""
    est = build_estimator_circuit(s)
    prep = tuple(
        Gate("X", (1 + idx,)) for idx, ch in enumerate(s.input_label) if ch == "1"
    )
    return TaskSpec(id=task_id, kind="estimator",
                    circuit=Circuit(est.circuit.n_qubits, prep + est.circuit.gates),
                    readouts=est.readouts)


def overlap_task(s: Subtask, task_id: int) -> OverlapTable:
    return one_row_table(task_id, s.left_circuit, s.right_circuit, s.observable, s.input_label)


def random_subtasks(rng, count_per_width: int = 12):
    """Random subtasks for w = 1..4 over Pauli and unitary-matrix observables."""
    out = []
    for w in range(1, 5):
        for k in range(count_per_width):
            if k % 2 == 0:
                obs = PauliString(w, "".join(rng.choice(list("IXYZ")) for _ in range(w)))
            else:
                obs = haar_unitary(2**w, rng)
            out.append(Subtask(
                id=len(out), indices=(0, 0, 0, 0, 0, 0),
                left_circuit=random_circuit(rng, w, n_gates=5),
                right_circuit=random_circuit(rng, w, n_gates=5),
                observable=obs,
                input_label=("0" if k % 4 < 2 else "1") * w,
                coefficient=1.0 + 0j,
            ))
    return out


def test_overlap_tasks_match_estimator_circuits_exactly(rng):
    backend = ExactBackend()
    for s in random_subtasks(rng):
        want, _ = backend.run_task(estimator_task(s, s.id), None, 0)
        got, used = backend.run_task(overlap_task(s, s.id), None, 0)
        assert used == 0
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, f"subtask {s.id}"


def test_overlap_tasks_sample_like_estimator_circuits(rng):
    shots = 4000
    backend = ExactBackend()
    for s in random_subtasks(rng, count_per_width=4):
        exact, _ = backend.run_task(overlap_task(s, s.id), None, 0)
        want, used_want = backend.run_task(estimator_task(s, s.id), shots, 17)
        got, used = backend.run_task(overlap_task(s, s.id), shots, 17)
        assert used == used_want == 2 * shots
        for g, w, e in zip(got, want, exact):
            # same (seed, id, readout) stream, probabilities equal up to rounding
            assert abs(g - w) <= 5 / np.sqrt(shots)
            assert abs(g - e) <= 5 / np.sqrt(shots)
        assert backend.run_task(overlap_task(s, s.id), shots, 17)[0] == got


def test_pauli_observable_action_equals_dense_matrix_exactly(rng):
    from itertools import product

    from tlpq.runtime import _apply_observable

    for w in range(1, 4):
        for letters in map("".join, product("IXYZ", repeat=w)):
            v = rng.normal(size=2**w) + 1j * rng.normal(size=2**w)
            got = _apply_observable(PauliString(w, letters), v)
            assert np.array_equal(got, pauli_label_matrix(letters) @ v), letters


def test_overlap_task_shares_states_within_a_batch(rng, monkeypatch):
    import tlpq.runtime as runtime

    left = random_circuit(rng, 2)
    rights = [random_circuit(rng, 2) for _ in range(3)]
    tasks = [one_row_table(i, left, r, PauliString(2, "XZ"), "01") for i, r in enumerate(rights)]
    alone = [ExactBackend().run_task(t, None, 0)[0] for t in tasks]
    steps = record_steps(monkeypatch)
    batch = execute_tasks(tasks, ClusterConfig())
    # one left state, three right states: each of their gates applied once
    applied = [g for step in steps for g in step]
    assert sorted(map(id, applied)) == sorted(id(g) for c in (left, *rights) for g in c.gates)
    # as one stack: one gate call per depth and qubit tuple
    assert len(steps) == sum(len({c.gates[d].qubits for c in (left, *rights)}) for d in range(4))
    assert [r.value for (r,) in batch] == alone


def test_a_one_row_table_validates_operands_and_readouts(rng):
    one = Circuit(1, (Gate("H", (0,)),))
    two = Circuit(2, (Gate("H", (0,)),))
    with pytest.raises(ShapeMismatch):
        one_row_table(0, two, one, PauliString(2, "ZZ"), "00")
    with pytest.raises(ShapeMismatch):
        one_row_table(0, two, two, PauliString(2, "ZZ"), "0")
    with pytest.raises(ShapeMismatch):
        one_row_table(0, two, two, PauliString(1, "Z"), "00")
    with pytest.raises(ShapeMismatch):
        one_row_table(0, two, two, np.eye(2), "00")
    with pytest.raises(NonUnitaryObservable):
        one_row_table(0, one, one, np.diag([1.0, 0.5]), "0")
    for readouts in ((), ("p2",), ("ax", "p0:Z"), ("e",), ("ax", 3)):
        with pytest.raises(ValueError, match="overlap readouts"):
            one_row_table(0, two, two, PauliString(2, "ZZ"), "00", readouts)
    # an "e:<P>" readout's letters are checked by the one descriptor rule, on the row's width
    for bad in ("e:ZZZ", "e:Z", "e:", "e:QZ"):
        with pytest.raises(ValueError, match=f"^bad readout descriptor {re.escape(repr(bad))}$"):
            one_row_table(0, two, two, PauliString(2, "ZZ"), "00", ("ax", bad))
    unitary = haar_unitary(4, rng)
    for readouts in (("p0",), ("ax", "p1")):  # the projectors need Pauli letters
        with pytest.raises(ValueError, match="Pauli observable"):
            one_row_table(0, two, two, unitary, "00", readouts)
    one_row_table(0, two, two, unitary, "00", ("ay",))
    one_row_table(0, two, two, unitary, "00", ("e:XY", "ax"))  # "e:" reads its own P


def test_a_density_task_reads_e_readouts_only():
    c = Circuit(2, (Gate("H", (0,)),))
    for readouts in (("ax",), ("e:ZZ", "ay"), ("p0:Z",), ("p1:X", "e:ZZ"), ("e:ZZ", 1)):
        with pytest.raises(ValueError, match="^a density task reads e:<P> readouts only, got "):
            TaskSpec(id=0, kind="density", circuit=c, readouts=readouts)
    TaskSpec(id=0, kind="estimator", circuit=c, readouts=("ax", "p0:Z", "e:ZZ"))  # any


def test_overlap_task_rejects_non_unitary_raw_gate():
    task = one_row_table(0, _SQUASH, _SQUASH, PauliString(1, "Z"), "0")
    with pytest.raises(ValueError):
        ExactBackend().run_task(task, None, 0)


def test_overlap_task_capability_is_the_part_width():
    circ = Circuit(3, (Gate("H", (0,)),))
    task = one_row_table(0, circ, circ, PauliString(3, "ZZZ"), "000")
    ExactBackend(max_qubits=3).run_task(task, None, 0)  # no ancilla on top
    with pytest.raises(CapabilityMismatch):
        ExactBackend(max_qubits=2).run_task(task, None, 0)


def overlap_row(task_id: int, obs, label: str, left: int = 0, right: int = 1) -> dict:
    return {"id": task_id, "kind": "overlap", "left": left, "right": right,
            "obs": obs, "input": label, "readout": ["ax", "ay"]}


@pytest.mark.parametrize("shots", [None, 50])
def test_protocol_overlap_roundtrip_matches_local_backend(rng, shots):
    left, right = random_circuit(rng, 2), random_circuit(rng, 2)
    unitary_obs = haar_unitary(4, rng)
    cases = [(21, PauliString(2, "YX"), "YX"), (22, unitary_obs, matrix_json(unitary_obs))]
    local = [
        ExactBackend().run_task(one_row_table(task_id, left, right, obs, "10"), shots, 3)
        for task_id, obs, _ in cases
    ]
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        # both rows in one batch, its two circuits sent once: replies come in row order
        send(batch_message([overlap_row(task_id, wire_obs, "10") for task_id, _, wire_obs in cases],
                           [left, right], shots, 3))
        reply = recv()
    assert reply.keys() == {"type", "values"} and reply["type"] == "result"
    assert [tuple(v) for v in reply["values"]] == [values for values, _ in local]


_NON_UNITARY = {"kind": "RAW", "qubits": [0], "raw": [[[1, 0], [0.2, 0]], [[0, 0], [0.5, 0]]]}


@pytest.mark.parametrize("case", [
    "mismatched_widths", "non_unitary_raw", "non_unitary_raw_beside_e", "bad_input_label",
    "too_wide", "non_unitary_observable", "other_readouts", "e_of_another_width",
    "empty_readouts", "unknown_readout", "p0_on_matrix_observable", "circuit_out_of_range",
    "negative_circuit",
])
def test_worker_rejects_bad_overlap_task_and_keeps_serving(case):
    two = circuit_to_json(Circuit(2, (Gate("H", (0,)), Gate("CZ", (0, 1)))))
    good = overlap_row(78, "ZX", "01", 0, 0)
    row = {**good, "id": 77}
    circuits = [two]
    if case == "mismatched_widths":
        circuits.append({"n": 1, "gates": [{"kind": "H", "qubits": [0]}]})
        row["right"] = 1
    elif case in ("non_unitary_raw", "non_unitary_raw_beside_e"):
        circuits.append({"n": 2, "gates": [_NON_UNITARY]})
        row["left"] = 1
        if case == "non_unitary_raw_beside_e":  # not all "e:": the states must stay unitary
            row["readout"] = ["e:ZX", "ay"]
    elif case == "bad_input_label":
        row["input"] = "012"
    elif case == "too_wide":
        circuits.append({"n": 3, "gates": [{"kind": "H", "qubits": [2]}]})
        row.update(left=1, right=1, obs="ZZZ", input="000")
    elif case == "non_unitary_observable":
        row["obs"] = matrix_json(np.diag([1.0, 1.0, 1.0, 0.5]))
    elif case == "other_readouts":  # an estimator task's descriptor
        row["readout"] = ["p0:X"]
    elif case == "e_of_another_width":
        row["readout"] = ["e:ZXZ"]
    elif case == "empty_readouts":
        row["readout"] = []
    elif case == "unknown_readout":
        row["readout"] = ["p2"]
    elif case == "circuit_out_of_range":
        row["right"] = 1
    elif case == "negative_circuit":
        row["left"] = -1  # not read from the end of the list
    else:
        row.update(obs=matrix_json(np.eye(4)), readout=["p0"])
    with live_worker(max_qubits=2) as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(batch_message([row], circuits))
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == 77
        send(batch_message([good], circuits))
        assert recv()["type"] == "result"


def factorized_plan(rng):
    """Two parts of width 1 and 2; two branches of two two-term unitaries."""
    def fu():
        terms = []
        for _ in range(2):
            terms.append((complex(rng.normal(), rng.normal()) / 2,
                          (random_circuit(rng, 1), random_circuit(rng, 2))))
        return FactorizedUnitary(terms=tuple(terms))

    branches = tuple(
        ((0.6 + 0.1j, -0.3 + 0.2j), (fu(), fu())) for _ in range(2)
    )
    obs = (PauliString(1, "Y"), haar_unitary(4, rng))
    return enumerate_subtasks(ChannelLCU(branches=branches), ("1", "01"), obs)


@pytest.mark.parametrize("shots", [None, 64])
def test_run_plan_bit_identical_across_modes_and_retries(rng, shots):
    plan = factorized_plan(rng)
    assert len(plan) == 2 * 2 * 2 * 2 * 2 * 2

    def values(cfg):
        results = run_plan(plan, cfg)
        return [r.value for r in results], aggregate(plan, results)

    base = values(ClusterConfig(nodes=1, shots=shots, seed=5))
    assert values(ClusterConfig(nodes=4, shots=shots, seed=5)) == base
    with live_worker() as a, live_worker() as b:
        net = ClusterConfig(mode="network", nodes=(a, b), shots=shots, seed=5)
        assert values(net) == base
    with live_worker(fail_after_tasks=5) as flaky, live_worker() as solid:
        retried = ClusterConfig(mode="network", nodes=(flaky, solid), shots=shots,
                                seed=5, retry_limit=2)
        assert values(retried) == base


@pytest.mark.parametrize("shots", [None, 64])
def test_one_call_over_several_plans_matches_one_call_per_plan(rng, shots):
    plans = [factorized_plan(rng) for _ in range(3)]
    plans.append(Plan.from_subtasks(reversed(list(plans[0]))))  # hand-built, same rows
    for cfg in (ClusterConfig(nodes=1, shots=shots, seed=5),
                ClusterConfig(nodes=3, shots=shots, seed=5)):
        batch = execute_tasks(plans, cfg)
        assert batch == [run_plan(p, cfg) for p in plans]
        assert batch[3] == batch[0]
        assert [[r.task_id for r in rs] for rs in batch] == [list(p.ids) for p in plans]
        assert [[r.node_id for r in rs] for rs in batch] == [
            [i % cfg.nodes for i in p.ids] for p in plans
        ]
    with live_worker() as a, live_worker() as b:
        net = ClusterConfig(mode="network", nodes=(a, b), shots=shots, seed=5)
        batch = execute_tasks(plans, net)
        assert [[r.value for r in rs] for rs in batch] == [
            [r.value for r in run_plan(p, ClusterConfig(shots=shots, seed=5))] for p in plans
        ]
    with pytest.raises(TypeError):
        execute_tasks([plans[0], TaskSpec(id=0, kind="density", circuit=plans[0].circuits[0],
                                          readouts=("e:" + "Z" * plans[0].circuits[0].n_qubits,))],
                      ClusterConfig())


def test_plan_checks_operands_under_the_overlap_rules(rng):
    rows, _ = two_part_plan(rng)
    assert len(Plan.from_subtasks(rows)) == 2
    one, two = Circuit(1, ()), Circuit(2, ())

    def with_row(**changes):
        fields = dict(id=2, indices=(0, 0, 0, 0, 0, 0), left_circuit=one, right_circuit=one,
                      observable=PauliString(1, "X"), input_label="0", coefficient=1.0)
        return rows + [Subtask(**{**fields, **changes})]

    for bad in (with_row(right_circuit=two), with_row(input_label="00"),
                with_row(input_label="2"), with_row(observable=PauliString(2, "XX")),
                with_row(observable=np.eye(4)), with_row(id=1)):
        with pytest.raises(ShapeMismatch):
            Plan.from_subtasks(bad)
    with pytest.raises(NonUnitaryObservable):
        Plan.from_subtasks(with_row(observable=np.diag([1.0, 0.5])))
    with pytest.raises(ShapeMismatch):  # a row pointing past its table
        plan = Plan.from_subtasks(rows)
        Plan(**{**vars(plan), "left": (0, 5)})


def test_run_plan_never_synthesizes_estimator_circuits(rng, monkeypatch):
    plan, expected = two_part_plan(rng)

    def boom(*args, **kwargs):
        raise AssertionError("run_plan synthesized an estimator circuit")

    import tlpq.planner
    import tlpq.runtime

    monkeypatch.setattr(tlpq.planner, "build_estimator_circuit", boom)
    monkeypatch.setattr(tlpq, "build_estimator_circuit", boom)
    monkeypatch.setattr(tlpq.runtime, "build_estimator_circuit", boom, raising=False)
    assert abs(aggregate(plan, run_plan(plan, ClusterConfig())) - expected) < 1e-10


def test_overlap_readouts_in_any_order_or_subset_read_as_each_alone(rng):
    from itertools import combinations, permutations

    backend = ExactBackend()
    for s in random_subtasks(rng, count_per_width=4):
        if not isinstance(s.observable, PauliString):  # p0 / p1 need a Pauli observable
            continue

        def task(readouts):
            return one_row_table(s.id, s.left_circuit, s.right_circuit, s.observable,
                                 s.input_label, readouts)

        alone = {d: _readout_pairs(task((d,)), _PartStates()) for d in ("ax", "ay", "p0", "p1")}
        for size in range(1, 5):
            for subset in combinations(("ax", "ay", "p0", "p1"), size):
                for readouts in permutations(subset):
                    ws, ms = _readout_pairs(task(readouts), _PartStates())
                    assert [list(ws), list(ms)] == [
                        [alone[d][k][0] for d in readouts] for k in (0, 1)
                    ], readouts
                    values, _ = backend.run_task(task(readouts), None, 0)
                    assert values == tuple(alone[d][1][0] for d in readouts)
                    assert all(type(v) is float for v in values)


@pytest.mark.parametrize("shots", [None, 64])
def test_plan_rows_equal_the_same_rows_run_as_local_overlap_tasks(rng, shots):
    plan = factorized_plan(rng)
    cfg = ClusterConfig(nodes=3, shots=shots, seed=5)
    tasks = [overlap_task(s, s.id) for s in plan]
    assert run_plan(plan, cfg) == [r for (r,) in execute_tasks(tasks, cfg)]


@pytest.mark.parametrize("shots", [None, 64])
def test_empty_plan_runs_to_no_results(shots):
    cfg = ClusterConfig(shots=shots, seed=5)
    assert run_plan(Plan.from_subtasks([]), cfg) == []
    assert execute_tasks([Plan.from_subtasks([])] * 2, cfg) == [[], []]


@st.composite
def small_tables(draw):
    """A few plain overlap tables over one operand table: parts of width 1-3,
    Pauli observables, random labels, each table's readouts any non-empty
    subset of ax / ay / p0 / p1 in any order, row ids spread over the tables;
    and shots."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuits, observables, labels = [], [], []
    for w in (1, 2, 3):
        circuits += [random_circuit(rng, w, n_gates=3) for _ in range(2)]
        observables += [PauliString(w, "".join(rng.choice(list("IXYZ"), size=w)))
                        for _ in range(2)]
        labels.append("".join(rng.choice(list("01"), size=w)))
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    ids = rng.permutation(sum(sizes))
    tables = []
    for n, start in zip(sizes, np.cumsum([0] + sizes).tolist()):
        w = rng.integers(0, 3, size=n)  # each row's width, as a position in (1, 2, 3)
        tables.append(OverlapTable(
            circuits=tuple(circuits), observables=tuple(observables), labels=tuple(labels),
            ids=np.sort(ids[start:start + n]), left=2 * w + rng.integers(0, 2, size=n),
            right=2 * w + rng.integers(0, 2, size=n), observable=2 * w + rng.integers(0, 2, size=n),
            label=w, readouts=tuple(draw(st.lists(st.sampled_from(["ax", "ay", "p0", "p1"]),
                                                  min_size=1, max_size=4, unique=True)))))
    return tables, draw(st.none() | st.integers(1, 16))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(small_tables())
def test_tables_give_the_rows_of_one_row_tasks_bit_for_bit(case):
    tables, shots = case
    tasks = [one_row_table(i, t.circuits[l], t.circuits[r], t.observables[o], t.labels[b],
                           t.readouts)
             for t in tables
             for i, l, r, o, b in zip(*(c.tolist() for c in (t.ids, t.left, t.right,
                                                              t.observable, t.label)))]

    def results(rows):  # by id: the value's bits, shots used and node
        return sorted((r.task_id, np.array(r.value).tobytes(), r.shots_used, r.node_id)
                      for r in rows)

    def check(cfg):
        got = results(r for rows in execute_tasks(tables, cfg) for r in rows)
        assert got == results(r for (r,) in execute_tasks(tasks, cfg))
        return [row[:3] for row in got]

    base = check(ClusterConfig(nodes=1, shots=shots, seed=9))
    assert check(ClusterConfig(nodes=3, shots=shots, seed=9)) == base
    with live_worker() as a, live_worker() as b:
        assert check(ClusterConfig(mode="network", nodes=(a,), shots=shots, seed=9)) == base
        assert check(ClusterConfig(mode="network", nodes=(a, b), shots=shots, seed=9)) == base


# --- stacked overlaps: every value has the bits of its row's own np.vdot -----------


def overlap_pairs_by_row(t):
    """The reference: every row's readouts from its own part states, one
    ``np.vdot`` per value, as the routine read them before it was stacked."""
    from tlpq.runtime import _READOUT_SIDES, _apply_observable

    def part_state(c, label):
        return simulate(c, basis_state(c.n_qubits, int(label, 2)))

    w, m = [], []
    for o, l, r, b in zip(t.observable, t.left, t.right, t.label):
        part = {"left": part_state(t.circuits[l], t.labels[b]),
                "right": part_state(t.circuits[r], t.labels[b])}
        for desc in t.readouts:
            ket, bra = _READOUT_SIDES[desc]
            z = np.vdot(part[bra], _apply_observable(t.observables[o], part[ket]))
            if desc in ("ax", "ay"):
                w.append(1.0)
                m.append(float(z.real if desc == "ax" else z.imag))
            else:
                w.append(float(np.vdot(part[ket], part[ket]).real / 2.0))
                m.append(float(z.real / 2.0))
    return w, m


def random_overlap_table(rng, n_rows: int, readouts: tuple, widths=range(1, 7)):
    """A table of random rows over part widths 1..6: several circuits, labels and
    observables per width (unitary matrices too, unless p0 / p1 are read),
    with rows of different widths interleaved."""
    from tlpq.planner import OverlapTable

    pauli_only = not {"p0", "p1"}.isdisjoint(readouts)
    circuits, observables, labels, by_width = [], [], [], {}
    for w in widths:
        ops = by_width[w] = ([], [], [])
        for _ in range(3):
            ops[0].append(len(circuits))
            circuits.append(random_circuit(rng, w, n_gates=3))
        for k in range(3):
            ops[1].append(len(observables))
            observables.append(
                haar_unitary(2**w, rng) if k == 2 and not pauli_only
                else PauliString(w, "".join(rng.choice(list("IXYZ"), size=w))))
        for k in range(2):
            ops[2].append(len(labels))
            labels.append("".join(rng.choice(list("01"), size=w)))
    rows = []
    for _ in range(n_rows):
        c, o, b = by_width[int(rng.choice(list(widths)))]
        rows.append((int(rng.choice(c)), int(rng.choice(c)), int(rng.choice(o)),
                     int(rng.choice(b))))
    left, right, observable, label = (tuple(col) for col in zip(*rows)) if rows else ((),) * 4
    return OverlapTable(circuits=tuple(circuits), observables=tuple(observables),
                        labels=tuple(labels), ids=tuple(range(n_rows)), left=left, right=right,
                        observable=observable, label=label, readouts=readouts)


@pytest.mark.parametrize("readouts", [("ax", "ay"), ("ay",), ("p1", "ax", "p0", "ay"),
                                      ("p0",), ("p1", "p0")])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 40])
def test_stacked_overlaps_equal_per_row_vdot_bit_for_bit(rng, readouts, n_rows):
    from tlpq.runtime import _overlaps

    for widths in (range(1, 7), (3,)):
        t = random_overlap_table(rng, n_rows, readouts, widths)
        got = tuple(_overlaps([t], _PartStates())[0].tolist())
        assert got == overlap_pairs_by_row(t)
        assert len(got[0]) == len(got[1]) == n_rows * len(readouts)


# --- estimate_plans: one runner and one reducer, values as arrays ------------------


def mixed_width_plan(rng, widths):
    """A channel plan over parts of ``widths``: complex coefficients, random
    labels, Pauli observables and a unitary matrix on the second part."""
    def fu(ell):
        return FactorizedUnitary(terms=tuple(
            (complex(rng.normal(), rng.normal()), tuple(random_circuit(rng, w) for w in widths))
            for _ in range(ell)))

    branches = tuple((tuple(complex(rng.normal(), rng.normal()) for _ in range(2)),
                      (fu(1), fu(2))) for _ in range(2))
    obs = tuple(haar_unitary(2**w, rng) if a == 1
                else PauliString(w, "".join(rng.choice(list("IXYZ"), size=w)))
                for a, w in enumerate(widths))
    labels = tuple("".join(rng.choice(list("01"), size=w)) for w in widths)
    return enumerate_subtasks(ChannelLCU(branches=branches), labels, obs)


@pytest.mark.parametrize("shots", [None, 64])
def test_estimate_plans_equals_aggregate_of_execute_tasks(rng, shots):
    from tlpq.runtime import estimate_plans

    plans = [mixed_width_plan(rng, widths) for widths in ((2,), (1, 2), (2, 1, 3))]
    plans.append(Plan.from_subtasks(reversed(list(plans[2]))))  # hand-built, same rows

    def values(cfg):
        got = estimate_plans(plans, cfg)
        assert got == [aggregate(p, r) for p, r in zip(plans, execute_tasks(plans, cfg))]
        assert all(type(v) is complex for v in got)
        return got

    base = values(ClusterConfig(nodes=1, shots=shots, seed=5))
    assert base[3] == base[2]
    assert values(ClusterConfig(nodes=3, shots=shots, seed=5)) == base
    with live_worker() as a, live_worker() as b:
        assert values(ClusterConfig(mode="network", nodes=(a, b), shots=shots, seed=5)) == base
    with live_worker(fail_after_tasks=5) as flaky, live_worker() as solid:
        retried = ClusterConfig(mode="network", nodes=(flaky, solid), shots=shots,
                                seed=5, retry_limit=2)
        assert values(retried) == base


def test_estimate_plans_reduces_cut_off_groups_as_the_row_loop(rng):
    from tlpq.runtime import estimate_plans

    # groups of two rows: the first lacks its a = 0 row, the last is cut off
    plan = Plan.from_subtasks(list(mixed_width_plan(rng, (1, 2)))[1:7])
    results = run_plan(plan, ClusterConfig())
    assert estimate_plans([plan], ClusterConfig()) == [aggregate_by_row(plan, results)]
    assert aggregate(plan, results) == aggregate_by_row(plan, results)


def test_a_run_and_reduced_plan_holds_only_its_fields(rng):
    import dataclasses

    from tlpq.runtime import estimate_plans

    plans = [mixed_width_plan(rng, (1, 2)), Plan.from_subtasks(list(mixed_width_plan(rng, (2,))))]
    estimate_plans(plans, ClusterConfig(shots=8, seed=1))
    for plan in plans:
        aggregate(plan, run_plan(plan, ClusterConfig()))
        assert set(vars(plan)) == {f.name for f in dataclasses.fields(Plan)}


# --- one checked row table: ids and positions are checked, not coerced -------------


def one_qubit_plan() -> Plan:
    """Two rows of one one-qubit group: ids 0 and 1."""
    c = Circuit(1, (Gate("H", (0,)),))
    return Plan.from_subtasks([
        Subtask(id=k, indices=(0, 0, 0, 0, 0, k), left_circuit=c, right_circuit=c,
                observable=PauliString(1, "Z"), input_label="0", coefficient=1.0)
        for k in range(2)])


_ID_RULE = "a row id must be an integer >= 0, got "


@pytest.mark.parametrize("build, message", [
    (lambda p: dataclasses.replace(p, ids=(0, 1.5)), _ID_RULE + "1.5"),
    (lambda p: dataclasses.replace(p, ids=(-2, -1)), _ID_RULE + "-2"),
    (lambda p: dataclasses.replace(p, ids=("0", "1")), _ID_RULE + "'0'"),
    (lambda p: dataclasses.replace(p, left=(0, 0.7)),
     "a table position must be an integer, got 0.7"),
    (lambda p: one_row_table(True, p.circuits[0], p.circuits[0], PauliString(1, "Z"), "0"),
     _ID_RULE + "True"),
    (lambda p: TaskSpec(id=1.5, kind="density", circuit=p.circuits[0], readouts=("e:Z",)),
     _ID_RULE + "1.5"),
    (lambda p: TaskSpec(id=-1, kind="density", circuit=p.circuits[0], readouts=("e:Z",)),
     _ID_RULE + "-1"),
    (lambda p: dataclasses.replace(p, ids=np.array([-3, 4])), _ID_RULE + "-3"),
    (lambda p: dataclasses.replace(p, ids=[1, -5]), _ID_RULE + "-5"),
    (lambda p: dataclasses.replace(p, ids=[-10**30, 1]), _ID_RULE + str(-10**30)),
    (lambda p: dataclasses.replace(p, right=[0, True]),
     "a table position must be an integer, got True"),
], ids=["plan-float-id", "plan-negative-ids", "plan-text-ids", "plan-float-position",
        "overlap-bool-id", "density-float-id", "density-negative-id", "plan-negative-id-array",
        "plan-negative-id-list", "plan-huge-negative-id-list", "plan-bool-position-list"])
def test_row_ids_and_table_positions_are_refused_at_construction(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(one_qubit_plan())


@pytest.mark.parametrize("row_id", [1.5, -2, "0", True])
def test_a_bad_row_id_is_refused_locally_and_on_a_worker_with_one_message(row_id):
    c = Circuit(1, (Gate("H", (0,)),))
    with pytest.raises(ValueError) as local:
        one_row_table(row_id, c, c, PauliString(1, "Z"), "0")
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(batch_message([overlap_row(row_id, "Z", "0")], [c, c]))
        assert recv() == {"type": "error", "id": -1, "message": str(local.value)}


@pytest.mark.parametrize("case", ["mismatched_widths", "bad_input_label", "wrong_width_pauli",
                                  "wrong_width_matrix", "non_unitary_observable"])
def test_an_overlap_task_and_a_one_row_plan_refuse_operands_alike(case):
    two = Circuit(2, (Gate("H", (0,)), Gate("CZ", (0, 1))))
    fields = dict(left_circuit=two, right_circuit=two, observable=PauliString(2, "ZX"),
                  input_label="01")
    if case == "mismatched_widths":
        fields["right_circuit"] = Circuit(1, (Gate("H", (0,)),))
    elif case == "bad_input_label":
        fields["input_label"] = "012"
    elif case == "wrong_width_pauli":
        fields["observable"] = PauliString(3, "ZZZ")
    elif case == "wrong_width_matrix":
        fields["observable"] = np.eye(2)
    else:
        fields["observable"] = np.diag([1.0, 1.0, 1.0, 0.5])
    with pytest.raises(ValueError) as task:
        one_row_table(77, fields["left_circuit"], fields["right_circuit"], fields["observable"],
                      fields["input_label"])
    with pytest.raises(ValueError) as plan:
        Plan.from_subtasks([Subtask(id=77, indices=(0,) * 6, coefficient=1.0, **fields)])
    assert type(plan.value) is type(task.value)
    assert str(plan.value) == str(task.value)


@pytest.mark.parametrize("shots", [None, 64])
def test_a_plan_with_a_changed_column_never_reads_the_values_derived_from_the_old_one(
        rng, shots):
    from tlpq.runtime import estimate_plans

    plan = mixed_width_plan(rng, (1, 2))
    cfg = ClusterConfig(shots=shots, seed=5)
    before = estimate_plans([plan], cfg)  # fills the channel's side rows and groups
    # the first row's right circuit becomes another circuit of the same width
    width = [c.n_qubits for c in plan.circuits]
    other = next(k for k, w in enumerate(width)
                 if w == width[plan.right[0]] and k != plan.right[0])
    right = plan.right.copy()
    right[0] = other
    for changed in (dataclasses.replace(plan, right=right), Plan(**{**vars(plan), "right": right})):
        assert changed.right[0] == other and changed.left is plan.left
        rebuilt = Plan.from_subtasks(list(changed))
        assert estimate_plans([changed], cfg) == estimate_plans([rebuilt], cfg) != before
        assert run_plan(changed, cfg) == run_plan(rebuilt, cfg)


def test_the_plans_of_one_channel_derive_their_side_rows_once(rng, monkeypatch):
    import tlpq.planner
    from tlpq.runtime import estimate_plans

    seen = []
    side_rows = tlpq.planner._side_rows
    monkeypatch.setattr(tlpq.planner, "_side_rows",
                        lambda t, ket, bra: seen.append((ket, bra)) or side_rows(t, ket, bra))
    fus = tuple(FactorizedUnitary.from_circuits((random_circuit(rng, 1),)) for _ in range(5))
    channel = ChannelLCU(branches=((tuple(complex(c) for c in rng.normal(size=5)), fus),))
    plans = [enumerate_subtasks(channel, ("0",), (PauliString(1, letter),)) for letter in "IXYZ"]
    estimate_plans(plans, ClusterConfig())
    assert seen == [("left", "right")]
    estimate_plans(plans, ClusterConfig(shots=8, seed=1))
    assert seen == [("left", "right")]


@st.composite
def term_list_plans(draw):
    """A plan of a random channel: 1-2 branches of 1-3 unitaries of 1-3
    terms each, 1-2 parts of width 1-3 (a term may reuse an earlier term's
    part circuit), complex coefficients, a Pauli or a unitary matrix
    observable per part and random labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    made = [[] for _ in widths]  # each part's circuits so far

    def part(a: int) -> Circuit:
        if made[a] and draw(st.booleans()):
            return made[a][draw(st.integers(0, len(made[a]) - 1))]
        made[a].append(random_circuit(rng, widths[a], n_gates=2))
        return made[a][-1]

    def fu():
        return FactorizedUnitary(terms=tuple(
            (complex(rng.normal(), rng.normal()), tuple(part(a) for a in range(len(widths))))
            for _ in range(draw(st.integers(1, 3)))))

    m = draw(st.integers(1, 3))
    branches = tuple((tuple(complex(rng.normal(), rng.normal()) for _ in range(m)),
                      tuple(fu() for _ in range(m)))
                     for _ in range(draw(st.integers(1, 2))))
    obs = tuple(haar_unitary(2**w, rng) if draw(st.booleans())
                else PauliString(w, "".join(rng.choice(list("IXYZ"), size=w))) for w in widths)
    labels = tuple("".join(rng.choice(list("01"), size=w)) for w in widths)
    return enumerate_subtasks(ChannelLCU(branches=branches), labels, obs)


def test_a_channel_plan_reads_its_term_list_as_its_rows_read_bit_for_bit():
    from tlpq.runtime import estimate_plans

    def bits(values) -> bytes:
        return np.array(values, dtype=complex).tobytes()

    with live_worker() as a, live_worker() as b:
        configs = [ClusterConfig(mode=mode, nodes=nodes, shots=shots, seed=7)
                   for mode, nodes in (("local", 1), ("local", 3), ("network", (a,)),
                                       ("network", (a, b)))
                   for shots in (None, 8)]

        @settings(max_examples=20, derandomize=True, deadline=None)
        @given(term_list_plans())
        def check(plan):
            assert plan._derived.terms is not None
            rebuilt = Plan.from_subtasks(list(plan))  # its own table, derived row by row
            same_rows = dataclasses.replace(plan, _derived=None)  # the same columns, likewise
            assert rebuilt._derived.terms is same_rows._derived.terms is None
            assert plan._derived["extent"] == same_rows._derived["extent"]
            (coefficient, members), (want, want_members) = plan.groups, same_rows.groups
            assert coefficient.tobytes() == want.tobytes()
            groups, rows = np.arange(len(coefficient)), np.arange(len(plan))
            assert [(groups[g].tolist(), rows[k].tolist()) for g, k in members] == [
                (g.tolist(), k.tolist()) for g, k in want_members]
            for cfg in configs:
                value = bits(estimate_plans([plan], cfg))
                assert value == bits(estimate_plans([rebuilt], cfg))
                assert value == bits([aggregate(plan, run_plan(plan, cfg))])

        check()


@pytest.mark.parametrize("changes", [
    dict(shots=True), dict(shots=1.5), dict(shots="7"), dict(seed=-1), dict(seed=2.5),
    dict(seed="x"), dict(seed=True), dict(seed=None),
])
def test_cluster_config_rejects_bad_seeds_and_shots(changes):
    with pytest.raises(ValueError, match="shots|seed"):
        ClusterConfig(**changes)


@pytest.mark.parametrize("fields", [
    dict(shots=1.5), dict(shots=True), dict(shots="7"), dict(shots=0), dict(seed=2.7),
    dict(seed="5"), dict(seed=-1), dict(seed=True), dict(seed=None), dict(seed="missing"),
])
def test_worker_rejects_a_batch_with_bad_shots_or_seed_and_keeps_serving(fields):
    circuits = [Circuit(1, (Gate("H", (0,)),)), Circuit(1, ())]
    good = batch_message([overlap_row(4, "Z", "0")], circuits, shots=5, seed=3)
    bad = {**good, **fields}
    if bad["seed"] == "missing":
        del bad["seed"]
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(bad)
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == -1
        assert "seed" in reply["message"]
        send(good)
        assert recv()["type"] == "result"


@pytest.mark.parametrize("shots", [None, 10])
@pytest.mark.parametrize("shots_used", [["x"], [2.7], [-5], [None], "missing"],
                         ids=["text", "float", "negative", "null", "missing"])
def test_shots_used_comes_from_the_call_not_the_reply(rng, shots, shots_used):
    """A reply's shots_used is not read: with good values, any shots_used (or
    none) gives the TaskResults of a local run, with the worker as node."""
    task = one_row_table(3, random_circuit(rng, 1), random_circuit(rng, 1), PauliString(1, "Z"),
                         "0", ("ax", "ay", "p0", "p1"))
    cluster = dict(shots=shots, seed=4)
    (local,) = execute_tasks([task], ClusterConfig(**cluster))
    listener = socket.create_server(("127.0.0.1", 0))
    address = f"127.0.0.1:{listener.getsockname()[1]}"
    reply = {"type": "result", "values": [list(local[0].value)], "shots_used": shots_used}
    if shots_used == "missing":
        del reply["shots_used"]

    def fake_worker():
        listener.settimeout(10)
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as f:
            f.readline()  # the hello
            f.write((json.dumps({"type": "hello_ack", "proto": PROTOCOL_VERSION,
                                 "max_qubits": 12}) + "\n").encode())
            f.flush()
            f.readline()  # the batch
            f.write((json.dumps(reply) + "\n").encode())
            f.flush()

    thread = threading.Thread(target=fake_worker, daemon=True)
    thread.start()
    try:
        (remote,) = execute_tasks([task], ClusterConfig(mode="network", nodes=(address,),
                                                        **cluster))
    finally:
        thread.join(timeout=5)
        listener.close()
    assert remote == [TaskResult(r.task_id, r.value, r.shots_used, address) for r in local]
    assert remote[0].shots_used == (0 if shots is None else 40)


@pytest.mark.parametrize("values", [[[None, 0.0]], [[1.0]], [[1.0, 2.0, 3.0]], [["a", 0.0]],
                                    [1.0], [[float("nan"), 0.0]], [["0.5", 0.0]],
                                    [[True, 0.0]]])
def test_a_malformed_reply_value_fails_the_node(rng, values):
    listener = socket.create_server(("127.0.0.1", 0))
    address = f"127.0.0.1:{listener.getsockname()[1]}"

    def fake_worker():
        listener.settimeout(10)
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as f:
            f.readline()  # the hello
            f.write((json.dumps({"type": "hello_ack", "proto": PROTOCOL_VERSION,
                                 "max_qubits": 12}) + "\n").encode())
            f.flush()
            f.readline()  # the batch
            f.write((json.dumps({"type": "result", "values": values, "shots_used": [0]})
                     + "\n").encode())
            f.flush()

    thread = threading.Thread(target=fake_worker, daemon=True)
    thread.start()
    task = one_row_table(0, random_circuit(rng, 1), random_circuit(rng, 1), PauliString(1, "Z"),
                         "0")
    try:
        with pytest.raises(NodeFailure, match="unexpected reply"):
            execute_tasks([task], ClusterConfig(mode="network", nodes=(address,)))
    finally:
        thread.join(timeout=5)
        listener.close()


@pytest.mark.parametrize("gate", [
    {"kind": "H", "qubits": [0.9]}, {"kind": "H", "qubits": [False]},
    {"kind": "RY", "qubits": [0], "params": ["0.5"]},
    {"kind": "RY", "qubits": [0], "params": ["nan"]},
    {"kind": "RY", "qubits": [0], "params": [float("nan")]},
    "width",
], ids=["float_qubit", "false_qubit", "text_param", "text_nan", "nan", "float_width"])
def test_worker_answers_a_circuit_with_truncated_numbers_with_an_error(gate):
    good = [Circuit(1, (Gate("H", (0,)),)), Circuit(1, ())]
    bad = ({"n": 1.5, "gates": []} if gate == "width" else {"n": 1, "gates": [gate]})
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(batch_message([overlap_row(4, "Z", "0")], [bad, good[1]]))
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == -1
        send(batch_message([overlap_row(4, "Z", "0")], good))
        assert recv()["type"] == "result"


def _fake_worker(listener, ack: bytes, reply: bytes | None = None):
    """Answers one connection's hello with ``ack`` and its batch with ``reply``."""
    listener.settimeout(10)
    conn, _ = listener.accept()
    with conn, conn.makefile("rwb") as f:
        f.readline()  # the hello
        f.write(ack + b"\n")
        f.flush()
        if reply is not None and f.readline():
            f.write(reply + b"\n")
            f.flush()


_BAD_WIRE = {
    "text_max_qubits": ({"max_qubits": "x"}, None),
    "missing_max_qubits": ({"max_qubits": "missing"}, None),
    "float_max_qubits": ({"max_qubits": 1.5}, None),
    "true_max_qubits": ({"max_qubits": True}, None),
    "undecodable_reply": ({}, b"\xff\xfe"),
}


def _hello_ack(changes: dict) -> bytes:
    ack = {"type": "hello_ack", "proto": PROTOCOL_VERSION, "max_qubits": 12, **changes}
    if ack["max_qubits"] == "missing":
        del ack["max_qubits"]
    return json.dumps(ack).encode()


@pytest.mark.parametrize("case", list(_BAD_WIRE))
def test_a_malformed_handshake_or_reply_is_a_wire_error(case):
    """A bad hello_ack or an undecodable reply fails the node: with one node
    the run ends in NodeFailure, with two the batch moves to the live one."""
    changes, reply = _BAD_WIRE[case]
    task = TaskSpec(id=0, kind="density", readouts=("e:ZZ",),
                    circuit=Circuit(2, (Gate("H", (0,)), Gate("CZ", (0, 1)))))
    local = execute_tasks([task], ClusterConfig())
    for live in (False, True):
        listener = socket.create_server(("127.0.0.1", 0))
        bad = f"127.0.0.1:{listener.getsockname()[1]}"
        thread = threading.Thread(target=_fake_worker, daemon=True,
                                  args=(listener, _hello_ack(changes), reply))
        thread.start()
        try:
            if live:
                with live_worker() as addr:
                    moved = execute_tasks([task], ClusterConfig(mode="network",
                                                                nodes=(bad, addr)))
                assert [(r.value, r.node_id) for r in moved] == [(local[0].value, addr)]
            else:
                with pytest.raises(NodeFailure):
                    execute_tasks([task], ClusterConfig(mode="network", nodes=(bad,),
                                                        retry_limit=1))
        finally:
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()


# --- protocol 5: one gate table per batch, each shared gate prefix applied once ----


def _pin_gates():
    """Gates of three-qubit circuits: rotations, fixed gates and two RAW gates."""
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    v = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return [Gate("H", (0,)), Gate("RY", (1,), params=(0.3,)), Gate("CZ", (0, 1)),
            Gate("RX", (2,), params=(1.1,)), Gate("CNOT", (1, 2)), Gate("RZ", (0,), params=(0.4,)),
            Gate("RAW", (2,), raw=u), Gate("RAW", (1,), raw=v)]


def _density_row(i: int, circuit: Circuit, readouts: tuple[str, ...]) -> OverlapTable:
    """A density task as the one-row table it runs as."""
    (table,) = _density_tables([TaskSpec(id=i, kind="density", circuit=circuit,
                                         readouts=readouts)])
    return table


def _pin_tasks(case: str) -> list:
    """The rows of one pin, each a one-row table: overlap rows and density
    rows on the same circuits."""
    g = _pin_gates()

    def overlap(i, left, right, label="010", obs="XZY"):
        return one_row_table(i, Circuit(3, tuple(left)), Circuit(3, tuple(right)),
                             PauliString(3, obs), label, ("ax", "ay", "p0", "p1"))

    def density(i, gates):
        return _density_row(i, Circuit(3, tuple(gates)), ("e:ZXI", "e:IYZ"))

    if case == "prefix":  # one circuit is a prefix of another
        return [overlap(0, g[:3], g[:6]), overlap(1, g[:6], g[:3]), density(2, g[:3]),
                density(3, g[:6])]
    if case == "raw_divergence":  # a shared prefix, then different RAW gates, then one tail
        a, b = g[:3] + [g[6]] + g[3:6], g[:3] + [g[7]] + g[3:6]
        return [overlap(0, a, b), density(1, a), density(2, b)]
    if case == "two_labels":  # one circuit read under two input labels
        return [overlap(0, g[:6], g[:6], "000"), overlap(1, g[:6], g[:6], "101"),
                overlap(2, g[:4], g[:6], "101")]
    if case == "equal_values":  # value-equal gates as distinct objects
        again = _pin_gates()
        return [overlap(0, g[:7], again[:7]), density(1, again), density(2, g)]
    # "signed_zero": params of 0.0 and -0.0 are different gates
    plus, minus = (Gate("RX", (0,), params=(t,)) for t in (0.0, -0.0))
    return [overlap(0, g[:2] + [plus] + g[2:4], g[:2] + [minus] + g[2:4]),
            density(1, g[:2] + [minus, plus])]


def _one_batch(tasks, shots=None, seed=0):
    """The controller's own batch message for ``tasks`` on one node, and
    an in-thread worker's reply to it."""
    from tlpq.runtime import _batches

    (batch,) = _batches(tasks, 1, shots, seed)
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(batch.message)
        return batch.message, recv()


@pytest.mark.parametrize("shots", [None, 40])
@pytest.mark.parametrize("case", ["prefix", "raw_divergence", "two_labels", "equal_values",
                                  "signed_zero"])
def test_a_batch_answers_each_row_bit_for_bit_as_it_runs_alone(case, shots):
    def value(g):  # a gate's value, parameters and matrix by their exact bits
        return g.kind, g.qubits, np.array(g.params).tobytes(), np.asarray(g.raw).tobytes()

    tasks = _pin_tasks(case)
    message, reply = _one_batch(tasks, shots, seed=7)
    alone = [list(ExactBackend().run_task(t, shots, 7)[0]) for t in tasks]
    assert reply["type"] == "result"
    assert reply["values"] == alone  # ==, bit for bit
    local = execute_tasks(tasks, ClusterConfig(shots=shots, seed=7))
    assert [list(r.value) for (r,) in local] == alone
    # each distinct gate value crosses the wire once, 0.0 and -0.0 apart
    circuits = [c for t in tasks for c in t.circuits]
    assert len(message["gates"]["gates"]) == len({value(g) for c in circuits for g in c.gates})
    assert len(message["circuits"]) == len({tuple(map(value, c.gates)) for c in circuits})
    if case == "signed_zero":
        signs = [np.copysign(1.0, g["params"][0]) for g in message["gates"]["gates"]
                 if g["kind"] == "RX" and g["params"] == [0.0]]
        assert sorted(signs) == [-1.0, 1.0]


def test_a_density_row_never_lets_an_overlap_row_skip_its_unitarity_check():
    from tlpq.circuit import NotUnitary

    g = _pin_gates()
    bad = Gate("RAW", (1,), raw=np.array([[1, 0], [0.2, 0.5]], dtype=complex))
    prefix = g[:3] + [bad]
    rows = [_density_row(0, Circuit(3, tuple(prefix + g[3:5])), ("e:ZZZ",)),
            one_row_table(1, Circuit(3, tuple(prefix + g[5:6])), Circuit(3, tuple(g[:3])),
                          PauliString(3, "ZZZ"), "000")]
    with pytest.raises(NotUnitary) as local:
        ExactBackend().run_task(rows[1], None, 0)
    with pytest.raises(NotUnitary) as shared:  # locally, both rows in one call
        execute_tasks(rows, ClusterConfig())
    assert str(shared.value) == str(local.value)
    _, reply = _one_batch(rows)
    assert reply == {"type": "error", "id": 1, "message": str(local.value)}


def test_an_overlap_row_refuses_a_non_unitary_gate_that_a_density_row_runs():
    from tlpq.circuit import NotUnitary

    squash = Gate("RAW", (0,), raw=np.array([[1, 0], [0.2, 0.5]], dtype=complex))
    c = Circuit(1, (Gate("H", (0,)), squash))
    task = TaskSpec(id=0, kind="density", circuit=c, readouts=("e:Z", "e:X"))
    density = _density_row(0, c, task.readouts)
    overlap = one_row_table(1, c, c, PauliString(1, "Z"), "0")
    message = "RAW gate on (0,) is not unitary within 1e-10"
    v = squash.raw @ (np.array([1.0, 1.0]) / np.sqrt(2.0))
    want = [np.vdot(v, PAULI[p] @ v).real for p in "ZX"]
    (alone,) = execute_tasks([task], ClusterConfig())
    assert np.allclose(alone.value, want, atol=1e-14)
    # the density row (id 0) registers and pushes the gate before the overlap row reads it
    for rows in ([overlap], [density, overlap]):
        with pytest.raises(NotUnitary, match=f"^{re.escape(message)}$"):
            execute_tasks(rows, ClusterConfig())
    _, reply = _one_batch([density, overlap])
    assert reply == {"type": "error", "id": 1, "message": message}
    _, reply = _one_batch([density])
    assert reply == {"type": "result", "values": [list(alone.value)]}


def test_an_e_table_and_an_ax_table_sharing_one_cache_keep_the_ax_row_unitary():
    """An "e:"-only table pushes its states with unitary=False and an ax
    table with unitary=True: in one _PartStates, in either order, the ax row
    refuses the non-unitary gate that the e: row runs."""
    from tlpq.circuit import NotUnitary

    squash = Gate("RAW", (0,), raw=np.array([[1, 0], [0.2, 0.5]], dtype=complex))
    c = Circuit(1, (Gate("H", (0,)), squash))
    density = _density_row(0, c, ("e:Z",))
    ax = one_row_table(1, c, c, PauliString(1, "Z"), "0", ("ax",))
    (want,), _ = ExactBackend().run_task(density, None, 0)
    for first in (density, ax):
        states = _PartStates()
        if first is density:
            assert ExactBackend().run_rows([density], None, 0, states)[0].tolist() == [[want]]
        with pytest.raises(NotUnitary, match=r"^RAW gate on \(0,\) is not unitary"):
            ExactBackend().run_rows([ax], None, 0, states)
        assert ExactBackend().run_rows([density], None, 0, states)[0].tolist() == [[want]]
        with pytest.raises(NotUnitary):  # one call holding both
            ExactBackend().run_rows([density, ax], None, 0, states)


def test_ghz_cut_runs_its_320_density_tasks_as_16_tables_of_20_rows(monkeypatch):
    import tlpq.runtime as runtime
    from tlpq.cli import run_ghz_cut_pipeline

    seen = []
    real = runtime._run
    monkeypatch.setattr(runtime, "_run", lambda items, cfg: seen.append(items) or real(items, cfg))
    run_ghz_cut_pipeline(ClusterConfig())
    (items,) = seen
    assert [len(t) for t in items] == [20] * 16
    for k, (t, pauli) in enumerate(zip(items, PAULI_2Q)):
        assert isinstance(t, OverlapTable) and t.readouts == (f"e:{pauli}",)
        # setting 16 term + k of each term: ids 2 id and 2 id + 1, as the tasks had
        assert t.ids.tolist() == [2 * (16 * term + k) + part for term in range(10)
                                  for part in (0, 1)]
        assert t.observables == (PauliString(2, "II"),) and t.labels == ("00",)
        assert (t.left == t.right).all()


def _comb(k: int, depth: int = 6) -> list[Circuit]:
    """k circuits over one shared gate list: circuit i leaves it after i gates
    for a gate of its own, then all go on with the same tail."""
    shared = [Gate("RY", (q % 3,), params=(0.1 * (q + 1),)) for q in range(k + depth)]
    tail = [Gate("CZ", (0, 1)), Gate("RX", (2,), params=(0.5,))]
    return [Circuit(3, tuple(shared[:i] + [Gate("RZ", (i % 3,), params=(1.0 + i,))] + tail))
            for i in range(k)] + [Circuit(3, tuple(shared))]


@pytest.mark.parametrize("k", [1, 4, 16])
def test_a_batch_of_k_circuits_keeps_one_state_per_circuit(monkeypatch, k):
    import tlpq.runtime as runtime
    from tlpq.circuit import _gate_key

    made = []

    class Recorded(runtime._PartStates):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(runtime, "_PartStates", Recorded)
    steps = record_steps(monkeypatch)
    circuits = _comb(k)
    tasks = _density_tables([TaskSpec(id=i, kind="density", circuit=c, readouts=("e:ZZZ",))
                             for i, c in enumerate(circuits)])
    _, reply = _one_batch(tasks)
    assert reply["type"] == "result"
    (states,) = made  # the worker's one cache for the batch
    assert len(states) == len(circuits)  # end states only
    # every distinct gate prefix of the batch is applied once, and no other gate
    prefixes = {tuple(map(_gate_key, c.gates[:d])) for c in circuits
                for d in range(1, len(c.gates) + 1)}
    assert sum(map(len, steps)) == len(prefixes)
    # as one stack: one gate call per depth and qubit tuple
    depth = max(len(c.gates) for c in circuits)
    assert len(steps) == sum(len({c.gates[d].qubits for c in circuits if d < len(c.gates)})
                             for d in range(depth))


_GOOD_TABLE = {"n": 2, "gates": [{"kind": "H", "qubits": [0]}, {"kind": "CZ", "qubits": [0, 1]}]}


@pytest.mark.parametrize("change", [
    {"gates": [{"kind": "H", "qubits": [0]}]},  # a list, not circuit JSON
    {"gates": {"n": 2}},
    {"gates": {"n": 2, "gates": [{"kind": "H", "qubits": [0], "extra": 1}]}},
    {"circuits": [{"n": 2, "gates": [True]}]},
    {"circuits": [{"n": 2, "gates": [1.0]}]},
    {"circuits": [{"n": 2, "gates": [-1]}]},
    {"circuits": [{"n": 2, "gates": [0, 2]}]},  # past the end of a table of two
    {"circuits": [{"n": 2, "gates": ["0"]}]},
    {"circuits": [{"n": 1, "gates": [0, 1]}]},  # CZ on qubit 1 in a one-qubit circuit
    {"circuits": [{"n": 2.0, "gates": [0]}]},
    {"circuits": [{"n": 2, "gates": [0], "raw": []}]},
    # protocol 4: no gate table, circuits of gate dicts
    {"gates": None, "circuits": [{"n": 2, "gates": [{"kind": "H", "qubits": [0]}]}]},
], ids=["table_list", "table_without_gates", "table_bad_field", "bool_position",
        "float_position", "negative_position", "position_past_end", "text_position",
        "narrow_circuit", "float_width", "extra_field", "protocol_4"])
def test_a_malformed_batch_gets_an_error_and_the_worker_keeps_serving(change):
    good = {"type": "batch", "shots": None, "seed": 0, "gates": _GOOD_TABLE,
            "circuits": [{"n": 2, "gates": [0, 1]}],
            "items": [{"kind": "overlap", "observables": ["II"], "labels": ["00"],
                       "readout": ["e:ZZ"], "ids": [3], "left": [0], "right": [0],
                       "observable": [0], "label": [0]}]}
    bad = {**good, **change}
    if bad["gates"] is None:
        del bad["gates"]
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(bad)
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == -1, reply
        send(good)
        assert recv()["type"] == "result"


@pytest.mark.parametrize("change, want_id, message", [
    ({"id": "3"}, -1, "row id"),
    ({"id": 3.9}, -1, "row id"),
    ({"id": True}, -1, "row id"),
    ({"id": -3}, -1, "row id"),
    ({"input": 10}, 3, "input must be a string"),
    ({"readout": "ax"}, 3, "list of strings"),
    ({"readout": ["ax", 1]}, 3, "list of strings"),
])
def test_worker_checks_row_fields_rather_than_coercing_them(change, want_id, message):
    one = Circuit(1, (Gate("H", (0,)),))
    good = overlap_row(3, "Z", "1", 0, 0)
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(batch_message([{**good, **change}], [one]))
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == want_id
        assert message in reply["message"]
        send(batch_message([good], [one]))
        assert recv()["type"] == "result"


# --- protocol 6: one overlap table per item ------------------------------------------


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_GOOD_ITEM = {"kind": "overlap", "observables": ["Z", matrix_json(_X)], "labels": ["0", "1"],
              "readout": ["ax", "ay"], "ids": [5, 8], "left": [0, 1], "right": [1, 0],
              "observable": [0, 1], "label": [0, 1]}


@pytest.mark.parametrize("change, want_id", [
    ({"labels": None}, 5),  # None: the key is missing
    ({"ids": None}, -1),
    ({"left": 0}, 5),
    ({"ids": 5}, -1),
    ({"observables": "Z"}, 5),
    ({"right": [1]}, 5),
    ({"ids": [5]}, 5),  # the id rule holds: the reply names the first row
    ({"ids": [5.0, 8]}, -1),
    ({"ids": [True, 8]}, -1),
    ({"ids": ["5", 8]}, -1),
    ({"ids": [-5, 8]}, -1),
    ({"ids": [8, 5]}, 8),
    ({"ids": [5, 5]}, 5),
    ({"left": [0, 2]}, 5),
    ({"left": [-1, 1]}, 5),
    ({"right": [True, 0]}, 5),
    ({"observable": [0, 2]}, 5),
    ({"label": [0, 2]}, 5),
    ({"observables": [3, "Z"]}, 5),
    ({"observables": ["Q", "Z"]}, 5),
    ({"observables": [{"re": 1}, "Z"]}, 5),
    ({"labels": [0, "1"]}, 5),
    ({"labels": "01"}, 5),
    ({"readout": "ax"}, 5),
    ({"readout": ["ax", 1]}, 5),
    ({"kind": "estimator"}, 5),
    ({"kind": None}, 5),
    ({"extra": 1}, 5),
], ids=["missing_key", "missing_ids", "column_not_list", "ids_not_list",
        "observables_not_list", "unequal_lengths", "unequal_ids", "float_id", "bool_id",
        "text_id", "negative_id", "descending_ids", "repeated_ids", "position_past_end",
        "negative_position", "bool_position", "observable_past_end", "label_past_end",
        "number_observable", "bad_letters", "object_observable", "number_label",
        "labels_not_list", "readout_not_list", "readout_number", "estimator_kind",
        "no_kind", "extra_key"])
def test_worker_refuses_a_malformed_overlap_item_and_keeps_serving(change, want_id):
    circuits = [Circuit(1, (Gate("H", (0,)),)), Circuit(1, ())]
    good = {**batch_message([], circuits), "items": [_GOOD_ITEM]}
    bad = {**good, "items": [{**_GOOD_ITEM, **change}]}
    for key, value in change.items():
        if value is None:
            del bad["items"][0][key]
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(bad)
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == want_id, reply
        send(good)
        reply = recv()
    local = OverlapTable(circuits=circuits, observables=(PauliString(1, "Z"), _X),
                         labels=("0", "1"), ids=(5, 8), left=(0, 1), right=(1, 0),
                         observable=(0, 1), label=(0, 1))
    assert reply == {"type": "result",
                     "values": ExactBackend().run_rows([local], None, 0, _PartStates())[0].tolist()}


@pytest.mark.parametrize("items", [5, [5], "items", None],
                         ids=["number", "number_item", "text", "missing"])
def test_a_batch_whose_items_are_malformed_names_no_row(items):
    circuits = [Circuit(1, (Gate("H", (0,)),)), Circuit(1, ())]
    good = {**batch_message([], circuits), "items": [_GOOD_ITEM]}
    bad = {**good, "items": items}
    if items is None:
        del bad["items"]
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(bad)
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == -1, reply
        send(good)
        assert recv()["type"] == "result"


@st.composite
def small_plans(draw):
    """Two to four plans of one random channel: parts of width 1-3, Pauli
    or matrix observables per part, each plan its own observable set on one
    of one or two label sets, so the plans share their columns and nearly
    every draw has plans that share their labels too (a stack); and shots,
    None or 1-16, each half the time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    matrix = draw(st.lists(st.booleans(), min_size=len(widths), max_size=len(widths)))
    terms = draw(st.integers(1, 2))

    def fu():
        return FactorizedUnitary(terms=tuple(
            (complex(rng.normal(), rng.normal()), tuple(random_circuit(rng, w) for w in widths))
            for _ in range(terms)))

    m = draw(st.integers(1, 2))
    branches = tuple((tuple(complex(rng.normal(), rng.normal()) for _ in range(m)),
                      tuple(fu() for _ in range(m)))
                     for _ in range(draw(st.integers(1, 2))))
    channel = ChannelLCU(branches=branches)
    label_sets = [tuple("".join(rng.choice(list("01"), size=w)) for w in widths)
                  for _ in range(draw(st.integers(1, 2)))]
    plans = []
    for labels in draw(st.lists(st.sampled_from(label_sets), min_size=2, max_size=4)):
        obs = tuple(haar_unitary(2**w, rng) if is_matrix
                    else PauliString(w, "".join(rng.choice(list("IXYZ"), size=w)))
                    for w, is_matrix in zip(widths, matrix))
        plans.append(enumerate_subtasks(channel, labels, obs))
    shots = draw(st.integers(1, 16)) if draw(st.booleans()) else None
    return plans, shots, draw(st.integers(0, 40))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(small_plans())
def test_plans_give_the_same_results_in_every_mode_node_count_and_retry(case):
    plans, shots, k = case

    def results(cfg):
        out = execute_tasks(plans, cfg)
        nodes = set(cfg.nodes) if cfg.mode == "network" else set(range(cfg.nodes))
        assert {r.node_id for rows in out for r in rows} <= nodes
        # the plans that share their columns and labels run and reduce as one
        # stack, and each value has the bits of its plan run alone
        together = np.array(estimate_plans(plans, cfg))
        alone = np.array([aggregate(p, run_plan(p, cfg)) for p in plans])
        assert together.tobytes() == alone.tobytes()
        return [[(r.task_id, r.value, r.shots_used) for r in rows] for rows in out], \
            together.tobytes()

    base = results(ClusterConfig(nodes=1, shots=shots, seed=9))
    assert results(ClusterConfig(nodes=3, shots=shots, seed=9)) == base
    with live_worker() as a, live_worker() as b:
        assert results(ClusterConfig(mode="network", nodes=(a,), shots=shots, seed=9)) == base
        assert results(ClusterConfig(mode="network", nodes=(a, b), shots=shots, seed=9)) == base
    with live_worker(fail_after_tasks=k) as flaky, live_worker() as solid:
        assert results(ClusterConfig(mode="network", nodes=(flaky, solid), shots=shots, seed=9,
                                     retry_limit=2)) == base
