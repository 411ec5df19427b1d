"""Execution layer: sampling, the in-process backend, the TCP protocol, and
result aggregation.

Oracles here are dense linear algebra built inside the tests (kron products,
explicit density-matrix propagation) so the backend's tensor-contraction path
is checked against an independent computation.
"""

import json
import socket
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import PAULI, kron_all, pauli_label_matrix, haar_unitary

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
)
from tlpq.planner import ChannelLCU, NonUnitaryObservable, Plan, ShapeMismatch
from tlpq.runtime import (
    PROTOCOL_VERSION,
    CapabilityMismatch,
    ExactBackend,
    MissingResult,
    NodeFailure,
    OverlapSpec,
    TaskResult,
    WorkerServer,
    _readout_pairs,
    _sampled_mean,
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


def batch_message(rows: list[dict], circuits: list, shots=None, seed: int = 0) -> dict:
    """A batch message by hand: ``circuits`` are Circuits or gate JSON, and each
    row points into them by position."""
    return {"type": "batch", "shots": shots, "seed": seed,
            "circuits": [c if isinstance(c, dict) else circuit_to_json(c) for c in circuits],
            "tasks": rows}


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
        (val,), _ = ExactBackend().run_task(task, None, 0)
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
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    proj1 = np.diag([0.0, 1.0]).astype(complex)
    for trial in range(3):
        circ = random_map_circuit(rng, n)
        rho = dense_density(circ)
        assert np.real(np.trace(rho)) < 0.99  # the maps really lose weight
        full = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        rest = "".join(rng.choice(list("IXYZ")) for _ in range(n - 1))
        readouts = (f"e:{full}", f"e:{'I' * n}", f"p0:{rest}", f"p1:{rest}")
        expected = [
            np.trace(rho @ pauli_label_matrix(full)),
            np.trace(rho),
            np.trace(rho @ kron_all([proj0, pauli_label_matrix(rest)])),
            np.trace(rho @ kron_all([proj1, pauli_label_matrix(rest)])),
        ]
        task = TaskSpec(id=trial, kind="density", circuit=circ, readouts=readouts)
        values, used = ExactBackend().run_task(task, None, 0)
        assert used == 0
        for got, want in zip(values, expected):
            assert got == pytest.approx(float(np.real(want)), abs=1e-12)


def test_backend_sampled_density_with_lost_weight_converges(rng):
    circ = random_map_circuit(rng, 6)
    rho = dense_density(circ)
    assert np.real(np.trace(rho)) < 0.99
    readouts = ("e:IIIIII", "p1:ZZIXI")  # the kept weight Tr(rho), and a projector
    proj1 = np.diag([0.0, 1.0]).astype(complex)
    exact_e = float(np.real(np.trace(rho)))
    exact_p1 = float(np.real(np.trace(
        rho @ kron_all([proj1, pauli_label_matrix("ZZIXI")]))))
    errs = {}
    for n in (100, 10_000):
        draws = []
        for k in range(20):
            task = TaskSpec(id=k, kind="density", circuit=circ, readouts=readouts)
            draws.append(ExactBackend().run_task(task, n, seed=n)[0])
        draws = np.array(draws)
        errs[n] = float(np.mean(np.abs(draws - [exact_e, exact_p1])))
        if n == 10_000:
            # each shot is worth -1, 0 or +1, so 20 x 10^4 shots pin the mean to ~0.002
            assert np.mean(draws[:, 0]) == pytest.approx(exact_e, abs=0.01)
            assert np.mean(draws[:, 1]) == pytest.approx(exact_p1, abs=0.01)
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
        for desc, (wt, m) in zip(task.readouts, zip(*_readout_pairs(task, {}))):
            assert np.max(np.abs(law_of_pair(wt, m) - dense_law(rho, desc))) <= 1e-12, desc


@pytest.mark.parametrize("n", [2, 4, 6])
def test_readout_law_matches_dense_probabilities_on_density_circuits(rng, n):
    for trial in range(3):
        circ = random_map_circuit(rng, n)
        rho = dense_density(circ)
        assert np.real(np.trace(rho)) < 0.99  # the maps lose weight: P(0) > 0 everywhere
        task = TaskSpec(id=trial, kind="density", circuit=circ,
                        readouts=every_descriptor(rng, n))
        for desc, (wt, m) in zip(task.readouts, zip(*_readout_pairs(task, {}))):
            assert np.max(np.abs(law_of_pair(wt, m) - dense_law(rho, desc))) <= 1e-12, desc


def test_readout_law_of_overlap_tasks_matches_estimator_circuits(rng):
    for s in random_subtasks(rng, count_per_width=4):
        psi = dense_state(estimator_task(s, s.id).circuit)
        rho = np.outer(psi, psi.conj())
        readouts, descriptors = ("ax", "ay"), ("ax", "ay")
        if isinstance(s.observable, PauliString):  # the ancilla-branch projectors
            letters = s.observable.letters
            readouts += ("p0", "p1")
            descriptors += (f"p0:{letters}", f"p1:{letters}")
        task = OverlapSpec(id=s.id, left=s.left_circuit, right=s.right_circuit,
                           observable=s.observable, input_label=s.input_label,
                           readouts=readouts)
        for desc, (wt, m) in zip(descriptors, zip(*_readout_pairs(task, {}))):
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


# --- execute_tasks: local scheduling ------------------------------------------------


def make_tasks(rng, count: int = 9) -> list[TaskSpec | OverlapSpec]:
    """Alternating overlap and density tasks on two qubits."""
    tasks = []
    for i in range(count):
        if i % 2 == 0:
            tasks.append(OverlapSpec(
                id=i, left=random_circuit(rng, 2), right=random_circuit(rng, 2),
                observable=PauliString(2, "XZ"), input_label="01",
                readouts=("ax", "ay") if i % 4 == 0 else ("p1", "ay", "p0"),
            ))
        else:
            tasks.append(TaskSpec(id=i, kind="density", circuit=random_circuit(rng, 2),
                                  readouts=("e:XZ", "e:ZI")))
    return tasks


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
            rows = batch["tasks"]
            send({"type": "result", "values": [[float(r["id"])] for r in rows],
                  "shots_used": [0] * len(rows)})

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
    assert [[r["id"] for r in batches[k]["tasks"]] for k in "ab"] == [[0, 2], [1, 3]]


def test_worker_parses_each_circuit_once_and_simulates_each_state_once(rng, monkeypatch):
    import tlpq.runtime as runtime

    left = random_circuit(rng, 2)
    rights = [random_circuit(rng, 2) for _ in range(3)]
    tasks = [
        OverlapSpec(id=i, left=left, right=rights[i % 3], input_label=label,
                    observable=PauliString(2, "XZ" if i < 3 else "ZY"),
                    readouts=("ax", "ay") if i % 2 else ("p0", "ax", "p1"))
        for i, label in enumerate(["01"] * 5 + ["10"])
    ]
    local = execute_tasks(tasks, ClusterConfig(seed=2, shots=32))
    parsed, simulated = [], []
    real_parse, real_simulate = runtime.parse_circuit, runtime.simulate
    monkeypatch.setattr(runtime, "parse_circuit",
                        lambda obj, **kw: parsed.append(obj) or real_parse(obj, **kw))
    monkeypatch.setattr(runtime, "simulate",
                        lambda c, v: simulated.append(c) or real_simulate(c, v))
    with live_worker() as addr:  # one node: every row is in one batch
        net = execute_tasks(tasks, ClusterConfig(mode="network", nodes=(addr,), seed=2,
                                                 shots=32))
    assert [r.value for r in net] == [r.value for r in local]
    assert len(parsed) == 4  # one left and three right circuits
    states = {(c, t.input_label) for t in tasks for c in (t.left, t.right)}
    assert len(simulated) == len(states) == 6  # row 5 reads two circuits under label 10


def test_a_call_sends_one_batch_per_non_empty_start_node(rng, monkeypatch):
    import tlpq.runtime as runtime

    sent = []
    real_send = runtime._WorkerClient._send
    monkeypatch.setattr(runtime._WorkerClient, "_send",
                        lambda self, obj: sent.append((self.address, obj["type"]))
                        or real_send(self, obj))
    tasks = make_tasks(rng, count=9)
    plans = [factorized_plan(rng) for _ in range(3)]
    with live_worker() as a, live_worker() as b:
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


def test_worker_error_reply_names_the_row(rng):
    estimator = TaskSpec(id=5, kind="estimator", circuit=random_circuit(rng, 2),
                         readouts=("ax",))
    with live_worker() as addr:
        with pytest.raises(RuntimeError, match="task 5: task kind 'estimator'"):
            execute_tasks(make_tasks(rng, count=4) + [estimator],
                          ClusterConfig(mode="network", nodes=(addr,)))


# --- wire protocol, spoken by hand ---------------------------------------------------


def test_protocol_hello_handshake():
    with live_worker(max_qubits=7) as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        ack = recv()
        assert ack == {"type": "hello_ack", "proto": PROTOCOL_VERSION,
                       "max_qubits": 7}


def test_protocol_version_mismatch_closes_connection():
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": 999})
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
    task = TaskSpec(id=11, kind="density", circuit=circ, readouts=("e:XZ", "p1:Y"))
    local_values, local_used = ExactBackend().run_task(task, 50, 3)
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(batch_message(
            [{"id": 11, "kind": "density", "circuit": 0, "readout": ["e:XZ", "p1:Y"]}],
            [circ], shots=50, seed=3,
        ))
        reply = recv()
    assert reply["type"] == "result" and reply["shots_used"] == [local_used]
    assert all(isinstance(v, float) for v in reply["values"][0])  # plain floats
    assert tuple(reply["values"][0]) == local_values


def test_protocol_refuses_estimator_tasks_and_keeps_serving(rng):
    circ = random_circuit(rng, 2)
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        send(batch_message([{"id": 12, "kind": "estimator", "circuit": 0,
                             "readout": ["ax", "ay"]}], [circ]))
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == 12
        assert "'estimator'" in reply["message"]
        send(batch_message([{"id": 13, "kind": "density", "circuit": 0,
                             "readout": ["e:ZZ"]}], [circ]))
        assert recv()["type"] == "result"


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
    good = {"id": 41, "kind": "density", "circuit": 0, "readout": ["e:Z"]}
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        # the error names the failing row, not the batch's first one
        send(batch_message([good, {"id": 42, "kind": "bogus", "circuit": 0,
                                   "readout": ["ax"]}], [one]))
        reply = recv()
        assert reply["type"] == "error" and reply["id"] == 42
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        assert recv()["type"] == "hello_ack"


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
    for i, indices, c in zip(plan.ids, plan.indices, plan.coefficient):
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


def overlap_task(s: Subtask, task_id: int) -> OverlapSpec:
    return OverlapSpec(id=task_id, left=s.left_circuit, right=s.right_circuit,
                       observable=s.observable, input_label=s.input_label)


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
    tasks = [
        OverlapSpec(id=i, left=left, right=r, observable=PauliString(2, "XZ"),
                    input_label="01")
        for i, r in enumerate(rights)
    ]
    alone = [ExactBackend().run_task(t, None, 0)[0] for t in tasks]
    calls = []
    real = runtime.simulate
    monkeypatch.setattr(runtime, "simulate", lambda c, v: calls.append(c) or real(c, v))
    batch = execute_tasks(tasks, ClusterConfig())
    assert len(calls) == 4  # one left state, three right states
    assert [r.value for r in batch] == alone


def test_overlap_spec_validates_operands(rng):
    one = Circuit(1, (Gate("H", (0,)),))
    two = Circuit(2, (Gate("H", (0,)),))
    with pytest.raises(ShapeMismatch):
        OverlapSpec(id=0, left=two, right=one, observable=PauliString(2, "ZZ"),
                    input_label="00")
    with pytest.raises(ShapeMismatch):
        OverlapSpec(id=0, left=two, right=two, observable=PauliString(2, "ZZ"),
                    input_label="0")
    with pytest.raises(ShapeMismatch):
        OverlapSpec(id=0, left=two, right=two, observable=PauliString(1, "Z"),
                    input_label="00")
    with pytest.raises(ShapeMismatch):
        OverlapSpec(id=0, left=two, right=two, observable=np.eye(2),
                    input_label="00")
    with pytest.raises(NonUnitaryObservable):
        OverlapSpec(id=0, left=one, right=one, observable=np.diag([1.0, 0.5]),
                    input_label="0")
    for readouts in ((), ("p2",), ("ax", "e:ZZ")):
        with pytest.raises(ValueError, match="overlap readouts"):
            OverlapSpec(id=0, left=two, right=two, observable=PauliString(2, "ZZ"),
                        input_label="00", readouts=readouts)
    unitary = haar_unitary(4, rng)
    for readouts in (("p0",), ("ax", "p1")):  # the projectors need Pauli letters
        with pytest.raises(ValueError, match="Pauli observable"):
            OverlapSpec(id=0, left=two, right=two, observable=unitary,
                        input_label="00", readouts=readouts)
    OverlapSpec(id=0, left=two, right=two, observable=unitary, input_label="00",
                readouts=("ay",))


def test_overlap_task_rejects_non_unitary_raw_gate():
    squash = Circuit(1, (Gate("RAW", (0,), raw=np.diag([1.0, 0.5])),))
    task = OverlapSpec(id=0, left=squash, right=squash,
                       observable=PauliString(1, "Z"), input_label="0")
    with pytest.raises(ValueError):
        ExactBackend().run_task(task, None, 0)


def test_overlap_task_capability_is_the_part_width():
    circ = Circuit(3, (Gate("H", (0,)),))
    task = OverlapSpec(id=0, left=circ, right=circ,
                       observable=PauliString(3, "ZZZ"), input_label="000")
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
        ExactBackend().run_task(OverlapSpec(id=task_id, left=left, right=right,
                                            observable=obs, input_label="10"), shots, 3)
        for task_id, obs, _ in cases
    ]
    with live_worker() as addr, raw_connection(addr) as (send, recv):
        send({"type": "hello", "proto": PROTOCOL_VERSION})
        recv()
        # both rows in one batch, its two circuits sent once: replies come in row order
        send(batch_message([overlap_row(task_id, wire_obs, "10") for task_id, _, wire_obs in cases],
                           [left, right], shots, 3))
        reply = recv()
    assert reply["type"] == "result"
    assert reply["shots_used"] == [used for _, used in local]
    assert [tuple(v) for v in reply["values"]] == [values for values, _ in local]


_NON_UNITARY = {"kind": "RAW", "qubits": [0], "raw": [[[1, 0], [0.2, 0]], [[0, 0], [0.5, 0]]]}


@pytest.mark.parametrize("case", [
    "mismatched_widths", "non_unitary_raw", "bad_input_label", "too_wide",
    "non_unitary_observable", "other_readouts", "empty_readouts", "unknown_readout",
    "p0_on_matrix_observable", "circuit_out_of_range", "negative_circuit",
])
def test_worker_rejects_bad_overlap_task_and_keeps_serving(case):
    two = circuit_to_json(Circuit(2, (Gate("H", (0,)), Gate("CZ", (0, 1)))))
    good = overlap_row(78, "ZX", "01", 0, 0)
    row = {**good, "id": 77}
    circuits = [two]
    if case == "mismatched_widths":
        circuits.append({"n": 1, "gates": [{"kind": "H", "qubits": [0]}]})
        row["right"] = 1
    elif case == "non_unitary_raw":
        circuits.append({"n": 2, "gates": [_NON_UNITARY]})
        row["left"] = 1
    elif case == "bad_input_label":
        row["input"] = "012"
    elif case == "too_wide":
        circuits.append({"n": 3, "gates": [{"kind": "H", "qubits": [2]}]})
        row.update(left=1, right=1, obs="ZZZ", input="000")
    elif case == "non_unitary_observable":
        row["obs"] = matrix_json(np.diag([1.0, 1.0, 1.0, 0.5]))
    elif case == "other_readouts":
        row["readout"] = ["e:ZX"]
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
        execute_tasks([plans[0], overlap_task(plans[0].row(0), 0)], ClusterConfig())


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
            return OverlapSpec(id=s.id, left=s.left_circuit, right=s.right_circuit,
                               observable=s.observable, input_label=s.input_label,
                               readouts=readouts)

        alone = {d: _readout_pairs(task((d,)), {}) for d in ("ax", "ay", "p0", "p1")}
        for size in range(1, 5):
            for subset in combinations(("ax", "ay", "p0", "p1"), size):
                for readouts in permutations(subset):
                    ws, ms = _readout_pairs(task(readouts), {})
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
    tasks = [overlap_task(s, s.id) for s in reversed(list(plan))]
    assert run_plan(plan, cfg) == execute_tasks(tasks, cfg)


@pytest.mark.parametrize("shots", [None, 64])
def test_empty_plan_runs_to_no_results(shots):
    cfg = ClusterConfig(shots=shots, seed=5)
    assert run_plan(Plan.from_subtasks([]), cfg) == []
    assert execute_tasks([Plan.from_subtasks([])] * 2, cfg) == [[], []]


# --- stacked overlaps: every value has the bits of its row's own np.vdot -----------


def overlap_pairs_by_row(t):
    """The reference: every row's readouts from its own part states, one
    ``np.vdot`` per value, as the routine read them before it was stacked."""
    from tlpq.runtime import _READOUT_SIDES, _apply_observable, _part_state

    w, m = [], []
    for o, l, r, b in zip(t.observable, t.left, t.right, t.label):
        part = {"left": _part_state(t.circuits[l], t.labels[b]),
                "right": _part_state(t.circuits[r], t.labels[b])}
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
    from tlpq.runtime import _Table

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
    return _Table(tuple(range(n_rows)), readouts, tuple(circuits), tuple(observables),
                  tuple(labels), left, right, observable, label)


@pytest.mark.parametrize("readouts", [("ax", "ay"), ("ay",), ("p1", "ax", "p0", "ay"),
                                      ("p0",), ("p1", "p0")])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 40])
def test_stacked_overlaps_equal_per_row_vdot_bit_for_bit(rng, readouts, n_rows):
    from tlpq.runtime import _overlap_pairs

    for widths in (range(1, 7), (3,)):
        t = random_overlap_table(rng, n_rows, readouts, widths)
        got = _overlap_pairs(t, {})
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


@pytest.mark.parametrize("values", [[[None, 0.0]], [[1.0]], [[1.0, 2.0, 3.0]], [["a", 0.0]],
                                    [1.0], [[float("nan"), 0.0]]])
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
    task = OverlapSpec(id=0, left=random_circuit(rng, 1), right=random_circuit(rng, 1),
                       observable=PauliString(1, "Z"), input_label="0")
    try:
        with pytest.raises(NodeFailure, match="unexpected reply"):
            execute_tasks([task], ClusterConfig(mode="network", nodes=(address,)))
    finally:
        thread.join(timeout=5)
        listener.close()
