"""Execute task plans on a pool of simulated QPU nodes and aggregate results.

Two node flavors speak one task format: in-process exact backends (optionally
shot-sampling) and remote workers reached over a TCP newline-delimited JSON
protocol. Scheduling is static round-robin by task id; aggregation is an
ordered reduce so results are bit-identical across node counts and transports.

A plan's subtasks and the GHZ gram entries run as "overlap" tasks: the backend
simulates the left and right gate lists on the part's w qubits and forms
z = <U_r psi0| O U_l psi0>, which fixes the single-ancilla estimator's readouts
(ax = Re z, ay = Im z, and the ancilla-branch projectors p0 / p1). The wire
carries overlap and density tasks; "estimator" tasks run only in-process, as
the reference the tests hold overlap tasks to.

Every readout of every task kind is a pair (w, m) with one outcome law:
P(+1) = (w + m) / 2, P(-1) = (w - m) / 2, P(0) = 1 - w. Exact mode returns m;
sampled mode returns the mean of draws from that law.
"""

from __future__ import annotations

import functools
import json
import socket
import socketserver
import sys
import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .circuit import (
    PAULI_1Q,
    Circuit,
    PauliString,
    basis_state,
    circuit_to_json,
    parse_circuit,
    simulate,
    _evolve,
    _matrix_from_json,
    _matrix_to_json,
)
from .planner import Subtask, check_overlap_operands

__all__ = [
    "ClusterConfig",
    "TaskSpec",
    "OverlapSpec",
    "TaskResult",
    "ExactBackend",
    "NodeFailure",
    "CapabilityMismatch",
    "MissingResult",
    "PROTOCOL_VERSION",
    "sample_shots",
    "overlap_value",
    "execute_tasks",
    "run_plan",
    "aggregate",
    "WorkerServer",
    "serve_worker",
]

PROTOCOL_VERSION = 3


class NodeFailure(RuntimeError):
    """Raised when a task cannot be completed within the retry budget."""


class CapabilityMismatch(ValueError):
    """Raised when a task exceeds what the target node can execute."""


class MissingResult(KeyError):
    """Raised when aggregation lacks a result for a plan task."""


@dataclass(frozen=True)
class ClusterConfig:
    """How to run a plan: local in-process nodes or remote TCP workers.

    mode="local": ``nodes`` is a node count. mode="network": ``nodes`` is a
    tuple of "host:port" worker addresses. ``shots=None`` means exact
    expectations; otherwise each readout is estimated from that many samples.
    """

    mode: str = "local"
    nodes: int | tuple[str, ...] = 1
    shots: int | None = None
    seed: int = 0
    retry_limit: int = 2

    def __post_init__(self):
        if self.mode not in ("local", "network"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "local":
            if not isinstance(self.nodes, int) or self.nodes < 1:
                raise ValueError("local mode needs a node count >= 1")
        else:
            addrs = tuple(self.nodes) if not isinstance(self.nodes, int) else ()
            if not addrs or not all(isinstance(a, str) and ":" in a for a in addrs):
                raise ValueError("network mode needs a tuple of host:port addresses")
            object.__setattr__(self, "nodes", addrs)
        if self.shots is not None and (not isinstance(self.shots, int) or self.shots < 1):
            raise ValueError("shots must be >= 1 when present")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """One task given as a circuit plus readout descriptors.

    kind="density" admits non-unitary RAW maps: each gate is one linear map,
    so the output |A0><A0| (A the product of the gates) has rank one, and the
    task pushes the unnormalized vector A|0...0> through the gates without
    renormalization. kind="estimator" simulates a unitary circuit from
    |0...0>; it runs only in-process (workers refuse it), as the reference
    for overlap tasks and their readout law.
    Readout descriptors and their (w, m) pairs on the task's vector v:
      - "e:<P>": w = |v|^2, m = <v|P|v>
      - "p0:<P>" / "p1:<P>": the same on the ancilla-0 / ancilla-1 half of v
      - "ax" / "ay": w = |v|^2, m = 2 Re / 2 Im <v0|v1> (qubit 0 is the ancilla)
    """

    id: int
    kind: str
    circuit: Circuit
    readouts: tuple[str, ...]

    @property
    def n_qubits(self) -> int:
        return self.circuit.n_qubits


_OVERLAP_READOUTS = frozenset(("ax", "ay", "p0", "p1"))


@dataclass(frozen=True, eq=False)
class OverlapSpec:
    """One per-part overlap z = <r| O |l> as a task, with r = U_right|label>
    and l = U_left|label>.

    It carries two gate lists, an observable (a PauliString or a unitary
    matrix) and an input label, not a synthesized estimator circuit. Its
    readouts are those of ``build_estimator_circuit``'s state, as (w, m)
    pairs taken from the part states directly:
      - "ax" / "ay": (1, Re z) / (1, Im z)
      - "p0": (|r|^2 / 2, <r|O|r> / 2), the ancilla-0 branch
      - "p1": (|l|^2 / 2, <l|O|l> / 2), the ancilla-1 branch
    p0 / p1 need a Pauli observable. The width is that of the part; no
    ancilla is added.
    """

    id: int
    left: Circuit
    right: Circuit
    observable: PauliString | np.ndarray
    input_label: str
    readouts: tuple[str, ...] = ("ax", "ay")

    kind: ClassVar[str] = "overlap"

    def __post_init__(self):
        check_overlap_operands(self.left, self.right, self.observable, self.input_label)
        if not self.readouts or not _OVERLAP_READOUTS.issuperset(self.readouts):
            raise ValueError(
                f"overlap readouts must be drawn from {sorted(_OVERLAP_READOUTS)}, "
                f"got {list(self.readouts)}"
            )
        if not isinstance(self.observable, PauliString):
            if not {"p0", "p1"}.isdisjoint(self.readouts):
                raise ValueError("overlap readouts p0 / p1 need a Pauli observable")
            object.__setattr__(self, "observable", np.asarray(self.observable, dtype=complex))

    @property
    def n_qubits(self) -> int:
        return self.left.n_qubits


@dataclass(frozen=True)
class TaskResult:
    task_id: int
    value: tuple[float, ...]  # one float per readout
    shots_used: int
    node_id: int | str


def sample_shots(exact_probs, n: int, rng: np.random.Generator) -> np.ndarray:
    """Empirical frequency vector of n multinomial draws from exact_probs."""
    p = np.asarray(exact_probs, dtype=float)
    total = float(np.sum(p))
    if abs(total - 1.0) > 1e-9 or np.any(p < -1e-9):
        raise ValueError("probabilities must be normalized within 1e-9")
    p = np.clip(p, 0.0, None)
    p = p / float(np.sum(p))
    if n < 1:
        raise ValueError("need at least one sample")
    counts = rng.multinomial(n, p)
    return counts / float(n)


def _parse_readout(desc: str, n_qubits: int) -> tuple[str | None, str]:
    """Split a readout descriptor into (ancilla part, Pauli letters over the rest)."""
    if desc in ("ax", "ay"):
        return desc, "I" * (n_qubits - 1)
    for prefix in ("p0:", "p1:", "e:"):
        if desc.startswith(prefix):
            letters = desc[len(prefix):]
            want = n_qubits if prefix == "e:" else n_qubits - 1
            if len(letters) != want or any(ch not in "IXYZ" for ch in letters):
                raise ValueError(f"bad readout descriptor {desc!r}")
            return (None if prefix == "e:" else prefix[:2]), letters
    raise ValueError(f"unknown readout descriptor {desc!r}")


def _part_state(c: Circuit, input_label: str) -> np.ndarray:
    """U|label> on the part's own qubits (RAW gates must be unitary)."""
    return simulate(c, basis_state(c.n_qubits, int(input_label, 2)))


@functools.lru_cache(maxsize=64)
def _pauli_action(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """A Pauli string as a signed permutation: (P psi)[i] = phase[i] * psi[source[i]].

    Each one-qubit Pauli has one nonzero per row, so row bit i_q reads column
    bit col[i_q] with coefficient P[i_q, col[i_q]]; no 2^w x 2^w matrix is built.
    """
    n = len(letters)
    index = np.arange(2**n)
    source = np.zeros(2**n, dtype=np.intp)
    phase = np.ones(2**n, dtype=complex)
    for q, ch in enumerate(letters):
        mat = PAULI_1Q[ch]
        col = np.argmax(np.abs(mat), axis=1)
        bit = (index >> (n - 1 - q)) & 1
        source |= col[bit] << (n - 1 - q)
        phase *= mat[bit, col[bit]]
    source.flags.writeable = False  # cached and shared by every caller
    phase.flags.writeable = False
    return source, phase


def _apply_observable(observable: PauliString | np.ndarray, state: np.ndarray) -> np.ndarray:
    """O|state>: a signed permutation for Pauli letters, a matvec for a matrix."""
    if not isinstance(observable, PauliString):
        return observable @ state
    source, phase = _pauli_action(observable.letters)
    return phase * state[source]


def overlap_value(left_state: np.ndarray, right_state: np.ndarray, observable) -> complex:
    """z = <right_state| O |left_state>.

    Every overlap task's value comes from this one function, so local batches,
    single tasks on workers and retried tasks produce bit-identical values.
    """
    return complex(np.vdot(right_state, _apply_observable(observable, left_state)))


def _readout_pair(desc: str, state: np.ndarray) -> tuple[float, float]:
    """(w, m) of one readout descriptor on an n-qubit vector (qubit 0 is the top bit).

    "e:P" reads the whole vector, "p0:P" / "p1:P" its ancilla-0 / ancilla-1
    half; "ax" / "ay" read 2 Re / 2 Im <v0|v1> of the two halves.
    """
    anc, letters = _parse_readout(desc, state.size.bit_length() - 1)
    halves = state.reshape(2, -1)
    if anc in ("ax", "ay"):
        z = np.vdot(halves[0], halves[1])
        m = 2.0 * float(z.real if anc == "ax" else z.imag)
    else:
        if anc is not None:
            state = halves[0 if anc == "p0" else 1]
        m = overlap_value(state, state, PauliString(len(letters), letters)).real
    return float(np.vdot(state, state).real), m


def _overlap_pair(
    desc: str, left: np.ndarray, right: np.ndarray, observable
) -> tuple[float, float]:
    """(w, m) of one overlap-task readout (see OverlapSpec) from its part states."""
    if desc in ("ax", "ay"):
        z = overlap_value(left, right, observable)
        return 1.0, (z.real if desc == "ax" else z.imag)
    state = right if desc == "p0" else left
    w = float(np.vdot(state, state).real) / 2.0
    return w, overlap_value(state, state, observable).real / 2.0


def _readout_pairs(
    task: TaskSpec | OverlapSpec, states: dict
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The (w, m) pairs of a task's readouts, as (all w, all m); ``states`` is
    run_task's cache."""
    if task.kind == "overlap":
        sides = []
        for c in (task.left, task.right):
            key = (c, task.input_label)
            if key not in states:
                states[key] = _part_state(c, task.input_label)
            sides.append(states[key])
        if task.readouts == ("ax", "ay"):  # a plan subtask: one overlap per task
            z = overlap_value(sides[0], sides[1], task.observable)
            return (1.0, 1.0), (z.real, z.imag)
        pairs = [_overlap_pair(desc, *sides, task.observable) for desc in task.readouts]
    else:
        n = task.n_qubits
        if task.kind == "estimator":
            state = simulate(task.circuit, basis_state(n))
        elif task.kind == "density":
            # rank one: rho = |A0><A0|, so every readout is read from A|0...0>
            state = _evolve(
                task.circuit, basis_state(n).reshape((2,) * n), check_unitary=False
            ).reshape(-1)
        else:
            raise ValueError(f"unknown task kind {task.kind!r}")
        pairs = [_readout_pair(desc, state) for desc in task.readouts]
    return tuple(w for w, _ in pairs), tuple(m for _, m in pairs)


def _sampled_mean(w: float, m: float, shots: int, rng: np.random.Generator) -> float:
    """Mean of ``shots`` draws of the readout law P(+1) = (w + m) / 2,
    P(-1) = (w - m) / 2, P(0) = 1 - w, drawn in the order [-1, 0, +1].

    A lost weight 1 - w of 1e-12 or less counts as 0, so the multinomial
    spends no draw on it.
    """
    lost = 1.0 - w
    probs = [(w - m) / 2.0, lost if lost > 1e-12 else 0.0, (w + m) / 2.0]
    freq = sample_shots(probs, shots, rng)
    return float(freq[2] - freq[0])


@dataclass
class ExactBackend:
    """In-process node: dense statevector simulation of every task kind up to 12 qubits.

    Stateless between calls; with shots, the RNG stream is derived from
    (seed, task id, readout index) so results do not depend on which node or
    transport ran the task.
    """

    max_qubits: int = 12

    def run_task(
        self,
        task: TaskSpec | OverlapSpec,
        shots: int | None,
        seed: int,
        states: dict | None = None,
    ) -> tuple[tuple[float, ...], int]:
        """Run one task; returns (one value per readout, shots used).

        ``states`` lets a batch of overlap tasks share part states: it maps
        (circuit, input label) to the simulated state and is filled on a miss.
        """
        n = task.n_qubits
        if n > self.max_qubits:
            raise CapabilityMismatch(
                f"task {task.id} needs {n} qubits, node supports {self.max_qubits}"
            )
        weights, means = _readout_pairs(task, {} if states is None else states)
        if shots is None:
            return means, 0
        values = tuple(
            _sampled_mean(w, m, shots, np.random.default_rng((seed, task.id, ridx)))
            for ridx, (w, m) in enumerate(zip(weights, means))
        )
        return values, shots * len(means)


# --- wire protocol (network mode) ----------------------------------------------

def _task_message(task: TaskSpec | OverlapSpec, shots: int | None, seed: int) -> dict:
    msg: dict = {"type": "task", "id": task.id, "kind": task.kind}
    if task.kind == "overlap":
        obs = task.observable
        msg["left"] = circuit_to_json(task.left)
        msg["right"] = circuit_to_json(task.right)
        msg["obs"] = obs.letters if isinstance(obs, PauliString) else _matrix_to_json(obs)
        msg["input"] = task.input_label
    else:
        msg["circuit"] = circuit_to_json(task.circuit)
    msg["readout"] = list(task.readouts)
    msg["shots"] = shots
    msg["seed"] = seed
    return msg


def _task_from_message(msg: dict) -> TaskSpec | OverlapSpec:
    """Decode a task message; the wire carries only overlap and density tasks."""
    kind = msg["kind"]
    readouts = tuple(str(r) for r in msg["readout"])
    if kind == "overlap":
        left = parse_circuit(msg["left"])
        obs = msg["obs"]
        return OverlapSpec(
            id=int(msg["id"]),
            left=left,
            right=parse_circuit(msg["right"]),
            observable=(
                PauliString(left.n_qubits, obs)
                if isinstance(obs, str)
                else _matrix_from_json(obs, "observable")
            ),
            input_label=str(msg["input"]),
            readouts=readouts,
        )
    if kind != "density":
        raise ValueError(
            f"task kind {kind!r} is not accepted over the wire "
            f"(protocol {PROTOCOL_VERSION} carries overlap and density tasks)"
        )
    return TaskSpec(
        id=int(msg["id"]),
        kind=kind,
        circuit=parse_circuit(msg["circuit"], require_unitary=False),
        readouts=readouts,
    )


class _WorkerHandler(socketserver.StreamRequestHandler):
    def handle(self):  # one connection; one JSON message per line
        for raw_line in self.rfile:
            line = raw_line.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                msg = json.loads(line)
                mtype = msg["type"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                self._send({"type": "error", "id": -1, "message": f"malformed message: {exc}"})
                continue
            if mtype == "hello":
                if msg.get("proto") != PROTOCOL_VERSION:
                    self._send(
                        {
                            "type": "error",
                            "id": -1,
                            "message": f"unsupported protocol {msg.get('proto')!r}",
                        }
                    )
                    return  # close the connection on version mismatch
                self._send(
                    {
                        "type": "hello_ack",
                        "proto": PROTOCOL_VERSION,
                        "max_qubits": self.server.backend.max_qubits,
                    }
                )
            elif mtype == "task":
                self._handle_task(msg)
            elif mtype == "shutdown":
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return
            else:
                self._send({"type": "error", "id": -1, "message": f"unknown type {mtype!r}"})

    def _handle_task(self, msg: dict):
        task_id = msg.get("id", -1)
        try:
            task = _task_from_message(msg)
            shots = msg.get("shots")
            shots = None if shots is None else int(shots)
            seed = int(msg.get("seed", 0))
            self.server.count_task()
            values, shots_used = self.server.backend.run_task(task, shots, seed)
        except Exception as exc:  # report, keep serving
            self._send({"type": "error", "id": task_id, "message": str(exc)})
            return
        self._send(
            {
                "type": "result",
                "id": task.id,
                "values": [float(v) for v in values],
                "shots_used": shots_used,
            }
        )

    def _send(self, obj: dict):
        if self.server.should_drop():
            # testing hook: simulate a crashed node by slamming the connection
            self.connection.close()
            raise ConnectionAbortedError("worker dropped by failure-injection hook")
        self.wfile.write((json.dumps(obj) + "\n").encode("utf-8"))
        self.wfile.flush()


class WorkerServer(socketserver.ThreadingTCPServer):
    """TCP worker speaking the task protocol; one JSON message per line.

    ``fail_after_tasks`` is a failure-injection hook for tests: after that many
    tasks have been accepted, the worker drops connections as if it crashed.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], max_qubits: int = 12,
                 fail_after_tasks: int | None = None):
        super().__init__(address, _WorkerHandler)
        self.backend = ExactBackend(max_qubits=max_qubits)
        self.fail_after_tasks = fail_after_tasks
        self._tasks_seen = 0
        self._lock = threading.Lock()

    def count_task(self):
        with self._lock:
            self._tasks_seen += 1

    def should_drop(self) -> bool:
        with self._lock:
            return (
                self.fail_after_tasks is not None
                and self._tasks_seen > self.fail_after_tasks
            )

    def handle_error(self, request, client_address):
        # A controller hanging up mid-stream (or the failure-injection hook)
        # is routine, not a server error worth a traceback.
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, BrokenPipeError, OSError)):
            return
        super().handle_error(request, client_address)


def serve_worker(listen_address: str, *, max_qubits: int = 12, announce=None):
    """Run a worker until a shutdown message arrives. Blocks."""
    host, _, port_text = listen_address.rpartition(":")
    server = WorkerServer((host or "127.0.0.1", int(port_text)), max_qubits=max_qubits)
    bound = server.server_address
    line = f"tlpq-worker listening on {bound[0]}:{bound[1]}"
    if announce is None:
        print(line, flush=True)
    else:
        announce(line)
    try:
        server.serve_forever()
    finally:
        server.server_close()


class _WorkerClient:
    """Controller-side persistent connection to one worker."""

    def __init__(self, address: str):
        self.address = address
        self.sock: socket.socket | None = None
        self.file = None
        self.max_qubits: int | None = None

    def _connect(self):
        host, _, port_text = self.address.rpartition(":")
        self.sock = socket.create_connection((host, int(port_text)), timeout=30)
        self.file = self.sock.makefile("rwb")
        self._send({"type": "hello", "proto": PROTOCOL_VERSION})
        ack = self._recv()
        if ack.get("type") != "hello_ack" or ack.get("proto") != PROTOCOL_VERSION:
            raise ConnectionError(f"bad handshake from {self.address}: {ack}")
        self.max_qubits = int(ack["max_qubits"])

    def _send(self, obj: dict):
        self.file.write((json.dumps(obj) + "\n").encode("utf-8"))
        self.file.flush()

    def _recv(self) -> dict:
        line = self.file.readline()
        if not line:
            raise ConnectionError(f"connection to {self.address} closed")
        return json.loads(line.decode("utf-8"))

    def run_task(
        self, task: TaskSpec | OverlapSpec, shots: int | None, seed: int
    ) -> tuple[tuple[float, ...], int]:
        if self.sock is None:
            self._connect()
        if task.n_qubits > self.max_qubits:
            raise CapabilityMismatch(
                f"task {task.id} needs {task.n_qubits} qubits, "
                f"worker {self.address} supports {self.max_qubits}"
            )
        self._send(_task_message(task, shots, seed))
        reply = self._recv()
        if reply.get("type") == "error":
            raise RuntimeError(f"worker {self.address}: {reply.get('message')}")
        if reply.get("type") != "result" or reply.get("id") != task.id:
            raise ConnectionError(f"unexpected reply from {self.address}: {reply}")
        values = tuple(float(v) for v in reply["values"])
        return values, int(reply["shots_used"])

    def shutdown(self):
        try:
            if self.sock is None:
                self._connect()
            self._send({"type": "shutdown"})
        except OSError:
            pass
        self.close()

    def close(self):
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        self.sock = None
        self.file = None


def execute_tasks(
    tasks: list[TaskSpec | OverlapSpec], cfg: ClusterConfig
) -> list[TaskResult]:
    """Run every task exactly once; assignment is task id modulo node count.

    Dead nodes are skipped; a failed dispatch retries on the next node in ring
    order, and the task only fails after retry_limit distinct attempts.
    Results are returned in ascending task id order. In local mode the overlap
    tasks of one call share their part states: each distinct (circuit object,
    input label) is simulated once and kept until the call returns.
    """
    tasks = sorted(tasks, key=lambda t: t.id)
    if cfg.mode == "local":
        backend = ExactBackend()
        worst = max((t.n_qubits for t in tasks), default=0)
        if worst > backend.max_qubits:
            raise CapabilityMismatch(
                f"plan needs {worst} qubits, nodes support {backend.max_qubits}"
            )
        states: dict = {}
        out = []
        for t in tasks:
            values, shots_used = backend.run_task(t, cfg.shots, cfg.seed, states)
            out.append(
                TaskResult(
                    task_id=t.id,
                    value=values,
                    shots_used=shots_used,
                    node_id=t.id % cfg.nodes,
                )
            )
        return out
    addresses = list(cfg.nodes)
    clients = [_WorkerClient(a) for a in addresses]
    alive = [True] * len(clients)
    out = []
    try:
        for t in tasks:
            start = t.id % len(clients)
            attempts = 0
            result: TaskResult | None = None
            failure: Exception | None = None
            for k in range(len(clients)):
                idx = (start + k) % len(clients)
                if not alive[idx] or attempts >= cfg.retry_limit:
                    continue
                attempts += 1
                try:
                    values, shots_used = clients[idx].run_task(t, cfg.shots, cfg.seed)
                    result = TaskResult(
                        task_id=t.id,
                        value=values,
                        shots_used=shots_used,
                        node_id=addresses[idx],
                    )
                    break
                except (OSError, ConnectionError, json.JSONDecodeError) as exc:
                    failure = exc
                    alive[idx] = False
                    clients[idx].close()
            if result is None:
                raise NodeFailure(
                    f"task {t.id} failed after {attempts} attempt(s): {failure}"
                )
            out.append(result)
        return out
    finally:
        for c in clients:
            c.close()


def run_plan(plan: list[Subtask], cfg: ClusterConfig) -> list[TaskResult]:
    """Execute a subtask plan as overlap tasks; each result's value is (Re z, Im z)."""
    tasks = [
        OverlapSpec(
            id=s.id,
            left=s.left_circuit,
            right=s.right_circuit,
            observable=s.observable,
            input_label=s.input_label,
        )
        for s in plan
    ]
    return execute_tasks(tasks, cfg)


def aggregate(plan: list[Subtask], results: list[TaskResult]) -> complex:
    """Sum over sibling groups of coefficient x product of part overlaps.

    Groups are consumed in ascending id order so the floating-point sum is
    reproducible across modes and node counts.
    """
    by_id: dict[int, TaskResult] = {}
    for r in results:
        if r.task_id in by_id:
            raise MissingResult(f"duplicate result for task {r.task_id}")
        by_id[r.task_id] = r
    total = 0.0 + 0j
    for s in plan:
        if s.id not in by_id:
            raise MissingResult(f"no result for task {s.id}")
    ordered = sorted(plan, key=lambda s: s.id)
    idx = 0
    while idx < len(ordered):
        group_key = ordered[idx].indices[:5]
        coeff = 1.0 + 0j
        product = 1.0 + 0j
        while idx < len(ordered) and ordered[idx].indices[:5] == group_key:
            s = ordered[idx]
            if s.indices[5] == 0:
                coeff = s.coefficient
            re, im = by_id[s.id].value
            product *= complex(re, im)
            idx += 1
        total += coeff * product
    return total
