"""Run task plans on a pool of simulated QPU nodes and aggregate the results.

Two node flavors speak one task format: in-process exact backends
(``backend``, optionally shot-sampling) and remote workers reached over a
TCP newline-delimited JSON protocol (``wire``). Scheduling is static
round-robin by task id; aggregation is an ordered reduce so results are
bit-identical across node counts and transports.

One runner and one reducer carry a plan from its table to its value as
arrays. ``_run`` runs tables (plans among them), and estimator tasks in
process, as items through one path per mode and returns each item's values
as an array (rows x readouts); locally the items of a call share one
part-state cache, and over the wire the replies fill the same arrays.
Plans that share a channel (``table._stacks``) are read as one stack, and
``_reduce`` folds a stack's overlaps into its plans' values at once.
``estimate_plans`` is the two together; ``execute_tasks`` and ``run_plan``
build TaskResults only at their return, and ``aggregate`` reads TaskResults
back into one array for the same reducer. The wire carries overlap tables
alone; "estimator" tasks run only in-process, as the reference the tests
hold overlap rows to, and a network call that holds one raises before any
batch is sent. Every batch of a call is sent before any reply is read
(``_dispatch``).

Worker connections live as long as the ClusterConfig object that opened them
(``_check_out`` / ``_check_in``). A dispatch round sends hello to every chosen
worker without a live connection before it reads any ack, so the handshakes
overlap; a call that returns keeps its connections for the config's next
call. A kept connection is dropped when it is readable while idle (and is
replaced by a fresh handshake), when a call that holds it raises, and when
the config is collected.

Each input rule has one implementation: ``wire._host_port`` reads worker
addresses (to connect to, and to listen on); ``linalg._is_count`` checks node
counts, shots, seeds and retry limits, in a ClusterConfig and in a batch a
worker receives, the width cap a worker announces, and a batch's circuits'
widths and gate table positions, and (in ``circuit.parse_circuit``) the
width and qubits of circuit JSON; ``circuit._finite`` checks gate params
and the values of a worker's reply; ``table.OverlapTable`` checks overlap
rows, locally and in a worker's decoded items, with ``table._index_column``
for row ids and table positions (a task's id too), ``table._parse_readout``
for readout descriptors and ``table.check_overlap_operands`` for operands,
so a worker refuses the rows a controller would, with the same message;
``backend.ExactBackend.run_rows`` holds a node's width cap, in-process and
on a worker, whose announced cap the controller checks before sending it a
batch.
"""

from __future__ import annotations

import itertools
import json
import operator
import select
import socket
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .backend import (CapabilityMismatch, ExactBackend, TaskSpec, _density_tables, _PartStates,
                      sample_shots)
from .circuit import _finite
from .linalg import _complex_product, _is_count, _sequential_sum
from .planner import Plan, Subtask
from .table import OverlapTable, _stacks
from .wire import PROTOCOL_VERSION, WorkerServer, _Batch, _batches, _HELLO, _host_port, serve_worker

__all__ = [
    "ClusterConfig",
    "TaskSpec",
    "TaskResult",
    "ExactBackend",
    "NodeFailure",
    "CapabilityMismatch",
    "MissingResult",
    "PROTOCOL_VERSION",
    "sample_shots",
    "execute_tasks",
    "run_plan",
    "estimate_plans",
    "aggregate",
    "WorkerServer",
    "serve_worker",
]


class NodeFailure(RuntimeError):
    """Raised when a task cannot be completed within the retry budget."""


class MissingResult(KeyError):
    """Raised when aggregation lacks a result for a plan task."""


@dataclass(frozen=True)
class ClusterConfig:
    """How to run a plan: local in-process nodes or remote TCP workers.

    mode="local": ``nodes`` is a node count. mode="network": ``nodes`` is a
    tuple of "host:port" worker addresses, read by ``_host_port`` into the
    (host, port) pairs the controller connects to. ``shots=None`` means
    exact expectations; otherwise each readout is estimated from that many
    samples. Node counts, shots, seed and retry_limit must be ints, not
    bools (``_is_count``).
    """

    mode: str = "local"
    nodes: int | tuple[str, ...] = 1
    shots: int | None = None
    seed: int = 0
    retry_limit: int = 2
    _peers: tuple[tuple[str, int], ...] = field(default=(), init=False, repr=False,
                                                compare=False)

    def __post_init__(self):
        if self.mode not in ("local", "network"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "local":
            if not _is_count(self.nodes, 1):
                raise ValueError("local mode needs a node count >= 1")
        else:
            if isinstance(self.nodes, str):  # tuple() would split it into characters
                raise ValueError("network mode needs a tuple of host:port addresses, "
                                 f"not the string {self.nodes!r}")
            addrs = tuple(self.nodes) if not isinstance(self.nodes, int) else ()
            if not addrs:
                raise ValueError("network mode needs a tuple of host:port addresses")
            try:
                peers = tuple(map(_host_port, addrs))
            except ValueError as exc:
                raise ValueError(f"worker address {exc}") from None
            object.__setattr__(self, "nodes", addrs)
            object.__setattr__(self, "_peers", peers)
        if self.shots is not None and not _is_count(self.shots, 1):
            raise ValueError("shots must be an integer >= 1 when present")
        if not _is_count(self.seed, 0):
            raise ValueError("seed must be an integer >= 0")
        if not _is_count(self.retry_limit, 1):
            raise ValueError("retry_limit must be an integer >= 1")


@dataclass(frozen=True)
class TaskResult:
    task_id: int
    value: tuple[float, ...]  # one float per readout
    shots_used: int
    node_id: int | str


class _WorkerClient:
    """Controller-side connection to one worker: ``address`` as given, which
    results and errors name, and the (host, port) ``peer`` it connects to.

    ``open`` connects and sends hello, and ``send_batch`` reads the ack
    before its first batch, so a dispatch round can greet every worker before
    it waits on any (``_dispatch``). A connection outlives its call: it is
    kept with the ClusterConfig that opened it (``_check_in``)."""

    def __init__(self, address: str, peer: tuple[str, int]):
        self.address = address
        self.peer = peer
        self.sock: socket.socket | None = None
        self.file = None
        self.max_qubits: int | None = None  # None while the ack is due

    def open(self):
        """Connect and send hello, unless a live connection is kept. A kept
        connection that is readable while idle (the worker closed it or sent
        something unasked) is closed first."""
        if self.sock is not None:
            idle = select.poll()  # not select.select, which refuses descriptors >= 1024
            idle.register(self.sock, select.POLLIN)
            if not idle.poll(0):
                return
            self.close()
        host, port = self.peer
        # an ASCII host goes to getaddrinfo as bytes, which imports no idna codec
        self.sock = socket.create_connection(
            (host.encode("ascii") if host.isascii() else host, port), timeout=30)
        self.file = self.sock.makefile("rwb")
        self._send(_HELLO)

    def _read_ack(self):
        ack = self._recv()
        if (ack.get("type") != "hello_ack" or ack.get("proto") != PROTOCOL_VERSION
                or not _is_count(ack.get("max_qubits"), 1)):
            raise ConnectionError(f"bad handshake from {self.address}: {ack}")
        self.max_qubits = ack["max_qubits"]

    def _send(self, line: bytes):
        self.file.write(line)
        self.file.flush()

    def _recv(self) -> dict:
        line = self.file.readline()
        if not line:
            raise ConnectionError(f"connection to {self.address} closed")
        reply = json.loads(line.decode("utf-8"))
        if not isinstance(reply, dict):
            raise ConnectionError(f"unexpected reply from {self.address}")
        return reply

    def send_batch(self, batch: _Batch):
        """Send one batch on the connection ``open`` made, reading its hello
        ack first if that is due. A batch whose widest row is wider than the
        worker accepts raises CapabilityMismatch before it is sent."""
        if self.max_qubits is None:
            self._read_ack()
        if batch.width > self.max_qubits:
            raise CapabilityMismatch(
                f"the batch of {batch.n_rows} task(s) from node {batch.start} needs "
                f"{batch.width} qubits, worker {self.address} supports {self.max_qubits}")
        self._send(batch.line)

    def read_result(self, batch: _Batch) -> list[np.ndarray]:
        """Read the reply to ``batch``: the values of each of its runs, as an
        array with one row per task row and one column per readout. Values
        that are not finite JSON numbers (``circuit._finite``: an int or a
        float, not a bool or a string) in that shape make the reply
        malformed. Shots used are not on the wire: the controller derives
        them from its own call (``execute_tasks``)."""
        reply = self._recv()
        if reply.get("type") == "error":
            raise RuntimeError(
                f"worker {self.address}: task {reply.get('id')}: {reply.get('message')}")
        values = reply.get("values")
        malformed = ConnectionError(
            f"unexpected reply from {self.address} to a batch of {batch.n_rows} tasks")
        if (reply.get("type") != "result" or not isinstance(values, list)
                or len(values) != batch.n_rows):
            raise malformed
        blocks, start = [], 0
        for _, rows, k in batch.runs:
            block = values[start:start + len(rows)]
            if not all(isinstance(row, list) and len(row) == k and all(map(_finite, row))
                       for row in block):
                raise malformed
            blocks.append(np.array(block, dtype=float))
            start += len(rows)
        return blocks

    def close(self):
        for stream in (self.file, self.sock):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self.sock = None
        self.file = None
        self.max_qubits = None


# The connections each network ClusterConfig keeps between calls: id(config)
# -> {node position: client}. Keyed by identity, so equal configs never share
# a socket; a call checks its config's connections out and a clean call checks
# them back in, so two threads never share one at once. The entry is made
# with a weakref.finalize that closes what is kept when the config goes.
_KEPT: dict[int, dict[int, _WorkerClient]] = {}
_KEPT_LOCK = threading.RLock()  # reentrant: a finalizer may run under it


def _close_kept(key: int):
    with _KEPT_LOCK:
        kept = _KEPT.pop(key, {})
    for client in kept.values():
        client.close()


def _check_out(cfg: ClusterConfig) -> list[_WorkerClient]:
    """A client per node of ``cfg``: the connection the config kept, taken
    for this call alone, or an unconnected one."""
    with _KEPT_LOCK:
        kept = _KEPT.get(id(cfg))
        if kept is None:
            kept = _KEPT[id(cfg)] = {}
            weakref.finalize(cfg, _close_kept, id(cfg))
        taken = kept.copy()
        kept.clear()
    return [taken.get(i) or _WorkerClient(address, peer)
            for i, (address, peer) in enumerate(zip(cfg.nodes, cfg._peers))]


def _check_in(cfg: ClusterConfig, clients: list[_WorkerClient]):
    """Keep the live connections of a clean call with ``cfg``; where another
    call has checked one in for the same node meanwhile, close this one."""
    with _KEPT_LOCK:
        kept = _KEPT[id(cfg)]
        for i, client in enumerate(clients):
            if client.sock is not None and i not in kept:
                kept[i] = client
            else:
                client.close()


def _run(items: list, cfg: ClusterConfig) -> tuple[list[np.ndarray], list | None]:
    """Run every item exactly once, through one path per mode; returns each
    item's values (one row per task row, one column per readout) and, in
    network mode, each batch with its reply (None in local mode).

    In local mode one ``ExactBackend.run_rows`` call runs the items, the
    plans of one channel as one stack, with one ``_PartStates`` that holds
    every item's circuits from the start: each distinct (circuit object,
    input label) is simulated once, each shared gate prefix applied once,
    and the states are kept until the call returns; an item wider than a
    node's cap raises CapabilityMismatch. In
    network mode the rows of all items are grouped by start node (row id %
    node count), each group is one batch message, and every batch is sent
    before any reply is read (``_dispatch``); the replies fill the same
    arrays. The call runs on the connections ``cfg`` kept, and keeps them
    again only if it returns.
    """
    if cfg.mode == "local":
        return ExactBackend().run_rows(items, cfg.shots, cfg.seed, _PartStates()), None
    batches = _batches(items, len(cfg.nodes), cfg.shots, cfg.seed)
    clients = _check_out(cfg)
    try:
        replies = _dispatch(clients, batches, cfg.retry_limit)
    except BaseException:  # a call that raises keeps none of its connections
        for c in clients:
            c.close()
        raise
    _check_in(cfg, clients)
    values = [np.empty((len(item.ids), len(item.readouts))) for item in items]
    for batch, (_, blocks) in zip(batches, replies):
        for (at, rows, _), block in zip(batch.runs, blocks):
            values[at][rows] = block
    return values, list(zip(batches, replies))


def execute_tasks(
    tasks: list[TaskSpec] | list[OverlapTable], cfg: ClusterConfig
) -> list[TaskResult] | list[list[TaskResult]]:
    """Run every task exactly once; assignment is task id modulo node count.

    ``tasks`` is either a list of TaskSpecs, whose results come back in
    ascending task id order, or a list of OverlapTables (Plans among them),
    whose results come back as one list per table, each in the table's
    ascending id order. Density tasks are lowered to overlap tables
    (``_density_tables``); estimator tasks run as they are, in process only
    (``_batches`` refuses one). Every item runs through ``_run``. Each table
    keeps its own ids, so a row's node, shot stream and result are those of
    the same row run alone in a one-row table. The TaskResults are built
    here, from the run's arrays; every row's shots used is 0 in exact mode
    and shots x its readouts in sampled mode, in both modes. A call whose
    tasks repeat an id is refused before anything runs or is sent.
    """
    tables = [t for t in tasks if isinstance(t, OverlapTable)]
    if tables and len(tables) != len(tasks):
        raise TypeError("execute_tasks takes a list of tasks or a list of tables, not both")
    seen: set[int] = set()
    for t in () if tables else tasks:
        if t.id in seen:
            raise ValueError(f"task id {t.id} is repeated: the tasks of a call need distinct ids")
        seen.add(t.id)
    items = tables or [t for t in tasks if t.kind != "density"] + _density_tables(
        sorted((t for t in tasks if t.kind == "density"), key=operator.attrgetter("id")))
    values, answers = _run(items, cfg)
    ids = [item.ids.tolist() for item in items]
    if answers is None:  # local: node id % nodes
        nodes = [[i % cfg.nodes for i in row_ids] for row_ids in ids]
    else:  # network: the address that answered each row
        nodes = [[None] * len(v) for v in values]
        for batch, (address, _) in answers:
            for at, rows, _ in batch.runs:
                for j in rows:
                    nodes[at][j] = address
    out = [list(map(TaskResult, row_ids, map(tuple, v.tolist()),
                    itertools.repeat(0 if cfg.shots is None else cfg.shots * v.shape[1]), labels))
           for row_ids, v, labels in zip(ids, values, nodes)]
    return out if tables else sorted(itertools.chain.from_iterable(out),
                                     key=operator.attrgetter("task_id"))


def estimate_plans(plans: list[Plan], cfg: ClusterConfig) -> list[complex]:
    """The value of each plan: bit for bit
    ``[aggregate(p, r) for p, r in zip(plans, execute_tasks(plans, cfg))]``,
    reduced from the run's arrays with no TaskResult built, the plans of one
    stack (``_stacks``) as one array (plans x rows)."""
    values, _ = _run(plans, cfg)
    out = [None] * len(plans)
    for stack in _stacks(plans):
        z = np.array([values[k] for k in stack]).view(complex)[..., 0]
        for k, value in zip(stack, _reduce(plans[stack[0]], z).tolist()):
            out[k] = value
    return out


# UnicodeError covers a reply that is not UTF-8 and a non-ASCII host that the
# idna codec refuses
_WIRE_ERRORS = (OSError, ConnectionError, json.JSONDecodeError, UnicodeError)


def _dispatch(clients: list[_WorkerClient], batches: list[_Batch], retry_limit: int
              ) -> list[tuple[str, list]]:
    """Run every batch; returns (address that answered, values of each run of
    rows) per batch (``read_result``).

    Each round sends every pending batch before it reads any reply, at most one
    per node. A batch starts at its start node and moves whole to the next live
    node in ring order when its connection fails; that node is marked dead, and
    the batch fails after ``retry_limit`` attempts. A batch whose next node
    already holds one waits for the next round, without spending an attempt:
    a worker reads its next line only after writing its reply, so a second
    large batch sent behind a large reply could block both ends.

    Within a round, each pass picks a node for every queued batch, sends hello
    to every picked node without a live connection, encodes the picked
    batches (``_Batch.line``), and only then reads the acks and sends the
    batches (``_WorkerClient.open``, ``send_batch``), so the handshakes
    overlap each other and the encoding. A failed handshake is a failed
    connection.
    """
    n = len(clients)
    alive = [True] * n
    steps = [0] * len(batches)  # ring positions past each batch's start node used up
    attempts = [0] * len(batches)
    failures: list[Exception | None] = [None] * len(batches)
    replies: list = [None] * len(batches)

    def drop(node: int, b: int, exc: Exception):
        failures[b] = exc
        alive[node] = False
        clients[node].close()

    pending = list(range(len(batches)))
    while pending:
        queue, pending, sent = pending, [], {}
        while queue:
            picked = {}  # node -> batch, this pass
            for b in queue:
                batch = batches[b]
                while steps[b] < n and not alive[(batch.start + steps[b]) % n]:
                    steps[b] += 1
                if steps[b] == n or attempts[b] >= retry_limit:
                    raise NodeFailure(
                        f"the batch of {batch.n_rows} task(s) from node {batch.start} "
                        f"failed after {attempts[b]} attempt(s): {failures[b]}"
                    )
                node = (batch.start + steps[b]) % n
                if node in sent or node in picked:
                    pending.append(b)
                    continue
                steps[b] += 1
                attempts[b] += 1
                picked[node] = b
            queue = []
            # every hello of the pass goes out before any ack is read, and the
            # batches are encoded while the acks travel
            for step in (lambda node, b: clients[node].open(),
                         lambda node, b: batches[b].line,
                         lambda node, b: clients[node].send_batch(batches[b])):
                for node, b in list(picked.items()):
                    try:
                        step(node, b)
                    except _WIRE_ERRORS as exc:
                        drop(node, b, exc)
                        queue.append(b)
                        del picked[node]
            sent.update(picked)
        for node, b in sent.items():
            try:
                replies[b] = (clients[node].address, clients[node].read_result(batches[b]))
            except _WIRE_ERRORS as exc:
                drop(node, b, exc)
                pending.append(b)
        pending.sort()
    return replies


def _as_plan(plan: Plan | list[Subtask]) -> Plan:
    return plan if isinstance(plan, Plan) else Plan.from_subtasks(plan)


def run_plan(plan: Plan | list[Subtask], cfg: ClusterConfig) -> list[TaskResult]:
    """Execute a plan (or a hand-built subtask list) as overlap tasks; each
    result's value is (Re z, Im z)."""
    return execute_tasks([_as_plan(plan)], cfg)[0]


def _is_pair(value) -> bool:
    try:
        return np.asarray(value, dtype=float).shape == (2,)
    except (TypeError, ValueError):
        return False


def aggregate(plan: Plan | list[Subtask], results: list[TaskResult]) -> complex:
    """Sum over sibling groups of coefficient x product of part overlaps.

    ``results`` must hold exactly one (re, im) pair for each row of the plan;
    they are read into one array and reduced as ``_reduce`` reduces a run's
    values, so the total equals ``estimate_plans``'.
    """
    plan = _as_plan(plan)
    ids = plan.ids.tolist()
    if [r.task_id for r in results] != ids:  # not one result per row, in order
        by_id: dict[int, TaskResult] = {}
        for r in results:
            if r.task_id in by_id:
                raise MissingResult(f"duplicate result for task {r.task_id}")
            by_id[r.task_id] = r
        for i in ids:
            if i not in by_id:
                raise MissingResult(f"no result for task {i}")
        if len(by_id) > len(ids):
            stray = min(by_id.keys() - set(ids))
            raise MissingResult(f"result for task {stray} is not a row of the plan")
        results = [by_id[i] for i in ids]
    values = [r.value for r in results]
    try:
        if set(map(len, values)) - {2}:
            raise ValueError
        z = np.fromiter(itertools.chain.from_iterable(values), float, 2 * len(values))
    except (TypeError, ValueError):
        bad = next(i for i, v in zip(ids, values) if not _is_pair(v))
        raise ValueError(f"result for task {bad} is not an (re, im) pair") from None
    return complex(_reduce(plan, z.view(complex)[None])[0])


def _reduce(plan: Plan, z: np.ndarray) -> np.ndarray:
    """The values of plans that share ``plan``'s columns from their rows'
    overlaps z (plans x rows), each in ascending id order, as one array.

    A group is a run of rows whose indices[:5] agree (``Plan.groups``). Its
    members' overlaps are multiplied in ascending id order, starting from 1,
    and its coefficient (that of its last a = 0 member, else 1) multiplies
    the product; the group values are then added in ascending id order,
    starting from 0, one ``np.cumsum`` along each plan's groups. Every
    product and sum is rounded as Python's complex arithmetic rounds it, so
    the total is reproducible across modes, node counts and stacks.
    """
    coefficient, members = plan.groups
    product = np.ones((len(z), len(coefficient)), dtype=complex)
    for groups, member in members:
        product[:, groups] = _complex_product(product[:, groups], z[:, member])
    return _sequential_sum(_complex_product(coefficient, product))
