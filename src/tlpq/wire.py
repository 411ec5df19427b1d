"""Both ends of the batch message: the controller's encoding and the worker server.

Over the wire (protocol 7) the rows of a call travel as one batch message per
start node. A batch carries its distinct gates once, as a gate table that one
``circuit_to_json`` call encodes, each distinct circuit once, as positions in
that table, and one entry per table: its operands once and its columns cut
to the batch's rows. The controller (``runtime._dispatch``) sends every
batch before it reads any reply. A worker decodes the gate table with one
``parse_circuit`` call, so each distinct gate is one Gate, and runs each
item as one OverlapTable over the batch's circuits, checked as a local
table is, with one part-state cache (``backend._PartStates``) per batch.
The wire carries overlap tables alone: a call that holds an estimator task
raises before any batch is sent.

A worker reads a batch by the rules a controller holds: ``_host_port`` reads
worker addresses (to connect to, and to listen on), ``linalg._is_count`` a
batch's shots and seed and its circuits' widths and gate table positions,
and ``table.OverlapTable`` its decoded items, so a worker refuses the rows a
controller would, with the same message.
"""

from __future__ import annotations

import functools
import json
import socket
import socketserver
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .backend import CapabilityMismatch, ExactBackend, _PartStates
from .circuit import (Circuit, Gate, PauliString, circuit_to_json, parse_circuit, _gate_key,
                      _matrix_from_json, _matrix_to_json)
from .linalg import _is_count
from .table import OverlapTable

PROTOCOL_VERSION = 7


def _host_port(address, *, listen: bool = False) -> tuple[str, int]:
    """The (host, port) of a "host:port" address: the one rule for worker
    addresses. An address to connect to needs a host and a port in
    1..65535; a listen address takes a port in 0..65535 (0 picks a free
    one), and an empty host means 127.0.0.1. Anything else raises
    ValueError."""
    least = 0 if listen else 1
    host, sep, port = address.rpartition(":") if isinstance(address, str) else ("", "", "")
    if not (sep and (host or listen) and port.isascii() and port.isdigit()
            and least <= int(port) <= 65535):
        raise ValueError(f"{address!r} is not host:port with a port in {least}..65535")
    return host or "127.0.0.1", int(port)


def _line(obj: dict) -> bytes:
    """One wire message as sent: its JSON and a newline, in UTF-8."""
    return (json.dumps(obj) + "\n").encode("utf-8")


_HELLO = _line({"type": "hello", "proto": PROTOCOL_VERSION})


@dataclass
class _Batch:
    """The rows of one start node (row id % node count) as one batch message.

    ``runs`` holds one entry per item with rows here, in message order: (item
    position, its row positions, readouts per row), and ``width`` the widest
    of those rows. ``gates`` holds the batch's gate table, each distinct gate
    value once with its position (``_gate_key``), and ``circuits`` the
    position of each circuit in the message's circuit list, by object and by
    value."""

    start: int
    message: dict
    runs: list = field(default_factory=list)
    width: int = 0
    gates: dict = field(default_factory=dict)  # gate key -> (position, Gate)
    circuits: dict = field(default_factory=dict)  # Circuit or (n, *positions) -> position

    def circuit(self, c: Circuit) -> int:
        """The position of ``c`` in the message's circuits: {"n", "gates": [its
        gates' positions in the gate table]}, added on first use."""
        at = self.circuits.get(c)
        if at is None:
            table = self.gates
            positions = [table.setdefault(_gate_key(g), (len(table), g))[0] for g in c.gates]
            wire = self.message["circuits"]
            at = self.circuits.setdefault((c.n_qubits, *positions), len(wire))
            if at == len(wire):
                wire.append({"n": c.n_qubits, "gates": positions})
            self.circuits[c] = at
        return at

    def add(self, at: int, t: OverlapTable, rows: np.ndarray):
        """Add table ``at`` as one message entry: its operands once and its
        columns cut to ``rows``, with ``left`` and ``right`` as circuit list
        positions."""
        left, right = t.left[rows], t.right[rows]
        position = np.zeros(len(t.circuits), dtype=np.intp)
        for k in dict.fromkeys(np.concatenate((left, right)).tolist()):
            position[k] = self.circuit(t.circuits[k])
            self.width = max(self.width, t.circuits[k].n_qubits)
        self.message["items"].append({
            "kind": "overlap", "labels": list(t.labels), "readout": list(t.readouts),
            "observables": [o.letters if isinstance(o, PauliString) else _matrix_to_json(o)
                            for o in t.observables],
            "ids": t.ids[rows].tolist(), "left": position[left].tolist(),
            "right": position[right].tolist(), "observable": t.observable[rows].tolist(),
            "label": t.label[rows].tolist()})
        self.runs.append((at, rows, len(t.readouts)))

    @property
    def n_rows(self) -> int:
        return sum(len(rows) for _, rows, _ in self.runs)

    @functools.cached_property
    def line(self) -> bytes:
        """The message as sent, encoded once, also for a batch that moves."""
        return _line(self.message)


def _batches(items: list, n_nodes: int, shots: int | None, seed: int) -> list[_Batch]:
    """One batch per non-empty start node group, in start node order.

    A batch carries ``shots``, ``seed``, its gate table, each distinct
    circuit once as positions in that table, and one entry per table with
    rows in its group (``_Batch.add``), the group's rows cut from the
    table's columns with numpy. Value-equal gates share one table entry,
    and one ``circuit_to_json`` call encodes the table, over the batch's
    widest row. A worker runs overlap tables alone: an estimator task
    raises CapabilityMismatch here, before any batch is sent.
    """
    batches: dict[int, _Batch] = {}
    for at, t in enumerate(items):
        if not isinstance(t, OverlapTable):
            raise CapabilityMismatch(f"task {t.id}: {t.kind} tasks run in process only; "
                                     f"a worker runs overlap tables")
        starts = t.ids % n_nodes
        for start in sorted(set(starts.tolist())):
            if start not in batches:
                batches[start] = _Batch(start, {"type": "batch", "shots": shots, "seed": seed,
                                                "gates": None, "circuits": [], "items": []})
            batches[start].add(at, t, np.flatnonzero(starts == start))
    for b in batches.values():
        table = tuple(g for _, g in b.gates.values())
        b.message["gates"] = circuit_to_json(Circuit(b.width, table))
    return [batches[s] for s in sorted(batches)]


def _batch_circuit(k: int, obj, table: tuple[Gate, ...]) -> Circuit:
    """Decode circuit ``k`` of a batch: {"n", "gates": [positions in the
    batch's gate table]}, each position an integer >= 0 within the table."""
    if not (isinstance(obj, dict) and obj.keys() == {"n", "gates"}
            and isinstance(obj["gates"], list)):
        raise ValueError(f"batch circuit {k} is not {{\"n\", \"gates\": [gate table positions]}}")
    n, positions = obj["n"], obj["gates"]
    if not _is_count(n, 1):
        raise ValueError(f"batch circuit {k} has a bad qubit count: {n!r}")
    for p in positions:
        if not (_is_count(p, 0) and p < len(table)):
            raise ValueError(f"batch circuit {k}: no gate {p!r} in a gate table of {len(table)}")
    return Circuit(n, tuple(map(table.__getitem__, positions)))


# the fields of a batch message, and of the one item kind it carries
_BATCH_FIELDS = {"type", "shots", "seed", "gates", "circuits", "items"}
_ITEM_FIELDS = {"kind", "observables", "labels", "readout", *OverlapTable._columns}


def _decode_item(item, circuits: tuple[Circuit, ...]) -> OverlapTable:
    """Decode one batch item over the batch's circuits as one OverlapTable,
    which checks its ids, positions, bounds, operands and readouts as a
    local table is checked.

    Nothing is coerced: an item holds exactly the overlap fields, its
    readouts are a list of strings, and its observables (Pauli letters or
    matrix JSON), labels and columns are lists.
    """
    kind = item.get("kind") if isinstance(item, dict) else None
    if kind != "overlap":
        raise ValueError(f"task kind {kind!r} is not accepted over the wire "
                         f"(protocol {PROTOCOL_VERSION} carries overlap items only)")
    if item.keys() != _ITEM_FIELDS:
        raise ValueError(f"an overlap item holds {sorted(_ITEM_FIELDS)}, got {sorted(item)}")
    readouts = item["readout"]
    if not (isinstance(readouts, list) and all(isinstance(r, str) for r in readouts)):
        raise ValueError(f"an item's readout must be a list of strings, got {readouts!r}")
    for name in ("observables", "labels", *OverlapTable._columns):
        if not isinstance(item[name], list):
            raise ValueError(f"an overlap item's {name} must be a list, got {item[name]!r}")
    return OverlapTable(
        circuits=circuits, labels=item["labels"], readouts=tuple(readouts),
        observables=[PauliString(len(o), o) if isinstance(o, str)
                     else _matrix_from_json(o, "observable") for o in item["observables"]],
        **{name: item[name] for name in OverlapTable._columns})


class _WorkerHandler(socketserver.StreamRequestHandler):
    def handle(self):  # one connection; one JSON message per line
        greeted = False  # tasks are served only after a hello of our protocol
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
                    self._send({"type": "error", "id": -1,
                                "message": f"unsupported protocol {msg.get('proto')!r}"})
                    return  # close the connection on version mismatch
                greeted = True
                self._send({"type": "hello_ack", "proto": PROTOCOL_VERSION,
                            "max_qubits": self.server.backend.max_qubits})
            elif mtype == "batch" and not greeted:
                self._send({"type": "error", "id": -1,
                            "message": f"handshake required: send hello with proto "
                                       f"{PROTOCOL_VERSION} before any batch"})
            elif mtype == "batch":
                self._send(self._run_batch(msg))
            elif mtype == "shutdown":
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return
            else:
                self._send({"type": "error", "id": -1, "message": f"unknown type {mtype!r}"})

    def _run_batch(self, msg: dict) -> dict:
        """Run a batch's items in order with one part-state cache; the reply
        holds each row's values, in row order, or an error naming the
        failing item's first row id (-1 when the batch itself is malformed
        or the item's ids break the id rule).

        The gate table is parsed once, with non-unitary RAW gates admitted as
        a table of "e:<P>" readouts alone needs; any other table refuses them
        when it simulates its states, as a local run does. Each circuit is built from its table
        positions, so each distinct gate is one Gate. Each item is decoded
        (``_decode_item``) and run by one ``run_task`` call, whose push
        applies each gate prefix its circuits share once. A batch holds
        exactly the batch fields, so one without ``shots`` never runs as
        exact mode; ``shots`` must be null or an integer >= 1 and ``seed``
        an integer >= 0, as in a ClusterConfig.
        """
        item = None
        values = []
        if msg.keys() != _BATCH_FIELDS:
            return {"type": "error", "id": -1,
                    "message": f"a batch holds {sorted(_BATCH_FIELDS)}, got {sorted(msg)}"}
        shots, seed = msg["shots"], msg["seed"]
        if not ((shots is None or _is_count(shots, 1)) and _is_count(seed, 0)):
            return {"type": "error", "id": -1,
                    "message": f"batch shots must be null or an integer >= 1 and its seed an "
                               f"integer >= 0, got shots {shots!r} and seed {seed!r}"}
        try:
            table = parse_circuit(msg["gates"], require_unitary=False).gates
            circuits = tuple(_batch_circuit(k, c, table) for k, c in enumerate(msg["circuits"]))
            states = _PartStates()
            for item in msg["items"]:
                task = _decode_item(item, circuits)
                self.server.count_task(len(task.ids))
                flat, _ = self.server.backend.run_task(task, shots, seed, states)
                k = len(task.readouts)
                values += [flat[j:j + k] for j in range(0, len(flat), k)]
        except Exception as exc:  # report, naming the item's first row id; keep serving
            ids = item.get("ids") if isinstance(item, dict) else None
            ok = isinstance(ids, list) and ids and all(_is_count(i, 0) for i in ids)
            return {"type": "error", "id": ids[0] if ok else -1, "message": str(exc)}
        return {"type": "result", "values": values}

    def _send(self, obj: dict):
        if self.server.should_drop():
            # testing hook: simulate a crashed node by slamming the connection
            self.connection.close()
            raise ConnectionAbortedError("worker dropped by failure-injection hook")
        self.wfile.write(_line(obj))
        self.wfile.flush()


class WorkerServer(socketserver.ThreadingTCPServer):
    """TCP worker speaking the task protocol; one JSON message per line.

    ``fail_after_tasks`` is a failure-injection hook for tests: after that many
    tasks have been accepted, the worker drops connections as if it crashed.
    ``server_close`` also shuts down the connections still open, which a
    controller keeps between calls, so a stopped worker answers no one.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], max_qubits: int = ExactBackend.max_qubits,
                 fail_after_tasks: int | None = None):
        super().__init__(address, _WorkerHandler)
        self.backend = ExactBackend(max_qubits=max_qubits)
        self.fail_after_tasks = fail_after_tasks
        self._tasks_seen = 0
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()  # connections not yet closed

    def count_task(self, rows: int):
        with self._lock:
            self._tasks_seen += rows

    def should_drop(self) -> bool:
        with self._lock:
            return (
                self.fail_after_tasks is not None
                and self._tasks_seen > self.fail_after_tasks
            )

    def process_request(self, request, client_address):
        with self._lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._lock:  # shutdown_request closes a connection only after discarding it
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def handle_error(self, request, client_address):
        # A controller hanging up mid-stream (or the failure-injection hook)
        # is routine, not a server error worth a traceback.
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, BrokenPipeError, OSError)):
            return
        super().handle_error(request, client_address)


def serve_worker(listen_address: str, *, max_qubits: int = ExactBackend.max_qubits,
                 announce=None):
    """Run a worker until a shutdown message arrives. Blocks.

    ``listen_address`` is read by ``_host_port`` as a listen address; a bad
    one raises ValueError before anything is bound."""
    server = WorkerServer(_host_port(listen_address, listen=True), max_qubits=max_qubits)
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
