"""Execute task plans on a pool of simulated QPU nodes and aggregate results.

Two node flavors speak one task format: in-process exact backends (optionally
shot-sampling) and remote workers reached over a TCP newline-delimited JSON
protocol. Scheduling is static round-robin by task id; aggregation is an
ordered reduce so results are bit-identical across node counts and transports.

A plan's subtasks, the GHZ gram entries and the wire-cut density tasks run
as overlap rows: the backend simulates the left and right gate lists on the
part's w qubits and forms z = <U_r psi0| O U_l psi0>, which fixes the
single-ancilla estimator's readouts (ax = Re z, ay = Im z, and the
ancilla-branch projectors p0 / p1); an "e:<P>" readout reads the Pauli
expectation of the left state itself. One batched routine reads them over a
``planner.OverlapTable``, the one type of overlap rows, and the distinct
part states its rows read, which the table derives once and keeps: a
``planner.Plan`` is a table whose rows read ("ax", "ay"), ghz's gram
entries are four tables of one readout each, density tasks are tables of
"e:<P>" readouts (``_density_tables``), and a worker decodes each item of a
batch as one table, so a row gives the same bits everywhere.

One runner and one reducer carry a plan from its table to its value as
arrays. ``_run`` runs tables (plans among them), and estimator tasks in
process, as items through one path per mode and returns each item's values
as an array (rows x readouts); locally the items of a call share one
part-state cache, and over the wire the replies fill the same arrays. Plans
that share a channel (one derived-value holder and the same labels,
``planner._stacks``) are read as one stack, per part one ``np.vecdot`` over
(plans x pairs), in a local run and on a worker alike (a worker's items
share no columns, so each is a stack of one). ``_reduce`` folds a stack's
overlaps into its plans' values at once. ``estimate_plans`` is the two
together; ``execute_tasks`` and ``run_plan`` build TaskResults only at their
return, and ``aggregate`` reads TaskResults back into one array for the same
reducer. The wire carries overlap tables alone; "estimator" tasks run only
in-process, as the reference the tests hold overlap rows to, and a network
call that holds one raises before any batch is sent.

Over the wire (protocol 7) the rows of a call travel as one batch message per
start node. A batch carries its distinct gates once, as a gate table that one
``circuit_to_json`` call encodes, each distinct circuit once, as positions in
that table, and one entry per table: its operands once and its columns cut
to the batch's rows. Every batch is sent before any reply is read. A worker
decodes the gate table with one ``parse_circuit`` call, so each distinct
gate is one Gate, and runs each item as one OverlapTable over the batch's
circuits, checked as a local table is.

The part-state cache (``circuit._PartStates``) is the same locally and on a worker:
each distinct (circuit, input label) is simulated once per call or batch and
kept as its end state. ``ExactBackend.run_rows`` pushes every state its
items' tables read at once, as stacks, one gate depth at a time (one walk
per width and unitary flag), so each gate prefix that those circuits
share is applied once and the states of one depth share one gate call per
qubit tuple. Simulation stays inside ``ExactBackend.run_task`` / ``run_rows``.

Worker connections live as long as the ClusterConfig object that opened them
(``_check_out`` / ``_check_in``). A dispatch round sends hello to every chosen
worker without a live connection before it reads any ack, so the handshakes
overlap; a call that returns keeps its connections for the config's next
call. A kept connection is dropped when it is readable while idle (and is
replaced by a fresh handshake), when a call that holds it raises, and when
the config is collected.

Each input rule has one implementation: ``_host_port`` reads worker
addresses (to connect to, and to listen on); ``linalg._is_count`` checks node
counts, shots, seeds and retry limits, in a ClusterConfig and in a batch a
worker receives, the width cap a worker announces, and a batch's circuits'
widths and gate table positions, and (in ``circuit.parse_circuit``) the
width and qubits of circuit JSON; ``circuit._finite`` checks gate params
and the values of a worker's reply; ``planner.OverlapTable`` checks overlap
rows, locally and in a worker's decoded items, with ``planner._index_column``
for row ids and table positions (a task's id too), ``planner._parse_readout``
for readout descriptors and ``planner.check_overlap_operands`` for operands,
so a worker refuses the rows
a controller would, with the same message; ``ExactBackend.run_rows`` holds a
node's width cap, in-process and on a worker, whose announced cap the
controller checks before sending it a batch.

Every readout of every task kind is a pair (w, m) with one outcome law:
P(+1) = (w + m) / 2, P(-1) = (w - m) / 2, P(0) = 1 - w. Exact mode returns m;
sampled mode returns the mean of draws from that law.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import select
import socket
import socketserver
import sys
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    PauliString,
    basis_state,
    circuit_to_json,
    parse_circuit,
    simulate,
    _apply_observable,
    _gate_key,
    _matrix_from_json,
    _matrix_to_json,
    _PartStates,
    _finite,
)
from .linalg import _complex_product, _is_count, _sequential_sum
from .planner import (_ID_RULE, OverlapTable, Plan, Subtask, _index_column, _parse_readout,
                      _stacks)

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

PROTOCOL_VERSION = 7


class NodeFailure(RuntimeError):
    """Raised when a task cannot be completed within the retry budget."""


class CapabilityMismatch(ValueError):
    """Raised when a task exceeds what the target node can execute."""


class MissingResult(KeyError):
    """Raised when aggregation lacks a result for a plan task."""


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


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """One task given as a circuit plus readout descriptors, read on the
    circuit's output vector v.

    kind="density" is a controller-side description: a circuit of possibly
    non-unitary RAW maps read by "e:<P>" readouts alone, which
    ``execute_tasks`` lowers to overlap tables (``_density_tables``). Each
    gate is one linear map, so the output |A0><A0| (A the product of the
    gates) has rank one, and v = A|0...0> is pushed through the gates
    without renormalization. kind="estimator" simulates a unitary circuit
    from |0...0>; it runs only in-process, as the reference for overlap
    rows and their readout law. Readout descriptors and their (w, m) pairs:
      - "e:<P>": w = |v|^2, m = <v|P|v>
      - "p0:<P>" / "p1:<P>": the same on the ancilla-0 / ancilla-1 half of v
      - "ax" / "ay": w = |v|^2, m = 2 Re / 2 Im <v0|v1> (qubit 0 is the ancilla)
    """

    id: int
    kind: str
    circuit: Circuit
    readouts: tuple[str, ...]
    ids: np.ndarray = field(init=False, repr=False)  # the id as a one-row column

    def __post_init__(self):
        object.__setattr__(self, "ids", _index_column((self.id,), _ID_RULE, 0))
        if self.kind not in ("estimator", "density"):
            raise ValueError(f"task kind must be 'estimator' or 'density', got {self.kind!r}")
        if self.kind == "density" and not all(
                isinstance(d, str) and d.startswith("e:") for d in self.readouts):
            raise ValueError(f"a density task reads e:<P> readouts only, got {list(self.readouts)}")

    @property
    def n_qubits(self) -> int:
        return self.circuit.n_qubits


@dataclass(frozen=True)
class TaskResult:
    task_id: int
    value: tuple[float, ...]  # one float per readout
    shots_used: int
    node_id: int | str


def sample_shots(exact_probs, n: int, rng: np.random.Generator) -> np.ndarray:
    """Empirical frequency vector of n multinomial draws from exact_probs.

    The law is checked, clipped at 0 and renormalized in plain floats,
    summing left to right: for the 3-entry readout laws that is the order
    ``np.sum`` adds them in, so the draws are those of numpy's set-up.
    ``n`` must be an int (not a bool) of at least 1.
    """
    if not _is_count(n, 1):
        raise ValueError(f"need an int count of at least one sample, got {n!r}")
    p = [float(x) for x in exact_probs]
    if abs(functools.reduce(operator.add, p, 0.0) - 1.0) > 1e-9 or any(x < -1e-9 for x in p):
        raise ValueError("probabilities must be normalized within 1e-9")
    p = [max(x, 0.0) for x in p]
    total = functools.reduce(operator.add, p, 0.0)
    counts = rng.multinomial(n, [x / total for x in p])
    return counts / float(n)


# the (ket, bra) sides of the z = <bra| O |ket> that each overlap readout
# reads, by its first two characters ("e:" for each "e:<P>")
_READOUT_SIDES = {"ax": ("left", "right"), "ay": ("left", "right"),
                  "p0": ("right", "right"), "p1": ("left", "left"), "e:": ("left", "left")}


def _reads_unitary(t: OverlapTable) -> bool:
    """Whether a table reads states pushed with unitary=True: unless its
    readouts are all "e:<P>"."""
    return not all(desc.startswith("e:") for desc in t.readouts)


def _read_states(t: OverlapTable) -> list[tuple[Circuit, str]]:
    """The (circuit, label) pairs of the states that a table's readouts read."""
    return [(t.circuits[c], t.labels[b])
            for sides in dict.fromkeys(_READOUT_SIDES[desc[:2]] for desc in t.readouts)
            for _, _, bra_at, _, ket_at, _ in t.sides(*sides) for c, b in bra_at + ket_at]


def _overlaps(stack: list[OverlapTable], states: _PartStates) -> np.ndarray:
    """The (w, m) pairs of every row's readouts of each table of a stack
    (``_stacks``), as an array (tables x 2 x rows x readouts), row by row.

    A readout reads z = <bra| O |ket> on the part states ``_READOUT_SIDES``
    names: "ax" / "ay" give (1, Re z) / (1, Im z); "p0" / "p1" give
    (<s|s> / 2, Re z / 2) with s the right / left state; "e:<P>" gives
    (<l|l>, Re <l|P|l>), with its own P in place of the row's observable. A
    table whose readouts are all "e:" reads states pushed with
    ``unitary=False``, so non-unitary RAW gates run and the weight they lose
    reaches w; any other table refuses them. One ``np.vecdot`` per side
    pair, block and observable forms every z of every table of the stack.
    The tables share their blocks (``OverlapTable.sides``: a block's rows,
    its observable, and its distinct bra and ket (circuit, label) states with
    each row's position among them). Each distinct (circuit, label) is
    simulated once per ``states``, which keeps each stack of states it
    builds, so the plans of one channel read one stack per part; each
    table's block observable is applied once to the stacked distinct ket
    states (tables x states x amplitudes). For a channel plan a block is a
    part a, and z_a = vecdot(S_a[right terms], (O_a S_a)[left terms]) over
    (plans x pairs). It runs the BLAS dot that ``np.vdot`` runs, row by
    row, so a value has the bits of its row's own ``np.vdot``, whatever
    table or stack the row is read in. Each <s|s> is taken once per
    distinct state.
    """
    t = stack[0]
    unitary = _reads_unitary(t)
    out = np.empty((len(stack), 2, len(t.ids), len(t.readouts)))  # w, then m, per readout
    out[:, 0] = 1.0
    for sides in dict.fromkeys(_READOUT_SIDES[desc[:2]] for desc in t.readouts):
        columns = [(col, desc) for col, desc in enumerate(t.readouts)
                   if _READOUT_SIDES[desc[:2]] == sides]
        for rows, o, bra_at, bra_of_row, ket_at, ket_of_row in t.sides(*sides):
            bras, kets = (states.stack(t.circuits, t.labels, at, unitary)
                          for at in (bra_at, ket_at))
            z = {}  # (tables x rows) per observable: an "e:<P>"'s own P, else the rows' O
            for col, desc in columns:
                e = desc if desc.startswith("e:") else None
                if e not in z:
                    ops = ([PauliString(len(e) - 2, e[2:])] if e
                           else [u.observables[o] for u in stack])
                    observed = np.array([_apply_observable(op, kets) for op in ops])
                    z[e] = np.vecdot(bras[bra_of_row], observed[:, ket_of_row])
                if desc in ("ax", "ay"):
                    out[:, 1, rows, col] = z[e].real if desc == "ax" else z[e].imag
                else:  # "p0" / "p1" read half a branch, "e:" the whole state
                    half = 1.0 if e else 2.0
                    out[:, 0, rows, col] = (np.vecdot(bras, bras).real / half)[bra_of_row]
                    out[:, 1, rows, col] = z[e].real / half
    return out.reshape(len(stack), 2, -1)


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
        p_state = _apply_observable(PauliString(len(letters), letters), state)
        m = float(np.vdot(state, p_state).real)
    return float(np.vdot(state, state).real), m


def _readout_pairs(task: TaskSpec | OverlapTable, states: _PartStates) -> np.ndarray:
    """The (w, m) pairs of an item's readouts, as an array (2, rows x
    readouts), row by row; ``states`` is run_rows' cache. A task must be an
    estimator task: density tasks run as the tables ``execute_tasks`` lowers
    them to."""
    if isinstance(task, OverlapTable):
        return _overlaps([task], states)[0]
    if task.kind != "estimator":
        raise ValueError(f"task kind {task.kind!r} does not run on a node")
    state = simulate(task.circuit, basis_state(task.n_qubits))
    return np.array([_readout_pair(desc, state) for desc in task.readouts],
                    dtype=float).reshape(-1, 2).T


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
        task: TaskSpec | OverlapTable,
        shots: int | None,
        seed: int,
        states: _PartStates | None = None,
    ) -> tuple[tuple[float, ...], int]:
        """Run one item, as a stack of one; returns (one value per readout,
        row by row, shots used): ``run_rows`` as plain floats."""
        values, = self.run_rows([task], shots, seed, _PartStates() if states is None else states)
        return tuple(values.ravel().tolist()), 0 if shots is None else shots * values.size

    def run_rows(self, items: list, shots: int | None, seed: int, states: _PartStates
                 ) -> list[np.ndarray]:
        """Run items; returns each one's values as an array, one row per task
        row and one column per readout.

        A task is one row, and a table (a Plan reads "ax", "ay") its rows.
        The tables of one stack (``_stacks``: the plans of one channel) are
        read as one (``_overlaps``), and each keeps its ids. Each readout's
        (w, m) pair gives m exactly, or with shots the mean of draws on the
        stream (seed, row id, readout index). ``states`` lets the items of a
        call or a batch share part states and gate prefixes; every state the
        items' tables read is pushed first, in one ``_PartStates.push`` per
        unitary flag, so the states of one gate depth share gate calls.
        """
        for task in items:
            if task.n_qubits > self.max_qubits:
                name = "plan" if isinstance(task, Plan) else f"task {task.ids[0]}"
                raise CapabilityMismatch(
                    f"{name} needs {task.n_qubits} qubits, node supports {self.max_qubits}")
        stacks = _stacks(items)
        reads: dict = {}  # unitary -> the states the stacks' tables read
        for t in (items[stack[0]] for stack in stacks):
            if isinstance(t, OverlapTable):
                reads.setdefault(_reads_unitary(t), []).extend(_read_states(t))
        for unitary, pairs in reads.items():
            states.push(pairs, unitary)
        values = [None] * len(items)
        for stack in stacks:
            pairs = (_overlaps([items[k] for k in stack], states) if len(stack) > 1
                     else [_readout_pairs(items[stack[0]], states)])
            for k, p in zip(stack, pairs):
                shape = (len(items[k].ids), len(items[k].readouts))
                if shots is None:
                    values[k] = p[1].reshape(shape)
                    continue
                streams = itertools.product(items[k].ids.tolist(), range(shape[1]))
                values[k] = np.fromiter(
                    (_sampled_mean(w, m, shots, np.random.default_rng((seed, *stream)))
                     for w, m, stream in zip(*p.tolist(), streams)),
                    float, p.shape[1]).reshape(shape)
        return values


# --- wire protocol (network mode) ----------------------------------------------

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


# the fields of the one item kind a batch carries
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
        applies each gate prefix its circuits share once. ``shots`` must
        be null or an integer >= 1 and ``seed`` an integer >= 0, as in a
        ClusterConfig.
        """
        item = None
        values = []
        shots, seed = msg.get("shots"), msg.get("seed")
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


def _density_tables(tasks: list[TaskSpec]) -> list[OverlapTable]:
    """Density tasks, in ascending id order, as one overlap table per
    distinct readout tuple. Each task is one row with its own id: left =
    right = its circuit, label 0...0 and the identity as row observable,
    which no "e:<P>" readout reads. So every task keeps its id, its readout
    indices and its (seed, id, readout index) streams."""
    groups: dict = {}
    for t in tasks:
        groups.setdefault(tuple(t.readouts), []).append(t)
    tables = []
    for readouts, rows in groups.items():
        widths = {w: k for k, w in enumerate(dict.fromkeys(t.n_qubits for t in rows))}
        width = [widths[t.n_qubits] for t in rows]  # each row's observable and label
        tables.append(OverlapTable(
            circuits=[t.circuit for t in rows], labels=["0" * w for w in widths],
            observables=[PauliString(w, "I" * w) for w in widths], ids=[t.id for t in rows],
            left=range(len(rows)), right=range(len(rows)), observable=width, label=width,
            readouts=readouts))
    return tables


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
