"""Execute task plans on a pool of simulated QPU nodes and aggregate results.

Two node flavors speak one task format: in-process exact backends (optionally
shot-sampling) and remote workers reached over a TCP newline-delimited JSON
protocol. Scheduling is static round-robin by task id; aggregation is an
ordered reduce so results are bit-identical across node counts and transports.

A plan's subtasks and the GHZ gram entries run as "overlap" tasks: the backend
simulates the left and right gate lists on the part's w qubits and forms
z = <U_r psi0| O U_l psi0>, which fixes the single-ancilla estimator's readouts
(ax = Re z, ay = Im z, and the ancilla-branch projectors p0 / p1). One batched
routine reads them over a table of (left, right, observable, label) rows that
carries its own dedupe, the distinct part states its rows read: a
``planner.Plan`` is its rows read as ("ax", "ay"), with the dedupe kept once
per channel, and an OverlapSpec (local or decoded on a worker) is one row, so
a row gives the same bits everywhere.

One runner and one reducer carry a plan from its table to its value as
arrays. ``_run`` runs plans, or tasks, as items through one path per mode and
returns each item's values as an array (rows x readouts); locally the items of
a call share their part states, and over the wire the replies fill the same
arrays. ``_reduce`` folds a plan's overlaps into its value. ``estimate_plans``
is the two together; ``execute_tasks`` and ``run_plan`` build TaskResults only
at their return, and ``aggregate`` reads TaskResults back into one array for
the same reducer. Over the wire (protocol 4) the rows of a call travel as one
batch message per start node, each carrying its distinct gate lists once;
every batch is sent before any reply is read, and a worker parses each circuit
once and simulates each part state once per batch. The wire carries overlap
and density rows; "estimator" tasks run only in-process, as the reference the
tests hold overlap tasks to.

Every readout of every task kind is a pair (w, m) with one outcome law:
P(+1) = (w + m) / 2, P(-1) = (w - m) / 2, P(0) = 1 - w. Exact mode returns m;
sampled mode returns the mean of draws from that law.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import operator
import socket
import socketserver
import sys
import threading
from dataclasses import dataclass, field
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
from .linalg import _complex_product, _sequential_sum
from .planner import Plan, Subtask, _plan_columns, check_overlap_operands

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
    "execute_tasks",
    "run_plan",
    "estimate_plans",
    "aggregate",
    "WorkerServer",
    "serve_worker",
]

PROTOCOL_VERSION = 4


class NodeFailure(RuntimeError):
    """Raised when a task cannot be completed within the retry budget."""


class CapabilityMismatch(ValueError):
    """Raised when a task exceeds what the target node can execute."""


class MissingResult(KeyError):
    """Raised when aggregation lacks a result for a plan task."""


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an int (not a bool) of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


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
            if not addrs:
                raise ValueError("network mode needs a tuple of host:port addresses")
            for a in addrs:
                host, _, port = a.rpartition(":") if isinstance(a, str) else ("", "", "")
                if not (host and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535):
                    raise ValueError(f"worker address {a!r} is not host:port "
                                     f"with a port in 1..65535")
            object.__setattr__(self, "nodes", addrs)
        if self.shots is not None and not _is_count(self.shots, 1):
            raise ValueError("shots must be an integer >= 1 when present")
        if not _is_count(self.seed, 0):
            raise ValueError("seed must be an integer >= 0")
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
    """Empirical frequency vector of n multinomial draws from exact_probs.

    The law is checked, clipped at 0 and renormalized in plain floats,
    summing left to right: for the 3-entry readout laws that is the order
    ``np.sum`` adds them in, so the draws are those of numpy's set-up.
    """
    p = [float(x) for x in exact_probs]
    if abs(functools.reduce(operator.add, p, 0.0) - 1.0) > 1e-9 or any(x < -1e-9 for x in p):
        raise ValueError("probabilities must be normalized within 1e-9")
    p = [max(x, 0.0) for x in p]
    total = functools.reduce(operator.add, p, 0.0)
    if n < 1:
        raise ValueError("need at least one sample")
    counts = rng.multinomial(n, [x / total for x in p])
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


# the (ket, bra) sides of the z = <bra| O |ket> that each overlap readout reads
_READOUT_SIDES = {"ax": ("left", "right"), "ay": ("left", "right"),
                  "p0": ("right", "right"), "p1": ("left", "left")}


# overlap rows as columns of positions into operand tables, all read by ``readouts``;
# ``sides`` caches each (ket, bra) side pair's ``_side_rows``, or is None
_Table = collections.namedtuple(
    "_Table", "ids readouts circuits observables labels left right observable label sides",
    defaults=(None,))


def _rows(item: TaskSpec | OverlapSpec | Plan) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """(row ids, readouts of each row): a Plan's rows read ("ax", "ay"); a task is one row."""
    return (item.ids, ("ax", "ay")) if isinstance(item, Plan) else ((item.id,), item.readouts)


def _side_rows(t: _Table, ket: str, bra: str) -> list[tuple]:
    """The distinct states that the rows' z = <bra| O |ket> read, one entry
    per part width: (the rows of that width, the distinct (circuit, label)
    positions of their bra states, each row's position among those, the
    distinct (observable, circuit, label) positions of their O|ket> states,
    each row's position among those). The rows are a slice when the table
    has one width, and a row position is a slice when each row has its own
    state, in row order, so the stacks are read as they are."""
    k, b, o, label = (np.asarray(col, dtype=np.intp)
                      for col in (getattr(t, ket), getattr(t, bra), t.observable, t.label))
    n_circuits, n_labels = len(t.circuits), len(t.labels)
    width = np.array([c.n_qubits for c in t.circuits], dtype=np.intp)[k]
    widths = sorted(set(width.tolist()))
    out = []
    for w in widths:
        rows = slice(None) if len(widths) == 1 else np.flatnonzero(width == w)
        # (circuit, label) and (observable, circuit, label) positions as one integer each
        bras, bra_of_row = np.unique(b[rows] * n_labels + label[rows], return_inverse=True)
        kets, ket_of_row = np.unique((o[rows] * n_circuits + k[rows]) * n_labels + label[rows],
                                     return_inverse=True)
        ket_o, ket_state = np.divmod(kets, n_circuits * n_labels)
        in_order = np.arange(len(bra_of_row))
        out.append((
            rows,
            list(zip(*(x.tolist() for x in np.divmod(bras, n_labels)))),
            slice(None) if np.array_equal(bra_of_row, in_order) else bra_of_row,
            list(zip(ket_o.tolist(), *(x.tolist() for x in np.divmod(ket_state, n_labels)))),
            slice(None) if np.array_equal(ket_of_row, in_order) else ket_of_row,
        ))
    return out


def _side_states(t: _Table, ket: str, bra: str, states: dict):
    """For each part width of the table, (its rows, the stacked distinct bra
    states, each row's position among them, the stacked distinct O|ket>
    states, each row's position among them) of one (ket, bra) side pair.

    Each distinct (circuit, label) is simulated once per ``states``, and each
    observable is applied once to each distinct state it meets.
    """
    sides = None if t.sides is None else t.sides.get((ket, bra))
    if sides is None:
        sides = _side_rows(t, ket, bra)
        if t.sides is not None:
            t.sides[ket, bra] = sides

    def part(c: int, b: int) -> np.ndarray:  # U|label>, simulated on a miss of ``states``
        key = (t.circuits[c], t.labels[b])
        state = states.get(key)
        if state is None:
            state = states[key] = _part_state(*key)
        return state

    for rows, bra_at, bra_of_row, ket_at, ket_of_row in sides:
        bras = np.array([part(c, b) for c, b in bra_at])
        kets = np.array([_apply_observable(t.observables[o], part(c, b)) for o, c, b in ket_at])
        yield rows, bras, bra_of_row, kets, ket_of_row


def _overlaps(t: _Table, states: dict) -> np.ndarray:
    """The (w, m) pairs of every row's readouts, as an array (2, rows x
    readouts), row by row.

    A readout reads z = <bra| O |ket> on the part states ``_READOUT_SIDES``
    names: "ax" / "ay" give (1, Re z) / (1, Im z); "p0" / "p1" give
    (<s|s> / 2, Re z / 2) with s the right / left state. One ``np.vecdot``
    per side pair and part width forms every z from the rows' stacked bra
    and O|ket> states (``_side_states``): it runs the BLAS dot that
    ``np.vdot`` runs, row by row, so a value has the bits of its row's own
    ``np.vdot``, whatever table the row is read in. Each <s|s> is taken once
    per distinct state.
    """
    out = np.empty((2, len(t.ids), len(t.readouts)))  # w, then m, of each row's readouts
    out[0] = 1.0
    for sides in dict.fromkeys(map(_READOUT_SIDES.__getitem__, t.readouts)):
        columns = [(col, desc) for col, desc in enumerate(t.readouts)
                   if _READOUT_SIDES[desc] == sides]
        for rows, bras, bra_of_row, kets, ket_of_row in _side_states(t, *sides, states):
            z = np.vecdot(bras[bra_of_row], kets[ket_of_row])
            for col, desc in columns:
                if desc in ("ax", "ay"):
                    out[1, rows, col] = z.real if desc == "ax" else z.imag
                else:
                    out[0, rows, col] = (np.vecdot(bras, bras).real / 2.0)[bra_of_row]
                    out[1, rows, col] = z.real / 2.0
    return out.reshape(2, -1)


def _overlap_pairs(t: _Table, states: dict) -> tuple[list[float], list[float]]:
    """``_overlaps`` as two lists of floats, (all w, all m), row by row: the
    form a per-row reference computes."""
    w, m = _overlaps(t, states).tolist()
    return w, m


# an OverlapSpec as a table of one row: the positions of its left circuit (0),
# right circuit (1), observable and label in its operand tables, and the
# ``_side_rows`` of each side pair, which reads the row's own two states
_ONE_ROW = tuple(np.array([k], dtype=np.intp) for k in (0, 1, 0, 0))
_ONE_ROW_SIDES = {
    (ket, bra): [(slice(None), [(("left", "right").index(bra), 0)], slice(None),
                  [(0, ("left", "right").index(ket), 0)], slice(None))]
    for ket, bra in set(_READOUT_SIDES.values())
}


def _table(item: OverlapSpec | Plan) -> _Table:
    """A Plan's own table, or an OverlapSpec as a table of one row."""
    if isinstance(item, Plan):
        rows = _plan_columns(item)
        return _Table(item.ids, ("ax", "ay"), item.circuits, item.observables, item.labels,
                      rows.left, rows.right, rows.observable, rows.label, rows.sides)
    return _Table((item.id,), item.readouts, (item.left, item.right), (item.observable,),
                  (item.input_label,), *_ONE_ROW, _ONE_ROW_SIDES)


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


def _readout_pairs(task: TaskSpec | OverlapSpec | Plan, states: dict) -> np.ndarray:
    """The (w, m) pairs of an item's readouts, as an array (2, rows x
    readouts), row by row; ``states`` is run_rows' cache."""
    if not isinstance(task, TaskSpec):
        return _overlaps(_table(task), states)
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
        task: TaskSpec | OverlapSpec | Plan,
        shots: int | None,
        seed: int,
        states: dict | None = None,
    ) -> tuple[tuple[float, ...], int]:
        """Run one item; returns (one value per readout, row by row, shots used):
        ``run_rows`` as plain floats."""
        values = self.run_rows(task, shots, seed, {} if states is None else states)
        return tuple(values.ravel().tolist()), 0 if shots is None else shots * values.size

    def run_rows(self, task: TaskSpec | OverlapSpec | Plan, shots: int | None, seed: int,
                 states: dict) -> np.ndarray:
        """Run one item; returns its values as an array, one row per task row
        and one column per readout.

        A task is one row; a Plan is its rows, each read as "ax", "ay". Each
        readout's (w, m) pair gives m exactly, or with shots the mean of draws
        on the stream (seed, row id, readout index). ``states`` lets the items
        of a batch share part states: it maps (circuit, input label) to the
        simulated state and is filled on a miss.
        """
        n = task.n_qubits
        if n > self.max_qubits:
            name = "plan" if isinstance(task, Plan) else f"task {task.id}"
            raise CapabilityMismatch(
                f"{name} needs {n} qubits, node supports {self.max_qubits}"
            )
        pairs = _readout_pairs(task, states)
        ids, readouts = _rows(task)
        if shots is None:
            return pairs[1].reshape(len(ids), len(readouts))
        streams = itertools.product(ids, range(len(readouts)))
        return np.fromiter(
            (_sampled_mean(w, m, shots, np.random.default_rng((seed, *stream)))
             for w, m, stream in zip(*pairs.tolist(), streams)),
            float, pairs.shape[1]).reshape(len(ids), len(readouts))


# --- wire protocol (network mode) ----------------------------------------------

@dataclass
class _Batch:
    """The rows of one start node (row id % node count) as one batch message.

    ``runs`` splits ``rows`` into the consecutive rows of one item: (item
    position, the row positions, readouts per row)."""

    start: int
    message: dict
    rows: list = field(default_factory=list)  # (item position, row position, row id, width)
    runs: list = field(default_factory=list)


def _wire_rows(item: TaskSpec | OverlapSpec | Plan):
    """(row id, width, circuits by field name, other fields) of each row of an item.

    The rows of a Plan or an OverlapSpec are overlap rows, a TaskSpec is a row
    of its own kind.
    """
    if isinstance(item, TaskSpec):
        yield item.id, item.n_qubits, {"circuit": item.circuit}, {
            "kind": item.kind, "readout": list(item.readouts)}
        return
    t = _table(item)
    observables = [o.letters if isinstance(o, PauliString) else _matrix_to_json(o)
                   for o in t.observables]
    readout = list(t.readouts)
    positions = (c.tolist() for c in (t.left, t.right, t.observable, t.label))
    for i, l, r, o, b in zip(t.ids, *positions):
        yield i, t.circuits[l].n_qubits, {"left": t.circuits[l], "right": t.circuits[r]}, {
            "kind": "overlap", "obs": observables[o], "input": t.labels[b], "readout": readout}


def _batches(items: list, n_nodes: int, shots: int | None, seed: int) -> list[_Batch]:
    """One batch per non-empty start node group, in start node order.

    A batch carries ``shots``, ``seed`` and each distinct circuit's gate JSON
    once, and one entry per row that points into its circuit list. Each gate
    JSON is encoded once per call.
    """
    batches: dict[int, _Batch] = {}
    encoded: dict = {}  # Circuit -> gate JSON
    positions: dict = {}  # (start node, Circuit) -> position in that batch's circuits
    for at, item in enumerate(items):
        for j, (row_id, width, refs, fields) in enumerate(_wire_rows(item)):
            start = row_id % n_nodes
            if start not in batches:
                batches[start] = _Batch(start, {
                    "type": "batch", "shots": shots, "seed": seed, "circuits": [], "tasks": []})
            b = batches[start]
            entry = {"id": row_id, **fields}
            for name, c in refs.items():
                if (start, c) not in positions:
                    positions[start, c] = len(b.message["circuits"])
                    if c not in encoded:
                        encoded[c] = circuit_to_json(c)
                    b.message["circuits"].append(encoded[c])
                entry[name] = positions[start, c]
            b.message["tasks"].append(entry)
            b.rows.append((at, j, row_id, width))
            if not b.runs or b.runs[-1][0] != at:
                b.runs.append((at, [], len(fields["readout"])))
            b.runs[-1][1].append(j)
    return [batches[s] for s in sorted(batches)]


def _task_from_row(row: dict, circuits: list[Circuit]) -> TaskSpec | OverlapSpec:
    """Decode one batch row, whose circuits are positions in ``circuits``; the
    wire carries only overlap and density rows."""

    def circuit(k) -> Circuit:
        if type(k) is not int or not 0 <= k < len(circuits):
            raise ValueError(f"no circuit {k!r} in the batch")
        return circuits[k]

    kind = row["kind"]
    readouts = tuple(str(r) for r in row["readout"])
    if kind == "overlap":
        left = circuit(row["left"])
        obs = row["obs"]
        return OverlapSpec(
            id=int(row["id"]),
            left=left,
            right=circuit(row["right"]),
            observable=(
                PauliString(left.n_qubits, obs)
                if isinstance(obs, str)
                else _matrix_from_json(obs, "observable")
            ),
            input_label=str(row["input"]),
            readouts=readouts,
        )
    if kind != "density":
        raise ValueError(
            f"task kind {kind!r} is not accepted over the wire "
            f"(protocol {PROTOCOL_VERSION} carries overlap and density tasks)"
        )
    return TaskSpec(id=int(row["id"]), kind=kind, circuit=circuit(row["circuit"]),
                    readouts=readouts)


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
                    self._send(
                        {
                            "type": "error",
                            "id": -1,
                            "message": f"unsupported protocol {msg.get('proto')!r}",
                        }
                    )
                    return  # close the connection on version mismatch
                greeted = True
                self._send(
                    {
                        "type": "hello_ack",
                        "proto": PROTOCOL_VERSION,
                        "max_qubits": self.server.backend.max_qubits,
                    }
                )
            elif mtype == "batch" and not greeted:
                self._send(
                    {
                        "type": "error",
                        "id": -1,
                        "message": f"handshake required: send hello with proto "
                                   f"{PROTOCOL_VERSION} before any batch",
                    }
                )
            elif mtype == "batch":
                self._send(self._run_batch(msg))
            elif mtype == "shutdown":
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return
            else:
                self._send({"type": "error", "id": -1, "message": f"unknown type {mtype!r}"})

    def _run_batch(self, msg: dict) -> dict:
        """Run a batch's rows in order with one part-state cache; the reply holds
        each row's values and shots used, or an error naming the failing row's id
        (-1 when the batch itself is malformed).

        Each circuit is parsed once, with non-unitary RAW gates admitted as
        density rows need; simulating an overlap row's part states refuses
        them, as a local run does. ``shots`` must be null or an integer >= 1
        and ``seed`` an integer >= 0, as in a ClusterConfig.
        """
        row_id = -1
        values, used = [], []
        shots, seed = msg.get("shots"), msg.get("seed")
        if not ((shots is None or _is_count(shots, 1)) and _is_count(seed, 0)):
            return {"type": "error", "id": -1,
                    "message": f"batch shots must be null or an integer >= 1 and its seed an "
                               f"integer >= 0, got shots {shots!r} and seed {seed!r}"}
        try:
            circuits = [parse_circuit(c, require_unitary=False) for c in msg["circuits"]]
            states: dict = {}
            for row in msg["tasks"]:
                row_id = row.get("id", -1) if isinstance(row, dict) else -1
                task = _task_from_row(row, circuits)
                self.server.count_task()
                row_values, row_used = self.server.backend.run_task(task, shots, seed, states)
                values.append([float(v) for v in row_values])
                used.append(row_used)
        except Exception as exc:  # report, keep serving
            return {"type": "error", "id": row_id, "message": str(exc)}
        return {"type": "result", "values": values, "shots_used": used}

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
        reply = json.loads(line.decode("utf-8"))
        if not isinstance(reply, dict):
            raise ConnectionError(f"unexpected reply from {self.address}")
        return reply

    def send_batch(self, batch: _Batch):
        """Send one batch, connecting first if needed. A row wider than the
        worker accepts raises CapabilityMismatch before anything is sent."""
        if self.sock is None:
            self._connect()
        for _, _, row_id, width in batch.rows:
            if width > self.max_qubits:
                raise CapabilityMismatch(
                    f"task {row_id} needs {width} qubits, "
                    f"worker {self.address} supports {self.max_qubits}"
                )
        self._send(batch.message)

    def read_result(self, batch: _Batch) -> tuple[list[np.ndarray], list]:
        """Read the reply to ``batch``: (the values of each of its runs, as an
        array with one row per task row and one column per readout; the shots
        used by each row). Values that are not finite numbers in that shape
        make the reply malformed."""
        reply = self._recv()
        if reply.get("type") == "error":
            raise RuntimeError(
                f"worker {self.address}: task {reply.get('id')}: {reply.get('message')}")
        values, used = reply.get("values"), reply.get("shots_used")
        malformed = ConnectionError(
            f"unexpected reply from {self.address} to a batch of {len(batch.rows)} tasks")
        if (reply.get("type") != "result" or not isinstance(values, list)
                or not isinstance(used, list) or not len(values) == len(used) == len(batch.rows)):
            raise malformed
        blocks, start = [], 0
        for _, rows, k in batch.runs:
            try:
                block = np.array(values[start:start + len(rows)], dtype=float)
            except (TypeError, ValueError):
                raise malformed from None
            if block.shape != (len(rows), k) or not np.isfinite(block).all():
                raise malformed
            blocks.append(block)
            start += len(rows)
        return blocks, used

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


def _run(items: list, cfg: ClusterConfig) -> tuple[list[np.ndarray], list | None]:
    """Run every item exactly once, through one path per mode; returns each
    item's values (one row per task row, one column per readout) and, in
    network mode, each batch with its reply (None in local mode).

    In local mode the items of one call share their part states: each
    distinct (circuit object, input label) is simulated once and kept until
    the call returns. In network mode the rows of all items are grouped by
    start node (row id % node count), each group is one batch message, and
    every batch is sent before any reply is read, so the workers compute at
    once (``_dispatch``); the replies fill the same arrays.
    """
    if cfg.mode == "local":
        backend = ExactBackend()
        worst = max((t.n_qubits for t in items), default=0)
        if worst > backend.max_qubits:
            raise CapabilityMismatch(
                f"plan needs {worst} qubits, nodes support {backend.max_qubits}"
            )
        states: dict = {}
        return [backend.run_rows(item, cfg.shots, cfg.seed, states) for item in items], None
    batches = _batches(items, len(cfg.nodes), cfg.shots, cfg.seed)
    clients = [_WorkerClient(a) for a in cfg.nodes]
    try:
        replies = _dispatch(clients, batches, cfg.retry_limit)
    finally:
        for c in clients:
            c.close()
    values = [np.empty((len(ids), len(readouts))) for ids, readouts in map(_rows, items)]
    for batch, (_, blocks, _) in zip(batches, replies):
        for (at, rows, _), block in zip(batch.runs, blocks):
            values[at][rows] = block
    return values, list(zip(batches, replies))


def execute_tasks(
    tasks: list[TaskSpec | OverlapSpec] | list[Plan], cfg: ClusterConfig
) -> list[TaskResult] | list[list[TaskResult]]:
    """Run every task exactly once; assignment is task id modulo node count.

    ``tasks`` is either a list of TaskSpec / OverlapSpec, whose results come
    back in ascending task id order, or a list of Plans, whose results come
    back as one list per plan, each in the plan's ascending id order. Both run
    as items (a plan, or a task as one row) through ``_run``. Each plan keeps
    its own ids, so a row's node, shot stream and result are those of the
    same row run as a single overlap task. The TaskResults are built here,
    from the run's arrays.
    """
    plans = [t for t in tasks if isinstance(t, Plan)]
    if plans and len(plans) != len(tasks):
        raise TypeError("execute_tasks takes a list of tasks or a list of plans, not both")
    items = plans or sorted(tasks, key=lambda t: t.id)
    values, answers = _run(items, cfg)
    if answers is None:  # local: node id % nodes, shots x readouts for every row
        sources = [(map(operator.mod, _rows(item)[0], itertools.repeat(cfg.nodes)),
                    itertools.repeat(0 if cfg.shots is None else cfg.shots * v.shape[1]))
                   for item, v in zip(items, values)]
    else:  # network: the address that answered, and the shots its reply names
        sources = [([None] * len(v), [0] * len(v)) for v in values]
        for batch, (address, _, used) in answers:
            for (at, j, _, _), row_used in zip(batch.rows, used):
                sources[at][0][j] = address
                sources[at][1][j] = int(row_used)
    out = [list(map(TaskResult, _rows(item)[0], map(tuple, v.tolist()), used, nodes))
           for item, v, (nodes, used) in zip(items, values, sources)]
    return out if plans else [r for (r,) in out]


def estimate_plans(plans: list[Plan], cfg: ClusterConfig) -> list[complex]:
    """The value of each plan: bit for bit
    ``[aggregate(p, r) for p, r in zip(plans, execute_tasks(plans, cfg))]``,
    reduced from the run's arrays with no TaskResult built."""
    values, _ = _run(plans, cfg)
    return [_reduce(_plan_columns(p), v.view(complex).ravel()) for p, v in zip(plans, values)]


_WIRE_ERRORS = (OSError, ConnectionError, json.JSONDecodeError)


def _dispatch(clients: list[_WorkerClient], batches: list[_Batch], retry_limit: int
              ) -> list[tuple[str, list, list]]:
    """Run every batch; returns (address that answered, values of each run of
    rows, shots used by each row) per batch (``read_result``).

    Each round sends every pending batch before it reads any reply, at most one
    per node. A batch starts at its start node and moves whole to the next live
    node in ring order when its connection fails; that node is marked dead, and
    the batch fails after ``retry_limit`` attempts. A batch whose next node
    already holds one waits for the next round, without spending an attempt:
    a worker reads its next line only after writing its reply, so a second
    large batch sent behind a large reply could block both ends.
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
        queue, pending, sent = collections.deque(pending), [], {}
        while queue:
            b = queue.popleft()
            batch = batches[b]
            while steps[b] < n and not alive[(batch.start + steps[b]) % n]:
                steps[b] += 1
            if steps[b] == n or attempts[b] >= retry_limit:
                raise NodeFailure(
                    f"the batch of {len(batch.rows)} task(s) from node {batch.start} "
                    f"failed after {attempts[b]} attempt(s): {failures[b]}"
                )
            node = (batch.start + steps[b]) % n
            if node in sent:
                pending.append(b)
                continue
            steps[b] += 1
            attempts[b] += 1
            try:
                clients[node].send_batch(batch)
            except _WIRE_ERRORS as exc:
                drop(node, b, exc)
                queue.appendleft(b)
                continue
            sent[node] = b
        for node, b in sent.items():
            try:
                replies[b] = (clients[node].address, *clients[node].read_result(batches[b]))
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
    if [r.task_id for r in results] != list(plan.ids):  # not one result per row, in order
        by_id: dict[int, TaskResult] = {}
        for r in results:
            if r.task_id in by_id:
                raise MissingResult(f"duplicate result for task {r.task_id}")
            by_id[r.task_id] = r
        for i in plan.ids:
            if i not in by_id:
                raise MissingResult(f"no result for task {i}")
        if len(by_id) > len(plan.ids):
            stray = min(by_id.keys() - set(plan.ids))
            raise MissingResult(f"result for task {stray} is not a row of the plan")
        results = [by_id[i] for i in plan.ids]
    values = [r.value for r in results]
    try:
        if set(map(len, values)) - {2}:
            raise ValueError
        z = np.fromiter(itertools.chain.from_iterable(values), float, 2 * len(values))
    except (TypeError, ValueError):
        bad = next(i for i, v in zip(plan.ids, values) if not _is_pair(v))
        raise ValueError(f"result for task {bad} is not an (re, im) pair") from None
    return _reduce(_plan_columns(plan), z.view(complex))


def _reduce(rows, z: np.ndarray) -> complex:
    """A plan's value from its rows' overlaps z, in ascending id order.

    A group is a run of rows whose indices[:5] agree (``rows.groups``). Its
    members' overlaps are multiplied in ascending id order, starting from 1,
    and its coefficient (that of its last a = 0 member, else 1) multiplies
    the product; the group values are then added in ascending id order,
    starting from 0. Every product and sum is rounded as Python's complex
    arithmetic rounds it, so the total is reproducible across modes and node
    counts.
    """
    coefficient, members = rows.groups
    product = np.ones(len(coefficient), dtype=complex)
    for groups, member in members:
        product[groups] = _complex_product(product[groups], z[member])
    return complex(_sequential_sum(_complex_product(coefficient, product)))
