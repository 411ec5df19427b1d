"""What a node runs: the exact backend, its part-state cache and the readout law.

A plan's subtasks, the GHZ gram entries and the wire-cut density tasks run
as overlap rows: the backend simulates the left and right gate lists on the
part's w qubits and forms z = <U_r psi0| O U_l psi0>, which fixes the
single-ancilla estimator's readouts (ax = Re z, ay = Im z, and the
ancilla-branch projectors p0 / p1); an "e:<P>" readout reads the Pauli
expectation of the left state itself. One batched routine (``_overlaps``)
reads them over a ``table.OverlapTable``, the one type of overlap rows, and
the distinct part states its rows read, which the table derives once and
keeps: a ``planner.Plan`` is a table whose rows read ("ax", "ay"), ghz's
gram entries are four tables of one readout each, density tasks are tables
of "e:<P>" readouts (``_density_tables``), and a worker decodes
each item of a batch as one table (``wire``), so a row gives the same bits
everywhere. Plans that share a channel (one derived-value holder and the
same labels, ``table._stacks``) are read as one stack, per part one
``np.vecdot`` over (plans x pairs), in a local run and on a worker alike (a
worker's items share no columns, so each is a stack of one).

The part-state cache (``_PartStates``) is the same locally and on a worker:
each distinct (circuit, input label) is simulated once per call or batch and
kept as its end state. ``ExactBackend.run_rows`` pushes every state its
items' tables read at once, as stacks, one gate depth at a time (one walk
per width and unitary flag), so each gate prefix that those circuits
share is applied once and the states of one depth share one gate call per
qubit tuple. Simulation stays inside ``ExactBackend.run_task`` /
``run_rows``, which hold a node's width cap, in process and on a worker.
``_apply_observable`` is an observable's action on a state or a stack of
states, which the readouts read: a Pauli string as a cached signed
permutation, a matrix as one stacked matvec.

Every readout of every task kind is a pair (w, m) with one outcome law:
P(+1) = (w + m) / 2, P(-1) = (w - m) / 2, P(0) = 1 - w. Exact mode returns m;
sampled mode returns the mean of draws from that law.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .circuit import (PAULI_1Q, Circuit, Gate, NotUnitary, PauliString, basis_state, simulate,
                      _evolve, _not_unitary)
from .linalg import _is_count, _unitary_each
from .planner import Plan
from .table import _ID_RULE, OverlapTable, _index_column, _parse_readout, _stacks


class CapabilityMismatch(ValueError):
    """Raised when a task exceeds what the target node can execute."""


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
    """O|state>, or O on each state of a stack (states x amplitudes): a
    signed permutation for Pauli letters, one stacked ``np.matmul`` for a
    matrix, which runs per state the matvec that ``O @ s`` runs. A stacked
    state gets the bits of its own call."""
    if not isinstance(observable, PauliString):
        return np.matmul(observable, state[..., None])[..., 0]
    source, phase = _pauli_action(observable.letters)
    return phase * state[..., source]


class _PartStates:
    """The runtime's one part-state cache, for a local call or a worker's
    batch: U|label> for each (circuit, input label, unitary) that its rows
    read, kept as end states only.

    ``push`` computes the states asked for together in one walk per width,
    one gate depth at a time, from the basis states of their labels: the
    push's circuits that share a label and a gate prefix are one lane with
    one state, which splits by their next Gate object, and the lanes of one
    depth whose next gates act on the same qubits are one ``_evolve`` step
    over the stack of their states, with one matrix when they share a Gate
    and stacked matrices otherwise, so each gate prefix that the push's
    circuits share is applied once. ``_apply`` gives each state of a stack
    the bits it gets pushed alone, so every state has the bits of its
    circuit run alone, and no state passes a gate twice.

    unitary=True is ``simulate``: RAW gates must be unitary and the norm must
    hold. unitary=False is the linear map that a table of "e:<P>" readouts
    alone reads (density tasks run as such tables), with its states kept
    apart, so an "ax" / "ay" / "p0" / "p1" row refuses a non-unitary RAW
    gate that an "e:" row has pushed a vector through. Each RAW gate is
    tested once, by the first push that meets it, and the result is kept
    per gate.
    """

    def __init__(self):
        self._unitary: dict[Gate, bool] = {}  # each tested RAW gate -> is it unitary
        self._done: dict = {}  # (circuit, label, unitary) -> the end state, flat
        self._stacks: dict = {}  # (circuits, labels, positions, unitary) -> their states

    def __len__(self) -> int:
        """The number of states kept."""
        return len(self._done)

    def stack(self, circuits: tuple[Circuit, ...], labels: tuple[str, ...],
              at: tuple[tuple[int, int], ...], unitary: bool = True) -> np.ndarray:
        """The states of the (circuit, label) positions ``at`` in ``circuits``
        and ``labels``, stacked; kept, so each stack is built once."""
        key = (circuits, labels, at, unitary)
        stack = self._stacks.get(key)
        if stack is None:
            pairs = [(circuits[c], labels[b]) for c, b in at]
            self.push(pairs, unitary)
            stack = self._stacks[key] = np.array([self._done[(*p, unitary)] for p in pairs])
        return stack

    def state(self, c: Circuit, label: str, unitary: bool = True) -> np.ndarray:
        """U|label> over the circuit's own qubits, computed on a miss."""
        self.push(((c, label),), unitary)
        return self._done[c, label, unitary]

    def push(self, pairs, unitary: bool = True) -> None:
        """Compute the states U|label> of the (circuit, label) pairs not yet
        kept, in one walk per width. Their RAW gates not yet tested get
        ``is_unitary``'s test first, one stacked test per matrix size,
        whatever rows will read them: with ``unitary`` a circuit is refused
        before anything runs if one of its RAW gates failed it, and a
        unitary=False push applies it."""
        wanted = [p for p in dict.fromkeys(pairs) if (*p, unitary) not in self._done]
        raw: dict[int, dict[Gate, None]] = {}  # untested RAW gates by matrix size
        for c, _ in wanted:
            for g in c.gates:
                if g.kind == "RAW" and g not in self._unitary:
                    raw.setdefault(len(g.raw), {})[g] = None
        for gates in raw.values():
            passed = _unitary_each(np.array([g.raw for g in gates]))
            self._unitary.update(zip(gates, passed.tolist()))
        for c, _ in wanted if unitary else ():
            for g in c.gates:
                if not self._unitary.get(g, True):
                    raise _not_unitary(g)
        widths: dict = {}
        for c, label in wanted:
            widths.setdefault(c.n_qubits, []).append((c, label))
        for pairs in widths.values():
            self._walk(pairs, unitary)

    def _walk(self, pairs, unitary: bool) -> None:
        """Push the states of (circuit, label) pairs of one width, one gate
        depth at a time. A lane is one label with the circuits that share
        its gate prefix so far, and its state is a row of ``stack``; the
        walk starts one lane per label, from its basis state, and at each
        depth a lane's circuits that end there are done and the others
        split into one lane per next Gate."""
        by_label: dict = {}  # label -> the circuits that read it
        for c, label in pairs:
            by_label.setdefault(label, []).append(c)
        width = pairs[0][0].n_qubits
        lanes = list(by_label.items())  # (label, circuits), one per row of stack
        stack = np.array([basis_state(width, int(label, 2)).reshape((2,) * width)
                          for label in by_label])
        for depth in range(max(len(c.gates) for c, _ in pairs) + 1):
            rows, gates, lanes_on = [], [], []  # per edge: the parent row, the Gate, the lane
            for row, (label, circuits) in enumerate(lanes):
                by_gate: dict = {}  # next Gate -> the circuits that go on by it
                for c in circuits:
                    if len(c.gates) == depth:
                        self._finish(c, label, unitary, stack[row])
                    else:
                        by_gate.setdefault(c.gates[depth], []).append(c)
                for g, cs in by_gate.items():
                    rows.append(row)
                    gates.append(g)
                    lanes_on.append((label, cs))
            if rows != list(range(len(lanes))):
                stack = stack[rows]
            lanes = lanes_on
            if not gates:  # every circuit has ended
                return
            groups: dict = {}  # qubits -> the rows whose next gate acts on them
            for row, g in enumerate(gates):
                groups.setdefault(g.qubits, []).append(row)
            if len(groups) == 1:
                stack = _evolve((_step(gates),), stack, check_unitary=False, stack=True)
                continue
            out = np.empty_like(stack)
            for at in groups.values():
                out[at] = _evolve((_step([gates[r] for r in at]),), stack[at],
                                  check_unitary=False, stack=True)
            stack = out

    def _finish(self, c: Circuit, label: str, unitary: bool, state: np.ndarray) -> None:
        """Keep a circuit's end state, flat; a unitary one must keep its norm."""
        flat = state.reshape(-1)
        if unitary and abs(math.sqrt(np.vdot(flat, flat).real) - 1.0) > 1e-10:
            raise NotUnitary("simulation did not preserve the state norm")
        self._done[c, label, unitary] = flat


def _step(gates: list) -> Gate | tuple:
    """One ``_evolve`` step for a stack whose states get ``gates``: their one
    Gate when they share it, else the tuple."""
    return gates[0] if all(g is gates[0] for g in gates) else tuple(gates)


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
