"""Gate-list circuit IR with a dense statevector simulator.

Conventions:
- Qubit 0 is the most significant bit of the state index: basis state |q0 q1 ... >
  has index q0*2^(n-1) + q1*2^(n-2) + ...
- Rotation gates use the half-angle convention RX(t) = exp(-i t X / 2) (same for
  RY/RZ); PHASE(t) = diag(1, e^{i t}).
- Controlled two-qubit gates store (control, target) in that order in ``qubits``.
- RAW gates carry an explicit matrix over their qubit tuple (first listed qubit is
  the most significant bit of the block).

Per-gate work is done once per distinct gate: a ``Gate`` computes its
read-only matrix on first use and keeps it, and ``parse_circuit`` decodes
value-equal non-RAW entries to one shared ``Gate``, keyed by the parameters'
exact bits (so 0.0 and -0.0 stay apart), through a memo that lives for one
call. A worker batch (runtime, since protocol 5) carries its distinct gates
as one circuit JSON, its gate table: ``circuit_to_json`` encodes it and one
``parse_circuit`` call decodes it, and the batch's circuits are positions in
it. ``_gate_key`` tells value-equal gates apart from the others, RAW gates
included, by exact bits. ``_apply`` runs, per state of a stack, the BLAS
call that ``np.tensordot``'s ``np.dot`` makes, on the same operands, so
states keep their bits, and ``_PartStates``, the runtime's one cache of part
states, pushes its states as stacks one gate depth at a time, applies each
gate prefix that the circuits of one push share once, keeps end states
only and tests the RAW gates it registers for unitarity in one stacked
test per matrix size. ``_apply_observable`` is
an observable's action on a state or a stack of states, which the runtime's
readouts read: a Pauli string as a cached signed permutation, a matrix as
one stacked matvec.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, _is_count, _unitary_each, is_unitary

__all__ = [
    "Gate",
    "Circuit",
    "PauliString",
    "NotUnitary",
    "TooLarge",
    "CircuitFormatError",
    "GATE_ARITY",
    "PAULI_1Q",
    "gate_matrix",
    "simulate",
    "circuit_unitary",
    "circuit_to_json",
    "parse_circuit",
    "pauli_matrix",
    "basis_state",
]


class NotUnitary(ValueError):
    """Raised when a RAW gate matrix must be unitary and is not."""


class TooLarge(ValueError):
    """Raised when a dense operation would exceed the supported qubit count."""


class CircuitFormatError(ValueError):
    """Raised on malformed circuit JSON."""


def _bits(params) -> bytes:
    """The exact bits of a parameter tuple: a memo key that keeps 0.0 and -0.0
    apart, as a float key would not."""
    return struct.pack("d" * len(params), *params)


def _gate_key(g: Gate) -> tuple:
    """A key that value-equal gates share: kind, qubits and the exact bits of
    the parameters and of a RAW matrix."""
    return g.kind, g.qubits, _bits(g.params), None if g.raw is None else g.raw.tobytes()


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


_SQ2 = 1.0 / np.sqrt(2.0)

PAULI_1Q: dict[str, np.ndarray] = {
    "I": _read_only(np.eye(2, dtype=complex)),
    "X": _read_only(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": _read_only(np.array([[1, 0], [0, -1]], dtype=complex)),
}

# the matrices of the kinds without parameters
_FIXED: dict[str, np.ndarray] = {
    **PAULI_1Q,
    "H": _read_only(np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)),
    "S": _read_only(np.diag([1.0, 1.0j]).astype(complex)),
    "T": _read_only(np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)),
    "CZ": _read_only(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)),
    "CNOT": _read_only(np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )),
}

# arity None means "derived from the RAW matrix shape"
GATE_ARITY: dict[str, int | None] = {
    "I": 1, "X": 1, "Y": 1, "Z": 1, "H": 1, "S": 1, "T": 1,
    "RX": 1, "RY": 1, "RZ": 1, "PHASE": 1,
    "CZ": 2, "CNOT": 2,
    "RAW": None,
}

_PARAM_COUNT: dict[str, int] = {"RX": 1, "RY": 1, "RZ": 1, "PHASE": 1}


@functools.lru_cache(maxsize=4096, typed=True)
def _qubit_tuple(*qubits) -> tuple[tuple[int, ...], bool, bool]:
    """(the qubits as ints, whether one is negative, whether one repeats), kept
    per typed value: ``typed`` keeps 1 and True apart, as ``int`` would see them."""
    q = tuple(map(int, qubits))
    return q, bool(q) and min(q) < 0, len(set(q)) != len(q)


@dataclass(frozen=True, eq=False, init=False)
class Gate:
    """One gate application: a kind, the qubits it acts on, optional params/matrix.

    ``qubits`` is stored as a tuple of ints and ``params`` as a tuple of
    floats, whatever numbers they were given as; a qubit tuple is converted
    and checked once per distinct typed value (``_qubit_tuple``).
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    raw: np.ndarray | None = None

    def __init__(self, kind: str, qubits, params=(), raw=None):
        if kind not in GATE_ARITY:
            raise CircuitFormatError(f"unknown gate kind {kind!r}")
        qubits, negative, repeated = _qubit_tuple(*qubits)
        if params.__class__ is not tuple or params:
            params = tuple(map(float, params))
        fields = self.__dict__  # frozen: the fields are set here once
        fields["kind"], fields["qubits"], fields["params"] = kind, qubits, params
        if negative:
            raise CircuitFormatError(f"negative qubit index in {kind}")
        if repeated:
            raise CircuitFormatError(f"repeated qubit in {kind} gate {qubits}")
        want_params = _PARAM_COUNT.get(kind, 0)
        if len(params) != want_params:
            raise CircuitFormatError(
                f"{kind} takes {want_params} parameter(s), got {len(params)}"
            )
        k = len(qubits)
        if kind == "RAW":
            if raw is None:
                raise CircuitFormatError("RAW gate needs a matrix")
            raw = np.asarray(raw, dtype=complex)
            if k == 0:
                raise CircuitFormatError("RAW gate needs at least one qubit")
            if raw.shape != (2**k, 2**k):
                raise CircuitFormatError(
                    f"RAW matrix shape {raw.shape} does not match {k} qubit(s)"
                )
        else:
            if raw is not None:
                raise CircuitFormatError(f"{kind} gate must not carry a matrix")
            arity = GATE_ARITY[kind]
            if k != arity:
                raise CircuitFormatError(f"{kind} acts on {arity} qubit(s), got {k}")
        fields["raw"] = raw

    @functools.cached_property
    def _matrix(self) -> np.ndarray:
        """``gate_matrix``, computed on first use and kept with the gate."""
        if self.kind == "RAW":
            return self.raw
        if not self.params:
            return _FIXED[self.kind]
        return _read_only(_rotation(self.kind, self.params[0]))


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate list over ``n_qubits`` qubits (applied left to right)."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", int(self.n_qubits))
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n_qubits < 1:
            raise CircuitFormatError("circuit needs at least one qubit")
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise CircuitFormatError(
                    f"gate {g.kind} on {g.qubits} exceeds width {self.n_qubits}"
                )


@dataclass(frozen=True)
class PauliString:
    """A tensor product of one-qubit Paulis, e.g. letters='XIZ' over 3 qubits."""

    n_qubits: int
    letters: str

    def __post_init__(self):
        object.__setattr__(self, "letters", str(self.letters).upper())
        if len(self.letters) != self.n_qubits:
            raise DimensionMismatch(
                f"need {self.n_qubits} letters, got {len(self.letters)}"
            )
        if any(ch not in "IXYZ" for ch in self.letters):
            raise ValueError(f"letters must be over IXYZ, got {self.letters!r}")

    def matrix(self) -> np.ndarray:
        return pauli_matrix(self.letters)


def pauli_matrix(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli letter string (first letter = most significant qubit)."""
    if len(letters) > 12:
        raise TooLarge("dense Pauli matrices are limited to 12 qubits")
    out = np.array([[1.0 + 0j]])
    for ch in letters:
        out = np.kron(out, PAULI_1Q[ch])
    return out


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


def _rotation(kind: str, theta: float) -> np.ndarray:
    """The matrix of a one-parameter gate."""
    if kind == "RX":
        t = theta / 2
        return np.array(
            [[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]], dtype=complex
        )
    if kind == "RY":
        t = theta / 2
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
    if kind == "RZ":
        t = theta / 2
        return np.diag([np.exp(-1j * t), np.exp(1j * t)]).astype(complex)
    return np.diag([1.0, np.exp(1j * theta)]).astype(complex)  # PHASE


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense matrix of a gate over its own qubit tuple (first qubit = MSB).

    Every kind but RAW gets a read-only matrix: a module constant for the
    kinds without parameters, else one computed on the gate's first use and
    kept with it. A RAW gate returns its own matrix.
    """
    return g._matrix


@functools.lru_cache(maxsize=1024)
def _axes(ndim: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation of a stack of ``ndim``-axis states (stack axis first)
    that brings the axes ``qubits`` of each state right after the stack
    axis, and its inverse."""
    front = (0, *(q + 1 for q in qubits), *(a + 1 for a in range(ndim) if a not in qubits))
    return front, tuple(np.argsort(front).tolist())


def _apply(state_t: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...],
           stack: bool = False) -> np.ndarray:
    """Apply a gate matrix to the given qubit axes of a tensored state.

    ``state_t`` has one axis of length 2 per qubit, plus optionally trailing batch
    axes; qubit axes come first. With ``stack`` it is a stack of such states
    (stack axis first), and ``mat`` is one matrix for all of them or a stack
    of matrices, one per state. The result is bit for bit
    ``np.moveaxis(np.tensordot(mat_t, state_t, axes=(range(k, 2k), qubits)),
    range(k), qubits)`` with ``mat_t`` the matrix as (2,) * 2k, for each
    state of a stack alike, in the same transposed layout: one ``np.matmul``
    over the leading stack axis runs, per state, the BLAS call that
    tensordot's ``np.dot`` makes on the state with the target axes first as
    a (2**k, -1) matrix. A matrix that is neither C- nor F-contiguous is
    copied first, as ``np.dot`` copies it. (``np.dot`` over a trailing stack
    axis would not keep the bits: it rounds differently when a state has few
    columns beside the gate.)
    """
    if not stack:
        return _apply(state_t[None], mat, qubits, True)[0]
    if not (mat.flags.c_contiguous or mat.flags.f_contiguous):
        mat = np.ascontiguousarray(mat)
    k = len(qubits)
    front, back = _axes(state_t.ndim - 1, qubits)
    moved = state_t.transpose(front)
    return np.matmul(mat, moved.reshape(len(moved), 2**k, -1)).reshape(moved.shape).transpose(back)


def basis_state(n_qubits: int, index: int = 0) -> np.ndarray:
    """Computational basis vector |index> over n qubits."""
    v = np.zeros(2**n_qubits, dtype=complex)
    v[index] = 1.0
    return v


def _evolve(steps, state_t: np.ndarray, *, check_unitary: bool,
            stack: bool = False) -> np.ndarray:
    """Push a tensored state (qubit axes first, then batch axes) through a
    gate list, or with ``stack`` a stack of them (stack axis first) through
    a list of steps.

    The one gate loop of the package: one ``_apply`` call per step. A step
    is a Gate, whose one matrix every state of a stack gets, or a tuple of
    Gates on one qubit tuple, the i-th for state i, whose matrices are
    stacked. With ``check_unitary=False`` every gate is applied as the
    linear map its matrix gives, unitary or not. ``state_t`` is only read,
    so a caller may push it through several gate lists.
    """
    for step in steps:
        gates = step if isinstance(step, tuple) else (step,)
        for g in gates if check_unitary else ():
            if g.kind == "RAW" and not is_unitary(g.raw):
                raise _not_unitary(g)
        mat = gate_matrix(step) if isinstance(step, Gate) else np.array(list(map(gate_matrix, step)))
        state_t = _apply(state_t, mat, gates[0].qubits, stack)
    return state_t


def _not_unitary(g: Gate) -> NotUnitary:
    return NotUnitary(f"RAW gate on {g.qubits} is not unitary within 1e-10")


class _Prefix:
    """A node of ``_PartStates``' prefix tree: the nodes one gate further, by
    Gate object, and whether a registered circuit ends here."""

    __slots__ = ("next", "end")

    def __init__(self):
        self.next: dict[Gate, _Prefix] = {}
        self.end = False

    @property
    def branches(self) -> bool:
        """Whether more than one registered circuit goes on from here in
        different ways: two next gates, or an end with a next gate."""
        return len(self.next) > 1 or (self.end and bool(self.next))


class _PartStates:
    """The runtime's one part-state cache, for a local call or a worker's
    batch: U|label> for each (circuit, input label, unitary) that its rows
    read, kept as end states only.

    The gate lists of the circuits it has pushed form a prefix tree whose
    edges are Gate objects. ``push`` computes the states asked for together
    in one walk from the root per width, one gate depth at a time: the edges
    of one depth that act on the same qubits are one ``_evolve`` step over
    the stack of their states, with one matrix when they share a Gate and
    stacked matrices otherwise, so each gate prefix that the push's circuits
    share is applied once. ``_apply`` gives each state of a stack the bits
    it gets pushed alone, so every state has the bits of its circuit run
    alone, and no state passes a gate twice.

    unitary=True is ``simulate``: RAW gates must be unitary and the norm must
    hold. unitary=False is the linear map that a table of "e:<P>" readouts
    alone reads (density tasks run as such tables), with its states kept
    apart, so an "ax" / "ay" / "p0" / "p1" row refuses a non-unitary RAW
    gate that an "e:" row has pushed a vector through. Each RAW gate is checked once,
    when a push first registers it, and the result is kept per gate.
    """

    def __init__(self):
        self._tree = _Prefix()
        self._unitary: dict[Gate, bool] = {}  # each registered RAW gate -> is it unitary
        self._done: dict = {}  # (circuit, label, unitary) -> the end state, flat
        self._stacks: dict = {}  # (circuits, labels, positions, unitary) -> their states

    def __len__(self) -> int:
        """The number of states kept."""
        return len(self._done)

    def _add(self, circuits):
        """Register circuits in the prefix tree. Their new RAW gates get
        ``is_unitary``'s test, one stacked test per matrix size, whatever
        rows will read them: a unitary push refuses a gate that failed it,
        and a unitary=False push applies it."""
        raw: dict[int, dict[Gate, None]] = {}  # new RAW gates by matrix size
        for c in circuits:
            node = self._tree
            for g in c.gates:
                child = node.next.get(g)
                if child is None:
                    child = node.next[g] = _Prefix()
                    if g.kind == "RAW" and g not in self._unitary:
                        raw.setdefault(len(g.raw), {})[g] = None
                node = child
            node.end = True
        for gates in raw.values():
            passed = _unitary_each(np.array([g.raw for g in gates]))
            self._unitary.update(zip(gates, passed.tolist()))

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
        kept, in one walk of the prefix tree per width; their circuits are
        registered first, and with ``unitary`` each is refused before
        anything runs if one of its RAW gates failed the unitarity test."""
        wanted = [p for p in dict.fromkeys(pairs) if (*p, unitary) not in self._done]
        self._add(c for c, _ in wanted)
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
        """Push the states of (circuit, label) pairs of one width from the
        root, one gate depth at a time. A lane is one distinct (tree node,
        label) on the way, with the circuits that go through it and its
        state, a row of ``stack``; the walk starts one lane per label at the
        root, from its basis state, at a branch node a lane splits into one
        lane per next gate, and a circuit's state is done at its end node."""
        by_label: dict = {}  # label -> the circuits that read it
        for c, label in pairs:
            by_label.setdefault(label, []).append(c)
        width = pairs[0][0].n_qubits
        lanes = [(self._tree, label, cs) for label, cs in by_label.items()]  # one per row of stack
        stack = np.array([basis_state(width, int(label, 2)).reshape((2,) * width)
                          for label in by_label])
        for depth in range(max(len(c.gates) for c, _ in pairs) + 1):
            rows, gates, lanes_on = [], [], []  # per edge: the parent row, the Gate, the lane
            for row, (node, label, circuits) in enumerate(lanes):
                if not node.branches:  # all its circuits go on by its one next gate, or end
                    if node.next:
                        (g, child), = node.next.items()
                        rows.append(row)
                        gates.append(g)
                        lanes_on.append((child, label, circuits))
                    else:
                        for c in circuits:
                            self._finish(c, label, unitary, stack[row])
                    continue
                by_gate: dict = {}
                for c in circuits:
                    if len(c.gates) == depth:
                        self._finish(c, label, unitary, stack[row])
                    else:
                        by_gate.setdefault(c.gates[depth], []).append(c)
                for g, cs in by_gate.items():
                    rows.append(row)
                    gates.append(g)
                    lanes_on.append((node.next[g], label, cs))
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


def simulate(c: Circuit, input_state) -> np.ndarray:
    """Apply the circuit to an input statevector; norm is preserved within 1e-10.

    RAW gates must be unitary (within 1e-10) on this path.
    """
    vec = np.asarray(input_state, dtype=complex).reshape(-1)
    if vec.shape[0] != 2**c.n_qubits:
        raise DimensionMismatch(
            f"input dim {vec.shape[0]} != 2^{c.n_qubits}"
        )
    norm_in = float(np.linalg.norm(vec))
    out = _evolve(c.gates, vec.reshape((2,) * c.n_qubits), check_unitary=True).reshape(-1)
    if abs(float(np.linalg.norm(out)) - norm_in) > 1e-10 * max(1.0, norm_in):
        raise NotUnitary("simulation did not preserve the state norm")
    return out


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (capped at 12 qubits)."""
    if c.n_qubits > 12:
        raise TooLarge(f"dense unitary capped at 12 qubits, got {c.n_qubits}")
    dim = 2**c.n_qubits
    batch = np.eye(dim, dtype=complex).reshape((2,) * c.n_qubits + (dim,))
    return _evolve(c.gates, batch, check_unitary=True).reshape(dim, dim)


# --- JSON (de)serialization -------------------------------------------------

def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _matrix_from_json(obj, where: str) -> np.ndarray:
    try:
        rows = []
        for row in obj:
            rows.append([complex(float(e[0]), float(e[1])) for e in row])
        m = np.array(rows, dtype=complex)
    except (TypeError, ValueError, IndexError) as exc:
        raise CircuitFormatError(f"bad matrix in {where}: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise CircuitFormatError(f"matrix in {where} is not square")
    return m


def circuit_to_json(c: Circuit) -> dict:
    """Plain-JSON form: {'n': int, 'gates': [{'kind', 'qubits', 'params'?, 'raw'?}]}."""
    gates = []
    for g in c.gates:
        entry: dict = {"kind": g.kind, "qubits": list(g.qubits)}
        if g.params:
            entry["params"] = list(g.params)
        if g.kind == "RAW":
            entry["raw"] = _matrix_to_json(g.raw)
        gates.append(entry)
    return {"n": c.n_qubits, "gates": gates}


def _finite(p) -> bool:
    """Whether ``p`` is a finite JSON number: an int or a float, not a bool."""
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        return False
    try:
        return math.isfinite(p)
    except OverflowError:  # an int beyond the float range
        return False


def parse_circuit(obj, *, require_unitary: bool = True) -> Circuit:
    """Parse the JSON form back into a Circuit; unknown fields are rejected.

    ``n`` and every qubit must be JSON integers (not bools, floats or
    strings) and every param a finite JSON number, or CircuitFormatError is
    raised. Value-equal non-RAW entries decode to one shared Gate; RAW gates
    are parsed and checked one by one.

    ``require_unitary=False`` admits non-unitary RAW matrices. A worker
    parses its batch's gate table this way, because a table of "e:<P>"
    readouts alone pushes an unnormalized statevector through the gates;
    any other overlap row refuses them when it simulates its states.
    """
    shared: dict = {}  # (kind, qubits, param bits) -> Gate
    if not isinstance(obj, dict):
        raise CircuitFormatError("circuit JSON must be an object")
    extra = set(obj) - {"n", "gates"}
    if extra:
        raise CircuitFormatError(f"unknown circuit fields {sorted(extra)}")
    if "n" not in obj or "gates" not in obj:
        raise CircuitFormatError("circuit JSON needs 'n' and 'gates'")
    n = obj["n"]
    if not _is_count(n, 1):
        raise CircuitFormatError(f"bad qubit count: {n!r}")
    raw_gates = obj["gates"]
    if not isinstance(raw_gates, list):
        raise CircuitFormatError("'gates' must be a list")
    gates: list[Gate] = []
    for idx, entry in enumerate(raw_gates):
        if not isinstance(entry, dict):
            raise CircuitFormatError(f"gate {idx} must be an object")
        extra = entry.keys() - {"kind", "qubits", "params", "raw"}
        if extra:
            raise CircuitFormatError(f"gate {idx} has unknown fields {sorted(extra)}")
        if "kind" not in entry or "qubits" not in entry:
            raise CircuitFormatError(f"gate {idx} needs 'kind' and 'qubits'")
        kind = entry["kind"]
        if not isinstance(kind, str):
            raise CircuitFormatError(f"gate {idx} kind must be a string")
        qubits, params = entry["qubits"], entry.get("params", [])
        if not (isinstance(qubits, list) and all(_is_count(q, 0) for q in qubits)):
            raise CircuitFormatError(
                f"gate {idx} has bad qubits/params: qubits must be integers >= 0, "
                f"got {qubits!r}")
        if not (isinstance(params, list) and all(map(_finite, params))):
            raise CircuitFormatError(
                f"gate {idx} has bad qubits/params: params must be finite numbers, "
                f"got {params!r}")
        qubits = tuple(qubits)
        if kind == "RAW" or "raw" in entry:
            if kind != "RAW":
                raise CircuitFormatError(f"gate {idx}: only RAW gates carry a matrix")
            raw = _matrix_from_json(entry["raw"], f"gate {idx}") if "raw" in entry else None
            gates.append(Gate(kind=kind, qubits=qubits, params=tuple(params), raw=raw))
            continue
        key = (kind, qubits, _bits(params))
        gate = shared.get(key)
        if gate is None:
            gate = shared[key] = Gate(kind=kind, qubits=qubits, params=tuple(params))
        gates.append(gate)
    circ = Circuit(n_qubits=n, gates=tuple(gates))
    if require_unitary:
        for idx, g in enumerate(circ.gates):
            if g.kind == "RAW" and not is_unitary(g.raw):
                raise NotUnitary(f"gate {idx}: RAW matrix is not unitary within 1e-10")
    return circ
