"""Gate-list circuit IR with a dense statevector simulator.

Conventions:
- Qubit 0 is the most significant bit of the state index: basis state |q0 q1 ... >
  has index q0*2^(n-1) + q1*2^(n-2) + ...
- Rotation gates use the half-angle convention RX(t) = exp(-i t X / 2) (same for
  RY/RZ); PHASE(t) = diag(1, e^{i t}).
- Controlled two-qubit gates store (control, target) in that order in ``qubits``.
- RAW gates carry an explicit matrix over their qubit tuple (first listed qubit is
  the most significant bit of the block).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, is_unitary

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


_SQ2 = 1.0 / np.sqrt(2.0)

PAULI_1Q: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_FIXED_1Q: dict[str, np.ndarray] = {
    "I": PAULI_1Q["I"],
    "X": PAULI_1Q["X"],
    "Y": PAULI_1Q["Y"],
    "Z": PAULI_1Q["Z"],
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.diag([1.0, 1.0j]).astype(complex),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex),
}

_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

# arity None means "derived from the RAW matrix shape"
GATE_ARITY: dict[str, int | None] = {
    "I": 1, "X": 1, "Y": 1, "Z": 1, "H": 1, "S": 1, "T": 1,
    "RX": 1, "RY": 1, "RZ": 1, "PHASE": 1,
    "CZ": 2, "CNOT": 2,
    "RAW": None,
}

_PARAM_COUNT: dict[str, int] = {"RX": 1, "RY": 1, "RZ": 1, "PHASE": 1}


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate application: a kind, the qubits it acts on, optional params/matrix."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    raw: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise CircuitFormatError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if any(q < 0 for q in self.qubits):
            raise CircuitFormatError(f"negative qubit index in {self.kind}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitFormatError(f"repeated qubit in {self.kind} gate {self.qubits}")
        want_params = _PARAM_COUNT.get(self.kind, 0)
        if len(self.params) != want_params:
            raise CircuitFormatError(
                f"{self.kind} takes {want_params} parameter(s), got {len(self.params)}"
            )
        if self.kind == "RAW":
            if self.raw is None:
                raise CircuitFormatError("RAW gate needs a matrix")
            mat = np.asarray(self.raw, dtype=complex)
            object.__setattr__(self, "raw", mat)
            k = len(self.qubits)
            if k == 0:
                raise CircuitFormatError("RAW gate needs at least one qubit")
            if mat.shape != (2**k, 2**k):
                raise CircuitFormatError(
                    f"RAW matrix shape {mat.shape} does not match {k} qubit(s)"
                )
        else:
            if self.raw is not None:
                raise CircuitFormatError(f"{self.kind} gate must not carry a matrix")
            arity = GATE_ARITY[self.kind]
            if len(self.qubits) != arity:
                raise CircuitFormatError(
                    f"{self.kind} acts on {arity} qubit(s), got {len(self.qubits)}"
                )


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


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense matrix of a gate over its own qubit tuple (first qubit = MSB)."""
    if g.kind in _FIXED_1Q:
        return _FIXED_1Q[g.kind]
    if g.kind == "RX":
        t = g.params[0] / 2
        return np.array(
            [[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]], dtype=complex
        )
    if g.kind == "RY":
        t = g.params[0] / 2
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
    if g.kind == "RZ":
        t = g.params[0] / 2
        return np.diag([np.exp(-1j * t), np.exp(1j * t)]).astype(complex)
    if g.kind == "PHASE":
        return np.diag([1.0, np.exp(1j * g.params[0])]).astype(complex)
    if g.kind == "CZ":
        return _CZ
    if g.kind == "CNOT":
        return _CNOT
    if g.kind == "RAW":
        return g.raw
    raise CircuitFormatError(f"unknown gate kind {g.kind!r}")


def _apply(state_t: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply a gate matrix to the given qubit axes of a tensored state.

    ``state_t`` has one axis of length 2 per qubit, plus optionally trailing batch
    axes; qubit axes come first.
    """
    k = len(qubits)
    mat_t = mat.reshape((2,) * (2 * k))
    out = np.tensordot(mat_t, state_t, axes=(tuple(range(k, 2 * k)), qubits))
    return np.moveaxis(out, tuple(range(k)), qubits)


def basis_state(n_qubits: int, index: int = 0) -> np.ndarray:
    """Computational basis vector |index> over n qubits."""
    v = np.zeros(2**n_qubits, dtype=complex)
    v[index] = 1.0
    return v


def _evolve(c: Circuit, state_t: np.ndarray, *, check_unitary: bool) -> np.ndarray:
    """Push a tensored state (qubit axes first, then batch axes) through the gate list.

    The one gate loop of the package. With ``check_unitary=False`` every gate is
    applied as the linear map its matrix gives, unitary or not.
    """
    for g in c.gates:
        mat = gate_matrix(g)
        if check_unitary and g.kind == "RAW" and not is_unitary(mat):
            raise NotUnitary(f"RAW gate on {g.qubits} is not unitary within 1e-10")
        state_t = _apply(state_t, mat, g.qubits)
    return state_t


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
    out = _evolve(c, vec.reshape((2,) * c.n_qubits), check_unitary=True).reshape(-1)
    if abs(float(np.linalg.norm(out)) - norm_in) > 1e-10 * max(1.0, norm_in):
        raise NotUnitary("simulation did not preserve the state norm")
    return out


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (capped at 12 qubits)."""
    if c.n_qubits > 12:
        raise TooLarge(f"dense unitary capped at 12 qubits, got {c.n_qubits}")
    dim = 2**c.n_qubits
    batch = np.eye(dim, dtype=complex).reshape((2,) * c.n_qubits + (dim,))
    return _evolve(c, batch, check_unitary=True).reshape(dim, dim)


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


def parse_circuit(obj, *, require_unitary: bool = True) -> Circuit:
    """Parse the JSON form back into a Circuit; unknown fields are rejected.

    ``require_unitary=False`` admits non-unitary RAW matrices. Worker batches
    parse this way, because density rows push an unnormalized statevector
    through the gates; simulating an overlap row refuses them.
    """
    if not isinstance(obj, dict):
        raise CircuitFormatError("circuit JSON must be an object")
    extra = set(obj) - {"n", "gates"}
    if extra:
        raise CircuitFormatError(f"unknown circuit fields {sorted(extra)}")
    if "n" not in obj or "gates" not in obj:
        raise CircuitFormatError("circuit JSON needs 'n' and 'gates'")
    try:
        n = int(obj["n"])
    except (TypeError, ValueError) as exc:
        raise CircuitFormatError(f"bad qubit count: {obj['n']!r}") from exc
    raw_gates = obj["gates"]
    if not isinstance(raw_gates, list):
        raise CircuitFormatError("'gates' must be a list")
    gates: list[Gate] = []
    for idx, entry in enumerate(raw_gates):
        if not isinstance(entry, dict):
            raise CircuitFormatError(f"gate {idx} must be an object")
        extra = set(entry) - {"kind", "qubits", "params", "raw"}
        if extra:
            raise CircuitFormatError(f"gate {idx} has unknown fields {sorted(extra)}")
        if "kind" not in entry or "qubits" not in entry:
            raise CircuitFormatError(f"gate {idx} needs 'kind' and 'qubits'")
        kind = entry["kind"]
        if not isinstance(kind, str):
            raise CircuitFormatError(f"gate {idx} kind must be a string")
        try:
            qubits = tuple(int(q) for q in entry["qubits"])
            params = tuple(float(p) for p in entry.get("params", []))
        except (TypeError, ValueError) as exc:
            raise CircuitFormatError(f"gate {idx} has bad qubits/params: {exc}") from exc
        raw = None
        if "raw" in entry:
            if kind != "RAW":
                raise CircuitFormatError(f"gate {idx}: only RAW gates carry a matrix")
            raw = _matrix_from_json(entry["raw"], f"gate {idx}")
        gates.append(Gate(kind=kind, qubits=qubits, params=params, raw=raw))
    circ = Circuit(n_qubits=n, gates=tuple(gates))
    if require_unitary:
        for idx, g in enumerate(circ.gates):
            if g.kind == "RAW" and not is_unitary(g.raw):
                raise NotUnitary(f"gate {idx}: RAW matrix is not unitary within 1e-10")
    return circ
