"""Qubit-interaction graphs and deterministic partitioning.

``build_graph`` turns a circuit into a weighted graph (edge weight = number of
two-qubit gates on that pair). ``global_min_cut`` is a deterministic
Stoer-Wagner minimum cut; ``balanced_bisection`` is a single-pass
Kernighan-Lin refinement of a fixed size-balanced split. Both return a
``CutAssignment`` that also lists the crossing gate indices when the graph
remembers its circuit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .circuit import Circuit

__all__ = [
    "CircuitGraph",
    "CutAssignment",
    "TooFewVertices",
    "build_graph",
    "global_min_cut",
    "balanced_bisection",
]


class TooFewVertices(ValueError):
    """Raised when a cut is requested on a graph with fewer than two vertices."""


@dataclass(frozen=True)
class CircuitGraph:
    """Weighted interaction graph; edges keyed by (u, v) with u < v."""

    vertices: tuple[int, ...]
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    circuit: Circuit | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(set(int(v) for v in self.vertices))))
        norm: dict[tuple[int, int], int] = {}
        vset = set(self.vertices)
        for (u, v), w in self.edges.items():
            u, v = int(u), int(v)
            if u == v or u not in vset or v not in vset:
                raise ValueError(f"bad edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            norm[key] = norm.get(key, 0) + int(w)
        object.__setattr__(self, "edges", norm)

    def weight(self, u: int, v: int) -> int:
        return self.edges.get((min(u, v), max(u, v)), 0)


@dataclass(frozen=True)
class CutAssignment:
    """A bipartition: part_of maps vertex -> 0/1; weight counts crossing gates."""

    part_of: dict[int, int]
    weight: int
    crossing_gate_indices: tuple[int, ...] = ()

    def parts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        p0 = tuple(sorted(v for v, p in self.part_of.items() if p == 0))
        p1 = tuple(sorted(v for v, p in self.part_of.items() if p == 1))
        return p0, p1


def build_graph(c: Circuit) -> CircuitGraph:
    """Interaction graph of a circuit; w_uv = number of 2-qubit gates on {u, v}."""
    edges: dict[tuple[int, int], int] = {}
    for g in c.gates:
        if len(g.qubits) == 2:
            u, v = sorted(g.qubits)
            edges[(u, v)] = edges.get((u, v), 0) + 1
    return CircuitGraph(vertices=tuple(range(c.n_qubits)), edges=edges, circuit=c)


def _assignment(g: CircuitGraph, part0: set[int]) -> CutAssignment:
    part_of = {v: (0 if v in part0 else 1) for v in g.vertices}
    weight = sum(
        w for (u, v), w in g.edges.items() if part_of[u] != part_of[v]
    )
    crossing: tuple[int, ...] = ()
    if g.circuit is not None:
        crossing = tuple(
            gi
            for gi, gate in enumerate(g.circuit.gates)
            if len(gate.qubits) == 2
            and part_of[gate.qubits[0]] != part_of[gate.qubits[1]]
        )
    return CutAssignment(part_of=part_of, weight=int(weight), crossing_gate_indices=crossing)


def _components(g: CircuitGraph) -> list[set[int]]:
    seen: set[int] = set()
    comps: list[set[int]] = []
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for (u, v), w in g.edges.items():
        if w > 0:
            adj[u].add(v)
            adj[v].add(u)
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def global_min_cut(g: CircuitGraph) -> CutAssignment:
    """Deterministic Stoer-Wagner minimum cut.

    Each phase grows a set starting from the smallest active label, always
    adding the most tightly connected vertex (ties broken by smallest label).
    All phase cuts achieving the minimum weight are collected; the returned
    partition is the one whose part-0 tuple (the side containing the smallest
    vertex) is lexicographically smallest.
    """
    verts = list(g.vertices)
    if len(verts) < 2:
        raise TooFewVertices("need at least two vertices to cut")
    comps = _components(g)
    lowest = min(verts)
    if len(comps) > 1:
        comp0 = next(c for c in comps if lowest in c)
        return _assignment(g, comp0)
    # contracted-graph state: active labels, merged membership, pair weights
    members: dict[int, tuple[int, ...]] = {v: (v,) for v in verts}
    weights: dict[tuple[int, int], int] = dict(g.edges)

    def wfn(u: int, v: int) -> int:
        return weights.get((min(u, v), max(u, v)), 0)

    active = sorted(verts)
    candidates: list[tuple[int, tuple[int, ...]]] = []
    while len(active) > 1:
        start = active[0]
        order = [start]
        in_a = {start}
        tight = {v: wfn(v, start) for v in active if v != start}
        while len(order) < len(active):
            pick = min((v for v in active if v not in in_a), key=lambda v: (-tight[v], v))
            order.append(pick)
            in_a.add(pick)
            for v in active:
                if v not in in_a:
                    tight[v] += wfn(v, pick)
        t = order[-1]
        s = order[-2]
        cut_w = sum(wfn(t, v) for v in active if v != t)
        candidates.append((cut_w, members[t]))
        # merge t into s
        members[s] = tuple(sorted(members[s] + members[t]))
        for v in active:
            if v in (s, t):
                continue
            w_tv = weights.pop((min(t, v), max(t, v)), 0)
            if w_tv:
                key = (min(s, v), max(s, v))
                weights[key] = weights.get(key, 0) + w_tv
        weights.pop((min(s, t), max(s, t)), None)
        active.remove(t)
        del members[t]
    best_w = min(w for w, _ in candidates)
    sides: list[tuple[int, ...]] = []
    allv = set(verts)
    for w, side in candidates:
        if w != best_w:
            continue
        side_set = set(side)
        part0 = side_set if lowest in side_set else (allv - side_set)
        sides.append(tuple(sorted(part0)))
    part0_best = min(sides)
    return _assignment(g, set(part0_best))


def balanced_bisection(g: CircuitGraph) -> CutAssignment:
    """Single-pass Kernighan-Lin refinement of the sorted size-balanced split.

    The initial split puts the first ceil(n/2) vertices (sorted) into part 0.
    One pass greedily picks the best unlocked swap (ties by smallest pair),
    locks it, and finally applies the best positive prefix of swaps.
    """
    verts = sorted(g.vertices)
    if len(verts) < 2:
        raise TooFewVertices("need at least two vertices to bisect")
    half = (len(verts) + 1) // 2
    side = {v: (0 if i < half else 1) for i, v in enumerate(verts)}

    def dval(v: int) -> int:
        ext = sum(g.weight(v, u) for u in verts if u != v and side[u] != side[v])
        internal = sum(g.weight(v, u) for u in verts if u != v and side[u] == side[v])
        return ext - internal

    d = {v: dval(v) for v in verts}
    locked: set[int] = set()
    swaps: list[tuple[int, int, int]] = []  # (gain, a, b)
    while True:
        free0 = [v for v in verts if side[v] == 0 and v not in locked]
        free1 = [v for v in verts if side[v] == 1 and v not in locked]
        if not free0 or not free1:
            break
        best: tuple[int, int, int] | None = None
        for a in free0:
            for b in free1:
                gain = d[a] + d[b] - 2 * g.weight(a, b)
                if best is None or gain > best[0] or (gain == best[0] and (a, b) < (best[1], best[2])):
                    best = (gain, a, b)
        gain, a, b = best
        swaps.append((gain, a, b))
        locked.add(a)
        locked.add(b)
        for x in verts:
            if x in locked:
                continue
            if side[x] == side[a]:
                d[x] += 2 * g.weight(x, a) - 2 * g.weight(x, b)
            else:
                d[x] += 2 * g.weight(x, b) - 2 * g.weight(x, a)
    # best positive prefix (smallest length on ties)
    best_k = 0
    best_total = 0
    total = 0
    for k, (gain, _, _) in enumerate(swaps, start=1):
        total += gain
        if total > best_total:
            best_total = total
            best_k = k
    part0 = {v for v in verts if side[v] == 0}
    for _, a, b in swaps[:best_k]:
        part0.discard(a)
        part0.add(b)
    return _assignment(g, part0)
