"""Interaction-graph partitioning: deterministic global min cut and
balanced bisection.

Oracle: exhaustive enumeration over all 2^(n-1)-1 proper bipartitions, which
is exact for the graph sizes used here.
"""

import itertools

import numpy as np
import pytest

from tlpq.circuit import Circuit, Gate
from tlpq.partition import (
    CircuitGraph,
    TooFewVertices,
    balanced_bisection,
    build_graph,
    global_min_cut,
)
from tlpq.ghz import ghz4_template


def cut_weight(edges: dict, part0: set) -> int:
    return sum(w for (u, v), w in edges.items() if (u in part0) != (v in part0))


def brute_force_min_cut(g: CircuitGraph) -> int:
    verts = sorted(g.vertices)
    best = None
    fixed = verts[0]
    others = verts[1:]
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            part0 = {fixed, *combo}
            if len(part0) == len(verts):
                continue
            w = cut_weight(g.edges, part0)
            best = w if best is None else min(best, w)
    return best


def brute_force_best_bisection(g: CircuitGraph) -> int:
    verts = sorted(g.vertices)
    k = (len(verts) + 1) // 2
    best = None
    for combo in itertools.combinations(verts, k):
        w = cut_weight(g.edges, set(combo))
        best = w if best is None else min(best, w)
    return best


def random_connected_graph(n: int, rng: np.random.Generator) -> CircuitGraph:
    edges = {}
    order = list(rng.permutation(n))
    for a, b in zip(order, order[1:]):  # random spanning tree keeps it connected
        u, v = min(a, b), max(a, b)
        edges[(u, v)] = int(rng.integers(1, 6))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.35:
                edges[(u, v)] = int(rng.integers(1, 6))
    return CircuitGraph(vertices=tuple(range(n)), edges=edges)


def path_graph(n: int, weight: int = 1) -> CircuitGraph:
    return CircuitGraph(
        vertices=tuple(range(n)),
        edges={(i, i + 1): weight for i in range(n - 1)},
    )


class TestBuildGraph:
    def test_counts_two_qubit_gates_only(self):
        c = Circuit(
            3,
            (
                Gate("H", (0,)),
                Gate("CNOT", (0, 1)),
                Gate("CZ", (1, 0)),
                Gate("CNOT", (1, 2)),
                Gate("X", (2,)),
            ),
        )
        g = build_graph(c)
        assert g.vertices == (0, 1, 2)
        assert g.edges == {(0, 1): 2, (1, 2): 1}

    def test_edge_keys_normalized(self):
        c = Circuit(2, (Gate("CNOT", (1, 0)),))
        assert build_graph(c).edges == {(0, 1): 1}

    def test_isolated_qubits_are_vertices(self):
        g = build_graph(Circuit(3, (Gate("CZ", (0, 1)),)))
        assert g.vertices == (0, 1, 2)


class TestGlobalMinCut:
    def test_matches_brute_force_on_100_random_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(3, 9))
            g = random_connected_graph(n, rng)
            cut = global_min_cut(g)
            want = brute_force_min_cut(g)
            assert cut.weight == want, f"trial {trial}: got {cut.weight}, want {want}"
            p0, _ = cut.parts()
            assert cut_weight(g.edges, set(p0)) == cut.weight

    def test_ghz_chain_weight_one(self):
        g = build_graph(ghz4_template())
        cut = global_min_cut(g)
        assert cut.weight == 1
        assert cut.parts() == ((0,), (1, 2, 3))

    def test_path_four_deterministic(self):
        cut = global_min_cut(path_graph(4))
        assert cut.weight == 1
        assert cut.parts()[0] == (0,)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(7, rng)
        a = global_min_cut(g)
        b = global_min_cut(g)
        assert a.parts() == b.parts()
        assert a.weight == b.weight

    def test_disconnected_graph_zero_cut(self):
        g = CircuitGraph(vertices=(0, 1, 2, 3), edges={(0, 1): 2, (2, 3): 5})
        cut = global_min_cut(g)
        assert cut.weight == 0
        assert cut.parts()[0] == (0, 1)

    def test_crossing_gate_indices(self):
        c = Circuit(
            3,
            (
                Gate("CNOT", (0, 1)),
                Gate("CNOT", (0, 1)),
                Gate("CZ", (1, 2)),
                Gate("H", (2,)),
            ),
        )
        cut = global_min_cut(build_graph(c))
        # the cheapest cut isolates qubit 2; only the CZ crosses
        assert cut.weight == 1
        assert cut.crossing_gate_indices == (2,)

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVertices):
            global_min_cut(CircuitGraph(vertices=(0,), edges={}))


class TestBalancedBisection:
    def test_halves_sizes(self):
        rng = np.random.default_rng(2)
        for n in (4, 5, 6, 7, 8):
            g = random_connected_graph(n, rng)
            p0, p1 = balanced_bisection(g).parts()
            assert len(p0) == (n + 1) // 2
            assert len(p1) == n // 2

    def test_path_six(self):
        cut = balanced_bisection(path_graph(6))
        assert cut.weight == 1
        assert cut.parts() == ((0, 1, 2), (3, 4, 5))

    def test_complete_four(self):
        edges = {(u, v): 1 for u in range(4) for v in range(u + 1, 4)}
        g = CircuitGraph(vertices=(0, 1, 2, 3), edges=edges)
        cut = balanced_bisection(g)
        assert cut.weight == 4  # any 2|2 split of K4 cuts 4 edges

    def test_single_pass_reaches_optimum_often(self):
        # one Kernighan-Lin pass is a heuristic; on small graphs it should
        # still be close to (frequently equal to) the exhaustive optimum
        rng = np.random.default_rng(8)
        hits = 0
        for _ in range(40):
            g = random_connected_graph(6, rng)
            got = balanced_bisection(g).weight
            best = brute_force_best_bisection(g)
            assert got >= best
            hits += got == best
        assert hits >= 30

    def test_min_cut_never_exceeds_bisection(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            g = random_connected_graph(n, rng)
            assert global_min_cut(g).weight <= balanced_bisection(g).weight

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(8, rng)
        assert balanced_bisection(g).parts() == balanced_bisection(g).parts()
