"""Canonical form: complete isomorphism invariant, validated against a
brute-force permutation oracle and networkx VF2."""

from __future__ import annotations

import random
import time
from itertools import combinations, permutations

import networkx as nx
import pytest

from lap1.canon import canonical_form, canonical_labeling
from lap1.graph6 import parse_graph6
from lap1.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    line_graph,
    path_graph,
    spider,
    star_graph,
)
from families import (
    caterpillar, degree_sequence, hypercube, paley, petersen, prufer_tree,
    relabelled, rook,
)
from fixtures import CANONICAL_FORMS
from oracles import brute_canonical_edges


def test_spec_examples():
    a = path_graph(4)
    b = Graph(4, [(2, 0), (0, 3), (3, 1)])  # P_4 labeled 2-0-3-1
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(path_graph(4)) != canonical_form(star_graph(3))
    forms = {
        canonical_form(complete_graph(3).relabel(list(perm)))
        for perm in permutations(range(3))
    }
    assert len(forms) == 1


def test_exact_against_brute_force_all_small_graphs():
    # every graph on up to 5 vertices: canonical_form must induce exactly
    # the brute-force isomorphism partition
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        by_brute = {}
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = Graph(n, edges)
            by_brute.setdefault(brute_canonical_edges(n, edges), set()).add(
                canonical_form(g)
            )
        forms = [next(iter(v)) for v in by_brute.values()]
        assert all(len(v) == 1 for v in by_brute.values())
        assert len(set(forms)) == len(forms)


@pytest.mark.parametrize(
    "base",
    [
        path_graph(9),
        spider([2, 2, 1]),
        spider([3, 3, 2, 1]),
        cycle_graph(11),
        Graph(12, [(i, (i + 1) % 9) for i in range(9)] + [(0, 9), (3, 10), (6, 11)]),
        complete_graph(7),
        disjoint_union(cycle_graph(6), path_graph(5)),
        disjoint_union(spider([2, 1]), disjoint_union(cycle_graph(3), Graph(2, [(0, 1)]))),
    ],
)
def test_relabel_invariance(base):
    rng = random.Random(hash(canonical_form(base)) & 0xFFFF)
    want = canonical_form(base)
    for _ in range(125):  # 8 bases x 125 = 1000 relabel trials
        perm = list(range(base.n))
        rng.shuffle(perm)
        assert canonical_form(base.relabel(perm)) == want


def test_agrees_with_networkx_isomorphism():
    rng = random.Random(20240901)
    for _ in range(300):
        n = rng.randint(1, 8)
        e1 = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        e2 = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g1, g2 = Graph(n, e1), Graph(n, e2)
        nx1 = nx.Graph()
        nx1.add_nodes_from(range(n))
        nx1.add_edges_from(e1)
        nx2 = nx.Graph()
        nx2.add_nodes_from(range(n))
        nx2.add_edges_from(e2)
        assert (canonical_form(g1) == canonical_form(g2)) == nx.is_isomorphic(nx1, nx2)


def canonical_graph(g: Graph) -> Graph:
    pos = [0] * g.n
    for new, old in enumerate(canonical_labeling(g)):
        pos[old] = new
    return g.relabel(pos)


def test_canonical_graph_is_isomorphic_relabel():
    g = Graph(7, [(0, 3), (3, 5), (5, 1), (1, 2), (2, 4), (4, 6), (6, 0)])
    cg = canonical_graph(g)
    assert degree_sequence(cg) == degree_sequence(g)
    assert canonical_form(cg) == canonical_form(g)


def test_highly_symmetric_inputs_complete_quickly():
    assert canonical_form(complete_graph(12)) == canonical_form(
        complete_graph(12).relabel(list(reversed(range(12))))
    )
    assert canonical_form(star_graph(13)) == canonical_form(
        star_graph(13).relabel([13] + list(range(13)))
    )


def test_forms_are_pinned():
    got = {name: canonical_form(parse_graph6(g6)) for name, g6, _ in CANONICAL_FORMS}
    assert got == {name: form for name, _, form in CANONICAL_FORMS}


SYMMETRIC = [
    ("Q5", hypercube(5)),
    ("Q6", hypercube(6)),
    ("rook5", rook(5)),
    ("paley13", paley(13)),
    ("paley17", paley(17)),
    ("petersen", petersen()),
    ("L(petersen)", line_graph(petersen())),
]


@pytest.mark.parametrize("name, g", SYMMETRIC, ids=[name for name, _ in SYMMETRIC])
def test_symmetric_graphs_relabel_invariant_within_time(name, g):
    # Vertex-transitive graphs give refinement nothing to split, so the
    # labeller must prune its search with the automorphisms it finds.
    rng = random.Random(name)
    want = canonical_form(g)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        t0 = time.perf_counter()
        assert canonical_form(g.relabel(perm)) == want
        assert time.perf_counter() - t0 < 5.0


def test_deep_tree_forms():
    # A spine of 1,505 vertices: codes nest that deep, and comparing
    # them must not recurse.
    g = caterpillar(500)
    perm = list(range(g.n))
    random.Random(5).shuffle(perm)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


def test_forests_with_many_components_label_in_linear_time():
    # The edges are bucketed by component once, not scanned per
    # component: a perfect matching of 4,000 vertices has 2,000
    # components, and the forest below has about 1,000.
    rng = random.Random(12)
    matching = Graph(4000, [(2 * i, 2 * i + 1) for i in range(2000)])
    forest = Graph(0)
    for _ in range(40):
        forest = disjoint_union(forest, prufer_tree(rng.randint(1, 60), rng))
    forest = disjoint_union(forest, Graph(900))
    for g in (matching, forest):
        t0 = time.perf_counter()
        want = canonical_form(g)
        assert time.perf_counter() - t0 < 0.3
        t0 = time.perf_counter()
        assert canonical_form(relabelled(g, rng)) == want
        assert time.perf_counter() - t0 < 0.3
        assert degree_sequence(canonical_graph(g)) == degree_sequence(g)
