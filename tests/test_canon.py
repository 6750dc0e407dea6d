"""Canonical form: complete isomorphism invariant on graphs whose every
component has at most as many edges as vertices, validated against a
brute-force permutation oracle and networkx VF2; every other graph is
refused."""

from __future__ import annotations

import random
import time
from itertools import combinations, permutations

import networkx as nx
import pytest

from lap1 import enumeration
from lap1.canon import canonical_form
from lap1.graph6 import parse_graph6, to_graph6
from lap1.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    spider,
    star_graph,
)
from families import caterpillar, degree_sequence, prufer_tree, relabelled, sun
from fixtures import CANONICAL_FORMS, GENERAL_GRAPHS
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


def to_nx(n: int, edges) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def sparse_components(n: int, edges) -> bool:
    """Every component has at most as many edges as vertices."""
    h = to_nx(n, edges)
    return all(h.subgraph(c).number_of_edges() <= len(c)
               for c in nx.connected_components(h))


def test_exact_against_brute_force_all_small_graphs():
    # every graph on up to 5 vertices whose components each have m <= n:
    # canonical_form must induce exactly the brute-force isomorphism
    # partition, and must refuse every other graph
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        by_brute = {}
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = Graph(n, edges)
            if not sparse_components(n, edges):
                with pytest.raises(ValueError):
                    canonical_form(g)
                continue
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
        sun(4),
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


def forest_with_chords(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random forest on n vertices, then at most one chord in each tree."""
    parent = [rng.randrange(v) if v and rng.random() < 0.8 else None
              for v in range(n)]
    edges = [(p, v) for v, p in enumerate(parent) if p is not None]
    h = to_nx(n, edges)
    for comp in nx.connected_components(h):
        chords = [e for e in combinations(sorted(comp), 2) if not h.has_edge(*e)]
        if chords and rng.random() < 0.5:
            edges.append(rng.choice(chords))
    return edges


def test_agrees_with_networkx_isomorphism():
    rng = random.Random(20240901)
    for _ in range(300):
        n = rng.randint(1, 8)
        e1, e2 = forest_with_chords(n, rng), forest_with_chords(n, rng)
        same = canonical_form(Graph(n, e1)) == canonical_form(Graph(n, e2))
        assert same == nx.is_isomorphic(to_nx(n, e1), to_nx(n, e2))


def canonical_graph(g: Graph) -> Graph:
    return parse_graph6(canonical_form(g))


def test_canonical_graph_is_isomorphic_relabel():
    g = Graph(7, [(0, 3), (3, 5), (5, 1), (1, 2), (2, 4), (4, 6), (6, 0)])
    cg = canonical_graph(g)
    assert degree_sequence(cg) == degree_sequence(g)
    assert canonical_form(cg) == canonical_form(g)


def test_highly_symmetric_inputs_complete_quickly():
    assert canonical_form(cycle_graph(12)) == canonical_form(
        cycle_graph(12).relabel(list(reversed(range(12))))
    )
    assert canonical_form(star_graph(13)) == canonical_form(
        star_graph(13).relabel([13] + list(range(13)))
    )


def test_forms_are_pinned():
    got = {name: canonical_form(parse_graph6(g6)) for name, g6, _ in CANONICAL_FORMS}
    assert got == {name: form for name, _, form in CANONICAL_FORMS}


def test_components_with_more_edges_than_vertices_are_refused():
    # K4 plus three isolated vertices has 6 edges on 7 vertices, but its
    # K4 component has more edges than vertices
    k4_3k1 = disjoint_union(complete_graph(4), Graph(3))
    assert k4_3k1.edge_count <= k4_3k1.n
    graphs = [(name, parse_graph6(g6)) for name, g6 in GENERAL_GRAPHS]
    for name, g in graphs + [("K4+3K1", k4_3k1)]:
        with pytest.raises(ValueError, match="more edges than vertices"):
            canonical_form(g)
        with pytest.raises(ValueError):
            canonical_form(relabelled(g, random.Random(name)))


def test_enumerated_graphs_are_their_own_forms():
    # the enumerations yield the graphs built from least words, so each
    # is the form that canonical_form reads back
    graphs = [t for n in range(1, 11) for t in enumeration.free_trees(n)]
    graphs += [g for n in range(3, 10) for g in enumeration.unicyclic_graphs(n)]
    for g in graphs:
        assert to_graph6(g) == canonical_form(g)


SYMMETRIC = [
    ("C64", cycle_graph(64)),
    ("sun16", sun(16)),
    ("spider8x4", spider([4] * 8)),
    ("binary8", Graph(511, [((v - 1) // 2, v) for v in range(1, 511)])),
]


@pytest.mark.parametrize("name, g", SYMMETRIC, ids=[name for name, _ in SYMMETRIC])
def test_symmetric_graphs_relabel_invariant_within_time(name, g):
    # Symmetric trees and unicyclic graphs: every hanging tree and every
    # rotation of the cycle ties, and the least one must still be found.
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
