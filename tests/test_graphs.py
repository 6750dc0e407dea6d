"""Graph construction, structural queries, paths, and class predicates."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lap1.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    find_internal_paths,
    find_pendant_paths,
    from_edge_list,
    in_class_G,
    is_reduced,
    line_graph,
    path_graph,
    pendant_profile,
    spider,
    star_graph,
)
from lap1.graph6 import parse_graph6, to_graph6
from families import degree_sequence, is_unicyclic


def edge_sets(max_n=10):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
                ).filter(lambda e: e[0] != e[1]),
                max_size=2 * max_n,
            ),
        )
        if n > 0
        else st.just((0, []))
    )


class TestConstruction:
    def test_from_edge_list_examples(self):
        assert from_edge_list(3, [(0, 1), (1, 2)]) == path_graph(3)
        assert from_edge_list(1, []) == Graph(1)
        assert from_edge_list(4, [(0, 1), (0, 2), (0, 3)]) == star_graph(3)

    def test_duplicates_merged(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_bad_pairs_report_index(self):
        with pytest.raises(ValueError, match="pair 1"):
            from_edge_list(3, [(0, 1), (2, 2)])
        with pytest.raises(ValueError, match="pair 0"):
            from_edge_list(3, [(0, 5)])

    def test_equality_order_independent(self):
        assert Graph(3, [(0, 1), (1, 2)]) == Graph(3, [(2, 1), (0, 1)])
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])

    def test_immutability_surface(self):
        g = path_graph(4)
        h = g.add_edge(0, 3)
        assert g.edge_count == 3 and h.edge_count == 4
        assert g.remove_edge(0, 1).edge_count == 2
        assert g.edge_count == 3

    @given(edge_sets())
    @settings(max_examples=200, deadline=None)
    def test_handshake(self, ne):
        n, pairs = ne
        g = from_edge_list(n, pairs)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count

    def test_delete_vertices_remap(self):
        g = path_graph(5)
        h, remap = g.delete_vertices([1])
        assert h.n == 4 and remap == {0: 0, 2: 1, 3: 2, 4: 3}
        assert h.edges == frozenset({(1, 2), (2, 3)})


class TestLazyGraph:
    """A graph builds its neighbour tuples and hash on first use; every
    way of building one must give the same answers."""

    EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 5)]

    def builds(self):
        wide = Graph(6, self.EDGES + [(2, 5)])
        return [
            Graph(6, [(v, u) for u, v in reversed(self.EDGES)]),
            Graph._unchecked(6, self.EDGES),
            parse_graph6(to_graph6(Graph(6, self.EDGES))),
            wide.remove_edge(5, 2),
            Graph(6, self.EDGES).relabel(range(6)),
        ]

    def test_equal_graphs_hash_equal(self):
        graphs = self.builds()
        # hashes first on some, neighbours first on others
        graphs[1].neighbors(0)
        graphs[3].degree(2)
        assert len({hash(g) for g in graphs}) == 1
        assert all(g == graphs[0] for g in graphs)
        assert len(set(graphs)) == 1
        assert graphs[0] != Graph(6, self.EDGES[1:])

    def test_neighbors_are_sorted_tuples(self):
        for g in self.builds():
            assert [g.neighbors(v) for v in range(6)] == [
                (1, 5), (0, 2, 4), (1, 3), (2, 4), (1, 3), (0,)
            ]
            assert [g.degree(v) for v in range(6)] == [2, 3, 2, 2, 2, 1]
            assert g.components() == [[0, 1, 2, 3, 4, 5]]

    def test_pickle_round_trip(self):
        for g in self.builds():
            for touched in (False, True):
                if touched:
                    hash(g), g.neighbors(0)
                h = pickle.loads(pickle.dumps(g))
                assert h == g and hash(h) == hash(g)
                assert [h.neighbors(v) for v in range(6)] == [
                    g.neighbors(v) for v in range(6)
                ]


class TestPendantProfile:
    def test_star(self):
        prof = pendant_profile(star_graph(3))
        assert (prof.p, prof.q) == (3, 1)
        assert prof.pendant_owner == {1: 0, 2: 0, 3: 0}

    def test_p2_both_roles(self):
        prof = pendant_profile(path_graph(2))
        assert (prof.p, prof.q) == (2, 2)

    def test_cycle_none(self):
        prof = pendant_profile(cycle_graph(6))
        assert (prof.p, prof.q) == (0, 0)

    def test_every_quasi_owns_a_pendant(self):
        for g in [spider([3, 2, 1]), path_graph(7), star_graph(5)]:
            prof = pendant_profile(g)
            assert set(prof.quasi_pendants) == set(prof.pendant_owner.values())
            assert all(g.degree(v) == 1 for v in prof.pendants)


class TestLineGraph:
    def test_examples(self):
        assert line_graph(path_graph(4)) == path_graph(3)
        assert line_graph(star_graph(3)) == complete_graph(3)
        c5 = cycle_graph(5)
        lg = line_graph(c5)
        assert lg.n == 5 and degree_sequence(lg) == degree_sequence(c5)

    def test_vertex_count_and_degrees(self):
        for g in [spider([3, 2, 2]), cycle_graph(7), complete_graph(5)]:
            lg = line_graph(g)
            assert lg.n == g.edge_count
            for i, (u, v) in enumerate(g.sorted_edges()):
                assert lg.degree(i) == g.degree(u) + g.degree(v) - 2

    def test_empty(self):
        assert line_graph(Graph(3)) == Graph(0)


class TestPaths:
    def test_pendant_paths_p6(self):
        paths = find_pendant_paths(path_graph(6), 3)
        assert [p.vertices for p in paths] == [(2, 1, 0), (3, 4, 5)]

    def test_pendant_paths_star_empty(self):
        assert find_pendant_paths(star_graph(3), 3) == []

    def test_pendant_paths_cycle_empty(self):
        assert find_pendant_paths(cycle_graph(6), 2) == []

    def test_length_one_is_pendant_vertex(self):
        paths = find_pendant_paths(star_graph(3), 1)
        assert [p.vertices for p in paths] == [(1,), (2,), (3,)]

    def test_whole_path_component_is_not_pendant(self):
        assert find_pendant_paths(path_graph(3), 3) == []
        assert [p.vertices for p in find_pendant_paths(path_graph(4), 3)] == [
            (1, 2, 3),
            (2, 1, 0),
        ]

    def test_internal_paths_c4_empty(self):
        assert find_internal_paths(cycle_graph(4), 3) == []

    def test_internal_paths_p6(self):
        vs = [p.vertices for p in find_internal_paths(path_graph(6), 4)]
        assert (1, 2, 3, 4) in vs

    def test_internal_paths_sun_segments(self):
        # cycle C_9 with pendants on 0, 3, 6: the P_4 between consecutive
        # degree-3 vertices is internal
        edges = [(i, (i + 1) % 9) for i in range(9)] + [(0, 9), (3, 10), (6, 11)]
        g = Graph(12, edges)
        vs = [p.vertices for p in find_internal_paths(g, 4)]
        assert (0, 1, 2, 3) in vs and (3, 4, 5, 6) in vs

    def test_internal_path_leaf_endpoints_allowed(self):
        vs = [p.vertices for p in find_internal_paths(path_graph(5), 5)]
        assert vs == [(0, 1, 2, 3, 4)]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            find_pendant_paths(path_graph(3), 0)
        with pytest.raises(ValueError):
            find_internal_paths(path_graph(5), 2)


class TestShapePredicates:
    def test_structure_predicates(self):
        assert path_graph(6).is_tree()
        sun = Graph(12, [(i, (i + 1) % 9) for i in range(9)]
                    + [(0, 9), (3, 10), (6, 11)])
        assert is_unicyclic(sun) and not sun.is_tree()
        two = disjoint_union(path_graph(2), path_graph(2))
        assert len(two.components()) == 2 and not two.is_connected()

    def test_class_membership(self):
        assert is_reduced(path_graph(2))
        assert not is_reduced(star_graph(3))
        assert is_reduced(path_graph(6)) and not in_class_G(path_graph(6))
        assert in_class_G(spider([2, 2, 1]))

    @given(st.integers(3, 9), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_tree_plus_any_nonedge_is_unicyclic(self, n, rng):
        # random tree via random attachment
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        t = Graph(n, edges)
        assert t.is_tree()
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not t.has_edge(u, v)
        ]
        for u, v in non_edges:
            assert is_unicyclic(t.add_edge(u, v))
