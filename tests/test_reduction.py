"""Reduction calculus: every transformation preserves (or shifts by
exactly p - q) the multiplicity of 1, checked by the exact engine."""

from __future__ import annotations

import gc
import json
import random
import time
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest

import lap1.canon as canon
import lap1.graph6 as graph6
import lap1.linalg as linalg
import lap1.reduction as reduction
from lap1.graphs import (
    Graph,
    cycle_graph,
    disjoint_union,
    double_star_like_tree,
    find_internal_paths,
    find_pendant_paths,
    path_graph,
    pendant_profile,
    spider,
    star_graph,
)
from lap1.linalg import adjacency, eigen_multiplicity, laplacian_multiplicity_one as m1
from lap1.reduction import (
    contract_line_P4,
    contract_tree_P5,
    cycle_multiplicity_one,
    delete_pendant_P3,
    edge_split,
    final_reduction_graph,
    multiplicity_fast,
    reduced_graph,
    reduction_operation,
)
from lap1.enumeration import free_trees, random_connected_graph, unicyclic_graphs
from lap1.extremal import extremal_tree, extremal_unicyclic
from lap1.graph6 import parse_graph6, read_edge_list, to_graph6, write_edge_list
from families import caterpillar, induced, prufer_tree, relabelled, sun
from fixtures import TRACES
from oracles import fraction_rank, laplacian_matrix, trace_faults


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def iso(a: Graph, b: Graph) -> bool:
    return nx.is_isomorphic(to_nx(a), to_nx(b))


def with_forms(trace: reduction.ReductionTrace) -> dict:
    """The trace in the JSON format of the pinned traces: the input in
    graph6 and each step's graph6 before and after it, rebuilt from the
    input and the vertices the steps name."""
    return {
        "input_g6": to_graph6(trace.graph),
        "steps": [{"rule": s.rule, "before_g6": s.before, "after_g6": s.after,
                   "offset": s.offset} for s in trace.steps],
        "total": trace.total,
    }


def reference_final_reduction(g: Graph) -> tuple[Graph, list[tuple]]:
    """The final reduction graph by the definition, from public operations
    only: a fresh pendant census of the current graph before each step,
    the first quasi-pendant of degree > 2 and its least pendant, and the
    graph rebuilt by `reduction_operation`.  Returns the graph and each
    step's (rule, vertices, before, after)."""
    steps, cur = [], g
    while True:
        prof = pendant_profile(cur)
        target = next((v for v in prof.quasi_pendants if cur.degree(v) > 2), None)
        if target is None:
            return cur, steps
        u = min(w for w in cur.neighbors(target) if cur.degree(w) == 1)
        before, cur = cur, reduction_operation(cur, u, target)
        steps.append(("ReductionOperation", (u, target),
                      to_graph6(before), to_graph6(cur)))


class TestReducedGraph:
    def test_star(self):
        rg, offset = reduced_graph(star_graph(3))
        assert iso(rg, path_graph(2)) and offset == 2
        assert m1(star_graph(3)) == offset + m1(rg)

    def test_keeps_lowest_indexed_pendant(self):
        rg, _ = reduced_graph(star_graph(3))
        assert rg == Graph(2, [(0, 1)])  # center 0 keeps leaf 1

    def test_p3(self):
        rg, offset = reduced_graph(path_graph(3))
        assert iso(rg, path_graph(2)) and offset == 1

    def test_already_reduced_fixed_point(self):
        rg, offset = reduced_graph(path_graph(6))
        assert rg == path_graph(6) and offset == 0

    def test_result_is_reduced(self):
        for g in [spider([3, 1, 1, 1]), star_graph(6), spider([2, 1, 1])]:
            rg, offset = reduced_graph(g)
            prof = pendant_profile(rg)
            assert prof.p == prof.q
            assert offset == pendant_profile(g).p - pendant_profile(g).q

    def test_small_orders_identity_holds(self):
        for g in [Graph(1), path_graph(2), path_graph(3), star_graph(2)]:
            rg, offset = reduced_graph(g)
            assert m1(g) == offset + m1(rg)


class TestReductionOperation:
    def test_degree_two_neighbor_gives_isomorphic_graph(self):
        g = reduction_operation(path_graph(3), 0, 1)
        assert iso(g, path_graph(3))

    def test_star_shape_per_definition(self):
        # removing a leaf and the center of K_{1,3} leaves two isolated
        # vertices, each then carrying a fresh P_2: two disjoint P_3
        g = reduction_operation(star_graph(3), 1, 0)
        assert g.n == 6
        assert iso(g, disjoint_union(path_graph(3), path_graph(3)))
        assert m1(star_graph(3)) == m1(g) == 2  # degree >= 3, so preserved

    def test_spider_with_extra_pendant(self):
        sp = spider([2, 2, 2, 1])  # n = 8, center 0, lone pendant 7
        g = reduction_operation(sp, 7, 0)
        three_p4 = disjoint_union(
            path_graph(4), disjoint_union(path_graph(4), path_graph(4))
        )
        assert iso(g, three_p4)
        assert m1(sp) == m1(g) == 0

    def test_preserves_multiplicity_on_enumerated_graphs(self):
        for n in range(4, 9):
            for g in list(free_trees(n)) + list(unicyclic_graphs(n)):
                prof = pendant_profile(g)
                for u in prof.pendants:
                    v = prof.pendant_owner[u]
                    if g.degree(v) >= 3:
                        assert m1(reduction_operation(g, u, v)) == m1(g)

    def test_errors(self):
        with pytest.raises(ValueError, match="pendant"):
            reduction_operation(cycle_graph(4), 0, 1)
        with pytest.raises(ValueError, match="adjacent"):
            reduction_operation(path_graph(4), 0, 2)


class TestFinalReduction:
    def test_fixed_points(self):
        assert final_reduction_graph(path_graph(6)) == (path_graph(6), ())
        # star-like spider: its quasi-pendants all have degree 2 already
        assert final_reduction_graph(spider([2, 2, 2])) == (spider([2, 2, 2]), ())

    def test_spider_221(self):
        fr, _ = final_reduction_graph(spider([2, 2, 1]))
        assert iso(fr, disjoint_union(path_graph(4), path_graph(4)))
        assert m1(fr) == m1(spider([2, 2, 1])) == 0

    def test_previousth_equality_instance(self):
        # spider(4,4,1) is reduced with m = (n-2)/4 = 2; its final
        # reduction must split into P_6 components
        sp = spider([4, 4, 1])
        fr, _ = final_reduction_graph(sp)
        assert iso(fr, disjoint_union(path_graph(6), path_graph(6)))
        assert m1(sp) == 2 == m1(fr)

    def test_postcondition_no_high_degree_quasi_pendant(self):
        graphs = [spider([3, 2, 2, 1]), star_graph(5), spider([1, 1, 2, 3])]
        for n in range(4, 9):
            graphs.extend(free_trees(n))
        for g in graphs:
            fr, _ = final_reduction_graph(g)
            prof = pendant_profile(fr)
            assert all(fr.degree(v) <= 2 for v in prof.quasi_pendants)
            assert m1(fr) == m1(g)

    def test_terminates_within_q_steps(self):
        for g in [spider([3, 2, 2, 1]), star_graph(6), spider([2, 2, 2, 1, 1])]:
            fr, steps = final_reduction_graph(g)
            assert 0 < len(steps) <= pendant_profile(g).q
            # each step starts from the graph the previous one produced
            chain = [to_graph6(g)] + [s.after for s in steps]
            assert [s.before for s in steps] == chain[:-1]
            assert chain[-1] == to_graph6(fr)
            assert all(s.rule == "ReductionOperation" and s.offset == 0
                       for s in steps)


    def test_matches_the_reference_loop(self):
        # every tree of order <= 10 and unicyclic graph of order <= 9, the
        # spine of three adjacent quasi-pendants of degree >= 3, and
        # seeded random graphs with pendants hung on them
        graphs = [g for n in range(1, 11) for g in free_trees(n)]
        graphs += [g for n in range(3, 10) for g in unicyclic_graphs(n)]
        graphs.append(Graph(10, [(0, 1), (1, 2), (1, 3), (1, 4), (4, 5), (4, 6),
                                 (4, 7), (7, 8), (7, 9)]))
        rng = random.Random(43)
        for seed in range(12):
            h = random_connected_graph(14, Fraction(1, 4), seed)
            hung = [(rng.randrange(14 + i), 14 + i) for i in range(8)]
            graphs.append(Graph(22, [*h.edges, *hung]))
        assert len(graphs) == 584 + 1 + 12
        fired = []
        for g in graphs:
            fr, steps = final_reduction_graph(g)
            want, ref_steps = reference_final_reduction(g)
            assert fr == want, to_graph6(g)
            assert [(s.rule, s.vertices, s.before, s.after)
                    for s in steps] == ref_steps, to_graph6(g)
            fired.append(len(steps))
        # the spine and every random graph take steps, several each
        assert min(fired[584:]) >= 2 and sum(fired) > 900

    def test_reaches_order_ten_to_the_five(self, monkeypatch):
        # caterpillar(25000) has 25,001 quasi-pendants of degree 3, each
        # one step; no step's graph is built, so nothing is encoded
        def forbidden(g):
            raise AssertionError("a step's graph was encoded")

        monkeypatch.setattr(reduction, "to_graph6", forbidden)
        k = 25000
        g = caterpillar(k)
        for h in (g, relabelled(g, random.Random(47))):
            t0 = time.perf_counter()
            fr, steps = final_reduction_graph(h)
            assert time.perf_counter() - t0 < 5.0
            # each step deletes two vertices and three edges and adds two
            # P_2s, four vertices and four edges
            assert len(steps) == k + 1
            assert (fr.n, fr.edge_count) == (h.n + 2 * (k + 1),
                                             h.edge_count + k + 1)
            prof = pendant_profile(fr)
            assert all(fr.degree(v) <= 2 for v in prof.quasi_pendants)

    def test_retains_about_the_input_not_every_step(self):
        # at order 2,006 (501 steps) the steps keep the run's whole graph
        # and what each deleted, not one graph per step
        tracemalloc.start()
        try:
            g = caterpillar(500)
            gc.collect()
            input_size = tracemalloc.get_traced_memory()[0]
            fr, steps = final_reduction_graph(g)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - input_size
        finally:
            tracemalloc.stop()
        assert len(steps) == 501
        assert retained < 10 * input_size


class TestDeletePendantP3:
    def test_chain(self):
        t = path_graph(9)
        for expect_n in (6, 3):
            t = delete_pendant_P3(t, find_pendant_paths(t, 3)[0])
            assert t.n == expect_n and m1(t) == 1

    def test_spider_leg(self):
        sp = spider([3, 2, 2])
        paths = find_pendant_paths(sp, 3)
        assert len(paths) == 1
        t = delete_pendant_P3(sp, paths[0])
        assert iso(t, path_graph(5))
        assert m1(sp) == m1(t) == 0

    def test_triangle_with_a_pendant_p3(self):
        # the rule holds on any graph: the path goes and a triangle is left
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5)])
        (path,) = find_pendant_paths(g, 3)
        h = delete_pendant_P3(g, path)
        assert h == cycle_graph(3)
        assert m1(h) == m1(g) == 0

    def test_preserves_the_oracle_nullity_off_trees(self):
        # every unicyclic graph of order <= 11 and seeded random graphs
        # with a P_3 hung on them: each deletion keeps the nullity of
        # L - I by Fraction elimination, and the fast route's traces
        # replay clean
        def nullity(g: Graph) -> int:
            rows = laplacian_matrix(g.n, g.edges)
            for i, row in enumerate(rows):
                row[i] -= 1
            return g.n - fraction_rank(rows)

        rng = random.Random(28)
        graphs = [g for n in range(3, 12) for g in unicyclic_graphs(n)]
        for _ in range(1200):
            h = random_connected_graph(rng.randint(1, 8),
                                       Fraction(rng.randint(1, 3), 4),
                                       rng.randrange(2**32))
            x = rng.randrange(h.n)
            graphs.append(Graph(h.n + 3, [*h.edges, (x, h.n),
                                          (h.n, h.n + 1), (h.n + 1, h.n + 2)]))
        deletions = 0
        for g in graphs:
            paths = find_pendant_paths(g, 3)
            if not paths:
                continue
            m = nullity(g)
            for path in paths:
                assert nullity(delete_pendant_P3(g, path)) == m, to_graph6(g)
            deletions += len(paths)
            assert trace_faults(multiplicity_fast(g)[1].to_json()) == [], to_graph6(g)
        assert deletions >= 2000

    def test_rejects_bogus_path(self):
        from lap1.graphs import PathLocation, PENDANT_PATH

        with pytest.raises(ValueError):
            delete_pendant_P3(
                path_graph(6), PathLocation((1, 2, 3), PENDANT_PATH)
            )


class TestEdgeSplit:
    def test_construction_shape(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        out = edge_split(g, 1, 0, 2)
        assert out.n == 7
        assert not out.has_edge(0, 2)
        assert out.has_edge(2, 5) and out.has_edge(5, 6)
        assert m1(out) == m1(g)

    def test_breaking_a_cycle_gives_reduced_tree(self):
        from lap1.extremal import extremal_unicyclic

        g = extremal_unicyclic(12)
        # v = 0 is a quasi-pendant cycle vertex (pendant 9); w = 1 next on cycle
        out = edge_split(g, 9, 0, 1)
        assert out.n == 14 and out.is_tree()
        prof = pendant_profile(out)
        assert prof.p == prof.q
        assert m1(out) == m1(g) == 3

    def test_random_graphs_preserved(self):
        rng = random.Random(3)
        checked = 0
        while checked < 200:
            n = rng.randint(4, 10)
            edges = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.35
            ]
            g = Graph(n, edges)
            triple = None
            for u in range(n):
                if g.degree(u) == 1:
                    v = g.neighbors(u)[0]
                    if g.degree(v) >= 3:
                        w = next(x for x in g.neighbors(v) if x != u)
                        triple = (u, v, w)
                        break
            if triple is None:
                continue
            assert m1(edge_split(g, *triple)) == m1(g)
            checked += 1

    def test_distinct_precondition_errors(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        with pytest.raises(ValueError, match="pendant"):
            edge_split(g, 0, 1, 2)
        with pytest.raises(ValueError, match="adjacent"):
            edge_split(g, 1, 2, 0)
        with pytest.raises(ValueError, match="degree at least 3"):
            edge_split(g, 4, 3, 0)
        with pytest.raises(ValueError, match="another neighbor"):
            edge_split(g, 1, 0, 4)


class TestContractions:
    def test_line_p4_on_path(self):
        p8 = path_graph(8)  # line graph of P_9
        loc = next(p for p in find_internal_paths(p8, 4) if p.vertices == (2, 3, 4, 5))
        h = contract_line_P4(p8, loc)
        assert iso(h, path_graph(5))
        assert (
            eigen_multiplicity(adjacency(p8), -1)
            == eigen_multiplicity(adjacency(h), -1)
            == 1
        )

    def test_line_p4_on_cycle(self):
        c10 = cycle_graph(10)
        h = contract_line_P4(c10, find_internal_paths(c10, 4)[0])
        assert iso(h, cycle_graph(7))
        assert eigen_multiplicity(adjacency(c10), -1) == eigen_multiplicity(
            adjacency(h), -1
        )

    def test_line_p4_rejections(self):
        c4 = cycle_graph(4)
        loc = find_internal_paths(c4, 4)[0]
        with pytest.raises(ValueError, match="self-loop"):
            contract_line_P4(c4, loc)
        from lap1.graphs import PathLocation, INTERNAL_PATH

        with pytest.raises(ValueError, match="share a neighbor"):
            contract_line_P4(cycle_graph(5), PathLocation((0, 1, 2, 3), INTERNAL_PATH))

    def test_tree_p5_on_path(self):
        p9 = path_graph(9)
        loc = next(p for p in find_internal_paths(p9, 5) if p.vertices == (2, 3, 4, 5, 6))
        h = contract_tree_P5(p9, loc)
        assert iso(h, path_graph(6)) and m1(h) == m1(p9) == 1

    def test_tree_p5_whole_p5(self):
        p5 = path_graph(5)
        h = contract_tree_P5(p5, find_internal_paths(p5, 5)[0])
        assert iso(h, path_graph(2)) and m1(p5) == m1(h) == 0

    def test_tree_p5_double_spider_bridge(self):
        ds = Graph(
            13,
            [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8),
             (8, 9), (9, 10), (8, 11), (11, 12)],
        )
        loc = next(
            p for p in find_internal_paths(ds, 5) if set(p.vertices) == {0, 5, 6, 7, 8}
        )
        h = contract_tree_P5(ds, loc)
        assert h.n == 10 and m1(ds) == m1(h) == 0

    def test_tree_p5_rejects_non_tree(self):
        c9 = cycle_graph(9)
        loc = find_internal_paths(c9, 5)[0]
        with pytest.raises(ValueError, match="tree"):
            contract_tree_P5(c9, loc)


class TestMultiplicityFast:
    def test_star_trace(self):
        m, trace = multiplicity_fast(star_graph(3))
        assert m == 2
        assert [s.rule for s in trace.steps] == ["PendantCluster", "ExactRankFallback"]
        assert trace.steps[0].offset == 2
        assert trace.steps[1].before == to_graph6(path_graph(2))

    def test_cycle_closed_form_rule(self):
        # no rule of its own: the one terminal step agrees with the
        # closed form
        for n, want in ((12, 2), (9, 0)):
            m, trace = multiplicity_fast(cycle_graph(n))
            assert m == want == cycle_multiplicity_one(n)
            assert [(s.rule, s.offset) for s in trace.steps] == [
                ("ExactRankFallback", want)]

    def test_star_like_rules(self):
        # m = 0 for both shapes, found by the one terminal step
        for g in (spider([2, 2, 2]), double_star_like_tree(2, 2)):
            m, trace = multiplicity_fast(g)
            assert m == 0
            assert [(s.rule, s.offset) for s in trace.steps] == [
                ("ExactRankFallback", 0)]

    def test_components_processed_independently(self):
        g = disjoint_union(cycle_graph(6), disjoint_union(path_graph(6), star_graph(3)))
        m, trace = multiplicity_fast(g)
        assert m == m1(g) == 5
        assert trace.total == sum(s.offset for s in trace.steps)

    def test_agreement_on_enumerated_graphs(self):
        for n in range(1, 9):
            for g in free_trees(n):
                assert multiplicity_fast(g)[0] == m1(g)
        for n in range(3, 9):
            for g in unicyclic_graphs(n):
                assert multiplicity_fast(g)[0] == m1(g)

    def test_fallback_peels_trees_and_suns_without_rank(self, monkeypatch):
        caterpillar = Graph(14, [(i, i + 1) for i in range(10)]
                            + [(2, 11), (5, 12), (8, 13)])
        sun = Graph(12, [(i, (i + 1) % 9) for i in range(9)]
                    + [(0, 9), (3, 10), (6, 11)])
        expected = [m1(caterpillar), m1(sun)]

        def no_rank(m):
            raise AssertionError("rank called on a graph without a core")

        monkeypatch.setattr(linalg, "rank", no_rank)
        for g, want in zip((caterpillar, sun), expected):
            m, trace = multiplicity_fast(g)
            assert m == want
            assert trace.steps[-1].rule == "ExactRankFallback"

    def test_fallback_ranks_only_the_core(self, monkeypatch):
        # a 5-cycle with a chord and a pendant P_2, which no rewrite
        # deletes: the P_2 is peeled and one rank call sees the 5 core
        # vertices
        g = Graph(7, [(i, (i + 1) % 5) for i in range(5)]
                  + [(0, 2), (4, 5), (5, 6)])
        expected = m1(g)
        orders = []
        real_rank = linalg.rank
        monkeypatch.setattr(
            linalg, "rank", lambda m: orders.append(m.rows) or real_rank(m)
        )
        m, trace = multiplicity_fast(g)
        assert m == expected
        assert [s.rule for s in trace.steps] == ["ExactRankFallback"]
        assert orders == [5]

    def test_large_extremal_shapes_within_time(self):
        # a long spine and a long cycle of hanging trees, at order 10^4
        rng = random.Random(29)
        for build, k in ((caterpillar, 2500), (sun, 2500)):
            g = build(k)
            perm = list(range(g.n))
            rng.shuffle(perm)
            t0 = time.perf_counter()
            assert multiplicity_fast(g.relabel(perm))[0] == k
            assert time.perf_counter() - t0 < 5.0

    def test_library_reaches_order_ten_to_the_five(self):
        # the trace labels no graph, so no graph6 string of n(n - 1)/12
        # characters (830 MB here) is ever built; the random tree takes
        # thousands of P_3 and cluster steps
        tree = prufer_tree(100000, random.Random(3))
        for g, k in ((extremal_tree(100006), 25000),
                     (extremal_unicyclic(100000), 25000),
                     (tree, m1(tree))):
            t0 = time.perf_counter()
            assert multiplicity_fast(g)[0] == k
            assert time.perf_counter() - t0 < 5.0

    def test_random_tree_steps_cost_what_they_touch(self):
        # hundreds of steps on a relabelled tree of order 4,000: each step
        # updates only the neighbourhood of what it deletes
        g = relabelled(prufer_tree(4000, random.Random(17)), random.Random(18))
        t0 = time.perf_counter()
        m, trace = multiplicity_fast(g)
        assert time.perf_counter() - t0 < 0.5
        assert len(trace.steps) > 100
        assert m == m1(g)

    def test_trace_json_labels_and_encodes_nothing(self, monkeypatch):
        def forbidden(g):
            raise AssertionError("a trace labelled or encoded a graph")

        g = spider([3, 3, 2, 1, 1])
        m, trace = multiplicity_fast(g)
        for module, name in ((reduction, "to_graph6"),
                             (canon, "_read_word"),
                             (graph6, "encode_graph6"), (graph6, "to_graph6")):
            monkeypatch.setattr(module, name, forbidden)
        payload = trace.to_json()
        assert [(s["rule"], s["vertices"]) for s in payload["steps"]] == [
            ("PendantCluster", [10]), ("DeletePendantP3", [1, 2, 3]),
            ("DeletePendantP3", [4, 5, 6]), ("DeletePendantP3", [0, 7, 8]),
            ("ExactRankFallback", [9])]
        assert payload["input_edge_list"] == write_edge_list(g)
        monkeypatch.undo()
        # the forms are still there for a caller that reads them
        assert [s.after for s in trace.steps][-2:] == ["@", "@"]

    def test_agreement_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 10)
            edges = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.3
            ]
            g = Graph(n, edges)
            assert multiplicity_fast(g)[0] == m1(g)

    def test_trace_replays(self):
        # a tree, and a triangle with a pendant P_3 that is deleted
        for g in (spider([3, 3, 2, 1, 1]), parse_graph6("E{CG")):
            m, trace = multiplicity_fast(g)
            assert m == m1(g)
            cur = g
            si = 0
            while si < len(trace.steps) and trace.steps[si].rule in (
                "PendantCluster",
                "DeletePendantP3",
            ):
                step = trace.steps[si]
                assert to_graph6(cur) == step.before
                if step.rule == "PendantCluster":
                    cur, offset = reduced_graph(cur)
                    assert offset == step.offset
                else:
                    path = find_pendant_paths(cur, 3)[0]
                    cur = cur.delete_vertices(path.vertices)[0]
                assert to_graph6(cur) == step.after
                si += 1
            assert "DeletePendantP3" in [s.rule for s in trace.steps[:si]]
            terminal_forms = sorted(s.before for s in trace.steps[si:])
            comp_forms = sorted(
                to_graph6(induced(cur, comp)) for comp in cur.components()
            )
            assert terminal_forms == comp_forms

    def test_trace_reads_in_any_order_give_the_same_json(self):
        rng = random.Random(41)
        graphs = [spider([3, 3, 2, 1, 1]),
                  disjoint_union(cycle_graph(6), disjoint_union(path_graph(9), star_graph(3)))]
        graphs += [relabelled(prufer_tree(n, rng), rng) for n in (30, 60, 90)]
        for g in graphs:
            want = json.dumps(multiplicity_fast(g)[1].to_json(), sort_keys=True)
            trace = multiplicity_fast(g)[1]
            last = trace.steps[-1].before
            order = list(range(len(trace.steps)))
            rng.shuffle(order)
            for i in order:
                assert trace.steps[i].after
            assert json.dumps(trace.to_json(), sort_keys=True) == want
            assert trace.steps[-1].before == last

    def test_trace_retains_about_the_input_not_every_step(self):
        # the trace keeps the input and the labels each step deleted, not
        # one graph per step (about 150 steps here)
        tracemalloc.start()
        try:
            g = prufer_tree(2000, random.Random(23))
            gc.collect()
            input_size = tracemalloc.get_traced_memory()[0]
            m, trace = multiplicity_fast(g)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - input_size
        finally:
            tracemalloc.stop()
        assert len(trace.steps) > 100
        assert retained < 2 * input_size

    def test_trace_json_schema(self):
        m, trace = multiplicity_fast(star_graph(3))
        payload = trace.to_json()
        assert set(payload) == {"input_edge_list", "steps", "total"}
        assert read_edge_list(payload["input_edge_list"]) == star_graph(3)
        assert payload["total"] == m
        for step in payload["steps"]:
            assert set(step) == {"rule", "vertices", "offset"}
        json.dumps(payload)  # serializable

    def test_traces_are_pinned(self):
        # each trace rebuilds the trace pinned while its strings were
        # canonical forms: the same rules, offsets and total, and graphs
        # isomorphic to the pinned ones
        for name, g6, expected in TRACES:
            trace = multiplicity_fast(parse_graph6(g6))[1]
            got, want = with_forms(trace), json.loads(expected)
            assert got["input_g6"] == want["input_g6"], name
            assert got["total"] == want["total"], name
            assert len(got["steps"]) == len(want["steps"]), name
            for step, mine, pinned in zip(trace.steps, got["steps"], want["steps"]):
                assert (mine["rule"], mine["offset"]) == (
                    pinned["rule"], pinned["offset"]), name
                before, after = (parse_graph6(pinned[k])
                                 for k in ("before_g6", "after_g6"))
                assert iso(parse_graph6(mine["before_g6"]), before), name
                assert iso(parse_graph6(mine["after_g6"]), after), name
                # a rewrite names what it deleted, a terminal rule its
                # whole component
                named = (before.n - after.n if step.rule in (
                    "PendantCluster", "DeletePendantP3") else before.n)
                assert len(step.vertices) == named, name
            assert trace_faults(trace.to_json()) == [], name

    def test_determinism(self):
        g = spider([3, 2, 2, 1])
        assert multiplicity_fast(g) == multiplicity_fast(g)

    def test_alternate_rule_order_same_total(self):
        # any valid order of cluster and P3 steps must give the same total
        def alt_pipeline(g: Graph) -> int:
            total = 0
            cur = g
            while True:
                paths = find_pendant_paths(cur, 3)
                if paths:
                    cur = cur.delete_vertices(paths[-1].vertices)[0]
                    continue
                prof = pendant_profile(cur)
                if prof.p > prof.q:
                    cur, off = reduced_graph(cur)
                    total += off
                    continue
                break
            return total + m1(cur)

        for n in range(2, 9):
            for t in free_trees(n):
                assert alt_pipeline(t) == multiplicity_fast(t)[0]
        for n in range(3, 9):
            for g in unicyclic_graphs(n):
                assert alt_pipeline(g) == multiplicity_fast(g)[0]


def reference_trace(g: Graph) -> dict:
    """The pipeline as first written, from public operations only: it
    rebuilds and labels the graph after every step, and deletes the
    lexicographically smallest pendant P_3."""
    steps, total, cur = [], 0, g
    while True:
        prof = pendant_profile(cur)
        if prof.p > prof.q:
            rule = "PendantCluster"
            nxt, offset = reduced_graph(cur)
        else:
            paths = find_pendant_paths(cur, 3)
            if not paths:
                break
            path = paths[0]
            rule = "DeletePendantP3"
            nxt, offset = cur.delete_vertices(path.vertices)[0], 0
        steps.append({"rule": rule, "before_g6": to_graph6(cur),
                      "after_g6": to_graph6(nxt), "offset": offset})
        total += offset
        cur = nxt
    for comp in cur.components():
        sub = induced(cur, comp)
        form = to_graph6(sub)
        steps.append({"rule": "ExactRankFallback", "before_g6": form,
                      "after_g6": form, "offset": m1(sub)})
        total += m1(sub)
    return {"input_g6": to_graph6(g), "steps": steps, "total": total}


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < p])


def _forest(rng: random.Random, parts: int, max_n: int) -> Graph:
    g = Graph(0)
    for _ in range(parts):
        g = disjoint_union(g, prufer_tree(rng.randint(1, max_n), rng))
    return g


def _tree_plus_edge(rng: random.Random) -> Graph:
    t = prufer_tree(rng.randint(3, 40), rng)
    while True:
        u, v = rng.sample(range(t.n), 2)
        if not t.has_edge(u, v):
            return t.add_edge(u, v)


def _mixture(rng: random.Random) -> Graph:
    g = Graph(0)
    for _ in range(rng.randint(2, 5)):
        part = (prufer_tree(rng.randint(1, 14), rng) if rng.random() < 0.5
                else _gnp(rng.randint(1, 9), 0.35, rng))
        g = disjoint_union(g, part)
    return g


REFERENCE_INPUTS = {
    "random trees": lambda rng, i: prufer_tree(1 + i % 60, rng),
    "forests": lambda rng, i: _forest(rng, rng.randint(2, 6), 15),
    "trees plus one edge": lambda rng, i: _tree_plus_edge(rng),
    "G(n, p)": lambda rng, i: _gnp(1 + i % 14, rng.uniform(0.05, 0.5), rng),
    "mixtures": lambda rng, i: _mixture(rng),
}


@pytest.mark.parametrize("family", sorted(REFERENCE_INPUTS))
def test_pipeline_matches_rebuild_every_step_reference(family):
    rng = random.Random(family)
    for i in range(80):
        g = relabelled(REFERENCE_INPUTS[family](rng, i), rng)
        trace = multiplicity_fast(g)[1]
        got = json.dumps(with_forms(trace), sort_keys=True)
        assert got == json.dumps(reference_trace(g), sort_keys=True), to_graph6(g)
        assert trace_faults(trace.to_json()) == [], to_graph6(g)


def test_trace_checker_rejects_forged_steps():
    # spider(3,3,2,1,1): centre 0 keeps pendant 9 and loses 10, then three
    # pendant P_3s go and the lone vertex 9 is left
    payload = multiplicity_fast(spider([3, 3, 2, 1, 1]))[1].to_json()
    assert trace_faults(payload) == []
    forgeries = [
        (0, {"vertices": [9]}),  # the lowest pendant is kept, not dropped
        (0, {"offset": 2}),
        (1, {"vertices": [0, 1, 2]}),  # not a pendant P_3
        (1, {"rule": "PendantCluster"}),
        (4, {"offset": 1}),  # the nullity of K_1's L - I is 0
        (4, {"rule": "StarLikeZero"}),
        (4, {"vertices": [9, 10]}),
    ]
    for i, change in forgeries:
        forged = json.loads(json.dumps(payload))
        forged["steps"][i].update(change)
        forged["total"] = sum(s["offset"] for s in forged["steps"])
        assert trace_faults(forged), (i, change)
    for forged in (dict(payload, total=2),
                   dict(payload, steps=payload["steps"][1:]),
                   dict(payload, steps=payload["steps"][:3] + payload["steps"][4:])):
        assert trace_faults(forged)


def test_cycle_multiplicity_closed_form():
    for n in range(3, 31):
        assert cycle_multiplicity_one(n) == m1(cycle_graph(n))
