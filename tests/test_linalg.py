"""Exact linear algebra, cross-checked against Fraction elimination,
determinant-interpolation and dense matrix-builder oracles."""

from __future__ import annotations

import ast
import random
import time
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lap1.linalg as linalg
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
from lap1.linalg import (
    SparseIntMatrix,
    adjacency,
    char_poly,
    eigen_multiplicity,
    integer_laplacian_eigenvalues,
    internal_submatrix,
    laplacian,
    laplacian_multiplicity_one,
    multiplicity_one_by_peeling,
    poly_root_multiplicity,
    rank,
)
from lap1.enumeration import free_trees, unicyclic_graphs
from lap1.reduction import edge_split, reduction_operation
import oracles
from families import (
    caterpillar,
    circulant,
    petersen,
    prufer_tree,
    relabelled,
    sun,
)
from oracles import charpoly_by_interpolation, fraction_rank


def sparse(rows: list[list[int]], cols: int | None = None) -> SparseIntMatrix:
    """The dense rows as a SparseIntMatrix, zero entries left out; cols
    is needed only when there are no rows."""
    width = len(rows[0]) if rows else cols or 0
    return SparseIntMatrix(
        [{j: x for j, x in enumerate(row) if x} for row in rows], width)


def dense(m: SparseIntMatrix) -> list[list[int]]:
    return [[row.get(j, 0) for j in range(m.cols)] for row in m.data]


def minus_lam(rows: list[list[int]], lam: int) -> list[list[int]]:
    """M - lam I."""
    return [[x - lam * (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


def small_graphs() -> list[Graph]:
    """Every tree and unicyclic graph of order <= 8, 50 seeded random
    graphs of order <= 12 at assorted densities, and a few graphs with
    isolated vertices."""
    graphs = [t for n in range(1, 9) for t in free_trees(n)]
    graphs += [g for n in range(3, 9) for g in unicyclic_graphs(n)]
    rng = random.Random(43)
    for _ in range(50):
        n, p = rng.randint(1, 12), rng.random()
        graphs.append(Graph(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n) if rng.random() < p]))
    graphs += [Graph(0), Graph(3), disjoint_union(star_graph(3), Graph(2))]
    return graphs


class TestMatrices:
    def test_laplacian_examples(self):
        assert dense(laplacian(path_graph(2))) == [[1, -1], [-1, 1]]
        assert dense(laplacian(Graph(1))) == [[0]]
        assert dense(laplacian(path_graph(3))) == [
            [1, -1, 0],
            [-1, 2, -1],
            [0, -1, 1],
        ]

    def test_symmetry_and_row_sums(self):
        for g in [spider([3, 2, 1]), cycle_graph(8), star_graph(6)]:
            lap = dense(laplacian(g))
            adj = dense(adjacency(g))
            assert lap == [list(col) for col in zip(*lap)]
            assert adj == [list(col) for col in zip(*adj)]
            assert all(sum(row) == 0 for row in lap)
            assert all(adj[i][i] == 0 for i in range(g.n))

    def test_builders_match_the_dense_oracles(self):
        graphs = small_graphs()
        assert len(graphs) == 48 + 143 + 50 + 3
        for g in graphs:
            built = (adjacency(g), laplacian(g), internal_submatrix(g))
            expected = (
                oracles.adjacency_matrix(g.n, g.edges),
                oracles.laplacian_matrix(g.n, g.edges),
                oracles.internal_laplacian_matrix(g.n, g.edges),
            )
            for m, rows in zip(built, expected):
                assert (m.rows, m.cols) == (len(rows), len(rows))
                assert dense(m) == rows
                # the builders store no zeros
                assert all(all(row.values()) for row in m.data)


class TestRank:
    def test_examples(self):
        assert rank(sparse([[0, -1, 0], [-1, 1, -1], [0, -1, 0]])) == 2
        assert rank(sparse([[int(i == j) for j in range(5)] for i in range(5)])) == 5
        assert rank(sparse([[0] * 4] * 4)) == 0
        assert rank(SparseIntMatrix([], 0)) == 0

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_against_fraction_elimination(self, r, c, data):
        rows = [
            [data.draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(r)
        ]
        assert rank(sparse(rows)) == fraction_rank(rows)

    def test_rank_deficient_with_column_skips(self):
        rows = [
            [0, 0, 2, 1],
            [0, 0, 4, 2],
            [0, 0, 6, 3],
        ]
        assert rank(sparse(rows)) == 1

    def test_stored_zeros(self):
        # a stored zero is no entry: it neither counts as a pivot nor
        # becomes one
        assert rank(SparseIntMatrix([{0: 0}], 1)) == 0 == fraction_rank([[0]])
        rows = [{0: 0, 1: 1}, {1: 1}]
        assert rank(SparseIntMatrix(rows, 2)) == 1 == fraction_rank([[0, 1], [0, 1]])
        assert rows == [{0: 0, 1: 1}, {1: 1}]

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_sprinkled_zeros_against_fraction_elimination(self, r, c, data):
        entry = st.integers(-9, 9)
        rows = [[data.draw(entry) if data.draw(st.booleans()) else 0
                 for _ in range(c)] for _ in range(r)]
        # each row stores its nonzero entries and some of its zeros
        stored = [{j: x for j, x in enumerate(row)
                   if x or data.draw(st.booleans())} for row in rows]
        before = [dict(row) for row in stored]
        assert rank(SparseIntMatrix(stored, c)) == fraction_rank(rows)
        assert stored == before

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 100), st.data())
    @settings(max_examples=200, deadline=None)
    def test_sparse_big_entries_against_fraction_elimination(
        self, r, c, density, data
    ):
        entry = st.integers(-10**6, 10**6)
        percent = st.integers(0, 99)
        rows = [
            [data.draw(entry) if data.draw(percent) < density else 0
             for _ in range(c)]
            for _ in range(r)
        ]
        m = sparse(rows)
        before = [dict(row) for row in m.data]
        assert rank(m) == fraction_rank(rows)
        assert list(m.data) == before

    def test_products_of_thin_factors(self):
        rng = random.Random(31)
        for _ in range(200):
            r, c, k = rng.randint(1, 14), rng.randint(1, 14), rng.randint(1, 5)
            left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(r)]
            right = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(k)]
            rows = [
                [sum(x * right[t][j] for t, x in enumerate(row)) for j in range(c)]
                for row in left
            ]
            got = rank(sparse(rows))
            assert got == fraction_rank(rows) and got <= k

    def test_zero_lines_and_wide_and_tall_shapes(self):
        assert rank(sparse([[0] * 7] * 3)) == 0
        assert rank(SparseIntMatrix([], 5)) == 0
        rng = random.Random(37)
        for r, c in ((1, 12), (12, 1), (3, 20), (20, 3), (2, 2), (9, 9)):
            for _ in range(20):
                rows = [[rng.choice((0, 0, 0, rng.randint(-9, 9)))
                         for _ in range(c)] for _ in range(r)]
                for i in rng.sample(range(r), r // 3):
                    rows[i] = [0] * c
                for j in rng.sample(range(c), c // 3):
                    for row in rows:
                        row[j] = 0
                assert rank(sparse(rows)) == fraction_rank(rows)

    def test_shifted_laplacians_of_relabelled_sparse_graphs(self):
        rng = random.Random(41)
        graphs = [sun(k) for k in (1, 5, 15)]
        graphs += [circulant(n, k) for n in (12, 30, 59) for k in (2, 5, n // 3)]
        for n in (2, 10, 30, 60):
            seq = tuple(rng.randrange(n) for _ in range(n - 2))
            graphs.append(Graph(n, oracles.prufer_to_edges(seq)))
        # no rows at all, isolated vertices, and leaves, whose diagonal
        # deg - 1 is zero
        graphs += [Graph(0), Graph(1), Graph(5), path_graph(2),
                   disjoint_union(path_graph(2), disjoint_union(sun(4), Graph(3)))]
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            rows = minus_lam(oracles.laplacian_matrix(h.n, h.edges), 1)
            expected = fraction_rank(rows)
            assert rank(sparse(rows, h.n)) == expected
            assert laplacian_multiplicity_one(h) == g.n - expected

    def test_dense_full_rank_entries_stay_small(self):
        # without dividing each updated row by the gcd of its entries the
        # entries double in length at every pivot, and this takes over 20 s
        rng = random.Random(0)
        rows = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]
        m = sparse(rows)
        t0 = time.perf_counter()
        assert rank(m) == 24
        assert time.perf_counter() - t0 < 1.0
        assert fraction_rank(rows) == 24


class TestCharPoly:
    def test_examples(self):
        assert char_poly(laplacian(path_graph(2))) == [0, -2, 1]
        assert char_poly(laplacian(Graph(1))) == [0, 1]
        assert char_poly(laplacian(path_graph(3))) == [0, 3, -4, 1]
        assert char_poly(SparseIntMatrix([], 0)) == [1]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly(sparse([[1, 2, 3]]))
        with pytest.raises(ValueError):
            char_poly(SparseIntMatrix([{0: 1}], 2))

    @given(st.integers(0, 6), st.integers(0, 100), st.data())
    @settings(max_examples=200, deadline=None)
    def test_against_interpolation_oracle(self, n, density, data):
        # non-symmetric, at every density, with zeros left out and with
        # every zero stored
        percent = st.integers(0, 99)
        rows = [
            [data.draw(st.integers(-9, 9)) if data.draw(percent) < density else 0
             for _ in range(n)]
            for _ in range(n)
        ]
        m = sparse(rows, n)
        every_zero = SparseIntMatrix([dict(enumerate(row)) for row in rows], n)
        before = [dict(row) for row in m.data]
        expected = charpoly_by_interpolation(rows)
        assert char_poly(m) == expected
        assert char_poly(every_zero) == expected
        assert list(m.data) == before

    @given(st.integers(0, 7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_large_entries_against_interpolation_oracle(self, n, data):
        # entries up to 10^6 make coefficients near the digit bound
        # (1 + r)^n, and r I, whose coefficients reach it exactly, is
        # drawn as often as a full matrix
        entry = st.integers(-10**6, 10**6)
        if data.draw(st.booleans()):
            r = data.draw(entry)
            rows = [[r if i == j else 0 for j in range(n)] for i in range(n)]
        else:
            rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        assert char_poly(sparse(rows, n)) == charpoly_by_interpolation(rows)

    def test_complete_graph_closed_form(self):
        # L(K_n) has the eigenvalue n with multiplicity n - 1, and 0
        for n in range(1, 31):
            closed = [0] + [comb(n - 1, i) * (-n) ** (n - 1 - i)
                            for i in range(n)]
            assert char_poly(laplacian(complete_graph(n))) == closed

    def test_pivot_order_does_not_change_coefficients(self):
        # regular graphs tie every row in length, and trees tie their leaves
        rng = random.Random(61)
        graphs = [cycle_graph(12), complete_graph(7), petersen(),
                  circulant(15, 4), sun(4), star_graph(9), caterpillar(3)]
        graphs += [prufer_tree(n, rng) for n in (5, 17, 33)]
        graphs.append(disjoint_union(cycle_graph(5), path_graph(4)))
        for g in graphs:
            coeffs = char_poly(laplacian(g))
            if g.n <= 12:
                assert coeffs == charpoly_by_interpolation(
                    oracles.laplacian_matrix(g.n, g.edges))
            for _ in range(3):
                assert char_poly(laplacian(relabelled(g, rng))) == coeffs

    def test_root_multiplicity(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2
        assert poly_root_multiplicity([2, -3, 0, 1], 1) == 2
        assert poly_root_multiplicity([2, -3, 0, 1], -2) == 1
        assert poly_root_multiplicity([2, -3, 0, 1], 5) == 0
        # (2x - 1)^2 = 4x^2 - 4x + 1 has the rational root 1/2 twice
        assert poly_root_multiplicity([1, -4, 4], Fraction(1, 2)) == 2
        # (3x + 2)(x - 1) = 3x^2 - x - 2
        assert poly_root_multiplicity([-2, -1, 3], Fraction(-2, 3)) == 1
        assert poly_root_multiplicity([-2, -1, 3], Fraction(2, 3)) == 0
        assert poly_root_multiplicity([-2, -1, 3], 1) == 1
        assert poly_root_multiplicity([0, 0, 5], 0) == 2
        assert poly_root_multiplicity([7], 3) == 0
        with pytest.raises(ValueError):
            poly_root_multiplicity([0, 0], 1)

    @given(st.integers(-6, 6), st.integers(1, 6), st.integers(0, 4),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_root_multiplicity_of_built_products(self, a, b, e, cofactor):
        lam = Fraction(a, b)
        if not any(cofactor) or sum(
            c * lam**i for i, c in enumerate(cofactor)
        ) == 0:
            return  # lam must not be a root of the cofactor
        # cofactor times (den x - num)^e, ascending coefficients
        coeffs = list(cofactor)
        for _ in range(e):
            shifted = [0] + coeffs
            coeffs = [lam.denominator * s - lam.numerator * c
                      for s, c in zip(shifted, coeffs + [0])]
        assert poly_root_multiplicity(coeffs, lam) == e


class TestMultiplicities:
    def test_examples(self):
        assert eigen_multiplicity(laplacian(path_graph(3)), 1) == 1
        assert eigen_multiplicity(laplacian(cycle_graph(6)), 1) == 2
        assert eigen_multiplicity(adjacency(line_graph(star_graph(3))), -1) == 2
        assert laplacian_multiplicity_one(star_graph(3)) == 2
        assert laplacian_multiplicity_one(cycle_graph(5)) == 0
        assert laplacian_multiplicity_one(path_graph(6)) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigen_multiplicity(sparse([[1, 2, 3]]), 1)

    def test_rational_targets(self):
        # an integer matrix has only integer rational eigenvalues
        assert eigen_multiplicity(sparse([[1, 0], [0, 3]]), Fraction(1, 2)) == 0
        assert eigen_multiplicity(sparse([[1, 0], [0, 1]]), Fraction(2, 2)) == 2
        assert eigen_multiplicity(laplacian(star_graph(3)), Fraction(1, 2)) == 0

    def test_against_fraction_rank_of_the_shifted_oracles(self):
        # orders <= 7 keep the Fraction eliminations to about 2 s
        for g in (g for g in small_graphs() if g.n <= 7):
            for build, oracle in ((adjacency, oracles.adjacency_matrix),
                                  (laplacian, oracles.laplacian_matrix),
                                  (internal_submatrix,
                                   oracles.internal_laplacian_matrix)):
                m, rows = build(g), oracle(g.n, g.edges)
                for lam in range(-2, g.n + 2):
                    assert eigen_multiplicity(m, lam) == m.rows - fraction_rank(
                        minus_lam(rows, lam))

    def test_additive_over_components(self):
        g = disjoint_union(cycle_graph(6), disjoint_union(path_graph(6), star_graph(3)))
        assert laplacian_multiplicity_one(g) == 2 + 1 + 2

    def test_zero_eigenvalue_counts_components(self):
        g = disjoint_union(cycle_graph(4), path_graph(3))
        assert eigen_multiplicity(laplacian(g), 0) == 2

    def test_internal_submatrix(self):
        m = internal_submatrix(star_graph(3))
        assert (m.rows, m.cols) == (0, 0)
        assert eigen_multiplicity(m, 1) == 0
        c6 = cycle_graph(6)
        assert dense(internal_submatrix(c6)) == dense(laplacian(c6))
        m = internal_submatrix(path_graph(4))
        assert (m.rows, m.cols) == (0, 0)

    def test_integer_eigenvalues(self):
        assert integer_laplacian_eigenvalues(path_graph(3)) == [(0, 1), (1, 1), (3, 1)]
        assert integer_laplacian_eigenvalues(star_graph(3)) == [(0, 1), (1, 2), (4, 1)]
        assert integer_laplacian_eigenvalues(cycle_graph(6)) == [
            (0, 1),
            (1, 2),
            (3, 2),
            (4, 1),
        ]

    def test_two_exact_routes_agree_on_enumerated_graphs(self):
        for n in range(1, 10):
            for t in free_trees(n):
                lap = laplacian(t)
                coeffs = char_poly(lap)
                for lam in range(n + 1):
                    assert eigen_multiplicity(lap, lam) == poly_root_multiplicity(
                        coeffs, lam
                    )
        for n in range(3, 9):
            for g in unicyclic_graphs(n):
                lap = laplacian(g)
                assert laplacian_multiplicity_one(g) == poly_root_multiplicity(
                    char_poly(lap), 1
                )

    def test_random_graphs_match_float_spectrum(self):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = Graph(n, edges)
            ev = numpy.linalg.eigvalsh(numpy.array(dense(laplacian(g)), dtype=float))
            assert laplacian_multiplicity_one(g) == sum(
                1 for e in ev if abs(e - 1) < 1e-8
            )


def forest_plus_edges(rng: random.Random, n: int, extra: int) -> Graph:
    """A random forest on n vertices (each vertex joins an earlier one
    with probability 0.85) plus up to `extra` random edges: a small core
    with trees hanging off it, often disconnected."""
    edges = {(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85}
    for _ in range(extra if n > 1 else 0):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, edges)


def lemma_derived_graphs() -> list[Graph]:
    """Every G - e, reduction operation and edge split that the lemmas
    suite builds from the trees and unicyclic graphs of order <= 8."""
    derived = []
    for g in [t for n in range(1, 9) for t in free_trees(n)] + [
        g for n in range(3, 9) for g in unicyclic_graphs(n)
    ]:
        derived += [g.remove_edge(u, v) for u, v in g.edges]
        for u in range(g.n):
            if g.degree(u) != 1:
                continue
            v = g.neighbors(u)[0]
            if g.degree(v) < 3:
                continue
            derived.append(reduction_operation(g, u, v))
            derived += [edge_split(g, u, v, w) for w in g.neighbors(v) if w != u]
    return derived


class TestPeeling:
    def test_examples(self):
        assert multiplicity_one_by_peeling(Graph(0)) == 0
        assert multiplicity_one_by_peeling(Graph(1)) == 0
        assert multiplicity_one_by_peeling(path_graph(2)) == 0
        assert multiplicity_one_by_peeling(star_graph(3)) == 2
        assert multiplicity_one_by_peeling(cycle_graph(6)) == 2
        assert multiplicity_one_by_peeling(cycle_graph(7)) == 0
        g = disjoint_union(cycle_graph(6), disjoint_union(path_graph(6), star_graph(3)))
        assert multiplicity_one_by_peeling(g) == 2 + 1 + 2

    def test_paths_cascade_of_zero_leaves(self):
        # every end of P_n is a zero leaf; removing it and its neighbour
        # leaves a leaf of diagonal 1, whose pivot zeroes the next one, so
        # the whole path goes in alternating steps.  The Laplacian
        # eigenvalues 2 - 2cos(pi j / n) hit 1 only at j = n / 3.
        for n in range(1, 40):
            assert multiplicity_one_by_peeling(path_graph(n)) == (n % 3 == 0)

    def test_agrees_on_all_small_trees_and_unicyclic_graphs(self):
        for n in range(1, 13):
            for t in free_trees(n):
                assert multiplicity_one_by_peeling(t) == laplacian_multiplicity_one(t)
        for n in range(3, 11):
            for g in unicyclic_graphs(n):
                assert multiplicity_one_by_peeling(g) == laplacian_multiplicity_one(g)

    def test_agrees_on_graphs_with_hanging_trees(self):
        rng = random.Random(17)
        disconnected = 0
        for _ in range(800):
            g = forest_plus_edges(rng, rng.randint(1, 24), rng.randint(0, 6))
            disconnected += not g.is_connected()
            assert multiplicity_one_by_peeling(g) == laplacian_multiplicity_one(g)
        assert disconnected > 100

    def test_agrees_on_dense_random_graphs(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 12)
            p = rng.random()
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            assert multiplicity_one_by_peeling(g) == laplacian_multiplicity_one(g)

    def test_agrees_on_the_graphs_the_lemma_checks_derive(self):
        # the suite computes their multiplicities by peeling alone
        derived = lemma_derived_graphs()
        assert len(derived) == 1335 + 419 + 1215  # G - e, reductions, splits
        for h in derived:
            assert multiplicity_one_by_peeling(h) == laplacian_multiplicity_one(h)

    def test_reads_only_the_edge_set(self, monkeypatch):
        # a derived graph that is only peeled never builds its neighbour
        # tuples: with neighbors and degree raising, the peeling answers
        def forbidden(self, v):
            raise AssertionError("the peeling read the adjacency tuples")

        derived = lemma_derived_graphs()
        monkeypatch.setattr(Graph, "neighbors", forbidden)
        monkeypatch.setattr(Graph, "degree", forbidden)
        peeled = [multiplicity_one_by_peeling(h) for h in derived]
        monkeypatch.undo()
        assert peeled == [laplacian_multiplicity_one(Graph(h.n, h.edges))
                          for h in derived]

    def test_rational_diagonals_agree_with_fraction_rank(self, monkeypatch):
        # cycles with small trees hanging off them.  A fork, a vertex with
        # j pendant P2s below it, is peeled as a leaf of diagonal j, so its
        # cycle neighbour reaches the core with a diagonal of denominator
        # j; a fork below a stem vertex gives the stem diagonal 1/2, and
        # peeling the stem subtracts 2, so a vertex above two such stems
        # is peeled with diagonal -2.  A denominator b > 1 shows in the
        # core rows as off-diagonal entries -b.
        stem_fork = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]
        gadgets = (  # trees on 0..k, vertex 0 joined to the cycle
            [(0, 1)],
            [(0, 1), (1, 2)],
            [(0, 1), (1, 2), (0, 3), (3, 4)],
            [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)],
            stem_fork,
            [(0, 1), (0, 7)] + [(a + s, b + s) for s in (1, 7) for a, b in stem_fork],
        )
        rng = random.Random(29)
        core_rows = []
        real_rank = linalg.rank

        def recording_rank(m):
            core_rows.extend(enumerate(m.data))
            return real_rank(m)

        monkeypatch.setattr(linalg, "rank", recording_rank)
        for k in range(3, 9):
            for _ in range(30):
                edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
                n = k
                for _ in range(rng.randint(1, 3)):
                    tree = rng.choice(gadgets)
                    edges.append((rng.randrange(k), n))
                    edges += [(n + a, n + b) for a, b in tree]
                    n += len(tree) + 1
                g = Graph(n, edges)
                rows = [[g.degree(u) - 1 if u == v else -g.has_edge(u, v)
                         for v in range(n)] for u in range(n)]
                assert multiplicity_one_by_peeling(g) == n - fraction_rank(rows)
        # row i is -b off the diagonal and a on it, for d = a / b in lowest
        # terms with b > 0
        denominators = set()
        for i, row in core_rows:
            (b,) = {-x for j, x in row.items() if j != i}
            assert b > 0 and gcd(b, row.get(i, 0)) == 1
            denominators.add(b)
        assert {2, 3, 6} <= denominators

    def test_large_extremal_shapes_in_linear_time(self):
        for build, k in ((caterpillar, 2500), (sun, 2500)):
            g = build(k)
            assert g.n >= 10_000
            t0 = time.perf_counter()
            assert multiplicity_one_by_peeling(g) == k
            assert time.perf_counter() - t0 < 5.0


def test_oracles_import_no_package_code():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        node.module or "" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ]
    assert imported and not any(name.split(".")[0] == "lap1" for name in imported)
