"""Verification suites and the command-line front end."""

from __future__ import annotations

import gc
import json
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import lap1.canon as canon
import lap1.cli as cli
import lap1.enumeration as enumeration
import lap1.graph6 as graph6
import lap1.linalg as linalg
import lap1.verify as verify
from lap1.enumeration import random_connected_graph
from lap1.graph6 import parse_graph6, read_edge_list, to_graph6, write_edge_list
from lap1.graphs import (
    Graph,
    disjoint_union,
    path_graph,
    pendant_profile,
    spider,
    star_graph,
)
from lap1.linalg import laplacian_multiplicity_one
from lap1.reduction import ReductionTrace
from lap1.verify import (
    Suite,
    clear_caches,
    run_suite,
    verify_lemmas,
    verify_thm1,
    verify_thm2,
    verify_thm3,
)
import oracles
from families import caterpillar, is_unicyclic, petersen, prufer_tree, relabelled, sun
from fixtures import CLASS_TREE_COUNTS, CLASS_UNICYCLIC_COUNTS


def replayed(out: dict) -> list[dict]:
    """The steps of a reduce report, once `oracles.replay_reduce` has
    replayed them without fault from the input's edge list to the
    reported graph6, and the report's graphs and offset agree."""
    faults, n, edges = oracles.replay_reduce(out["trace"])
    assert faults == []
    result = parse_graph6(out["graph6"])
    assert (n, edges) == (result.n, set(result.edges))
    assert read_edge_list(out["trace"]["input_edge_list"]) == parse_graph6(
        out["input_g6"])
    assert out["offset"] == out["trace"]["total"]
    assert all(set(s) == {"rule", "vertices", "offset"}
               for s in out["trace"]["steps"])
    return out["trace"]["steps"]


def strip_runtime(report_json: dict) -> dict:
    out = dict(report_json)
    out.pop("runtime_ms")
    return out


class TestSuites:
    def test_thm1_small(self):
        r = verify_thm1(max_n=8, seed=3, n_random=40)
        assert r.passed
        # 1+1+1+2+3+6+11+23 trees, 1+2+5+13+33+89 unicyclic, 40 random
        assert r.graphs_checked == 48 + 143 + 40
        assert r.seed == 3

    def test_thm2_spec_example(self):
        r = verify_thm2(max_n=9)
        assert r.passed and r.graphs_checked == 7

    def test_thm3_small(self):
        r = verify_thm3(max_n=11)
        assert r.passed

    def test_lemmas_spec_example(self):
        r = verify_lemmas(max_n=8)
        assert r.passed

    def test_route_caches_hold_checked_graphs_only(self):
        # the graphs a check derives take the peeling route, unmemoised,
        # so the route memo does not outgrow the graphs the report counts;
        # it holds a graph6 string and three ints per graph, no Graph
        clear_caches()
        r = verify_lemmas(max_n=8)
        memo = verify._ROUTES
        assert 0 < len(memo) <= r.graphs_checked
        for g6, routes in memo.items():
            assert type(g6) is str and type(routes) is tuple and len(routes) == 3
            assert all(type(m) is int for m in routes)

    def test_suite_retains_little_per_checked_graph(self):
        # what a suite leaves behind is its route memo, not its graphs,
        # and what it holds at once is one graph, not a level of them
        for n in range(3, 13):  # the grammar's tables, memoised for good
            for _ in enumeration._unicyclic_words(n, True):
                pass
        clear_caches()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            r = verify_thm3(max_n=12)
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            clear_caches()
        assert r.passed and r.graphs_checked == 1086
        assert retained - base < 400 * r.graphs_checked
        assert peak - base < 1_000_000

    @pytest.mark.parametrize("source, lo, top, counts", [
        pytest.param(verify._class_T, 6, 16, CLASS_TREE_COUNTS, id="thm2"),
        pytest.param(verify._class_G, 3, 14, CLASS_UNICYCLIC_COUNTS, id="thm3"),
    ])
    def test_class_sources_stream(self, monkeypatch, source, lo, top, counts):
        # every graph taken from a class source builds that one graph,
        # never the rest of its level
        built = []
        real = canon.build
        for name, module in list(sys.modules.items()):
            if name.startswith("lap1") and getattr(module, "build", None) is real:
                monkeypatch.setattr(
                    module, "build", lambda word: built.append(word) or real(word))
        taken = 0
        for _ in source(top, 0, 0):
            taken += 1
            assert len(built) == taken
        assert taken == sum(counts[n] for n in range(lo, top + 1))

    def test_report_json_shape(self):
        r = verify_thm2(max_n=7)
        payload = r.to_json()
        assert set(payload) == {
            "suite",
            "n_range",
            "graphs_checked",
            "violations",
            "runtime_ms",
            "seed",
        }
        json.dumps(payload)

    def test_determinism_modulo_runtime(self):
        a = verify_thm1(max_n=7, seed=9, n_random=25)
        b = verify_thm1(max_n=7, seed=9, n_random=25)
        assert strip_runtime(a.to_json()) == strip_runtime(b.to_json())

    def test_jobs_match_serial(self):
        # workers receive pickled Graphs
        a = verify_thm1(max_n=7, seed=4, n_random=10, jobs=1)
        b = verify_thm1(max_n=7, seed=4, n_random=10, jobs=2)
        assert strip_runtime(a.to_json()) == strip_runtime(b.to_json())
        a = verify_lemmas(max_n=7, jobs=1)
        b = verify_lemmas(max_n=7, jobs=2)
        assert strip_runtime(a.to_json()) == strip_runtime(b.to_json())

    def test_checks_parse_no_graph6(self, monkeypatch):
        # the enumerations yield the graphs they build and the checks take
        # them as they come, so nothing is encoded only to be parsed back
        real = graph6.parse_graph6
        calls = []

        def counted(text):
            calls.append(text)
            return real(text)

        for name, module in list(sys.modules.items()):
            if name.startswith("lap1") and getattr(module, "parse_graph6", None) is real:
                monkeypatch.setattr(module, "parse_graph6", counted)
        r = verify_lemmas(max_n=8)
        assert r.passed
        # 1+1+1+2+3+6+11+23 trees, 1+2+5+13+33+89 unicyclic, then the
        # aggregate's 20 star-like trees and 28 cycles
        assert r.graphs_checked == 48 + 143 + 20 + 28
        assert calls == []

    @pytest.mark.parametrize("max_n", [1, 5, 7])
    def test_run_suite_all(self, max_n):
        reports = run_suite("all", max_n=max_n, n_random=10)
        assert [r.suite for r in reports] == ["thm1", "thm2", "thm3", "lemmas"]
        assert all(r.passed for r in reports)
        lows = {"thm1": 1, "thm2": 6, "thm3": 3, "lemmas": 1}
        for r in reports:
            lo = lows[r.suite]
            assert r.n_range == (lo, max(max_n, lo))

    def test_n_range_ends_where_the_source_does(self, monkeypatch):
        # the enumerations stop at MAX_TREE_N and MAX_UNICYCLIC_N whatever
        # max_n asks for, and thm1 stops at the largest order it drew
        monkeypatch.setattr(verify, "MAX_TREE_N", 8)
        monkeypatch.setattr(verify, "MAX_UNICYCLIC_N", 6)
        r = verify_thm2(max_n=12)
        assert (r.n_range, r.graphs_checked) == ((6, 8), 4)
        assert "n in 6..8," in r.summary()
        assert verify_thm3(max_n=12).n_range == (3, 6)
        assert verify_lemmas(max_n=12).n_range == (1, 8)
        assert verify_thm1(max_n=12, n_random=0).n_range == (1, 8)
        # seed 0 draws random graphs of orders 7, 9 and 10
        assert verify_thm1(max_n=12, n_random=3).n_range == (1, 10)

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        # workers fork at the first submit, so --jobs 10000 must not
        # ask for 10000 of them; the fake pool maps in this process
        import concurrent.futures

        requested = []

        class FakePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        serial = verify_thm1(max_n=6, n_random=20, jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
        wide = verify_thm1(max_n=6, n_random=20, jobs=10_000)
        assert requested == [3]
        assert strip_runtime(wide.to_json()) == strip_runtime(serial.to_json())

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("thm9")

    # m + 1 on every order divisible by 3 breaks the rank route and the
    # peeling of derived graphs only, so besides the cross-oracle it must
    # light up every aggregate rule: the thm2 census and extremal checks,
    # thm3's extremal check, and the lemmas' star-like and cycle
    # closed-form extras.
    @pytest.mark.parametrize("entry, kwargs, graphs, rules", [
        pytest.param(verify_thm1, dict(max_n=6, n_random=10, seed=1), 45,
                     {"cross-oracle": 26, "eq2": 26, "thm1-identity": 12},
                     id="thm1"),
        pytest.param(verify_thm2, dict(max_n=10), 13,
                     {"cross-oracle": 4, "thm2-bound": 4, "thm2-census": 4,
                      "thm2-extremal": 1}, id="thm2"),
        pytest.param(verify_thm3, dict(max_n=12), 1086,
                     {"cross-oracle": 650, "thm3-bound": 1,
                      "thm3-extremal": 1}, id="thm3"),
        pytest.param(verify_lemmas, dict(max_n=6), 83,
                     {"cross-oracle": 37, "cycle-closed-form": 10, "eq2": 21,
                      "eqlemma": 7, "mainlemma": 102, "reduction-op": 37,
                      "starlike": 6}, id="lemmas"),
    ])
    def test_mutation_fires_aggregate_rules(
        self, monkeypatch, entry, kwargs, graphs, rules
    ):
        clear_caches()
        for name in ("_m1_exact", "multiplicity_one_by_peeling"):
            real = getattr(verify, name)
            monkeypatch.setattr(
                verify, name, lambda g, real=real: real(g) + (g.n % 3 == 0)
            )
        try:
            r = entry(**kwargs)
        finally:
            monkeypatch.undo()
            clear_caches()
        assert r.graphs_checked == graphs
        assert Counter(v["rule"] for v in r.violations) == rules

    def test_eq2_reads_the_internal_submatrix(self, monkeypatch):
        # with the whole L in place of L_N, m_N is m itself, so equation
        # (2) holds only where p = q: it must be reported on each checked
        # graph with p > q, and no other rule may fire
        seen = []

        def whole_laplacian(g, prof=None):
            prof = pendant_profile(g)
            seen.append((to_graph6(g), prof.p > prof.q))
            return linalg.laplacian(g)

        clear_caches()
        monkeypatch.setattr(verify, "internal_submatrix", whole_laplacian)
        try:
            r = verify_thm1(max_n=6, n_random=10, seed=1)
        finally:
            monkeypatch.undo()
            clear_caches()
        assert len(seen) == r.graphs_checked == 45
        assert Counter(v["rule"] for v in r.violations) == {"eq2": 16}
        assert sorted(v["graph6"] for v in r.violations) == sorted(
            g6 for g6, more in seen if more)

    def test_mutation_in_rank_is_caught(self, monkeypatch):
        # an off-by-one rank breaks the rank route but not the
        # characteristic polynomial route, so the cross-oracle comparison
        # must light up
        real_rank = linalg.rank
        clear_caches()
        monkeypatch.setattr(linalg, "rank", lambda m: real_rank(m) + 1)
        try:
            r = verify_thm1(max_n=6, n_random=5)
            assert not r.passed
            assert any(v["rule"] == "cross-oracle" for v in r.violations)
        finally:
            monkeypatch.undo()
            clear_caches()

    def test_mutation_in_char_poly_is_caught(self, monkeypatch):
        # a factor of x too many makes the characteristic polynomial route
        # count one zero coefficient too many on every graph, and nothing
        # else reads it
        real_char_poly = verify.char_poly
        clear_caches()
        monkeypatch.setattr(verify, "char_poly", lambda m: [0] + real_char_poly(m))
        try:
            r = verify_thm1(max_n=6, n_random=5)
        finally:
            monkeypatch.undo()
            clear_caches()
        assert Counter(v["rule"] for v in r.violations) == {
            "cross-oracle": r.graphs_checked
        }

    def test_a_row_without_a_check_is_still_cross_checked(self, monkeypatch):
        # the engine compares the three routes itself, so a row with no
        # check of its own still reports an off-by-one rank on every graph
        probe = Suite("probe", 1, 6, verify._trees_and_unicyclic, None)
        real_rank = linalg.rank
        clear_caches()
        monkeypatch.setattr(linalg, "rank", lambda m: real_rank(m) + 1)
        try:
            r = verify._run(probe, None)
        finally:
            monkeypatch.undo()
            clear_caches()
        assert r.graphs_checked == 35  # 14 trees and 21 unicyclic graphs
        assert Counter(v["rule"] for v in r.violations) == {
            "cross-oracle": r.graphs_checked
        }
        assert len({v["graph6"] for v in r.violations}) == r.graphs_checked

    @pytest.mark.parametrize("entry, kwargs", [
        pytest.param(verify_thm2, dict(max_n=10), id="thm2"),
        pytest.param(verify_thm3, dict(max_n=12), id="thm3"),
    ])
    def test_rank_defect_is_reported_by_the_bound_suites(
        self, monkeypatch, entry, kwargs
    ):
        # the extremal graphs the aggregate compares against are built
        # without re-checking them on the rank route, which would raise
        real_rank = linalg.rank
        clear_caches()
        monkeypatch.setattr(linalg, "rank", lambda m: real_rank(m) + 1)
        try:
            r = entry(**kwargs)
        finally:
            monkeypatch.undo()
            clear_caches()
        assert any(v["rule"] == "cross-oracle" for v in r.violations)


class TestCharPolyRoute:
    def test_nullity_of_relabelled_shifted_laplacians(self):
        rng = random.Random(53)
        graphs = [sun(k) for k in (1, 4, 10)]
        for n in (2, 13, 27, 40):
            seq = tuple(rng.randrange(n) for _ in range(n - 2))
            graphs.append(Graph(n, oracles.prufer_to_edges(seq)))
        for n, prob in ((1, 0), (6, 0), (9, 0.5), (20, 0.2), (40, 0.1), (40, 0.3)):
            graphs.append(Graph(n, [(u, v) for u in range(n)
                                    for v in range(u + 1, n) if rng.random() < prob]))
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            rows = [[h.degree(i) - 1 if i == j else -h.has_edge(i, j)
                     for j in range(h.n)] for i in range(h.n)]
            assert verify._m1_charpoly(h) == h.n - oracles.fraction_rank(rows)

    def test_random_tree_of_order_150_within_time(self):
        rng = random.Random(59)
        n = 150
        g = Graph(n, oracles.prufer_to_edges(
            tuple(rng.randrange(n) for _ in range(n - 2))))
        clear_caches()
        t0 = time.perf_counter()
        m = verify._m1_charpoly(g)
        assert time.perf_counter() - t0 < 5.0
        assert m == laplacian_multiplicity_one(g)

    def test_independent_of_the_rank_engine(self, monkeypatch):
        # a defect in `rank` must not reach this route of the cross-oracle
        def broken(m):
            raise AssertionError("char_poly route called rank")

        rng = random.Random(67)
        graphs = [sun(3), star_graph(5), path_graph(7), Graph(4, [(0, 1)])]
        graphs += [random_connected_graph(9, Fraction(1, 2), rng.randrange(2**32))
                   for _ in range(5)]
        clear_caches()
        monkeypatch.setattr(linalg, "rank", broken)
        try:
            for g in graphs:
                rows = oracles.laplacian_matrix(g.n, g.edges)
                assert linalg.char_poly(linalg.laplacian(g)) == (
                    oracles.charpoly_by_interpolation(rows))
                for i in range(g.n):
                    rows[i][i] -= 1
                assert verify._m1_charpoly(g) == (
                    g.n - oracles.fraction_rank(rows))
        finally:
            monkeypatch.undo()
            clear_caches()


class TestCli:
    def test_mult_examples(self, capsys):
        assert cli.main(["mult", "--g6", to_graph6(path_graph(6))]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["m1"] == 1

        assert cli.main(["mult", "--g6", "Bw", "--method", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["m1"] == 0 and out["n"] == 3

        assert cli.main(["mult", "--g6", to_graph6(star_graph(3))]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["m1"], out["p"], out["q"]) == (2, 3, 1)
        assert out["trace"]["total"] == 2

    def test_mult_from_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(star_graph(3)))
        assert cli.main(["mult", "--file", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["m1"] == 2

    def test_mult_fast_on_deep_tree(self, tmp_path, capsys):
        # order 2006: tree codes nest about 750 deep from the centre
        path = tmp_path / "g.g6"
        path.write_text(to_graph6(caterpillar(500)) + "\n")
        assert cli.main(["mult", "--method", "fast", "--file", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["m1"] == 500

    @pytest.mark.parametrize("build, k", [
        pytest.param(caterpillar, 250, id="caterpillar"),
        pytest.param(sun, 250, id="sun"),
        pytest.param(caterpillar, 2500, id="caterpillar-2500"),
        pytest.param(sun, 2500, id="sun-2500"),
    ])
    def test_mult_both_routes_on_large_extremal_graphs(
        self, build, k, tmp_path, capsys
    ):
        # the default --method both ranks the whole L - I exactly, at
        # orders 1000 and 10^4
        g = build(k)
        perm = list(range(g.n))
        random.Random(g.n).shuffle(perm)
        path = tmp_path / "g.g6"
        path.write_text(to_graph6(g.relabel(perm)) + "\n")
        t0 = time.perf_counter()
        assert cli.main(["mult", "--file", str(path)]) == 0
        assert time.perf_counter() - t0 < 5.0
        out = json.loads(capsys.readouterr().out)
        assert (out["method"], out["m1"]) == ("both", k)

    def test_mult_traces_pass_the_oracle_checker(self, capsys):
        rng = random.Random(13)
        graphs = [star_graph(3), spider([3, 3, 2, 1, 1]), caterpillar(4),
                  sun(4), petersen(),
                  disjoint_union(sun(2), relabelled(prufer_tree(25, rng), rng))]
        graphs += [relabelled(prufer_tree(n, rng), rng) for n in (40, 70)]
        for g in graphs:
            assert cli.main(["mult", "--g6", to_graph6(g)]) == 0
            out = json.loads(capsys.readouterr().out)
            trace = out["trace"]
            assert read_edge_list(trace["input_edge_list"]) == g
            assert trace["total"] == out["m1"]
            assert oracles.trace_faults(trace) == [], to_graph6(g)

    def test_mult_on_order_ten_to_the_five_from_an_edge_list(
        self, tmp_path, capsys
    ):
        # the default --method both at order 100,006: the trace holds the
        # input once and the vertices its steps name, not graph6 strings
        # of n(n - 1)/12 characters each
        g = relabelled(caterpillar(25000), random.Random(8))
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(g))
        t0 = time.perf_counter()
        assert cli.main(["mult", "--file", str(path)]) == 0
        assert time.perf_counter() - t0 < 20.0
        out = capsys.readouterr().out
        assert len(out) < 64 * g.n
        payload = json.loads(out)
        assert (payload["method"], payload["m1"]) == ("both", 25000)
        assert payload["trace"]["total"] == 25000

    def test_mult_parse_failure_exit_2(self, capsys):
        assert cli.main(["mult", "--g6", "B\x07"]) == 2
        assert cli.main(["mult"]) == 2

    def test_mult_disagreement_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "multiplicity_fast", lambda g: (99, ReductionTrace(g, (), 99))
        )
        assert cli.main(["mult", "--g6", "Bw", "--method", "both"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["m1_exact"] == 0 and out["m1_fast"] == 99

    def test_reduce_to_reduced(self, capsys):
        assert cli.main(["reduce", "--g6", to_graph6(star_graph(3))]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["offset"] == 2
        assert parse_graph6(out["graph6"]).n == 2
        (step,) = replayed(out)
        assert (step["rule"], step["vertices"]) == ("PendantCluster", [2, 3])
        assert (out["input_g6"], out["graph6"]) == ("Cs", "A_")

    def test_reduce_to_final(self, capsys):
        assert cli.main(
            ["reduce", "--g6", to_graph6(path_graph(6)), "--to", "final"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["graph6"] == to_graph6(path_graph(6)) and out["offset"] == 0

        from lap1.graphs import spider

        assert cli.main(
            ["reduce", "--g6", to_graph6(spider([2, 2, 1])), "--to", "final"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        result = parse_graph6(out["graph6"])
        from lap1.graphs import pendant_profile

        prof = pendant_profile(result)
        assert all(result.degree(v) <= 2 for v in prof.quasi_pendants)
        assert all(s["rule"] == "ReductionOperation" for s in replayed(out))

        # a spine of three quasi-pendants of degree >= 3: each step starts
        # from the graph the previous one produced, and names its pendant
        # and neighbour in that graph's labels
        g = Graph(10, [(0, 1), (1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (4, 7),
                       (7, 8), (7, 9)])
        assert cli.main(["reduce", "--g6", to_graph6(g), "--to", "final"]) == 0
        out = json.loads(capsys.readouterr().out)
        steps = replayed(out)
        assert len(steps) == 3
        assert [s["vertices"] for s in steps] == [[0, 1], [3, 2], [4, 3]]

    @pytest.mark.parametrize("to", ["reduced", "final"])
    def test_reduce_labels_nothing(self, to, capsys, monkeypatch):
        # K4 with two pendants on one vertex, and a dense random graph
        # with two pendants added: cores with more edges than vertices
        def forbidden(*args):
            raise AssertionError("reduce labelled a graph")

        monkeypatch.setattr(canon, "_read_word", forbidden)
        g = random_connected_graph(60, Fraction(1, 5), 1)
        g = Graph(62, [*g.edges, (0, 60), (0, 61)])
        for g6 in ("E~a?", to_graph6(g)):
            assert cli.main(["reduce", "--g6", g6, "--to", to]) == 0
            out = json.loads(capsys.readouterr().out)
            # each step names what it did in the labels of the graph the
            # step before it produced, and the replay ends on graph6
            assert replayed(out) and out["input_g6"] == g6

    def test_final_graph_graph6_cannot_encode_is_a_usage_error(
        self, capsys, monkeypatch
    ):
        # an input graph6 encodes may reduce to one it cannot: with the
        # limit at 100, K_{1,40} of order 41 has a final graph of order 117
        monkeypatch.setattr(graph6, "MAX_N", 100)
        monkeypatch.setattr(cli, "GRAPH6_MAX_N", 100)
        g6 = to_graph6(star_graph(40))
        assert cli.main(["reduce", "--g6", g6, "--to", "final"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the final graph has order 117, over 100" in captured.err
        assert cli.main(["reduce", "--g6", g6]) == 0

    def test_enumerate_counts(self, capsys):
        assert cli.main(["enumerate", "--class", "tree", "--n", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 11

    def test_enumerate_filtered(self, capsys):
        assert (
            cli.main(
                ["enumerate", "--class", "tree", "--n", "8",
                 "--filter", "reduced,noP3"]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        all_lines_are_trees = all(parse_graph6(s).is_tree() for s in lines)
        assert all_lines_are_trees

    def test_enumerate_bad_filter(self, capsys):
        assert (
            cli.main(["enumerate", "--class", "tree", "--n", "5",
                      "--filter", "shiny"])
            == 2
        )

    def test_extremal_output(self, capsys):
        assert cli.main(["extremal", "--class", "unicyclic", "--n", "12"]) == 0
        out = capsys.readouterr().out.strip()
        g6, m_part = out.split()
        assert m_part == "m=3" and is_unicyclic(parse_graph6(g6))

        assert cli.main(["extremal", "--class", "tree", "--n", "10"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("m=1")

    @pytest.mark.parametrize("cls, n", [("tree", 10006), ("unicyclic", 10000)])
    def test_extremal_at_order_ten_thousand(self, cls, n, capsys):
        # the construction checks its own multiplicity on the exact route
        t0 = time.perf_counter()
        assert cli.main(["extremal", "--class", cls, "--n", str(n)]) == 0
        assert time.perf_counter() - t0 < 5.0
        assert capsys.readouterr().out.strip().endswith(" m=2500")

    def test_extremal_bad_order(self, capsys):
        assert cli.main(["extremal", "--class", "tree", "--n", "9"]) == 2

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("LAP1_MAX_N", "6")
        assert cli.main(["enumerate", "--class", "tree", "--n", "9"]) == 2
        monkeypatch.delenv("LAP1_MAX_N")
        assert cli.main(["enumerate", "--class", "tree", "--n", "9"]) == 0
        capsys.readouterr()

    def test_env_cap_covers_mult_and_reduce(self, tmp_path, capsys, monkeypatch):
        g6 = to_graph6(path_graph(8))
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(path_graph(8)))
        monkeypatch.setenv("LAP1_MAX_N", "6")
        for cmd in ("mult", "reduce"):
            assert cli.main([cmd, "--g6", g6]) == 2
            assert cli.main([cmd, "--file", str(path)]) == 2
        assert "LAP1_MAX_N=6" in capsys.readouterr().err
        monkeypatch.setenv("LAP1_MAX_N", "8")
        assert cli.main(["mult", "--g6", g6]) == 0
        capsys.readouterr()

    def test_env_cap_covers_the_orders_verify_reaches(self, capsys, monkeypatch):
        # without --max-n thm2 runs to its default order 14, and it raises
        # --max-n 5 to its lowest order 6; all runs thm1 to order 12
        monkeypatch.setenv("LAP1_MAX_N", "5")
        for argv in (["verify", "thm2"], ["verify", "thm2", "--max-n", "5"]):
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "LAP1_MAX_N=5" in captured.err
        monkeypatch.setenv("LAP1_MAX_N", "9")
        assert cli.main(["verify", "all", "--random-graphs", "1"]) == 2
        assert capsys.readouterr().out == ""
        assert cli.main(["verify", "thm2", "--max-n", "9"]) == 0
        assert json.loads(capsys.readouterr().out)["n_range"] == [6, 9]

    def test_file_with_several_graphs_rejected(self, tmp_path, capsys):
        path = tmp_path / "many.g6"
        path.write_text("Bw\n\nCs\nCF\n")
        assert cli.main(["mult", "--file", str(path)]) == 2
        assert "3 graph6 lines" in capsys.readouterr().err
        path.write_text("\nBw\n\n")
        assert cli.main(["mult", "--file", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    def test_orders_graph6_cannot_encode_fail_reduce_only(self, tmp_path, capsys):
        # reduce reports carry graph6, whose vertex count stops at
        # 258,047; mult writes none, so its fast route answers too
        path = tmp_path / "big.txt"
        path.write_text(write_edge_list(star_graph(258047)))
        assert cli.main(["reduce", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "258047" in captured.err
        assert cli.main(["mult", "--method", "fast", "--file", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["m1"] == out["trace"]["total"] == 258046

    def test_out_of_range_inputs_are_usage_errors(self, capsys):
        for argv in (
            ["enumerate", "--class", "tree", "--n", "17"],
            ["enumerate", "--class", "tree", "--n", "0"],
            ["enumerate", "--class", "unicyclic", "--n", "2"],
            ["verify", "thm1", "--max-n", "0"],
        ):
            assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        # enumerate relays the enumeration's own range error
        assert "error: tree enumeration supports 1 <= n <= 16\n" in captured.err
        assert "error: unicyclic enumeration supports 3 <= n <= 14\n" in captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--random-graphs", "-5"), ("--jobs", "0"), ("--jobs", "-3")])
    def test_verify_counts_below_their_least_are_usage_errors(
        self, capsys, flag, value
    ):
        argv = ["verify", "all", "--max-n", "6", flag, value]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} must be at least" in captured.err

    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(g):
            raise ValueError("internal defect")

        monkeypatch.setattr(cli, "multiplicity_fast", broken)
        monkeypatch.setattr(cli, "final_reduction_graph", broken)
        # a stream that fails while it is read, after n was accepted
        monkeypatch.setattr(cli, "free_trees", lambda n: map(broken, range(n)))
        for argv in (["mult", "--g6", "Bw"],
                     ["reduce", "--g6", "Bw", "--to", "final"],
                     ["enumerate", "--class", "tree", "--n", "5"]):
            assert cli.main(argv) == cli.EXIT_INTERNAL == 4, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert "Traceback" in captured.err, argv
            assert "internal defect" in captured.err, argv

    def test_extremal_reports_the_verified_k(self, capsys, monkeypatch):
        def no_second_check(g):
            raise AssertionError("multiplicity computed again")

        monkeypatch.setattr(cli, "laplacian_multiplicity_one", no_second_check)
        assert cli.main(["extremal", "--class", "tree", "--n", "14"]) == 0
        assert capsys.readouterr().out.strip().endswith(" m=2")

    def test_verify_cli_json_out(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = cli.main(
            ["verify", "thm2", "--max-n", "9", "--json-out", str(target)]
        )
        assert code == 0
        report = json.loads(target.read_text())
        assert report["suite"] == "thm2" and report["graphs_checked"] == 7
        err = capsys.readouterr().err
        assert "suite thm2" in err

    def test_unwritable_json_out_is_a_usage_error(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_suite(*args, **kwargs):
            raise AssertionError("the suite ran before the path was checked")

        # verify checks the path before its suite runs
        monkeypatch.setattr(cli, "run_suite", no_suite)
        (tmp_path / "file").write_text("")
        for target in (tmp_path / "missing" / "report.json",
                       tmp_path / "file" / "report.json"):
            for argv in (["mult", "--g6", "Bw"], ["verify", "all"]):
                assert cli.main([*argv, "--json-out", str(target)]) == 2, argv
                captured = capsys.readouterr()
                assert captured.out == "" and "Traceback" not in captured.err, argv
                assert f"error: cannot write {target}" in captured.err, argv

    def test_file_not_in_utf8_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"B\xffw\n")
        assert cli.main(["mult", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"error: cannot read {path}" in captured.err

    def test_reduce_summary_names_orders_not_graphs(self, tmp_path, capsys):
        # the order-4,006 caterpillar and its final graph are 4.5 MB of
        # graph6 on stdout; stderr gives their orders
        path = tmp_path / "caterpillar.txt"
        path.write_text(write_edge_list(caterpillar(1000)))
        argv = ["reduce", "--file", str(path), "--to", "final"]
        assert cli.main(argv) == 0
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert err == "n=4006 -> n=6008 offset=0 steps=1001\n"

    def test_calls_in_one_process_behave_as_in_fresh_ones(self, capsys):
        # the parser is built once per process: neither a usage error nor
        # an earlier call's options may carry over to the next call
        assert cli.main(["mult", "--g6", "Bw", "--method", "slow"]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert cli.main(["mult", "--g6", "Bw", "--method", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "exact" and "trace" not in out
        assert cli.main(["mult", "--g6", "Bw"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "both" and out["trace"]["total"] == out["m1"]
        assert cli.main(["verify", "thm2", "--max-n", "9"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["suite"] == "thm2" and report["graphs_checked"] == 7
        assert report["violations"] == [] and "suite thm2" in captured.err

    def test_verify_cli_exit_1_on_violation(self, capsys, monkeypatch):
        real_rank = linalg.rank
        clear_caches()
        monkeypatch.setattr(linalg, "rank", lambda m: real_rank(m) + 1)
        try:
            assert cli.main(["verify", "thm1", "--max-n", "5",
                             "--random-graphs", "5"]) == 1
            capsys.readouterr()
            # thm2's aggregate builds the extremal caterpillars, which must
            # not re-check themselves on the broken rank route and raise
            assert cli.main(["verify", "thm2", "--max-n", "10"]) == 1
        finally:
            monkeypatch.undo()
            clear_caches()
        assert json.loads(capsys.readouterr().out)["violations"]

    def test_verify_all_small(self, capsys):
        assert cli.main(
            ["verify", "all", "--max-n", "6", "--random-graphs", "5"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 4
