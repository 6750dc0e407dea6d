"""graph6 codec and the edge-list text format."""

from __future__ import annotations

import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lap1.graph6 import (
    Graph6Error,
    parse_graph6,
    read_edge_list,
    to_graph6,
    write_edge_list,
)
from lap1.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from lap1.enumeration import free_trees
from families import caterpillar


def test_known_strings():
    assert parse_graph6("Bw") == complete_graph(3)
    assert parse_graph6("Bg") == Graph(3, [(0, 1), (1, 2)])
    assert to_graph6(complete_graph(3)) == "Bw"


def test_header_stripped():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)


def test_roundtrip_fixed_forms():
    for g in [
        Graph(0),
        Graph(1),
        path_graph(2),
        path_graph(7),
        cycle_graph(9),
        star_graph(5),
        complete_graph(9),
    ]:
        s = to_graph6(g)
        assert parse_graph6(s) == g
        assert to_graph6(parse_graph6(s)) == s


def test_roundtrip_enumerated_graphs():
    from lap1.enumeration import unicyclic_graphs

    for n in range(1, 13):
        for t in free_trees(n):
            assert parse_graph6(to_graph6(t)) == t
    for n in range(3, 10):
        for g in unicyclic_graphs(n):
            assert parse_graph6(to_graph6(g)) == g


def test_matches_reference_encoder():
    for g in [path_graph(6), cycle_graph(7), star_graph(5), complete_graph(8)]:
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.sorted_edges())
        assert to_graph6(g) == nx.to_graph6_bytes(ref, header=False).decode().strip()


def test_large_n_long_form():
    g = Graph(70, [(0, 69), (1, 2)])
    s = to_graph6(g)
    assert s.startswith(chr(126))
    assert parse_graph6(s) == g


def test_large_n_roundtrip_within_time():
    g = caterpillar(2500)
    assert g.n == 10_006
    t0 = time.perf_counter()
    s = to_graph6(g)
    assert parse_graph6(s) == g
    assert time.perf_counter() - t0 < 5.0


def test_parse_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error, match="character"):
        parse_graph6("B\x07")
    with pytest.raises(Graph6Error, match="payload"):
        parse_graph6("Bww")
    with pytest.raises(Graph6Error, match="payload"):
        parse_graph6("D")
    with pytest.raises(Graph6Error, match="padding"):
        # n=3 uses 3 pair bits; '@'+1 sets the lowest padding bit
        parse_graph6("B@")
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("BC")  # the first padding bit


@given(st.integers(0, 11), st.data())
@settings(max_examples=150, deadline=None)
def test_roundtrip_random(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    g = Graph(n, chosen)
    assert parse_graph6(to_graph6(g)) == g


def test_edge_list_roundtrip():
    g = Graph(5, [(0, 1), (2, 4), (1, 3)])
    assert read_edge_list(write_edge_list(g)) == g
    assert write_edge_list(g) == "5 3\n0 1\n1 3\n2 4\n"


def test_edge_list_errors():
    with pytest.raises(ValueError):
        read_edge_list("")
    with pytest.raises(ValueError, match="edge lines"):
        read_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        read_edge_list("3 1\n0 0 1\n")
