"""Isomorph-free generation of trees and unicyclic graphs, the members of
the bounds' class among them, and seeded random connected graphs.

Both families grow by a leaf.  Every tree of order n >= 2 has a leaf, and
so does every unicyclic graph other than the cycle C_n; deleting that
leaf leaves a member of order n - 1.  So level n is every member of level
n - 1 with a leaf added at each vertex, plus C_n for unicyclic graphs,
keeping one graph per canonical form.

The class of Theorems 1.2 and 1.3 is `graphs.in_class_G`; `filter_class`
keeps the members of a stream that a predicate accepts, and the class
lists are the two families filtered by `in_class_G`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .canon import canonical_form
from .graph6 import parse_graph6
from .graphs import Graph, cycle_graph, in_class_G

MAX_TREE_N = 16
MAX_UNICYCLIC_N = 14


def _grow_by_a_leaf(
    seeds: Iterable[Graph], parents: Iterable[str]
) -> tuple[str, ...]:
    """Sorted canonical forms of the seeds and of every parent with one
    leaf added at one of its vertices."""
    seen = {canonical_form(g) for g in seeds}
    for g6 in parents:
        parent = parse_graph6(g6)
        n = parent.n
        for v in range(n):
            child = Graph._unchecked(n + 1, parent.edges | {(v, n)})
            seen.add(canonical_form(child))
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def _tree_level(n: int) -> tuple[str, ...]:
    """Canonical graph6 strings of all free trees of order n, sorted."""
    if n == 1:
        return (canonical_form(Graph(1)),)
    return _grow_by_a_leaf((), _tree_level(n - 1))


def free_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices,
    in canonical-string order."""
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"tree enumeration supports 1 <= n <= {MAX_TREE_N}")
    for g6 in _tree_level(n):
        yield parse_graph6(g6)


@lru_cache(maxsize=None)
def _unicyclic_level(n: int) -> tuple[str, ...]:
    """Canonical graph6 strings of all connected unicyclic graphs of
    order n, sorted."""
    parents = _unicyclic_level(n - 1) if n > 3 else ()
    return _grow_by_a_leaf((cycle_graph(n),), parents)


def unicyclic_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs with
    exactly n edges on n vertices, in canonical-string order."""
    if not 3 <= n <= MAX_UNICYCLIC_N:
        raise ValueError(
            f"unicyclic enumeration supports 3 <= n <= {MAX_UNICYCLIC_N}"
        )
    for g6 in _unicyclic_level(n):
        yield parse_graph6(g6)


def filter_class(
    stream: Iterable[Graph], keep: Callable[[Graph], bool]
) -> Iterator[Graph]:
    """The graphs of the stream that keep accepts, order-stable."""
    return (g for g in stream if keep(g))


def trees_in_class_T(n: int) -> list[Graph]:
    """The trees of order n in the class of Theorem 1.2 (`in_class_G`)."""
    return list(filter_class(free_trees(n), in_class_G))


def unicyclic_in_class_G(n: int) -> list[Graph]:
    """The unicyclic graphs of order n in the class of Theorem 1.3."""
    return list(filter_class(unicyclic_graphs(n), in_class_G))


def random_connected_graph(
    n: int, edge_prob: Fraction | float | str, seed: int
) -> Graph:
    """Seeded G(n, p) conditioned to be connected by deterministically
    bridging components.  Identical inputs give identical graphs."""
    if n < 1:
        raise ValueError("need at least one vertex")
    p = Fraction(edge_prob)
    if not 0 < p < 1:
        raise ValueError("edge probability must be strictly between 0 and 1")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.randrange(p.denominator) < p.numerator
    ]
    g = Graph(n, edges)
    comps = g.components()
    while len(comps) > 1:
        a = rng.choice(comps[0])
        b = rng.choice(comps[1])
        g = g.add_edge(a, b)
        comps = g.components()
    return g
