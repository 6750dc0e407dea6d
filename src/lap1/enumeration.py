"""Isomorph-free generation of trees and unicyclic graphs, class filters,
and seeded random connected graphs.

Both families grow by a leaf.  Every tree of order n >= 2 has a leaf, and
so does every unicyclic graph other than the cycle C_n; deleting that
leaf leaves a member of order n - 1.  So level n is every member of level
n - 1 with a leaf added at each vertex, plus C_n for unicyclic graphs,
keeping one graph per canonical form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .canon import canonical_form
from .graph6 import parse_graph6
from .graphs import Graph, cycle_graph, find_pendant_paths, is_reduced

MAX_TREE_N = 16
MAX_UNICYCLIC_N = 14

FILTER_REDUCED = "reduced"
FILTER_NO_PENDANT_P3 = "no-pendant-P3"
KNOWN_FILTERS = frozenset({FILTER_REDUCED, FILTER_NO_PENDANT_P3})


@dataclass(frozen=True)
class GraphClass:
    """A base family plus structural filters."""

    base: str  # "tree" | "unicyclic" | "any-connected"
    filters: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.base not in ("tree", "unicyclic", "any-connected"):
            raise ValueError(f"unknown base class {self.base!r}")
        unknown = set(self.filters) - KNOWN_FILTERS
        if unknown:
            raise ValueError(f"unknown filters {sorted(unknown)}")

    def matches(self, g: Graph) -> bool:
        if self.base == "tree" and not g.is_tree():
            return False
        if self.base == "unicyclic" and not g.is_unicyclic():
            return False
        if self.base == "any-connected" and not g.is_connected():
            return False
        if FILTER_REDUCED in self.filters and not is_reduced(g):
            return False
        if FILTER_NO_PENDANT_P3 in self.filters and find_pendant_paths(g, 3):
            return False
        return True


CLASS_T = GraphClass("tree", frozenset({FILTER_REDUCED, FILTER_NO_PENDANT_P3}))
CLASS_G_UNICYCLIC = GraphClass(
    "unicyclic", frozenset({FILTER_REDUCED, FILTER_NO_PENDANT_P3})
)


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


def filter_class(stream: Iterable[Graph], c: GraphClass) -> Iterator[Graph]:
    """Graphs of the stream satisfying all class predicates, order-stable."""
    return (g for g in stream if c.matches(g))


def trees_in_class_T(n: int) -> list[Graph]:
    return list(filter_class(free_trees(n), CLASS_T))


def unicyclic_in_class_G(n: int) -> list[Graph]:
    return list(filter_class(unicyclic_graphs(n), CLASS_G_UNICYCLIC))


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
