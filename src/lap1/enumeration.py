"""Isomorph-free generation of trees and unicyclic graphs, of the
reduced ones, of those without a pendant P3, and of the members of the
bounds' class, and seeded random connected graphs.

Each graph is built once, from the least word of AHU codes that `canon`
reads off it, so nothing is labelled, kept in a set or thrown away.
Memoised tables hold the rooted codes of each order, a root over every
ascending multiset of smaller codes.  A free tree is rooted at its centre
(Wright, Richmond, Odlyzko and McKay, SIAM J. Comput. 15, 1986): one code
whose two tallest branches tie in height, or two codes of equal height
joined at their roots.  A unicyclic graph is a cycle of three or more
codes that is its own least rotation over both directions.

`free_trees` and `unicyclic_graphs` check the order, then stream the
graph of each least word in generation order, the same on every run.
Two rules, each set by a keyword, restrict them to tables of their own:

- `reduced` (`graphs.is_reduced`): no vertex has two leaf children,
  centres and cycle vertices included, so no vertex has two leaf
  neighbours;
- `no_p3` (no `graphs.find_pendant_paths(g, 3)`): no code that hangs
  below a parent is `000)))`, the rooted P3, though a cycle vertex may
  root one, since it then has degree 3; no centre of degree 2 has a
  branch `00))`; and no bicentral tree is two codes `00))` (P4).

With both set they give the class of Theorems 1.2 and 1.3
(`graphs.in_class_G`), which `trees_in_class_T` and `unicyclic_in_class_G`
list.  Each stream holds the family's graphs that obey its rules, in the
family's order, and no other graph is built.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterator

from .canon import Code, build, join, least_word
from .graphs import Graph

MAX_TREE_N = 16
MAX_UNICYCLIC_N = 14

# (code, height) pairs: a table of rooted trees, or the branches of a root
Coded = tuple[tuple[Code, int], ...]


@lru_cache(maxsize=None)
def _rooted(k: int, reduced: bool, no_p3: bool) -> Coded:
    """(code, height) of every rooted tree of order k: a root over each
    multiset of smaller rooted trees of k - 1 vertices in all, under the
    rules set."""
    return tuple(
        (join(code for code, _ in forest),
         max((h + 1 for _, h in forest), default=0))
        for forest in _forests(k - 1, k - 1, reduced, no_p3)
    )


@lru_cache(maxsize=None)
def _hanging(k: int, reduced: bool, no_p3: bool) -> Coded:
    """The rooted trees of order k that may hang below a parent.  Under
    `no_p3` none is the rooted P3, `000)))`: its root and its child would
    have degree 2 above a leaf."""
    table = _rooted(k, reduced, no_p3)
    return tuple(t for t in table if t[0] != "000)))") if no_p3 else table


def _forests(total: int, most: int, reduced: bool, no_p3: bool) -> Iterator[Coded]:
    """Every multiset of hanging trees of `total` vertices in all, none of
    order above `most`, once each: its trees of the largest order, then
    the rest.  Under `reduced` a multiset holds at most one leaf."""
    if total == 0:
        yield ()
    for k in range(min(most, total), 0, -1):
        most_count = 1 if reduced and k == 1 else total // k
        for count in range(1, most_count + 1):
            for rest in _forests(total - count * k, k - 1, reduced, no_p3):
                for top in combinations_with_replacement(
                    _hanging(k, reduced, no_p3), count
                ):
                    yield top + rest


def _tree_words(n: int, reduced: bool, no_p3: bool) -> Iterator[tuple[Code, ...]]:
    """The least word of every free tree of order n, once each.

    A unicentral tree is its centre's code, whose two tallest branches tie
    in height.  A bicentral tree is two codes of equal height, joined at
    their roots, each hanging below the other.  A centre has two or more
    children, and for n > 2 each bicentral half has order 2 or more, so no
    code above order n - 2 is needed.  Under `no_p3` a centre of degree 2
    has no branch `00))`, whose leaf would end a pendant P3 through the
    centre, and a bicentral tree is not two codes `00))`, which is P4."""
    for forest in _forests(n - 1, n - 2, reduced, no_p3):
        heights = sorted((h for _, h in forest), reverse=True)
        # the two tallest tie, or there is no branch at all (n = 1)
        if heights[:1] == heights[1:2] and not (
            no_p3 and len(forest) == 2 and ("00))", 1) in forest
        ):
            yield (join(code for code, _ in forest),)
    for k in range(1 if n == 2 else 2, n // 2 + 1):
        for i, (a, ha) in enumerate(_hanging(k, reduced, no_p3)):
            for b, hb in _hanging(n - k, reduced, no_p3)[i if 2 * k == n else 0:]:
                if ha == hb and not (no_p3 and a == b == "00))"):
                    yield (a, b) if a <= b else (b, a)


def free_trees(n: int, *, reduced: bool = False,
               no_p3: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of trees on n vertices
    that obey the rules set, each the canonical graph of its least word,
    in generation order."""
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"tree enumeration supports 1 <= n <= {MAX_TREE_N}")
    return (build(word) for word in _tree_words(n, reduced, no_p3))


def _sequences(
    total: int, least: Code, most: int, reduced: bool, no_p3: bool
) -> Iterator[tuple[Code, ...]]:
    """Every sequence of codes, none below `least` and none of order above
    `most`, whose orders sum to total.  The codes root cycle vertices, so
    under `no_p3` one may be the rooted P3: its root has degree 3."""
    if total == 0:
        yield ()
    for k in range(1, min(most, total) + 1):
        for code, _ in _rooted(k, reduced, no_p3):
            if code >= least:
                for rest in _sequences(total - k, least, most, reduced, no_p3):
                    yield (code,) + rest


def _unicyclic_words(n: int, reduced: bool, no_p3: bool) -> Iterator[tuple[Code, ...]]:
    """The least word of every connected unicyclic graph of order n, once
    each: every word of three or more codes that begins with its least
    code and is its own least word.  The codes after the first are two or
    more, so none has order above n - k - 1."""
    for k in range(1, n - 1):
        for first, _ in _rooted(k, reduced, no_p3):
            for rest in _sequences(n - k, first, n - k - 1, reduced, no_p3):
                word = (first, *rest)
                if word == least_word(word):
                    yield word


def unicyclic_graphs(n: int, *, reduced: bool = False,
                     no_p3: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs with
    exactly n edges on n vertices that obey the rules set, each the
    canonical graph of its least word, in generation order."""
    if not 3 <= n <= MAX_UNICYCLIC_N:
        raise ValueError(
            f"unicyclic enumeration supports 3 <= n <= {MAX_UNICYCLIC_N}"
        )
    return (build(word) for word in _unicyclic_words(n, reduced, no_p3))


def trees_in_class_T(n: int) -> list[Graph]:
    """The trees of order n in the class of Theorem 1.2 (`in_class_G`),
    in the order `free_trees` yields them."""
    return list(free_trees(n, reduced=True, no_p3=True))


def unicyclic_in_class_G(n: int) -> list[Graph]:
    """The unicyclic graphs of order n in the class of Theorem 1.3, in the
    order `unicyclic_graphs` yields them."""
    return list(unicyclic_graphs(n, reduced=True, no_p3=True))


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
