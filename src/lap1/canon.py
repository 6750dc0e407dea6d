"""Exact canonical forms of the paper's graphs: equal strings iff
isomorphic, for graphs whose every component has at most as many edges
as vertices (forests, unicyclic graphs and their disjoint unions).

A component is read as a word of AHU codes around its core.  Leaves are
stripped down to the core, the one or two centers of a tree or the unique
cycle.  Each core vertex roots the AHU code of the tree hanging off it, a
flat string so that depth never hits the recursion limit, and a code
costs about order times depth.  The component's word is the least one
over both directions and every start, found by a linear-time least
rotation scan in each direction; a tree's centers are the acyclic case,
a walk of length one or two.  The canonical form is the graph that the
least word describes (`build`), so nothing is relabelled, and components
are ordered by (order, edge list).  Enumeration builds the same graphs
from words it generates.

A component with more edges than vertices raises ValueError: no
enumeration, verify check or reduction labels one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graph6 import encode_graph6
from .graphs import Graph

Code = str  # AHU code: "0", sorted child codes, ")"


def join(children: Iterable[Code]) -> Code:
    """The code of a root whose subtrees have the given codes.

    Codes are prefix-free and ")" sorts below "0", so comparing two codes
    as strings is comparing their sorted child codes lexicographically,
    with no recursion however deep the tree."""
    return "0" + "".join(sorted(children)) + ")"


def _least_rotation(word: Sequence[Code]) -> tuple[Code, ...]:
    """The least rotation of a cyclic word, found in linear time."""
    n = len(word)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        x, y = word[(i + k) % n], word[(j + k) % n]
        if x == y:
            k += 1
            continue
        if x > y:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    t = min(i, j)
    return tuple(word[t:]) + tuple(word[:t])


def least_word(word: Sequence[Code]) -> tuple[Code, ...]:
    """The least rotation of a cyclic word over both directions."""
    return min(_least_rotation(word), _least_rotation(word[::-1]))


def _read_word(g: Graph, comp: Sequence[int]) -> tuple[Code, ...]:
    """The least word of a component.

    Leaves are stripped level by level until the core is left: the one or
    two centers of a tree, or the cycle.  A vertex's code is complete when
    it is stripped, since its children went before it.  Each core vertex
    roots the code of its hanging tree, read in the order of a walk along
    the core, around the cycle or from one center to the other."""
    deg = {v: g.degree(v) for v in comp}
    m = sum(deg.values()) // 2
    if m > len(comp):
        raise ValueError(
            f"a component has {m} edges on {len(comp)} vertices, more edges"
            " than vertices; canonical forms cover trees and unicyclic"
            " components only"
        )
    # The codes of each vertex's stripped children.  A child's code is
    # dropped once its parent's is built, so only the codes of unfinished
    # subtrees are held at a time.
    below: dict[int, list[Code]] = {v: [] for v in comp}
    leaves = [v for v in comp if deg[v] == 1]
    left = len(comp)
    # A cycle has at least three vertices, so only a tree stops at two.
    while leaves and left > 2:
        nxt = []
        for v in leaves:
            deg[v] = -1
            code = join(below.pop(v))
            for w in g.neighbors(v):
                if deg[w] > 0:
                    below[w].append(code)
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        left -= len(leaves)
        leaves = nxt
    core = [v for v in comp if deg[v] >= 0]
    walk = core[:1]
    while len(walk) < len(core):
        walk.append(next(w for w in g.neighbors(walk[-1])
                         if deg[w] >= 0 and w not in walk[-2:]))
    return least_word([join(below[c]) for c in walk])


def build(word: Sequence[Code]) -> Graph:
    """The graph a word describes: each code's tree in preorder, and the
    trees' roots joined in a path, closed to a cycle when there are three
    or more.  The graph of a least word is a canonical form."""
    edges = []
    roots = []
    stack: list[int] = []
    n = 0
    for code in word:
        roots.append(n)
        for ch in code:
            if ch == ")":
                stack.pop()
                continue
            if stack:
                edges.append((stack[-1], n))
            stack.append(n)
            n += 1
    edges += zip(roots, roots[1:])
    if len(roots) > 2:
        edges.append((roots[0], roots[-1]))
    return Graph._unchecked(n, edges)


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: each component built from its least word,
    the components in (order, edge list) order.  Raises ValueError on a
    component with more edges than vertices."""
    parts = []
    for comp in g.components():
        h = build(_read_word(g, comp))
        parts.append((h.n, h.sorted_edges()))
    parts.sort()
    edges = []
    n = 0
    for order, local in parts:
        edges += [(u + n, v + n) for u, v in local]
        n += order
    return encode_graph6(n, edges)
