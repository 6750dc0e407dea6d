"""Exact canonical forms of the paper's graphs: equal strings iff
isomorphic, for graphs whose every component has at most as many edges
as vertices (forests, unicyclic graphs and their disjoint unions).

Each connected component is canonically labeled, then components are
ordered by their canonical keys.  Leaves are stripped down to the core,
the one or two centers of a tree or the unique cycle.  AHU codes of the
trees hanging off the core, flat strings so that depth never hits the
recursion limit, are read in the least order of the core: centers sorted
by code, the cycle in the rotation/reflection-minimal word found by a
linear-time least rotation scan in each direction.  A tree is the acyclic
case of the same labeller, and a code costs about order times depth.

A component with more edges than vertices raises ValueError: no
enumeration, verify check or reduction labels one.
"""

from __future__ import annotations

from typing import Sequence

from .graph6 import encode_graph6
from .graphs import Graph

Code = str  # AHU code: "0", sorted child codes, ")"


def _rooted_code(
    g: Graph, root: int, blocked: frozenset[int] = frozenset()
) -> tuple[Code, dict[int, list[int]]]:
    """AHU code of the tree reachable from root without entering blocked
    vertices, and each vertex's children in ascending (code, vertex) order.

    A code is "0", the sorted child codes, then ")".  Codes are prefix-free
    and ")" sorts below "0", so comparing two codes as strings is comparing
    their sorted child codes lexicographically, with no recursion however
    deep the tree."""
    kids: dict[int, list[int]] = {root: []}
    order = [root]
    for v in order:
        for w in g.neighbors(v):
            if w not in kids and w not in blocked:
                kids[w] = []
                kids[v].append(w)
                order.append(w)
    # Children start in ascending vertex order and the sort is stable.  A
    # child's code is dropped once its parent's is built, so only the
    # codes of unfinished subtrees are held at a time.
    code: dict[int, Code] = {}
    for v in reversed(order):
        ch = kids[v]
        ch.sort(key=code.__getitem__)
        code[v] = "0" + "".join([code.pop(w) for w in ch]) + ")"
    return code[root], kids


def _code_dfs(root: int, kids: dict[int, list[int]]) -> list[int]:
    """Preorder walk visiting children in the order _rooted_code gave."""
    out = []
    stack = [root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(kids[v]))
    return out


def _least_rotation(word: Sequence[Code]) -> tuple[int, int]:
    """First start of the least rotation of a cyclic word, and the word's
    period, in linear time: the least rotations start exactly at
    start + j * period."""
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
    border = [0] * n  # longest proper border of word[:q + 1]
    for q in range(1, n):
        b = border[q - 1]
        while b and word[q] != word[b]:
            b = border[b - 1]
        border[q] = b + (word[q] == word[b])
    period = n - border[-1]
    return min(i, j), period if n % period == 0 else n


def _core_component_order(g: Graph, comp: Sequence[int]) -> list[int]:
    """Order of a tree or unicyclic component of at least two vertices.

    Leaves are stripped level by level until the core is left: the one or
    two centers of a tree, or the cycle.  Each core vertex roots an AHU
    code of its hanging tree, and the core is walked in its least rotation
    over both directions.  A tree's core is a walk of length one or two,
    whose least rotation puts its centers in order of code."""
    deg = {v: g.degree(v) for v in comp}
    leaves = [v for v in comp if deg[v] == 1]
    left = len(comp)
    # A cycle has at least three vertices, so only a tree stops at two.
    while leaves and left > 2:
        nxt = []
        for v in leaves:
            deg[v] = -1
            for w in g.neighbors(v):
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        left -= len(leaves)
        leaves = nxt
    core = [v for v in comp if deg[v] >= 0]
    coreset = frozenset(core)
    cyc = core
    if len(core) > 2:
        cyc = []
        prev, cur = None, core[0]
        while True:
            cyc.append(cur)
            step = min(w for w in g.neighbors(cur) if w in coreset and w != prev)
            if step == core[0]:
                break
            prev, cur = cur, step
    length = len(cyc)

    hang_code: dict[int, Code] = {}
    hang_kids: dict[int, list[int]] = {}
    for c in cyc:
        hang_code[c], kids = _rooted_code(g, c, coreset)
        hang_kids.update(kids)

    # The least walk over both directions and every start; the first of
    # equal walks (direction 1 first, then the smallest start s) wins.
    best = None
    best_walk = None
    for direction in (1, -1):
        word = [hang_code[cyc[direction * i % length]] for i in range(length)]
        t, period = _least_rotation(word)
        # Walk s reads word from position -s % length, and the least
        # rotations start at t + j * period.
        s = t if direction == 1 else -t % period
        walk = [cyc[(s + direction * i) % length] for i in range(length)]
        cand = [hang_code[v] for v in walk]
        if best is None or cand < best:
            best, best_walk = cand, walk
    out = []
    for c in best_walk:
        out.extend(_code_dfs(c, hang_kids))
    return out


def _component_order(g: Graph, comp: Sequence[int], m: int) -> list[int]:
    if len(comp) == 1:
        return list(comp)
    if m > len(comp):
        raise ValueError(
            f"a component has {m} edges on {len(comp)} vertices, more edges"
            " than vertices; canonical forms cover trees and unicyclic"
            " components only"
        )
    return _core_component_order(g, comp)


def canonical_labeling(g: Graph) -> list[int]:
    """Old vertices listed in canonical order (position = new label).
    Raises ValueError on a component with more edges than vertices."""
    comps = g.components()
    if len(comps) <= 1:
        return _component_order(g, comps[0], g.edge_count) if comps else []
    # Several components: bucket the edges by component in one pass, then
    # order the components by (order, canonical edge list).
    comp_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    comp_edges: list[list[tuple[int, int]]] = [[] for _ in comps]
    for e in g.edges:
        comp_edges[comp_of[e[0]]].append(e)
    keyed = []
    for comp, edges in zip(comps, comp_edges):
        order = _component_order(g, comp, len(edges))
        pos = {v: i for i, v in enumerate(order)}
        local_edges = sorted(
            (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
            for u, v in edges
        )
        keyed.append(((len(comp), tuple(local_edges)), order))
    keyed.sort(key=lambda t: t[0])
    return [v for _, order in keyed for v in order]


def _positions(g: Graph) -> list[int]:
    """The canonical label of each vertex."""
    pos = [0] * g.n
    for new, old in enumerate(canonical_labeling(g)):
        pos[old] = new
    return pos


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: the edges written straight in canonical
    positions, without building the relabelled graph."""
    pos = _positions(g)
    return encode_graph6(g.n, [(pos[u], pos[v]) for u, v in g.edges])
