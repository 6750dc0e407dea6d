"""Exact canonical forms: equal strings iff isomorphic.

Each connected component is canonically labeled by an algorithm suited to
its shape, then components are ordered by their canonical keys:

* trees and unicyclic components: leaves are stripped down to the core,
  the one or two centers of a tree or the unique cycle.  AHU codes of the
  trees hanging off the core, flat strings so that depth never hits the
  recursion limit, are read in the least order of the core: centers
  sorted by code, the cycle in the rotation/reflection-minimal word found
  by a linear-time least rotation scan in each direction.  A tree is the
  acyclic case of the same labeller;
* everything else: degree refinement with individualization, minimizing
  the adjacency bitstring over the explored labelings.  The search
  branches on one representative per twin class, and prunes with the
  automorphisms it finds (McKay & Piperno, "Practical graph isomorphism,
  II", 2014): two leaves with equal bitstrings give an automorphism, and
  a child in the same orbit as an explored sibling, under the
  automorphisms fixing the path to their node, is skipped.  A pruned
  subtree is the image of an explored one, so the minimum, and the first
  labeling that attains it, are the same as without this pruning.

Both are complete invariants, so the dispatch (which is itself
isomorphism-invariant) preserves the equal-iff-isomorphic contract.
Tree and unicyclic codes cost about order times depth.  The general
search has no polynomial bound, but vertex-transitive graphs up to 64
vertices (the hypercube Q6, the 6 x 6 rook's graph) finish in under a
second.
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


def _general_component_order(g: Graph, comp: Sequence[int]) -> list[int]:
    idx = {v: i for i, v in enumerate(comp)}
    k = len(comp)
    nbrs = [[idx[w] for w in g.neighbors(v)] for v in comp]
    masks = [sum(1 << w for w in nb) for nb in nbrs]

    def refine(cells: list[list[int]]) -> list[list[int]]:
        changed = True
        while changed:
            changed = False
            cell_of = [0] * k
            for ci, c in enumerate(cells):
                for v in c:
                    cell_of[v] = ci
            ncells = len(cells)
            out = []
            for c in cells:
                if len(c) == 1:
                    out.append(c)
                    continue
                # sig[i] = number of v's neighbours in cell i
                groups: dict[tuple, list[int]] = {}
                for v in c:
                    sig = [0] * ncells
                    for w in nbrs[v]:
                        sig[cell_of[w]] += 1
                    groups.setdefault(tuple(sig), []).append(v)
                if len(groups) > 1:
                    changed = True
                for sig in sorted(groups):
                    out.append(groups[sig])
            cells = out
        return cells

    def bits_key(order: list[int]) -> int:
        key = 0
        for j in range(1, k):
            mo = masks[order[j]]
            for i in range(j):
                key = (key << 1) | ((mo >> order[i]) & 1)
        return key

    # Leaves with equal keys differ by an automorphism: order[i] -> other[i].
    first: list = [None, None]  # key, order of the first leaf
    best: list = [None, None]  # key, order of the first minimal leaf
    autos: list[list[int]] = []

    def leaf(order: list[int]) -> None:
        kk = bits_key(order)
        for key, seen in (best, first):
            if kk == key:
                perm = [0] * k
                for a, b in zip(seen, order):
                    perm[a] = b
                autos.append(perm)
                break
        if first[0] is None:
            first[0], first[1] = kk, order
        if best[0] is None or kk < best[0]:
            best[0], best[1] = kk, order

    def rec(cells: list[list[int]], prefix: list[int]) -> None:
        cells = refine(cells)
        target = next((ci for ci, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            leaf([c[0] for c in cells])
            return
        cell = cells[target]
        # Branch once per twin class: swapping twins is an automorphism,
        # so pruned branches cannot change the minimum.
        classes: list[list[int]] = []
        for v in cell:
            for cls in classes:
                u = cls[0]
                if masks[u] == masks[v] or (
                    masks[u] | (1 << u)
                ) == (masks[v] | (1 << v)):
                    cls.append(v)
                    break
            else:
                classes.append([v])
        # Orbit pruning: an automorphism fixing the prefix pointwise maps
        # this node to itself and the child of v to the child of its
        # image, whose subtree then holds the same keys.  Orbits are merged
        # by union-find over the automorphisms found so far.
        orbit = {v: v for v in cell}

        def find(v: int) -> int:
            while orbit[v] != v:
                orbit[v] = orbit[orbit[v]]
                v = orbit[v]
            return v

        used = 0
        explored: list[int] = []
        for cls in classes:
            v = cls[0]
            for perm in autos[used:]:
                if all(perm[p] == p for p in prefix):
                    for u in cell:
                        orbit[find(u)] = find(perm[u])
            used = len(autos)
            root = find(v)
            if any(find(u) == root for u in explored):
                continue
            explored.append(v)
            rest = [w for w in cell if w != v]
            rec(cells[:target] + [[v], rest] + cells[target + 1 :], prefix + [v])

    rec([list(range(k))], [])
    return [comp[i] for i in best[1]]


def _component_order(g: Graph, comp: Sequence[int], m: int) -> list[int]:
    if len(comp) == 1:
        return list(comp)
    if m <= len(comp):
        return _core_component_order(g, comp)
    return _general_component_order(g, comp)


def canonical_labeling(g: Graph) -> list[int]:
    """Old vertices listed in canonical order (position = new label)."""
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
