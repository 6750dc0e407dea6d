"""Graph families built in code for the tests: the extremal shapes, which
reach any order, circulants and the Petersen graph, and seeded random
trees and relabellings."""

from __future__ import annotations

import heapq
import random
from itertools import combinations

from lap1.graphs import Graph


def caterpillar(k: int) -> Graph:
    """Spine P_{3k+5} with a pendant on every third spine vertex from the
    third: order 4k + 6, multiplicity k."""
    spine = 3 * k + 5
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(3 * j + 2, spine + j) for j in range(k + 1)]
    return Graph(4 * k + 6, edges)


def caterpillar_gadget(k: int) -> tuple[int, ...]:
    """Four vertices of caterpillar(k), k >= 1, whose deletion leaves
    caterpillar(k - 1) and drops the multiplicity by exactly 1."""
    return (0, 1, 2, 3 * k + 5)


def sun(k: int) -> Graph:
    """C_{3k} with a pendant on every third cycle vertex: order 4k,
    multiplicity k."""
    edges = [(i, (i + 1) % (3 * k)) for i in range(3 * k)]
    edges += [(3 * j, 3 * k + j) for j in range(k)]
    return Graph(4 * k, edges)


def circulant(n: int, k: int) -> Graph:
    """C_n(1, k): vertex i joined to i +- 1 and i +- k (mod n)."""
    return Graph(n, [(i, (i + s) % n) for i in range(n) for s in (1, k)])


def petersen() -> Graph:
    """Kneser graph K(5, 2): 2-subsets of {0..4}, joined when disjoint."""
    pairs = list(combinations(range(5), 2))
    return Graph(10, [(a, b) for a, b in combinations(range(10), 2)
                      if not set(pairs[a]) & set(pairs[b])])


def prufer_tree(n: int, rng: random.Random) -> Graph:
    """A uniformly random labelled tree on n vertices, decoded from a
    random Prüfer sequence."""
    if n <= 2:
        return Graph(n, [(0, 1)] if n == 2 else [])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def induced(g: Graph, vertices) -> Graph:
    """The subgraph on vertices, survivors in their order in g."""
    keep = set(vertices)
    return g.delete_vertices(v for v in range(g.n) if v not in keep)[0]


def is_unicyclic(g: Graph) -> bool:
    return g.is_connected() and g.edge_count == g.n


def degree_sequence(g: Graph) -> list[int]:
    return sorted(map(g.degree, range(g.n)))
