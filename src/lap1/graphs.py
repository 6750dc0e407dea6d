"""Immutable simple undirected graphs and the structural queries used by
the multiplicity calculus: pendant census, pendant and internal paths,
line graphs, class membership."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence

PENDANT_PATH = "pendant-path"
INTERNAL_PATH = "internal-path"


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction: every derived graph is a new object.
    Two graphs compare equal iff they have the same vertex count and the
    same edge set (edge order and input orientation never matter).

    A graph holds only n and its frozenset of edges until something reads
    more: the sorted neighbour tuples are built on the first `neighbors`,
    `degree` or `components` call.  Most graphs a check derives are read
    as an edge set alone.  A pickle carries n and the edges only.
    """

    __slots__ = ("n", "edges", "_nbrs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for idx, (u, v) in enumerate(edges):
            if u == v:
                raise ValueError(f"self-loop at pair {idx}: ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range at pair {idx}: ({u}, {v})")
            norm.add((u, v) if u < v else (v, u))
        self._finish(n, frozenset(norm))

    def _finish(self, n: int, norm: frozenset[tuple[int, int]]) -> None:
        self.n = n
        self.edges = norm
        self._nbrs = None

    @classmethod
    def _unchecked(cls, n: int, norm_edges: Iterable[tuple[int, int]]) -> "Graph":
        # Internal fast path: pairs must already satisfy u < v < n, no dupes.
        g = object.__new__(cls)
        g._finish(n, frozenset(norm_edges))
        return g

    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs = self._nbrs
        if nbrs is None:
            lists: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                lists[u].append(v)
                lists[v].append(u)
            nbrs = self._nbrs = tuple(tuple(sorted(a)) for a in lists)
        return nbrs

    # -- queries ------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        return len((self._nbrs or self._adjacency())[u])

    def neighbors(self, u: int) -> tuple[int, ...]:
        return (self._nbrs or self._adjacency())[u]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    # -- derived graphs -----------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"invalid edge ({u}, {v})")
        e = (u, v) if u < v else (v, u)
        if e in self.edges:
            raise ValueError(f"edge ({u}, {v}) already present")
        return Graph._unchecked(self.n, self.edges | {e})

    def remove_edge(self, u: int, v: int) -> "Graph":
        e = (u, v) if u < v else (v, u)
        if e not in self.edges:
            raise ValueError(f"edge ({u}, {v}) not present")
        return Graph._unchecked(self.n, self.edges - {e})

    def delete_vertices(self, drop: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Delete vertices and re-index survivors to 0..n'-1 preserving
        relative order.  Returns the new graph and the old->new map."""
        dropset = set(drop)
        for v in dropset:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
        keep = [v for v in range(self.n) if v not in dropset]
        remap = {v: i for i, v in enumerate(keep)}
        edges = [
            (remap[u], remap[v])
            for u, v in self.edges
            if u in remap and v in remap
        ]
        return Graph._unchecked(len(keep), edges), remap

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Relabel with perm[old] = new; perm must be a permutation of 0..n-1."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        edges = []
        for u, v in self.edges:
            a, b = perm[u], perm[v]
            edges.append((a, b) if a < b else (b, a))
        return Graph._unchecked(self.n, edges)

    # -- connectivity --------------------------------------------------

    def components(self) -> list[list[int]]:
        nbrs = self._adjacency()
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in nbrs[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_tree(self) -> bool:
        return self.n >= 1 and self.edge_count == self.n - 1 and self.is_connected()

    # -- dunder ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):
        return Graph._unchecked, (self.n, self.edges)

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.sorted_edges()})"


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from (possibly repeated) vertex pairs.

    Rejects self-loops and out-of-range endpoints, reporting the index of
    the offending pair; duplicate pairs are merged.
    """
    return Graph(n, pairs)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph._unchecked(a.n + b.n, edges)


# -- small constructors used throughout the test suites ----------------

def path_graph(n: int) -> Graph:
    return Graph._unchecked(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph._unchecked(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph._unchecked(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph._unchecked(n, list(combinations(range(n), 2)))


def spider(leg_lengths: Sequence[int]) -> Graph:
    """Tree with a center (vertex 0) and one path leg per entry."""
    edges = []
    nxt = 1
    for length in leg_lengths:
        if length < 1:
            raise ValueError("leg lengths must be positive")
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt) if prev < nxt else (nxt, prev))
            prev = nxt
            nxt += 1
    return Graph._unchecked(nxt, edges)


def star_like_tree(s: int) -> Graph:
    """Star-like tree on 2s+1 vertices: a center whose removal leaves s
    copies of P_2.  Requires s >= 2."""
    if s < 2:
        raise ValueError("star-like trees need at least two legs")
    return spider([2] * s)


def double_star_like_tree(s: int, t: int) -> Graph:
    """Two star-like trees joined by an edge between their centers."""
    g = disjoint_union(star_like_tree(s), star_like_tree(t))
    return g.add_edge(0, 2 * s + 1)


# -- pendant census ------------------------------------------------------

@dataclass(frozen=True, eq=True)
class PendantProfile:
    """Census of pendant (degree 1) and quasi-pendant vertices."""

    pendants: tuple[int, ...]
    quasi_pendants: tuple[int, ...]
    pendant_owner: Mapping[int, int] = field(compare=False)

    @property
    def p(self) -> int:
        return len(self.pendants)

    @property
    def q(self) -> int:
        return len(self.quasi_pendants)


def pendant_profile(g: Graph) -> PendantProfile:
    pendants = [v for v in range(g.n) if g.degree(v) == 1]
    owner = {v: g.neighbors(v)[0] for v in pendants}
    quasi = sorted(set(owner.values()))
    return PendantProfile(tuple(pendants), tuple(quasi), owner)


def is_reduced(g: Graph) -> bool:
    prof = pendant_profile(g)
    return prof.p == prof.q


def in_class_G(g: Graph) -> bool:
    """Member of the class of reduced graphs without pendant path P_3."""
    return is_reduced(g) and not find_pendant_paths(g, 3)


# -- line graph ----------------------------------------------------------

def line_graph(g: Graph) -> Graph:
    """Line graph; vertex i corresponds to the i-th edge of g in
    lexicographic order on (min endpoint, max endpoint)."""
    es = g.sorted_edges()
    index = {e: i for i, e in enumerate(es)}
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for e, i in index.items():
        incident[e[0]].append(i)
        incident[e[1]].append(i)
    ledges = set()
    for inc in incident:
        for a, b in combinations(sorted(inc), 2):
            ledges.add((a, b))
    return Graph._unchecked(len(es), ledges)


# -- paths ---------------------------------------------------------------

@dataclass(frozen=True)
class PathLocation:
    """A located path; vertices are listed in path order.

    Pendant paths are listed attachment end first, so the last vertex is
    the degree-1 tip.  Internal paths are oriented so the first vertex is
    the smaller endpoint.
    """

    vertices: tuple[int, ...]
    kind: str


def find_pendant_paths(g: Graph, k: int) -> list[PathLocation]:
    """All pendant paths P_k: a path hanging off the rest of the graph,
    attached by a single edge at its first vertex.

    The tip has degree 1 and the other k-1 path vertices have degree
    exactly 2 (each such vertex only continues the path, except the first
    which also carries the attachment edge)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    out = []
    for tip in range(g.n):
        if g.degree(tip) != 1:
            continue
        chain = [tip]
        while len(chain) < k:
            cur = chain[-1]
            prev = chain[-2] if len(chain) > 1 else None
            nxt = next((w for w in g.neighbors(cur) if w != prev), None)
            if nxt is None or g.degree(nxt) != 2:
                break
            chain.append(nxt)
        if len(chain) == k:
            out.append(PathLocation(tuple(reversed(chain)), PENDANT_PATH))
    out.sort(key=lambda p: p.vertices)
    return out


def find_internal_paths(g: Graph, k: int) -> list[PathLocation]:
    """All internal paths P_k: interior vertices have degree exactly 2 and
    the two endpoints have no common neighbor.  Endpoints may be leaves."""
    if k < 3:
        raise ValueError("internal paths need k >= 3")
    found = set()
    ns = [set(g.neighbors(v)) for v in range(g.n)]

    def extend(path: list[int]) -> None:
        if len(path) == k:
            a, b = path[0], path[-1]
            if a < b and not (ns[a] & ns[b]):
                found.add(tuple(path))
            return
        cur = path[-1]
        for w in g.neighbors(cur):
            if w in path:
                continue
            # all but the final vertex to come are interior: degree 2
            if len(path) < k - 1 and g.degree(w) != 2:
                continue
            path.append(w)
            extend(path)
            path.pop()

    for s in range(g.n):
        extend([s])
    return [PathLocation(p, INTERNAL_PATH) for p in sorted(found)]
