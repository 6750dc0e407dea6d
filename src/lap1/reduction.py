"""Multiplicity-preserving and multiplicity-shifting graph reductions,
with audited traces, plus the fast multiplicity pipeline.

The rules a trace records, and their effect on the multiplicity of the
Laplacian eigenvalue 1:

* PendantCluster     delete surplus pendants until p = q; shift +(p - q)
* ReductionOperation remove a pendant and its neighbor, hang a fresh P_2
                     on every other former neighbor; preserving for
                     neighbor degree >= 3
* DeletePendantP3    drop a pendant P_3; preserving
* ExactRankFallback  the one terminal rule, per component left: leaf
                     elimination, then the exact rank of the residual
                     core

Three more operations, which the lemmas suite checks and no trace
records:

* edge_split         detach an edge at a quasi-pendant and reconnect it
                     through a fresh P_2; preserving
* contract_tree_P5   shrink an internal P_5 of a tree to an edge;
                     preserving
* contract_line_P4   contract an internal P_4 to a vertex; preserves the
                     adjacency multiplicity of -1

`multiplicity_fast` applies PendantCluster and DeletePendantP3 to one
mutable work state instead of rebuilding the graph: adjacency sets, the
pendants of each quasi-pendant and a heap of pendant P_3s keyed on input
labels.  A step costs time in proportion to the vertices it deletes and
their neighbours, so a run is O((n + m) log n).

A trace records what each step did, not the graphs: a rewrite the sorted
input labels it deleted, a ReductionOperation its pendant and neighbour
in the labels of the graph before it, an ExactRankFallback its
component's input labels and its residual.  `lap1 mult` and `lap1
reduce` write it as the input's edge list, then {rule, vertices,
offset} per step and the total, all O(n + m).  `_Replay`, the one maker
of step graphs, rebuilds a step's `before` and `after` on each read;
nothing here labels a graph.
"""

from __future__ import annotations

from bisect import bisect, insort
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Sequence

from .graph6 import to_graph6, write_edge_list
from .graphs import (
    Graph,
    PathLocation,
    PendantProfile,
    PENDANT_PATH,
    INTERNAL_PATH,
    find_pendant_paths,
    pendant_profile,
)
from .linalg import multiplicity_one_by_peeling

PENDANT_CLUSTER = "PendantCluster"
REDUCTION_OPERATION = "ReductionOperation"
DELETE_PENDANT_P3 = "DeletePendantP3"
EXACT_RANK_FALLBACK = "ExactRankFallback"


@dataclass(frozen=True)
class ReductionStep:
    """One rule application: its rule, the vertices it names and its
    offset to the multiplicity.  A clustering or P_3 step names the
    input labels it deleted, sorted, a ReductionOperation its pendant and
    that pendant's neighbour in the labels of its `before`, and an
    ExactRankFallback the input labels of its component, with the
    residual as its offset.  `before` and `after` are the graph6 of the
    graph before and after the step, which `_Replay` rebuilds on every
    read, never kept."""

    rule: str
    vertices: tuple[int, ...]
    offset: int
    _before: Callable[[], str] = field(compare=False, repr=False)
    _after: Callable[[], str] = field(compare=False, repr=False)

    @property
    def before(self) -> str:
        return self._before()

    @property
    def after(self) -> str:
        return self._after()

    def to_json(self) -> dict:
        return {"rule": self.rule, "vertices": list(self.vertices),
                "offset": self.offset}


@dataclass(frozen=True)
class ReductionTrace:
    """The input of one run, its steps and their total.  The JSON holds
    the input once, as an edge list, so it costs O(n + m)."""

    graph: Graph
    steps: tuple[ReductionStep, ...]
    total: int

    def to_json(self) -> dict:
        return {
            "input_edge_list": write_edge_list(self.graph),
            "steps": [s.to_json() for s in self.steps],
            "total": self.total,
        }


class _Replay:
    """The graphs of one run, from its whole graph g (the input, then the
    vertices steps created, in creation order, and every edge ever held):
    graph i is g less the first i steps' deletions and the vertices made
    after step i; a terminal step's is g's subgraph on its component."""

    __slots__ = ("g", "deleted", "ends")

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.deleted: list[tuple[int, ...]] = []
        self.ends = [g.n]  # ends[i]: vertices created by the end of step i

    def record(self, deleted: tuple[int, ...], end: int) -> tuple[partial, ...]:
        self.deleted.append(deleted)
        self.ends.append(end)
        i = len(self.deleted)
        return partial(self.form, i - 1), partial(self.form, i)

    def graph(self, i: int) -> Graph:
        drop = set(range(self.ends[i], self.g.n)).union(*self.deleted[:i])
        return self.g.delete_vertices(drop)[0]

    def form(self, i: int) -> str:
        return to_graph6(self.graph(i))

    def component_form(self, vs: tuple[int, ...]) -> str:
        drop = set(range(self.g.n)).difference(vs)
        return to_graph6(self.g.delete_vertices(drop)[0])


# -- individual operations ------------------------------------------------

def _surplus_pendants(g: Graph, prof: PendantProfile | None = None) -> list[int]:
    """The pendants of each quasi-pendant but its lowest-indexed one,
    sorted: p - q vertices; prof, when given, is g's pendant profile."""
    prof = prof or pendant_profile(g)
    by_owner: dict[int, list[int]] = {}
    for pend in prof.pendants:
        by_owner.setdefault(prof.pendant_owner[pend], []).append(pend)
    return sorted(v for pends in by_owner.values() for v in pends[1:])


def reduced_graph(g: Graph,
                  prof: PendantProfile | None = None) -> tuple[Graph, int]:
    """Delete pendants until every quasi-pendant keeps exactly one (the
    lowest-indexed).  Returns the reduced graph and the offset p - q;
    prof, when given, is g's pendant profile."""
    drop = _surplus_pendants(g, prof)
    return g.delete_vertices(drop)[0], len(drop)


def reduction_operation(g: Graph, u: int, v: int) -> Graph:
    """Remove pendant u and its neighbor v, then join each remaining
    former neighbor of v to an endpoint of a fresh 2-vertex path.

    Survivors keep their relative order starting at 0; the fresh path for
    the i-th former neighbor (ascending) occupies the next two indices,
    inner endpoint first.  Preserves the multiplicity of 1 when the
    degree of v is at least 3; for degree 2 the result is isomorphic to
    the input.
    """
    if not (0 <= u < g.n) or g.degree(u) != 1:
        raise ValueError(f"vertex {u} is not a pendant vertex")
    if not g.has_edge(u, v):
        raise ValueError(f"vertices {u} and {v} are not adjacent")
    others = sorted(w for w in g.neighbors(v) if w != u)
    h, remap = g.delete_vertices([u, v])
    edges = list(h.edges)
    nxt = h.n
    for w in others:
        inner = nxt
        outer = nxt + 1
        edges.append((remap[w], inner) if remap[w] < inner else (inner, remap[w]))
        edges.append((inner, outer))
        nxt += 2
    return Graph._unchecked(nxt, edges)


def final_reduction_graph(g: Graph) -> tuple[Graph, tuple[ReductionStep, ...]]:
    """Apply the reduction operation until no quasi-pendant vertex has
    degree greater than 2, one ReductionOperation step each time.  It
    deletes a pendant u and its neighbour v and hangs a fresh P_2 on each
    other neighbour of v, so no survivor's degree or pendants change and
    no fresh vertex has degree over 2: the steps are g's quasi-pendants
    of degree > 2, in order, each with its least pendant.  Fresh vertices
    follow g's, in creation order, so u and v in the labels of a step's
    `before` are input labels less the deleted input labels below."""
    adj = list(map(set, map(g.neighbors, range(g.n))))
    edges = list(g.edges)  # the run's whole graph
    dead: list[int] = []  # the deleted input labels, sorted
    replay = _Replay(g)
    steps: list[ReductionStep] = []
    for v in pendant_profile(g).quasi_pendants:
        if g.degree(v) > 2:
            u = min(w for w in g.neighbors(v) if g.degree(w) == 1)
            vertices = (u - bisect(dead, u), v - bisect(dead, v))
            insort(dead, u)
            insort(dead, v)
            for w in sorted(adj[v] - {u}):
                inner = len(adj)
                adj[w] ^= {v, inner}  # v out, inner in
                adj += ({w, inner + 1}, {inner})
                edges += ((w, inner), (inner, inner + 1))
            steps.append(ReductionStep(REDUCTION_OPERATION, vertices, 0,
                                       *replay.record((u, v), len(adj))))
    replay.g = Graph._unchecked(len(adj), edges)  # now that it is whole
    return replay.graph(len(steps)), tuple(steps)


def reduced_graph_steps(g: Graph) -> tuple[Graph, tuple[ReductionStep, ...]]:
    """`reduced_graph` with its one PendantCluster step, none when g is
    reduced already."""
    replay, drop = _Replay(g), tuple(_surplus_pendants(g))
    steps = (ReductionStep(PENDANT_CLUSTER, drop, len(drop),
                           *replay.record(drop, g.n)),) if drop else ()
    return replay.graph(len(steps)), steps


def _check_pendant_p3(g: Graph, path: PathLocation) -> None:
    if path.kind != PENDANT_PATH or len(path.vertices) != 3:
        raise ValueError("path is not a pendant P_3")
    if path not in find_pendant_paths(g, 3):
        raise ValueError(f"{path.vertices} is not a pendant P_3 of this graph")


def delete_pendant_P3(g: Graph, path: PathLocation) -> Graph:
    """Delete a pendant P_3 from any graph; the multiplicity of 1 is
    unchanged.

    By leaf elimination on L - I (Jacobs & Trevisan, LAA 434, 2011): the
    path is (a, b, tip) and a has one other neighbour x.  The tip's
    diagonal is 0, so the tip and b pivot as a 2x2 block of rank 2, which
    leaves a a leaf of diagonal 1.  That pivots on itself and lowers x's
    diagonal by 1, as x loses a neighbour, so what is left is exactly
    L - I of g less the path.  Three vertices go with rank 3, and no step
    needs g to be a tree.  Deleting the path cannot disconnect g."""
    _check_pendant_p3(g, path)
    result, _ = g.delete_vertices(path.vertices)
    return result


def edge_split(g: Graph, u: int, v: int, w: int) -> Graph:
    """Detach the edge v-w and reconnect w through a fresh path P_2.

    Requires pendant u adjacent to v, degree of v at least 3, and w
    another neighbor of v.  The result has two extra vertices (y = n
    joined to w, x = n + 1 joined to y) and the same multiplicity of 1.
    """
    if not (0 <= u < g.n) or g.degree(u) != 1:
        raise ValueError(f"vertex {u} is not a pendant vertex")
    if not g.has_edge(u, v):
        raise ValueError(f"vertices {u} and {v} are not adjacent")
    if g.degree(v) < 3:
        raise ValueError(f"vertex {v} must have degree at least 3")
    if w == u or not g.has_edge(v, w):
        raise ValueError(f"vertex {w} is not another neighbor of {v}")
    y, x = g.n, g.n + 1
    vw = (v, w) if v < w else (w, v)
    return Graph._unchecked(g.n + 2, (g.edges - {vw}) | {(w, y), (y, x)})


def _check_internal(g: Graph, path: PathLocation, k: int) -> None:
    vs = path.vertices
    if path.kind != INTERNAL_PATH or len(vs) != k:
        raise ValueError(f"path is not an internal P_{k}")
    if len(set(vs)) != k:
        raise ValueError("path vertices repeat")
    for a, b in zip(vs, vs[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"vertices {a} and {b} are not adjacent")
    for mid in vs[1:-1]:
        if g.degree(mid) != 2:
            raise ValueError(f"interior vertex {mid} has degree != 2")
    if set(g.neighbors(vs[0])) & set(g.neighbors(vs[-1])):
        raise ValueError("path endpoints share a neighbor")


def contract_line_P4(g: Graph, path: PathLocation) -> Graph:
    """Contract an internal P_4 to a single vertex; the adjacency
    multiplicity of -1 is unchanged.  The new vertex takes the highest
    index of the result."""
    _check_internal(g, path, 4)
    u1, _, _, u4 = path.vertices
    if g.has_edge(u1, u4):
        raise ValueError("endpoints are adjacent; contraction would self-loop")
    outside = (set(g.neighbors(u1)) | set(g.neighbors(u4))) - set(path.vertices)
    h, remap = g.delete_vertices(path.vertices)
    merged = h.n
    edges = list(h.edges) + [(remap[x], merged) for x in sorted(outside)]
    return Graph(h.n + 1, edges)


def contract_tree_P5(t: Graph, path: PathLocation) -> Graph:
    """Delete the three interior vertices of an internal P_5 of a tree and
    join its endpoints; the multiplicity of 1 is unchanged."""
    if not t.is_tree():
        raise ValueError("P_5 contraction is stated for trees only")
    _check_internal(t, path, 5)
    u1, u2, u3, u4, u5 = path.vertices
    h, remap = t.delete_vertices([u2, u3, u4])
    return h.add_edge(remap[u1], remap[u5])


def cycle_multiplicity_one(n: int) -> int:
    """Closed form for cycles: the Laplacian eigenvalues of C_n are
    2 - 2cos(2 pi j / n), which hit 1 exactly at j = n/6 and j = 5n/6."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return 2 if n % 6 == 0 else 0


# -- fast pipeline ---------------------------------------------------------

def multiplicity_fast(g: Graph) -> tuple[int, ReductionTrace]:
    """Multiplicity of 1 via the reduction pipeline, with a replayable
    trace.  Rule order is fixed: pendant clustering, then pendant-P_3
    deletion, then ExactRankFallback on each component left: leaf
    elimination on L - I, then the rank of any core.

    Degrees only fall, so a heap entry (attachment, middle, tip) that
    stops being a pendant P_3 never becomes one again, and stale entries
    are dropped when they reach the top.  `delete_vertices` keeps
    relative order, so the least live entry is the lexicographically
    smallest pendant P_3 of the graph that rebuilding after every step
    would hold, and the steps are the same.  Neither rule disconnects a
    component, so the components are labelled once, at the end."""
    n = g.n
    adj = list(map(set, map(g.neighbors, range(n))))
    alive = [True] * n
    pends: dict[int, set[int]] = {}  # quasi-pendant -> its pendants
    for v in range(n):
        if len(adj[v]) == 1:
            pends.setdefault(next(iter(adj[v])), set()).add(v)
    crowded = {w for w, ps in pends.items() if len(ps) > 1}
    heap: list[tuple[int, int, int]] = []

    def push(tip: int) -> None:
        (b,) = adj[tip]
        if len(adj[b]) == 2:
            for a in adj[b]:
                if a != tip and len(adj[a]) == 2:
                    heappush(heap, (a, b, tip))

    def delete(drop: Sequence[int]) -> None:
        for x in drop:
            alive[x] = False
        touched = set()
        for x in drop:
            nbrs = adj[x]
            if len(nbrs) == 1:  # its owner may go in the same step
                pends.get(next(iter(nbrs)), set()).discard(x)
            pends.pop(x, None)
            for y in nbrs:
                if alive[y]:
                    adj[y].discard(x)
                    touched.add(y)
            adj[x] = set()
        for y in touched:
            d = len(adj[y])
            if d == 1:
                (z,) = adj[y]
                ps = pends.setdefault(z, set())
                ps.add(y)
                if len(ps) > 1:
                    crowded.add(z)
                push(y)
            elif d == 2:
                # y may now be the middle or the attachment of a P_3
                for z in adj[y]:
                    if len(adj[z]) == 1:
                        push(z)
                    elif len(adj[z]) == 2:
                        for t in adj[z]:
                            if len(adj[t]) == 1:
                                push(t)

    for ps in pends.values():
        for tip in ps:
            push(tip)

    replay = _Replay(g)
    steps: list[ReductionStep] = []
    total = 0
    while True:
        if crowded:
            drop = [v for w in crowded for v in sorted(pends[w])[1:]]
            crowded.clear()
            rule, offset = PENDANT_CLUSTER, len(drop)
        else:
            while heap:
                a, b, tip = heap[0]
                if (len(adj[tip]) == 1 and b in adj[tip] and len(adj[b]) == 2
                        and a in adj[b] and len(adj[a]) == 2):
                    break
                heappop(heap)
            if not heap:
                break
            drop, rule, offset = heappop(heap), DELETE_PENDANT_P3, 0
        delete(drop)
        vertices = tuple(sorted(drop))
        steps.append(ReductionStep(rule, vertices, offset,
                                   *replay.record(vertices, n)))
        total += offset

    # the components left, in the order of their lowest vertex
    comp = [-1] * n
    parts: list[list[int]] = []
    local = [0] * n
    for v in range(n):
        if not alive[v]:
            continue
        if comp[v] < 0:
            comp[v], stack = len(parts), [v]
            while stack:
                for w in adj[stack.pop()]:
                    if comp[w] < 0:
                        comp[w] = len(parts)
                        stack.append(w)
            parts.append([])
        vs = parts[comp[v]]
        local[v] = len(vs)
        vs.append(v)
    for vs in parts:
        if not steps and len(parts) == 1:
            sub = g
        else:
            sub = Graph._unchecked(len(vs), [
                (local[v], local[w]) for v in vs for w in adj[v] if v < w])
        residual = multiplicity_one_by_peeling(sub)
        vertices = tuple(vs)
        form = partial(replay.component_form, vertices)
        steps.append(ReductionStep(EXACT_RANK_FALLBACK, vertices, residual,
                                   form, form))
        total += residual
    return total, ReductionTrace(g, tuple(steps), total)
