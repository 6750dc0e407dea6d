"""Independent oracles.

Everything here is deliberately written from scratch, without touching
the package's own algorithms, so that agreement between the two is
meaningful: Fraction Gaussian elimination for rank, determinant
interpolation for characteristic polynomials, dense A, L and L_N built
from an edge list, a string-based AHU code for tree isomorphism,
Prufer-sequence tree generation, the class of the two bounds read off
adjacency lists, and the classical counting formulas
(Otter for free trees, the dihedral cycle index over rooted trees for
unicyclic graphs).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import permutations, product


# -- exact linear algebra oracles -----------------------------------------

def fraction_rank(rows: list[list[int]]) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    a = [list(row) for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def charpoly_by_interpolation(rows: list[list[int]]) -> list[int]:
    """det(xI - M) via n+1 exact determinant evaluations and Lagrange
    interpolation; ascending integer coefficients."""
    n = len(rows)
    if n == 0:
        return [1]
    xs = list(range(n + 1))
    ys = []
    for k in xs:
        shifted = [
            [Fraction(k if i == j else 0) - Fraction(rows[i][j]) for j in range(n)]
            for i in range(n)
        ]
        ys.append(fraction_det(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, b in enumerate(basis):
                new[d] -= b * xj
                new[d + 1] += b
            basis = new
            denom *= xi - xj
        scale = ys[i] / denom
        for d, b in enumerate(basis):
            coeffs[d] += scale * b
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


# -- graph matrices ----------------------------------------------------------

def adjacency_matrix(n: int, edges) -> list[list[int]]:
    """Dense A of the simple graph on 0..n-1 with the given edges."""
    a = [[0] * n for _ in range(n)]
    for u, v in edges:
        a[u][v] = a[v][u] = 1
    return a


def laplacian_matrix(n: int, edges) -> list[list[int]]:
    """Dense L = D - A."""
    a = adjacency_matrix(n, edges)
    return [[sum(a[i]) if i == j else -a[i][j] for j in range(n)]
            for i in range(n)]


def internal_laplacian_matrix(n: int, edges) -> list[list[int]]:
    """Dense L_N: L restricted to the vertices, in increasing order, that
    are neither pendant (degree 1) nor adjacent to a pendant."""
    lap = laplacian_matrix(n, edges)
    pendant = {v for v in range(n) if lap[v][v] == 1}
    near = {w for v in pendant for w in range(n) if lap[v][w] == -1}
    keep = [v for v in range(n) if v not in pendant and v not in near]
    return [[lap[i][j] for j in keep] for i in keep]


# -- tree isomorphism oracle -------------------------------------------------

def ahu_code(n: int, edges: list[tuple[int, int]]) -> str:
    """Canonical string for a forest, independent of the package."""
    adj = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def rooted(v: int, parent: int | None) -> str:
        return "(" + "".join(sorted(rooted(w, v) for w in adj[v] if w != parent)) + ")"

    seen = set()
    comp_codes = []
    for s in range(n):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        for v in comp:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        deg = {v: len(adj[v]) for v in comp}
        if len(comp) <= 2:
            centers = sorted(comp)
        else:
            leaves = [v for v in comp if deg[v] == 1]
            left = len(comp)
            while left > 2:
                nxt = []
                for v in leaves:
                    deg[v] = 0
                    for w in adj[v]:
                        if deg[w] > 0:
                            deg[w] -= 1
                            if deg[w] == 1:
                                nxt.append(w)
                left -= len(leaves)
                leaves = nxt
            centers = leaves
        if len(centers) == 1:
            comp_codes.append(rooted(centers[0], None))
        else:
            c1, c2 = centers
            comp_codes.append("".join(sorted([rooted(c1, c2), rooted(c2, c1)])))
    return "|".join(sorted(comp_codes))


def prufer_to_edges(seq: tuple[int, ...]) -> list[tuple[int, int]]:
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        for u in range(n):
            if degree[u] == 1:
                edges.append((u, v))
                degree[u] -= 1
                degree[v] -= 1
                break
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return edges


def prufer_tree_classes(n: int) -> set[str]:
    """AHU codes of all labeled trees on n vertices (n >= 3)."""
    out = set()
    for seq in product(range(n), repeat=n - 2):
        out.add(ahu_code(n, prufer_to_edges(seq)))
    return out


def brute_canonical_edges(n: int, edges: list[tuple[int, int]]):
    """Minimum edge tuple over all vertex permutations; exact but O(n!)."""
    best = None
    for perm in permutations(range(n)):
        cand = tuple(
            sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
            )
        )
        if best is None or cand < best:
            best = cand
    return (n, best)


# -- the class of the two bounds ----------------------------------------------

def leaf_neighbours_have_one_leaf(adj: list[list[int]]) -> bool:
    """Reduced: every neighbour of a leaf has exactly one leaf."""
    return all(
        sum(len(adj[w]) == 1 for w in adj[nb[0]]) == 1
        for nb in adj
        if len(nb) == 1
    )


def no_leaf_on_two_degree_two_vertices(adj: list[list[int]]) -> bool:
    """No pendant P_3: no leaf has a degree-2 neighbour whose other
    neighbour also has degree 2."""
    for leaf, nb in enumerate(adj):
        if len(nb) != 1 or len(adj[nb[0]]) != 2:
            continue
        (other,) = (w for w in adj[nb[0]] if w != leaf)
        if len(adj[other]) == 2:
            return False
    return True


def in_bound_class(adj: list[list[int]]) -> bool:
    """The class of Theorems 1.2 and 1.3: reduced, without pendant P_3."""
    return leaf_neighbours_have_one_leaf(adj) and (
        no_leaf_on_two_degree_two_vertices(adj)
    )


# -- counting formulas ---------------------------------------------------------

def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def rooted_tree_counts(nmax: int) -> list[int]:
    """A000081 via the standard convolution recurrence."""
    a = [0] * (nmax + 1)
    if nmax >= 1:
        a[1] = 1
    for n in range(1, nmax):
        s = 0
        for k in range(1, n + 1):
            s += sum(d * a[d] for d in _divisors(k)) * a[n - k + 1]
        assert s % n == 0
        a[n + 1] = s // n
    return a


def count_free_trees(n: int) -> int:
    """A000055 via Otter's formula t = a - (a^2 - a(x^2))/2."""
    if n == 0:
        return 1
    a = rooted_tree_counts(n)
    pair = sum(a[i] * a[n - i] for i in range(1, n))
    if n % 2 == 0:
        pair -= a[n // 2]
    assert pair % 2 == 0
    return a[n] - pair // 2


def _totient(d: int) -> int:
    res, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            res -= res // p
        p += 1
    if m > 1:
        res -= res // m
    return res


def _pmul(p: list[int], q: list[int], deg: int) -> list[int]:
    out = [0] * (deg + 1)
    for i, pi in enumerate(p):
        if pi == 0 or i > deg:
            continue
        for j, qj in enumerate(q):
            if i + j > deg:
                break
            if qj:
                out[i + j] += pi * qj
    return out


def _ppow(p: list[int], e: int, deg: int) -> list[int]:
    out = [1] + [0] * deg
    for _ in range(e):
        out = _pmul(out, p, deg)
    return out


def count_unicyclic(n: int) -> int:
    """A001429: necklaces of rooted trees, one dihedral cycle index per
    cycle length."""
    a = rooted_tree_counts(n)

    def t_sub(d: int) -> list[int]:
        out = [0] * (n + 1)
        for i in range(1, n // d + 1):
            out[i * d] = a[i]
        return out

    total = Fraction(0)
    for k in range(3, n + 1):
        zc = Fraction(0)
        for d in _divisors(k):
            zc += _totient(d) * _ppow(t_sub(d), k // d, n)[n]
        zc /= k
        if k % 2 == 1:
            refl = Fraction(_pmul(t_sub(1), _ppow(t_sub(2), (k - 1) // 2, n), n)[n])
        else:
            refl = Fraction(
                _ppow(t_sub(2), k // 2, n)[n]
                + _pmul(_ppow(t_sub(1), 2, n), _ppow(t_sub(2), (k - 2) // 2, n), n)[n],
                2,
            )
        total += Fraction(zc + refl, 2)
    assert total.denominator == 1
    return int(total)


# -- reduction traces ----------------------------------------------------------

def _component(adj: list[set[int]], s: int) -> set[int]:
    seen, stack = {s}, [s]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _surplus_pendants(adj: list[set[int]], alive: set[int]) -> list[int]:
    """Each owner's pendants but its lowest, sorted."""
    by_owner = defaultdict(list)
    for v in sorted(alive):
        if len(adj[v]) == 1:
            by_owner[next(iter(adj[v]))].append(v)
    return sorted(v for pends in by_owner.values() for v in pends[1:])


def _is_pendant_p3(adj: list[set[int]], vs: set[int]) -> bool:
    """vs is {tip, middle, attachment}: a leaf, its degree-2 neighbour and
    that one's other neighbour, of degree 2 too."""
    for tip in vs:
        if len(adj[tip]) != 1:
            continue
        (mid,) = adj[tip]
        if mid in vs and len(adj[mid]) == 2:
            (att,) = adj[mid] - {tip}
            if vs == {tip, mid, att} and len(adj[att]) == 2:
                return True
    return False


def _nullity_of_l_minus_i(adj: list[set[int]], comp: set[int]) -> int:
    order = sorted(comp)
    rows = [[(len(adj[u]) - 1 if u == v else -(v in adj[u])) for v in order]
            for u in order]
    return len(order) - fraction_rank(rows)


def trace_faults(trace: dict) -> list[str]:
    """Replays a trace's JSON (the input as an edge list, then
    {rule, vertices, offset} per step, then the total) on plain adjacency
    sets, and returns what is wrong with it: a PendantCluster step that
    deletes other than each owner's pendants but the lowest, a
    DeletePendantP3 step that deletes no pendant P_3 or runs while
    pendants are in surplus, terminal steps that do not follow the
    components of what is left (in the order of their lowest vertex) or
    start while a rewrite still applies, a terminal rule other than
    ExactRankFallback, an offset that is not the nullity of L - I, and a
    wrong total."""
    head, *lines = trace["input_edge_list"].splitlines()
    n, m = map(int, head.split())
    adj: list[set[int]] = [set() for _ in range(n)]
    for line in lines:
        u, v = map(int, line.split())
        adj[u].add(v)
        adj[v].add(u)
    if len(lines) != m:
        return [f"edge list: {len(lines)} edges, header says {m}"]
    alive = set(range(n))
    faults = []
    steps = trace["steps"]
    rewrites = [s for s in steps if s["rule"] in ("PendantCluster", "DeletePendantP3")]
    if steps[:len(rewrites)] != rewrites:
        return ["a rewrite step follows a terminal step"]
    for i, step in enumerate(rewrites):
        vs, surplus = step["vertices"], _surplus_pendants(adj, alive)
        if step["rule"] == "PendantCluster":
            if not surplus or vs != surplus or step["offset"] != len(vs):
                faults.append(f"step {i}: {vs} are not the surplus pendants {surplus}")
        elif surplus or step["offset"] or not _is_pendant_p3(adj, set(vs)):
            faults.append(f"step {i}: {vs} is no pendant P_3")
        if len(set(vs)) != len(vs) or not alive.issuperset(vs):
            return faults + [f"step {i}: {vs} are not distinct live vertices"]
        alive.difference_update(vs)
        for v in vs:
            for w in adj[v]:
                adj[w].discard(v)
            adj[v] = set()
    if _surplus_pendants(adj, alive) or any(
            _is_pendant_p3(adj, {tip, mid, att})
            for tip in alive if len(adj[tip]) == 1
            for mid in adj[tip] for att in adj[mid] - {tip}):
        faults.append("the terminal rules start while a rewrite applies")
    comps = []
    for v in sorted(alive):
        if not any(v in c for c in comps):
            comps.append(_component(adj, v))
    terminals = steps[len(rewrites):]
    if [sorted(c) for c in comps] != [s["vertices"] for s in terminals]:
        return faults + ["the terminal steps are not the components left"]
    for step, comp in zip(terminals, comps):
        nullity = _nullity_of_l_minus_i(adj, comp)
        if (step["rule"], step["offset"]) != ("ExactRankFallback", nullity):
            faults.append(f"component {step['vertices']}: {step['rule']} with"
                          f" offset {step['offset']}, want ExactRankFallback"
                          f" with {nullity}")
    if trace["total"] != sum(s["offset"] for s in steps):
        faults.append(f"total {trace['total']} is not the sum of the offsets")
    return faults


def replay_reduce(trace: dict) -> tuple[list[str], int, set[tuple[int, int]]]:
    """Replays the trace of `lap1 reduce` (the input as an edge list, then
    PendantCluster and ReductionOperation steps, each naming vertices in
    the labels of the graph before it) on plain adjacency sets, renumbering
    the survivors in order after each step and the fresh vertices after
    them.  Returns what is wrong with it and the graph it ends with, as
    its order and edge set.  A fault is a PendantCluster step that
    deletes other than each owner's pendants but the lowest, or whose
    offset is not their number; a ReductionOperation that names no
    pendant and its neighbour of degree >= 3, or whose offset is not 0;
    any other rule; and a wrong total."""
    head, *lines = trace["input_edge_list"].splitlines()
    adj: list[set[int]] = [set() for _ in range(int(head.split()[0]))]
    for line in lines:
        u, v = map(int, line.split())
        adj[u].add(v)
        adj[v].add(u)
    faults = []
    for i, step in enumerate(trace["steps"]):
        vs, rule, offset = step["vertices"], step["rule"], step["offset"]
        if len(set(vs)) != len(vs) or not all(0 <= x < len(adj) for x in vs):
            return faults + [f"step {i}: {vs} are not distinct vertices"], 0, set()
        hang = []
        if rule == "PendantCluster":
            surplus = _surplus_pendants(adj, set(range(len(adj))))
            if not vs or vs != surplus or offset != len(vs):
                faults.append(f"step {i}: {vs} are not the surplus pendants {surplus}")
        elif rule == "ReductionOperation" and len(vs) == 2:
            u, v = vs
            if adj[u] != {v} or len(adj[v]) < 3 or offset:
                faults.append(f"step {i}: {vs} is no pendant and its neighbour"
                              " of degree >= 3, with offset 0")
            hang = sorted(adj[v] - {u})
        else:
            return faults + [f"step {i}: {rule} on {vs} is no reduce step"], 0, set()
        renumber = {x: j for j, x in enumerate(x for x in range(len(adj))
                                               if x not in vs)}
        adj = [{renumber[y] for y in adj[x] if y in renumber} for x in renumber]
        for w in hang:  # a fresh P_2, inner vertex first, on each of them
            inner = len(adj)
            adj[renumber[w]].add(inner)
            adj += [{renumber[w], inner + 1}, {inner}]
    if trace["total"] != sum(s["offset"] for s in trace["steps"]):
        faults.append(f"total {trace['total']} is not the sum of the offsets")
    return faults, len(adj), {(u, v) for u in range(len(adj)) for v in adj[u] if u < v}
