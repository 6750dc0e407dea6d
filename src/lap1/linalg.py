"""Exact integer linear algebra.

Everything runs over arbitrary-precision integers: sparse fraction-free
elimination for rank and, apart from it, for characteristic polynomials,
eigenvalue multiplicities derived from either route, and leaf elimination
on L - I for the reduction pipeline and the graphs `verify` derives, with
each rational diagonal kept as a reduced pair of integers.  No floating
point anywhere.

`rank` is the one rank engine.  It stores only nonzero entries, pivots
for sparsity (Markowitz) and keeps every row primitive, so each stored
entry is at most a minor of the input in absolute value, the same
Hadamard bound as Bareiss's dense elimination; L - I of a tree, a sun or
a sparse random graph has about 3n nonzeros, and the work follows the
fill-in instead of n^3.

`char_poly` is the one characteristic polynomial engine and shares no
code with `rank`: det(XI - M) at one power of two X (Kronecker
substitution) by Bareiss's elimination, which needs no pivot search on
the diagonally dominant XI - M and defers each row's exact rescaling to
its next read, with X over twice Schur's bound on the coefficients.

There is one matrix type, `SparseIntMatrix`, whose row i is a dict
{column: entry}.  `adjacency`, `laplacian` and `internal_submatrix` build
A, L and L_N as such rows from the neighbour lists, and `rank`,
`char_poly` and `eigen_multiplicity` take them; no n x n list is made.
Each of the three multiplicity routes builds its own L - I: the exact
route here from the neighbour lists, the peeling from the edge set, and
`verify`'s characteristic polynomial route from the edge list, so that a
defect in one builder cannot reach two routes.  The engines never change
the rows they are given.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt
from typing import Iterable, Sequence

from .graphs import Graph, PendantProfile, pendant_profile


class SparseIntMatrix:
    """Row-sparse integer matrix: row i is a dict {column: int}.

    The dicts are the caller's, and nothing here changes them.  Entries
    left out are zero; a stored zero is allowed, and `rank` drops it."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[dict[int, int]], cols: int):
        self.data = tuple(data)
        self.rows = len(self.data)
        self.cols = cols


def adjacency(g: Graph) -> SparseIntMatrix:
    """A, whose row v holds 1 on each neighbour of v."""
    return SparseIntMatrix(
        [dict.fromkeys(g.neighbors(v), 1) for v in range(g.n)], g.n)


def laplacian(g: Graph) -> SparseIntMatrix:
    """L = D - A, whose row v holds -1 on each neighbour of v and deg(v)
    on the diagonal, left out at an isolated vertex."""
    rows = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        row = dict.fromkeys(nbrs, -1)
        if nbrs:
            row[v] = len(nbrs)
        rows.append(row)
    return SparseIntMatrix(rows, g.n)


def rank(m: SparseIntMatrix) -> int:
    """Exact rank over the rationals, by sparse fraction-free elimination.

    Each row is copied on load, less any stored zeros, so the input is
    never changed; each working row is a dict {column: nonzero int}, and
    each column keeps the set of rows with an entry in it.  Pivoting
    follows Markowitz ("The elimination form of the inverse and its
    application to linear programming", Management Science 3, 1957): a
    shortest remaining row, taken from a heap, in its entry whose column
    is shortest.  Only the rows listed under the pivot column change,
    each to ``a * row - b * pivot_row`` on the union of the two supports
    and then divided by the gcd of its entries; the pivot row is dropped.
    The rank is the number of pivots.

    Why sizes stay bounded.  After pivots on the rows P and columns Q of
    the input M, the rows still stored are the rows of the Schur
    complement of M[P, Q], whose exact rational row i is (M_j / D)_j with
    M_j = det M[P + i, Q + j] and D = det M[P, Q], all minors of M.  Each
    update is a nonzero multiple of the exact Schur step, so each stored
    row is an integer multiple of that rational row, and the gcd division
    makes it the primitive one: every stored entry divides a minor of the
    input, so is at most that minor in absolute value.  That is the Hadamard
    bound of Bareiss's fraction-free elimination (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination",
    Math. Comp. 22, 1968), while rows with no entry in the pivot column
    are not touched at all.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(m.data):
        if 0 in row.values():
            entries = {j: x for j, x in row.items() if x}
        else:
            entries = dict(row)
        if entries:
            rows[i] = entries
            for j in entries:
                cols[j].add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    r = 0
    while heap:
        length, p = heappop(heap)
        prow = rows.get(p)
        if prow is None or len(prow) != length:
            continue  # stale: the row was eliminated or has changed length
        del rows[p]
        c = min(prow, key=lambda j: len(cols[j]))
        # negating a and b only negates each new row, and a = 1 needs no
        # scaling pass
        a = prow.pop(c)
        sign = 1 if a > 0 else -1
        a *= sign
        targets = cols.pop(c)
        targets.discard(p)
        for j in prow:
            cols[j].discard(p)
        for i in targets:
            row = rows[i]
            before = len(row)
            b = sign * row.pop(c)
            if prow and a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, x in prow.items():
                v = row.get(j, 0) - b * x
                if v:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = v
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
                continue
            g = gcd(*row.values())
            if g != 1:
                row = {j: x // g for j, x in row.items()}
            rows[i] = row
            if len(row) != before:
                heappush(heap, (len(row), i))
        r += 1
    return r


def char_poly(m: SparseIntMatrix) -> list[int]:
    """Characteristic polynomial det(xI - M), coefficients ascending:
    index i holds the coefficient of x^i; the 0x0 matrix gives [1].

    One determinant at x = X = 2^B (Kronecker substitution: Kronecker,
    J. reine angew. Math. 92, 1882), with r = ceil(sqrt(ceil(|M|_F^2 / n)))
    and B = n bitlen(1 + r) + 1, read back as balanced base-X digits.
    They are exact: Schur's inequality (Math. Ann. 66, 1909) gives
    sum |lambda|^2 <= |M|_F^2 <= n r^2, so by Maclaurin's inequality
    |c_i| <= C(n, i) r^(n-i), and sum |c_i| <= (1 + r)^n < X/2.

    Bareiss's elimination (cited at `rank`) runs on the stored entries of
    XI - M; the rows are only read.  A row of M has absolute sum at most
    n r < X, so XI - M and its principal submatrices are strictly
    diagonally dominant, and no principal minor is 0 (Levy-Desplanques):
    each pivot is the diagonal entry of a shortest remaining row, and a
    tree never fills in.  After pivots on P, with d_k = det (XI - M)[P, P],
    a current row i holds det (XI - M)[P + i, P + j] in column j.  A row
    missed by pivot column p only changes by d_k / d_(k-1), so it keeps
    the stage s at which it was last current: next read with entry b in
    column p, it becomes (d_k row - b prow) / d_s, and as the pivot row
    prow d_(k-1) / d_s.  Each quotient is a minor, so each division is
    exact.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows  # the 0x0 determinant is 1, read as [1]
    mean = -(-sum(x * x for row in m.data for x in row.values()) // max(n, 1))
    r = isqrt(mean - 1) + 1 if mean else 0
    width = n * (1 + r).bit_length() + 1  # B
    base = 1 << width  # X
    rows = {}
    for i, row in enumerate(m.data):
        rows[i] = {j: -x for j, x in row.items() if x and j != i}
        rows[i][i] = base - row.get(i, 0)
    stage = [0] * n
    pivots = [1]  # pivots[k] = d_k
    while rows:
        p = min(rows, key=lambda i: len(rows[i]))
        prow, s = rows.pop(p), stage[p]
        k = len(pivots)
        if s != k - 1:
            prow = {j: x * pivots[-1] // pivots[s] for j, x in prow.items()}
        a = prow.pop(p)
        pivots.append(a)
        for i, row in rows.items():
            b = row.get(p)
            if b is None:
                continue
            row = {j: a * x for j, x in row.items() if j != p}
            for j, y in prow.items():
                row[j] = row.get(j, 0) - b * y
            rows[i] = {j: x // pivots[stage[i]] for j, x in row.items() if x}
            stage[i] = k
    det, half, coeffs = pivots[-1], base >> 1, []
    for _ in range(n):
        coeffs.append((det + half) % base - half)
        det = (det - coeffs[-1]) >> width
    return coeffs + [det]


def poly_root_multiplicity(coeffs: Sequence[int], lam: int | Fraction) -> int:
    """Multiplicity of the rational lam as a root; coefficients ascending.

    With lam = a/b in lowest terms, this divides by the primitive factor
    b*x - a over the integers for as long as the remainder is 0.  By
    Gauss's lemma the quotient of an integer polynomial by a primitive
    factor is integral, so a quotient coefficient that is not an integer
    already shows that lam is not a root.  An integer lam has b = 1."""
    a, b = lam.numerator, lam.denominator
    desc = list(reversed(coeffs))
    while desc and desc[0] == 0:
        desc.pop(0)
    if not desc:
        raise ValueError("zero polynomial has no well-defined multiplicity")
    mult = 0
    while len(desc) > 1:
        quot = []
        acc = desc[0]
        for c in desc[1:]:
            q, r = divmod(acc, b)
            if r:
                return mult
            quot.append(q)
            acc = c + a * q
        if acc:
            return mult
        desc = quot
        mult += 1
    return mult


def eigen_multiplicity(m: SparseIntMatrix, lam: int | Fraction) -> int:
    """Multiplicity of the eigenvalue lam of M: n - rank(M - lam I).

    The characteristic polynomial of an integer matrix is monic with
    integer coefficients, so its rational roots are integers: a lam that
    is not an integer gives 0 without any elimination."""
    if m.rows != m.cols:
        raise ValueError("eigenvalue multiplicity needs a square matrix")
    if lam.denominator != 1:
        return 0
    lam = lam.numerator
    shifted = []
    for i, row in enumerate(m.data):
        row = dict(row)
        row[i] = row.get(i, 0) - lam
        shifted.append(row)
    return m.rows - rank(SparseIntMatrix(shifted, m.cols))


def laplacian_multiplicity_one(g: Graph) -> int:
    """Multiplicity of 1 as a Laplacian eigenvalue; the central quantity.

    It is the nullity of L - I, whose row v holds -1 on each neighbour
    of v and deg(v) - 1 on the diagonal, left out when it is 0 (at a
    leaf).  The rows are built sparse from the adjacency lists, about 3n
    entries for a tree, and ranked by `rank`; no dense matrix is made."""
    rows = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        row = dict.fromkeys(nbrs, -1)
        if len(nbrs) != 1:
            row[v] = len(nbrs) - 1
        rows.append(row)
    return g.n - rank(SparseIntMatrix(rows, g.n))


def multiplicity_one_by_peeling(g: Graph) -> int:
    """Multiplicity of 1 as a Laplacian eigenvalue, as the nullity of
    L - I: leaf elimination in linear time, then `rank` on the residual
    core.

    L - I has diagonal d(v) = deg(v) - 1 and -1 on every edge.  Vertices
    of current degree <= 1 are eliminated by exact congruences (Jacobs &
    Trevisan, "Locating the eigenvalues of trees", LAA 434, 2011):

    * an isolated vertex adds one to the nullity if d(v) = 0;
    * a leaf v with d(v) != 0 pivots on itself: d(r) -= 1/d(v) for its
      neighbour r, off-diagonal entries unchanged;
    * a leaf v with d(v) = 0 pivots on the pair v, r, which has full rank
      2 and clears every other entry of r's row and column: v and r go,
      and r's other edges with them.

    Each diagonal is kept as a reduced integer pair, numerator and
    positive denominator, so no `Fraction` is made.  What is left (the
    2-core, or a subgraph of it) keeps -1 off the diagonal; each of its
    rows is scaled by its diagonal's denominator and passed to `rank` as
    a sparse row.  Trees and suns leave no core and make no `rank` call.
    The adjacency sets are built from `g.edges`, so a graph that is only
    peeled never builds its neighbour tuples.

    Callers: the reduction pipeline's exact-rank fallback on a residual
    component, and `verify`'s derived checks, which compute every
    m_L(1) other than a checked graph's own with it, unmemoised.
    """
    n = g.n
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    # d(v) = num[v] / den[v] in lowest terms, den[v] > 0
    num = [len(nbrs) - 1 for nbrs in adj]
    den = [1] * n
    alive = [True] * n
    todo = [v for v in range(n) if len(adj[v]) <= 1]
    zeros = 0

    # Degrees only fall, so a queued vertex stays at degree <= 1; it may
    # be queued twice (leaf, then isolated) or removed as some r first.
    # A removed vertex's own set is left as it is: only live sets are read.
    while todo:
        v = todo.pop()
        if not alive[v]:
            continue
        alive[v] = False
        if not adj[v]:
            zeros += num[v] == 0
            continue
        (r,) = adj[v]
        nbrs = adj[r]
        nbrs.discard(v)
        a = num[v]
        if a:
            # d(r) - 1/d(v) = (num_r a - den_r b) / (den_r a), with b = den[v]
            b = den[v]
            top = num[r] * a - den[r] * b
            bottom = den[r] * a
            if bottom < 0:
                top, bottom = -top, -bottom
            k = gcd(top, bottom)
            num[r], den[r] = top // k, bottom // k
            if len(nbrs) <= 1:
                todo.append(r)
        else:
            alive[r] = False
            for w in nbrs:
                other = adj[w]
                other.discard(r)
                if len(other) <= 1:
                    todo.append(w)

    core = [v for v in range(n) if alive[v]]
    if not core:
        return zeros
    index = {v: i for i, v in enumerate(core)}
    rows = []
    for v in core:
        row = dict.fromkeys((index[w] for w in adj[v]), -den[v])
        if num[v]:
            row[index[v]] = num[v]
        rows.append(row)
    return zeros + len(core) - rank(SparseIntMatrix(rows, len(core)))


def internal_submatrix(g: Graph,
                       prof: PendantProfile | None = None) -> SparseIntMatrix:
    """L_N, the principal submatrix of L(g) on the vertices that are
    neither pendant nor quasi-pendant (possibly 0x0), renumbered in
    increasing order; prof, when given, is g's pendant profile."""
    if prof is None:
        prof = pendant_profile(g)
    skip = set(prof.pendants).union(prof.quasi_pendants)
    index = {v: i for i, v in enumerate(v for v in range(g.n) if v not in skip)}
    rows = []
    for v in index:
        nbrs = g.neighbors(v)
        row = {index[w]: -1 for w in nbrs if w in index}
        if nbrs:
            row[index[v]] = len(nbrs)
        rows.append(row)
    return SparseIntMatrix(rows, len(index))


def integer_laplacian_eigenvalues(g: Graph) -> list[tuple[int, int]]:
    """All integer Laplacian eigenvalues with exact multiplicities, read
    off the characteristic polynomial of L.  Laplacian eigenvalues lie in
    [0, n], so only that window is scanned."""
    coeffs = char_poly(laplacian(g))
    out = []
    for lam in range(g.n + 1):
        k = poly_root_multiplicity(coeffs, lam)
        if k:
            out.append((lam, k))
    return out
