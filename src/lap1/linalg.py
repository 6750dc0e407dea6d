"""Exact integer linear algebra.

Everything runs over arbitrary-precision integers (or exact rationals for
eigenvalue targets): Bareiss fraction-free elimination for rank, the
division-free Berkowitz recurrence for characteristic polynomials,
eigenvalue multiplicities derived from either route, and leaf elimination
on L - I with exact rationals for the reduction pipeline.  No floating
point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import Graph, pendant_profile


class IntMatrix:
    """Dense integer matrix, row-major, immutable."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = cols or 0
        self.data = rows
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        if not self.data:
            return f"[] ({self.rows}x{self.cols})"
        return "\n".join(" ".join(str(x) for x in row) for row in self.data)


def adjacency(g: Graph) -> IntMatrix:
    n = g.n
    a = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = 1
    return IntMatrix(a, cols=n)


def laplacian(g: Graph) -> IntMatrix:
    """L = D - A with D the degree diagonal."""
    n = g.n
    a = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = -1
    for v in range(n):
        a[v][v] = g.degree(v)
    return IntMatrix(a, cols=n)


def rank(m: IntMatrix) -> int:
    """Exact rank over the rationals, by Bareiss fraction-free elimination
    with first-nonzero pivoting."""
    a = [list(row) for row in m.data]
    nrows, ncols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv_row is None:
            continue
        if piv_row != r:
            a[r], a[piv_row] = a[piv_row], a[r]
        piv = a[r][c]
        ar = a[r]
        for i in range(r + 1, nrows):
            ai = a[i]
            f = ai[c]
            for j in range(c + 1, ncols):
                ai[j] = (piv * ai[j] - f * ar[j]) // prev
            ai[c] = 0
        prev = piv
        r += 1
    return r


def char_poly(m: IntMatrix) -> list[int]:
    """Characteristic polynomial det(xI - M) by the division-free
    Berkowitz recurrence.  Coefficients ascending: index i holds the
    coefficient of x^i; the 0x0 matrix gives [1]."""
    if not m.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    a = m.data
    poly = [1]  # descending coefficients of det(xI - leading block)
    for k in range(1, n + 1):
        corner = a[k - 1][k - 1]
        row = a[k - 1][: k - 1]
        col = [a[i][k - 1] for i in range(k - 1)]
        # Toeplitz column: 1, -corner, -(row . col), -(row . B col), ...
        v = [1, -corner]
        w = col
        for _ in range(k - 1):
            v.append(-sum(x * y for x, y in zip(row, w)))
            w = [sum(a[i][j] * w[j] for j in range(k - 1)) for i in range(k - 1)]
        new = [0] * (k + 1)
        for j, pj in enumerate(poly):
            if pj == 0:
                continue
            top = k - j
            for di in range(min(len(v) - 1, top) + 1):
                new[j + di] += v[di] * pj
        poly = new
    return list(reversed(poly))


def poly_root_multiplicity(coeffs: Sequence[int], lam: int | Fraction) -> int:
    """Multiplicity of lam as a root, by repeated exact synthetic division.
    Coefficients ascending."""
    lam = Fraction(lam)
    desc = [Fraction(c) for c in reversed(coeffs)]
    while desc and desc[0] == 0:
        desc.pop(0)
    if not desc:
        raise ValueError("zero polynomial has no well-defined multiplicity")
    mult = 0
    while len(desc) > 1:
        quot = []
        acc = Fraction(0)
        for c in desc:
            acc = acc * lam + c
            quot.append(acc)
        if quot[-1] != 0:
            break
        desc = quot[:-1]
        mult += 1
    return mult


def eigen_multiplicity(m: IntMatrix, lam: int | Fraction) -> int:
    """Multiplicity of the rational eigenvalue lam: n - rank(den*M - num*I)."""
    if not m.is_square():
        raise ValueError("eigenvalue multiplicity needs a square matrix")
    lam = Fraction(lam)
    num, den = lam.numerator, lam.denominator
    n = m.rows
    shifted = IntMatrix(
        [
            [den * m.data[i][j] - (num if i == j else 0) for j in range(n)]
            for i in range(n)
        ],
        cols=n,
    )
    return n - rank(shifted)


def laplacian_multiplicity_one(g: Graph) -> int:
    """Multiplicity of 1 as a Laplacian eigenvalue; the central quantity."""
    return eigen_multiplicity(laplacian(g), 1)


def multiplicity_one_by_peeling(g: Graph) -> int:
    """Multiplicity of 1 as a Laplacian eigenvalue, as the nullity of
    L - I: leaf elimination in linear time, then Bareiss rank on the
    residual core.

    L - I has diagonal d(v) = deg(v) - 1 and -1 on every edge.  Vertices
    of current degree <= 1 are eliminated by exact congruences (Jacobs &
    Trevisan, "Locating the eigenvalues of trees", LAA 434, 2011):

    * an isolated vertex adds one to the nullity if d(v) = 0;
    * a leaf v with d(v) != 0 pivots on itself: d(r) -= 1/d(v) for its
      neighbour r, off-diagonal entries unchanged;
    * a leaf v with d(v) = 0 pivots on the pair v, r, which has full rank
      2 and clears every other entry of r's row and column: v and r go,
      and r's other edges with them.

    What is left (the 2-core, or a subgraph of it) keeps -1 off the
    diagonal; each of its rows is scaled by its diagonal's denominator
    and passed to `rank`.  Trees and suns leave no core and make no
    `rank` call.
    """
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    d = [Fraction(len(nbrs) - 1) for nbrs in adj]
    alive = [True] * g.n
    todo = [v for v in range(g.n) if len(adj[v]) <= 1]
    zeros = 0

    def remove(v: int) -> None:
        alive[v] = False
        for w in adj[v]:
            adj[w].discard(v)
            if len(adj[w]) <= 1:
                todo.append(w)
        adj[v].clear()

    # Degrees only fall, so a queued vertex stays at degree <= 1; it may
    # be queued twice (leaf, then isolated) or removed as some r first.
    while todo:
        v = todo.pop()
        if not alive[v]:
            continue
        if not adj[v]:
            alive[v] = False
            zeros += d[v] == 0
            continue
        (r,) = adj[v]
        if d[v]:
            d[r] -= 1 / d[v]
            remove(v)
        else:
            remove(v)
            remove(r)

    core = [v for v in range(g.n) if alive[v]]
    if not core:
        return zeros
    index = {v: i for i, v in enumerate(core)}
    rows = []
    for v in core:
        row = [0] * len(core)
        for w in adj[v]:
            row[index[w]] = -d[v].denominator
        row[index[v]] = d[v].numerator
        rows.append(row)
    return zeros + len(core) - rank(IntMatrix(rows, cols=len(core)))


def internal_submatrix(g: Graph) -> IntMatrix:
    """Principal submatrix of L(g) on vertices that are neither pendant
    nor quasi-pendant (possibly 0x0)."""
    prof = pendant_profile(g)
    skip = set(prof.pendants) | set(prof.quasi_pendants)
    keep = [v for v in range(g.n) if v not in skip]
    lap = laplacian(g).data
    return IntMatrix([[lap[i][j] for j in keep] for i in keep], cols=len(keep))


def integer_laplacian_eigenvalues(g: Graph) -> list[tuple[int, int]]:
    """All integer Laplacian eigenvalues with exact multiplicities, read
    off the characteristic polynomial.  Laplacian eigenvalues lie in
    [0, n], so only that window is scanned."""
    coeffs = char_poly(laplacian(g))
    out = []
    for lam in range(g.n + 1):
        k = poly_root_multiplicity(coeffs, lam)
        if k:
            out.append((lam, k))
    return out
