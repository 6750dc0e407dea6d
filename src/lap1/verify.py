"""Verification suites: the theorems and lemma sweeps as runnable,
reportable checks.

A suite is one row of `_TABLE`: lowest order, default `max_n`, graph
source, the row's own per-graph check (or none) and aggregate check.  A
source is just a stream of `Graph`s.  One engine, `_run`, maps one step,
`_check_graph`, over it.  The step encodes the graph to graph6 once, for
the report, and never parses it back.  It compares three multiplicity
routes (exact rank, characteristic polynomial, reduction pipeline) for
every graph of every row, so a defect in any one engine surfaces as a
"cross-oracle" violation, and a row's check adds only its own facts.
The engine hands every (graph6, n, m) triple to the aggregate check and
builds the report, whose n_range ends at the largest order checked.
With jobs > 1 the engine lists the source's graphs and pickles them to
worker processes (a pickled `Graph` is n and its edge set), so the step
and the checks are module-level.

The three routes run once per checked graph, memoised by its labelled
graph6 (never a `Graph`) so that suites sharing a graph share its answers.
Every other m_L(1) comes from leaf peeling, unmemoised: that of each graph
a check derives (the reduced graph, G - e, the lemmas' transformations).
Derived graphs are many, and holding their answers for the life of the
process would cost more memory than recomputing the repeats costs time.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import chain

from .canon import canonical_form
from .enumeration import (
    MAX_TREE_N,
    MAX_UNICYCLIC_N,
    _trees,
    _unicyclic,
    free_trees,
    random_connected_graph,
    unicyclic_graphs,
)
from .extremal import extremal_tree_unverified, extremal_unicyclic_unverified
from .graph6 import to_graph6
from .graphs import (
    Graph,
    cycle_graph,
    double_star_like_tree,
    find_internal_paths,
    find_pendant_paths,
    line_graph,
    pendant_profile,
    star_like_tree,
)
from .linalg import (
    SparseIntMatrix,
    adjacency,
    char_poly,
    eigen_multiplicity,
    integer_laplacian_eigenvalues,
    internal_submatrix,
    laplacian_multiplicity_one,
    multiplicity_one_by_peeling,
)
from .reduction import (
    contract_line_P4,
    contract_tree_P5,
    cycle_multiplicity_one,
    delete_pendant_P3,
    edge_split,
    multiplicity_fast,
    reduced_graph,
    reduction_operation,
)


@dataclass
class VerificationReport:
    suite: str
    n_range: tuple[int, int]
    graphs_checked: int
    violations: list[dict]
    runtime_ms: int
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {**asdict(self), "n_range": list(self.n_range)}

    def summary(self) -> str:
        status = "ok" if self.passed else f"{len(self.violations)} violations"
        return (
            f"suite {self.suite}: n in {self.n_range[0]}..{self.n_range[1]},"
            f" {self.graphs_checked} graphs, {status},"
            f" {self.runtime_ms} ms"
        )


def _m1_exact(g: Graph) -> int:
    return laplacian_multiplicity_one(g)


def _m1_charpoly(g: Graph) -> int:
    """The number of zero coefficients at the low end of det(xI - (L - I)):
    L - I is symmetric, so the algebraic multiplicity of its eigenvalue 0
    is its nullity.  L - I is built here from the edge list, apart from
    the rows the rank route builds."""
    rows = [{v: -1} for v in range(g.n)]  # the diagonal deg - 1
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = -1
        rows[u][u] += 1
        rows[v][v] += 1
    for v, row in enumerate(rows):
        if not row[v]:
            del row[v]
    coeffs = char_poly(SparseIntMatrix(rows, g.n))
    return next(i for i, c in enumerate(coeffs) if c)


def _m1_fast(g: Graph) -> int:
    return multiplicity_fast(g)[0]


_ROUTES: dict[str, tuple[int, int, int]] = {}  # graph6 -> (rank, charpoly, fast)


def clear_caches() -> None:
    _ROUTES.clear()


def _violation(g6: str, expected, actual, rule: str) -> dict:
    return {
        "graph6": g6,
        "expected": str(expected),
        "actual": str(actual),
        "rule": rule,
    }


Check = Callable[[Graph, str, int], list[dict]]  # (g, graph6, m) -> violations
Checked = tuple[str, int, int, list[dict]]  # (graph6, n, m, violations)


def _check_graph(check: Check | None, g: Graph) -> Checked:
    """One graph of any row: encode it once, compare the three routes,
    then add the row's own check, if it has one."""
    g6 = to_graph6(g)
    if g6 not in _ROUTES:
        _ROUTES[g6] = _m1_exact(g), _m1_charpoly(g), _m1_fast(g)
    me, mc, mf = _ROUTES[g6]
    viol = [] if me == mc == mf else [
        _violation(g6, f"rank={me}", f"charpoly={mc} fast={mf}", "cross-oracle")]
    if check is not None:
        viol += check(g, g6, me)
    return g6, g.n, me, viol


def _map_graphs(fn, graphs: Iterable[Graph], jobs: int) -> Iterable:
    # A serial run streams; only workers need the graphs listed first.
    # Workers fork at the first submit: no more than CPUs or items.
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        graphs = list(graphs)
        workers = min(workers, len(graphs))
    if workers <= 1 or len(graphs) < 4:
        return map(fn, graphs)
    # Imported here: multiprocessing is about a tenth of every CLI
    # call's start-up, and only --jobs > 1 needs it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(graphs) // (workers * 8))
        return list(pool.map(fn, graphs, chunksize=chunk))


# -- graph sources ----------------------------------------------------------
#
# A source maps (max_n, seed, n_random) to a stream of its graphs.  The
# enumerations stop at MAX_TREE_N and MAX_UNICYCLIC_N whatever max_n says.

def _trees_and_unicyclic(max_n: int, seed: int, n_random: int) -> Iterator[Graph]:
    return chain(
        (t for n in range(1, min(max_n, MAX_TREE_N) + 1) for t in free_trees(n)),
        (g for n in range(3, min(max_n, MAX_UNICYCLIC_N) + 1)
         for g in unicyclic_graphs(n)),
    )


def _random_graphs(max_n: int, seed: int, n_random: int) -> Iterator[Graph]:
    rng = random.Random(seed)
    for _ in range(n_random):
        n = rng.randint(1, max_n)
        prob = Fraction(rng.randint(1, 3), 4)
        yield random_connected_graph(n, prob, rng.randrange(2**32))


def _thm1_graphs(max_n: int, seed: int, n_random: int) -> Iterator[Graph]:
    return chain(_trees_and_unicyclic(max_n, seed, n_random),
                 _random_graphs(max_n, seed, n_random))


def _class_T(max_n: int, seed: int, n_random: int) -> Iterator[Graph]:
    return (t for n in range(6, min(max_n, MAX_TREE_N) + 1)
            for t in _trees(n, True))


def _class_G(max_n: int, seed: int, n_random: int) -> Iterator[Graph]:
    return (g for n in range(3, min(max_n, MAX_UNICYCLIC_N) + 1)
            for g in _unicyclic(n, True))


# -- per-graph checks ------------------------------------------------------

def _faria_eq2(g6: str, me: int, p_q: int, inner: SparseIntMatrix) -> list[dict]:
    """Faria's bound m >= p - q and equation (2), m = p - q + m_N, with
    m_N the multiplicity of 1 as an eigenvalue of L_N = inner, the
    principal submatrix of L on the vertices that are neither pendant nor
    quasi-pendant, as `internal_submatrix` builds it."""
    viol = []
    if me < p_q:
        viol.append(_violation(g6, f"m >= p-q = {p_q}", me, "faria"))
    m_inner = eigen_multiplicity(inner, 1)
    if me != p_q + m_inner:
        viol.append(_violation(g6, f"p-q+m_N = {p_q + m_inner}", me, "eq2"))
    return viol


def _check_thm1(g: Graph, g6: str, me: int) -> list[dict]:
    prof = pendant_profile(g)
    offset = prof.p - prof.q
    viol = _faria_eq2(g6, me, offset, internal_submatrix(g, prof))
    # with no surplus pendant the reduced graph is G itself
    if offset:
        rhs = offset + multiplicity_one_by_peeling(reduced_graph(g, prof)[0])
        if me != rhs:
            viol.append(_violation(g6, f"p-q+m(reduced)={rhs}", me,
                                   "thm1-identity"))
    return viol


def _check_lemmas(g: Graph, g6: str, me: int) -> list[dict]:
    prof = pendant_profile(g)
    viol = _faria_eq2(g6, me, prof.p - prof.q, internal_submatrix(g, prof))

    for u, v in g.sorted_edges():
        md = multiplicity_one_by_peeling(g.remove_edge(u, v))
        if not md - 1 <= me <= md + 1:
            viol.append(
                _violation(g6, f"within 1 of m(G-e)={md} (edge {u}-{v})", me,
                           "interlacing")
            )

    if g.is_tree():
        ml = eigen_multiplicity(adjacency(line_graph(g)), -1)
        if me != ml:
            viol.append(_violation(g6, f"m_A(line)(-1)={ml}", me, "eqlemma"))
        if g.n >= 2:
            for lam, mult in integer_laplacian_eigenvalues(g):
                if mult > prof.p - 1:
                    viol.append(
                        _violation(g6, f"m_{lam} <= p-1 = {prof.p - 1}", mult, "eq1")
                    )
                if lam > 1 and (g.n % lam != 0 or mult != 1):
                    expected = f"integer eigenvalue {lam} divides n with mult 1"
                    actual = f"n={g.n} mult={mult}"
                    viol.append(_violation(g6, expected, actual, "gms"))
        for path in find_internal_paths(g, 5):
            md = multiplicity_one_by_peeling(contract_tree_P5(g, path))
            if md != me:
                viol.append(_violation(g6, me, md, "innerpathcorol"))

    for path in find_pendant_paths(g, 3):
        md = multiplicity_one_by_peeling(delete_pendant_P3(g, path))
        if md != me:
            viol.append(_violation(g6, me, md, "path3"))

    for u in prof.pendants:
        v = prof.pendant_owner[u]
        if g.degree(v) < 3:
            continue
        mr = multiplicity_one_by_peeling(reduction_operation(g, u, v))
        if mr != me:
            viol.append(_violation(g6, me, mr, "reduction-op"))
        for w in g.neighbors(v):
            if w == u:
                continue
            ms = multiplicity_one_by_peeling(edge_split(g, u, v, w))
            if ms != me:
                viol.append(_violation(g6, me, ms, "mainlemma"))

    p4s = [
        path
        for path in find_internal_paths(g, 4)
        if not g.has_edge(path.vertices[0], path.vertices[3])
    ]
    if p4s:
        ma = eigen_multiplicity(adjacency(g), -1)
        for path in p4s:
            mh = eigen_multiplicity(adjacency(contract_line_P4(g, path)), -1)
            if mh != ma:
                viol.append(_violation(g6, ma, mh, "innerpath"))
    return viol


# -- aggregate checks -------------------------------------------------------

Results = list[tuple[str, int, int]]  # (graph6, n, m) per graph checked


def _bound(results: Results, name: str, orders: range, shift: int, build) -> list[dict]:
    """The bound 4m <= n - shift at every order in orders, attained at
    order n by exactly the canonical form of build(n) when 4 divides
    n - shift, and by no graph otherwise.  build does not check its graph
    with the rank route, so a defect there is reported, not raised."""
    bound = f"(n-{shift})/4" if shift else "n/4"
    viol = [
        _violation(g6, f"m <= {bound} = {(n - shift) / 4}", m, f"{name}-bound")
        for g6, n, m in results
        if n in orders and 4 * m > n - shift
    ]
    for n in orders:
        hits = [g6 for g6, order, m in results if order == n and 4 * m == n - shift]
        want = [canonical_form(build(n))] if (n - shift) % 4 == 0 else []
        if hits != want:
            expected = f"unique extremal {want[0]}" if want else "no extremal class"
            viol.append(_violation(";".join(hits), expected, hits, f"{name}-extremal"))
    return viol


def _thm2_aggregate(results: Results, top: int) -> tuple[int, list[dict]]:
    """The tree bound, the census of the seven class members of order
    6..9 (all m = 0), and the caterpillar as the unique extremal tree."""
    viol = []
    if top >= 9:
        small = [(g6, m) for g6, n, m in results if n <= 9]
        if len(small) != 7:
            viol.append(
                _violation("", "7 trees in classes 6..9", len(small), "thm2-census")
            )
        for g6, m in small:
            if m != 0:
                viol.append(_violation(g6, "m=0 for n<=9", m, "thm2-census"))
    return 0, viol + _bound(results, "thm2", range(6, top + 1), 6,
                            extremal_tree_unverified)


def _thm3_aggregate(results: Results, top: int) -> tuple[int, list[dict]]:
    """The unicyclic bound from order 10 on, and the sun as the unique
    extremal unicyclic graph."""
    return 0, _bound(results, "thm3", range(10, top + 1), 0,
                     extremal_unicyclic_unverified)


def _lemmas_aggregate(results: Results, top: int) -> tuple[int, list[dict]]:
    """Star-like and double star-like trees have m = 0, and cycles
    C_3..C_30 follow the closed form; each also gets the three routes."""
    cases = [(star_like_tree(s), 0, "starlike") for s in range(2, 7)]
    cases += [(double_star_like_tree(s, t), 0, "starlike")
              for s in range(2, 7) for t in range(s, 7)]
    cases += [(cycle_graph(n), cycle_multiplicity_one(n), "cycle-closed-form")
              for n in range(3, 31)]
    viol = []
    for g, want, rule in cases:
        g6, _, got, cross = _check_graph(None, g)
        viol += cross
        if got != want:
            viol.append(_violation(g6, want, got, rule))
    return len(cases), viol


# -- the suite table and its engine -----------------------------------------

@dataclass(frozen=True)
class Suite:
    name: str
    lo: int  # lowest order checked; n_range starts here
    max_n: int  # default highest order
    graphs: Callable[[int, int, int], Iterator[Graph]]  # (max_n, seed, n_random)
    check: Check | None  # the row's own facts; the engine adds the routes
    # (results, the largest order checked) -> (graphs checked beyond the
    # source's, violations)
    aggregate: Callable[[Results, int], tuple[int, list[dict]]] | None = None
    seeded: bool = False  # the source draws random graphs from the seed

    def top(self, max_n: int | None) -> int:
        """The max_n the row runs with: the given one, or its default when
        None, raised to its lowest order.  No graph it checks is larger."""
        return max(self.max_n if max_n is None else max_n, self.lo)


_TABLE = {
    s.name: s
    for s in (
        Suite("thm1", 1, 12, _thm1_graphs, _check_thm1, seeded=True),
        Suite("thm2", 6, 14, _class_T, None, _thm2_aggregate),
        Suite("thm3", 3, 13, _class_G, None, _thm3_aggregate),
        Suite("lemmas", 1, 10, _trees_and_unicyclic, _check_lemmas,
              _lemmas_aggregate),
    )
}

SUITES = tuple(_TABLE)


def suite_max_n(suite: str, max_n: int | None = None) -> int:
    """`Suite.top` of the named suite."""
    return _TABLE[suite].top(max_n)


def _run(
    suite: Suite, max_n: int | None, seed: int = 0, n_random: int = 0, jobs: int = 1
) -> VerificationReport:
    t0 = time.monotonic()
    source = suite.graphs(suite.top(max_n), seed, n_random)
    results: Results = []
    violations = []
    step = partial(_check_graph, suite.check)
    for g6, n, m, viol in _map_graphs(step, source, jobs):
        results.append((g6, n, m))
        violations += viol
    top = max((n for _, n, _ in results), default=suite.lo)
    extra = 0
    if suite.aggregate is not None:
        extra, more = suite.aggregate(results, top)
        violations += more
    violations.sort(
        key=lambda v: (v["rule"], v["graph6"], v["expected"], v["actual"])
    )
    return VerificationReport(
        suite.name,
        (suite.lo, top),
        len(results) + extra,
        violations,
        int((time.monotonic() - t0) * 1000),
        seed if suite.seeded else None,
    )


def verify_thm1(
    max_n: int | None = None, seed: int = 0, n_random: int = 1000, jobs: int = 1
) -> VerificationReport:
    """m = p - q + m(reduced) on trees, unicyclic and seeded random graphs."""
    return _run(_TABLE["thm1"], max_n, seed, n_random, jobs)


def verify_thm2(max_n: int | None = None, jobs: int = 1) -> VerificationReport:
    """The tree bound 4m <= n - 6, its census and its unique extremal tree."""
    return _run(_TABLE["thm2"], max_n, jobs=jobs)


def verify_thm3(max_n: int | None = None, jobs: int = 1) -> VerificationReport:
    """The unicyclic bound 4m <= n from n = 10 and its unique extremal sun."""
    return _run(_TABLE["thm3"], max_n, jobs=jobs)


def verify_lemmas(max_n: int | None = None, jobs: int = 1) -> VerificationReport:
    """The lemma sweep, star-like zeros and the cycle closed form."""
    return _run(_TABLE["lemmas"], max_n, jobs=jobs)


def run_suite(
    suite: str,
    max_n: int | None = None,
    seed: int = 0,
    jobs: int = 1,
    n_random: int = 1000,
) -> list[VerificationReport]:
    """Run one named suite (or all four); returns one report per suite.
    max_n defaults per suite and is raised to the suite's lowest order."""
    if suite != "all" and suite not in _TABLE:
        raise ValueError(f"unknown suite {suite!r}")
    rows = _TABLE.values() if suite == "all" else [_TABLE[suite]]
    return [_run(s, max_n, seed, n_random, jobs) for s in rows]
