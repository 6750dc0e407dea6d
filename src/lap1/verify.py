"""Verification suites: the theorems and lemma sweeps as runnable,
reportable checks.

Every per-graph check also cross-validates three multiplicity routes
(exact rank, Berkowitz characteristic polynomial, reduction pipeline), so
a defect in any one engine surfaces as a "cross-oracle" violation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .canon import canonical_form
from .enumeration import (
    MAX_TREE_N,
    MAX_UNICYCLIC_N,
    free_trees,
    random_connected_graph,
    trees_in_class_T,
    unicyclic_graphs,
    unicyclic_in_class_G,
)
from .extremal import extremal_tree, extremal_unicyclic
from .graph6 import parse_graph6, to_graph6
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
    adjacency,
    char_poly,
    eigen_multiplicity,
    integer_laplacian_eigenvalues,
    internal_submatrix,
    laplacian,
    laplacian_multiplicity_one,
    poly_root_multiplicity,
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

SUITES = ("thm1", "thm2", "thm3", "lemmas")

DEFAULT_MAX_N = {"thm1": 12, "thm2": 14, "thm3": 13, "lemmas": 10}


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
        return {
            "suite": self.suite,
            "n_range": list(self.n_range),
            "graphs_checked": self.graphs_checked,
            "violations": self.violations,
            "runtime_ms": self.runtime_ms,
            "seed": self.seed,
        }

    def summary(self) -> str:
        status = "ok" if self.passed else f"{len(self.violations)} violations"
        return (
            f"suite {self.suite}: n in {self.n_range[0]}..{self.n_range[1]},"
            f" {self.graphs_checked} graphs, {status},"
            f" {self.runtime_ms} ms"
        )


@lru_cache(maxsize=None)
def _m1_exact(g: Graph) -> int:
    return laplacian_multiplicity_one(g)


@lru_cache(maxsize=None)
def _m1_charpoly(g: Graph) -> int:
    return poly_root_multiplicity(char_poly(laplacian(g)), 1)


@lru_cache(maxsize=None)
def _m1_fast(g: Graph) -> int:
    return multiplicity_fast(g)[0]


def clear_caches() -> None:
    _m1_exact.cache_clear()
    _m1_charpoly.cache_clear()
    _m1_fast.cache_clear()


def _violation(g6: str, expected, actual, rule: str) -> dict:
    return {
        "graph6": g6,
        "expected": str(expected),
        "actual": str(actual),
        "rule": rule,
    }


def _cross_oracle(g: Graph, g6: str) -> tuple[int, list[dict]]:
    me = _m1_exact(g)
    mc = _m1_charpoly(g)
    mf = _m1_fast(g)
    if me == mc == mf:
        return me, []
    return me, [
        _violation(g6, f"rank={me}", f"charpoly={mc} fast={mf}", "cross-oracle")
    ]


def _sort_violations(violations: list[dict]) -> list[dict]:
    violations.sort(
        key=lambda v: (v["rule"], v["graph6"], v["expected"], v["actual"])
    )
    return violations


def _map_graphs(fn, items: list, jobs: int) -> list:
    if jobs <= 1 or len(items) < 4:
        return [fn(it) for it in items]
    # Imported here: multiprocessing is about a tenth of every CLI
    # call's start-up, and only --jobs > 1 needs it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(items) // (jobs * 8))
        return list(pool.map(fn, items, chunksize=chunk))


# -- thm1: m = p - q + m(reduced) ------------------------------------------

def _check_thm1(g6: str) -> list[dict]:
    g = parse_graph6(g6)
    me, viol = _cross_oracle(g, g6)
    prof = pendant_profile(g)
    gbar, offset = reduced_graph(g)
    rhs = offset + _m1_exact(gbar)
    if me != rhs:
        viol.append(_violation(g6, f"p-q+m(reduced)={rhs}", me, "thm1-identity"))
    if me < prof.p - prof.q:
        viol.append(_violation(g6, f"m >= p-q = {prof.p - prof.q}", me, "faria"))
    m_inner = eigen_multiplicity(internal_submatrix(g), 1)
    if me != prof.p - prof.q + m_inner:
        viol.append(
            _violation(g6, f"p-q+m_N = {prof.p - prof.q + m_inner}", me, "eq2")
        )
    return viol


def verify_thm1(
    max_n: int = 12, seed: int = 0, n_random: int = 1000, jobs: int = 1
) -> VerificationReport:
    """Reduction identity over all trees and unicyclic graphs up to max_n
    plus seeded random connected graphs."""
    t0 = time.monotonic()
    g6s: list[str] = []
    for n in range(1, min(max_n, MAX_TREE_N) + 1):
        g6s.extend(to_graph6(t) for t in free_trees(n))
    for n in range(3, min(max_n, MAX_UNICYCLIC_N) + 1):
        g6s.extend(to_graph6(u) for u in unicyclic_graphs(n))
    rng = random.Random(seed)
    for _ in range(n_random):
        n = rng.randint(1, max_n)
        prob = Fraction(rng.randint(1, 3), 4)
        g = random_connected_graph(n, prob, rng.randrange(2**32))
        g6s.append(to_graph6(g))
    violations: list[dict] = []
    for batch in _map_graphs(_check_thm1, g6s, jobs):
        violations.extend(batch)
    return VerificationReport(
        "thm1",
        (1, max_n),
        len(g6s),
        _sort_violations(violations),
        int((time.monotonic() - t0) * 1000),
        seed,
    )


# -- thm2: tree bound and extremal uniqueness -------------------------------

def _check_thm2(item: tuple[str, int]) -> tuple[list[dict], int]:
    g6, n = item
    g = parse_graph6(g6)
    me, viol = _cross_oracle(g, g6)
    if 4 * me > n - 6:
        viol.append(_violation(g6, f"m <= (n-6)/4 = {(n - 6) / 4}", me, "thm2-bound"))
    return viol, me


def verify_thm2(max_n: int = 14, jobs: int = 1) -> VerificationReport:
    """Tree bound m <= (n-6)/4 over the reduced no-pendant-P3 class, with
    the small-order census and extremal uniqueness checks."""
    t0 = time.monotonic()
    items: list[tuple[str, int]] = []
    for n in range(6, min(max_n, MAX_TREE_N) + 1):
        items.extend((to_graph6(t), n) for t in trees_in_class_T(n))
    results = _map_graphs(_check_thm2, items, jobs)
    violations: list[dict] = []
    mult: dict[str, int] = {}
    for (g6, n), (viol, me) in zip(items, results):
        violations.extend(viol)
        mult[g6] = me
    if max_n >= 9:
        small = [(g6, n) for g6, n in items if n <= 9]
        if len(small) != 7:
            violations.append(
                _violation("", "7 trees in classes 6..9", len(small), "thm2-census")
            )
        for g6, n in small:
            if mult[g6] != 0:
                violations.append(
                    _violation(g6, "m=0 for n<=9", mult[g6], "thm2-census")
                )
    for n in range(6, min(max_n, MAX_TREE_N) + 1):
        hits = [g6 for g6, nn in items if nn == n and 4 * mult[g6] == n - 6]
        if n % 4 == 2:
            want = canonical_form(extremal_tree(n))
            if hits != [want]:
                violations.append(
                    _violation(
                        ";".join(hits), f"unique extremal {want}", hits, "thm2-extremal"
                    )
                )
        elif hits:
            violations.append(
                _violation(";".join(hits), "no extremal class", hits, "thm2-extremal")
            )
    return VerificationReport(
        "thm2",
        (6, max_n),
        len(items),
        _sort_violations(violations),
        int((time.monotonic() - t0) * 1000),
    )


# -- thm3: unicyclic bound and extremal uniqueness --------------------------

def _check_thm3(item: tuple[str, int]) -> tuple[list[dict], int]:
    g6, n = item
    g = parse_graph6(g6)
    me, viol = _cross_oracle(g, g6)
    if n >= 10 and 4 * me > n:
        viol.append(_violation(g6, f"m <= n/4 = {n / 4}", me, "thm3-bound"))
    return viol, me


def verify_thm3(max_n: int = 13, jobs: int = 1) -> VerificationReport:
    """Unicyclic bound m <= n/4 for n >= 10 over the reduced
    no-pendant-P3 class, informational sweep below 10, and extremal
    uniqueness at n = 12."""
    t0 = time.monotonic()
    items: list[tuple[str, int]] = []
    for n in range(3, min(max_n, MAX_UNICYCLIC_N) + 1):
        items.extend((to_graph6(u), n) for u in unicyclic_in_class_G(n))
    results = _map_graphs(_check_thm3, items, jobs)
    violations: list[dict] = []
    mult: dict[str, int] = {}
    for (g6, n), (viol, me) in zip(items, results):
        violations.extend(viol)
        mult[g6] = me
    for n in range(10, min(max_n, MAX_UNICYCLIC_N) + 1):
        hits = [g6 for g6, nn in items if nn == n and 4 * mult[g6] == n]
        if n % 4 == 0:
            want = canonical_form(extremal_unicyclic(n))
            if hits != [want]:
                violations.append(
                    _violation(
                        ";".join(hits), f"unique extremal {want}", hits, "thm3-extremal"
                    )
                )
        elif hits:
            violations.append(
                _violation(";".join(hits), "no extremal class", hits, "thm3-extremal")
            )
    return VerificationReport(
        "thm3",
        (3, max_n),
        len(items),
        _sort_violations(violations),
        int((time.monotonic() - t0) * 1000),
    )


# -- lemmas ------------------------------------------------------------------

def _check_lemmas(g6: str) -> list[dict]:
    g = parse_graph6(g6)
    me, viol = _cross_oracle(g, g6)
    prof = pendant_profile(g)

    if me < prof.p - prof.q:
        viol.append(_violation(g6, f"m >= p-q = {prof.p - prof.q}", me, "faria"))
    m_inner = eigen_multiplicity(internal_submatrix(g), 1)
    if me != prof.p - prof.q + m_inner:
        viol.append(
            _violation(g6, f"p-q+m_N = {prof.p - prof.q + m_inner}", me, "eq2")
        )
    for u, v in g.sorted_edges():
        md = _m1_exact(g.remove_edge(u, v))
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
                    viol.append(
                        _violation(
                            g6,
                            f"integer eigenvalue {lam} divides n with mult 1",
                            f"n={g.n} mult={mult}",
                            "gms",
                        )
                    )
        for path in find_pendant_paths(g, 3):
            md = _m1_exact(delete_pendant_P3(g, path))
            if md != me:
                viol.append(_violation(g6, me, md, "path3"))
        for path in find_internal_paths(g, 5):
            md = _m1_exact(contract_tree_P5(g, path))
            if md != me:
                viol.append(_violation(g6, me, md, "innerpathcorol"))

    for u in prof.pendants:
        v = prof.pendant_owner[u]
        if g.degree(v) < 3:
            continue
        mr = _m1_exact(reduction_operation(g, u, v))
        if mr != me:
            viol.append(_violation(g6, me, mr, "reduction-op"))
        for w in g.neighbors(v):
            if w == u:
                continue
            ms = _m1_exact(edge_split(g, u, v, w))
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


def verify_lemmas(max_n: int = 10, jobs: int = 1) -> VerificationReport:
    """Lemma sweep over all enumerated trees and unicyclic graphs up to
    max_n, plus star-like constructions and the cycle closed form."""
    t0 = time.monotonic()
    g6s: list[str] = []
    for n in range(1, min(max_n, MAX_TREE_N) + 1):
        g6s.extend(to_graph6(t) for t in free_trees(n))
    for n in range(3, min(max_n, MAX_UNICYCLIC_N) + 1):
        g6s.extend(to_graph6(u) for u in unicyclic_graphs(n))
    violations: list[dict] = []
    for batch in _map_graphs(_check_lemmas, g6s, jobs):
        violations.extend(batch)
    extra = 0
    for s in range(2, 7):
        t = star_like_tree(s)
        extra += 1
        if _m1_exact(t) != 0:
            violations.append(
                _violation(to_graph6(t), 0, _m1_exact(t), "starlike")
            )
        for tt in range(s, 7):
            h = double_star_like_tree(s, tt)
            extra += 1
            if _m1_exact(h) != 0:
                violations.append(
                    _violation(to_graph6(h), 0, _m1_exact(h), "starlike")
                )
    for n in range(3, 31):
        c = cycle_graph(n)
        extra += 1
        want = cycle_multiplicity_one(n)
        got, cross = _cross_oracle(c, to_graph6(c))
        violations.extend(cross)
        if got != want:
            violations.append(
                _violation(to_graph6(c), want, got, "cycle-closed-form")
            )
    return VerificationReport(
        "lemmas",
        (1, max_n),
        len(g6s) + extra,
        _sort_violations(violations),
        int((time.monotonic() - t0) * 1000),
    )


def run_suite(
    suite: str,
    max_n: int | None = None,
    seed: int = 0,
    jobs: int = 1,
    n_random: int = 1000,
) -> list[VerificationReport]:
    """Run one named suite (or all four); returns one report per suite."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    reports = []
    for name in names:
        n_cap = max_n if max_n is not None else DEFAULT_MAX_N[name]
        if name == "thm1":
            reports.append(verify_thm1(n_cap, seed=seed, n_random=n_random, jobs=jobs))
        elif name == "thm2":
            reports.append(verify_thm2(max(n_cap, 6), jobs=jobs))
        elif name == "thm3":
            reports.append(verify_thm3(max(n_cap, 3), jobs=jobs))
        elif name == "lemmas":
            reports.append(verify_lemmas(n_cap, jobs=jobs))
        else:
            raise ValueError(f"unknown suite {suite!r}")
    return reports
