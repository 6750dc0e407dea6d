"""Constructors for the equality-attaining families of the two bounds.

The source figures for these families are not recoverable, so the shapes
were reconstructed from exhaustive sweeps, and `extremal_tree` and
`extremal_unicyclic` re-verify every instance they build against the exact
engine.  The `*_unverified` builders make the same graphs without that
check, for callers that check the multiplicity themselves:

* extremal tree (order n = 4k + 6, multiplicity k): a caterpillar with
  spine P_{3k+5} and one pendant on every third spine vertex starting at
  the third.
* extremal unicyclic (order n = 4k, multiplicity k): the sun C_{3k} with
  one pendant on every third cycle vertex.

That each is the only class member attaining its bound is checked by the
thm2 and thm3 verification suites, against the enumerated class at every
order they reach: n = 6, 10, 14 for trees and n = 12 for suns at their
default sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, in_class_G
from .linalg import laplacian_multiplicity_one

FAMILIES = ("tree", "unicyclic")


@dataclass(frozen=True)
class ExtremalSpec:
    """Validated order/family pair; k is the attained multiplicity."""

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "tree":
            if self.n % 4 != 2 or self.n < 6:
                raise ValueError(
                    f"extremal trees need n = 2 (mod 4), n >= 6; got {self.n}"
                )
        else:
            if self.n % 4 != 0 or self.n < 12:
                raise ValueError(
                    f"extremal unicyclic graphs need n = 0 (mod 4), n >= 12;"
                    f" got {self.n}"
                )

    @property
    def k(self) -> int:
        return (self.n - 6) // 4 if self.family == "tree" else self.n // 4


def _verified(g: Graph, expected_m: int) -> Graph:
    if not in_class_G(g):
        raise RuntimeError("constructed extremal graph left its class")
    actual = laplacian_multiplicity_one(g)
    if actual != expected_m:
        raise RuntimeError(
            f"constructed extremal graph has multiplicity {actual},"
            f" expected {expected_m}"
        )
    return g


def extremal_tree_unverified(n: int) -> Graph:
    """The caterpillar of `extremal_tree`, built without re-checking it.

    Spine vertices are 0..3k+4 in path order; pendant j (vertex 3k+5+j)
    hangs on spine vertex 3j+2.  The first gadget is vertices
    {0, 1, 2, 3k+5}: deleting it leaves the extremal tree of order n-4.
    """
    k = ExtremalSpec("tree", n).k
    spine = 3 * k + 5
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(3 * j + 2, spine + j) for j in range(k + 1)]
    return Graph(n, edges)


def extremal_tree(n: int) -> Graph:
    """The unique tree of its class attaining multiplicity (n - 6) / 4,
    re-verified against the exact engine."""
    return _verified(extremal_tree_unverified(n), ExtremalSpec("tree", n).k)


def extremal_unicyclic_unverified(n: int) -> Graph:
    """The sun of `extremal_unicyclic`, built without re-checking it:
    cycle C_{3k} (vertices 0..3k-1 in cycle order) with pendant 3k+j on
    cycle vertex 3j."""
    k = ExtremalSpec("unicyclic", n).k
    edges = [(i, (i + 1) % (3 * k)) for i in range(3 * k)]
    edges += [(3 * j, 3 * k + j) for j in range(k)]
    return Graph(n, edges)


def extremal_unicyclic(n: int) -> Graph:
    """The sun attaining multiplicity n / 4, re-verified against the
    exact engine."""
    return _verified(extremal_unicyclic_unverified(n), ExtremalSpec("unicyclic", n).k)
