"""Extremal generators, and the verify suites that check them against the
enumerated class."""

from __future__ import annotations

import pytest

import lap1.verify as verify
from lap1.canon import canonical_form
from lap1.enumeration import trees_in_class_T, unicyclic_in_class_G
from lap1.extremal import (
    ExtremalSpec,
    extremal_tree,
    extremal_unicyclic,
)
from lap1.graphs import in_class_G, spider
from lap1.linalg import laplacian_multiplicity_one as m1
from families import caterpillar_gadget, is_unicyclic


class TestExtremalTree:
    def test_base_case_is_unique_class_member(self):
        t = extremal_tree(6)
        assert canonical_form(t) == canonical_form(spider([2, 2, 1]))
        assert m1(t) == 0

    def test_attains_bound(self):
        for n in (6, 10, 14, 18, 22):
            t = extremal_tree(n)
            assert t.n == n and t.is_tree() and in_class_G(t)
            assert 4 * m1(t) == n - 6

    def test_gadget_peeling_recursion(self):
        for n in (10, 14, 18):
            t = extremal_tree(n)
            peeled, _ = t.delete_vertices(caterpillar_gadget((n - 6) // 4))
            assert m1(t) == 1 + m1(peeled)
            assert canonical_form(peeled) == canonical_form(extremal_tree(n - 4))

    def test_validation(self):
        for bad in (5, 8, 12, 2):
            with pytest.raises(ValueError):
                extremal_tree(bad)


class TestExtremalUnicyclic:
    def test_sun_at_twelve(self):
        g = extremal_unicyclic(12)
        assert g.n == 12 and is_unicyclic(g) and in_class_G(g)
        assert m1(g) == 3

    def test_attains_bound(self):
        for n in (12, 16, 20):
            g = extremal_unicyclic(n)
            assert 4 * m1(g) == n and in_class_G(g)

    def test_validation(self):
        for bad in (10, 14, 8, 9):
            with pytest.raises(ValueError):
                extremal_unicyclic(bad)


class TestSpec:
    def test_spec_k(self):
        assert ExtremalSpec("tree", 14).k == 2
        assert ExtremalSpec("unicyclic", 16).k == 4
        with pytest.raises(ValueError):
            ExtremalSpec("grid", 12)


# The suites compare the one class member attaining the bound with the
# builder's graph, so a builder that makes another member is reported.
@pytest.mark.parametrize("entry, n, builder, members, rule", [
    pytest.param(verify.verify_thm2, 10, "extremal_tree_unverified",
                 trees_in_class_T, "thm2-extremal", id="thm2"),
    pytest.param(verify.verify_thm3, 12, "extremal_unicyclic_unverified",
                 unicyclic_in_class_G, "thm3-extremal", id="thm3"),
])
def test_suite_rejects_another_member_as_extremal(
    monkeypatch, entry, n, builder, members, rule
):
    real = getattr(verify, builder)
    extremal = canonical_form(real(n))
    other = next(g for g in members(n) if canonical_form(g) != extremal)
    monkeypatch.setattr(verify, builder, lambda k: other if k == n else real(k))
    r = entry(max_n=n)
    assert [(v["rule"], v["graph6"], v["expected"]) for v in r.violations] == [
        (rule, extremal, f"unique extremal {canonical_form(other)}")
    ]
