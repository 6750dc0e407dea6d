"""Enumeration: counts against independent oracles and fixtures,
structural cross-checks against networkx, class filters, random graphs."""

from __future__ import annotations

import hashlib
import sys

import networkx as nx
import pytest

import lap1.cli as cli
from lap1 import canon, enumeration
from lap1.canon import canonical_form
from lap1.enumeration import (
    MAX_TREE_N,
    MAX_UNICYCLIC_N,
    free_trees,
    random_connected_graph,
    trees_in_class_T,
    unicyclic_graphs,
    unicyclic_in_class_G,
)
from lap1.graph6 import parse_graph6, to_graph6
from lap1.graphs import Graph, in_class_G
from families import is_unicyclic
from fixtures import (
    CLASS_TREE_COUNTS,
    CLASS_UNICYCLIC_COUNTS,
    FREE_TREE_COUNTS,
    TREE_LEVEL_SHA256,
    UNICYCLIC_COUNTS,
    UNICYCLIC_LEVEL_SHA256,
)
from oracles import (
    ahu_code,
    count_free_trees,
    count_unicyclic,
    in_bound_class,
    leaf_neighbours_have_one_leaf,
    no_leaf_on_two_degree_two_vertices,
    prufer_tree_classes,
)


def adjacency_lists(g: Graph) -> list[list[int]]:
    return [list(g.neighbors(v)) for v in range(g.n)]


def cli_enumerate(capsys, cls: str, n: int, *flags: str) -> list[str]:
    assert cli.main(["enumerate", "--class", cls, "--n", str(n), *flags]) == 0
    return capsys.readouterr().out.split()


def level(graphs) -> list[str]:
    """The graph6 strings of a stream, sorted."""
    return sorted(to_graph6(g) for g in graphs)


def level_digest(strings: list[str]) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()


# the family generators' rule sets, each with its oracle predicates
RULE_ORACLES = {
    ("reduced",): (leaf_neighbours_have_one_leaf,),
    ("no_p3",): (no_leaf_on_two_degree_two_vertices,),
    ("reduced", "no_p3"): (leaf_neighbours_have_one_leaf,
                           no_leaf_on_two_degree_two_vertices),
}


class TestLevels:
    def test_levels_are_pinned_and_counted(self):
        # every level up to the caps, byte for byte, and its size against
        # the Otter and dihedral counting formulas; each rule set streams
        # the level's graphs that obey it by the oracle, in generation
        # order, and the class list, both rules, has its size pinned
        for family, orders, count, digests, members, sizes in [
            (free_trees, range(1, MAX_TREE_N + 1), count_free_trees,
             TREE_LEVEL_SHA256, trees_in_class_T, CLASS_TREE_COUNTS),
            (unicyclic_graphs, range(3, MAX_UNICYCLIC_N + 1), count_unicyclic,
             UNICYCLIC_LEVEL_SHA256, unicyclic_in_class_G,
             CLASS_UNICYCLIC_COUNTS),
        ]:
            for n in orders:
                strings, kept = [], {rules: [] for rules in RULE_ORACLES}
                for g in family(n):
                    strings.append(to_graph6(g))
                    adj = adjacency_lists(g)
                    for rules, oracles in RULE_ORACLES.items():
                        if all(obeys(adj) for obeys in oracles):
                            kept[rules].append(g)
                strings.sort()
                assert level_digest(strings) == digests[n], (family, n)
                assert len(strings) == count(n), (family, n)
                for rules, want in kept.items():
                    built = family(n, **dict.fromkeys(rules, True))
                    assert list(built) == want, (family, n, rules)
                want = kept["reduced", "no_p3"]
                assert members(n) == want, (family, n)
                assert len(want) == sizes[n], (family, n)

    def test_every_pass_yields_the_same_sequence(self):
        # the streams are built afresh on each call, in generation order
        for family, n in [(free_trees, 12), (unicyclic_graphs, 10)]:
            assert list(family(n)) == list(family(n)), family

    def test_enumeration_labels_nothing(self, monkeypatch):
        # each graph is built from the word it was generated as, so no
        # word is ever read off a graph
        def forbidden(*args):
            raise AssertionError("enumeration labelled a graph")

        monkeypatch.setattr(canon, "_read_word", forbidden)
        enumeration._rooted.cache_clear()
        enumeration._hanging.cache_clear()
        for n in range(1, MAX_TREE_N + 1):
            assert sum(1 for _ in free_trees(n)) == count_free_trees(n), n
            assert len(trees_in_class_T(n)) == CLASS_TREE_COUNTS[n], n
        for n in range(3, MAX_UNICYCLIC_N + 1):
            assert sum(1 for _ in unicyclic_graphs(n)) == count_unicyclic(n), n
            assert len(unicyclic_in_class_G(n)) == CLASS_UNICYCLIC_COUNTS[n], n

    def test_class_lists_build_only_members(self, monkeypatch):
        # the class comes from its own tables, so each graph built is kept
        built = 0

        def counted(word):
            nonlocal built
            built += 1
            return canon.build(word)

        monkeypatch.setattr(enumeration, "build", counted)
        members = trees_in_class_T(MAX_TREE_N)
        assert len(members) == built == CLASS_TREE_COUNTS[MAX_TREE_N]
        built = 0
        members = unicyclic_in_class_G(MAX_UNICYCLIC_N)
        assert len(members) == built == CLASS_UNICYCLIC_COUNTS[MAX_UNICYCLIC_N]


class TestTreeEnumeration:
    def test_counts_match_fixture(self):
        for n in range(1, 11):
            assert sum(1 for _ in free_trees(n)) == FREE_TREE_COUNTS[n]

    def test_counts_match_otter_formula(self):
        for n in range(1, 13):
            assert count_free_trees(n) == FREE_TREE_COUNTS[n]

    def test_examples(self):
        assert sum(1 for _ in free_trees(4)) == 2
        assert sum(1 for _ in free_trees(7)) == 11
        assert list(free_trees(1))[0] == Graph(1)

    def test_no_duplicate_forms_and_all_trees(self):
        for n in range(1, 10):
            forms = [canonical_form(t) for t in free_trees(n)]
            assert len(set(forms)) == len(forms)
            assert all(t.is_tree() for t in free_trees(n))

    def test_emitted_in_canonical_string_order(self, capsys):
        # the streams come in generation order; `lap1 enumerate` sorts
        for cls, n in [("tree", 8), ("unicyclic", 7)]:
            lines = cli_enumerate(capsys, cls, n)
            assert lines == sorted(set(lines)), cls

    def test_structural_match_with_networkx(self):
        for n in range(2, 11):
            ours = {canonical_form(t) for t in free_trees(n)}
            theirs = set()
            for nxt in nx.nonisomorphic_trees(n):
                edges = [tuple(e) for e in nxt.edges()]
                theirs.add(canonical_form(Graph(n, edges)))
            assert ours == theirs

    def test_structural_match_with_prufer_oracle(self):
        for n in range(3, 8):
            ours = {ahu_code(n, t.sorted_edges()) for t in free_trees(n)}
            assert ours == prufer_tree_classes(n)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            list(free_trees(0))
        with pytest.raises(ValueError):
            list(free_trees(17))


class TestUnicyclicEnumeration:
    def test_counts_match_fixture(self):
        for n in range(3, 11):
            assert sum(1 for _ in unicyclic_graphs(n)) == UNICYCLIC_COUNTS[n]

    def test_counts_match_dihedral_formula(self):
        for n in range(3, 13):
            assert count_unicyclic(n) == UNICYCLIC_COUNTS[n]

    def test_examples(self):
        assert sum(1 for _ in unicyclic_graphs(3)) == 1
        assert sum(1 for _ in unicyclic_graphs(5)) == 5
        assert sum(1 for _ in unicyclic_graphs(6)) == 13

    def test_all_unicyclic_no_duplicates(self):
        for n in range(3, 9):
            graphs = list(unicyclic_graphs(n))
            forms = [canonical_form(g) for g in graphs]
            assert len(set(forms)) == len(forms)
            assert all(map(is_unicyclic, graphs))

    def test_structural_match_with_atlas(self):
        # the graph atlas holds every graph on up to 7 vertices exactly once
        from networkx.generators.atlas import graph_atlas_g

        atlas = graph_atlas_g()
        for n in range(3, 8):
            theirs = set()
            for ag in atlas:
                if ag.number_of_nodes() != n or ag.number_of_edges() != n:
                    continue
                if not nx.is_connected(ag):
                    continue
                relabeled = nx.convert_node_labels_to_integers(ag)
                theirs.add(canonical_form(Graph(n, list(relabeled.edges()))))
            ours = {canonical_form(g) for g in unicyclic_graphs(n)}
            assert ours == theirs

    def test_range_validation(self):
        with pytest.raises(ValueError):
            list(unicyclic_graphs(2))
        with pytest.raises(ValueError):
            list(unicyclic_graphs(15))


class TestFilters:
    def test_class_T_census_six_to_nine(self):
        sizes = {n: len(trees_in_class_T(n)) for n in range(6, 10)}
        assert sizes == {6: 1, 7: 1, 8: 2, 9: 3}
        assert sum(sizes.values()) == 7  # the seven small reduced no-P3 trees

    def test_unique_member_at_six(self):
        members = trees_in_class_T(6)
        from lap1.graphs import spider

        assert len(members) == 1
        assert canonical_form(members[0]) == canonical_form(spider([2, 2, 1]))

    def test_filtered_graphs_satisfy_predicates(self):
        for t in trees_in_class_T(8):
            assert in_class_G(t) and t.is_tree()
        for g in unicyclic_in_class_G(9):
            assert in_class_G(g) and is_unicyclic(g)

    def test_range_validation(self):
        for members, n in [(trees_in_class_T, 0),
                           (trees_in_class_T, MAX_TREE_N + 1),
                           (unicyclic_in_class_G, 2),
                           (unicyclic_in_class_G, MAX_UNICYCLIC_N + 1)]:
            with pytest.raises(ValueError):
                members(n)

    def test_filter_is_subset_and_order_stable(self):
        all8 = [canonical_form(t) for t in free_trees(8)]
        sub = [canonical_form(t) for t in trees_in_class_T(8)]
        assert [f for f in all8 if f in set(sub)] == sub

    def test_class_lists_match_the_oracle(self):
        for n, family, members in [
            *((n, free_trees, trees_in_class_T) for n in range(1, 13)),
            *((n, unicyclic_graphs, unicyclic_in_class_G) for n in range(3, 11)),
        ]:
            want = [canonical_form(g) for g in family(n)
                    if in_bound_class(adjacency_lists(g))]
            assert [canonical_form(g) for g in members(n)] == want, (family, n)

    @pytest.mark.parametrize("cls, least, top", [
        ("tree", 1, 13), ("unicyclic", 3, 11)])
    def test_cli_filters_match_the_oracle(self, capsys, cls, least, top):
        # every order up to top; the levels test covers the rules to the caps
        reduced = leaf_neighbours_have_one_leaf
        no_p3 = no_leaf_on_two_degree_two_vertices
        for n in range(least, top + 1):
            everything = cli_enumerate(capsys, cls, n)
            for spec, keep in [
                ("reduced", reduced),
                ("noP3", no_p3),
                ("nop3", no_p3),
                ("no-pendant-P3", no_p3),
                ("reduced,noP3", in_bound_class),
                ("no-pendant-P3,reduced", in_bound_class),
            ]:
                want = [s for s in everything
                        if keep(adjacency_lists(parse_graph6(s)))]
                got = cli_enumerate(capsys, cls, n, "--filter", spec)
                assert got == want, (n, spec)

    @pytest.mark.parametrize("cls, n", [("tree", 13), ("unicyclic", 11)])
    @pytest.mark.parametrize("spec", ["reduced", "noP3", "reduced,noP3"])
    def test_cli_filters_build_only_what_they_print(
        self, monkeypatch, capsys, cls, n, spec
    ):
        # a filter selects the generator's rules, so every graph built is
        # printed and none is built to be thrown away
        built = 0
        real = canon.build

        def counted(word):
            nonlocal built
            built += 1
            return real(word)

        for name, module in list(sys.modules.items()):
            if name.startswith("lap1") and getattr(module, "build", None) is real:
                monkeypatch.setattr(module, "build", counted)
        printed = cli_enumerate(capsys, cls, n, "--filter", spec)
        assert 0 < len(printed) == built, (len(printed), built)


class TestRandomGraphs:
    def test_deterministic(self):
        a = random_connected_graph(8, "1/4", seed=1)
        b = random_connected_graph(8, "1/4", seed=1)
        assert a == b

    def test_connected_and_sized(self):
        for seed in range(30):
            g = random_connected_graph(10, "1/5", seed=seed)
            assert g.n == 10 and g.is_connected()

    def test_seed_changes_graph(self):
        outs = {random_connected_graph(9, "1/3", seed=s) for s in range(10)}
        assert len(outs) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            random_connected_graph(0, "1/2", seed=0)
        with pytest.raises(ValueError):
            random_connected_graph(5, "7/5", seed=0)
