import random

import pytest

from revca.dynamics import brute_force_reversible, reachable_codes
from revca.rulespace import Rule, RuleParams, parse_rule, rule_from_decimal, sibling_set
from revca.rtree import (
    build_full_tree,
    child_node,
    edge_counts_ok,
    format_node,
    gamma_rmts,
    node_total,
    node_violates,
    restrict_special,
    reversible_for_n_by_tree,
    root_node,
)

from conftest import eca


def as_gamma(params, *sets):
    out = []
    for s in sets:
        mask = 0
        for r in s:
            mask |= 1 << r
        out.append(mask)
    return tuple(out)


def gamma_sets(gamma):
    return tuple(frozenset(gamma_rmts(g)) for g in gamma)


class TestNodeBasics:
    def test_root_is_sibling_family(self):
        p = RuleParams(2, 3)
        root = root_node(p)
        assert gamma_sets(root) == tuple(
            frozenset(sibling_set(k, p)) for k in range(4)
        )

    def test_eca75_children_of_root(self):
        rule = eca(75)
        root = root_node(rule.params)
        edge0, child0 = child_node(root, 0, rule)
        assert gamma_sets(child0) == gamma_sets(
            as_gamma(rule.params, (), (4, 5), (0, 1, 2, 3), (6, 7))
        )
        edge1, child1 = child_node(root, 1, rule)
        assert gamma_sets(child1) == gamma_sets(
            as_gamma(rule.params, (0, 1, 2, 3), (6, 7), (), (4, 5))
        )
        assert edge0.state == 0 and edge1.state == 1
        # edges partition the parent by output state
        for k in range(4):
            assert (edge0.gamma[k] | edge1.gamma[k]) == root[k]
            assert (edge0.gamma[k] & edge1.gamma[k]) == 0

    def test_empty_parent_gives_empty_child(self):
        rule = eca(75)
        empty = (0, 0, 0, 0)
        edge, child = child_node(empty, 1, rule)
        assert node_total(edge.gamma) == 0
        assert node_total(child) == 0

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            child_node(root_node(RuleParams(2, 3)), 2, eca(75))

    def test_totals_count_multiplicity(self):
        # rule 85 builds nodes whose sets repeat RMTs; totals still reach d^m
        rule = eca(85)
        _, child = child_node(root_node(rule.params), 0, rule)
        assert gamma_sets(child) == gamma_sets(
            as_gamma(rule.params, (2, 3), (6, 7), (2, 3), (6, 7))
        )
        assert node_total(child) == 8
        assert not node_violates(child, 0, rule)


class TestRestriction:
    def test_full_node_keeps_d_pow_iota(self):
        p = RuleParams(2, 3)
        full = tuple((1 << p.table_size) - 1 for _ in range(p.node_width))
        for iota in (1, 2):
            restricted = restrict_special(full, iota, p)
            assert all(g.bit_count() == p.d**iota for g in restricted)

    def test_empty_stays_empty(self):
        p = RuleParams(2, 3)
        assert restrict_special((0,) * 4, 1, p) == (0,) * 4

    def test_eca75_level_violation(self):
        rule = eca(75)
        node = as_gamma(rule.params, (), (4, 5), (0, 1, 2, 3), (6, 7))
        restricted = restrict_special(node, 1, rule.params)
        assert node_total(restricted) == 3  # != d, drives the even-size violation

    def test_iota_out_of_range(self):
        with pytest.raises(ValueError):
            restrict_special(root_node(RuleParams(2, 3)), 3, RuleParams(2, 3))

    def test_format_node(self):
        p = RuleParams(2, 3)
        node = as_gamma(p, (0, 1), (), (4, 5), (6, 7))
        assert format_node(node, p) == "({0, 1}, ∅, {4, 5}, {6, 7})"


class TestFullTree:
    def test_complete_example(self):
        rule = parse_rule("1010101010101010", RuleParams(2, 4))
        tree = build_full_tree(rule, 5)
        assert tree.complete
        assert tree.leaf_count == 2**5
        assert edge_counts_ok(tree)

    def test_eca75_even_size_has_empty_edge(self):
        tree = build_full_tree(eca(75), 2)
        assert not tree.complete

    def test_strictly_irreversible_incomplete_at_m(self):
        for value in (90, 30, 0):
            rule = eca(value)
            tree = build_full_tree(rule, 3)
            assert not tree.complete
            assert not brute_force_reversible(rule, 3)

    def test_leaf_count_is_reachable_count(self):
        rng = random.Random(7)
        params = RuleParams(2, 3)
        for _ in range(25):
            rule = rule_from_decimal(rng.randrange(256), params)
            for n in (3, 4, 5):
                tree = build_full_tree(rule, n)
                assert tree.leaf_count == len(reachable_codes(rule, n))

    def test_node_limit(self):
        with pytest.raises(ValueError, match="node limit"):
            build_full_tree(eca(51), 6, limit=3)


class TestTreeDecision:
    def test_examples(self):
        assert reversible_for_n_by_tree(parse_rule("1010101010101010", RuleParams(2, 4)), 5)
        assert not reversible_for_n_by_tree(eca(75), 6)

    def test_requires_n_at_least_m(self):
        with pytest.raises(ValueError):
            reversible_for_n_by_tree(eca(75), 2)

    def test_matches_brute_force_on_sample(self):
        rng = random.Random(11)
        cases = []
        for _ in range(20):
            cases.append(rule_from_decimal(rng.randrange(256), RuleParams(2, 3)))
        for _ in range(10):
            cases.append(rule_from_decimal(rng.randrange(3**9), RuleParams(3, 2)))
        for rule in cases:
            for n in range(rule.params.m, 11):
                assert reversible_for_n_by_tree(rule, n) == brute_force_reversible(
                    rule, n
                ), (rule, n)


class TestTheorems:
    def sample(self, count=100, seed=3):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            params = rng.choice([RuleParams(2, 3), RuleParams(3, 2), RuleParams(2, 4)])
            rule = rule_from_decimal(rng.randrange(params.d**params.table_size), params)
            n = rng.randrange(params.m, 11)
            out.append((rule, n))
        return out

    def test_completeness_iff_edge_counts(self):
        # Theorem-style equivalence, both directions, on 100 sampled pairs
        for rule, n in self.sample():
            tree = build_full_tree(rule, n)
            assert tree.complete == edge_counts_ok(tree), (rule, n)
            assert tree.complete == brute_force_reversible(rule, n), (rule, n)

    def test_complete_tree_node_counts(self):
        # node totals in complete trees: d at the leaves, d^iota at level
        # n-iota, d^m elsewhere
        for rule, n in self.sample(count=40, seed=5):
            tree = build_full_tree(rule, n)
            if not tree.complete:
                continue
            p = rule.params
            for level, nodes in enumerate(tree.level_nodes):
                iota = n - level
                if iota == 0:
                    expected = p.d
                elif 1 <= iota <= p.m - 1:
                    expected = p.d**iota
                else:
                    expected = p.table_size
                for gamma in nodes:
                    assert node_total(gamma) == expected, (rule, n, level)

    def test_complete_tree_nodes_balanced(self):
        for rule, n in self.sample(count=40, seed=9):
            tree = build_full_tree(rule, n)
            if not tree.complete:
                continue
            for level, nodes in enumerate(tree.level_nodes[:-1]):
                iota = n - level if n - level < rule.params.m else 0
                for gamma in nodes:
                    assert not node_violates(gamma, iota, rule), (rule, n, level)

    def test_unbalanced_non_strict_ecas_never_reversible_at_m_or_beyond(self):
        from revca.rulespace import is_balanced_rule, is_strictly_irreversible

        for value in range(256):
            rule = eca(value)
            if is_balanced_rule(rule) or is_strictly_irreversible(rule):
                continue
            for n in range(3, 11):
                assert not reversible_for_n_by_tree(rule, n), (value, n)
