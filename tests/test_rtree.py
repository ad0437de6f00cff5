import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca import rtree
from revca.dynamics import brute_force_reversible, reachable_codes
from revca.rulespace import Rule, RuleParams, parse_rule, rule_from_decimal, sibling_set
from revca.rtree import (
    NodeKernel,
    build_full_tree,
    child_node,
    edge_counts_ok,
    format_node,
    gamma_rmts,
    node_sets,
    node_total,
    node_violates,
    restrict_special,
    root_node,
)

from conftest import eca


def as_gamma(params, *sets):
    """Pack RMT sets into a node: set k in the k-th d^m-bit slot."""
    node = 0
    for k, s in enumerate(sets):
        for r in s:
            node |= 1 << (k * params.table_size + r)
    return node


def gamma_sets(gamma, params):
    return tuple(frozenset(gamma_rmts(g)) for g in node_sets(gamma, params))


class TestNodeBasics:
    def test_root_is_sibling_family(self):
        p = RuleParams(2, 3)
        root = root_node(p)
        assert gamma_sets(root, p) == tuple(
            frozenset(sibling_set(k, p)) for k in range(4)
        )

    def test_eca75_children_of_root(self):
        rule = eca(75)
        p = rule.params
        root = root_node(p)
        child0 = child_node(root, 0, rule)
        assert gamma_sets(child0, p) == gamma_sets(
            as_gamma(p, (), (4, 5), (0, 1, 2, 3), (6, 7)), p
        )
        child1 = child_node(root, 1, rule)
        assert gamma_sets(child1, p) == gamma_sets(
            as_gamma(p, (0, 1, 2, 3), (6, 7), (), (4, 5)), p
        )
        edge0, edge1 = (root & NodeKernel(rule).edges[x] for x in (0, 1))
        # edges partition the parent by output state
        sets0, sets1, root_sets = (node_sets(g, p) for g in (edge0, edge1, root))
        for k in range(4):
            assert (sets0[k] | sets1[k]) == root_sets[k]
            assert (sets0[k] & sets1[k]) == 0

    def test_empty_parent_gives_empty_child(self):
        rule = eca(75)
        empty = as_gamma(rule.params, (), (), (), ())
        child = child_node(empty, 1, rule)
        assert node_total(empty & NodeKernel(rule).edges[1]) == 0
        assert node_total(child) == 0

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            child_node(root_node(RuleParams(2, 3)), 2, eca(75))

    @pytest.mark.parametrize("iota", [-1, 3])
    def test_rejects_bad_placement(self, iota):
        with pytest.raises(ValueError, match="iota"):
            node_violates(root_node(RuleParams(2, 3)), iota, eca(75))

    def test_totals_count_multiplicity(self):
        # rule 85 builds nodes whose sets repeat RMTs; totals still reach d^m
        rule = eca(85)
        child = child_node(root_node(rule.params), 0, rule)
        assert gamma_sets(child, rule.params) == gamma_sets(
            as_gamma(rule.params, (2, 3), (6, 7), (2, 3), (6, 7)), rule.params
        )
        assert node_total(child) == 8
        assert not node_violates(child, 0, rule)


class TestRestriction:
    def test_full_node_keeps_d_pow_iota(self):
        p = RuleParams(2, 3)
        full = as_gamma(p, *[range(p.table_size)] * p.node_width)
        for iota in (1, 2):
            restricted = restrict_special(full, iota, p)
            assert all(g.bit_count() == p.d**iota for g in node_sets(restricted, p))

    def test_empty_stays_empty(self):
        p = RuleParams(2, 3)
        empty = as_gamma(p, (), (), (), ())
        assert restrict_special(empty, 1, p) == empty

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


# Per-set reference for the packed kernels: the node as a tuple of d^(m-1)
# RMT bitmasks, one loop iteration per set.


def ref_state_masks(rule):
    masks = [0] * rule.params.d
    for r, v in enumerate(rule.table):
        masks[v] |= 1 << r
    return masks


def ref_child(parent, state, rule):
    p = rule.params
    width_mask = (1 << p.node_width) - 1
    sibl = [((1 << p.d) - 1) << (p.d * j) for j in range(p.node_width)]
    edge = tuple(g & ref_state_masks(rule)[state] for g in parent)
    child = []
    for g in edge:
        folded = 0
        for c in range(p.d):
            folded |= (g >> (c * p.node_width)) & width_mask
        out = 0
        for j in range(p.node_width):
            if folded >> j & 1:
                out |= sibl[j]
        child.append(out)
    return edge, tuple(child)


def ref_restrict(gamma, iota, p):
    out = []
    for k, g in enumerate(gamma):
        anchor = k // p.d ** (iota - 1)
        mask = 0
        for j in range(p.d**iota):
            mask |= 1 << (anchor + j * p.d ** (p.m - iota))
        out.append(g & mask)
    return tuple(out)


def ref_total(gamma):
    return sum(g.bit_count() for g in gamma)


def ref_violates(gamma, iota, rule):
    p = rule.params
    if iota:
        gamma = ref_restrict(gamma, iota, p)
    counts = [sum((g & mask).bit_count() for g in gamma) for mask in ref_state_masks(rule)]
    return sum(counts) != p.d ** (iota or p.m) or len(set(counts)) != 1


KERNEL_SHAPES = [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (5, 3)]


class TestPackedKernel:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_per_set_reference(self, data):
        # random child walks from the root, optionally restricted on the way
        # as the last m-1 levels of a full tree are
        d, m = data.draw(st.sampled_from(KERNEL_SHAPES))
        p = RuleParams(d, m)
        size = p.table_size
        table = data.draw(st.lists(st.integers(0, d - 1), min_size=size, max_size=size))
        rule = Rule(p, tuple(table))
        walk = data.draw(
            st.lists(
                st.tuples(st.integers(0, d - 1), st.integers(0, m - 1), st.integers(0, 2**m - 1)),
                max_size=10,
            )
        )
        kernel = NodeKernel(rule)
        node = root_node(p)
        ref = tuple(((1 << d) - 1) << (d * k) for k in range(p.node_width))
        for state, iota, iotas in walk:
            assert tuple(node_sets(node, p)) == ref
            assert node_total(node) == ref_total(ref)
            assert node_violates(node, 0, rule) == ref_violates(ref, 0, rule)
            for j in range(1, m):
                assert tuple(node_sets(restrict_special(node, j, p), p)) == ref_restrict(ref, j, p)
                assert node_violates(node, j, rule) == ref_violates(ref, j, rule)
            # the batched check gives every placement's verdict at once
            failed = kernel.failures(node)
            assert failed == sum(node_violates(node, j, rule) << j for j in range(m))
            assert failed == sum(ref_violates(ref, j, rule) << j for j in range(m))
            assert kernel.failures(node, iotas) == failed & iotas
            edge = node & kernel.edges[state]
            node = child_node(node, state, rule)
            ref_edge, ref = ref_child(ref, state, rule)
            assert tuple(node_sets(edge, p)) == ref_edge
            assert node_total(edge) == ref_total(ref_edge)
            if iota:
                node = restrict_special(node, iota, p)
                ref = ref_restrict(ref, iota, p)
        assert tuple(node_sets(node, p)) == ref

    @pytest.mark.parametrize("d,m", KERNEL_SHAPES)
    def test_state_masks_match_table(self, d, m):
        # bit k*d^m + r of state x's mask is set iff table[r] = x, in every slot k
        p = RuleParams(d, m)
        rng = random.Random(10 * d + m)
        rule = Rule(p, tuple(rng.randrange(d) for _ in range(p.table_size)))
        expected = [0] * d
        for k in range(p.node_width):
            for r, x in enumerate(rule.table):
                expected[x] |= 1 << (k * p.table_size + r)
        assert list(NodeKernel(rule).edges) == expected

    @pytest.mark.parametrize("d,m", [(2, 12), (4, 6), (16, 3)])
    def test_largest_shapes(self, d, m):
        # d^m = 4096, the table limit: the root's children still hold one
        # sibling block per edge RMT
        p = RuleParams(d, m)
        rule = Rule(p, tuple(r % d for r in range(p.table_size)))
        child = child_node(root_node(p), 1, rule)
        assert node_total(root_node(p) & NodeKernel(rule).edges[1]) == p.node_width
        assert node_total(child) == p.table_size
        assert not node_violates(child, 0, rule)
        kernel = NodeKernel(rule)
        for node in (root_node(p), child, kernel.child(child, 0), restrict_special(child, 1, p)):
            assert kernel.failures(node) == sum(node_violates(node, j, rule) << j for j in range(m))


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

    def test_node_limit(self, monkeypatch):
        monkeypatch.setattr(rtree, "DEFAULT_TREE_LIMIT", 3)
        with pytest.raises(ValueError, match="node limit"):
            build_full_tree(eca(51), 6)


class TestTreeDecision:
    def test_examples(self):
        assert build_full_tree(parse_rule("1010101010101010", RuleParams(2, 4)), 5).complete
        assert not build_full_tree(eca(75), 6).complete

    def test_matches_brute_force_on_sample(self):
        rng = random.Random(11)
        cases = []
        for _ in range(20):
            cases.append(rule_from_decimal(rng.randrange(256), RuleParams(2, 3)))
        for _ in range(10):
            cases.append(rule_from_decimal(rng.randrange(3**9), RuleParams(3, 2)))
        for rule in cases:
            for n in range(rule.params.m, 11):
                assert build_full_tree(rule, n).complete == brute_force_reversible(
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
                assert not build_full_tree(rule, n).complete, (value, n)
