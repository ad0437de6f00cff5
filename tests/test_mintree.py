import json
import random

import pytest

from revca.classifier import classify, is_reversible_for
from revca.mintree import (
    build_minimized,
    dump_json,
    exact_occurrences,
    export_minimized_dot,
    level_sequence,
    loops_of,
    occurs_at_level,
    tree_to_json,
)
from revca.rulespace import RuleParams, parse_rule, rule_from_decimal
from revca.rtree import build_full_tree, gamma_rmts, reversible_for_n_by_tree

from conftest import eca


def as_gamma(*sets, params=RuleParams(2, 3)):
    """Pack RMT sets into a node: set k in the k-th d^m-bit slot."""
    node = 0
    for k, s in enumerate(sets):
        for r in s:
            node |= 1 << (k * params.table_size + r)
    return node


# the full unique-node table for rule 75 (d=2, m=3): gamma -> level set
ECA75_TABLE = {
    as_gamma((0, 1), (2, 3), (4, 5), (6, 7)): [0],
    as_gamma((), (4, 5), (0, 1, 2, 3), (6, 7)): [1, 3],
    as_gamma((0, 1, 2, 3), (6, 7), (), (4, 5)): [1, 3],
    as_gamma((), (0, 1, 2, 3), (4, 5), (6, 7)): [2, 4],
    as_gamma((), (), (0, 1, 2, 3, 6, 7), (4, 5)): [2, 4],
    as_gamma((4, 5), (6, 7), (), (0, 1, 2, 3)): [2, 4],
    as_gamma((0, 1, 2, 3, 6, 7), (4, 5), (), ()): [2, 4],
    as_gamma((), (0, 1, 2, 3, 6, 7), (), (4, 5)): [3, 5],
    as_gamma((), (), (4, 5, 6, 7), (0, 1, 2, 3)): [3, 5],
    as_gamma((), (), (0, 1, 2, 3, 4, 5, 6, 7), ()): [3, 4],
    as_gamma((), (4, 5), (), (0, 1, 2, 3, 6, 7)): [3, 5],
    as_gamma((4, 5, 6, 7), (0, 1, 2, 3), (), ()): [3, 5],
    as_gamma((0, 1, 2, 3, 4, 5, 6, 7), (), (), ()): [3, 4],
    as_gamma((), (4, 5, 6, 7), (), (0, 1, 2, 3)): [4, 6],
    as_gamma((), (0, 1, 2, 3, 4, 5, 6, 7), (), ()): [4, 5],
    as_gamma((), (), (4, 5), (0, 1, 2, 3, 6, 7)): [4, 6],
    as_gamma((), (0, 1, 2, 3), (), (4, 5, 6, 7)): [4, 6],
    as_gamma((), (), (), (0, 1, 2, 3, 4, 5, 6, 7)): [4, 5],
    as_gamma((4, 5), (0, 1, 2, 3, 6, 7), (), ()): [4, 6],
    as_gamma((), (), (0, 1, 2, 3), (4, 5, 6, 7)): [5, 7],
    as_gamma((0, 1, 2, 3), (4, 5, 6, 7), (), ()): [5, 7],
}


class TestEca75Tree:
    def test_node_count_and_height(self):
        tree = build_minimized(eca(75))
        assert tree.unique_nodes == 21
        assert tree.height == 5

    def test_every_node_and_level_set(self):
        tree = build_minimized(eca(75))
        got = {tree.gammas[i]: tree.levels[i] for i in range(tree.unique_nodes)}
        assert got == ECA75_TABLE


class TestSizes:
    @pytest.mark.parametrize(
        "d,m,text,nodes,height",
        [
            (2, 4, "1010101010101010", 15, 3),
            (3, 3, "012012012012012012012012012", 13, 2),
            (2, 3, "01010101", 7, 2),
            (2, 3, "10010110", 12, 4),
        ],
    )
    def test_known_trees(self, d, m, text, nodes, height):
        tree = build_minimized(parse_rule(text, RuleParams(d, m)))
        assert (tree.unique_nodes, tree.height) == (nodes, height)


class TestOccurrence:
    def test_loop_membership(self):
        tree = build_minimized(eca(75))
        by_levels = {tuple(tree.levels[i]): i for i in range(tree.unique_nodes)}
        node13 = by_levels[(1, 3)]
        assert occurs_at_level(tree, node13, 7)  # period 2
        assert not occurs_at_level(tree, node13, 6)
        node34 = by_levels[(3, 4)]
        assert occurs_at_level(tree, node34, 6)  # period 1
        assert occurs_at_level(tree, node34, 3)
        assert not occurs_at_level(tree, node34, 2)

    def test_no_loop_single_level(self):
        tree = build_minimized(eca(75))
        root = 0
        assert occurs_at_level(tree, root, 0)
        assert not occurs_at_level(tree, root, 5)

    def test_rejects_negative(self):
        tree = build_minimized(eca(75))
        with pytest.raises(ValueError):
            occurs_at_level(tree, 0, -1)

    def test_level_set_misses_a_level(self):
        # ECA 23's node 17 has the level set {4, 6}, yet sits at level 7
        rule = eca(23)
        tree = build_minimized(rule)
        assert tree.levels[17] == [4, 6]
        assert occurs_at_level(tree, 17, 7)
        assert tree.gammas[17] in build_full_tree(rule, 10).level_nodes[7]

    @pytest.mark.parametrize("value", [23, 27, 43, 57, 75, 105])
    def test_every_intermediate_node_occurs(self, value):
        # levels 0..n-m of a size-n tree carry no wrap-around restriction,
        # so one n covers the intermediate levels of every smaller size
        rule = eca(value)
        tree = build_minimized(rule)
        index = {g: i for i, g in enumerate(tree.gammas)}
        occurrences = exact_occurrences(tree)
        n = 12
        full = build_full_tree(rule, n)
        for level in range(n - rule.params.m + 1):
            for gamma in full.level_nodes[level]:
                assert level in occurrences[index[gamma]], (value, level)

    def test_truncated_tree_rejected(self):
        tree = build_minimized(eca(43), stop_on_violation=True)
        with pytest.raises(ValueError, match="fully built"):
            occurs_at_level(tree, 0, 0)

    def test_loops(self):
        tree = build_minimized(eca(75))
        by_levels = {tuple(tree.levels[i]): i for i in range(tree.unique_nodes)}
        assert loops_of(tree, by_levels[(1, 3)]) == [(1, 2)]
        assert loops_of(tree, by_levels[(2, 4)]) == [(2, 2)]
        assert loops_of(tree, 0) == []


class TestConstruction:
    def test_deterministic(self):
        a = build_minimized(eca(110))
        b = build_minimized(eca(110))
        assert a.gammas == b.gammas
        assert a.levels == b.levels
        assert a.children == b.children

    def test_node_limit(self):
        with pytest.raises(ValueError, match="nodes"):
            build_minimized(eca(75), max_nodes=5)

    def test_strictly_irreversible_rule_still_builds(self):
        tree = build_minimized(eca(0))
        assert tree.unique_nodes >= 2  # root plus at least the empty node

    def test_stop_on_violation_truncates(self):
        tree = build_minimized(eca(43), stop_on_violation=True)
        assert tree.stopped_at == 2
        assert tree.stop_horizon == 5  # level 2 + m
        assert (tree.unique_nodes, tree.height) == (4, 2)
        full = build_minimized(eca(43))
        assert full.stopped_at is None
        assert full.unique_nodes > 4

    def test_self_loop_violation_stops(self):
        # this rule's fixpoint tree is enormous (>100k nodes); the period-1
        # loop check must cut construction short with a sound horizon
        rule = rule_from_decimal(5865, RuleParams(2, 4))
        tree = build_minimized(rule, stop_on_violation=True)
        assert tree.stopped_at is not None
        assert tree.stop_horizon >= rule.params.m
        assert tree.unique_nodes < 10_000
        # and the horizon is honest: every size from it on is irreversible
        from revca.debruijn import pair_trace_oracle

        for n in range(tree.stop_horizon, tree.stop_horizon + 4):
            assert not pair_trace_oracle(rule, n)

    def test_non_violating_rule_ignores_stop_flag(self):
        a = build_minimized(eca(75), stop_on_violation=True)
        assert a.stopped_at is None
        assert a.unique_nodes == 21


class TestReconstruction:
    def test_intermediate_levels_are_predicted(self):
        # every node the full tree builds at an intermediate level must be a
        # known unique node whose exact occurrence set contains that level
        rng = random.Random(23)
        rules = [rule_from_decimal(rng.randrange(256), RuleParams(2, 3)) for _ in range(12)]
        rules += [rule_from_decimal(rng.randrange(3**9), RuleParams(3, 2)) for _ in range(6)]
        for rule in rules:
            tree = build_minimized(rule)
            index = {g: i for i, g in enumerate(tree.gammas)}
            occurrences = exact_occurrences(tree)
            for n in range(rule.params.m, 11):
                full = build_full_tree(rule, n)
                for level in range(0, n - rule.params.m + 1):
                    predicted = set()
                    for nid, occ in enumerate(occurrences):
                        if level in occ:
                            predicted.add(tree.gammas[nid])
                    for gamma in full.level_nodes[level]:
                        assert gamma in index, (rule, n, level)
                        assert gamma in predicted, (rule, n, level)

    def test_level_sequence_matches_full_tree(self):
        # the unrolled level sets equal the full tree's levels, up to the
        # empty-edge pruning the full tree performs
        rule = eca(75)
        tree = build_minimized(rule)
        prefix, transient, period = level_sequence(tree)

        def at(level):
            if level < transient:
                return prefix[level]
            return prefix[transient + (level - transient) % period]

        for n in (5, 7, 9):
            full = build_full_tree(rule, n)
            for level in range(0, n - rule.params.m + 1):
                actual = set(full.level_nodes[level])
                predicted = {tree.gammas[i] for i in at(level)}
                assert actual <= predicted

    def test_classifier_matches_tree_decision(self):
        rng = random.Random(29)
        rules = [rule_from_decimal(rng.randrange(256), RuleParams(2, 3)) for _ in range(20)]
        rules += [rule_from_decimal(rng.randrange(3**9), RuleParams(3, 2)) for _ in range(10)]
        for rule in rules:
            c = classify(rule, verified_up_to=0)
            for n in range(rule.params.m, 12):
                assert is_reversible_for(c, n) == reversible_for_n_by_tree(rule, n), (
                    rule,
                    n,
                )


class TestExports:
    def test_json_shape(self):
        tree = build_minimized(eca(75))
        payload = tree_to_json(tree)
        assert payload["M"] == 21
        assert payload["height"] == 5
        assert len(payload["nodes"]) == 21
        node = payload["nodes"][0]
        assert set(node) == {"id", "levels", "gamma", "children"}
        assert node["gamma"] == [[0, 1], [2, 3], [4, 5], [6, 7]]
        parsed = json.loads(dump_json(tree))
        assert parsed == payload

    def test_dot_contains_levels_and_edges(self):
        tree = build_minimized(eca(75))
        dot = export_minimized_dot(tree)
        assert "levels {1,3}" in dot
        assert dot.count("->") == sum(
            1 for kids in tree.children for k in kids if k >= 0
        )

    def test_dot_deterministic(self):
        t = build_minimized(eca(105))
        assert export_minimized_dot(t) == export_minimized_dot(t)
