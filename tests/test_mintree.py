import json
import random
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca import mintree
from revca.classifier import classify, is_reversible_for
from revca.mintree import (
    _placed,
    build_minimized,
    dump_json,
    exact_occurrences,
    export_minimized_dot,
    level_sequence,
    loops_of,
    occurs_at_level,
    tree_to_json,
)
from revca.rulespace import Rule, RuleParams, parse_rule, rule_from_decimal
from revca.rtree import (
    build_full_tree,
    child_node,
    gamma_rmts,
    node_violates,
    root_node,
)

from conftest import eca


def as_gamma(*sets, params=RuleParams(2, 3)):
    """Pack RMT sets into a node: set k in the k-th d^m-bit slot."""
    node = 0
    for k, s in enumerate(sets):
        for r in s:
            node |= 1 << (k * params.table_size + r)
    return node


def paper_levels(levels):
    """The paper's level set of a node: [l] for one level, [a, a+period] for
    one progression."""
    loose, anchors = levels.chains
    if not anchors:
        assert len(loose) == 1, levels
        return list(loose)
    assert not loose and len(anchors) == 1, levels
    return [anchors[0], anchors[0] + levels.period]


def by_paper_levels(tree):
    return {tuple(paper_levels(levels)): i for i, levels in enumerate(tree.occurrences)}


# the construction-time level sets the build used to keep, with the period-1
# early stop they drove: the reference for the one-flag trigger


def _implied(levels, p):
    """Membership under the loop rule: p is explicit, or lies on a progression
    anchored at the minimum level with the period of some other explicit level."""
    if p in levels:
        return True
    base = levels[0]
    if p < base:
        return False
    return any((p - base) % (other - base) == 0 for other in levels[1:])


def _pruned(levels):
    """Drop explicit levels already implied by the rest (largest first)."""
    out = sorted(levels)
    changed = True
    while changed:
        changed = False
        for idx in range(len(out) - 1, 0, -1):
            rest = out[:idx] + out[idx + 1 :]
            if _implied(rest, out[idx]):
                out.pop(idx)
                changed = True
                break
    return out


class _Stop(Exception):
    def __init__(self, horizon):
        self.horizon = horizon


def reference_build(rule, max_nodes, stop_on_violation):
    """(gammas, levels, children, height, stopped_at, stop_horizon)"""
    p = rule.params
    root = root_node(p)
    ids = {root: 0}
    gammas, levels, children, created = [root], [[0]], [[-1] * p.d], [[]]
    height = 0

    def add_level(start, new_level):
        work = deque([(start, new_level)])
        while work:
            nid, lvl = work.popleft()
            if _implied(levels[nid], lvl):
                continue
            levels[nid] = _pruned(levels[nid] + [lvl])
            if stop_on_violation and levels[nid][1:2] == [levels[nid][0] + 1]:
                base = levels[nid][0]
                for iota in range(1, p.m):
                    if node_violates(gammas[nid], iota, rule):
                        raise _Stop(base + iota)
            for child in created[nid]:
                work.append((child, lvl + 1))

    frontier, level, stopped_at, stop_horizon = [0], 0, None, None
    try:
        while frontier and stopped_at is None:
            level += 1
            new_frontier = []
            for nid in frontier:
                for x in range(p.d):
                    child = child_node(gammas[nid], x, rule)
                    cid = ids.get(child)
                    if cid is None:
                        cid = len(gammas)
                        if cid >= max_nodes:
                            raise ValueError(f"minimized tree exceeds {max_nodes} nodes")
                        ids[child] = cid
                        gammas.append(child)
                        levels.append([lv + 1 for lv in levels[nid]])
                        children.append([-1] * p.d)
                        created.append([])
                        created[nid].append(cid)
                        children[nid][x] = cid
                        new_frontier.append(cid)
                        height = level
                        if stop_on_violation and node_violates(child, 0, rule):
                            raise _Stop(level + p.m)
                    else:
                        children[nid][x] = cid
                        add_level(cid, level)
            frontier = new_frontier
    except _Stop as stop:
        stopped_at, stop_horizon = level, stop.horizon
    return gammas, levels, children, height, stopped_at, stop_horizon


def reference_outputs(rule, stop_on_violation, max_nodes=None):
    """The reference's (gammas, children, height, stopped_at, stop_horizon),
    capped like the build unless max_nodes is given."""
    if max_nodes is None:
        max_nodes = mintree.DEFAULT_TREE_LIMIT if stop_on_violation else mintree.FULL_TREE_LIMIT
    gammas, _, children, height, stopped_at, stop_horizon = reference_build(
        rule, max_nodes, stop_on_violation
    )
    return gammas, children, height, stopped_at, stop_horizon


def outputs(tree):
    return tree.gammas, tree.children.tolist(), tree.height, tree.stopped_at, tree.stop_horizon


def reference_occurrences(tree):
    """(loose, anchors, period) of each node's levels, each computed on its
    own: sporadic prefix levels, one anchor per residue class of the
    smallest period the cycle positions are closed under, each anchor
    lowered through the prefix levels of its class."""
    prefix, transient, period = level_sequence(tree)
    sporadic = [[] for _ in range(tree.unique_nodes)]
    residues = [set() for _ in range(tree.unique_nodes)]
    for t in range(transient):
        for nid in np.flatnonzero(prefix[t]).tolist():
            sporadic[nid].append(t)
    for c in range(period):
        for nid in np.flatnonzero(prefix[transient + c]).tolist():
            residues[nid].add(c)
    out = []
    for nid in range(tree.unique_nodes):
        res = residues[nid]
        if not res:
            out.append((tuple(sporadic[nid]), (), 1))
            continue
        g = period
        for cand in range(1, period + 1):
            if period % cand == 0 and all((c + cand) % period in res for c in res):
                g = cand
                break
        anchors = sorted(
            {min(transient + c for c in res if (transient + c) % g == r)
             for r in {(transient + c) % g for c in res}}
        )
        spor = set(sporadic[nid])
        lowered = []
        for a in anchors:
            while a - g in spor:
                a -= g
                spor.remove(a)
            lowered.append(a)
        out.append((tuple(sorted(spor)), tuple(sorted(lowered)), g))
    return out


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
        got = {g: paper_levels(levels) for g, levels in zip(tree.gammas, tree.occurrences)}
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


class TestPlacement:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_per_placement_statement(self, m):
        # iota 0 rules out every n >= level + m, iota >= 1 the size level + iota
        for level in (0, 1, 2, 7, 40):
            for failed in range(1 << m):
                bits = _placed(failed, level, m)
                for n in range(level + 2 * m + 2):
                    expected = (failed & 1 and n >= level + m) or any(
                        failed >> iota & 1 and n == level + iota for iota in range(1, m)
                    )
                    assert bits >> n & 1 == expected, (failed, level, m, n)
                assert (bits < 0) == bool(failed & 1)  # the set is infinite iff iota 0 failed


class TestOccurrence:
    def test_loop_membership(self):
        tree = build_minimized(eca(75))
        by_levels = by_paper_levels(tree)
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
        # ECA 23's node 17 sits at level 7, which the construction-time level
        # set {4, 6} missed; the exports now show it
        rule = eca(23)
        tree = build_minimized(rule)
        assert reference_build(rule, 1000, False)[1][17] == [4, 6]
        assert occurs_at_level(tree, 17, 7)
        assert tree.gammas[17] in build_full_tree(rule, 10).level_nodes[7]
        assert tree_to_json(tree)["nodes"][17]["levels"] == {
            "sporadic": [4],
            "anchors": [6],
            "period": 1,
        }
        assert '17 [label="N17\\nlevels {4} ∪ 6+k"];' in export_minimized_dot(tree)

    @pytest.mark.parametrize("value", [23, 75])
    def test_exported_levels_match_full_tree(self, value):
        # on levels 0..n-m of a size-n tree, a node with RMTs occurs exactly
        # where its exported levels say (the full tree does not expand empty
        # edges, so the empty node is only required where the full tree has it)
        rule = eca(value)
        tree = build_minimized(rule)
        full = build_full_tree(rule, 12)
        payload = tree_to_json(tree)
        for node, gamma in zip(payload["nodes"], tree.gammas):
            levels = node["levels"]
            for level in range(12 - rule.params.m + 1):
                exported = level in levels["sporadic"] or any(
                    level >= a and (level - a) % levels["period"] == 0
                    for a in levels["anchors"]
                )
                in_full = gamma in full.level_nodes[level]
                assert in_full <= exported, (value, node["id"], level)
                assert gamma == 0 or in_full == exported, (value, node["id"], level)

    def test_period_1_level_set_was_wrong(self):
        # ECA 23's node 21 had the level set {4, 5}, "every level from 4 on",
        # but it is not at level 6
        rule = eca(23)
        tree = build_minimized(rule)
        assert reference_build(rule, 1000, False)[1][21] == [4, 5]
        assert tree.gammas[21] not in build_full_tree(rule, 12).level_nodes[6]
        assert not occurs_at_level(tree, 21, 6)
        assert tree_to_json(tree)["nodes"][21]["levels"] == {
            "sporadic": [4, 5],
            "anchors": [7],
            "period": 1,
        }
        assert '21 [label="N21\\nlevels {4,5} ∪ 7+k"];' in export_minimized_dot(tree)

    def test_occurrences_computed_once_per_tree(self, monkeypatch):
        calls = []
        real = mintree.level_sequence

        def counted(tree):
            calls.append(tree)
            return real(tree)

        monkeypatch.setattr(mintree, "level_sequence", counted)
        tree = build_minimized(eca(23))
        for nid in range(tree.unique_nodes):
            for level in range(12):
                occurs_at_level(tree, nid, level)
            loops_of(tree, nid)
        dump_json(tree)
        export_minimized_dot(tree)
        assert len(calls) == 1

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
        by_levels = by_paper_levels(tree)
        assert loops_of(tree, by_levels[(1, 3)]) == [(1, 2)]
        assert loops_of(tree, by_levels[(2, 4)]) == [(2, 2)]
        assert loops_of(tree, 0) == []


class TestConstruction:
    def test_deterministic(self):
        a = build_minimized(eca(110))
        b = build_minimized(eca(110))
        assert a.gammas == b.gammas
        assert a.children.tolist() == b.children.tolist()
        assert a.occurrences == b.occurrences

    def test_node_limit(self, monkeypatch):
        # each build mode has its own cap
        monkeypatch.setattr(mintree, "FULL_TREE_LIMIT", 5)
        with pytest.raises(ValueError, match="exceeds 5 nodes"):
            build_minimized(eca(75))
        assert build_minimized(eca(75), stop_on_violation=True).unique_nodes == 21
        monkeypatch.setattr(mintree, "DEFAULT_TREE_LIMIT", 5)
        with pytest.raises(ValueError, match="exceeds 5 nodes"):
            build_minimized(eca(75), stop_on_violation=True)

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

    @pytest.mark.parametrize(
        "d,m,text,pinned",
        [
            # rule 5865: its fixpoint tree has over 100k nodes
            (2, 4, "0001011011101001", (472, 9, 9, 9)),
            # the flag pushed down the creation links decides the stop
            (2, 4, "1110011100011000", (387, 8, 8, 9)),
            (2, 4, "1010011101011000", (994, 10, 10, 12)),
            # a new node inheriting its creator's flag decides the stop
            (4, 2, "2301312020312130", (36, 4, 4, 4)),
            # the flag descends from a node whose row is still partly
            # unexpanded into the nodes it created earlier in that level
            (3, 2, "020212101", (7, 2, 2, 2)),
        ],
    )
    def test_period_1_trigger_pinned(self, d, m, text, pinned):
        # each stops on the period-1 loop rule, not on an intermediate-level
        # violation (whose horizon is stopped_at + m)
        rule = parse_rule(text, RuleParams(d, m))
        tree = build_minimized(rule, stop_on_violation=True)
        got = (tree.unique_nodes, tree.height, tree.stopped_at, tree.stop_horizon)
        assert got == pinned
        assert tree.stop_horizon < tree.stopped_at + m
        assert outputs(tree) == reference_outputs(rule, True, 5000)

    def test_trigger_stops_match_reference(self, monkeypatch):
        # seeded balanced rules, about a tenth of which stop on the trigger
        monkeypatch.setattr(mintree, "DEFAULT_TREE_LIMIT", 5000)
        rng = random.Random(5)
        trigger_stops = 0
        for _ in range(120):
            p = RuleParams(*rng.choice([(2, 3), (3, 2), (4, 2), (2, 4), (3, 3), (2, 5)]))
            table = [x for x in range(p.d) for _ in range(p.table_size // p.d)]
            rng.shuffle(table)
            rule = Rule(p, tuple(table))
            tree = build_minimized(rule, stop_on_violation=True)
            assert outputs(tree) == reference_outputs(rule, True, 5000), rule
            if tree.stopped_at is not None:
                trigger_stops += tree.stop_horizon < tree.stopped_at + p.m
        assert trigger_stops >= 5

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([(2, 3), (3, 2), (4, 2), (2, 4), (3, 3), (2, 5)]),
        st.randoms(use_true_random=False),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_level_set_reference(self, shape, rng, balanced, stop):
        # most random tables are unbalanced and stop at once; balanced ones
        # reach the period-1 trigger
        p = RuleParams(*shape)
        if balanced:
            table = [x for x in range(p.d) for _ in range(p.table_size // p.d)]
            rng.shuffle(table)
        else:
            table = [rng.randrange(p.d) for _ in range(p.table_size)]
        rule = Rule(p, tuple(table))
        cap = 1500
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mintree, "DEFAULT_TREE_LIMIT", cap)
            mp.setattr(mintree, "FULL_TREE_LIMIT", cap)
            try:
                ref = reference_outputs(rule, stop)
            except ValueError as e:
                with pytest.raises(ValueError, match=str(e)):
                    build_minimized(rule, stop_on_violation=stop)
                return
            tree = build_minimized(rule, stop_on_violation=stop)
        assert outputs(tree) == ref

    @pytest.mark.parametrize("stop", [False, True], ids=["full", "stop"])
    @pytest.mark.parametrize(
        "shape", [(2, 3), pytest.param((3, 2), marks=pytest.mark.long)], ids=["eca", "32"]
    )
    def test_matches_reference_on_whole_families(self, shape, stop):
        # ids in creation order, and the loop rule one level deep
        p = RuleParams(*shape)
        for value in range(p.d**p.table_size):
            rule = rule_from_decimal(value, p)
            tree = build_minimized(rule, stop_on_violation=stop)
            assert outputs(tree) == reference_outputs(rule, stop), value

    def test_level_matrix_bound(self, monkeypatch):
        # checked before each row: the matrix and its row keys fit exactly,
        # or the sequence is refused
        tree = build_minimized(eca(75))
        matrix, _, _ = level_sequence(tree)
        monkeypatch.setattr(mintree, "LEVEL_MATRIX_BYTE_LIMIT", 2 * matrix.size)
        assert (level_sequence(tree)[0] == matrix).all()
        monkeypatch.setattr(mintree, "LEVEL_MATRIX_BYTE_LIMIT", 2 * matrix.size - 1)
        with pytest.raises(ValueError, match="^level matrix of 21 nodes passes"):
            level_sequence(tree)

    def test_non_violating_rule_ignores_stop_flag(self):
        a = build_minimized(eca(75), stop_on_violation=True)
        assert a.stopped_at is None
        assert a.unique_nodes == 21


class TestReconstruction:
    def test_grouped_occurrences_match_per_node(self, monkeypatch):
        # one SizeSet per distinct level pattern, whose chains equal node for
        # node the per-node computation
        monkeypatch.setattr(mintree, "FULL_TREE_LIMIT", 5000)
        rng = random.Random(31)
        rules = [eca(v) for v in range(256)]
        rules += [rule_from_decimal(rng.randrange(3**9), RuleParams(3, 2)) for _ in range(40)]
        rules += [rule_from_decimal(rng.randrange(1 << 16), RuleParams(2, 4)) for _ in range(40)]
        rules.append(parse_rule("012210210102012102210210012", RuleParams(3, 3)))
        for rule in rules:
            try:
                tree = build_minimized(rule)
            except ValueError:
                continue
            shared = exact_occurrences(tree)
            assert len({id(levels) for levels in shared}) == len(set(shared)), rule
            got = [(*levels.chains, levels.period) for levels in shared]
            assert got == reference_occurrences(tree), rule

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
                return np.flatnonzero(prefix[level]).tolist()
            return np.flatnonzero(prefix[transient + (level - transient) % period]).tolist()

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
            c = classify(rule)
            for n in range(rule.params.m, 12):
                assert is_reversible_for(c, n) == build_full_tree(rule, n).complete, (rule, n)


class TestExports:
    def test_json_shape(self):
        tree = build_minimized(eca(75))
        payload = tree_to_json(tree)
        assert payload["M"] == 21
        assert payload["height"] == 5
        assert len(payload["nodes"]) == 21
        node = payload["nodes"][0]
        assert set(node) == {"id", "levels", "gamma", "children"}
        assert node["levels"] == {"sporadic": [0], "anchors": [], "period": 1}
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

    def test_eca23_golden(self):
        # both exports of ECA 23's 120-node tree, as written before node
        # levels became SizeSets; node 21 sits at levels {4,5} ∪ 7+k
        tree = build_minimized(eca(23))
        golden = Path(__file__).parent / "golden"
        dot = export_minimized_dot(tree)
        assert dump_json(tree) == (golden / "eca23_minimized.json").read_text(encoding="utf-8")
        assert dot == (golden / "eca23_minimized.dot").read_text(encoding="utf-8")
        assert '21 [label="N21\\nlevels {4,5} ∪ 7+k"];' in dot
