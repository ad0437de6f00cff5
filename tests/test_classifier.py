import hashlib
import json
import random
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca import classifier, debruijn
from revca.classifier import (
    CAClass,
    IrreversibilityExpression,
    OracleMismatchError,
    SizeSet,
    classification_to_json,
    classify,
    expressions_text,
    is_reversible_for,
    reversible_sizes,
    scan_violations,
    walk_violations,
)
from revca.dynamics import brute_force_reversible
from revca.mintree import build_minimized, exact_occurrences
from revca.rtree import build_full_tree, node_violates
from revca.rulespace import (
    Rule,
    RuleParams,
    is_strictly_irreversible,
    minimal_decimal,
    parse_rule,
    rule_from_decimal,
)

from conftest import eca, linear_rule, rule33


# x-2 + x0 + x3 over GF(2): irreversible exactly at 31 | n
LINEAR_2_6 = linear_rule(2, (1, 0, 1, 0, 0, 1))


def expr(min_n, modulus):
    return IrreversibilityExpression.progression(min_n, modulus)


class TestExpressionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            IrreversibilityExpression(min_n=4, modulus=0, residue=0)
        with pytest.raises(ValueError):
            IrreversibilityExpression(min_n=4, modulus=3, residue=3)
        with pytest.raises(ValueError):
            IrreversibilityExpression(min_n=4, modulus=3, residue=0)

    def test_covers(self):
        e = expr(4, 2)
        assert e.covers(4) and e.covers(10)
        assert not e.covers(2) and not e.covers(5)
        seg = IrreversibilityExpression.segment(3)
        assert seg.covers(3) and seg.covers(1000) and not seg.covers(2)

    def test_text(self):
        assert str(expr(4, 2)) == "n ≡ 0 (mod 2), n ≥ 4"
        assert str(IrreversibilityExpression.segment(3)) == "n ≥ 3"


def raw_union(progressions=(), sizes=()):
    """The union of raw progressions and single sizes, as one SizeSet."""
    progressions, sizes = set(progressions), set(sizes)
    start = max([0, *(e.min_n for e in progressions), *(s + 1 for s in sizes)])
    period = lcm(*(e.modulus for e in progressions))
    members = sizes.union(*(range(e.min_n, start + period, e.modulus) for e in progressions))
    return SizeSet.periodic(sum(1 << n for n in members), start, period)


def canonical(exprs, sizes=()):
    s = raw_union(exprs, sizes)
    return s.expressions, s.sporadic


class TestNormalization:
    def test_subset_removal(self):
        exprs, sizes = canonical([expr(2, 2), expr(4, 2), expr(6, 2)])
        assert exprs == (expr(2, 2),)
        assert sizes == ()

    def test_progression_merge(self):
        got, _ = canonical([expr(3, 3), expr(4, 6), expr(6, 2)])
        assert got == (expr(3, 3), expr(4, 2))

    def test_sporadic_absorption(self):
        got, sizes = canonical([IrreversibilityExpression.segment(5)], [4])
        assert got == (IrreversibilityExpression.segment(4),)
        assert sizes == ()

    def test_sporadic_extends_progression(self):
        got, sizes = canonical([expr(8, 2)], [4, 6])
        assert got == (expr(4, 2),)
        assert sizes == ()

    def test_unabsorbed_sporadic_kept(self):
        got, sizes = canonical([expr(9, 3)], [5])
        assert got == (expr(9, 3),)
        assert sizes == (5,)

    def test_residue_classes_merge(self):
        # the three mod-6 classes of the even sizes are one mod-2 class
        got, sizes = canonical([expr(2, 6), expr(4, 6), expr(6, 6)])
        assert got == (expr(2, 2),)
        assert sizes == ()

    def test_large_lcm_period(self):
        moduli = (2, 3, 5, 7)
        s = raw_union([expr(q, q) for q in moduli])
        assert s.period == 210
        assert s.expressions == tuple(sorted(expr(q, q) for q in moduli))
        assert s.sporadic == ()
        for n in range(1, 500):
            assert (n in s) == any(n % q == 0 for q in moduli), n

    def test_canonical_value(self):
        s = raw_union([expr(6, 6), expr(9, 3)], [4])
        assert (s.start, s.period, s.residues, s.head) == (5, 3, frozenset({0}), (4,))
        assert str(s) == "n ≡ 0 (mod 3), n ≥ 6; n = 4"
        assert str(raw_union()) == "∅"

    @staticmethod
    def naive(exprs, sizes, n):
        return n in sizes or any(e.covers(n) for e in exprs)

    exprs_strategy = st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 5)).map(
            lambda t: IrreversibilityExpression.progression(t[0] + t[1], t[1])
        ),
        max_size=6,
    )

    @given(exprs_strategy, st.lists(st.integers(2, 12), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_and_order_independent(self, exprs, sizes):
        once = canonical(exprs, sizes)
        again = canonical(*once)
        assert once == again
        reversed_input = canonical(list(reversed(exprs)), sizes)
        assert once == reversed_input

    @given(exprs_strategy, st.lists(st.integers(2, 12), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_preserves_denoted_set(self, exprs, sizes):
        got_exprs, got_sizes = canonical(exprs, sizes)
        for n in range(1, 60):
            after = n in got_sizes or any(e.covers(n) for e in got_exprs)
            assert self.naive(exprs, sizes, n) == after, n

    @given(exprs_strategy, st.lists(st.integers(2, 12), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_membership_matches_naive_union(self, exprs, sizes):
        s = raw_union(exprs, sizes)
        for n in range(1, s.start + 3 * s.period):
            assert (n in s) == self.naive(exprs, sizes, n), n

    @given(exprs_strategy, st.lists(st.integers(2, 12), max_size=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_equal_sets_give_identical_output(self, exprs, sizes, data):
        # split each progression (a, q) into (a, 2q) and (a + q, 2q)
        split = data.draw(st.lists(st.booleans(), min_size=len(exprs), max_size=len(exprs)))
        other = []
        for e, halve in zip(exprs, split):
            if halve:
                other.append(expr(e.min_n, 2 * e.modulus))
                other.append(expr(e.min_n + e.modulus, 2 * e.modulus))
            else:
                other.append(e)
        assert raw_union(other, sizes) == raw_union(exprs, sizes)
        assert canonical(other, sizes) == canonical(exprs, sizes)

    @given(exprs_strategy, st.lists(st.integers(2, 12), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_no_two_output_classes_merge(self, exprs, sizes):
        got, _ = canonical(exprs, sizes)
        for i, a in enumerate(got):
            for b in got[i + 1 :]:
                # a ∪ b is one residue class only when both have modulus 2q,
                # residues that agree mod q, and start one step q apart
                q = a.modulus // 2
                merges = (
                    a.modulus == b.modulus
                    and a.modulus % 2 == 0
                    and a.residue % q == b.residue % q
                    and abs(a.min_n - b.min_n) == q
                )
                assert not merges, (a, b)
                for outer, inner in ((a, b), (b, a)):
                    subset = (
                        inner.min_n >= outer.min_n
                        and inner.modulus % outer.modulus == 0
                        and inner.residue % outer.modulus == outer.residue
                    )
                    assert not subset, (outer, inner)


def balanced_rule(rng, d, m):
    p = RuleParams(d, m)
    table = [x for x in range(d) for _ in range(p.table_size // d)]
    rng.shuffle(table)
    return Rule(p, tuple(table))


class TestScan:
    def test_eca75(self):
        rule = eca(75)
        assert scan_violations(build_minimized(rule)).expressions == (expr(2, 2),)

    def test_reversible_rule_scans_clean(self):
        rule = parse_rule("1010101010101010", RuleParams(2, 4))
        assert scan_violations(build_minimized(rule)) == raw_union()

    def test_eca150(self):
        rule = eca(150)
        assert scan_violations(build_minimized(rule)).expressions == (expr(3, 3),)

    @pytest.mark.parametrize(
        "rule",
        [
            eca(23),
            eca(75),
            rule33("012210210102012102210210012"),
            rule33("021101110202222202110010021"),
            # full trees of rules the early stop would cut: iota-0 failures
            balanced_rule(random.Random(43), 3, 3),
            balanced_rule(random.Random(1), 2, 5),
            balanced_rule(random.Random(29), 4, 2),
            # transient 5, period 2: sizes named only through more than one
            # of the rows that wrap the period past the matrix's last row
            parse_rule("1100111100110000", RuleParams(2, 4)),
            pytest.param(parse_rule("1010100101010110", RuleParams(2, 4)), marks=pytest.mark.long),
        ],
        ids=[
            "eca23", "eca75", "height19", "height19b",
            "seeded33", "seeded25", "seeded42", "wrapped_rows", "giant40320",
        ],
    )
    def test_matches_undeduplicated_scan(self, rule):
        tree = build_minimized(rule)
        expected = raw_union(*undeduplicated_scan(tree, rule))
        assert from_m(scan_violations(tree), rule) == from_m(expected, rule)

    @pytest.mark.long
    def test_long_matches_undeduplicated_scan_on_whole_families(self):
        # every (3,2) and (2,4) rule whose early-stopping build completes,
        # the four 40,320-node (2,4) trees included
        scanned = 0
        for d, m in ((3, 2), (2, 4)):
            p = RuleParams(d, m)
            for value in range(d**p.table_size):
                rule = rule_from_decimal(value, p)
                tree = build_minimized(rule, stop_on_violation=True)
                if tree.stopped_at is None:
                    got = from_m(scan_violations(tree), rule)
                    expected = raw_union(*undeduplicated_scan(tree, rule))
                    assert got == from_m(expected, rule), rule
                    scanned += 1
        assert scanned > 0


def from_m(sizes, rule):
    """The members n >= m of a size set: the part the scan is exact on."""
    m = rule.params.m
    start = max(m, sizes.start)
    bits = sum(1 << n for n in range(m, start + sizes.period) if n in sizes)
    return SizeSet.periodic(bits, start, sizes.period)


def undeduplicated_scan(tree, rule):
    """One raw progression per node, iota and anchor, one size per sporadic
    occurrence, read from each node's exact levels (`exact_occurrences`)
    with `node_violates`: the scan as raw lists, sharing none of its code."""
    p = rule.params
    progressions, sizes = [], []
    for gamma, levels in zip(tree.gammas, exact_occurrences(tree)):
        loose, anchors = levels.chains
        if node_violates(gamma, 0, rule):
            progressions.append(IrreversibilityExpression.segment(min(loose + anchors) + p.m))
        for iota in range(1, p.m):
            if node_violates(gamma, iota, rule):
                progressions.extend(expr(a + iota, levels.period) for a in anchors)
                sizes.extend(lv + iota for lv in loose if lv + iota >= p.m)
    return progressions, sizes


# tree_panel's early-stopping rules, (d, m, rule)
EARLY_STOP_PANEL = (
    (2, 5, "10001101011000010111001010011110"),
    (3, 3, "001201210220120102112012021"),
    (3, 3, "202021112121210001010102220"),
    (3, 3, "011022201200211120122100012"),
    (3, 3, "101201122020120011212012200"),
    (3, 3, "201112020120001212012220101"),
    (2, 4, "1001001101101100"),
    (2, 4, "1010011101011000"),
    (2, 4, "0001101011100101"),
    (2, 4, "1110010100011010"),
)


def assert_walk_matches_full_trees(rule):
    """The walk's sizes equal the per-size trees' verdicts below the horizon.

    Returns False when the rule does not stop early."""
    tree = build_minimized(rule, stop_on_violation=True)
    if tree.stop_horizon is None:
        return False
    horizon = tree.stop_horizon
    sizes = walk_violations(rule, horizon)
    for n in range(rule.params.m, horizon):
        assert (n in sizes) == (not build_full_tree(rule, n).complete), (rule, n)
    assert all(n in sizes for n in range(horizon, horizon + 8)), rule
    assert all((n in sizes) == (n >= horizon) for n in range(rule.params.m)), rule
    return True


class TestWalk:
    @pytest.mark.parametrize(
        "d,m,text", EARLY_STOP_PANEL, ids=[text for *_, text in EARLY_STOP_PANEL]
    )
    def test_matches_full_trees_on_panel(self, d, m, text):
        assert assert_walk_matches_full_trees(parse_rule(text, RuleParams(d, m)))

    @pytest.mark.parametrize("d,m", [(2, 4), (3, 3), (2, 5), (4, 2)])
    def test_matches_full_trees_on_seeded_sample(self, d, m):
        rng = random.Random(100 * d + m)
        stopped = 0
        while stopped < 25:
            stopped += assert_walk_matches_full_trees(balanced_rule(rng, d, m))

    @pytest.mark.long
    def test_long_matches_full_trees_on_whole_families(self):
        stopped = 0
        for d, m in ((2, 3), (3, 2), (2, 4)):
            p = RuleParams(d, m)
            for value in range(d**p.table_size):
                stopped += assert_walk_matches_full_trees(rule_from_decimal(value, p))
        assert stopped > 0

    def test_level_limit(self, monkeypatch):
        # (3,3) 001201210220120102112012021 stops at horizon 10; its walk
        # passes 50 nodes on one level well before that
        rule = rule33("001201210220120102112012021")
        monkeypatch.setattr(classifier, "DEFAULT_TREE_LIMIT", 50)
        with pytest.raises(ValueError, match="unrolled tree level .* exceeds 50 nodes"):
            walk_violations(rule, 10)

    def test_small_horizon(self):
        # a horizon at or below m leaves nothing to walk
        segment = IrreversibilityExpression.segment
        assert walk_violations(eca(75), 1) == raw_union([segment(1)])
        assert walk_violations(eca(75), 3) == raw_union([segment(3)])


class TestClassify:
    def test_classes(self):
        assert classify(eca(51)).ca_class is CAClass.REVERSIBLE
        assert classify(eca(30)).ca_class is CAClass.STRICTLY_IRREVERSIBLE
        assert classify(eca(43)).ca_class is CAClass.TRIVIALLY_SEMI_REVERSIBLE
        assert classify(eca(45)).ca_class is CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE

    def test_nontrivial_expressions(self):
        c = classify(rule33("012210210102012102210210012"))
        assert c.ca_class is CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE
        # brute force finds n = 2 irreversible, so the even sizes start there
        assert c.expressions == (expr(2, 2), expr(3, 3))

    def test_unbalanced_shortcut(self):
        c = classify(parse_rule("021122011", RuleParams(3, 2)))
        assert c.ca_class is CAClass.TRIVIALLY_SEMI_REVERSIBLE
        assert c.expressions == (IrreversibilityExpression.segment(2),)
        assert c.evidence is None

    def test_whole_set_checked_past_24(self, monkeypatch):
        # LINEAR_2_6's walk repeats (period 31) after 62 steps.  A scan that
        # loses n = 62 is caught: the whole sets are compared, not 24 sizes.
        rule = LINEAR_2_6
        c = classify(rule)
        assert str(c.irreversible) == "n ≡ 0 (mod 31), n ≥ 31"
        assert (c.verified_up_to, c.verified_all) == (62, True)
        scan = classifier.scan_violations

        def drops_62(tree):
            sizes = scan(tree)
            bits = sum(1 << n for n in range(63 + sizes.period) if n != 62 and n in sizes)
            return SizeSet.periodic(bits, 63, sizes.period)

        monkeypatch.setattr(classifier, "scan_violations", drops_62)
        with pytest.raises(OracleMismatchError, match=r"at n = \[62\]") as raised:
            classify(rule)
        assert len(raised.value.predicted) == 62

    def test_capped_walk_checks_sizes_one_by_one(self, monkeypatch):
        monkeypatch.setattr(debruijn, "WALK_STEP_LIMIT", 40)
        c = classify(LINEAR_2_6)
        assert (c.verified_up_to, c.verified_all) == (40, False)
        assert str(c.irreversible) == "n ≡ 0 (mod 31), n ≥ 31"

    @pytest.mark.long
    def test_long_period_127_verified_whole(self):
        # x-3 + x-2 + x4 over GF(2): irreversible exactly at 127 | n, which
        # the walk confirms after 254 steps
        c = classify(linear_rule(2, (1, 1, 0, 0, 0, 0, 0, 1)))
        assert str(c.irreversible) == "n ≡ 0 (mod 127), n ≥ 127"
        assert (c.verified_up_to, c.verified_all) == (254, True)

    def test_strict_covers_everything(self):
        c = classify(eca(90))
        assert all(not is_reversible_for(c, n) for n in range(1, 30))

    def test_eca43_open_question_resolution(self):
        # Table-5 lists rule 43 as irreversible for n >= 3, the worked text
        # example says reversible for 1, 2, 3; brute force settles it for the
        # example (G_3 bijective, G_4 not), and the classifier must agree
        c = classify(eca(43))
        assert reversible_sizes(c, 6) == [1, 2, 3]
        assert brute_force_reversible(eca(43), 3)
        assert not brute_force_reversible(eca(43), 4)


class TestMinimalForms:
    # linear rules whose raw progressions split one residue class into several
    def check(self, c, text, expressions):
        assert expressions_text(c) == text
        payload = classification_to_json(c)
        assert payload["expressions"] == expressions
        assert payload["sporadic_irreversible"] == []

    def test_ternary_linear_rule_even_sizes(self):
        # x_{-1} + 2 x_0 + x_1 mod 3
        c = classify(rule33("210021102102210021021102210"))
        self.check(c, "n ≡ 0 (mod 2), n ≥ 2", [{"residue": 0, "modulus": 2, "min_n": 2}])

    def test_five_neighbor_linear_rule_multiples_of_three(self):
        # x_{-2} + x_0 + x_2 mod 2
        c = classify(parse_rule("10100101101001010101101001011010", RuleParams(2, 5)))
        self.check(c, "n ≡ 0 (mod 3), n ≥ 3", [{"residue": 0, "modulus": 3, "min_n": 3}])


class TestMembership:
    def test_eca45_odd_sizes(self):
        c = classify(eca(45))
        assert is_reversible_for(c, 999)
        assert not is_reversible_for(c, 1000)

    def test_eca30_nowhere(self):
        c = classify(eca(30))
        assert not is_reversible_for(c, 1)
        assert not is_reversible_for(c, 17)

    def test_eca150_multiples_of_three(self):
        c = classify(eca(150))
        assert not is_reversible_for(c, 12)
        assert is_reversible_for(c, 13)

    def test_reversible_sizes_examples(self):
        assert reversible_sizes(classify(eca(75)), 10) == [1, 3, 5, 7, 9]
        assert reversible_sizes(classify(eca(105)), 9) == [1, 2, 4, 5, 7, 8]
        assert reversible_sizes(classify(eca(204)), 5) == [1, 2, 3, 4, 5]

    def test_rejects_bad_size(self):
        c = classify(eca(204))
        with pytest.raises(ValueError):
            is_reversible_for(c, 0)


class TestComplementFiniteness:
    def test_empty_expressions_infinite(self):
        assert not raw_union().cofinite

    def test_full_cover_finite(self):
        assert raw_union([IrreversibilityExpression.segment(5)]).cofinite

    def test_partial_cover_infinite(self):
        assert not raw_union([expr(2, 2)]).cofinite

    def test_two_moduli_cover(self):
        # evens from 4 plus odds from 5 cover everything beyond 3
        s = raw_union([expr(4, 2), expr(5, 2)])
        assert s.cofinite
        assert s.expressions == (IrreversibilityExpression.segment(4),)


class TestClassProperties:
    def sample_rules(self, count, seed=17):
        rng = random.Random(seed)
        rules = []
        for _ in range(count):
            params = rng.choice(
                [RuleParams(2, 3), RuleParams(3, 2), RuleParams(2, 4)]
            )
            rules.append(
                rule_from_decimal(rng.randrange(params.d**params.table_size), params)
            )
        return rules

    def test_trichotomy_and_strictness(self):
        for rule in self.sample_rules(60):
            c = classify(rule)
            assert isinstance(c.ca_class, CAClass)
            strict = c.ca_class is CAClass.STRICTLY_IRREVERSIBLE
            assert strict == (not is_reversible_for(c, 1))

    def test_reversible_iff_no_irreversible_size(self):
        for rule in self.sample_rules(40, seed=31):
            c = classify(rule)
            if c.ca_class is CAClass.REVERSIBLE:
                assert not c.expressions and not c.sporadic_irreversible
                assert all(c.small_n_reversible.values())

    def test_set_below_m_is_the_brute_table(self):
        rng = random.Random(12)
        families = [
            (RuleParams(2, 3), range(2**8)),
            (RuleParams(3, 2), range(3**9)),
            (RuleParams(2, 4), rng.sample(range(2**16), 2000)),
        ]
        for params, values in families:
            for value in values:
                rule = rule_from_decimal(value, params)
                c = classify(rule)
                assert {n for n in range(1, params.m) if n in c.irreversible} == {
                    n for n in range(1, params.m) if not brute_force_reversible(rule, n)
                }, rule

    def test_strict_rules_are_irreversible_at_every_small_size(self):
        # classify skips brute force under the strict shortcut: two uniform
        # RMTs with one output map two uniform configurations alike at every n;
        # and at n = 1, where every configuration is uniform, for all rules
        rng = random.Random(23)
        families = [
            (RuleParams(2, 3), range(2**8)),
            (RuleParams(3, 2), range(3**9)),
            (RuleParams(2, 4), rng.sample(range(2**16), 300)),
            (RuleParams(3, 3), [rng.randrange(3**27) for _ in range(100)]),
            (RuleParams(4, 2), [rng.randrange(4**16) for _ in range(100)]),
        ]
        checked = 0
        for params, values in families:
            for value in values:
                rule = rule_from_decimal(value, params)
                if not is_strictly_irreversible(rule):
                    assert brute_force_reversible(rule, 1), rule
                    continue
                for n in range(1, max(params.m, 9)):
                    assert not brute_force_reversible(rule, n), (rule, n)
                assert not any(classify(rule).small_n_reversible.values()), rule
                checked += 1
        assert checked > 15_000

    @pytest.mark.parametrize(
        "texts, printed",
        [
            (("0000001011111101", "0000100011110111"), "n ≡ 0 (mod 3), n ≥ 3"),
            (("0000110011110011", "0010110100101101"), "n ≡ 0 (mod 2), n ≥ 2"),
        ],
        ids=["mod3", "mod2"],
    )
    def test_equal_sets_print_alike(self, texts, printed):
        # the two rules of each pair are irreversible at the same sizes,
        # some of them below m = 4
        for text in texts:
            assert expressions_text(classify(parse_rule(text, RuleParams(2, 4)))) == printed

    def test_split_invariance(self):
        # the classification never depends on the left/right anchor split
        for value in (75, 105, 43, 30, 51, 232):
            base = classify(eca(value))
            for l_r in (0, 2):
                other = classify(
                    Rule(RuleParams(2, 3, l_r=l_r), eca(value).table)
                )
                assert other.ca_class is base.ca_class
                assert other.expressions == base.expressions
                assert other.small_n_reversible == base.small_n_reversible


class TestJsonSchema:
    def test_keys_and_values(self):
        payload = classification_to_json(classify(eca(75)))
        assert payload == {
            "rule": "01001011",
            "d": 2,
            "m": 3,
            "decimal": 75,
            "class": "NonTriviallySemiReversible",
            "expressions": [{"residue": 0, "modulus": 2, "min_n": 2}],
            "sporadic_irreversible": [],
            "small_n_reversible": {"1": True, "2": False},
            "tree": {"unique_nodes": 21, "height": 5},
            "verified_up_to": 24,
            "verified_all": True,
        }

    def test_strict_has_no_tree(self):
        payload = classification_to_json(classify(eca(30)))
        assert payload["tree"] is None
        assert payload["class"] == "StrictlyIrreversible"
        assert payload["expressions"] == [{"residue": 0, "modulus": 1, "min_n": 1}]


def family_sha256(params):
    """sha256 of every rule's classification JSON (sorted keys), one line
    per rule in decimal order."""
    h = hashlib.sha256()
    for value in range(params.d**params.table_size):
        payload = classification_to_json(classify(rule_from_decimal(value, params)))
        h.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def golden_sha256(d, m):
    """The digest recorded for the (d, m) family: lines "d m sha256"."""
    golden = Path(__file__).parent / "golden" / "classification_sha256.txt"
    for line in golden.read_text(encoding="utf-8").splitlines():
        gd, gm, digest = line.split()
        if (int(gd), int(gm)) == (d, m):
            return digest
    raise KeyError((d, m))


class TestGoldenOutputs:
    @pytest.mark.parametrize("d, m", [(2, 3), (3, 2)])
    def test_family_outputs_unchanged(self, d, m):
        assert family_sha256(RuleParams(d, m)) == golden_sha256(d, m)

    @pytest.mark.long
    def test_long_24_outputs_unchanged(self):
        assert family_sha256(RuleParams(2, 4)) == golden_sha256(2, 4)


def test_mislabeled_table_row_is_ternary():
    # the sample row printed with d=2 is a 27-digit ternary rule; it parses
    # and classifies only as d=3 (presumed typo in the source table)
    text = "021101110202222202110010021"
    with pytest.raises(Exception):
        parse_rule(text, RuleParams(2, 3))
    c = classify(parse_rule(text, RuleParams(3, 3)))
    assert c.ca_class is CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE
    assert (c.evidence.unique_nodes, c.evidence.height) == (1345, 19)


def test_minimal_nontrivial_eca_rules():
    got = set()
    for value in range(256):
        c = classify(rule_from_decimal(value, RuleParams(2, 3)))
        if c.ca_class is CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE:
            got.add(minimal_decimal(eca(value)))
    assert got == {45, 105, 150, 154}
