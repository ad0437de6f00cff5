"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one PASS line (visible regardless of capture); a failing
assertion is the FAIL signal.  The d=2, m=4 full-family sweep runs only with
--run-long.
"""

import random
import time
from collections import Counter

import pytest

from revca.classifier import (
    CAClass,
    classify,
    is_reversible_for,
    reversible_sizes,
)
from revca.dynamics import (
    brute_force_reversible,
    config_from_code,
    predecessors,
    rmt_sequence,
    step,
    successor_codes,
)
from revca.mintree import build_minimized
from revca.rulespace import (
    RuleParams,
    is_balanced_rule,
    is_strictly_irreversible,
    minimal_decimal,
    parse_rule,
    rule_from_decimal,
)
from revca.rtree import build_full_tree, edge_counts_ok

from conftest import FIG2_RULE, FIG3B_RULE, eca, pair_graph_verdicts, rule33

ECA = RuleParams(2, 3)


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def eca_census():
    start = time.monotonic()
    results = [classify(rule_from_decimal(v, ECA)) for v in range(256)]
    return results, time.monotonic() - start


def deciding_tree_height(c) -> int | None:
    """Height of the completed minimized tree, for the classes whose decision
    requires one (construction is abandoned early on trivial rules)."""
    if c.ca_class in (CAClass.REVERSIBLE, CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE):
        return c.evidence.height
    return None


def test_acceptance_1_eca_census(eca_census, capsys):
    results, elapsed = eca_census
    hist = Counter(c.ca_class for c in results)
    semi = (
        hist[CAClass.TRIVIALLY_SEMI_REVERSIBLE]
        + hist[CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE]
    )
    assert hist[CAClass.REVERSIBLE] == 6
    assert hist[CAClass.STRICTLY_IRREVERSIBLE] == 128
    assert semi == 122
    assert elapsed < 60.0, f"census took {elapsed:.1f}s"
    announce(
        capsys,
        f"ACCEPTANCE 1 PASS: ECA census 6/128/122 in {elapsed:.1f}s",
    )


def test_acceptance_2_eca_reversible_and_nontrivial_sets(eca_census, capsys):
    results, _ = eca_census
    reversible = [v for v, c in enumerate(results) if c.ca_class is CAClass.REVERSIBLE]
    assert reversible == [15, 51, 85, 170, 204, 240]
    nontrivial_minimal = {
        minimal_decimal(eca(v))
        for v, c in enumerate(results)
        if c.ca_class is CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE
    }
    assert nontrivial_minimal == {45, 105, 150, 154}
    announce(
        capsys,
        "ACCEPTANCE 2 PASS: reversible ECAs {15,51,85,170,204,240}; "
        "non-trivial minimals {45,105,150,154}",
    )


def test_acceptance_3_expressions_and_size_sets(capsys):
    c75 = classify(eca(75))
    assert [(e.residue, e.modulus, e.min_n) for e in c75.expressions] == [(0, 2, 2)]

    for v in (45, 154):
        c = classify(eca(v))
        for n in range(1, 40):
            assert is_reversible_for(c, n) == (n % 2 == 1), (v, n)
    for v in (105, 150):
        c = classify(eca(v))
        for n in range(1, 40):
            assert is_reversible_for(c, n) == (n % 3 != 0), (v, n)

    for v in (75, 45, 154, 105, 150):
        rule = eca(v)
        c = classify(rule)
        sizes = set(reversible_sizes(c, 30))
        oracle = pair_graph_verdicts(rule, 30)
        for n in range(1, 31):
            assert (n in sizes) == oracle[n - 1], (v, n)
            if n <= 14:
                assert (n in sizes) == brute_force_reversible(rule, n), (v, n)
    announce(
        capsys,
        "ACCEPTANCE 3 PASS: expressions for 75/45/154/105/150 exact; "
        "size sets match brute force (n<=14) and pair oracle (n<=30)",
    )


TABLE_ROWS = [
    # d, m, rule, M, height, class, [(residue, modulus, min_n)]
    (2, 3, "01010101", 7, 2, CAClass.REVERSIBLE, []),
    (2, 3, "00101101", 21, 5, CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE, [(0, 2, 2)]),
    (2, 3, "10010110", 12, 4, CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE, [(0, 3, 3)]),
    (3, 3, "012012012012012012012012012", 13, 2, CAClass.REVERSIBLE, []),
    (2, 4, "0000111101001011", 32, 5, CAClass.REVERSIBLE, []),
    (2, 4, "0101101010100101", 56, 9, CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE, [(0, 7, 7)]),
    (2, 4, "1010101010101010", 15, 3, CAClass.REVERSIBLE, []),
]


def test_acceptance_4_tree_statistics(capsys):
    start = time.monotonic()
    notes = []
    for d, m, text, nodes, height, ca_class, exprs in TABLE_ROWS:
        rule = parse_rule(text, RuleParams(d, m))
        c = classify(rule)
        assert c.ca_class is ca_class, text
        assert [(e.residue, e.modulus, e.min_n) for e in c.expressions] == exprs, text
        got = (c.evidence.unique_nodes, c.evidence.height)
        if got != (nodes, height):
            notes.append(
                f"counting-convention note: {text} gives (M, height) = {got}, "
                f"published values are ({nodes}, {height})"
            )
    elapsed = time.monotonic() - start
    for note in notes:
        announce(capsys, note)
    assert not notes, notes
    assert elapsed < 10.0, f"tree statistics took {elapsed:.1f}s"
    announce(
        capsys,
        f"ACCEPTANCE 4 PASS: (M, height, class, expression) exact for "
        f"{len(TABLE_ROWS)} sample rules in {elapsed:.1f}s",
    )


def test_acceptance_5_height_bounds(eca_census, capsys):
    results, _ = eca_census
    heights = [
        h for h in (deciding_tree_height(c) for c in results if c.evidence is not None)
        if h is not None
    ]
    assert max(heights) == 5

    sample_heights = []
    for text in (
        "012012012012012210012102012",
        "012210210102012102210210012",
        "012012012012012012012012012",
        "021101110202222202110010021",
        "111011011222220122000102200",
        "102120120102120021120120120",
    ):
        c = classify(rule33(text))
        sample_heights.append(c.evidence.height)
    assert sorted(sample_heights, reverse=True) == [19, 19, 9, 7, 6, 2]
    announce(
        capsys,
        "ACCEPTANCE 5 PASS: max ECA height 5; 3-state sample heights "
        "{19,19,9,7,6,2} (the 3^27-rule sweep is out of desk-scale reach)",
    )


@pytest.mark.long
def test_acceptance_5_long_m4_sweep(capsys):
    start = time.monotonic()
    params = RuleParams(2, 4)
    top = 0
    for value in range(65536):
        c = classify(rule_from_decimal(value, params))
        if c.evidence is not None:
            h = deciding_tree_height(c)
            if h is not None:
                top = max(top, h)
    elapsed = time.monotonic() - start
    assert top == 9
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"
    announce(
        capsys,
        f"ACCEPTANCE 5 (long) PASS: max deciding-tree height over all 65536 "
        f"d=2,m=4 rules is 9, sweep in {elapsed / 60:.1f} min",
    )


def test_acceptance_6_oracle_equivalence(capsys):
    start = time.monotonic()
    rng = random.Random(20260809)
    families = [RuleParams(2, 3), RuleParams(2, 4), RuleParams(3, 2), RuleParams(3, 3)]
    checked = 0
    for i in range(500):
        params = families[i % len(families)]
        rule = rule_from_decimal(rng.randrange(params.d**params.table_size), params)
        c = classify(rule)  # raises on any oracle mismatch
        pair = pair_graph_verdicts(rule, 12)
        for n in range(1, 13):
            verdict = is_reversible_for(c, n)
            assert verdict == pair[n - 1], (rule, n)
            if params.d**n <= 1 << 24:
                assert verdict == brute_force_reversible(rule, n), (rule, n)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"equivalence sweep took {elapsed:.1f}s"
    announce(
        capsys,
        f"ACCEPTANCE 6 PASS: 500 random rules, classifier = brute force = "
        f"pair oracle for n<=12 ({checked} brute checks) in {elapsed:.1f}s",
    )


def test_acceptance_7_theorem_invariants(capsys):
    # size-1 shortcut biconditional across every enumerable family with
    # d^m <= 256, checked against the one-cell global map itself
    full_families = [RuleParams(2, 2), RuleParams(2, 3), RuleParams(3, 2), RuleParams(2, 4)]
    for params in full_families:
        for value in range(params.d**params.table_size):
            rule = rule_from_decimal(value, params)
            outputs = {step((x,), rule) for x in range(params.d)}
            assert is_strictly_irreversible(rule) == (len(outputs) < params.d), value
    rng = random.Random(7)
    for _ in range(300):  # spot-check a family too large to enumerate
        rule = rule_from_decimal(rng.randrange(3**27), RuleParams(3, 3))
        outputs = {step((x,), rule) for x in range(3)}
        assert is_strictly_irreversible(rule) == (len(outputs) < 3)

    # completeness <=> edge counts <=> brute-force bijectivity on 100 pairs
    rng = random.Random(13)
    pairs = []
    while len(pairs) < 100:
        params = rng.choice([RuleParams(2, 3), RuleParams(3, 2), RuleParams(2, 4)])
        rule = rule_from_decimal(rng.randrange(params.d**params.table_size), params)
        pairs.append((rule, rng.randrange(params.m, 11)))
    for rule, n in pairs:
        tree = build_full_tree(rule, n)
        brute = brute_force_reversible(rule, n)
        assert tree.complete == edge_counts_ok(tree) == brute, (rule, n)

    # unbalanced but not strictly irreversible: irreversible for every n >= m
    count = 0
    for value in range(256):
        rule = rule_from_decimal(value, ECA)
        if is_balanced_rule(rule) or is_strictly_irreversible(rule):
            continue
        count += 1
        for n in range(3, 11):
            assert not build_full_tree(rule, n).complete, (value, n)
    assert count > 0
    announce(
        capsys,
        f"ACCEPTANCE 7 PASS: size-1 biconditional (85,491 + 300 rules), "
        f"completeness equivalence (100 pairs), unbalanced shortcut "
        f"({count} ECAs), zero failures",
    )


def test_acceptance_8_worked_micro_examples(capsys):
    fig2 = rule33(FIG2_RULE)
    assert rmt_sequence((1, 0, 2, 1), fig2) == (12, 11, 7, 22)
    assert step((1, 0, 2, 1), fig2) == (0, 1, 0, 1)

    fig3b = rule33(FIG3B_RULE)
    succ = successor_codes(fig3b, 3)
    non_reachable = set(range(27)) - {int(x) for x in succ}
    assert non_reachable == {5, 7, 11, 15, 17, 19, 21, 23, 25}
    multi = {
        code
        for code in range(27)
        if len(predecessors(config_from_code(code, 3, 3), fig3b)) >= 2
    }
    assert multi >= {8, 13, 20, 24}
    announce(
        capsys,
        "ACCEPTANCE 8 PASS: RMT sequence, successor, non-reachable and "
        "multi-predecessor sets match the worked examples",
    )
