import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca.dynamics import (
    brute_force_reversible,
    config_from_code,
    config_to_code,
    export_transition_diagram,
    parse_config,
    predecessors,
    reachable_codes,
    rmt_sequence,
    shift,
    step,
    successor_codes,
)
from revca.rulespace import Rule, RuleParams, is_strictly_irreversible, parse_rule

from conftest import FIG2_RULE, FIG3B_RULE, eca, rule33


def small_rule(draw):
    params = draw(
        st.sampled_from([RuleParams(2, 3), RuleParams(3, 2), RuleParams(2, 4)])
    )
    table = draw(
        st.tuples(*[st.integers(0, params.d - 1) for _ in range(params.table_size)])
    )
    return Rule(params, table)


rules = st.composite(small_rule)()


def reference_successor_codes(rule, n):
    """Per-column reference: each cell's digit column of every code with
    int64 // and %, and the RMT as a rolling window over the columns."""
    p = rule.params
    d = p.d
    codes = np.arange(d**n, dtype=np.int64)
    table = np.asarray(rule.table, dtype=np.int64)

    def column(j):
        return (codes // d ** (n - 1 - j % n)) % d

    rmt = np.zeros(d**n, dtype=np.int64)
    for k in range(-p.l_r, p.r_r + 1):
        rmt = rmt * d + column(k)
    succ = table[rmt].copy()
    for i in range(1, n):
        rmt = (rmt % p.node_width) * d + column(i + p.r_r)
        succ = succ * d + table[rmt]
    return succ


# (d, m, largest n): d^n runs past one scan block (2^12 configurations), so
# the blocked scan and its early exit are exercised
KERNEL_SHAPES = [(2, 2, 14), (2, 3, 14), (2, 4, 14), (3, 2, 9), (3, 3, 9), (4, 2, 7)]


@st.composite
def split_rule_and_size(draw):
    d, m, top = draw(st.sampled_from(KERNEL_SHAPES))
    params = RuleParams(d, m, l_r=draw(st.integers(0, m - 1)))
    table = draw(st.tuples(*[st.integers(0, d - 1) for _ in range(params.table_size)]))
    return Rule(params, table), draw(st.integers(1, top))


class TestConfigCoding:
    def test_round_trip(self):
        assert config_to_code((1, 0, 2, 1), 3) == 34
        assert config_from_code(34, 4, 3) == (1, 0, 2, 1)

    def test_parse(self):
        assert parse_config("1021", 3) == (1, 0, 2, 1)
        with pytest.raises(ValueError):
            parse_config("13", 3)


class TestRmtSequence:
    def test_fig2_worked_example(self):
        assert rmt_sequence((1, 0, 2, 1), rule33(FIG2_RULE)) == (12, 11, 7, 22)

    def test_zero_configuration(self):
        assert rmt_sequence((0, 0, 0), rule33(FIG2_RULE)) == (0, 0, 0)

    def test_single_cell_wraps(self):
        assert rmt_sequence((1,), eca(90)) == (7,)

    @given(rules, st.integers(1, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_consecutive_constraint(self, rule, n, data):
        cells = tuple(
            data.draw(st.integers(0, rule.params.d - 1)) for _ in range(n)
        )
        seq = rmt_sequence(cells, rule)
        width = rule.params.node_width
        d = rule.params.d
        for i in range(n):
            # r_i in Equi_j forces r_{i+1} in Sibl_j
            assert seq[(i + 1) % n] // d == seq[i] % width


class TestStep:
    def test_fig2_worked_example(self):
        assert step((1, 0, 2, 1), rule33(FIG2_RULE)) == (0, 1, 0, 1)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_identity_rule(self, cells):
        assert step(tuple(cells), eca(204)) == tuple(cells)

    def test_eca75_zero_config(self):
        # R[0] = 1 for rule 75, so the zero configuration maps to all ones
        assert step((0, 0, 0, 0), eca(75)) == (1, 1, 1, 1)

    @given(rules, st.integers(2, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_commutes_with_cyclic_shift(self, rule, n, data):
        cells = tuple(
            data.draw(st.integers(0, rule.params.d - 1)) for _ in range(n)
        )
        assert step(shift(cells), rule) == shift(step(cells, rule))


class TestPredecessors:
    def test_fig3b_non_reachable(self):
        rule = rule33(FIG3B_RULE)
        assert predecessors(config_from_code(5, 3, 3), rule) == []

    def test_fig3b_multiple_predecessors(self):
        rule = rule33(FIG3B_RULE)
        assert len(predecessors(config_from_code(8, 3, 3), rule)) >= 2

    def test_identity_rule(self):
        assert predecessors((1, 0, 1), eca(204)) == [(1, 0, 1)]

    def test_limit_enforced(self):
        # 2^25 configurations: refused before anything is allocated
        with pytest.raises(ValueError, match="exceed"):
            predecessors((0,) * 25, eca(30))

    def test_empty_configuration_rejected(self):
        with pytest.raises(ValueError, match="size must be >= 1, got 0"):
            predecessors((), eca(30))


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "fn", [brute_force_reversible, successor_codes, reachable_codes, export_transition_diagram]
)
def test_size_below_one_rejected(fn, n):
    with pytest.raises(ValueError, match=f"size must be >= 1, got {n}"):
        fn(eca(30), n)


class TestKernelAgainstReference:
    @given(split_rule_and_size())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_column_reference(self, case):
        # every split, sizes from 1 (below m too) up to several scan blocks
        rule, n = case
        ref = reference_successor_codes(rule, n)
        succ = successor_codes(rule, n)
        assert succ.shape == ref.shape
        assert (succ == ref).all()
        assert brute_force_reversible(rule, n) == (len(np.unique(ref)) == rule.params.d**n)

    @pytest.mark.parametrize(
        "rule,n,reversible",
        [
            # reversible: the whole multi-block scan runs
            (Rule(RuleParams(2, 4), tuple((r >> 2) & 1 for r in range(16))), 14, True),
            (eca(170), 14, True),
            (eca(75), 13, True),
            (rule33(FIG2_RULE), 9, True),
            (eca(170), 18, True),  # blocks fix two grid axes
            # not injective: the scan stops at a shared successor
            (eca(75), 14, False),
            (eca(75), 18, False),
            (eca(30), 14, False),
            (rule33(FIG3B_RULE), 9, False),
        ],
    )
    def test_multi_block_cases(self, rule, n, reversible):
        assert rule.params.d**n > 1 << 12
        ref = reference_successor_codes(rule, n)
        assert (len(np.unique(ref)) == rule.params.d**n) == reversible
        assert (successor_codes(rule, n) == ref).all()
        assert brute_force_reversible(rule, n) == reversible


class TestBruteForce:
    def test_fig2_reversible_n3(self):
        assert brute_force_reversible(rule33(FIG2_RULE), 3)

    def test_fig3b_irreversible_n3(self):
        assert not brute_force_reversible(rule33(FIG3B_RULE), 3)

    def test_eca75_parity(self):
        assert not brute_force_reversible(eca(75), 4)
        assert brute_force_reversible(eca(75), 5)

    @given(rules)
    @settings(max_examples=40, deadline=None)
    def test_size_one_matches_strict_shortcut(self, rule):
        assert brute_force_reversible(rule, 1) == (not is_strictly_irreversible(rule))

    @given(rules, st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_consistent_with_predecessor_counts(self, rule, n):
        succ = successor_codes(rule, n)
        counts = np.bincount(succ, minlength=rule.params.d**n)
        injective = bool((counts == 1).all())
        no_garden_of_eden = bool((counts > 0).all())
        assert injective == no_garden_of_eden == brute_force_reversible(rule, n)


class TestTransitionDiagram:
    def _edges(self, dot: str) -> list[tuple[int, int]]:
        out = []
        for line in dot.splitlines():
            line = line.strip()
            if "->" in line:
                a, b = line.rstrip(";").split("->")
                out.append((int(a), int(b)))
        return out

    def test_identity_self_loops(self):
        edges = self._edges(export_transition_diagram(eca(204), 2))
        assert edges == [(i, i) for i in range(4)]

    def test_fig3b_non_reachable_set(self):
        edges = self._edges(export_transition_diagram(rule33(FIG3B_RULE), 3))
        assert len(edges) == 27
        targets = {b for _, b in edges}
        assert set(range(27)) - targets == {5, 7, 11, 15, 17, 19, 21, 23, 25}

    def test_eca75_n3_is_permutation(self):
        # n=3 is odd, so rule 75 is bijective there: every in-degree is one
        edges = self._edges(export_transition_diagram(eca(75), 3))
        targets = [b for _, b in edges]
        assert sorted(targets) == list(range(8))

    def test_deterministic_output(self):
        a = export_transition_diagram(eca(110), 4)
        b = export_transition_diagram(eca(110), 4)
        assert a == b


def test_reachable_codes_matches_predecessors():
    rule = rule33(FIG3B_RULE)
    reach = reachable_codes(rule, 3)
    for code in range(27):
        has_pred = bool(predecessors(config_from_code(code, 3, 3), rule))
        assert (code in reach) == has_pred


def test_split_invariance_of_reversibility():
    # the same table under every left/right split decides the same sizes
    base = RuleParams(2, 4)
    rule = parse_rule("0101101010100101", base)
    for l_r in range(4):
        other = Rule(RuleParams(2, 4, l_r=l_r), rule.table)
        for n in range(1, 9):
            assert brute_force_reversible(other, n) == brute_force_reversible(rule, n)
