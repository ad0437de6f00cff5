import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca.rulespace import (
    Rule,
    RuleFormatError,
    RuleParams,
    all_rules,
    complemented,
    equivalent_rules,
    equivalent_set,
    is_balanced_rule,
    is_strictly_irreversible,
    minimal_decimal,
    parse_rule,
    reflected,
    rmt_of_tuple,
    rule_from_decimal,
    sibling_set,
    tuple_of_rmt,
    uniform_rmts,
    wolfram_decimal,
)

from conftest import FIG2_RULE, TABLE1_ROW3, eca


SMALL_PARAMS = st.sampled_from(
    [RuleParams(2, 2), RuleParams(2, 3), RuleParams(2, 4), RuleParams(3, 2), RuleParams(3, 3)]
)


def random_rule(draw, params):
    table = draw(
        st.tuples(*[st.integers(0, params.d - 1) for _ in range(params.table_size)])
    )
    return Rule(params, table)


rules = st.composite(lambda draw: random_rule(draw, draw(SMALL_PARAMS)))()


class TestRuleParams:
    def test_default_split(self):
        p = RuleParams(d=2, m=3)
        assert (p.l_r, p.r_r) == (1, 1)
        p = RuleParams(d=2, m=4)
        assert (p.l_r, p.r_r) == (1, 2)
        p = RuleParams(d=3, m=2)
        assert (p.l_r, p.r_r) == (0, 1)

    def test_explicit_split(self):
        p = RuleParams(d=2, m=4, l_r=3)
        assert (p.l_r, p.r_r) == (3, 0)

    @pytest.mark.parametrize("d,m", [(1, 3), (2, 1), (0, 2)])
    def test_rejects_degenerate(self, d, m):
        with pytest.raises(ValueError):
            RuleParams(d=d, m=m)

    def test_rejects_oversized_table(self):
        with pytest.raises(ValueError, match="table limit"):
            RuleParams(d=2, m=13)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            RuleParams(d=2, m=3, l_r=5)


class TestParse:
    def test_digit_string_orientation(self):
        rule = parse_rule("01011010", RuleParams(2, 3))
        # first character is R[7]
        assert rule.table == (0, 1, 0, 1, 1, 0, 1, 0)
        assert wolfram_decimal(rule) == 90

    def test_decimal_matches_digits(self):
        p = RuleParams(2, 3)
        assert parse_rule("90", p).table == parse_rule("01011010", p).table

    def test_wrong_length_rejected(self):
        with pytest.raises(RuleFormatError, match="length 3"):
            parse_rule("012", RuleParams(3, 3))

    def test_bad_digit_names_position(self):
        with pytest.raises(RuleFormatError, match="position 2"):
            parse_rule("01211010", RuleParams(2, 3))

    def test_decimal_out_of_range(self):
        # both decimal paths share one decoder and its message
        with pytest.raises(RuleFormatError, match=r"^decimal rule 256 out of range \[0, 2\^8\)$"):
            parse_rule("256", RuleParams(2, 3))
        with pytest.raises(RuleFormatError, match=r"^decimal rule 256 out of range \[0, 2\^8\)$"):
            rule_from_decimal(256, RuleParams(2, 3))
        with pytest.raises(RuleFormatError, match=r"^decimal rule -1 out of range \[0, 2\^8\)$"):
            rule_from_decimal(-1, RuleParams(2, 3))

    def test_non_digit_rejected(self):
        with pytest.raises(RuleFormatError, match="position 1"):
            parse_rule("0a011010", RuleParams(2, 3))

    @given(rules)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, rule):
        p = rule.params
        assert parse_rule(rule.digit_string(), p) == rule
        assert parse_rule(str(wolfram_decimal(rule)), p) == rule


class TestDecimal:
    def test_eca_30(self):
        assert wolfram_decimal(parse_rule("00011110", RuleParams(2, 3))) == 30

    def test_zero_rule(self):
        assert wolfram_decimal(parse_rule("0" * 8, RuleParams(2, 3))) == 0

    def test_three_state_rule_against_positional_oracle(self):
        # independent evaluation: most-significant-first base-3 reading
        rule = parse_rule(TABLE1_ROW3, RuleParams(3, 3))
        assert wolfram_decimal(rule) == int(TABLE1_ROW3, 3)


class TestRmts:
    def test_known_tuples(self):
        p = RuleParams(3, 3)
        assert rmt_of_tuple((1, 1, 0), p) == 12
        assert rmt_of_tuple((1, 0, 2), p) == 11
        assert rmt_of_tuple((0, 2, 1), p) == 7
        assert rmt_of_tuple((2, 1, 1), p) == 22
        assert rmt_of_tuple((0, 0, 0), p) == 0

    def test_out_of_range_state(self):
        with pytest.raises(ValueError):
            rmt_of_tuple((0, 3, 0), RuleParams(3, 3))

    @given(SMALL_PARAMS)
    @settings(max_examples=20, deadline=None)
    def test_round_trip_all_values(self, params):
        for r in range(params.table_size):
            assert rmt_of_tuple(tuple_of_rmt(r, params), params) == r


class TestFamilies:
    def test_table2_examples(self):
        p = RuleParams(3, 3)
        assert sibling_set(3, p) == {9, 10, 11}
        assert equivalent_set(4, p) == {4, 13, 22}
        assert sibling_set(0, RuleParams(2, 3)) == {0, 1}

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            sibling_set(9, RuleParams(3, 3))
        with pytest.raises(ValueError):
            equivalent_set(-1, RuleParams(3, 3))

    @given(SMALL_PARAMS)
    @settings(max_examples=20, deadline=None)
    def test_both_families_partition(self, params):
        width = range(params.node_width)
        everything = set(range(params.table_size))
        for family in (
            [equivalent_set(i, params) for i in width],
            [sibling_set(j, params) for j in width],
        ):
            assert len(family) == params.node_width
            assert all(len(s) == params.d for s in family)
            union = set().union(*family)
            assert union == everything
            assert sum(len(s) for s in family) == len(everything)


class TestBalance:
    def test_balanced_three_state(self):
        assert is_balanced_rule(parse_rule(FIG2_RULE, RuleParams(3, 3)))

    def test_unbalanced_three_state(self):
        rule = parse_rule("112221010112221000112221000", RuleParams(3, 3))
        assert not is_balanced_rule(rule)

    def test_constant_rule_unbalanced(self):
        assert not is_balanced_rule(parse_rule("0" * 8, RuleParams(2, 3)))


class TestUniformRmts:
    @pytest.mark.parametrize(
        "d,m,expected",
        [(2, 3, [0, 7]), (3, 3, [0, 13, 26]), (2, 4, [0, 15])],
    )
    def test_values(self, d, m, expected):
        assert uniform_rmts(RuleParams(d, m)) == expected


class TestStrictIrreversibility:
    def test_examples(self):
        assert is_strictly_irreversible(eca(90))
        assert is_strictly_irreversible(eca(30))
        assert not is_strictly_irreversible(eca(51))
        rule = parse_rule("102012120012102120102102120", RuleParams(3, 3))
        assert rule.table[13] == rule.table[0] == 0
        assert is_strictly_irreversible(rule)

    def test_matches_size_one_injectivity_for_all_eca(self):
        # both directions of the size-1 shortcut, exhaustively for d=2, m=3
        from revca.dynamics import brute_force_reversible

        for value in range(256):
            rule = eca(value)
            assert is_strictly_irreversible(rule) == (
                not brute_force_reversible(rule, 1)
            )


class TestEquivalents:
    def test_reflection_of_15_is_85(self):
        assert wolfram_decimal(reflected(eca(15))) == 85
        assert wolfram_decimal(reflected(eca(170))) == 240

    def test_complement_fixed_points(self):
        assert wolfram_decimal(complemented(eca(51))) == 51
        assert wolfram_decimal(complemented(eca(105))) == 105

    def test_minimal_decimal_orbit(self):
        for v in (45, 75, 89, 101):
            assert minimal_decimal(eca(v)) == 45

    @given(rules)
    @settings(max_examples=40, deadline=None)
    def test_orbit_closed(self, rule):
        orbit = {wolfram_decimal(r) for r in equivalent_rules(rule)}
        for r in equivalent_rules(rule):
            assert {wolfram_decimal(q) for q in equivalent_rules(r)} == orbit


def test_all_rules_enumeration_order():
    seen = [wolfram_decimal(r) for r in all_rules(RuleParams(2, 2))]
    assert seen == list(range(16))
