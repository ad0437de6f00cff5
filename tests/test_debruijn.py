import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revca import debruijn
from revca.debruijn import (
    PAIR_GRAPH_BYTE_LIMIT,
    PairGraphLimitError,
    _PairWalk,
    _walk_bytes,
    export_debruijn_dot,
    pair_trace_oracle,
    reversible_by_pair_graph,
)
from revca.dynamics import brute_force_reversible, rmt_sequence
from revca.rulespace import Rule, RuleParams, parse_rule, rule_from_decimal

from conftest import FIG2_RULE, eca, linear_rule, pair_graph_verdicts, rule33


def small_rule(draw):
    params = draw(
        st.sampled_from([RuleParams(2, 3), RuleParams(3, 2), RuleParams(2, 4)])
    )
    table = draw(
        st.tuples(*[st.integers(0, params.d - 1) for _ in range(params.table_size)])
    )
    return Rule(params, table)


rules = st.composite(small_rule)()


def exact_pair_traces(rule: Rule, upto: int) -> list[int]:
    """trace(M^n), n = 1..upto, in Python integers; M counts equal-output RMT pairs."""
    p = rule.params
    d, w = p.d, p.node_width
    matrix = np.zeros((w * w, w * w), dtype=object)
    for r in range(p.table_size):
        for s in range(p.table_size):
            if rule.table[r] == rule.table[s]:
                matrix[(r // d) * w + s // d, (r % w) * w + s % w] += 1
    power = np.identity(w * w, dtype=object)
    traces = []
    for _ in range(upto):
        power = power @ matrix
        traces.append(int(np.trace(power)))
    return traces


SHAPES = [
    RuleParams(d, m) for d, m in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (5, 2), (2, 5)]
]


@st.composite
def shaped_rules(draw):
    """Uniform, balanced or linear rules of every shape in SHAPES."""
    params = draw(st.sampled_from(SHAPES))
    d, size = params.d, params.table_size
    kind = draw(st.sampled_from(["uniform", "balanced", "linear"]))
    if kind == "linear":
        return linear_rule(d, draw(st.tuples(*[st.integers(0, d - 1)] * params.m)))
    if kind == "balanced":
        return Rule(params, tuple(v % d for v in draw(st.permutations(range(size)))))
    return Rule(params, draw(st.tuples(*[st.integers(0, d - 1)] * size)))


def reference_walk(rule: Rule, steps: int) -> tuple[list[bool], list[np.ndarray]]:
    """`steps` steps of a plain walk in the pair graph, with no early stop.

    Returns the verdicts for n = 1..steps and the reach matrices of steps
    0..steps.  Row i marks the pair nodes that the i-th off-diagonal node
    reaches by walks of that length; G_n is injective iff no row marks its
    own node.
    """
    p = rule.params
    d, w = p.d, p.node_width
    table = np.asarray(rule.table)
    r, s = np.nonzero(table[:, None] == table[None, :])
    adjacency = np.zeros((w * w, w * w), dtype=np.float32)
    adjacency[(r // d) * w + s // d, (r % w) * w + s % w] = 1
    starts = np.array([u * w + v for u in range(w) for v in range(w) if u != v])
    own = np.arange(starts.size) * w * w + starts  # flat index of each row's own node
    reach = np.zeros((starts.size, w * w), dtype=np.float32)
    reach.flat[own] = 1
    verdicts, states = [], [reach]
    for _ in range(steps):
        reach = np.minimum(reach @ adjacency, 1)
        verdicts.append(not reach.take(own).any())
        states.append(reach)
    return verdicts, states


HUGE = 10**9 + 1


def assert_walk_matches_reference(rule, limit, reference=None, huge=False):
    """The walk's verdicts and period, capped at `limit` steps, against
    `reference_walk` over `limit` steps.

    With `huge`, also `pair_trace_oracle` at the sizes of one period ending
    at HUGE, read back from the reference through the period.
    """
    ref, states = reference or reference_walk(rule, limit)
    ref = ref[:limit]
    with mock.patch.object(debruijn, "WALK_STEP_LIMIT", limit):
        verdicts, period = reversible_by_pair_graph(rule)
    t = len(verdicts)
    assert verdicts == ref[:t]
    if not period:
        assert t == limit
        return
    # every verdict past the walk repeats the one a period earlier
    assert all(ref[n] == ref[n - period] for n in range(t, limit))
    # the repeat is real, the period is the least, and a fixed point is seen
    # at its first repeat
    assert np.array_equal(states[t], states[t - period])
    assert not any(np.array_equal(states[t], states[t - q]) for q in range(1, period))
    if period == 1 and t >= 2:
        assert not np.array_equal(states[t - 1], states[t - 2])
    if huge:
        first = t - period + 1  # the cycle's sizes are first .. t
        for n in range(HUGE - period + 1, HUGE + 1):
            assert pair_trace_oracle(rule, n) == ref[first + (n - first) % period - 1]


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over GF(p); coefficient lists, lowest degree first, b nonzero."""
    a = list(a)
    inverse = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        q = a[-1] * inverse % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        _trim(a)
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return _poly_rem(_trim(prod), f, p)


def circulant_reversible(coeffs: tuple[int, ...], p: int, n: int) -> bool:
    """gcd(f(x), x^n - 1) == 1 over GF(p) for f = sum_k coeffs[k] x^k.

    The size-n map of a linear rule is the circulant matrix of f mod x^n - 1,
    invertible iff f and x^n - 1 share no factor.  gcd(f, x^n - 1) equals
    gcd(f, (x^n mod f) - 1), so x^n is reduced by repeated squaring.
    """
    f = _trim([c % p for c in coeffs])
    if len(f) <= 1:
        return len(f) == 1
    power, base = [1], _poly_rem([0, 1], f, p)
    while n:
        if n & 1:
            power = _poly_mulmod(power, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        n >>= 1
    g = power + [0]  # power is empty when f divides x^n
    g[0] = (g[0] - 1) % p
    a, b = _trim(g), f
    while a:
        a, b = _poly_rem(b, a, p), a
    return len(b) == 1


_EDGE_LINE = re.compile(r'\s*(\d+) -> (\d+) \[label="(\d+)/(\d+)"\];')
_NODE_LINE = re.compile(r'\s*\d+ \[label="\d*"\];')


def dot_edges(rule: Rule) -> list[tuple[int, int, int, int]]:
    """(src, dst, rmt, output) of each edge line of the rule's DOT export, in order."""
    lines = export_debruijn_dot(rule).splitlines()
    return [tuple(map(int, m.groups())) for m in map(_EDGE_LINE.fullmatch, lines) if m]


def dot_node_count(rule: Rule) -> int:
    lines = export_debruijn_dot(rule).splitlines()
    return sum(1 for line in lines if _NODE_LINE.fullmatch(line))


class TestGraphShape:
    def test_counts_3state(self):
        rule = rule33(FIG2_RULE)
        assert dot_node_count(rule) == 9
        assert len(dot_edges(rule)) == 27

    def test_counts_2state_2neighbor(self):
        rule = parse_rule("0110", RuleParams(2, 2))
        assert dot_node_count(rule) == 2
        assert len(dot_edges(rule)) == 4

    @given(rules)
    @settings(max_examples=20, deadline=None)
    def test_regular_degrees(self, rule):
        count = dot_node_count(rule)
        outs = [0] * count
        ins = [0] * count
        for src, dst, _, _ in dot_edges(rule):
            outs[src] += 1
            ins[dst] += 1
        assert set(outs) == {rule.params.d}
        assert set(ins) == {rule.params.d}

    def test_rmt_sequence_is_cycle(self):
        # the configuration 1021 walks a length-4 cycle through the graph
        rule = rule33(FIG2_RULE)
        by_rmt = {rmt: (src, dst) for src, dst, rmt, _ in dot_edges(rule)}
        seq = rmt_sequence((1, 0, 2, 1), rule)
        assert seq == (12, 11, 7, 22)
        for i, r in enumerate(seq):
            _, dst = by_rmt[r]
            src, _ = by_rmt[seq[(i + 1) % len(seq)]]
            assert dst == src

    def test_closed_walk_count_is_configuration_count(self):
        # adjacency built independently from the exported edge list
        for text, params in [(FIG2_RULE, RuleParams(3, 3)), ("01011010", RuleParams(2, 3))]:
            rule = parse_rule(text, params)
            count = dot_node_count(rule)
            adj = np.zeros((count, count), dtype=object)
            for src, dst, _, _ in dot_edges(rule):
                adj[src][dst] += 1
            power = np.eye(count, dtype=object)
            for n in range(1, 9):
                power = power @ adj
                assert int(np.trace(power)) == params.d**n


class TestPairOracle:
    def test_identity_rule(self):
        rule = eca(204)
        assert pair_trace_oracle(rule, 10)
        assert exact_pair_traces(rule, 10)[-1] == 2**10

    def test_eca75_parity(self):
        rule = eca(75)
        assert not pair_trace_oracle(rule, 4)
        assert not pair_trace_oracle(rule, 100)
        assert pair_trace_oracle(rule, 101)

    def test_eca75_huge_sizes(self):
        # decided from the walk state's cycle, not by 10^9 steps
        rule = eca(75)
        assert not pair_trace_oracle(rule, 10**9)
        assert pair_trace_oracle(rule, 10**9 + 1)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            pair_trace_oracle(eca(75), 0)

    @given(rules)
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_exact_trace(self, rule):
        d = rule.params.d
        expected = [t == d**n for n, t in enumerate(exact_pair_traces(rule, 10), start=1)]
        assert pair_graph_verdicts(rule, 10) == expected

    @given(rules)
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_brute_force(self, rule):
        verdicts = pair_graph_verdicts(rule, 8)
        for n in range(1, 9):
            assert verdicts[n - 1] == brute_force_reversible(rule, n)

    def test_single_size_matches_window(self):
        rule = rule33("012210210102012102210210012")
        verdicts = pair_graph_verdicts(rule, 40)
        for n in (1, 2, 7, 13, 20, 33, 40):
            assert pair_trace_oracle(rule, n) == verdicts[n - 1]


class TestWalkStop:
    """The walk stops at its state's first repeat for a fixed point, and at
    Brent's checkpoint for a longer cycle."""

    @given(shaped_rules(), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_walk(self, rule, limit):
        assert_walk_matches_reference(rule, limit, huge=True)

    def test_fixed_point_seen_at_first_repeat(self):
        # ECA 250's walk state stops changing at step 4 and is seen at step 5;
        # Brent's checkpoints alone (after steps 1, 3, 7) see it at step 8
        verdicts, period = reversible_by_pair_graph(eca(250))
        assert (len(verdicts), period) == (5, 1)
        assert_walk_matches_reference(eca(250), 100, huge=True)

    def test_period_12_cycle(self):
        # the longest period in the (2,4) family, seen at Brent's checkpoint
        rule = rule_from_decimal(727, RuleParams(2, 4))
        verdicts, period = reversible_by_pair_graph(rule)
        assert (len(verdicts), period) == (27, 12)
        assert_walk_matches_reference(rule, 100, huge=True)

    @pytest.mark.long
    def test_long_matches_reference_on_whole_families(self):
        for params in (RuleParams(2, 3), RuleParams(3, 2), RuleParams(2, 4)):
            for value in range(params.d**params.table_size):
                rule = rule_from_decimal(value, params)
                reference = reference_walk(rule, 100)
                for limit in (24, 100):
                    assert_walk_matches_reference(rule, limit, reference)


class TestLinearRules:
    """Linear rules over GF(p) against the circulant criterion."""

    @pytest.mark.parametrize(
        "p, coeffs",
        [
            (3, (1, 0, 0, 1)),
            (2, (1, 0, 1, 0, 0, 1)),  # x-2 + x0 + x3: period 31
            (2, (1, 0, 0, 1, 0, 0, 1)),
            (7, (1, 1, 1)),
        ],
    )
    def test_window(self, p, coeffs):
        expected = [circulant_reversible(coeffs, p, n) for n in range(1, 25)]
        assert pair_graph_verdicts(linear_rule(p, coeffs), 24) == expected

    def test_huge_sizes(self):
        coeffs = (1, 0, 1, 0, 0, 1)
        rule = linear_rule(2, coeffs)
        for n in (31 * 10**6, 31 * 10**6 + 1, 10**9 + 7):
            assert pair_trace_oracle(rule, n) == circulant_reversible(coeffs, 2, n)

    def test_size_past_a_capped_walk_is_refused(self, monkeypatch):
        # x-2 + x0 + x3 repeats (period 31) after 62 steps; a 40-step cap
        # sees no repeat, so only sizes up to 40 are decided
        rule = linear_rule(2, (1, 0, 1, 0, 0, 1))
        verdicts, period = reversible_by_pair_graph(rule)
        assert (len(verdicts), period) == (62, 31)
        monkeypatch.setattr(debruijn, "WALK_STEP_LIMIT", 40)
        assert reversible_by_pair_graph(rule) == (verdicts[:40], 0)
        assert not pair_trace_oracle(rule, 31)
        assert pair_trace_oracle(rule, 40)
        with pytest.raises(ValueError, match="no repeat in 40 steps, so size 41 is undecided"):
            pair_trace_oracle(rule, 41)

    def test_criterion_spot_values(self):
        # x-1 + x0 + x1 over GF(2) is ECA 150: irreversible exactly for 3 | n
        assert [circulant_reversible((1, 1, 1), 2, n) for n in range(1, 7)] == [
            True, True, False, True, True, False
        ]
        # the shift x0 is a unit: reversible for every n
        assert all(circulant_reversible((0, 1, 0), 2, n) for n in (1, 5, 64))


class TestWalkMemory:
    @given(shaped_rules())
    @example(Rule(RuleParams(2, 6), tuple(r % 2 for r in range(64))))
    @example(Rule(RuleParams(16, 2), tuple(r % 16 for r in range(256))))
    @settings(max_examples=20, deadline=None)
    def test_bound_covers_allocation(self, rule):
        # the set-up and the shape's cached tables count too, so start cold
        debruijn._shape.cache_clear()
        tracemalloc.start()
        try:
            walk = _PairWalk(rule)
            walk.step()
            walk.injective()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = [*walk.buffers, walk.checkpoint]
        assert len({len(state) for state in states}) == 1
        assert peak <= _walk_bytes(rule)

    def test_steps_after_the_first_allocate_no_state(self):
        # period 31: the state repeats nothing within 40 steps
        walk = _PairWalk(linear_rule(2, (1, 0, 1, 0, 0, 1)))
        walk.step()
        walk.injective()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(40):
                assert walk.step() == 0
                walk.injective()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # not even a Boolean array with one byte per state word
        assert peak < len(walk.checkpoint) // 8

    def test_over_limit_raises_before_allocating(self):
        rule = parse_rule("01" * 2048, RuleParams(2, 12))
        need = _walk_bytes(rule)
        assert need > PAIR_GRAPH_BYTE_LIMIT
        tracemalloc.start()
        try:
            with pytest.raises(PairGraphLimitError, match=str(need)):
                reversible_by_pair_graph(rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDot:
    def test_small_graph_edges(self):
        dot = export_debruijn_dot(parse_rule("0110", RuleParams(2, 2)))
        assert dot.count("->") == 4

    def test_fig2_labels_match_rule(self):
        rule = rule33(FIG2_RULE)
        dot = export_debruijn_dot(rule)
        labels = re.findall(r'label="(\d+)/(\d+)"', dot)
        assert len(labels) == 27
        for rmt, out in labels:
            assert rule.table[int(rmt)] == int(out)

    def test_round_trip_recovers_edges(self):
        # edge r: (r div d) -> (r mod d^(m-1)), labeled r / R[r], in RMT order
        rule = eca(110)
        assert dot_edges(rule) == [(r // 2, r % 4, r, rule.table[r]) for r in range(8)]

    def test_deterministic(self):
        rule = eca(30)
        assert export_debruijn_dot(rule) == export_debruijn_dot(rule)

    @pytest.mark.parametrize(
        "name, rule",
        [
            ("eca110", eca(110)),
            ("fig2", rule33(FIG2_RULE)),
            # two-digit states in node words and edge labels
            ("d11m2", Rule(RuleParams(11, 2), tuple((r // 11 + r) % 11 for r in range(121)))),
        ],
    )
    def test_golden(self, name, rule):
        golden = Path(__file__).parent / "golden" / f"{name}_debruijn.dot"
        assert export_debruijn_dot(rule) == golden.read_text(encoding="utf-8")
