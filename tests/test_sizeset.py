from hypothesis import example, given, settings
from hypothesis import strategies as st

from revca.sizeset import SizeSet


def reference_periodic(member, start, period):
    """The member-based canonicalization that `SizeSet.periodic` replaced:
    the set {n >= 0 : member(n)}, where member(n) = member(n + period) for
    every n >= start; member is only called below start + period."""
    residues = {n % period for n in range(start, start + period) if member(n)}
    period = next(
        q
        for q in range(1, period + 1)
        if period % q == 0 and all((r + q) % period in residues for r in residues)
    )
    residues = frozenset(r % period for r in residues)
    while start > 0 and member(start - 1) == ((start - 1) % period in residues):
        start -= 1
    return SizeSet(start, period, residues, tuple(n for n in range(start) if member(n)))


def window_bits(member, stop):
    """Bit n set for each n < stop with member(n)."""
    return sum(1 << n for n in range(stop) if member(n))


@st.composite
def eventually_periodic(draw):
    """(member, start, period): a predicate on n >= 0 that contains 0 and is
    periodic with period from start on."""
    start = draw(st.integers(0, 12))
    period = draw(st.integers(1, 6))
    head = set(draw(st.lists(st.integers(0, 11), max_size=8))) | {0}
    residues = set(draw(st.lists(st.integers(0, period - 1), max_size=period)))
    if start == 0:
        residues.add(0)

    def member(n):
        return n in head if n < start else n % period in residues

    return member, start, period


class TestPeriodic:
    @given(
        st.integers(0, 12),
        st.integers(1, 6),
        st.integers(0, (1 << 18) - 1),
        st.integers(-(1 << 20), 1 << 20),
    )
    @example(start=0, period=1, window=1, above=0)
    @example(start=0, period=4, window=0b0101, above=-1)
    @example(start=5, period=1, window=0b110100, above=-1)
    @example(start=3, period=2, window=0b10110, above=0b1011)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_member_based_reference(self, start, period, window, above):
        window &= (1 << start + period) - 1
        # bits at or above start + period, negative ones included, are ignored
        bits = window | above << start + period
        expected = reference_periodic(lambda n: bool(window >> n & 1), start, period)
        assert SizeSet.periodic(bits, start, period) == expected

    @given(eventually_periodic(), st.integers(0, 10), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_canonical_value_ignores_the_description(self, case, later, times):
        member, start, period = case
        s = SizeSet.periodic(window_bits(member, start + period), start, period)
        wider = start + later + period * times
        assert SizeSet.periodic(window_bits(member, wider), start + later, period * times) == s
        assert s.start == 0 or member(s.start - 1) != ((s.start - 1) % s.period in s.residues)
        assert not any(
            s.period % q == 0 and all((r + q) % s.period in s.residues for r in s.residues)
            for q in range(1, s.period)
        )

    @given(eventually_periodic())
    @settings(max_examples=150, deadline=None)
    def test_membership_is_the_predicate(self, case):
        member, start, period = case
        s = SizeSet.periodic(window_bits(member, start + period), start, period)
        assert 0 in s
        for n in range(start + 3 * period):
            assert (n in s) == member(n), n

    @given(eventually_periodic())
    @settings(max_examples=150, deadline=None)
    def test_chains_split_the_set(self, case):
        member, start, period = case
        s = SizeSet.periodic(window_bits(member, start + period), start, period)
        loose, anchors = s.chains
        assert len(anchors) == len(s.residues)
        assert {a % s.period for a in anchors} == s.residues
        for n in range(start + 3 * period):
            on = [a for a in anchors if n >= a and (n - a) % s.period == 0]
            assert len(on) + (n in loose) == (1 if member(n) else 0), n
        # each progression starts as low as the set allows
        assert not any(a - s.period in s for a in anchors)

    def test_loose_levels_and_one_progression(self):
        # ECA 23's node 21 in the minimized tree: levels {4,5} ∪ 7+k
        s = SizeSet.periodic(0b110000 | -1 << 7, 9, 2)
        assert (s.start, s.period, s.residues, s.head) == (7, 1, frozenset({0}), (4, 5))
        assert s.chains == ((4, 5), (7,))

    def test_finite_set_has_no_progression(self):
        s = SizeSet.periodic(0b1001, 4, 3)
        assert (s.start, s.period, s.residues, s.head) == (4, 1, frozenset(), (0, 3))
        assert s.chains == ((0, 3), ())
