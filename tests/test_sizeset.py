from hypothesis import given, settings
from hypothesis import strategies as st

from revca.sizeset import SizeSet


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
    @given(eventually_periodic(), st.integers(0, 10), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_canonical_value_ignores_the_description(self, case, later, times):
        member, start, period = case
        s = SizeSet.periodic(member, start, period)
        assert SizeSet.periodic(member, start + later, period * times) == s
        assert s.start == 0 or member(s.start - 1) != ((s.start - 1) % s.period in s.residues)
        assert not any(
            s.period % q == 0 and all((r + q) % s.period in s.residues for r in s.residues)
            for q in range(1, s.period)
        )

    @given(eventually_periodic())
    @settings(max_examples=150, deadline=None)
    def test_membership_is_the_predicate(self, case):
        member, start, period = case
        s = SizeSet.periodic(member, start, period)
        assert 0 in s
        for n in range(start + 3 * period):
            assert (n in s) == member(n), n

    @given(eventually_periodic())
    @settings(max_examples=150, deadline=None)
    def test_chains_split_the_set(self, case):
        member, start, period = case
        s = SizeSet.periodic(member, start, period)
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
        s = SizeSet.periodic(lambda t: t in (4, 5) or t >= 7, 9, 2)
        assert (s.start, s.period, s.residues, s.head) == (7, 1, frozenset({0}), (4, 5))
        assert s.chains == ((4, 5), (7,))

    def test_finite_set_has_no_progression(self):
        s = SizeSet.periodic(lambda t: t in (0, 3), 4, 3)
        assert (s.start, s.period, s.residues, s.head) == (4, 1, frozenset(), (0, 3))
        assert s.chains == ((0, 3), ())
