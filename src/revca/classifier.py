"""End-to-end reversibility classification.

Pipeline: the constant-RMT shortcut settles strictly irreversible rules at
every n >= 1, the balance shortcut settles unbalanced ones, and every other
rule gets a minimized reachability tree.  One placement rule turns its
nodes' condition failures into irreversible sizes, read on a full tree from
each node's exact levels (`scan_violations`) and below an early stop's
horizon from one walk over the unrolled levels (`walk_violations`).  The
result is one canonical SizeSet over every n >= 1: for other rules n = 1
is reversible (its configurations are uniform), the brute-forced
small-size table answers for 1 < n < m, and the tree's set or the balance
shortcut's from m on.

Every classification is cross-checked against the pair-graph oracle before
it is returned: the walk's verdicts and period give the oracle's whole set,
compared by value; per-size lists are built only to name the sizes of a
disagreement or for a walk that saw no repeat.  A disagreement raises
OracleMismatchError instead of silently shipping either verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count
from math import lcm
from typing import Sequence

from .debruijn import PairGraphLimitError, reversible_by_pair_graph
from .dynamics import brute_force_reversible
from .mintree import MinimizedTree, build_minimized, exact_occurrences
from .rulespace import Rule, is_balanced_rule, is_strictly_irreversible, wolfram_decimal
from .rtree import DEFAULT_TREE_LIMIT, NodeKernel, root_node
from .sizeset import IrreversibilityExpression, SizeSet

MIN_VERIFIED_SIZES = 24  # the least verified_up_to of a walk whose state repeated


class CAClass(enum.Enum):
    REVERSIBLE = "Reversible"
    STRICTLY_IRREVERSIBLE = "StrictlyIrreversible"
    TRIVIALLY_SEMI_REVERSIBLE = "TriviallySemiReversible"
    NON_TRIVIALLY_SEMI_REVERSIBLE = "NonTriviallySemiReversible"


def scan_violations(tree: MinimizedTree, rule: Rule) -> SizeSet:
    """Sizes ruled out by node condition failures on a fully built tree, at
    the placements that each node's exact levels give.

    A failure at iota 0 (intermediate level: d^m RMTs, balanced) rules out
    every n >= min_level + m; one at 1 <= iota < m (level n-iota, restricted
    node: d^iota RMTs, balanced) rules out n = level + iota.  The set is
    exact from m on; `classify` answers below m from the brute-forced table.
    """
    p = rule.params
    failures = NodeKernel(rule).failures
    failing: dict[int, list] = {}  # id(levels) -> [levels, OR of its nodes' failing iota bits]
    for gamma, levels in zip(tree.gammas, exact_occurrences(tree)):
        failed = failures(gamma)
        if failed:
            failing.setdefault(id(levels), [levels, 0])[1] |= failed
    # a pattern's levels are periodic from its start, its first one below start + period
    start = max((levels.start + levels.period + p.m for levels, _ in failing.values()), default=0)
    period = lcm(*(levels.period for levels, _ in failing.values()))
    sizes = 0  # bit n set for each size ruled out, exact below start + period
    for levels, failed in failing.values():
        below = sum(1 << t for t in range(start + period) if t in levels)
        if failed & 1:
            sizes |= -1 << ((below & -below).bit_length() - 1 + p.m)
        for iota in range(1, p.m):
            if failed >> iota & 1:
                sizes |= below << iota
    return SizeSet.periodic(sizes, start, period)


def walk_violations(rule: Rule, horizon: int) -> SizeSet:
    """Irreversible sizes of a rule known irreversible for every n >= horizon.

    The sizes m <= n < horizon follow the scan's placement rule, read from
    one walk over levels 0..horizon-2 of the unrolled tree: a level-t node
    failing at iota 0 rules out every n >= t+m, one failing at iota >= 1
    rules out n = t+iota.  Each level is checked only at the placements
    that can name a size not yet ruled out.
    """
    p = rule.params
    kernel = NodeKernel(rule)
    todo = set(range(p.m, horizon))  # sizes not yet ruled out
    level = {root_node(p)}
    for t in range(horizon - 1):
        # a size n > t is named by placement n - t, or by 0 from t + m on
        wanted = None  # the placements that name a size in todo
        for gamma in level:
            if wanted is None:
                wanted = sum(1 << i for i in {min(n - t, p.m) % p.m for n in todo if n > t})
            failed = kernel.failures(gamma, wanted)
            if failed:
                todo = {n for n in todo if n <= t or not failed >> min(n - t, p.m) % p.m & 1}
                wanted = None
        if max(todo, default=0) <= t + 1:
            break
        level = {kernel.child(gamma, x) for gamma in level for x in range(p.d)}
        if len(level) > DEFAULT_TREE_LIMIT:
            raise ValueError(f"unrolled tree level {t + 1} exceeds {DEFAULT_TREE_LIMIT} nodes")
    return SizeSet.periodic((-1 << min(p.m, horizon)) ^ sum(1 << n for n in todo), horizon, 1)


@dataclass(frozen=True)
class TreeEvidence:
    unique_nodes: int
    height: int


@dataclass(frozen=True)
class Classification:
    rule: Rule
    ca_class: CAClass
    irreversible: SizeSet  # every irreversible size n >= 1
    evidence: TreeEvidence | None
    verified_up_to: int  # sizes 1..N compared one by one with the pair-graph walk; 0: skipped
    verified_all: bool  # the walk's state repeated, so every size was checked

    @property
    def expressions(self) -> tuple[IrreversibilityExpression, ...]:
        return self.irreversible.expressions

    @property
    def sporadic_irreversible(self) -> tuple[int, ...]:
        return self.irreversible.sporadic

    @property
    def small_n_reversible(self) -> dict[int, bool]:
        return {n: n not in self.irreversible for n in range(1, self.rule.params.m)}


class OracleMismatchError(Exception):
    """Classifier and pair-graph oracle disagree on some checked size."""

    def __init__(self, rule: Rule, predicted: Sequence[bool], oracle: Sequence[bool]):
        self.rule = rule
        self.predicted = list(predicted)
        self.oracle = list(oracle)
        bad = [n + 1 for n, (a, b) in enumerate(zip(predicted, oracle)) if a != b]
        super().__init__(
            f"rule {rule} (d={rule.params.d}, m={rule.params.m}): classification "
            f"disagrees with the pair-graph oracle at n = {bad}"
        )


def classify(rule: Rule) -> Classification:
    """Classify a rule and check its irreversible set against the pair-graph walk.

    When the walk's state repeats, the two sets are compared whole;
    otherwise the sizes it walked are compared one by one.  When a shortcut
    decided the class and the walk would pass its memory limit, the
    cross-check is skipped and verified_up_to is 0.
    """
    p = rule.params
    evidence: TreeEvidence | None = None
    strict = is_strictly_irreversible(rule)
    if strict:  # two uniform configurations share a successor at every n >= 1
        irreversible = SizeSet.periodic(-2, 1, 1)
    else:  # at n = 1 every configuration is uniform, so only strict rules fail there
        below = sum(1 << n for n in range(2, p.m) if not brute_force_reversible(rule, n))
        if not is_balanced_rule(rule):  # irreversible for every n >= m
            irreversible = SizeSet.periodic(below | -1 << p.m, p.m, 1)
        else:
            tree = build_minimized(rule, stop_on_violation=True)
            evidence = TreeEvidence(unique_nodes=tree.unique_nodes, height=tree.height)
            if tree.stopped_at is None:
                tail = scan_violations(tree, rule)
            else:
                tail = walk_violations(rule, tree.stop_horizon)
            start = max(p.m, tail.start)
            below |= sum(1 << n for n in range(p.m, start + tail.period) if n in tail)
            irreversible = SizeSet.periodic(below, start, tail.period)
    if strict:
        ca_class = CAClass.STRICTLY_IRREVERSIBLE
    elif not irreversible:
        ca_class = CAClass.REVERSIBLE
    elif irreversible.cofinite:
        ca_class = CAClass.TRIVIALLY_SEMI_REVERSIBLE
    else:
        ca_class = CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE

    try:
        verdicts, period = reversible_by_pair_graph(rule)
    except PairGraphLimitError:
        if evidence is not None:
            raise
        verdicts, period = [], 0
    checked = len(verdicts)
    if period:  # from n = L - P + 1 on the verdicts repeat: the oracle's whole set
        oracle = SizeSet.periodic(
            sum(1 << n for n, v in enumerate(verdicts, 1) if not v), checked - period + 1, period
        )
        checked = max(checked, MIN_VERIFIED_SIZES)
        if oracle != irreversible:  # list the sizes up to the first that differs
            first = next(n for n in count(1) if (n in oracle) != (n in irreversible))
            checked = max(checked, first)
            verdicts = [n not in oracle for n in range(1, checked + 1)]
    if not period or oracle != irreversible:
        predicted = [n not in irreversible for n in range(1, checked + 1)]
        if predicted != verdicts:
            raise OracleMismatchError(rule, predicted, verdicts)
    return Classification(
        rule=rule,
        ca_class=ca_class,
        irreversible=irreversible,
        evidence=evidence,
        verified_up_to=checked,
        verified_all=period > 0,
    )


def is_reversible_for(c: Classification, n: int) -> bool:
    """Membership query: is the CA reversible for lattice size n?"""
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    return n not in c.irreversible


def reversible_sizes(c: Classification, limit: int) -> list[int]:
    """All reversible sizes up to and including `limit`."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return [n for n in range(1, limit + 1) if is_reversible_for(c, n)]


def expressions_text(c: Classification) -> str:
    if c.ca_class is CAClass.STRICTLY_IRREVERSIBLE:
        return "∀ n ∈ ℕ"
    return str(c.irreversible)


def classification_to_json(c: Classification) -> dict:
    p = c.rule.params
    return {
        "rule": str(c.rule),
        "d": p.d,
        "m": p.m,
        "decimal": wolfram_decimal(c.rule),
        "class": c.ca_class.value,
        **c.irreversible.to_json(),
        "small_n_reversible": {str(n): v for n, v in sorted(c.small_n_reversible.items())},
        "tree": (
            None
            if c.evidence is None
            else {"unique_nodes": c.evidence.unique_nodes, "height": c.evidence.height}
        ),
        "verified_up_to": c.verified_up_to,
        "verified_all": c.verified_all,
    }
