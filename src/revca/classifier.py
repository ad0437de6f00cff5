"""End-to-end reversibility classification.

Pipeline: the constant-RMT shortcut settles strictly irreversible rules at
every n >= 1, the balance shortcut settles unbalanced ones, and every other
rule gets a minimized reachability tree.  One placement function turns a
level's condition failures into irreversible sizes, fed on a full tree from
the rows of its level matrix (`scan_violations`) and below an early stop's
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
from typing import Sequence

import numpy as np

from .debruijn import PairGraphLimitError, reversible_by_pair_graph
from .dynamics import brute_force_reversible
from .mintree import MinimizedTree, build_minimized, level_sequence
from .rulespace import Rule, is_balanced_rule, is_strictly_irreversible, wolfram_decimal
from .rtree import DEFAULT_TREE_LIMIT, NodeKernel, root_node
from .sizeset import IrreversibilityExpression, SizeSet

MIN_VERIFIED_SIZES = 24  # the least verified_up_to of a walk whose state repeated


class CAClass(enum.Enum):
    REVERSIBLE = "Reversible"
    STRICTLY_IRREVERSIBLE = "StrictlyIrreversible"
    TRIVIALLY_SEMI_REVERSIBLE = "TriviallySemiReversible"
    NON_TRIVIALLY_SEMI_REVERSIBLE = "NonTriviallySemiReversible"


def _placed(failed: int, level: int, m: int) -> int:
    """Bits of the sizes that failures at one level rule out: iota 0
    (intermediate level: d^m RMTs, balanced) every n >= level + m, and
    1 <= iota < m (level n-iota, restricted node: d^iota RMTs, balanced)
    the size n = level + iota."""
    return (failed & -2) << level | (-(failed & 1) << level + m)


def scan_violations(tree: MinimizedTree) -> SizeSet:
    """Sizes ruled out by node condition failures on a fully built tree,
    read level by level from its level matrix.

    A level's failures are those of the nodes in its row, one Boolean
    product of the matrix with the nodes x placements failure table; the m
    rows past the matrix wrap its period.  The set is exact from m on;
    `classify` answers below m from the brute-forced table.
    """
    m = tree.rule.params.m
    matrix, transient, period = level_sequence(tree)
    failed = np.fromiter(map(NodeKernel(tree.rule).failures, tree.gammas), np.int64, len(tree.gammas))
    placements = np.arange(m)
    hits = matrix @ (failed[:, None] >> placements & 1).astype(bool)  # levels x placements
    rows = np.r_[: len(matrix), transient + placements % period]  # then m rows wrapped
    sizes = 0
    for level, bits in enumerate((hits.take(rows, axis=0) @ (1 << placements)).tolist()):
        sizes |= _placed(bits, level, m)
    return SizeSet.periodic(sizes, transient + m, period)


def walk_violations(rule: Rule, horizon: int) -> SizeSet:
    """Irreversible sizes of a rule known irreversible for every n >= horizon.

    The sizes m <= n < horizon are placed as in the scan, from one walk over
    levels 0..horizon-2 of the unrolled tree, each level's failures the OR
    over its nodes.  The walk stops once no open size lies above the next
    level.
    """
    p = rule.params
    kernel = NodeKernel(rule)
    sizes = -1 << horizon
    level = {root_node(p)}
    for t in range(horizon - 1):
        failed = 0
        for gamma in level:
            failed |= kernel.failures(gamma, ~failed)
        sizes |= _placed(failed, t, p.m)
        if not ~sizes >> max(p.m, t + 2):  # no open size in [m, horizon) above t+1
            break
        level = {kernel.child(gamma, x) for gamma in level for x in range(p.d)}
        if len(level) > DEFAULT_TREE_LIMIT:
            raise ValueError(f"unrolled tree level {t + 1} exceeds {DEFAULT_TREE_LIMIT} nodes")
    return SizeSet.periodic(sizes & -1 << min(p.m, horizon), horizon, 1)


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
                tail = scan_violations(tree)
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
