"""End-to-end reversibility classification.

Pipeline: the constant-RMT shortcut settles strictly irreversible rules, the
balance shortcut settles unbalanced ones, and every other rule gets a
minimized reachability tree.  One placement rule turns its nodes' condition
failures into irreversible sizes, read on a full tree from each node's exact
levels (`scan_violations`) and below an early stop's horizon from one walk
over the unrolled levels (`walk_violations`).  The result is one canonical
SizeSet, exact from m on (the brute-forced small-size table answers below m).

Every classification is cross-checked against the pair-graph oracle on a
window of sizes before it is returned; a disagreement raises
OracleMismatchError instead of silently shipping either verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .debruijn import PairGraphLimitError, reversible_by_pair_graph
from .dynamics import brute_force_reversible
from .mintree import MinimizedTree, build_minimized, exact_occurrences
from .rulespace import Rule, is_balanced_rule, is_strictly_irreversible, wolfram_decimal
from .rtree import DEFAULT_TREE_LIMIT, NodeKernel, root_node
from .sizeset import IrreversibilityExpression, SizeSet

DEFAULT_ORACLE_WINDOW = 24
MAX_ORACLE_WINDOW = 1 << 20  # the cross-check holds two lists of this many verdicts


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
    node: d^iota RMTs, balanced) rules out n = level + iota, below m only
    for a level on a progression of the node's levels.
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
                loose = sum(1 << t for t in levels.chains[0] if t + iota < p.m)
                sizes |= (below & ~loose) << iota
    return SizeSet.periodic(lambda n: bool(sizes >> n & 1), start, period)


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
    return SizeSet.periodic(lambda n: n >= horizon or (n >= p.m and n not in todo), horizon, 1)


@dataclass(frozen=True)
class TreeEvidence:
    unique_nodes: int
    height: int


@dataclass(frozen=True)
class Classification:
    rule: Rule
    ca_class: CAClass
    irreversible: SizeSet  # sizes below m are answered by small_n_reversible
    small_n_reversible: dict[int, bool]
    evidence: TreeEvidence | None
    verified_up_to: int

    @property
    def expressions(self) -> tuple[IrreversibilityExpression, ...]:
        return self.irreversible.expressions

    @property
    def sporadic_irreversible(self) -> tuple[int, ...]:
        return self.irreversible.sporadic


class OracleMismatchError(Exception):
    """Classifier and pair-graph oracle disagree on some checked size."""

    def __init__(
        self,
        rule: Rule,
        predicted: Sequence[bool],
        oracle: Sequence[bool],
    ):
        self.rule = rule
        self.predicted = list(predicted)
        self.oracle = list(oracle)
        bad = [n + 1 for n, (a, b) in enumerate(zip(predicted, oracle)) if a != b]
        super().__init__(
            f"rule {rule} (d={rule.params.d}, m={rule.params.m}): classification "
            f"disagrees with the pair-graph oracle at n = {bad}"
        )


def classify(rule: Rule, verified_up_to: int = DEFAULT_ORACLE_WINDOW) -> Classification:
    """Classify a rule and cross-check the verdicts on the oracle window.

    When a shortcut decided the class and the pair-graph walk would pass its
    memory limit, the cross-check is skipped and verified_up_to is 0.
    A window of 0 skips the cross-check; one outside [0, MAX_ORACLE_WINDOW]
    is refused.
    """
    if not 0 <= verified_up_to <= MAX_ORACLE_WINDOW:
        bound = ">= 0" if verified_up_to < 0 else f"<= {MAX_ORACLE_WINDOW}"
        raise ValueError(f"oracle window must be {bound}, got {verified_up_to}")
    p = rule.params
    small = {n: brute_force_reversible(rule, n) for n in range(1, p.m)}
    evidence: TreeEvidence | None = None

    if is_strictly_irreversible(rule):
        ca_class = CAClass.STRICTLY_IRREVERSIBLE
        irreversible = SizeSet.of([IrreversibilityExpression.segment(1)])
    elif not is_balanced_rule(rule):
        ca_class = CAClass.TRIVIALLY_SEMI_REVERSIBLE
        irreversible = SizeSet.of([IrreversibilityExpression.segment(p.m)])
    else:
        tree = build_minimized(rule, stop_on_violation=True)
        evidence = TreeEvidence(unique_nodes=tree.unique_nodes, height=tree.height)
        if tree.stopped_at is None:
            irreversible = scan_violations(tree, rule)
        else:
            irreversible = walk_violations(rule, tree.stop_horizon)
        if not irreversible and all(small.values()):
            ca_class = CAClass.REVERSIBLE
        elif irreversible.cofinite:
            ca_class = CAClass.TRIVIALLY_SEMI_REVERSIBLE
        else:
            ca_class = CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE

    if verified_up_to >= 1:
        try:
            oracle = reversible_by_pair_graph(rule, verified_up_to)
        except PairGraphLimitError:
            if evidence is not None:
                raise
            verified_up_to = 0
    result = Classification(
        rule=rule,
        ca_class=ca_class,
        irreversible=irreversible,
        small_n_reversible=small,
        evidence=evidence,
        verified_up_to=verified_up_to,
    )
    if verified_up_to >= 1:
        predicted = [is_reversible_for(result, n) for n in range(1, verified_up_to + 1)]
        if predicted != oracle:
            raise OracleMismatchError(rule, predicted, oracle)
    return result


def is_reversible_for(c: Classification, n: int) -> bool:
    """Membership query: is the CA reversible for lattice size n?"""
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    if n < c.rule.params.m:
        return c.small_n_reversible[n]
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
    }
