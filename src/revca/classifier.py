"""End-to-end reversibility classification.

Pipeline: the constant-RMT shortcut settles strictly irreversible rules, the
balance shortcut settles unbalanced ones, and every other rule gets a
minimized reachability tree whose nodes are checked against the per-level
completeness conditions.  Violations become raw irreversibility expressions,
arithmetic progressions (residue, modulus, smallest size) plus single sizes,
whose union is, from m on, the set of sizes the CA is irreversible for; below
m it may miss irreversible sizes, and the brute-forced small-size table
answers there.  That set is held as one canonical SizeSet, from which
membership, the class and the printed minimal expressions are all read.

Every classification is cross-checked against the pair-graph oracle on a
window of sizes before it is returned; a disagreement raises
OracleMismatchError instead of silently shipping either verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .debruijn import pair_graph_fits, reversible_by_pair_graph
from .dynamics import brute_force_reversible
from .mintree import MinimizedTree, build_minimized, exact_occurrences
from .rulespace import Rule, is_balanced_rule, is_strictly_irreversible, wolfram_decimal
from .rtree import node_violates, reversible_for_n_by_tree
from .sizeset import IrreversibilityExpression, SizeSet

DEFAULT_ORACLE_WINDOW = 24


class CAClass(enum.Enum):
    REVERSIBLE = "Reversible"
    STRICTLY_IRREVERSIBLE = "StrictlyIrreversible"
    TRIVIALLY_SEMI_REVERSIBLE = "TriviallySemiReversible"
    NON_TRIVIALLY_SEMI_REVERSIBLE = "NonTriviallySemiReversible"


def scan_violations(
    tree: MinimizedTree, rule: Rule
) -> tuple[list[IrreversibilityExpression], list[int]]:
    """Raw progressions and single sizes ruled out by per-node condition failures.

    Placements come from the exact occurrence levels of each node (the level
    sequence of the unrolled tree is eventually periodic, so every node's
    levels are finitely many loose values plus arithmetic progressions).

    Intermediate placements (the node sits at least m levels above the
    leaves) require d^m RMTs and balance; a failure rules out every
    n >= min_level + m.  Special placements at level n-iota check the
    level-restricted node against d^iota RMTs and balance; a failure rules
    out n = level + iota for every occurrence level, i.e. one progression
    per anchor plus single sizes for loose levels (sizes below m are
    owned by the brute-forced small-size table and dropped).

    Nodes at the same levels share one level set, and each distinct
    (level set, failed placements) pair is emitted once, so both lists are
    sorted and free of duplicates.
    """
    p = rule.params
    failing: dict[tuple[int, int], SizeSet] = {}  # (id(levels), iota bits) -> levels
    for gamma, levels in zip(tree.gammas, exact_occurrences(tree)):
        failed = 0
        for iota in range(p.m):
            if node_violates(gamma, iota, rule):
                failed |= 1 << iota
        if failed:
            failing[id(levels), failed] = levels
    progressions: set[tuple[int, int]] = set()  # (min_n, modulus)
    sizes: set[int] = set()
    for (_, failed), levels in failing.items():
        loose, anchors = levels.chains
        if failed & 1:
            progressions.add((min(loose + anchors) + p.m, 1))
        for iota in range(1, p.m):
            if failed >> iota & 1:
                progressions.update((anchor + iota, levels.period) for anchor in anchors)
                sizes.update(level + iota for level in loose if level + iota >= p.m)
    return (
        [IrreversibilityExpression.progression(n, q) for n, q in sorted(progressions)],
        sorted(sizes),
    )


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
    A window of 0 skips the cross-check; a negative one is refused.
    """
    if verified_up_to < 0:
        raise ValueError(f"oracle window must be >= 0, got {verified_up_to}")
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
        if tree.stopped_at is not None:
            # a violation during construction proves irreversibility for the
            # whole tail n >= stop_horizon; the finitely many sizes below are
            # decided exactly on their own reachability trees
            horizon = tree.stop_horizon
            irreversible = SizeSet.of(
                [IrreversibilityExpression.segment(horizon)],
                [n for n in range(p.m, horizon) if not reversible_for_n_by_tree(rule, n)],
            )
        else:
            irreversible = SizeSet.of(*scan_violations(tree, rule))
        if not irreversible and all(small.values()):
            ca_class = CAClass.REVERSIBLE
        elif irreversible.cofinite:
            ca_class = CAClass.TRIVIALLY_SEMI_REVERSIBLE
        else:
            ca_class = CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE

    if evidence is None and not pair_graph_fits(rule):
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
        oracle = reversible_by_pair_graph(rule, verified_up_to)
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
