"""End-to-end reversibility classification.

Pipeline: the constant-RMT shortcut settles strictly irreversible rules, the
balance shortcut settles unbalanced ones, and every other rule gets a
minimized reachability tree whose nodes are checked against the per-level
completeness conditions.  Violations become raw irreversibility expressions,
arithmetic progressions (residue, modulus, smallest size) plus single sizes,
whose union is the set of sizes the CA is irreversible for.  That set is held
as one canonical SizeSet, from which membership, the class and the printed
minimal expressions are all read.

Every classification is cross-checked against the pair-graph oracle on a
window of sizes before it is returned; a disagreement raises
OracleMismatchError instead of silently shipping either verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .debruijn import pair_graph_fits, reversible_by_pair_graph
from .dynamics import brute_force_reversible
from .mintree import MinimizedTree, Occurrences, build_minimized, exact_occurrences
from .rulespace import Rule, is_balanced_rule, is_strictly_irreversible, wolfram_decimal
from .rtree import node_violates, reversible_for_n_by_tree

DEFAULT_ORACLE_WINDOW = 24


class CAClass(enum.Enum):
    REVERSIBLE = "Reversible"
    STRICTLY_IRREVERSIBLE = "StrictlyIrreversible"
    TRIVIALLY_SEMI_REVERSIBLE = "TriviallySemiReversible"
    NON_TRIVIALLY_SEMI_REVERSIBLE = "NonTriviallySemiReversible"


@dataclass(frozen=True, order=True)
class IrreversibilityExpression:
    """The size set {n >= min_n : n == residue (mod modulus)}.

    A final segment n >= min_n is encoded with modulus 1 (residue 0).
    """

    min_n: int
    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} out of range [0, {self.modulus})")
        if self.min_n < 1 or self.min_n % self.modulus != self.residue:
            raise ValueError(
                f"min_n {self.min_n} is not a member of its own progression"
            )

    @classmethod
    def segment(cls, min_n: int) -> "IrreversibilityExpression":
        return cls(min_n=min_n, modulus=1, residue=0)

    @classmethod
    def progression(cls, min_n: int, modulus: int) -> "IrreversibilityExpression":
        return cls(min_n=min_n, modulus=modulus, residue=min_n % modulus)

    @property
    def is_segment(self) -> bool:
        return self.modulus == 1

    def covers(self, n: int) -> bool:
        return n >= self.min_n and n % self.modulus == self.residue

    def __str__(self) -> str:
        if self.is_segment:
            return f"n ≥ {self.min_n}"
        return f"n ≡ {self.residue} (mod {self.modulus}), n ≥ {self.min_n}"


@dataclass(frozen=True)
class SizeSet:
    """An eventually periodic set of lattice sizes, in canonical form.

    A size n >= start is a member iff n mod period is in residues; head lists
    the members below start.  start is the smallest threshold from which the
    set is periodic and period its minimal period, so equal sets are equal
    values.
    """

    start: int
    period: int
    residues: frozenset[int]
    head: tuple[int, ...]

    @classmethod
    def of(
        cls,
        progressions: Iterable[IrreversibilityExpression] = (),
        sizes: Iterable[int] = (),
    ) -> "SizeSet":
        """The union of raw progressions and single sizes."""
        progressions = set(progressions)
        sizes = set(sizes)

        def raw(n: int) -> bool:
            return n in sizes or any(e.covers(n) for e in progressions)

        period = lcm(*(e.modulus for e in progressions))
        start = max([1, *(e.min_n for e in progressions), *(s + 1 for s in sizes)])
        residues = {n % period for n in range(start, start + period) if raw(n)}
        period = next(
            q
            for q in range(1, period + 1)
            if period % q == 0 and all((r + q) % period in residues for r in residues)
        )
        residues = frozenset(r % period for r in residues)
        while start > 1 and raw(start - 1) == ((start - 1) % period in residues):
            start -= 1
        return cls(start, period, residues, tuple(n for n in range(1, start) if raw(n)))

    def __contains__(self, n: int) -> bool:
        if n >= self.start:
            return n % self.period in self.residues
        return n in self.head

    def __bool__(self) -> bool:
        return bool(self.residues or self.head)

    @property
    def cofinite(self) -> bool:
        return len(self.residues) == self.period

    @cached_property
    def expressions(self) -> tuple[IrreversibilityExpression, ...]:
        """The minimal progressions: the maximal residue classes inside the
        set, less any class the others cover (finest first), each extended
        back while its earlier member is in the set."""
        p, res = self.period, self.residues
        classes: list[tuple[int, int]] = []  # (residue, modulus)
        for q in (q for q in range(1, p + 1) if p % q == 0):
            for r in range(q):
                if all(x in res for x in range(r, p, q)) and not any(
                    q % q2 == 0 and r % q2 == r2 for r2, q2 in classes
                ):
                    classes.append((r, q))
        for r, q in sorted(classes, key=lambda c: (-c[1], c[0])):
            others = [c for c in classes if c != (r, q)]
            if all(any(x % q2 == r2 for r2, q2 in others) for x in range(r, p, q)):
                classes = others
        out = []
        for r, q in classes:
            n = self.start + (r - self.start) % q
            while n > q and n - q in self:
                n -= q
            out.append(IrreversibilityExpression(min_n=n, modulus=q, residue=r))
        return tuple(sorted(out))

    @property
    def sporadic(self) -> tuple[int, ...]:
        """Members that no minimal progression covers."""
        return tuple(
            n for n in self.head if not any(e.covers(n) for e in self.expressions)
        )

    def __str__(self) -> str:
        parts = [str(e) for e in self.expressions]
        parts.extend(f"n = {s}" for s in self.sporadic)
        return "; ".join(parts) if parts else "∅"

    def to_json(self) -> dict:
        return {
            "expressions": [
                {"residue": e.residue, "modulus": e.modulus, "min_n": e.min_n}
                for e in self.expressions
            ],
            "sporadic_irreversible": list(self.sporadic),
        }


def scan_violations(
    tree: MinimizedTree, rule: Rule
) -> tuple[list[IrreversibilityExpression], list[int]]:
    """Raw progressions and single sizes ruled out by per-node condition failures.

    Placements come from the exact occurrence levels of each node (the level
    sequence of the unrolled tree is eventually periodic, so every node's
    levels are finitely many sporadic values plus arithmetic progressions).

    Intermediate placements (the node sits at least m levels above the
    leaves) require d^m RMTs and balance; a failure rules out every
    n >= min_level + m.  Special placements at level n-iota check the
    level-restricted node against d^iota RMTs and balance; a failure rules
    out n = level + iota for every occurrence level, i.e. one progression
    per anchor plus single sizes for sporadic occurrences (sizes below m are
    owned by the brute-forced small-size table and dropped).

    Nodes at the same levels share one Occurrences, and each distinct
    (occurrences, failed placements) pair is emitted once, so both lists are
    sorted and free of duplicates.
    """
    p = rule.params
    failing: dict[tuple[int, int], Occurrences] = {}  # (id(occ), iota bits) -> occ
    for gamma, occ in zip(tree.gammas, exact_occurrences(tree)):
        failed = 0
        for iota in range(p.m):
            if node_violates(gamma, iota, rule):
                failed |= 1 << iota
        if failed:
            failing[id(occ), failed] = occ
    progressions: set[tuple[int, int]] = set()  # (min_n, modulus)
    sizes: set[int] = set()
    for (_, failed), occ in failing.items():
        if failed & 1:
            progressions.add((occ.min_level + p.m, 1))
        for iota in range(1, p.m):
            if failed >> iota & 1:
                progressions.update((anchor + iota, occ.period) for anchor in occ.anchors)
                sizes.update(level + iota for level in occ.sporadic if level + iota >= p.m)
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


def classify(
    rule: Rule,
    verified_up_to: int = DEFAULT_ORACLE_WINDOW,
    max_nodes: int = 1_000_000,
) -> Classification:
    """Classify a rule and cross-check the verdicts on the oracle window.

    When a shortcut decided the class and the pair-graph walk would pass its
    memory limit, the cross-check is skipped and verified_up_to is 0.
    """
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
        tree = build_minimized(rule, max_nodes=max_nodes, stop_on_violation=True)
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
