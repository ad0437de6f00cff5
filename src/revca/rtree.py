"""Reachability tree for a fixed lattice size.

A tree node is an ordered list of d^(m-1) RMT sets (one per sibling-set
index), stored as integer bitmasks over the d^m RMTs.  Each level-L node has
d outgoing edges, one per output state x; the edge keeps the parent RMTs that
produce x, and the child collects the sibling successors of the edge RMTs.
Levels n-1 down to n-m+1 additionally restrict children to the RMTs that are
consistent with the periodic wrap-around.

RMT totals and balance are counted with multiplicity across the d^(m-1) sets
(the same RMT may appear in several of them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .rulespace import Rule, RuleParams

Gamma = tuple[int, ...]  # one RMT bitmask per sibling-set index

DEFAULT_TREE_LIMIT = 1_000_000


class EdgeLabel(NamedTuple):
    gamma: Gamma
    state: int


@lru_cache(maxsize=None)
def _sibl_masks(params: RuleParams) -> tuple[int, ...]:
    d = params.d
    block = (1 << d) - 1
    return tuple(block << (d * j) for j in range(params.node_width))


@lru_cache(maxsize=None)
def _valid_masks(params: RuleParams, iota: int) -> tuple[int, ...]:
    """Per sibling-set index k, the RMTs valid at level n-iota:
    {i, i + d^(m-iota), ..., i + (d^iota - 1) d^(m-iota)} with i = k div d^(iota-1)."""
    d, m = params.d, params.m
    masks = []
    for k in range(params.node_width):
        anchor = k // d ** (iota - 1)
        mask = 0
        for j in range(d**iota):
            mask |= 1 << (anchor + j * d ** (m - iota))
        masks.append(mask)
    return tuple(masks)


def root_node(params: RuleParams) -> Gamma:
    """Root: the k-th set is the k-th sibling set."""
    return _sibl_masks(params)


def node_total(gamma: Gamma) -> int:
    """Number of RMTs in the node, counted with multiplicity across sets."""
    return sum(g.bit_count() for g in gamma)


def node_violates(gamma: Gamma, iota: int, rule: Rule) -> bool:
    """Does the node break the completeness conditions at a placement?

    iota = 0 is an intermediate level (the node must hold d^m RMTs, balanced
    over the next states); 1 <= iota <= m-1 is level n-iota, where the
    level-restricted node must hold d^iota RMTs, balanced.
    """
    p = rule.params
    if iota:
        gamma = restrict_special(gamma, iota, p)
    counts = [sum((g & mask).bit_count() for g in gamma) for mask in rule.state_masks]
    return sum(counts) != p.d ** (iota or p.m) or len(set(counts)) != 1


def child_node(parent: Gamma, state: int, rule: Rule) -> tuple[EdgeLabel, Gamma]:
    """Edge label and (unrestricted) child of a node for output `state`.

    Edge: the parent RMTs mapped to `state`.  Child: for each edge RMT r, the
    sibling set of r mod d^(m-1).
    """
    p = rule.params
    if not 0 <= state < p.d:
        raise ValueError(f"state {state} out of range [0, {p.d})")
    mask = rule.state_masks[state]
    width = p.node_width
    width_mask = (1 << width) - 1
    sibl = _sibl_masks(p)
    edge = tuple(g & mask for g in parent)
    child = []
    for g in edge:
        folded = 0
        for c in range(p.d):
            folded |= (g >> (c * width)) & width_mask
        out = 0
        while folded:
            low = folded & -folded
            out |= sibl[low.bit_length() - 1]
            folded ^= low
        child.append(out)
    return EdgeLabel(edge, state), tuple(child)


def restrict_special(gamma: Gamma, iota: int, params: RuleParams) -> Gamma:
    """Keep only the RMTs valid at level n-iota (1 <= iota <= m-1)."""
    if not 1 <= iota <= params.m - 1:
        raise ValueError(f"iota {iota} out of range [1, {params.m - 1}]")
    valid = _valid_masks(params, iota)
    return tuple(g & v for g, v in zip(gamma, valid))


def gamma_rmts(g: int) -> list[int]:
    """Set bits of one RMT bitmask, ascending."""
    rmts = []
    while g:
        low = g & -g
        rmts.append(low.bit_length() - 1)
        g ^= low
    return rmts


def format_node(gamma: Gamma, params: RuleParams) -> str:
    """Node in the textual form ({0, 1}, {4, 5}, ∅, ...)."""
    parts = []
    for g in gamma:
        rmts = gamma_rmts(g)
        parts.append("{" + ", ".join(map(str, rmts)) + "}" if rmts else "∅")
    return "(" + ", ".join(parts) + ")"


@dataclass
class FullTree:
    """Level-deduplicated reachability tree of one (rule, n)."""

    rule: Rule
    n: int
    complete: bool
    leaf_count: int
    level_nodes: list[dict[Gamma, int]]  # gamma -> number of paths reaching it
    edge_sizes: list[set[int]]  # distinct edge RMT totals per source level

    def nodes_at(self, level: int) -> list[Gamma]:
        return list(self.level_nodes[level])


def build_full_tree(rule: Rule, n: int, limit: int = DEFAULT_TREE_LIMIT) -> FullTree:
    """Build all n+1 levels, deduplicating equal nodes within a level.

    Empty edges are recorded (they decide completeness and the Theorem-style
    edge counts) but not expanded.  Path multiplicities are carried so the
    leaf count equals the number of reachable configurations.
    """
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    p = rule.params
    levels: list[dict[Gamma, int]] = [{root_node(p): 1}]
    edge_sizes: list[set[int]] = []
    complete = True
    seen = 1
    for level in range(n):
        current = levels[-1]
        nxt: dict[Gamma, int] = {}
        sizes: set[int] = set()
        child_level = level + 1
        iota = n - child_level  # restriction parameter when 1 <= iota <= m-1
        for gamma, count in current.items():
            for x in range(p.d):
                edge, child = child_node(gamma, x, rule)
                sizes.add(node_total(edge.gamma))
                if node_total(edge.gamma) == 0:
                    complete = False
                    continue
                if 1 <= iota <= p.m - 1:
                    child = restrict_special(child, iota, p)
                nxt[child] = nxt.get(child, 0) + count
        seen += len(nxt)
        if seen > limit:
            raise ValueError(f"tree exceeds the node limit {limit}")
        edge_sizes.append(sizes)
        levels.append(nxt)
    leaf_count = sum(levels[n].values())
    return FullTree(rule, n, complete, leaf_count, levels, edge_sizes)


def edge_counts_ok(tree: FullTree) -> bool:
    """The completeness-equivalent edge-count conditions:

    edges leaving levels 0..n-m carry d^(m-1) RMTs; edges leaving level
    n-iota carry d^(iota-1) RMTs (1 <= iota <= m-1).
    """
    p = tree.rule.params
    n = tree.n
    for level in range(n):
        if level <= n - p.m:
            expected = p.node_width
        else:
            expected = p.d ** (n - level - 1)
        if tree.edge_sizes[level] != {expected}:
            return False
    return True


def reversible_for_n_by_tree(rule: Rule, n: int, limit: int = DEFAULT_TREE_LIMIT) -> bool:
    """Per-size reversibility from tree completeness (requires n >= m)."""
    if n < rule.params.m:
        raise ValueError(f"tree decision needs n >= m = {rule.params.m}, got {n}")
    return build_full_tree(rule, n, limit).complete
