"""Reachability tree for a fixed lattice size.

A tree node is an ordered list of d^(m-1) RMT sets (one per sibling-set
index), packed into one Python int: set k is the d^m-bit slot at bits
[k d^m, (k+1) d^m), RMT r of set k at bit k d^m + r.  Each level-L node has
d outgoing edges, one per output state x; the edge keeps the parent RMTs that
produce x, and the child collects the sibling successors of the edge RMTs.
Levels n-1 down to n-m+1 additionally restrict children to the RMTs that are
consistent with the periodic wrap-around.

Every node operation is a handful of big-int operations on the whole node,
with masks repeated in every slot: the edge is one AND with the rule's state
mask, the child folds each slot's d blocks of d^(m-1) bits onto the low one,
spreads bit j to bit d*j in ceil(log2 d^(m-1)) masked shifts and fills each
sibling block with one multiplication, and the restriction is one AND.  The
per-shape masks are built once per (d, m) (`_shape`), the per-rule ones and
their per-placement restrictions once per `NodeKernel`, from the rule table;
its `failures` checks all placements of a node in one call.

RMT totals and balance are counted with multiplicity across the d^(m-1) sets
(the same RMT may appear in several of them), so a node's total is its
popcount.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .rulespace import Rule, RuleParams

Gamma = int  # packed node: d^(m-1) slots of d^m bits, one RMT set per slot

# nodes of a per-size tree, of an early-stopping minimized tree, or of one walk level
DEFAULT_TREE_LIMIT = 1_000_000


def repeat_bits(pattern: int, width: int, count: int) -> int:
    """`count` copies of `pattern` side by side, copy k at bit k*width
    (pattern < 2^width); built by doubling, in O(log count) big-int steps."""
    out, copies = pattern, 1
    while copies < count:
        out |= out << (copies * width)
        copies *= 2
    return out & ((1 << (count * width)) - 1)


class _Shape(NamedTuple):
    """Per-shape constants of the packed format; masks repeat in every slot."""

    root: int  # slot k holds the sibling block of k
    fold: tuple[int, ...]  # shifts c*d^(m-1), 0 < c < d, onto the low block
    low: int  # the low d^(m-1) bits of every slot
    spread: tuple[tuple[int, int], ...]  # (mask, shift) steps moving bit j to d*j
    block: int  # 2^d - 1: bit d*j times this is the sibling block of j
    valid: tuple[int, ...]  # valid[iota]: RMTs allowed at level n-iota


@lru_cache(maxsize=None)
def _shape(d: int, m: int) -> _Shape:
    """Keyed on (d, m), not RuleParams, whose hash and equality run Python
    code on every call; the kernels look the shape up on every call."""
    width, size = d ** (m - 1), d**m
    block = (1 << d) - 1
    # slot k of the root is the block << d*k, at bit k*(d^m + d)
    root = repeat_bits(block, size + d, width)
    low = repeat_bits((1 << width) - 1, size, width)
    # dilation from the top bit down: before the step for bit i, bit j sits at
    # (j mod 2^(i+1)) + d*2^(i+1)*(j >> (i+1)); the step moves the j with bit
    # i set by (d-1)*2^i
    spread = []
    for i in reversed(range((width - 1).bit_length())):
        mask = 0
        for j in range(width):
            if j >> i & 1:
                mask |= 1 << ((j & ((2 << i) - 1)) + d * (2 << i) * (j >> (i + 1)))
        spread.append((repeat_bits(mask, size, width), (d - 1) << i))
    # level n-iota allows, in slot k, {a + j d^(m-iota) : j < d^iota} with
    # a = k div d^(iota-1); a group of d^(iota-1) slots shares an anchor, so
    # the groups repeat with stride d^(iota-1)*d^m + 1
    valid = [0]
    for iota in range(1, m):
        group = d ** (iota - 1)
        rmts = repeat_bits(1, d ** (m - iota), d**iota)
        valid.append(
            repeat_bits(repeat_bits(rmts, size, group), group * size + 1, width // group)
        )
    fold = tuple(c * width for c in range(1, d))
    return _Shape(root, fold, low, tuple(spread), block, tuple(valid))


def root_node(params: RuleParams) -> Gamma:
    """Root: the k-th set is the k-th sibling set."""
    return _shape(params.d, params.m).root


def node_sets(gamma: Gamma, params: RuleParams) -> list[int]:
    """The node's d^(m-1) RMT sets, as one d^m-bit mask each."""
    size = params.table_size
    full = (1 << size) - 1
    return [(gamma >> (k * size)) & full for k in range(params.node_width)]


def node_total(gamma: Gamma) -> int:
    """Number of RMTs in the node, counted with multiplicity across sets."""
    return gamma.bit_count()


class NodeKernel:
    """One rule's node operations, `child` and `failures`, with its masks
    built once; `child_node` and `node_violates` build one per call."""

    def __init__(self, rule: Rule):
        p = rule.params
        _, self.fold, self.low, self.spread, self.block, valid = _shape(p.d, p.m)
        masks = [0] * p.d  # per state x, the RMTs r with table[r] = x
        for r, x in enumerate(rule.table):
            masks[x] |= 1 << r
        self.edges = tuple(repeat_bits(mask, p.table_size, p.node_width) for mask in masks)
        self.checks = [  # per placement i: its bit, each state's valid RMTs, the count each needs
            (1 << i, [e & ok for e in self.edges] if i else self.edges, p.d ** ((i or p.m) - 1))
            for i, ok in enumerate(valid)
        ]

    def child(self, parent: Gamma, state: int) -> Gamma:
        """Unrestricted child of a node for output `state` (see `child_node`)."""
        edge = parent & self.edges[state]
        folded = edge
        for shift in self.fold:
            folded |= edge >> shift
        folded &= self.low
        for mask, shift in self.spread:
            moved = folded & mask
            folded ^= moved ^ (moved << shift)
        return folded * self.block

    def failures(self, gamma: Gamma, iotas: int = -1) -> int:
        """The bits of the placements in `iotas` at which `node_violates` holds."""
        failed = 0
        for bit, masks, per_state in self.checks:
            if iotas & bit:
                for mask in masks:
                    if (gamma & mask).bit_count() != per_state:
                        failed |= bit
                        break
        return failed


def node_violates(gamma: Gamma, iota: int, rule: Rule) -> bool:
    """Does the node break the completeness conditions at a placement?

    iota = 0 is an intermediate level (the node must hold d^m RMTs, balanced
    over the next states); 1 <= iota <= m-1 is level n-iota, where the
    level-restricted node must hold d^iota RMTs, balanced.  Both amount to
    d^(m-1), resp. d^(iota-1), RMTs per next state.
    """
    if not 0 <= iota < rule.params.m:
        raise ValueError(f"iota {iota} out of range [0, {rule.params.m - 1}]")
    return bool(NodeKernel(rule).failures(gamma, 1 << iota))


def child_node(parent: Gamma, state: int, rule: Rule) -> Gamma:
    """(Unrestricted) child of a node for output `state`.

    The edge to it keeps the parent RMTs mapped to `state`,
    `parent & NodeKernel(rule).edges[state]`; the child holds, for each edge
    RMT r, the sibling set of r mod d^(m-1).
    """
    if not 0 <= state < rule.params.d:
        raise ValueError(f"state {state} out of range [0, {rule.params.d})")
    return NodeKernel(rule).child(parent, state)


def restrict_special(gamma: Gamma, iota: int, params: RuleParams) -> Gamma:
    """Keep only the RMTs valid at level n-iota (1 <= iota <= m-1)."""
    if not 1 <= iota <= params.m - 1:
        raise ValueError(f"iota {iota} out of range [1, {params.m - 1}]")
    return gamma & _shape(params.d, params.m).valid[iota]


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
    for g in node_sets(gamma, params):
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


def build_full_tree(rule: Rule, n: int) -> FullTree:
    """Build all n+1 levels, deduplicating equal nodes within a level.

    Empty edges are recorded (they decide completeness and the Theorem-style
    edge counts) but not expanded.  Path multiplicities are carried so the
    leaf count equals the number of reachable configurations.
    """
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    p = rule.params
    kernel = NodeKernel(rule)
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
                total = node_total(gamma & kernel.edges[x])
                sizes.add(total)
                if total == 0:
                    complete = False
                    continue
                child = kernel.child(gamma, x)
                if 1 <= iota <= p.m - 1:
                    child = restrict_special(child, iota, p)
                nxt[child] = nxt.get(child, 0) + count
        seen += len(nxt)
        if seen > DEFAULT_TREE_LIMIT:
            raise ValueError(f"tree exceeds the node limit {DEFAULT_TREE_LIMIT}")
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

