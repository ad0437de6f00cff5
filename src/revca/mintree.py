"""Minimized reachability tree: hash-consed unique nodes with level sets.

Construction is level-synchronous.  Every unique node is expanded exactly
once; a child equal to an existing node only adds a link and (when not
already implied) the discovery level.

The level sets are construction-time bookkeeping: they drive the period-1
loop early stop and label the exports, but they are not the exact set of
levels a node occupies in the unrolled tree: a node whose level set is
{i, i'} can also sit at levels off the progression i + k(i'-i).  The exact
occurrences come from the level sequence: the child map drives a walk through
node sets that is eventually periodic, and `exact_occurrences` and
`occurs_at_level` read it.

Level bookkeeping refines the plain discovery levels in three ways, all
needed for nested loops to settle into a fixpoint:

* a new node inherits {l+1 : l in parent's levels}, not just the current level;
* when an existing node gains a level, the increment is pushed through the
  subtree of nodes it created (worklist over creation links, which form a
  tree, so propagation always terminates), skipping nodes where the level is
  already implied;
* explicit levels implied by the remaining set are pruned (an implied level's
  period is a multiple of an existing one, so pruning never changes the
  implied set).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .rtree import Gamma, child_node, gamma_rmts, node_sets, node_violates, root_node
from .rulespace import Rule

DEFAULT_NODE_LIMIT = 1_000_000
_LEVEL_SET_CAP = 64  # explicit levels per node; exceeded only by pathological loop nests


def _implied(levels: list[int], p: int) -> bool:
    """Membership under the loop rule: p is explicit, or lies on a progression
    anchored at the minimum level with the period of some other explicit level."""
    if p in levels:
        return True
    base = levels[0]
    if p < base:
        return False
    return any((p - base) % (other - base) == 0 for other in levels[1:])


def _pruned(levels: list[int]) -> list[int]:
    """Drop explicit levels already implied by the rest (largest first)."""
    out = sorted(levels)
    changed = True
    while changed:
        changed = False
        for idx in range(len(out) - 1, 0, -1):
            rest = out[:idx] + out[idx + 1 :]
            if _implied(rest, out[idx]):
                out.pop(idx)
                changed = True
                break
    return out


@dataclass
class MinimizedTree:
    rule: Rule
    gammas: list[Gamma]
    levels: list[list[int]]  # sorted, pruned explicit level sets
    children: list[list[int]]  # d child ids per node
    height: int  # level at which the last unique node was added
    stopped_at: int | None = None  # construction level of the first violation
    stop_horizon: int | None = None  # irreversible for every n >= this

    @property
    def unique_nodes(self) -> int:
        return len(self.gammas)


class _TriviallyIrreversible(Exception):
    def __init__(self, horizon: int):
        self.horizon = horizon


def build_minimized(
    rule: Rule,
    max_nodes: int = DEFAULT_NODE_LIMIT,
    stop_on_violation: bool = False,
) -> MinimizedTree:
    """Grow the tree until a whole level adds no new unique node.

    With `stop_on_violation`, construction halts as soon as a violation
    proves irreversibility for a whole tail of sizes, which settles trivial
    semi-reversibility without building the rest of the tree:

    * a created node breaks the intermediate-level completeness conditions
      (d^m RMTs, balanced) at level L -> irreversible for every n >= L+m;
    * a node acquires a period-1 loop at level i and its level-restricted
      variant breaks the wrap-around conditions for some iota ->
      irreversible for every n >= i+iota.

    The truncated node count and height are the ones the early-stopping
    classification procedure reports; `stop_horizon` carries the proven
    irreversibility tail.
    """
    p = rule.params
    root = root_node(p)
    ids: dict[Gamma, int] = {root: 0}
    gammas: list[Gamma] = [root]
    levels: list[list[int]] = [[0]]
    children: list[list[int]] = [[-1] * p.d]
    created: list[list[int]] = [[]]  # nodes first built from this one
    height = 0

    def add_level(start: int, new_level: int) -> None:
        work = deque([(start, new_level)])
        while work:
            nid, lvl = work.popleft()
            if _implied(levels[nid], lvl):
                continue
            levels[nid] = _pruned(levels[nid] + [lvl])
            if len(levels[nid]) > _LEVEL_SET_CAP:
                raise ValueError(
                    f"level set of node {nid} exceeded {_LEVEL_SET_CAP} entries"
                )
            if stop_on_violation and levels[nid][1:2] == [levels[nid][0] + 1]:
                # period-1 loop: the node sits at every level >= its minimum
                base = levels[nid][0]
                for iota in range(1, p.m):
                    if node_violates(gammas[nid], iota, rule):
                        raise _TriviallyIrreversible(base + iota)
            for child in created[nid]:
                work.append((child, lvl + 1))

    frontier = [0]
    level = 0
    stopped_at = None
    stop_horizon = None
    try:
        while frontier and stopped_at is None:
            level += 1
            new_frontier = []
            for nid in frontier:
                for x in range(p.d):
                    _, child = child_node(gammas[nid], x, rule)
                    cid = ids.get(child)
                    if cid is None:
                        cid = len(gammas)
                        if cid >= max_nodes:
                            raise ValueError(
                                f"minimized tree exceeds {max_nodes} nodes"
                            )
                        ids[child] = cid
                        gammas.append(child)
                        levels.append([l + 1 for l in levels[nid]])
                        children.append([-1] * p.d)
                        created.append([])
                        created[nid].append(cid)
                        children[nid][x] = cid
                        new_frontier.append(cid)
                        height = level
                        if stop_on_violation and node_violates(child, 0, rule):
                            raise _TriviallyIrreversible(level + p.m)
                    else:
                        children[nid][x] = cid
                        add_level(cid, level)
            frontier = new_frontier
    except _TriviallyIrreversible as stop:
        stopped_at = level
        stop_horizon = stop.horizon
    return MinimizedTree(rule, gammas, levels, children, height, stopped_at, stop_horizon)


def occurs_at_level(tree: MinimizedTree, node_id: int, p: int) -> bool:
    """Does the node appear at level p of the unrolled tree?

    Exact (read from the level sequence), so the tree must be fully built.
    Each call rebuilds the level sequence and every node's occurrences, which
    costs O(transient + period) level sets of up to M nodes; to query many
    nodes, call `exact_occurrences` once and test `p in occurrences[node_id]`.
    """
    if p < 0:
        raise ValueError(f"level must be >= 0, got {p}")
    return p in exact_occurrences(tree)[node_id]


_SEQUENCE_CAP = 1 << 14


def level_sequence(tree: MinimizedTree) -> tuple[list[frozenset[int]], int, int]:
    """Node-id sets of each level of the (infinitely unrolled) tree.

    The child map drives a deterministic walk through subsets of nodes, so
    the sequence is eventually periodic.  Returns (prefix, transient, period)
    with len(prefix) = transient + period; the set at any level l is
    prefix[l] for l < transient, else prefix[transient + (l-transient) % period].

    Requires a completed tree (every node expanded); not valid on trees
    truncated by stop_on_violation.
    """
    if tree.stopped_at is not None:
        raise ValueError("level_sequence needs a fully built tree")
    seen: dict[frozenset[int], int] = {}
    prefix: list[frozenset[int]] = []
    current = frozenset([0])
    while current not in seen:
        if len(prefix) > _SEQUENCE_CAP:
            raise ValueError("level sequence failed to become periodic")
        seen[current] = len(prefix)
        prefix.append(current)
        current = frozenset(
            child for nid in current for child in tree.children[nid]
        )
    transient = seen[current]
    period = len(prefix) - transient
    return prefix, transient, period


@dataclass(frozen=True)
class Occurrences:
    """Exact levels at which one node appears: finitely many sporadic levels
    plus arithmetic progressions first_level + k*period (one per anchor)."""

    sporadic: tuple[int, ...]
    anchors: tuple[int, ...]
    period: int

    def __contains__(self, level: int) -> bool:
        return level in self.sporadic or any(
            level >= a and (level - a) % self.period == 0 for a in self.anchors
        )

    @property
    def min_level(self) -> int:
        candidates = list(self.sporadic) + list(self.anchors)
        return min(candidates)


def exact_occurrences(tree: MinimizedTree) -> list[Occurrences]:
    """Per-node exact occurrence data from the level sequence.

    Residue classes are coarsened per node: if a node's occurrences within
    the cycle are closed under a divisor g of the global period, its
    progressions use period g (this is what turns the global cycle back into
    the small per-loop periods the size expressions are phrased in).
    """
    prefix, transient, period = level_sequence(tree)
    sporadic: list[list[int]] = [[] for _ in range(tree.unique_nodes)]
    residues: list[set[int]] = [set() for _ in range(tree.unique_nodes)]
    for t in range(transient):
        for nid in prefix[t]:
            sporadic[nid].append(t)
    for c in range(period):
        for nid in prefix[transient + c]:
            residues[nid].add(c)
    out = []
    for nid in range(tree.unique_nodes):
        res = residues[nid]
        if not res:
            out.append(Occurrences(tuple(sporadic[nid]), (), 1))
            continue
        g = period
        for cand in range(1, period + 1):
            if period % cand == 0 and all((c + cand) % period in res for c in res):
                g = cand
                break
        anchors = sorted(
            {min(transient + c for c in res if (transient + c) % g == r)
             for r in {(transient + c) % g for c in res}}
        )
        # pull each anchor back through contiguous pre-cycle occurrences so a
        # loop entered late still yields the progression's true first member
        spor = set(sporadic[nid])
        lowered = []
        for a in anchors:
            while a - g in spor:
                a -= g
                spor.remove(a)
            lowered.append(a)
        out.append(Occurrences(tuple(sorted(spor)), tuple(sorted(lowered)), g))
    return out


def loops_of(tree: MinimizedTree, node_id: int) -> list[tuple[int, int]]:
    """(base, period) pairs, one per level beyond the minimum."""
    lv = tree.levels[node_id]
    return [(lv[0], other - lv[0]) for other in lv[1:]]


def tree_to_json(tree: MinimizedTree) -> dict:
    return {
        "M": tree.unique_nodes,
        "height": tree.height,
        "nodes": [
            {
                "id": nid,
                "levels": list(tree.levels[nid]),
                "gamma": [gamma_rmts(g) for g in node_sets(gamma, tree.rule.params)],
                "children": list(tree.children[nid]),
            }
            for nid, gamma in enumerate(tree.gammas)
        ],
    }


def dump_json(tree: MinimizedTree) -> str:
    return json.dumps(tree_to_json(tree), indent=2) + "\n"


def export_minimized_dot(tree: MinimizedTree) -> str:
    """DOT digraph; node labels carry the level sets, edges their output state."""
    lines = ["digraph minimized_tree {"]
    for nid in range(tree.unique_nodes):
        lv = ",".join(map(str, tree.levels[nid]))
        lines.append(f'    {nid} [label="N{nid}\\nlevels {{{lv}}}"];')
    for nid in range(tree.unique_nodes):
        for x, child in enumerate(tree.children[nid]):
            if child >= 0:
                lines.append(f'    {nid} -> {child} [label="{x}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
