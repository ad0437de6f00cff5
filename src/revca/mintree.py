"""Minimized reachability tree: hash-consed unique nodes and their exact levels.

Construction is level-synchronous.  Every unique node is expanded exactly
once; a child equal to an existing node only adds a link.

Where a node sits in the unrolled tree is read from the level sequence: the
child map drives a walk through node sets that is eventually periodic, held
as a Boolean levels x nodes matrix, which the classifier's scan reads row
by row.  A node's levels (its column) form an eventually periodic set, held
as a `SizeSet` (the type that also holds a rule's irreversible sizes): the
view for queries and exports.  `exact_occurrences` builds one per distinct
column, and `MinimizedTree.occurrences` keeps them for `occurs_at_level` and
for the outputs that read their `chains` (one progression per residue plus
the loose levels): `loops_of` and the JSON/DOT exports.

With `stop_on_violation` the build applies the paper's loop rule for period
1: a node reached again at the level after the one it was created at has a
loop of period 1, taken to stand at every level from its creation level on,
and so does every node it created, one level further down: the entries of
its child row that name it as creator.  One flag per node records this; a
new node inherits its creator's flag.  The rule only drives the early stop:
the exact levels can be fewer (ECA 23's node 21 is reached at levels 4 and 5
but does not sit at level 6).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .rtree import DEFAULT_TREE_LIMIT, Gamma, NodeKernel, gamma_rmts, node_sets, root_node
from .rulespace import Rule
from .sizeset import SizeSet

# nodes of a fully built tree, above the largest (2,4) tree (40,320); a tree
# cut at the cap has no exact levels, so the build fails rather than return it
FULL_TREE_LIMIT = 100_000


@dataclass
class MinimizedTree:
    rule: Rule
    gammas: list[Gamma]
    children: list[list[int]]  # d child ids per node
    height: int  # level at which the last unique node was added
    stopped_at: int | None = None  # construction level of the first violation
    stop_horizon: int | None = None  # irreversible for every n >= this

    @property
    def unique_nodes(self) -> int:
        return len(self.gammas)

    @cached_property
    def occurrences(self) -> list[SizeSet]:
        """`exact_occurrences` of this tree, computed on first use."""
        return exact_occurrences(self)


class _TriviallyIrreversible(Exception):
    """Raised with the size from which every size is irreversible."""


def build_minimized(rule: Rule, stop_on_violation: bool = False) -> MinimizedTree:
    """Grow the tree until a whole level adds no new unique node.

    With `stop_on_violation`, construction halts as soon as a violation
    proves irreversibility for a whole tail of sizes, which settles trivial
    semi-reversibility without building the rest of the tree:

    * a created node breaks the intermediate-level completeness conditions
      (d^m RMTs, balanced) at level L -> irreversible for every n >= L+m;
    * a node created at level i acquires a period-1 loop and its
      level-restricted variant breaks the wrap-around conditions for some
      iota -> irreversible for every n >= i+iota.

    The truncated node count and height are the ones the early-stopping
    classification procedure reports; `stop_horizon` carries the proven
    irreversibility tail.
    """
    p = rule.params
    max_nodes = DEFAULT_TREE_LIMIT if stop_on_violation else FULL_TREE_LIMIT
    kernel = NodeKernel(rule)
    child_of, failures = kernel.child, kernel.failures
    root = root_node(p)
    ids: dict[Gamma, int] = {root: 0}
    gammas: list[Gamma] = [root]
    children: list[list[int]] = [[-1] * p.d]
    born: list[int] = [0]  # creation level
    loop1: list[bool] = [False]  # has a period-1 loop (kept only when stopping)
    creator: list[int] = [-1]  # the node whose expansion first built this one
    height = 0

    def flag_loop(start: int) -> None:
        # the loop carries down the creation links, which form a tree
        work = deque([start])
        while work:
            nid = work.popleft()
            if loop1[nid]:
                continue
            loop1[nid] = True
            failed = failures(gammas[nid], -2)  # every placement but 0
            if failed:
                raise _TriviallyIrreversible(born[nid] + (failed & -failed).bit_length() - 1)
            work.extend(c for c in children[nid] if c >= 0 and creator[c] == nid)

    frontier = [0]
    level = 0
    stopped_at = None
    stop_horizon = None
    try:
        while frontier and stopped_at is None:
            level += 1
            new_frontier = []
            for nid in frontier:
                gamma, row = gammas[nid], children[nid]
                for x in range(p.d):
                    child = child_of(gamma, x)
                    cid = ids.get(child)
                    if cid is None:
                        cid = len(gammas)
                        if cid >= max_nodes:
                            raise ValueError(
                                f"minimized tree exceeds {max_nodes} nodes"
                            )
                        ids[child] = cid
                        gammas.append(child)
                        children.append([-1] * p.d)
                        born.append(level)
                        loop1.append(loop1[nid])
                        creator.append(nid)
                        row[x] = cid
                        new_frontier.append(cid)
                        height = level
                        if stop_on_violation and failures(child, 1):
                            raise _TriviallyIrreversible(level + p.m)
                    else:
                        row[x] = cid
                        if stop_on_violation and level == born[cid] + 1 and not loop1[cid]:
                            flag_loop(cid)
            frontier = new_frontier
    except _TriviallyIrreversible as stop:
        stopped_at = level
        (stop_horizon,) = stop.args
    return MinimizedTree(rule, gammas, children, height, stopped_at, stop_horizon)


def occurs_at_level(tree: MinimizedTree, node_id: int, p: int) -> bool:
    """Does the node appear at level p of the unrolled tree?

    Exact (read from the level sequence), so the tree must be fully built.
    """
    if p < 0:
        raise ValueError(f"level must be >= 0, got {p}")
    return p in tree.occurrences[node_id]


# the level matrix and one copy of it (its row keys, later its columns): at
# FULL_TREE_LIMIT nodes, 1,342 levels
LEVEL_MATRIX_BYTE_LIMIT = 1 << 28


def level_sequence(tree: MinimizedTree) -> tuple[np.ndarray, int, int]:
    """Nodes at each level of the (infinitely unrolled) tree.

    The child map drives a deterministic walk through subsets of nodes, so
    the sequence is eventually periodic.  Returns (matrix, transient,
    period): a Boolean (transient + period) x nodes matrix whose row l marks
    the nodes at level l for l < transient, and at any later level l the
    row transient + (l - transient) % period.

    Requires a completed tree (every node expanded); not valid on trees
    truncated by stop_on_violation.  Refused, with a ValueError, once the
    matrix and its row keys would pass LEVEL_MATRIX_BYTE_LIMIT.
    """
    if tree.stopped_at is not None:
        raise ValueError("level_sequence needs a fully built tree")
    n, d = tree.unique_nodes, tree.rule.params.d
    children = np.fromiter(chain.from_iterable(tree.children), np.intp, n * d).reshape(n, d)
    seen: dict[bytes, int] = {}  # row -> level; its keys are the rows in order
    row = np.arange(n) == 0  # the root alone
    while (key := row.tobytes()) not in seen:
        if 2 * (len(seen) + 1) * n > LEVEL_MATRIX_BYTE_LIMIT:
            raise ValueError(f"level matrix of {n} nodes passes {LEVEL_MATRIX_BYTE_LIMIT} bytes")
        seen[key] = len(seen)
        row, nodes = np.zeros(n, dtype=bool), row
        row[children.compress(nodes, axis=0)] = True
    transient = seen[key]
    matrix = np.frombuffer(b"".join(seen), dtype=bool).reshape(len(seen), n)
    return matrix, transient, len(seen) - transient


def exact_occurrences(tree: MinimizedTree) -> list[SizeSet]:
    """Per-node exact level sets from the level sequence.

    Nodes with the same column of the level matrix share one `SizeSet`,
    computed once.
    """
    matrix, transient, period = level_sequence(tree)
    # node i's column, bit l for level l, at [i*size, (i+1)*size)
    size, flat = -(-len(matrix) // 8), np.packbits(matrix, axis=0, bitorder="little").T.tobytes()
    columns = [flat[i : i + size] for i in range(0, len(flat), size)]
    shared = {
        c: SizeSet.periodic(int.from_bytes(c, "little"), transient, period) for c in set(columns)
    }
    return [shared[c] for c in columns]


def loops_of(tree: MinimizedTree, node_id: int) -> list[tuple[int, int]]:
    """(first level, period) of each progression of the node's levels."""
    levels = tree.occurrences[node_id]
    return [(a, levels.period) for a in levels.chains[1]]


def tree_to_json(tree: MinimizedTree) -> dict:
    return {
        "M": tree.unique_nodes,
        "height": tree.height,
        "nodes": [
            {
                "id": nid,
                "levels": {
                    "sporadic": list(levels.chains[0]),
                    "anchors": list(levels.chains[1]),
                    "period": levels.period,
                },
                "gamma": [gamma_rmts(g) for g in node_sets(gamma, tree.rule.params)],
                "children": list(tree.children[nid]),
            }
            for nid, (gamma, levels) in enumerate(zip(tree.gammas, tree.occurrences))
        ],
    }


def dump_json(tree: MinimizedTree) -> str:
    return json.dumps(tree_to_json(tree), indent=2) + "\n"


def _label(levels: SizeSet) -> str:
    """{a,a+period} for one progression (the paper's loop notation), {l}
    for one level; else the loose levels ("only" when there is no
    progression) and each progression a+period*k, joined by ∪."""
    loose, anchors = levels.chains
    if not loose and len(anchors) == 1:
        return f"{{{anchors[0]},{anchors[0] + levels.period}}}"
    finite = "{" + ",".join(map(str, loose)) + "}"
    if not anchors:
        return finite if len(loose) == 1 else f"{finite} only"
    step = "" if levels.period == 1 else levels.period
    parts = [finite] if loose else []
    return " ∪ ".join(parts + [f"{a}+{step}k" for a in anchors])


def export_minimized_dot(tree: MinimizedTree) -> str:
    """DOT digraph; node labels carry the exact levels, edges their output state."""
    lines = ["digraph minimized_tree {"]
    for nid, levels in enumerate(tree.occurrences):
        lines.append(f'    {nid} [label="N{nid}\\nlevels {_label(levels)}"];')
    for nid in range(tree.unique_nodes):
        for x, child in enumerate(tree.children[nid]):
            if child >= 0:
                lines.append(f'    {nid} -> {child} [label="{x}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
