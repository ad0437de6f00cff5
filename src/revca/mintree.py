"""Minimized reachability tree: hash-consed unique nodes and their exact levels.

Construction is level-synchronous.  Every unique node is expanded exactly
once; a child equal to an existing node only adds a link.  Ids are handed
out in creation order, so the nodes created at one level are one id range,
the next level's expansion is that range, and the child links are one
(nodes, d) id array.

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
its child row that name it as creator.  Those were created at the current
level and have no children yet, so the rule reaches one level down and no
further.  One flag per node records this; a new node inherits its
creator's flag.  The rule only drives the early stop:
the exact levels can be fewer (ECA 23's node 21 is reached at levels 4 and 5
but does not sit at level 6).
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rtree import DEFAULT_TREE_LIMIT, Gamma, NodeKernel, gamma_rmts, node_sets, root_node
from .rulespace import Rule
from .sizeset import SizeSet

# nodes of a full build (no early stop), which `classify` never runs: the
# minimized-tree export and the exact levels need one.  Many full trees pass
# it (the strictly irreversible (2,4) rule 0101101010111010 has 985,593
# nodes), and a tree cut at the cap has no exact levels, so the build fails
# rather than return it
FULL_TREE_LIMIT = 100_000


@dataclass
class MinimizedTree:
    rule: Rule
    gammas: list[Gamma]
    children: np.ndarray  # (nodes, d) child ids; -1 where a cut build left one unexpanded
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
    d = p.d
    max_nodes = DEFAULT_TREE_LIMIT if stop_on_violation else FULL_TREE_LIMIT
    kernel = NodeKernel(rule)
    child_of, failures = kernel.child, kernel.failures
    root = root_node(p)
    ids: dict[Gamma, int] = {root: 0}
    gammas: list[Gamma] = [root]
    unexpanded = array("q", [-1]) * d
    children = array("q", unexpanded)  # row nid at [nid*d, (nid+1)*d)
    loop1: list[bool] = [False]  # has a period-1 loop
    creator: list[int] = [-1]  # the node whose expansion first built this one
    height = 0
    level, lo, hi = 0, 0, 1  # ids lo..hi-1 were created at level - 1
    stopped_at = None
    stop_horizon = None
    try:
        while lo < hi:
            level += 1
            for nid in range(lo, hi):
                gamma, row = gammas[nid], nid * d
                for x in range(d):
                    child = child_of(gamma, x)
                    cid = children[row + x] = ids.setdefault(child, len(gammas))
                    if cid == len(gammas):
                        if cid >= max_nodes:
                            raise ValueError(
                                f"minimized tree exceeds {max_nodes} nodes"
                            )
                        gammas.append(child)
                        children += unexpanded
                        loop1.append(loop1[nid])
                        creator.append(nid)
                        height = level
                        if stop_on_violation and failures(child, 1):
                            raise _TriviallyIrreversible(level + p.m)
                    elif stop_on_violation and lo <= cid < hi and not loop1[cid]:
                        # the loop carries down the creation links, to the
                        # nodes cid created: born at this level (ids from hi
                        # on, cid one level up), they have no children yet
                        kids = children[cid * d : cid * d + d]
                        for node in [cid, *(c for c in kids if c >= hi and creator[c] == cid)]:
                            loop1[node] = True
                            if failed := failures(gammas[node], -2):  # every placement but 0
                                iota = (failed & -failed).bit_length() - 1
                                raise _TriviallyIrreversible(level - (node < hi) + iota)
            lo, hi = hi, len(gammas)
    except _TriviallyIrreversible as stop:
        stopped_at = level
        (stop_horizon,) = stop.args
    child_ids = np.frombuffer(children, np.int64).reshape(-1, d)
    return MinimizedTree(rule, gammas, child_ids, height, stopped_at, stop_horizon)


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
    n, children = tree.unique_nodes, tree.children
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
                "children": row,
            }
            for nid, (gamma, levels, row) in enumerate(
                zip(tree.gammas, tree.occurrences, tree.children.tolist())
            )
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
    for nid, row in enumerate(tree.children.tolist()):
        for x, child in enumerate(row):
            if child >= 0:
                lines.append(f'    {nid} -> {child} [label="{x}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
