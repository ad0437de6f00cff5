"""DOT export of a rule's de Bruijn graph, and the pair-graph reversibility
oracle.

No graph object is built: both read the rule table.  The graph has the
d^(m-1) words of length m-1 as nodes and one edge per RMT (the word
overlap a·x -> x·b carries RMT axb and its output).  Cycles of
length n correspond one-to-one with the RMT sequences of n-cell
configurations, so the closed walks of length n in the pair graph (edges:
RMT pairs with equal output) are the pairs (x, y) with G_n(x) = G_n(y).  For
m >= 2 a pair with x != y passes an off-diagonal node (u, v), u != v, so G_n
is injective iff no closed walk of length n passes one (Amoroso & Patt, 1972;
Sutner, 1991).  The oracle walks Boolean bitsets of the starts (u, v), u < v
(a walk through (v, u) mirrors one through (u, v)); Brent's cycle detection
on the eventually periodic walk state decides every n.
"""

from __future__ import annotations

import numpy as np

from .rulespace import Rule, tuple_of_rmt

# walk state, cycle-detection copy and gather buffer together
PAIR_GRAPH_BYTE_LIMIT = 1 << 28


def export_debruijn_dot(rule: Rule) -> str:
    """DOT text of the rule's de Bruijn graph, read from its table.

    Node k is labeled by its word; edge r is (r div d) -> (r mod d^(m-1)),
    labeled "r/R[r]", in ascending RMT order.
    """
    p = rule.params
    lines = ["digraph debruijn {"]
    for node in range(p.node_width):
        word = "".join(map(str, tuple_of_rmt(node, p)[1:]))
        lines.append(f'    {node} [label="{word}"];')
    for r, output in enumerate(rule.table):
        lines.append(f'    {r // p.d} -> {r % p.node_width} [label="{r}/{output}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _walk_bytes(rule: Rule) -> tuple[int, int]:
    """Bytes of one walk state and, at most, of the gather buffer."""
    w = rule.params.node_width
    words = -(-(w * (w - 1) // 2) // 64)
    # one edge per equal-output RMT pair, plus at most one edge from the zero
    # row into each off-diagonal node that has no incoming edge
    edges = sum(c * c for c in np.bincount(rule.table).tolist()) + w * w - w
    return (w * w + 1) * words * 8, edges * words * 8


def pair_graph_fits(rule: Rule) -> bool:
    """Does the pair-graph walk of this rule fit in PAIR_GRAPH_BYTE_LIMIT?"""
    state_bytes, gather_bytes = _walk_bytes(rule)
    return 2 * state_bytes + gather_bytes <= PAIR_GRAPH_BYTE_LIMIT


class _PairWalk:
    """Packed bitsets of the start nodes that reach each pair node in t steps.

    Row a*w + b of `state` belongs to the pair node (a, b); the extra last row
    stays zero and feeds the nodes that have no incoming edge.
    """

    def __init__(self, rule: Rule) -> None:
        p = rule.params
        if not pair_graph_fits(rule):
            state_bytes, gather_bytes = _walk_bytes(rule)
            raise ValueError(
                f"pair-graph oracle for d={p.d}, m={p.m} needs 2 x {state_bytes} bytes "
                f"of walk state and {gather_bytes} bytes of gather buffer, over the "
                f"limit {PAIR_GRAPH_BYTE_LIMIT}"
            )
        d, w = p.d, p.node_width
        nodes = w * w
        # edge (r, s) ends at (r mod w, s mod w); r = a*w + (r mod w), so
        # listing same[tr, ts, a, b] in C order sorts the edges by target
        cols = np.asarray(rule.table).reshape(d, w).T
        same = cols[:, None, :, None] == cols[None, :, None, :]
        counts = same.sum(axis=(2, 3))
        empty = counts == 0
        same[empty, 0, 0] = True
        counts[empty] = 1
        tr, ts, a, b = np.nonzero(same)
        h = w // d
        self.src = (a * h + tr // d) * w + b * h + ts // d
        self.src[empty[tr, ts]] = nodes
        self.offsets = np.zeros(nodes, dtype=np.intp)
        np.cumsum(counts.ravel()[:-1], out=self.offsets[1:])

        word = np.arange(w)
        u, v = np.nonzero(word[:, None] < word)
        k = np.arange(u.size)
        words = -(-u.size // 64)
        self.state = np.zeros((nodes + 1, words), dtype=np.uint64)
        self.gather = np.empty((self.src.size, words), dtype=np.uint64)
        self._own = (u * w + v) * words + k // 64  # flat index of each start's bit
        self._bits = np.left_shift(np.uint64(1), (k % 64).astype(np.uint64))
        self.state.flat[self._own] = self._bits

    def step(self) -> None:
        np.take(self.state, self.src, axis=0, out=self.gather, mode="clip")
        np.bitwise_or.reduceat(self.gather, self.offsets, axis=0, out=self.state[:-1])

    def injective(self) -> bool:
        """No start reaches itself: no closed walk of length t leaves the diagonal."""
        return not (self.state.take(self._own) & self._bits).any()


def _walk_verdicts(rule: Rule, limit: int) -> tuple[list[bool], int]:
    """Verdicts for n = 1, 2, ... up to `limit`, stopping when the state repeats.

    Returns the verdicts and the period of the state sequence, or 0 when no
    repeat was seen.  With a period P, the verdict at every n past the list
    equals the one at n - P.
    """
    walk = _PairWalk(rule)
    saved = walk.state.copy()
    verdicts: list[bool] = []
    power = period = 1
    while len(verdicts) < limit:
        walk.step()
        verdicts.append(walk.injective())
        if (walk.state == saved).all():
            return verdicts, period
        if period == power:
            np.copyto(saved, walk.state)
            power *= 2
            period = 0
        period += 1
    return verdicts, 0


def pair_trace_oracle(rule: Rule, n: int) -> bool:
    """True iff the CA is reversible for size n, by walks in the pair graph.

    Takes at most n steps, and stops as soon as cycle detection sees the walk
    state repeat, after O(transient + period) steps, so a huge n costs no
    more than the cycle.
    """
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    verdicts, period = _walk_verdicts(rule, n)
    if n > len(verdicts):
        n -= period * -(-(n - len(verdicts)) // period)
    return verdicts[n - 1]


def reversible_by_pair_graph(rule: Rule, upto: int) -> list[bool]:
    """Reversibility verdicts for n = 1..upto from walks in the pair graph."""
    verdicts, period = _walk_verdicts(rule, upto)
    while len(verdicts) < upto:
        verdicts.append(verdicts[-period])
    return verdicts
