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
(a walk through (v, u) mirrors one through (u, v)).  The walk state is
eventually periodic, and so are the verdicts: the walk stops at the state's
first repeat when it reaches a fixed point (the common end), and when it
returns to Brent's checkpoint on a longer cycle, so its verdicts and period
decide every n.  A walk that sees no repeat within WALK_STEP_LIMIT steps
decides only the sizes it walked.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rulespace import Rule, tuple_of_rmt

# three walk states and the gather buffer together
PAIR_GRAPH_BYTE_LIMIT = 1 << 28
# steps the walk takes at most while it waits for its state to repeat
WALK_STEP_LIMIT = 4096


class PairGraphLimitError(ValueError):
    """The pair-graph walk of a rule would pass PAIR_GRAPH_BYTE_LIMIT."""


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


def _walk_bytes(rule: Rule) -> int:
    """Bytes of every buffer the walk holds, at most: three states (steps t
    and t-1, and Brent's checkpoint) and the gather buffer."""
    w = rule.params.node_width
    words = -(-(w * (w - 1) // 2) // 64)
    # one edge per equal-output RMT pair, plus at most one edge from the zero
    # row into each off-diagonal node that has no incoming edge
    edges = sum(c * c for c in np.bincount(rule.table).tolist()) + w * w - w
    return (3 * (w * w + 1) + edges) * words * 8


@lru_cache(maxsize=64)
def _shape(d: int, w: int) -> tuple[np.ndarray, ...]:
    """The walk's rule-independent arrays for d states and w = d^(m-1) words.

    Edge (a*w + tr, b*w + ts) starts at (a*h + tr//d, b*h + ts//d), h = w/d:
    one term read by target (tr, ts), one by RMT pair (a, b).  The extra pair
    d^2 stands for the edge from the zero row; its term is past the last
    node, which the clipped gather reads as the zero row.  Start k = (u, v),
    u < v, owns bit k % 64 of word k // 64 in row u*w + v.
    """
    h = w // d
    word = np.arange(w)
    by_target = ((word // d)[:, None] * w + word // d).ravel()
    digit = np.arange(d) * h
    by_pair = np.append((digit[:, None] * w + digit).ravel(), w * w)
    u, v = np.nonzero(word[:, None] < word)
    k = np.arange(u.size)
    own = (u * w + v) * -(-u.size // 64) + k // 64
    bits = np.left_shift(np.uint64(1), (k % 64).astype(np.uint64))
    return np.arange(w * w), by_target, by_pair, own, bits


class _PairWalk:
    """Packed bitsets of the start nodes that reach each pair node in t steps.

    Row a*w + b of a state belongs to the pair node (a, b); the extra last row
    stays zero and feeds the nodes that have no incoming edge.  The states of
    steps t and t-1 live in two buffers, and each step overwrites the older;
    a third holds Brent's checkpoint.  No step allocates memory.
    """

    def __init__(self, rule: Rule) -> None:
        p = rule.params
        need = _walk_bytes(rule)
        if need > PAIR_GRAPH_BYTE_LIMIT:
            raise PairGraphLimitError(
                f"pair-graph oracle for d={p.d}, m={p.m} needs {need} bytes of walk "
                f"states and gather buffer, over the limit {PAIR_GRAPH_BYTE_LIMIT}"
            )
        d, w = p.d, p.node_width
        nodes = w * w
        node_ids, by_target, by_pair, self._own, self._bits = _shape(d, w)
        # same[tr*w + ts, a*d + b]: do RMTs a*w + tr and b*w + ts share an
        # output?  Edge (r, s) ends at (r mod w, s mod w), so the flat order
        # of the true entries sorts the edges by target.
        cols = np.asarray(rule.table).reshape(d, w).T
        same = (cols[:, None, :, None] == cols[None, :, None, :]).reshape(nodes, d * d)
        empty = ~same.any(axis=1)
        edges = np.concatenate((same, empty[:, None]), axis=1).ravel().nonzero()[0]
        target, pair = np.divmod(edges, d * d + 1)
        self.src = by_target.take(target) + by_pair.take(pair)
        self.offsets = target.searchsorted(node_ids)

        words = -(-self._own.size // 64)
        size = (nodes + 1) * words * 8
        self.buffers = (bytearray(size), bytearray(size))  # steps t and t-1, by parity
        self.states = tuple(
            np.frombuffer(b, dtype=np.uint64).reshape(nodes + 1, words) for b in self.buffers
        )
        self._heads = tuple(state[:-1] for state in self.states)  # all rows but the zero row
        self.states[0].flat[self._own] = self._bits
        self.checkpoint = bytearray(self.buffers[0])
        self.gather = np.empty((self.src.size, words), dtype=np.uint64)
        # after a step the gather buffer is free; its head holds the diagonal bits
        self._diagonal = self.gather.reshape(-1)[: self._own.size]
        self.t = 0
        self._power = self._period = 1

    def step(self) -> int:
        """Advance one step, writing over the older state.

        Returns the period of the state sequence once the new state repeats
        an earlier one, else 0.  A fixed point shows at its first repeat;
        a longer cycle shows when the state returns to Brent's checkpoint,
        taken after steps 1, 3, 7, 15, ...
        """
        live = self.t & 1
        new = live ^ 1
        self.states[live].take(self.src, axis=0, out=self.gather, mode="clip")
        np.bitwise_or.reduceat(self.gather, self.offsets, axis=0, out=self._heads[new])
        self.t += 1
        if self.buffers[new] == self.buffers[live]:  # bytes equality: one memcmp
            return 1
        if self.buffers[new] == self.checkpoint:
            return self._period
        if self._period == self._power:
            self.checkpoint[:] = self.buffers[new]
            self._power *= 2
            self._period = 0
        self._period += 1
        return 0

    def injective(self) -> bool:
        """No start reaches itself: no closed walk of length t leaves the diagonal."""
        diagonal = self._diagonal
        self.states[self.t & 1].take(self._own, out=diagonal, mode="clip")
        np.bitwise_and(diagonal, self._bits, out=diagonal)
        return not np.count_nonzero(diagonal)


def reversible_by_pair_graph(rule: Rule) -> tuple[list[bool], int]:
    """Reversibility verdicts for n = 1..L from walks in the pair graph, and
    the period P of the walk state.

    The walk stops when its state repeats, or after WALK_STEP_LIMIT steps
    with P = 0.  With P > 0, the verdict at every n > L equals the one at
    n - P, so the verdicts decide every size.
    """
    walk = _PairWalk(rule)
    verdicts: list[bool] = []
    while len(verdicts) < WALK_STEP_LIMIT:
        period = walk.step()
        verdicts.append(walk.injective())
        if period:
            return verdicts, period
    return verdicts, 0


def pair_trace_oracle(rule: Rule, n: int) -> bool:
    """True iff the CA is reversible for size n, by walks in the pair graph.

    Reads the verdict off `reversible_by_pair_graph`'s walk, through its
    period for n past the walk, so a huge n costs no more than the cycle.
    A size past a walk that found no repeat is refused.
    """
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    verdicts, period = reversible_by_pair_graph(rule)
    if n > len(verdicts):
        if not period:
            raise ValueError(
                f"pair-graph walk saw no repeat in {len(verdicts)} steps, so size {n} is undecided"
            )
        n -= period * -(-(n - len(verdicts)) // period)
    return verdicts[n - 1]
