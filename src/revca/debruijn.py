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
decides only the sizes it walked.  A rule's edges are selected from every
candidate RMT pair, cached per shape with the node it starts at.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rulespace import Rule, tuple_of_rmt

# every buffer of one walk together (see _walk_bytes)
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
    """Bytes the walk holds at most, from its set-up on: three states (steps
    t and t-1, and Brent's checkpoint), the gather buffer, and the diagonal
    buffer with its zero twin; the set-up's Boolean candidate table, its
    edge index, the intp sources and the offsets with their search keys;
    and the shape's cached tables (`_shape`), with 16 KiB for the Python
    objects that hold them."""
    d, w = rule.params.d, rule.params.node_width
    starts = w * (w - 1) // 2
    words = -(-starts // 64)
    # one edge per equal-output RMT pair, plus at most one edge from the zero
    # row into each off-diagonal node that has no incoming edge
    edges = sum(rule.table.count(x) ** 2 for x in set(rule.table)) + w * w - w
    candidates = w * w * (d * d + 1)
    state = (w * w + 1) * words * 8
    walk = 3 * state + edges * words * 8 + 2 * starts * 8
    setup = candidates + edges * 16 + w * w * 16
    shape = 2 * candidates + 4 * w * d * d + 2 * starts * 8 + state
    return walk + setup + shape + (1 << 14)


@lru_cache(maxsize=64)
def _shape(d: int, w: int) -> tuple:
    """The walk's rule-independent tables for d states and w = d^(m-1) words.

    Candidate edge (tr, ts, a*d + b) into pair node tr*w + ts joins RMTs
    first[tr, a*d + b] = a*w + tr and second[ts, a*d + b] = b*w + ts and
    starts at the pair node of their leading words (the source table);
    candidate (tr, ts, d^2) is the edge from the zero row, past the last
    node.  The tables are uint16: a walk within PAIR_GRAPH_BYTE_LIMIT has
    d^m <= w^2 < 2^16 (and d < 2^8).  Start (u, v), u < v, number k, owns
    bit k % 64 of word k // 64 in row u*w + v of the start state.
    """
    nodes, word, pair = w * w, np.arange(w)[:, None], np.arange(d * d)
    first = (pair // d * w + word).astype(np.uint16)
    second = (pair % d * w + word).astype(np.uint16)
    src = np.full((w, w, d * d + 1), nodes, dtype=np.uint16)
    np.add((first // d * w)[:, None], second // d, out=src[..., :-1])
    u, v = np.nonzero(word < word.T)
    k = np.arange(u.size)
    own = (u * w + v) * -(-u.size // 64) + k // 64
    bits = np.left_shift(np.uint64(1), (k % 64).astype(np.uint64))
    start = np.zeros((nodes + 1) * -(-u.size // 64), dtype=np.uint64)
    start[own] = bits
    return src, first, second, own, bits, start.tobytes()


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
                f"buffers, over the limit {PAIR_GRAPH_BYTE_LIMIT}"
            )
        w = p.node_width
        src, first, second, self._own, self._bits, start = _shape(p.d, w)
        # an edge per candidate whose two RMTs share an output, and one from
        # the zero row into each node that has none; the row-major order of
        # the candidates sorts the edges by target
        table = np.asarray(rule.table, dtype=np.uint8)
        edge = np.empty(src.shape, dtype=bool)
        same, empty = edge[..., :-1], edge[..., -1]
        np.equal(table.take(first)[:, None], table.take(second), out=same)
        np.logical_not(np.logical_or.reduce(same, axis=2, out=empty), out=empty)
        edges = np.flatnonzero(edge)
        self.src = src.take(edges).astype(np.intp)  # the gather's index type
        self.offsets = edges.searchsorted(np.arange(0, edge.size, edge.shape[2]))

        words = -(-self._own.size // 64)
        self.buffers = (bytearray(start), bytearray(len(start)))  # steps t and t-1, by parity
        self.states = tuple(
            np.frombuffer(b, dtype=np.uint64).reshape(w * w + 1, words) for b in self.buffers
        )
        self._heads = tuple(state[:-1] for state in self.states)  # all rows but the zero row
        self.checkpoint = bytearray(start)
        self.gather = np.empty((self.src.size, words), dtype=np.uint64)
        # the diagonal bits of the live state, tested against zero by one memcmp
        self.diagonal = bytearray(self._own.size * 8)
        self.zero = bytes(len(self.diagonal))
        self._diagonal = np.frombuffer(self.diagonal, dtype=np.uint64)
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
        return self.diagonal == self.zero


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
