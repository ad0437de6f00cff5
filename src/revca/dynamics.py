"""Configurations, the finite global map under periodic boundary, and the
exhaustive bijectivity oracle.

Configurations are tuples of cell states on a ring of n cells; their decimal
code reads cell 0 as the most significant base-d digit.

One kernel computes successor codes.  The configurations form a C-order grid
whose axes are runs of consecutive cells, so a configuration's code is its
flat index.  Cell i's RMT is then a small index array broadcast over the
grid: it spans the axes of cell i's wrapped window (n < m wraps too) and has
size 1 on the others.  These arrays depend only on (d, l_r, r_r, n) and are
cached per shape.  A rule adds n terms table[rmt_i] * d^(n-1-i), and every
successor code is their broadcast sum.

The sum is produced in blocks of at most 2^12 consecutive codes, each block
fixing the leading cells.  The brute-force oracle marks each block's
successors in a d^n-byte presence bitmap and stops at the first successor
already marked, so memory is the bitmap plus a few block-sized arrays,
bounded by DEFAULT_BRUTE_LIMIT (2^24 configurations) before anything is
allocated.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import product
from math import prod
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .rulespace import Rule

DEFAULT_BRUTE_LIMIT = 1 << 24
_BLOCK = 1 << 12  # configurations per scan block, at most
# codes index the presence bitmap, and numpy turns narrower index arrays into
# intp on every gather and scatter
_CODE = np.intp

Configuration = tuple[int, ...]


def config_to_code(cells: Configuration, d: int) -> int:
    code = 0
    for s in cells:
        code = code * d + s
    return code


def config_from_code(code: int, n: int, d: int) -> Configuration:
    cells = []
    for _ in range(n):
        cells.append(code % d)
        code //= d
    return tuple(reversed(cells))


def parse_config(text: str, d: int) -> Configuration:
    cells = tuple(int(c) for c in text)
    if any(s >= d for s in cells):
        raise ValueError(f"configuration '{text}' has a cell state >= {d}")
    return cells


def rmt_sequence(cells: Configuration, rule: Rule) -> tuple[int, ...]:
    """RMT read by each cell: neighborhood indices wrap mod n (also for n < m)."""
    p = rule.params
    n = len(cells)
    out = []
    for i in range(n):
        r = 0
        for k in range(-p.l_r, p.r_r + 1):
            r = r * p.d + cells[(i + k) % n]
        out.append(r)
    return tuple(out)


def step(cells: Configuration, rule: Rule) -> Configuration:
    """Successor configuration under the global map."""
    return tuple(rule.table[r] for r in rmt_sequence(cells, rule))


def shift(cells: Configuration, k: int = 1) -> Configuration:
    """Cyclic left shift by k cells."""
    n = len(cells)
    k %= n
    return cells[k:] + cells[:k]


def _check_limit(rule: Rule, n: int) -> int:
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    total = rule.params.d**n
    if total > DEFAULT_BRUTE_LIMIT:
        raise ValueError(
            f"{rule.params.d}^{n} = {total} configurations exceed the limit "
            f"{DEFAULT_BRUTE_LIMIT}"
        )
    return total


class _Plan(NamedTuple):
    """The rule-independent half of the successor kernel for one (d, l_r, r_r, n).

    Term i is table[rmt_i] * d^(n-1-i), with rmt_i cell i's RMT as an index
    array broadcast over the grid.  The index arrays point into the per-call
    weighted table (weights x table, raveled), so one gather gives a term;
    terms of equal shape are stacked, so one gather gives them all.
    """

    ranges: tuple[range, ...]  # values of the axes a block fixes
    weights: np.ndarray  # d^(n-1-i) per cell
    # the terms in groups, each with the shape of its sum squeezed of the
    # fixed axes it misses, and a getter that picks the values of the fixed
    # axes it spans from a block's fixed values
    groups: tuple[tuple[tuple[np.ndarray, ...], tuple[int, ...], Callable], ...]


@lru_cache(maxsize=128)
def _plan(d: int, l_r: int, r_r: int, n: int) -> _Plan:
    """The configurations as a C-order grid whose axes are runs of
    consecutive cells, so a code is the grid's flat index.

    The last `free` cells span at most _BLOCK configurations; a scan block
    fixes the axes of the other cells.  An axis spans up to `width` cells,
    so a window's axes hold at most m + 2(width-1) cells and every term has
    at most _BLOCK entries (d^m <= 4096 = _BLOCK is the table limit).
    """
    m = l_r + r_r + 1
    free = 1
    while d ** (free + 1) <= _BLOCK:
        free += 1
    free = min(free, n)
    width = 1
    while d ** (m + 2 * width) <= _BLOCK:
        width += 1
    # cells per axis: the fixed and the free cells each in near-equal runs
    lead_axes, free_axes = (_runs(cells, width) for cells in (n - free, free))
    axes, fixed = lead_axes + free_axes, len(lead_axes)
    digits = []  # digits[a]: the state of cell a, broadcast over the grid
    for j, cells in enumerate(axes):
        values = np.arange(d**cells).reshape((1,) * j + (-1,) + (1,) * (len(axes) - 1 - j))
        digits += [values // d ** (cells - 1 - o) % d for o in range(cells)]
    groups, group, shape = [], [], ()
    for i in range(n):
        idx = i * d**m
        for k in range(-l_r, r_r + 1):
            idx = idx + digits[(i + k) % n] * d ** (r_r - k)
        # consecutive terms share a group while its sum stays within _BLOCK
        # entries: fewer additions per block, bounded memory
        merged = np.broadcast_shapes(shape, idx.shape)
        if group and prod(merged) > _BLOCK:
            groups.append(_group(group, shape, fixed))
            group, merged = [], idx.shape
        group.append(idx)
        shape = merged
    groups.append(_group(group, shape, fixed))
    weights = np.array([d ** (n - 1 - i) for i in range(n)], dtype=_CODE)
    ranges = tuple(range(d**cells) for cells in lead_axes)
    return _Plan(ranges, weights, tuple(groups))


def _runs(cells: int, width: int) -> list[int]:
    """Lengths of the fewest near-equal runs of at most `width` cells that
    cover `cells` cells."""
    count = -(-cells // width)
    return [cells // count + (j < cells % count) for j in range(count)]


def _group(terms: list[np.ndarray], shape: tuple[int, ...], fixed: int) -> tuple:
    by_shape: dict[tuple[int, ...], list[np.ndarray]] = {}
    for idx in terms:
        by_shape.setdefault(idx.shape, []).append(idx)
    stacks = tuple(np.stack(same) for same in by_shape.values())
    for stack in stacks:
        stack.setflags(write=False)  # shared by every call through the cache
    spans = [a for a in range(fixed) if shape[a] > 1]
    squeezed = tuple(shape[a] for a in spans) + shape[fixed:]
    get = itemgetter(*spans) if spans else lambda values: ()
    return stacks, squeezed, get


def _blocks(rule: Rule, n: int) -> Iterator[np.ndarray]:
    """Successor codes block by block, in code order.

    A block fixes the leading grid axes and holds the codes of the at most
    _BLOCK configurations that share them: the sum of each group's terms,
    sliced at the block's fixed values.
    """
    p = rule.params
    plan = _plan(p.d, p.l_r, p.r_r, n)
    weighted = np.multiply.outer(plan.weights, np.asarray(rule.table, dtype=_CODE)).ravel()
    sums = []
    for stacks, shape, get in plan.groups:
        parts = [weighted[stack].sum(axis=0) for stack in stacks]
        sums.append((sum(parts[1:], parts[0]).reshape(shape), get))
    for values in product(*plan.ranges):
        parts = [total[get(values)] for total, get in sums]
        yield sum(parts[1:], parts[0]).reshape(-1)


def successor_codes(rule: Rule, n: int) -> np.ndarray:
    """Successor code of every configuration code 0..d^n-1.

    The broadcast sum of the n per-cell terms table[rmt_i] * d^(n-1-i),
    flattened: the blocks of `_blocks`, concatenated.
    """
    _check_limit(rule, n)
    return np.concatenate(list(_blocks(rule, n)))


def brute_force_reversible(rule: Rule, n: int) -> bool:
    """True iff the global map on all d^n configurations is injective.

    On a finite set of equal size, surjectivity and injectivity coincide, so a
    presence bitmap of the successor codes decides both at once.  The scan
    goes block by block: each block's successors are the broadcast sum of
    the per-cell terms sliced at the block's leading cells, and the scan
    returns False as soon as one of them is already marked.

    With two or more blocks this early exit is complete.  If x != y share a
    successor, rotating both until they differ in cell 0 gives another pair
    that shares one (the global map commutes with rotation), and a block
    fixes cell 0, so the two lie in different blocks.  With one block the
    final `seen.all()` catches a collision inside it.  Memory is the
    d^n-byte bitmap plus a few arrays of at most one block each, checked
    against DEFAULT_BRUTE_LIMIT before anything is allocated.
    """
    total = _check_limit(rule, n)
    seen = np.zeros(total, dtype=bool)
    blocks = _blocks(rule, n)
    seen[next(blocks)] = True  # the first block finds nothing marked
    for succ in blocks:
        if seen[succ].any():
            return False
        seen[succ] = True
    return bool(seen.all())


def predecessors(cells: Configuration, rule: Rule) -> list[Configuration]:
    """All configurations that map to `cells`; empty iff `cells` is non-reachable."""
    n = len(cells)
    d = rule.params.d
    succ = successor_codes(rule, n)
    target = config_to_code(cells, d)
    return [config_from_code(int(c), n, d) for c in np.nonzero(succ == target)[0]]


def reachable_codes(rule: Rule, n: int) -> set[int]:
    """Codes of all configurations with at least one predecessor."""
    return set(int(c) for c in np.unique(successor_codes(rule, n)))


def export_transition_diagram(rule: Rule, n: int) -> str:
    """DOT digraph with one edge per configuration (decimal-coded) to its successor.

    Nodes and edges are emitted in ascending code order so output is stable
    for golden-file comparisons.
    """
    succ = successor_codes(rule, n)
    lines = [f'digraph transitions {{']
    lines.append(f'    label="d={rule.params.d} m={rule.params.m} rule={rule} n={n}";')
    for code in range(len(succ)):
        lines.append(f"    {code} -> {int(succ[code])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
