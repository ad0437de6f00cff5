"""Rule tables, RMT arithmetic, sibling/equivalent sets, and rule-level shortcuts.

A local rule of a d-state, m-neighbor cellular automaton is a table of d^m
next-state values, indexed by Rule Min Terms (RMTs): an RMT is the base-d
number of the neighborhood tuple (s_0, ..., s_{m-1}), s_0 most significant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

DEFAULT_TABLE_LIMIT = 4096  # cap on d^m; a packed tree node has d^(m-1) slots of d^m bits


class RuleFormatError(ValueError):
    """Raised when a rule string cannot be parsed."""


@dataclass(frozen=True)
class RuleParams:
    """Shape of a rule space: states d, neighborhood size m, and the split
    of the neighborhood into l_r left and r_r right neighbors (l_r + r_r + 1 = m).

    The split defaults to l_r = floor((m-1)/2).  Per-size reversibility is
    invariant under the split (shifting the anchor composes the global map
    with a cyclic shift, which is a bijection), so it only affects how
    configurations evolve, never how rules classify.
    """

    d: int
    m: int
    l_r: int = -1  # -1 means "use the default split"
    r_r: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"need at least 2 states, got d={self.d}")
        if self.m < 2:
            raise ValueError(f"need at least 2 neighbors, got m={self.m}")
        l_r = self.l_r if self.l_r >= 0 else (self.m - 1) // 2
        r_r = self.m - 1 - l_r
        if not (0 <= l_r <= self.m - 1):
            raise ValueError(f"left radius {self.l_r} out of range for m={self.m}")
        object.__setattr__(self, "l_r", l_r)
        object.__setattr__(self, "r_r", r_r)
        if self.d**self.m > DEFAULT_TABLE_LIMIT:
            raise ValueError(
                f"d^m = {self.d}^{self.m} exceeds the table limit {DEFAULT_TABLE_LIMIT}"
            )

    @property
    def table_size(self) -> int:
        """Number of RMTs, d^m."""
        return self.d**self.m

    @property
    def node_width(self) -> int:
        """Number of sibling/equivalent sets (and de Bruijn nodes), d^(m-1)."""
        return self.d ** (self.m - 1)


def rmt_of_tuple(states: Sequence[int], params: RuleParams) -> int:
    """Base-d value of a neighborhood tuple (s_0 most significant)."""
    if len(states) != params.m:
        raise ValueError(f"expected {params.m} states, got {len(states)}")
    r = 0
    for s in states:
        if not 0 <= s < params.d:
            raise ValueError(f"state {s} out of range [0, {params.d})")
        r = r * params.d + s
    return r


def tuple_of_rmt(r: int, params: RuleParams) -> tuple[int, ...]:
    """Neighborhood tuple encoded by RMT r (inverse of rmt_of_tuple)."""
    if not 0 <= r < params.table_size:
        raise ValueError(f"RMT {r} out of range [0, {params.table_size})")
    out = []
    for _ in range(params.m):
        out.append(r % params.d)
        r //= params.d
    return tuple(reversed(out))


def sibling_set(j: int, params: RuleParams) -> frozenset[int]:
    """Sibl_j = {d*j, ..., d*j + d - 1}: the RMTs that may follow an RMT of Equi_j."""
    if not 0 <= j < params.node_width:
        raise ValueError(f"sibling index {j} out of range [0, {params.node_width})")
    return frozenset(range(params.d * j, params.d * j + params.d))


def equivalent_set(i: int, params: RuleParams) -> frozenset[int]:
    """Equi_i = {i, d^(m-1) + i, ..., (d-1)*d^(m-1) + i}."""
    if not 0 <= i < params.node_width:
        raise ValueError(f"equivalent index {i} out of range [0, {params.node_width})")
    return frozenset(i + c * params.node_width for c in range(params.d))


def repeat_bits(pattern: int, width: int, count: int) -> int:
    """`count` copies of `pattern` side by side, copy k at bit k*width
    (pattern < 2^width); built by doubling, in O(log count) big-int steps."""
    out, copies = pattern, 1
    while copies < count:
        out |= out << (copies * width)
        copies *= 2
    return out & ((1 << (count * width)) - 1)


def uniform_rmts(params: RuleParams) -> list[int]:
    """The d RMTs whose tuple is constant: x * (d^m - 1) / (d - 1) for each state x."""
    step = (params.table_size - 1) // (params.d - 1)
    return [x * step for x in range(params.d)]


@dataclass(frozen=True)
class Rule:
    """An immutable rule table; table[r] is the next state for RMT r."""

    params: RuleParams
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != self.params.table_size:
            raise ValueError(
                f"table has {len(self.table)} entries, expected {self.params.table_size}"
            )
        for r, v in enumerate(self.table):
            if not 0 <= v < self.params.d:
                raise ValueError(f"table[{r}] = {v} is not a state in [0, {self.params.d})")

    @cached_property
    def node_state_masks(self) -> tuple[int, ...]:
        """Per state x, the bitset of RMTs r with table[r] = x, repeated in
        each of the d^(m-1) d^m-bit slots of a packed tree node (see rtree)."""
        p = self.params
        masks = [0] * p.d
        for r, v in enumerate(self.table):
            masks[v] |= 1 << r
        return tuple(repeat_bits(mask, p.table_size, p.node_width) for mask in masks)

    def digit_string(self) -> str:
        """The rule as the digit string R[d^m-1] ... R[1] R[0]."""
        if self.params.d > 10:
            raise ValueError("digit strings are only defined for d <= 10; use wolfram_decimal")
        return "".join(str(v) for v in reversed(self.table))

    def __str__(self) -> str:
        if self.params.d <= 10:
            return self.digit_string()
        return str(wolfram_decimal(self))


def parse_rule(text: str, params: RuleParams) -> Rule:
    """Parse a rule from its digit string (most significant RMT first) or decimal code.

    A string of exactly d^m base-d digit characters is read positionally;
    anything else must be a decimal integer below d^(d^m).
    """
    text = text.strip()
    if not text:
        raise RuleFormatError("empty rule string")
    if not text.isdigit():
        bad = next(i for i, c in enumerate(text) if not c.isdigit())
        raise RuleFormatError(
            f"rule '{text}' has a non-digit character at position {bad}"
        )
    size = params.table_size
    if len(text) == size and params.d <= 10:
        digits = []
        for pos, c in enumerate(text):
            v = int(c)
            if v >= params.d:
                raise RuleFormatError(
                    f"digit '{c}' at position {pos} is not a state of a {params.d}-state rule"
                )
            digits.append(v)
        return Rule(params, tuple(reversed(digits)))
    if text.startswith("0") and len(text) > 1:
        # leading zero marks digit-string intent, so the length must match
        raise RuleFormatError(
            f"digit string has length {len(text)}, expected {size} for d={params.d}, m={params.m}"
        )
    return rule_from_decimal(int(text), params)


def rule_from_decimal(value: int, params: RuleParams) -> Rule:
    """Build a rule directly from its decimal code."""
    size = params.table_size
    if value < 0 or value >= params.d**size:
        raise RuleFormatError(f"decimal rule {value} out of range [0, {params.d}^{size})")
    table = []
    for _ in range(size):
        table.append(value % params.d)
        value //= params.d
    return Rule(params, tuple(table))


def wolfram_decimal(rule: Rule) -> int:
    """Decimal code of a rule: sum of table[r] * d^r (arbitrary precision)."""
    value = 0
    for v in reversed(rule.table):
        value = value * rule.params.d + v
    return value


def is_balanced_rule(rule: Rule) -> bool:
    counts = [0] * rule.params.d
    for v in rule.table:
        counts[v] += 1
    return all(c == rule.params.node_width for c in counts)


def is_strictly_irreversible(rule: Rule) -> bool:
    """True iff two constant-tuple RMTs share a next state (irreversible for every n)."""
    outputs = [rule.table[r] for r in uniform_rmts(rule.params)]
    return len(set(outputs)) < len(outputs)


def reflected(rule: Rule) -> Rule:
    """The rule read with the neighborhood reversed."""
    p = rule.params
    table = [0] * p.table_size
    for r in range(p.table_size):
        table[rmt_of_tuple(tuple(reversed(tuple_of_rmt(r, p))), p)] = rule.table[r]
    return Rule(p, tuple(table))


def complemented(rule: Rule) -> Rule:
    """The rule conjugated by the state relabeling x -> d-1-x."""
    p = rule.params
    table = [0] * p.table_size
    for r in range(p.table_size):
        flipped = tuple(p.d - 1 - s for s in tuple_of_rmt(r, p))
        table[rmt_of_tuple(flipped, p)] = p.d - 1 - rule.table[r]
    return Rule(p, tuple(table))


def equivalent_rules(rule: Rule) -> list[Rule]:
    """The reflection/complement orbit of a rule (4 rules, possibly with repeats)."""
    return [rule, reflected(rule), complemented(rule), complemented(reflected(rule))]


def minimal_decimal(rule: Rule) -> int:
    """Smallest decimal code in the reflection/complement orbit."""
    return min(wolfram_decimal(r) for r in equivalent_rules(rule))


def all_rules(params: RuleParams) -> Iterable[Rule]:
    """All rules of a family in ascending decimal order."""
    total = params.d**params.table_size
    for value in range(total):
        yield rule_from_decimal(value, params)
