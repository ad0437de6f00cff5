"""The four workloads: one seeded pass of inputs each.

Every op is one library call.  The timed loop repeats the pass, on freshly
built rule objects each time, and reports each op's median over the passes,
so that a run measures one fixed mix of inputs and a slow spell of the host
shorter than half the run moves no metric.  Inputs are built here, in set-up, never inside the
timed loop; the library sees only the generated rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from revca import classifier, dynamics
from revca.rulespace import Rule, RuleParams, parse_rule, tuple_of_rmt


@dataclass(frozen=True)
class Op:
    """One library call: `classify(rule)`, or `brute_force_reversible(rule, n)` when n > 0."""

    rule: Rule
    n: int = 0
    coeffs: tuple[int, ...] | None = None  # linear rules: coefficients of x_-l .. x_r
    group: str = ""  # "eca", "anchor.table", "anchor.height", or the family

    def __call__(self):
        # looked up at call time, so the traced run sees the wrapped functions
        if self.n:
            return dynamics.brute_force_reversible(self.rule, self.n)
        return classifier.classify(self.rule)


# acceptance test 4: (d, m, rule, M, height, class, [(residue, modulus, min_n)])
TABLE_ANCHORS = (
    (2, 3, "01010101", 7, 2, "Reversible", []),
    (2, 3, "00101101", 21, 5, "NonTriviallySemiReversible", [(0, 2, 2)]),
    (2, 3, "10010110", 12, 4, "NonTriviallySemiReversible", [(0, 3, 3)]),
    (3, 3, "012012012012012012012012012", 13, 2, "Reversible", []),
    (2, 4, "0000111101001011", 32, 5, "Reversible", []),
    (2, 4, "0101101010100101", 56, 9, "NonTriviallySemiReversible", [(0, 7, 7)]),
    (2, 4, "1010101010101010", 15, 3, "Reversible", []),
)
# acceptance test 5: six 3-state rules whose deciding-tree heights are, as a
# multiset, exactly HEIGHT_ANCHOR_HEIGHTS
HEIGHT_ANCHORS = (
    "012012012012012210012102012",
    "012210210102012102210210012",
    "012012012012012012012012012",
    "021101110202222202110010021",
    "111011011222220122000102200",
    "102120120102120021120120120",
)
HEIGHT_ANCHOR_HEIGHTS = [19, 19, 9, 7, 6, 2]

# tree_panel: pinned balanced rules whose minimized trees have 871 to 40,320
# nodes (the anchors add 7 to 1,371), rather than seeded draws.  Uniform
# draws of left-permutive rules are unbounded (some (2,5) draws pass the
# 1,000,000-node limit) and
# heavy-tailed, and even a relabeling of the states changes a truncated
# tree's size by up to 30%, so every seeded variant tried made the spread
# between runs wider than a useful bound.  Tree sizes in brackets.  The
# (2,5) rule 00110011011001101100110010011001 (40,668 nodes, 1.5 s) is left
# out to shorten the pass, so that a run holds more of them: most of its
# time goes to per-size trees (rtree), while the (2,4) rule below, whose
# full tree is built and scanned, keeps mintree and classifier the largest
# layers of this workload.
TREE_PINNED = (
    (2, 4, "1010100101010110"),  # [40,320], the largest tree of the (2,4) family
    (2, 5, "10001101011000010111001010011110"),  # [5,835]
    (3, 3, "001201210220120102112012021"),  # [9,826]
    (3, 3, "202021112121210001010102220"),  # [2,474]
    (3, 3, "011022201200211120122100012"),  # [1,088]
    (3, 3, "101201122020120011212012200"),  # [1,169]
    (3, 3, "201112020120001212012220101"),  # [1,018]
    (2, 4, "1001001101101100"),  # [871]
    (2, 4, "1010011101011000"),  # [994]
    (2, 4, "0001101011100101"),  # [994]
    (2, 4, "1110010100011010"),  # [1,345]
)
# MEDIAN_COPIES more copies of one pinned 1,169-node tree fill the middle of
# the panel, so that latency_ms.p50 is that op's latency.  Without them the
# middle held several unlike ops 15-20% apart, and a noisy host reordered
# them: p50 spread 19-30% over 10 runs of identical inputs.
MEDIAN_TREE = "101201122020120011212012200"
MEDIAN_COPIES = 10

# the (2,4) rules with 40,320-node trees: 4 of 65,536, each about 3,500 times
# the family's median cost and together 17% of a full-family sweep, so one
# uniform draw among 3,000 halves a run's throughput.  family_sweep draws
# from the other 65,532 rules; tree_panel measures 43350 (1010100101010110).
GIANTS_24 = frozenset({43350, 38250, 27285, 22185})


# oracle_panel: linear rules over GF(p) as (d, coefficients of x_-l .. x_r),
# one or more per ExactMatrix tier (pair dimension in brackets).  An odd
# count puts the middle of the sorted latency samples inside one op's
# samples; with six ops p50 was the mean of the slowest sample of one op and
# the fastest of the next, and spread 17% over ten runs.  (5,3) x-1+2x0+x1,
# a second int64 case at 1.9 s, is left out for that reason.
LINEAR_PANEL = (
    (3, (1, 0, 0, 1)),  # float64 [729]
    (3, (1, 1, 0, 2)),  # float64 [729]
    (2, (1, 0, 1, 0, 0, 1)),  # float64 [1024], irreversible for n = 0 mod 31
    (5, (1, 1, 1)),  # float64 then int64 [625]
    (11, (1, 1)),  # float64, int64 then bigint [121]
)

BRUTE_FAMILIES = ((2, 4, 20), (3, 2, 12), (3, 3, 12))  # (d, m, largest n)

# family_sweep's (2,4) rules are one fixed uniform sample, drawn with this
# seed; the run's seed sets the order of the pass.  A fresh sample per seed
# made the tail a property of the draw: over 200 simulated 3,000-rule
# samples of the measured family, p99 spread 26% (quartiles over median).
FAMILY_SAMPLE_SEED = 0
FAMILY_SWEEP_DRAWS = 1000
BRUTE_RULES_PER_FAMILY = 3


def _rule(d: int, m: int, table) -> Rule:
    return Rule(RuleParams(d, m), tuple(table))


def _from_value(value: int, d: int, m: int) -> Rule:
    return _rule(d, m, ((value // d**k) % d for k in range(d**m)))


def linear_rule(d: int, coeffs: tuple[int, ...]) -> Rule:
    p = RuleParams(d, len(coeffs))
    table = (
        sum(c * x for c, x in zip(coeffs, tuple_of_rmt(r, p))) % d for r in range(p.table_size)
    )
    return Rule(p, tuple(table))


def family_sweep(seed: int) -> list[Op]:
    """All 256 ECA rules and a fixed uniform sample of the d=2, m=4 family
    without the GIANTS_24, in seeded order."""
    sample = random.Random(FAMILY_SAMPLE_SEED)
    ops = [Op(_from_value(v, 2, 3), group="eca") for v in range(256)]
    while len(ops) < 256 + FAMILY_SWEEP_DRAWS:
        value = sample.randrange(1 << 16)
        if value not in GIANTS_24:
            ops.append(Op(_from_value(value, 2, 4), group="2,4"))
    random.Random(seed).shuffle(ops)
    return ops


def tree_panel(seed: int) -> list[Op]:
    """The anchors of acceptance tests 4 and 5 and the pinned trees.

    The seed is not used: the panel is fixed, and so is its order, because
    an op's latency depends on the op before it (a small op after a large
    tree runs up to twice as slow).
    """
    ops = [
        Op(parse_rule(text, RuleParams(d, m)), group="anchor.table")
        for d, m, text, *_ in TABLE_ANCHORS
    ]
    ops += [Op(parse_rule(t, RuleParams(3, 3)), group="anchor.height") for t in HEIGHT_ANCHORS]
    ops += [Op(parse_rule(t, RuleParams(d, m)), group=f"{d},{m}") for d, m, t in TREE_PINNED]
    ops += [Op(parse_rule(MEDIAN_TREE, RuleParams(3, 3)), group="3,3") for _ in range(MEDIAN_COPIES)]
    return ops


def oracle_panel(seed: int) -> list[Op]:
    """The linear panel in seeded order."""
    ops = [Op(linear_rule(d, c), coeffs=c, group=f"{d},{len(c)}") for d, c in LINEAR_PANEL]
    random.Random(seed).shuffle(ops)
    return ops


def brute_oracle(seed: int) -> list[Op]:
    """Seeded rules of each family, each at every n from 1 to the family's largest n."""
    rng = random.Random(seed)
    ops = []
    for d, m, top in BRUTE_FAMILIES:
        for _ in range(BRUTE_RULES_PER_FAMILY):
            rule = _from_value(rng.randrange(d ** (d**m)), d, m)
            ops += [Op(rule, n=n, group=f"{d},{m}") for n in range(1, top + 1)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "family_sweep": family_sweep,
    "tree_panel": tree_panel,
    "oracle_panel": oracle_panel,
    "brute_oracle": brute_oracle,
}
