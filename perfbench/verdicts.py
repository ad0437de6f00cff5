"""Independent checks of the verdicts an op returned, run after the timed loop.

None of these reuse the library's oracles:

* `brute_injective`: the global map on every configuration, evaluated here
  with numpy for a whole batch of rules at once;
* `circulant_reversible`: for a linear rule with polynomial f over GF(p), the
  size-n map is bijective iff gcd(f(x), x^n - 1) = 1;
* `pair_graph_injective`: Boolean reachability in the pair graph; the size-n
  map is non-injective iff a closed walk of length n passes through a pair
  (u, v) with u != v;
* the pinned values of acceptance tests 4 and 5 and the ECA census 6/128/122.

`check` returns the indices of the ops found wrong, each with a reason.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from revca.classifier import is_reversible_for

from workloads import HEIGHT_ANCHOR_HEIGHTS, TABLE_ANCHORS

BRUTE_MAX_N = 10
BRUTE_MAX_CONFIGS = 1 << 17
_CHUNK_ELEMENTS = 1 << 22


def brute_injective(tables: np.ndarray, d: int, m: int, l_r: int, n: int) -> np.ndarray:
    """Per rule (one table per row), is the size-n global map injective?"""
    total = d**n
    codes = np.arange(total)
    cells = (codes[:, None] // d ** np.arange(n - 1, -1, -1)[None, :]) % d
    rmt = np.zeros((total, n), dtype=np.int64)
    for k in range(-l_r, m - l_r):
        rmt = rmt * d + np.roll(cells, -k, axis=1)
    weights = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    out = np.empty(len(tables), dtype=bool)
    step = max(1, _CHUNK_ELEMENTS // (total * n))
    for lo in range(0, len(tables), step):
        images = tables[lo : lo + step][:, rmt] @ weights
        images.sort(axis=1)
        out[lo : lo + step] = (np.diff(images, axis=1) != 0).all(axis=1)
    return out


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over GF(p); coefficient lists, lowest degree first."""
    a = a[:]
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        q = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def circulant_reversible(coeffs: tuple[int, ...], p: int, n: int) -> bool:
    """gcd(f(x), x^n - 1) == 1 over GF(p), for the rule sum c_k x_k mod p."""
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    g = [p - 1] + [0] * (n - 1) + [1]  # x^n - 1
    while f:
        g, f = f, _poly_mod(g, f, p)
    return len(g) == 1


def pair_graph_injective(table: tuple[int, ...], d: int, m: int, sizes: range) -> dict[int, bool]:
    """Injectivity for each n in `sizes` from Boolean walks in the pair graph."""
    w = d ** (m - 1)
    r = np.arange(d**m)
    src, dst, out = r // d, r % w, np.asarray(table)
    same = out[:, None] == out[None, :]
    a = np.zeros((w * w, w * w))
    a[(src[:, None] * w + src[None, :])[same], (dst[:, None] * w + dst[None, :])[same]] = 1
    off_diagonal = np.ones(w * w, dtype=bool)
    off_diagonal[np.arange(w) * (w + 1)] = False
    verdicts = {}
    power = np.eye(w * w)
    for n in range(1, max(sizes) + 1):
        power = np.minimum(power @ a, 1.0)
        if n in sizes:
            verdicts[n] = not power.diagonal()[off_diagonal].any()
    return verdicts


def check(ops, results) -> dict[int, str]:
    """Op index -> reason, for every op whose result disagrees with a check."""
    bad: dict[int, str] = {}
    done = [i for i, r in enumerate(results) if r is not None]
    classified = [i for i in done if not ops[i].n]

    # classify verdicts against brute force, batched per rule shape
    by_shape: dict[tuple[int, int, int], list[int]] = {}
    for i in classified:
        p = ops[i].rule.params
        by_shape.setdefault((p.d, p.m, p.l_r), []).append(i)
    for (d, m, l_r), idx in by_shape.items():
        tables = np.array([ops[i].rule.table for i in idx], dtype=np.int64)
        uniq, inverse = np.unique(tables, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        for n in range(1, BRUTE_MAX_N + 1):
            if d**n > BRUTE_MAX_CONFIGS:
                break
            truth = brute_injective(uniq, d, m, l_r, n)[inverse]
            for j, i in enumerate(idx):
                if is_reversible_for(results[i], n) != truth[j]:
                    bad.setdefault(i, f"classify disagrees with brute force at n={n}")

    # linear rules against the circulant criterion over the oracle window
    for i in classified:
        op = ops[i]
        if op.coeffs is None:
            continue
        d = op.rule.params.d
        for n in range(1, results[i].verified_up_to + 1):
            if is_reversible_for(results[i], n) != circulant_reversible(op.coeffs, d, n):
                bad.setdefault(i, f"classify disagrees with gcd(f, x^n - 1) at n={n}")
                break

    # brute-force ops against the pair graph
    brute = [i for i in done if ops[i].n]
    by_rule: dict[tuple, list[int]] = {}
    for i in brute:
        by_rule.setdefault((ops[i].rule.params.d, ops[i].rule.params.m, ops[i].rule.table), []).append(i)
    for (d, m, table), idx in by_rule.items():
        sizes = range(1, max(ops[i].n for i in idx) + 1)
        truth = pair_graph_injective(table, d, m, sizes)
        for i in idx:
            if results[i] != truth[ops[i].n]:
                bad.setdefault(i, f"brute force disagrees with the pair graph at n={ops[i].n}")

    bad.update(_check_pinned(ops, results, classified))
    return bad


def _check_pinned(ops, results, classified) -> dict[int, str]:
    bad: dict[int, str] = {}
    table = {(d, m, text): row for d, m, text, *row in TABLE_ANCHORS}
    heights: list[tuple[int, int]] = []
    eca: dict[int, str] = {}
    for i in classified:
        op, c = ops[i], results[i]
        if op.group == "anchor.table":
            p = op.rule.params
            nodes, height, ca_class, exprs = table[(p.d, p.m, str(op.rule))]
            got = (
                c.evidence.unique_nodes,
                c.evidence.height,
                c.ca_class.value,
                [(e.residue, e.modulus, e.min_n) for e in c.expressions],
            )
            if got != (nodes, height, ca_class, exprs):
                bad[i] = f"acceptance 4 row {op.rule}: got {got}"
        elif op.group == "anchor.height":
            heights.append((i, c.evidence.height))
        elif op.group == "eca":
            eca.setdefault(op.rule.table, c.ca_class.value)
    # a pass holds every height anchor once, so the multiset repeats per pass
    passes = len(heights) // len(HEIGHT_ANCHOR_HEIGHTS)
    if sorted((h for _, h in heights), reverse=True) != sorted(HEIGHT_ANCHOR_HEIGHTS * passes, reverse=True):
        bad.update({i: "acceptance 5 heights differ from 19,19,9,7,6,2" for i, _ in heights})
    if eca:
        hist = Counter(eca.values())
        census = (
            hist["Reversible"],
            hist["StrictlyIrreversible"],
            hist["TriviallySemiReversible"] + hist["NonTriviallySemiReversible"],
        )
        if len(eca) == 256 and census != (6, 128, 122):
            reason = f"ECA census {census}, expected (6, 128, 122)"
            bad.update({i: reason for i in classified if ops[i].group == "eca"})
    return bad
