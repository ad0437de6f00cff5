"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps, from outside the library, the module attributes that
`revca.classifier` and `revca.mintree` look up at call time, the entry points
the benchmark ops call, and `revca.debruijn.ExactMatrix.__matmul__`.  Each
wrapped call becomes one span (name, start, end, parent, op); spans are kept
in flat in-memory columns and written out once, when the run ends.

Counts labelled "computed" are derived from the call arguments and results
(rule shape, lattice size, matrix dimension and tier), never read from
counters inside the library.  `tracemalloc` is deliberately not used: it
slows the allocation-heavy tree code several-fold and would distort the
layer shares.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("rulespace", "dynamics", "debruijn", "rtree", "mintree", "classifier")

# (module, attribute path, span name, layer); an attribute that a later
# version of the library no longer has is skipped and reported as untraced
TARGETS = (
    ("revca.classifier", "classify", "classify", "classifier"),
    ("revca.classifier", "normalize_expressions", "normalize_expressions", "classifier"),
    ("revca.classifier", "is_strictly_irreversible", "is_strictly_irreversible", "rulespace"),
    ("revca.classifier", "is_balanced_rule", "is_balanced_rule", "rulespace"),
    ("revca.classifier", "brute_force_reversible", "brute_force_reversible", "dynamics"),
    ("revca.dynamics", "brute_force_reversible", "brute_force_reversible", "dynamics"),
    ("revca.classifier", "reversible_by_pair_graph", "reversible_by_pair_graph", "debruijn"),
    ("revca.debruijn", "ExactMatrix.__matmul__", "matmul", "debruijn"),
    ("revca.classifier", "reversible_for_n_by_tree", "reversible_for_n_by_tree", "rtree"),
    ("revca.classifier", "build_minimized", "build_minimized", "mintree"),
    ("revca.classifier", "exact_occurrences", "exact_occurrences", "mintree"),
    ("revca.mintree", "level_sequence", "level_sequence", "mintree"),
)

MATMUL_TIERS = ("float64", "int64", "bigint")

# per-layer metrics: name -> unit; every one is reported on every workload
PER_LAYER_UNITS = {
    "rulespace.shortcut_s": "s/op",
    "rulespace.strict_frac": "fraction",
    "rulespace.unbalanced_frac": "fraction",
    "dynamics.brute_s": "s/op",
    "dynamics.calls": "count/op",
    "dynamics.configs": "count/op",
    "dynamics.configs_per_s": "1/s",
    "dynamics.bytes_computed": "B/op",
    "debruijn.oracle_s": "s/op",
    "debruijn.calls": "count/op",
    "debruijn.pair_dim_max": "count",
    **{f"debruijn.matmuls.{t}": "count/op" for t in MATMUL_TIERS},
    **{f"debruijn.matmul_s.{t}": "s/op" for t in MATMUL_TIERS},
    "debruijn.flops_computed": "flop/op",
    "debruijn.matrix_bytes_computed": "B/op",
    "rtree.full_tree_s": "s/op",
    "rtree.full_trees": "count/op",
    "mintree.build_s": "s/op",
    "mintree.nodes": "count/op",
    "mintree.nodes_per_s": "1/s",
    "mintree.early_stop_frac": "fraction",
    "mintree.occurrences_s": "s/op",
    "mintree.level_seq_s": "s/op",
    "mintree.level_seq_len": "count/op",
    "classifier.self_s": "s/op",
    "classifier.normalize_s": "s/op",
    "classifier.raw_expressions": "count/op",
    "classifier.expressions": "count/op",
    **{f"self_s.{layer}": "s/op" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
}


class Recorder:
    """In-memory spans plus the computed counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("i")
        self.op_col = array("i")
        self._stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}
        self.pair_dim_max = 0
        self.matmuls = {tier: [0, 0, 0] for tier in MATMUL_TIERS}
        self.untraced: list[str] = []
        self.hook_errors: dict[str, str] = {}  # span name -> last error of its counter hook
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.name_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.op_col.append(self.op)
        self.end_col.append(0)
        self._stack.append(idx)
        self.start_col.append(perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.end_col[idx] = perf_counter_ns()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name, layer in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.untraced.append(f"{module_name}.{path}")
                continue
            hook = _HOOKS.get(name)
            wrapper = (
                self._matmul_wrapper(original)
                if name == "matmul"
                else self._wrapper(original, self.name_id(name, layer), hook)
            )
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrapper(self, original, nid, hook):
        rec = self

        def traced(*args, **kwargs):
            if hook is not None:
                args = hook.before(args)
            idx = rec.begin(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.end(idx)
            if hook is not None:
                try:
                    hook.after(rec, args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the op
                    rec.hook_errors[rec.names[nid]] = f"{type(exc).__name__}: {exc}"
            return result

        traced.__wrapped__ = original
        return traced

    def _matmul_wrapper(self, original):
        rec = self
        tier_ids = {t: self.name_id(f"matmul.{t}", "debruijn") for t in MATMUL_TIERS}
        pending = self.name_id("matmul", "debruijn")
        tier_of_kind = {"f": "float64", "i": "int64"}

        def traced(a, b):
            idx = rec.begin(pending)
            try:
                result = original(a, b)
            finally:
                rec.end(idx)
            try:
                # tier as the product's storage shows it: a numpy array of
                # float64 or int64, or Python integer rows
                arr = getattr(result, "_array", None)
                tier = "bigint" if arr is None else tier_of_kind.get(arr.dtype.kind, "bigint")
                rec.name_col[idx] = tier_ids[tier]
                stats = rec.matmuls[tier]  # [products, sum of dim^3, sum of dim^2]
                stats[0] += 1
                stats[1] += a.dim**3
                stats[2] += a.dim**2
            except Exception as exc:  # a changed ExactMatrix must not fail the op
                rec.hook_errors["matmul"] = f"{type(exc).__name__}: {exc}"
            return result

        traced.__wrapped__ = original
        return traced

    # -- derived metrics ----------------------------------------------------

    def span_totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name: total, and self (minus direct children)."""
        n = len(self.name_col)
        names = np.frombuffer(self.name_col, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parent_col, dtype=np.int32, count=n)
        dur = (
            np.frombuffer(self.end_col, dtype=np.int64, count=n)
            - np.frombuffer(self.start_col, dtype=np.int64, count=n)
        ) / 1e9
        children = np.zeros(n)
        nested = parents >= 0
        np.add.at(children, parents[nested], dur[nested])
        own = dur - children
        totals = {name: float(dur[names == i].sum()) for i, name in enumerate(self.names)}
        selfs = {name: float(own[names == i].sum()) for i, name in enumerate(self.names)}
        return totals, selfs

    def metrics(self, ops: int, overhead_frac: float) -> dict[str, float]:
        totals, selfs = self.span_totals()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, layer in zip(self.names, self.layers):
            layer_self[layer] += selfs[name]
        c = self.counts.get
        t = totals.get
        per_op = 1.0 / max(ops, 1)
        out = {
            "rulespace.shortcut_s": (t("is_strictly_irreversible", 0) + t("is_balanced_rule", 0)) * per_op,
            "rulespace.strict_frac": _ratio(c("strict", 0), c("strict_calls", 0)),
            "rulespace.unbalanced_frac": _ratio(c("unbalanced", 0), c("balance_calls", 0)),
            "dynamics.brute_s": t("brute_force_reversible", 0) * per_op,
            "dynamics.calls": c("brute_calls", 0) * per_op,
            "dynamics.configs": c("configs", 0) * per_op,
            "dynamics.configs_per_s": _ratio(c("configs", 0), t("brute_force_reversible", 0)),
            "dynamics.bytes_computed": c("brute_bytes", 0) * per_op,
            "debruijn.oracle_s": t("reversible_by_pair_graph", 0) * per_op,
            "debruijn.calls": c("oracle_calls", 0) * per_op,
            "debruijn.pair_dim_max": float(self.pair_dim_max),
            # computed: 2 dim^3 flops and three dim x dim operands of 8 bytes
            "debruijn.flops_computed": sum(2 * s[1] for s in self.matmuls.values()) * per_op,
            "debruijn.matrix_bytes_computed": sum(24 * s[2] for s in self.matmuls.values()) * per_op,
            "rtree.full_tree_s": t("reversible_for_n_by_tree", 0) * per_op,
            "rtree.full_trees": c("full_trees", 0) * per_op,
            "mintree.build_s": t("build_minimized", 0) * per_op,
            "mintree.nodes": c("nodes", 0) * per_op,
            "mintree.nodes_per_s": _ratio(c("nodes", 0), t("build_minimized", 0)),
            "mintree.early_stop_frac": _ratio(c("early_stops", 0), c("builds", 0)),
            "mintree.occurrences_s": t("exact_occurrences", 0) * per_op,
            "mintree.level_seq_s": t("level_sequence", 0) * per_op,
            "mintree.level_seq_len": c("level_seq_len", 0) * per_op,
            "classifier.self_s": selfs.get("classify", 0) * per_op,
            "classifier.normalize_s": t("normalize_expressions", 0) * per_op,
            "classifier.raw_expressions": c("raw_expressions", 0) * per_op,
            "classifier.expressions": c("expressions", 0) * per_op,
            "trace.overhead_frac": overhead_frac,
        }
        for tier in MATMUL_TIERS:
            out[f"debruijn.matmuls.{tier}"] = self.matmuls[tier][0] * per_op
            out[f"debruijn.matmul_s.{tier}"] = t(f"matmul.{tier}", 0) * per_op
        for layer in LAYERS:
            out[f"self_s.{layer}"] = layer_self[layer] * per_op
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            start_ns=np.frombuffer(self.start_col, dtype=np.int64),
            end_ns=np.frombuffer(self.end_col, dtype=np.int64),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            op=np.frombuffer(self.op_col, dtype=np.int32),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Hook:
    """Counts taken at a wrapped boundary; `before` may normalise the arguments."""

    def before(self, args):
        return args

    def after(self, rec: Recorder, args, kwargs, result) -> None:
        raise NotImplementedError


class _Strict(_Hook):
    def after(self, rec, args, kwargs, result):
        rec.add("strict_calls", 1)
        rec.add("strict", bool(result))


class _Balance(_Hook):
    def after(self, rec, args, kwargs, result):
        rec.add("balance_calls", 1)
        rec.add("unbalanced", not result)


class _Brute(_Hook):
    def after(self, rec, args, kwargs, result):
        rule, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
        configs = rule.params.d**n
        rec.add("brute_calls", 1)
        rec.add("configs", configs)
        # computed: one int64 word per cell per configuration for the
        # successor codes, plus the one-byte presence bitmap
        rec.add("brute_bytes", configs * (8 * n + 1))


class _Oracle(_Hook):
    def after(self, rec, args, kwargs, result):
        p = args[0].params
        rec.add("oracle_calls", 1)
        rec.pair_dim_max = max(rec.pair_dim_max, (p.d ** (p.m - 1)) ** 2)


class _FullTree(_Hook):
    def after(self, rec, args, kwargs, result):
        rec.add("full_trees", 1)


class _Build(_Hook):
    def after(self, rec, args, kwargs, result):
        rec.add("builds", 1)
        rec.add("nodes", len(getattr(result, "gammas", ())))
        rec.add("early_stops", getattr(result, "stopped_at", None) is not None)


class _LevelSeq(_Hook):
    def after(self, rec, args, kwargs, result):
        rec.add("level_seq_len", len(result[0]))


class _Normalize(_Hook):
    def before(self, args):
        # counted once here, so a generator argument is not consumed twice
        return (list(args[0]), *args[1:]) if args else args

    def after(self, rec, args, kwargs, result):
        rec.add("raw_expressions", len(args[0]))
        rec.add("expressions", len(result[0]))


_HOOKS = {
    "is_strictly_irreversible": _Strict(),
    "is_balanced_rule": _Balance(),
    "brute_force_reversible": _Brute(),
    "reversible_by_pair_graph": _Oracle(),
    "reversible_for_n_by_tree": _FullTree(),
    "build_minimized": _Build(),
    "level_sequence": _LevelSeq(),
    "normalize_expressions": _Normalize(),
}
