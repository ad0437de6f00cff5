"""Command line: classify rules, check sizes, run oracles, sweep families,
and export DOT diagrams.

Exit codes: 0 success, 1 usage or input error, 2 oracle-mismatch diagnostic.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classifier import (
    CAClass,
    Classification,
    OracleMismatchError,
    classification_to_json,
    classify,
    expressions_text,
    is_reversible_for,
)
from .debruijn import export_debruijn_dot, pair_trace_oracle
from .dynamics import brute_force_reversible, export_transition_diagram
from .mintree import build_minimized, export_minimized_dot
from .rulespace import (
    Rule,
    RuleParams,
    minimal_decimal,
    rule_from_decimal,
    parse_rule,
    wolfram_decimal,
)

ENUMERATE_FREE_BUDGET = 256
ENUMERATE_HARD_LIMIT = 65536

_CLASS_WORDS = {
    CAClass.REVERSIBLE: "Reversible",
    CAClass.STRICTLY_IRREVERSIBLE: "Strictly irreversible",
    CAClass.TRIVIALLY_SEMI_REVERSIBLE: "Trivially semi-reversible",
    CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE: "Non-trivially semi-reversible",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise UsageError(message)


def _add_rule_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--states", type=int, required=True, help="number of states d")
    p.add_argument("--neighborhood", type=int, required=True, help="neighborhood size m")
    p.add_argument("--rule", required=True, help="rule digits (base d) or decimal code")
    p.add_argument(
        "--left-radius",
        type=int,
        default=None,
        help="left neighbors (default floor((m-1)/2)); classification is split-invariant",
    )


def _add_format_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _params(args: argparse.Namespace) -> RuleParams:
    if args.left_radius is not None and args.left_radius < 0:
        raise UsageError(f"--left-radius must be >= 0, got {args.left_radius}")
    l_r = args.left_radius if args.left_radius is not None else -1
    return RuleParams(d=args.states, m=args.neighborhood, l_r=l_r)


def _rule(args: argparse.Namespace) -> Rule:
    return parse_rule(args.rule, _params(args))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="revca",
        description="Classify the reversibility of 1-D finite cellular automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full reversibility classification of one rule")
    _add_rule_options(p)
    _add_format_option(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="classifier vs oracle verdict for one size")
    _add_rule_options(p)
    _add_format_option(p)
    p.add_argument("--n", type=int, required=True, help="lattice size")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="direct reversibility oracle for one size")
    _add_rule_options(p)
    _add_format_option(p)
    p.add_argument("--n", type=int, required=True, help="lattice size")
    p.add_argument("--method", choices=("bruteforce", "pairgraph"), default="pairgraph")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("enumerate", help="classify every rule of a (d, m) family")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--neighborhood", type=int, required=True)
    _add_format_option(p)
    p.add_argument("--filter", dest="class_filter", default=None,
                   choices=[c.value for c in CAClass],
                   help="only list rules of this class")
    p.add_argument("--long", action="store_true",
                   help=f"allow families above {ENUMERATE_FREE_BUDGET} rules")
    p.add_argument("--group-equivalents", action="store_true",
                   help="report the minimal reflection/complement representative")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("export", help="DOT export of a diagram")
    _add_rule_options(p)
    p.add_argument(
        "--target",
        required=True,
        choices=("debruijn", "transition-diagram", "minimized-tree"),
    )
    p.add_argument("--n", type=int, default=None, help="size (transition diagram only)")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.set_defaults(func=cmd_export)

    return parser


def _emit(args: argparse.Namespace, text_lines: list[str], payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print("\n".join(text_lines))


def _classification_text(c: Classification) -> list[str]:
    p = c.rule.params
    lines = [
        f"d: {p.d}",
        f"m: {p.m}",
        f"rule: {c.rule}",
        f"decimal: {wolfram_decimal(c.rule)}",
        f"class: {_CLASS_WORDS[c.ca_class]}",
    ]
    if c.evidence is None:
        lines.append("unique nodes (M): NA")
        lines.append("tree height: NA")
    else:
        lines.append(f"unique nodes (M): {c.evidence.unique_nodes}")
        lines.append(f"tree height: {c.evidence.height}")
    lines.append(f"irreversibility: {expressions_text(c)}")
    small = ", ".join(
        f"n={n} {'reversible' if v else 'irreversible'}"
        for n, v in sorted(c.small_n_reversible.items())
    )
    lines.append(f"small sizes: {small}")
    if c.verified_all:
        lines.append("verified: all sizes")
    else:
        lines.append(f"verified up to: {c.verified_up_to}")
    return lines


def cmd_classify(args: argparse.Namespace) -> int:
    c = classify(_rule(args))
    _emit(args, _classification_text(c), classification_to_json(c))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    rule = _rule(args)
    c = classify(rule)
    verdict = is_reversible_for(c, args.n)
    # classify raised on any size its cross-check decided and disagreed on
    decided = c.verified_all or args.n <= c.verified_up_to
    oracle = verdict if decided else pair_trace_oracle(rule, args.n)
    word = lambda b: "reversible" if b else "irreversible"
    lines = [
        f"n = {args.n}",
        f"classifier: {word(verdict)}",
        f"pairgraph oracle: {word(oracle)}",
        f"agreement: {'yes' if verdict == oracle else 'NO'}",
    ]
    payload = {
        "n": args.n,
        "classifier": verdict,
        "oracle": oracle,
        "agree": verdict == oracle,
    }
    _emit(args, lines, payload)
    return 0 if verdict == oracle else 2


def cmd_oracle(args: argparse.Namespace) -> int:
    rule = _rule(args)
    if args.method == "bruteforce":
        verdict = brute_force_reversible(rule, args.n)
    else:
        verdict = pair_trace_oracle(rule, args.n)
    _emit(
        args,
        ["reversible" if verdict else "irreversible"],
        {"n": args.n, "method": args.method, "reversible": verdict},
    )
    return 0


_ENUMERATE_KEYS = ("decimal", "rule", "class", "expressions", "sporadic_irreversible", "tree")


def cmd_enumerate(args: argparse.Namespace) -> int:
    params = RuleParams(d=args.states, m=args.neighborhood)
    total = params.d**params.table_size
    if total > ENUMERATE_HARD_LIMIT:
        raise UsageError(
            f"family has {total} rules, beyond the {ENUMERATE_HARD_LIMIT} enumeration cap"
        )
    if total > ENUMERATE_FREE_BUDGET and not args.long:
        raise UsageError(f"family has {total} rules; pass --long to enumerate it")
    histogram = {c.value: 0 for c in CAClass}
    rows = []
    for value in range(total):
        rule = rule_from_decimal(value, params)
        c = classify(rule)
        histogram[c.ca_class.value] += 1
        if args.class_filter and c.ca_class.value != args.class_filter:
            continue
        full = classification_to_json(c)
        row = {key: full[key] for key in _ENUMERATE_KEYS}
        if args.group_equivalents:
            row["minimal"] = minimal_decimal(rule)
        rows.append((row, expressions_text(c)))
    histogram["SemiReversible"] = (
        histogram[CAClass.TRIVIALLY_SEMI_REVERSIBLE.value]
        + histogram[CAClass.NON_TRIVIALLY_SEMI_REVERSIBLE.value]
    )
    lines = []
    for row, expr_text in rows:
        cells = [f"{row['decimal']}", row["rule"], row["class"], expr_text]
        if args.group_equivalents:
            cells.append(f"min={row['minimal']}")
        lines.append("  ".join(cells))
    lines.append("")
    lines.append("histogram:")
    for name, count in histogram.items():
        lines.append(f"  {name}: {count}")
    payload = {
        "d": params.d,
        "m": params.m,
        "count": total,
        "rules": [row for row, _ in rows],
        "histogram": histogram,
    }
    _emit(args, lines, payload)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    rule = _rule(args)
    if args.target == "debruijn":
        text = export_debruijn_dot(rule)
    elif args.target == "transition-diagram":
        if args.n is None:
            raise UsageError("--n is required for the transition diagram")
        text = export_transition_diagram(rule, args.n)
    else:
        text = export_minimized_dot(build_minimized(rule))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except OracleMismatchError as e:
        print(f"ORACLE MISMATCH: {e}", file=sys.stderr)
        print("n  classifier  oracle", file=sys.stderr)
        for n, (a, b) in enumerate(zip(e.predicted, e.oracle), start=1):
            mark = "" if a == b else "   <-- disagree"
            print(f"{n:<3}{str(a):<12}{str(b)}{mark}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError) as e:  # RuleFormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
