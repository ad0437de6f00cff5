"""Reversibility analysis of 1-D finite cellular automata on periodic lattices.

Classifies any d-state, m-neighbor rule as reversible, strictly irreversible,
or (trivially / non-trivially) semi-reversible, and derives the arithmetic
progressions of lattice sizes for which it is irreversible.  Verdicts are
cross-validated by an exhaustive enumeration oracle and an independent
pair-graph oracle over the rule's de Bruijn graph.
"""

from .classifier import (
    CAClass,
    Classification,
    IrreversibilityExpression,
    OracleMismatchError,
    SizeSet,
    classification_to_json,
    classify,
    is_reversible_for,
    reversible_sizes,
    scan_violations,
    walk_violations,
)
from .debruijn import (
    export_debruijn_dot,
    pair_trace_oracle,
    reversible_by_pair_graph,
)
from .dynamics import (
    brute_force_reversible,
    config_from_code,
    config_to_code,
    export_transition_diagram,
    predecessors,
    rmt_sequence,
    step,
)
from .mintree import (
    MinimizedTree,
    build_minimized,
    dump_json,
    export_minimized_dot,
    loops_of,
    occurs_at_level,
)
from .rulespace import (
    Rule,
    RuleFormatError,
    RuleParams,
    equivalent_set,
    is_balanced_rule,
    is_strictly_irreversible,
    minimal_decimal,
    parse_rule,
    rmt_of_tuple,
    rule_from_decimal,
    sibling_set,
    tuple_of_rmt,
    uniform_rmts,
    wolfram_decimal,
)
from .rtree import (
    build_full_tree,
    child_node,
    restrict_special,
    root_node,
)

__version__ = "1.0.0"
