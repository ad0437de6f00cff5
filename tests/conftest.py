import pytest

from revca.debruijn import reversible_by_pair_graph
from revca.rulespace import Rule, RuleParams, parse_rule, rule_from_decimal, tuple_of_rmt

# paper anchors used across the suite
FIG2_RULE = "012012120012210102201021102"  # balanced 3-state rule, reversible at n=3
FIG3B_RULE = "222211112001000000110122221"  # irreversible at n=3
TABLE1_ROW3 = FIG2_RULE


def pytest_addoption(parser):
    parser.addoption(
        "--run-long",
        action="store_true",
        default=False,
        help="run the long family sweeps (all 65536 d=2, m=4 rules)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "long: long-running full-family sweeps")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long"):
        return
    skip = pytest.mark.skip(reason="pass --run-long to enable")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def eca_params():
    return RuleParams(d=2, m=3)


@pytest.fixture(scope="session")
def params33():
    return RuleParams(d=3, m=3)


def eca(value: int):
    return rule_from_decimal(value, RuleParams(d=2, m=3))


def rule33(text: str):
    return parse_rule(text, RuleParams(d=3, m=3))


def linear_rule(p: int, coeffs: tuple[int, ...]) -> Rule:
    """The rule sum_k coeffs[k] * x_k mod p over the neighborhood x_-l .. x_r."""
    params = RuleParams(p, len(coeffs))
    table = tuple(
        sum(c * x for c, x in zip(coeffs, tuple_of_rmt(r, params))) % p
        for r in range(params.table_size)
    )
    return Rule(params, table)


def pair_graph_verdicts(rule, upto: int) -> list[bool]:
    """The pair-graph walk's verdicts for n = 1..upto, read on through its period."""
    verdicts, period = reversible_by_pair_graph(rule)
    assert period or len(verdicts) >= upto, "the walk saw no repeat"
    while len(verdicts) < upto:
        verdicts.append(verdicts[-period])
    return verdicts[:upto]
