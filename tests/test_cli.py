import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revca
from revca import debruijn, mintree
from revca.classifier import OracleMismatchError, classify
from revca.cli import main
from revca.debruijn import PAIR_GRAPH_BYTE_LIMIT, _walk_bytes
from revca.mintree import FULL_TREE_LIMIT
from revca.rulespace import Rule, RuleParams, rule_from_decimal, wolfram_decimal

from conftest import linear_rule


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def third_state_rule() -> str:
    """Decimal code of a skewed, unbalanced (41,2) rule whose pair-graph walk
    fits the byte limit with two state copies, but not with three."""
    params = RuleParams(41, 2)
    rule = Rule(params, (1,) * 111 + (2,) * 110 + (0,) * (params.table_size - 221))
    w = params.node_width
    state_bytes = (w * w + 1) * -(-(w * (w - 1) // 2) // 64) * 8
    assert _walk_bytes(rule) - state_bytes <= PAIR_GRAPH_BYTE_LIMIT < _walk_bytes(rule)
    return str(wolfram_decimal(rule))


class TestClassify:
    def test_eca75_json(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--states", "2", "--neighborhood", "3", "--rule", "75",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["class"] == "NonTriviallySemiReversible"
        assert payload["tree"] == {"unique_nodes": 21, "height": 5}
        assert payload["expressions"] == [{"residue": 0, "modulus": 2, "min_n": 2}]

    def test_eca75_text(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--states", "2", "--neighborhood", "3", "--rule", "75"
        )
        assert code == 0
        assert "unique nodes (M): 21" in out
        assert "tree height: 5" in out
        assert "n ≡ 0 (mod 2), n ≥ 2" in out

    def test_strictly_irreversible_4_neighbor(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--states", "2", "--neighborhood", "4",
            "--rule", "0000111101001110", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["class"] == "StrictlyIrreversible"

    def test_constant_rule(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--states", "2", "--neighborhood", "3",
            "--rule", "00000000", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["class"] == "StrictlyIrreversible"

    def test_bad_rule_exits_1(self, capsys):
        code, _, err = run(
            capsys, "classify", "--states", "3", "--neighborhood", "3", "--rule", "012"
        )
        assert code == 1
        assert "length 3" in err

    def test_usage_error_exits_1(self, capsys):
        code, _, err = run(capsys, "classify", "--states", "2")
        assert code == 1

    def test_verified_all_sizes(self, capsys):
        args = ("classify", "--states", "2", "--neighborhood", "3", "--rule", "75")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert "verified: all sizes" in out.splitlines()
        code, out, _ = run(capsys, *args, "--format", "json")
        payload = json.loads(out)
        assert (payload["verified_up_to"], payload["verified_all"]) == (24, True)

    def test_deterministic_output(self, capsys):
        args = ("classify", "--states", "2", "--neighborhood", "3", "--rule", "105",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "rule,ca_class",
        [("0", "StrictlyIrreversible"), ("1", "TriviallySemiReversible")],
    )
    def test_shortcut_past_oracle_memory_limit(self, capsys, rule, ca_class):
        # d=2, m=9: the pair-graph walk would pass its byte limit, but a
        # shortcut decides the class, so the cross-check is skipped
        args = ("classify", "--states", "2", "--neighborhood", "9", "--rule", rule)
        code, out, err = run(capsys, *args, "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["class"] == ca_class
        assert (payload["verified_up_to"], payload["verified_all"]) == (0, False)
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert "verified up to: 0" in out.splitlines()

    def test_shortcut_in_third_state_band(self, capsys):
        # the walk's third state copy (Brent's checkpoint) puts this rule
        # past the limit, so the cross-check is skipped
        code, out, err = run(
            capsys,
            "classify", "--states", "41", "--neighborhood", "2", "--rule", third_state_rule(),
            "--format", "json",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["verified_up_to"] == 0

    def test_balanced_rule_past_oracle_memory_limit(self, capsys):
        # the shift rule is balanced, so only the oracle could verify it
        code, out, err = run(
            capsys,
            "classify", "--states", "2", "--neighborhood", "9", "--rule", "10" * 256,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: pair-graph oracle") and "limit" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCheckAndOracle:
    def test_check_reversible(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--states", "2", "--neighborhood", "4",
            "--rule", "1010101010101010", "--n", "5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 5, "classifier": True, "oracle": True, "agree": True}

    def test_check_walks_the_pair_graph_once(self, capsys, monkeypatch):
        # the oracle verdict comes from classify's own cross-check
        walks = []

        class CountedWalk(debruijn._PairWalk):
            def __init__(self, rule):
                walks.append(rule)
                super().__init__(rule)

        monkeypatch.setattr(debruijn, "_PairWalk", CountedWalk)
        rule = str(wolfram_decimal(linear_rule(2, (1, 0, 1, 0, 0, 1))))
        code, out, _ = run(
            capsys,
            "check", "--states", "2", "--neighborhood", "6", "--rule", rule,
            "--n", "93", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"n": 93, "classifier": False, "oracle": False, "agree": True}
        assert len(walks) == 1

    def test_check_past_capped_walk_exits_1(self, capsys, monkeypatch):
        # classify verifies 40 sizes; size 100 goes to the oracle, which refuses it
        monkeypatch.setattr(debruijn, "WALK_STEP_LIMIT", 40)
        rule = str(wolfram_decimal(linear_rule(2, (1, 0, 1, 0, 0, 1))))
        code, out, err = run(
            capsys,
            "check", "--states", "2", "--neighborhood", "6", "--rule", rule, "--n", "100",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: pair-graph walk saw no repeat in 40 steps, so size 100 is undecided\n"
        )

    def test_oracle_pairgraph_large_odd(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--states", "2", "--neighborhood", "3", "--rule", "75",
            "--n", "101", "--method", "pairgraph",
        )
        assert code == 0
        assert out.strip() == "reversible"

    def test_oracle_pairgraph_over_memory_limit(self, capsys):
        code, out, err = run(
            capsys,
            "oracle", "--states", "2", "--neighborhood", "12", "--rule", "01" * 2048,
            "--n", "5", "--method", "pairgraph",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: pair-graph oracle") and "limit" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_oracle_pairgraph_in_third_state_band(self, capsys):
        code, out, err = run(
            capsys,
            "oracle", "--states", "41", "--neighborhood", "2", "--rule", third_state_rule(),
            "--n", "5", "--method", "pairgraph",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: pair-graph oracle") and "limit" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_oracle_pairgraph_past_capped_walk_exits_1(self, capsys, monkeypatch):
        # x-2 + x0 + x3 over GF(2) repeats only after 62 steps
        monkeypatch.setattr(debruijn, "WALK_STEP_LIMIT", 40)
        rule = str(wolfram_decimal(linear_rule(2, (1, 0, 1, 0, 0, 1))))
        code, out, err = run(
            capsys,
            "oracle", "--states", "2", "--neighborhood", "6", "--rule", rule,
            "--n", "100", "--method", "pairgraph",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: pair-graph walk saw no repeat in 40 steps, so size 100 is undecided\n"
        )

    def test_oracle_out_of_memory_exits_1(self, capsys, monkeypatch):
        import revca.cli as cli

        def exhausted(rule, n):
            raise MemoryError

        monkeypatch.setattr(cli, "pair_trace_oracle", exhausted)
        code, out, err = run(
            capsys,
            "oracle", "--states", "2", "--neighborhood", "12", "--rule", "01" * 2048,
            "--n", "5", "--method", "pairgraph",
        )
        assert code == 1
        assert out == ""
        assert err == "error: out of memory\n"

    def test_oracle_bruteforce(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--states", "2", "--neighborhood", "3", "--rule", "75",
            "--n", "4", "--method", "bruteforce", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"n": 4, "method": "bruteforce", "reversible": False}


class TestEnumerate:
    def test_eca_histogram(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--states", "2", "--neighborhood", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["histogram"]["Reversible"] == 6
        assert payload["histogram"]["StrictlyIrreversible"] == 128
        assert payload["histogram"]["SemiReversible"] == 122
        assert payload["count"] == 256
        assert [row["decimal"] for row in payload["rules"]] == list(range(256))

    def test_eca_census_golden(self, capsys):
        # the whole ECA census as JSON, regenerated when the irreversible set
        # took its sizes below m from the brute-forced table (56 rules changed)
        code, out, _ = run(
            capsys,
            "enumerate", "--states", "2", "--neighborhood", "3", "--format", "json",
        )
        assert code == 0
        golden = Path(__file__).parent / "golden" / "eca_enumerate.json"
        assert out == golden.read_text(encoding="utf-8")

    def test_filter_reversible(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--states", "2", "--neighborhood", "3",
            "--filter", "Reversible", "--format", "json",
        )
        payload = json.loads(out)
        assert [row["decimal"] for row in payload["rules"]] == [15, 51, 85, 170, 204, 240]

    def test_group_equivalents(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--states", "2", "--neighborhood", "3",
            "--filter", "NonTriviallySemiReversible", "--group-equivalents",
            "--format", "json",
        )
        payload = json.loads(out)
        minimals = {row["minimal"] for row in payload["rules"]}
        assert minimals == {45, 105, 150, 154}

    def test_budget_guard(self, capsys):
        code, _, err = run(capsys, "enumerate", "--states", "2", "--neighborhood", "4")
        assert code == 1
        assert "--long" in err

    def test_hard_cap(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--states", "3", "--neighborhood", "3", "--long"
        )
        assert code == 1
        assert "cap" in err

    def test_small_family_agrees_with_bruteforce(self, capsys):
        from revca.dynamics import brute_force_reversible
        from revca.classifier import is_reversible_for

        code, out, _ = run(
            capsys,
            "enumerate", "--states", "2", "--neighborhood", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 16
        params = RuleParams(2, 2)
        for row in payload["rules"]:
            rule = rule_from_decimal(row["decimal"], params)
            c = classify(rule)
            assert c.ca_class.value == row["class"]
            for n in range(1, 11):
                assert is_reversible_for(c, n) == brute_force_reversible(rule, n)


class TestExport:
    def test_transition_diagram(self, capsys):
        code, out, _ = run(
            capsys,
            "export", "--states", "3", "--neighborhood", "3",
            "--rule", "222211112001000000110122221",
            "--target", "transition-diagram", "--n", "3",
        )
        assert code == 0
        assert out.count("->") == 27

    def test_transition_diagram_needs_n(self, capsys):
        code, _, err = run(
            capsys,
            "export", "--states", "2", "--neighborhood", "3", "--rule", "75",
            "--target", "transition-diagram",
        )
        assert code == 1
        assert "--n" in err

    def test_debruijn(self, capsys):
        code, out, _ = run(
            capsys,
            "export", "--states", "2", "--neighborhood", "3", "--rule", "75",
            "--target", "debruijn",
        )
        assert code == 0
        assert out.count("->") == 8

    def test_minimized_tree_to_file(self, capsys, tmp_path):
        target = tmp_path / "tree.dot"
        code, out, _ = run(
            capsys,
            "export", "--states", "2", "--neighborhood", "3", "--rule", "75",
            "--target", "minimized-tree", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert "digraph" in target.read_text()

    def test_minimized_tree_over_export_cap(self, capsys, tmp_path):
        # this (2,4) tree passes the cap; a tree cut short has no exact
        # levels, so nothing is written and the one error line names the cap
        target = tmp_path / "tree.dot"
        code, out, err = run(
            capsys,
            "export", "--states", "2", "--neighborhood", "4", "--rule", "0100111010101001",
            "--target", "minimized-tree", "--output", str(target),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: minimized tree exceeds {FULL_TREE_LIMIT} nodes\n"
        assert not target.exists()

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_exits_1(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "x.dot" if where == "missing-dir" else tmp_path
        code, out, err = run(
            capsys,
            "export", "--states", "2", "--neighborhood", "3", "--rule", "75",
            "--target", "debruijn", "--output", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestExitCodes:
    def test_oracle_mismatch_maps_to_2(self, capsys, monkeypatch):
        import revca.cli as cli

        def explode(rule):
            raise OracleMismatchError(rule, [True, False], [True, True])

        monkeypatch.setattr(cli, "classify", explode)
        code, _, err = run(
            capsys, "classify", "--states", "2", "--neighborhood", "3", "--rule", "75"
        )
        assert code == 2
        assert "ORACLE MISMATCH" in err
        assert "disagree" in err

    def test_level_matrix_over_limit_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(mintree, "LEVEL_MATRIX_BYTE_LIMIT", 100)
        code, out, err = run(
            capsys, "classify", "--states", "2", "--neighborhood", "3", "--rule", "75"
        )
        assert code == 1
        assert out == ""
        assert err == "error: level matrix of 21 nodes passes 100 bytes\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize(
        "command",
        [
            ["oracle", "--method", "bruteforce"],
            ["export", "--target", "transition-diagram"],
        ],
    )
    def test_brute_force_size_below_one_exits_1(self, capsys, command, n):
        code, out, err = run(
            capsys,
            *command, "--states", "2", "--neighborhood", "3", "--rule", "75", "--n", n,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: size must be >= 1, got {n}\n"
        assert "Traceback" not in err

    def test_left_radius_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--states", "2", "--neighborhood", "3", "--rule", "75",
            "--left-radius", "0", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["class"] == "NonTriviallySemiReversible"

    @pytest.mark.parametrize("radius", ["-1", "-2"])
    def test_negative_left_radius_exits_1(self, capsys, radius):
        code, out, err = run(
            capsys,
            "classify", "--states", "2", "--neighborhood", "3", "--rule", "75",
            "--left-radius", radius,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: --left-radius must be >= 0, got {radius}\n"


class TestModuleEntryPoint:
    """`python -m revca.cli` runs the same front end as the `revca` script."""

    def run_module(self, *argv):
        src = str(Path(revca.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "revca.cli", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_classify(self):
        proc = self.run_module(
            "classify", "--states", "2", "--neighborhood", "3", "--rule", "75"
        )
        assert proc.returncode == 0
        assert "n ≡ 0 (mod 2), n ≥ 2" in proc.stdout

    def test_bad_rule_exits_1(self):
        proc = self.run_module(
            "classify", "--states", "3", "--neighborhood", "3", "--rule", "012"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "length 3" in proc.stderr and "Traceback" not in proc.stderr
