import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cogpat
from cogpat import cli
from cogpat.cli import _build_parser, main
from cogpat.dds import exact_dp
from cogpat.fixtures import (
    FixtureError,
    load_cofo,
    load_dds,
    load_metagraph,
    load_points,
    load_rules,
    load_subpattern,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REPO = FIXTURES.parent
# SHA-256 of each README command's artifacts, keyed "<command>: <file>"
README_PINS = Path(__file__).resolve().parent / "readme_artifacts.sha256.json"
SOCIAL = ["--fixture", FIXTURES / "kb_social.json"]

# what the fixture checker says a decision-table state's actions must be
ACTIONS_WANT = ("must be a list of actions, each an object holding a string 'name', a finite "
                "number 'reward' and optionally an object 'next' of finite numbers >= 0")
A2 = "{'name': 'a2', 'next': {'C': 1.0}, 'reward': 0}"  # gd1's second action at state A

# runs each command (argv lists, JSON) in one process, output under argv[1]
RUN_COMMANDS = """
import json, sys
from cogpat.cli import main
for i, argv in enumerate(json.loads(sys.argv[2])):
    if main(argv + ["--out", f"{sys.argv[1]}/{i}"]) != 0:
        sys.exit(f"non-zero exit: {argv}")
"""


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestLoaders:
    def test_gd1_loads_and_solves(self):
        problem = load_dds(FIXTURES / "gd1.json")
        assert exact_dp(problem).value(1, "A") == 5.0

    def test_metagraph_round_trip_bytes(self):
        path = FIXTURES / "kb_two_hop.json"
        mg = load_metagraph(path)
        re_emitted = json.dumps(mg.snapshot().to_dict(), sort_keys=True, indent=2) + "\n"
        assert re_emitted == path.read_text()

    def test_truncated_file_names_path(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"atoms": [')
        with pytest.raises(FixtureError, match="broken.json"):
            load_metagraph(bad)

    def test_missing_field_named(self, tmp_path):
        bad = tmp_path / "partial.json"
        bad.write_text('{"stages": 2, "states": {}}')
        with pytest.raises(FixtureError, match="actions"):
            load_dds(bad)

    def test_duplicate_atom_id_named(self, tmp_path):
        data = json.loads((FIXTURES / "kb_social.json").read_text())
        data["atoms"].append(dict(data["atoms"][0], type="Impostor"))
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(FixtureError, match="duplicate atom id 0"):
            load_metagraph(bad)
        assert run("cog", "ecan", "--fixture", bad, "--out", tmp_path) == 2

    def test_rules_fixture(self):
        rules = load_rules(FIXTURES / "rules.json")
        assert [r.name for r in rules] == ["deduction", "inversion"]
        assert rules[1].reversible

    def test_rules_reversibility_mismatch(self, tmp_path):
        bad = tmp_path / "rules.json"
        bad.write_text(json.dumps(
            {"rules": [{"name": "d", "formula": "deduction", "reversible": True}]}
        ))
        with pytest.raises(FixtureError, match="reversible"):
            load_rules(bad)

    def test_subpattern_fixture(self):
        items, ops, sm = load_subpattern(FIXTURES / "subpattern_doubling.json")
        assert items == ["ab", "abab", ""]
        assert ops["double"]("ab", "") == "abab"
        assert sm.sigma("abab") == 4


FIXTURE_KEYS = st.sampled_from(["rules", "formula", "name", "reversible", "domain", "objective",
                                "hypotheses", "prior", "table", "rho", "combinators", "tol",
                                "points", "k", "items", "ops", "sigma", "sigma_star", "stages",
                                "states", "actions", "reward", "next", "alpha", "1", "A"])
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["deduction", "left", "double", "length", "x", ""]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(FIXTURE_KEYS, children, max_size=5),
    max_leaves=20)


@st.composite
def edited(draw, fixture):
    """`fixture`'s JSON with one value, at a drawn depth, replaced by any JSON value."""
    root = {"fixture": json.loads((FIXTURES / fixture).read_text())}
    holder, key = root, "fixture"
    while isinstance(holder[key], (dict, list)) and holder[key] and draw(st.booleans()):
        holder, key = holder[key], draw(st.sampled_from(
            sorted(holder[key]) if isinstance(holder[key], dict) else range(len(holder[key]))))
    holder[key] = draw(ANY_JSON)
    return root["fixture"]


class TestFixtureLoadersRobust:
    @pytest.mark.parametrize("fixture, load", [
        ("rules.json", load_rules), ("cofo_two_hypotheses.json", load_cofo),
        ("points_two_pairs.json", load_points), ("subpattern_doubling.json", load_subpattern),
        ("gd1.json", load_dds)])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_json_loads_or_is_a_fixture_error(self, fixture, load, data):
        value = data.draw(edited(fixture) | ANY_JSON)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / fixture
            path.write_text(json.dumps(value))
            try:
                load(path)
            except FixtureError:
                pass


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run("bogus") == 2

    def test_missing_fixture_flag(self, tmp_path):
        assert run("cog", "chain", "--out", tmp_path) == 2

    def test_nonexistent_fixture_path(self, tmp_path):
        assert run("cog", "chain", "--fixture", tmp_path / "nope.json",
                   "--out", tmp_path) == 2

    @pytest.mark.parametrize("where", ["a directory", "under a file"])
    def test_fixture_path_that_is_no_file(self, tmp_path, where, capsys):
        (tmp_path / "file.json").write_text("{}")
        path = tmp_path / ("dir.json" if where == "a directory" else "file.json/kb.json")
        if where == "a directory":
            path.mkdir()
        assert run("cog", "chain", "--fixture", path, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {path}: fixture file not found\n"

    @pytest.mark.parametrize("where", ["a file", "under a file", "a directory at the artifact"])
    def test_unusable_out(self, tmp_path, where, capsys):
        """An --out that cannot hold the artifact is a usage error: one
        error line and exit 2."""
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = {"a file": blocker, "under a file": blocker / "sub",
               "a directory at the artifact": tmp_path / "out"}[where]
        if where == "a directory at the artifact":
            (out / "morph.json").mkdir(parents=True)
        assert run("morph", "demo", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: cannot write morph.json (") and err.count("\n") == 1
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("command", [["chain"], ["backchain", "--target", "P0,P1"]])
    def test_kb_node_without_truth_value(self, tmp_path, command, capsys):
        # kb_social.json is a mining kb: its nodes carry no prior
        assert run("cog", *command, "--fixture", FIXTURES / "kb_social.json",
                   "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "kb_social.json: node 0 ('P0') has no truth value" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [["chain"], ["backchain", "--target", "A,B"]])
    def test_kb_statement_without_truth_value(self, tmp_path, command, capsys):
        data = json.loads((FIXTURES / "kb_two_hop.json").read_text())
        del next(a for a in data["atoms"] if a["type"] == "implies")["tv"]
        bad = tmp_path / "kb.json"
        bad.write_text(json.dumps(data))
        assert run("cog", *command, "--fixture", bad, "--out", tmp_path / "out") == 2
        assert "kb.json: edge 3 ('implies') has no truth value" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["chain"], ["backchain", "--target", "bad"]])
    @pytest.mark.parametrize("target", [3, -1])
    def test_kb_statement_on_a_non_concept(self, tmp_path, command, target, capsys):
        """A statement that targets an edge or a dangling slot is a fixture
        error, reported before a malformed --target."""
        data = json.loads((FIXTURES / "kb_two_hop.json").read_text())
        data["atoms"].append({"id": 5, "kind": "edge", "type": "implies", "targets": [0, target],
                              "tv": {"s": 0.5, "c": 0.5}})
        data["dangling"] = [{"slot": 0, "type": "A"}]
        bad = tmp_path / "kb.json"
        bad.write_text(json.dumps(data))
        assert run("cog", *command, "--fixture", bad, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: edge 5 ('implies') targets an atom that is not a concept node\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("executor", ["sdp", "chrono"])
    @pytest.mark.parametrize("command", [["chain", "--fixture", FIXTURES / "kb_two_hop.json"],
                                         ["cluster", "--fixture", FIXTURES / "points_two_pairs.json"]])
    def test_greedy_or_dp_only(self, tmp_path, command, executor, capsys):
        assert run("cog", *command, "--executor", executor, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert f"cogpat cog {command[0]}: error: argument --executor: invalid choice: {executor!r}" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n, k, executor, message", [
        (4, 5, "greedy", "field 'k' is 5, more than the 4 points"),
        (8, 2, "dp", "error: exact clustering is limited to n <= 7, got n=8"),
    ])
    def test_cluster_input_too_large(self, tmp_path, n, k, executor, message, capsys):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"k": k, "points": {f"p{i}": [i, 0] for i in range(n)}}))
        assert run("cog", "cluster", "--fixture", path, "--executor", executor,
                   "--out", tmp_path / "out") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, message", [
        (["cog", "mine", *SOCIAL, "--budget", -1], "argument --budget: must be >= 0, got -1"),
        (["cog", "ecan", *SOCIAL, "--quantum", 0], "--quantum must be finite and > 0, got 0.0"),
        (["cog", "ecan", *SOCIAL, "--quantum", "nan"], "--quantum must be finite and > 0, got nan"),
        (["cog", "ecan", *SOCIAL, "--quantum", "inf"], "--quantum must be finite and > 0, got inf"),
        *((argv + ["--budget", -3], "argument --budget: must be >= 0, got -3") for argv in (
            ["cog", "evolve"], ["cog", "ecan", *SOCIAL], ["cofo", "run"],
            ["cog", "chain", "--fixture", FIXTURES / "kb_two_hop.json"],
            ["cog", "backchain", "--fixture", FIXTURES / "kb_two_hop.json", "--target", "A,C"])),
        # a flag the command does not take
        (["morph", "demo", "--seed", 3], "error: unrecognized arguments: --seed 3"),
        (["cog", "mine", *SOCIAL, "--executor", "chrono"],
         "error: unrecognized arguments: --executor chrono"),
        (["subpattern", "align", "--fixture", "x.json"],
         "error: unrecognized arguments: --fixture x.json"),
        (["dds", "compare", "--executor", "sdp"], "error: unrecognized arguments: --executor sdp"),
        # a threshold outside [0, 1]
        *((["cog", "mine", *SOCIAL, "--min-freq", value],
           f"--min-freq must be between 0 and 1, got {float(value)}")
          for value in ("nan", "2", "-1", "1.0000001", "inf", "-inf", "-nan", "-1e5")),
        # a value argparse would read as a flag reaches the range check
        *((["cog", "ecan", *SOCIAL, "--quantum", value],
           f"--quantum must be finite and > 0, got {float(value)}")
          for value in ("-inf", "-nan", "-1e5")),
        # no flag is abbreviated, and a single-dash value after any flag is its value
        (["cog", "mine", *SOCIAL, "--min", "-inf"], "error: unrecognized arguments: --min -inf"),
        (["cog", "chain", "--fixture", FIXTURES / "kb_two_hop.json", "--budget", "-1e5"],
         "argument --budget: invalid count value: '-1e5'"),
        (["cog", "mine", *SOCIAL, "--min", "0.5"], "error: unrecognized arguments: --min 0.5"),
        (["cog", "ecan", *SOCIAL, "--seed", "-1e5"], "argument --seed: invalid int value: '-1e5'"),
    ])
    def test_cog_usage_error(self, tmp_path, command, message, capsys):
        assert run(*command, "--out", tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, fixture, edit, message", [
        (["cog", "chain", "--fixture", FIXTURES / "kb_two_hop.json", "--rules"], "rules.json",
         lambda d: d.update(rules=[5]), "rules.json: rules[0] must be an object"),
        (["cog", "chain", "--fixture", FIXTURES / "kb_two_hop.json", "--rules"], "rules.json",
         lambda d: d.update(rules=5), "rules.json: field 'rules' must be a list"),
        # 0 == False and 1 == True, but neither is a flag
        *((["cog", "chain", "--fixture", FIXTURES / "kb_two_hop.json", "--rules"], "rules.json",
           lambda d, i=i, bad=bad: d["rules"][i].update(reversible=bad),
           f"rules.json: rules[{i}] field 'reversible' must be true or false, got {bad!r}")
          for i, bad in ((0, 0), (1, 1), (0, 0.0))),
        (["cofo", "run", "--fixture"], "cofo_two_hypotheses.json",
         lambda d: d.update(hypotheses=[5]), "cofo_two_hypotheses.json: hypotheses[0] must be an object"),
        (["cog", "cluster", "--fixture"], "points_two_pairs.json",
         lambda d: d.update(points=[1, 2]), "points_two_pairs.json: field 'points' must be an object"),
        *((["cog", "cluster", "--fixture"], "points_two_pairs.json",
           lambda d, bad=bad: d["points"].update(p1=bad),
           "points_two_pairs.json: points['p1'] must be an [x, y] pair of finite numbers")
          for bad in (["x", 1], [float("nan"), 1.0], [0.0, float("inf")], [10**400, 1.0])),
        *((["subpattern", "dag", "--fixture"], "subpattern_doubling.json",
           lambda d, bad=bad: d.update(sigma_star=bad),
           "subpattern_doubling.json: field 'sigma_star' must be a finite number")
          for bad in ("x", float("nan"), float("inf"), None)),
    ])
    def test_malformed_fixture_is_usage_error(self, tmp_path, command, fixture, edit, message,
                                              capsys):
        data = json.loads((FIXTURES / fixture).read_text())
        edit(data)
        path = tmp_path / fixture
        path.write_text(json.dumps(data))
        assert run(*command, path, "--out", tmp_path / "out") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def cofo_fixture(tmp_path, edit) -> Path:
        data = json.loads((FIXTURES / "cofo_two_hypotheses.json").read_text())
        edit(data)
        path = tmp_path / "cofo.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["hypotheses"][1]["table"].pop(2),
         "hypothesis 'mirror' has no value at domain point 3"),
        (lambda d: d["objective"].pop(), "objective has no value at domain point 4"),
        (lambda d: d["domain"].append([2, 1.0]), "domain repeats a point"),
        # a table point listed twice: no later value silently wins
        (lambda d: d["objective"].append([2, 7.0]), "cofo.json: objective lists point 2 twice"),
        (lambda d: d["objective"].insert(0, [4.0, 4.0]), "cofo.json: objective lists point 4 twice"),
        (lambda d: d["hypotheses"][1]["table"].append([3, 0.0]),
         "cofo.json: hypotheses[1] table lists point 3 twice"),
        (lambda d: d.update(tol=float("nan")), "field 'tol' must be a finite number, got nan"),
        (lambda d: d.update(tol="x"), "field 'tol' must be a finite number, got 'x'"),
    ])
    def test_malformed_cofo_problem(self, tmp_path, edit, message, capsys):
        path = self.cofo_fixture(tmp_path, edit)
        assert run("cofo", "run", "--fixture", path, "--out", tmp_path / "out") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cofo_budget_zero(self, tmp_path, capsys):
        assert run("cofo", "run", "--budget", 0, "--out", tmp_path) == 2
        assert "error: horizon must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_cofo_no_hypothesis_fits_objective(self, tmp_path, capsys):
        def shift(data):
            data["objective"] = [[x, y + 10.0] for x, y in data["objective"]]

        path = self.cofo_fixture(tmp_path, shift)
        assert run("cofo", "run", "--fixture", path, "--out", tmp_path / "out") == 2
        assert "error: no hypothesis consistent with pair" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["solve", "--executor", "dp"], ["solve", "--executor", "sdp"],
        ["solve", "--executor", "chrono"], ["solve", "--executor", "greedy"], ["compare"],
    ])
    @pytest.mark.parametrize("nxt, message", [
        ({"Z": 1.0}, "'Z'"),  # a state stage 2 does not declare
        ({"B": 0.5}, "probabilities sum to 0.5 at t=1"),
    ])
    def test_malformed_dds_table(self, tmp_path, command, nxt, message, capsys):
        data = json.loads((FIXTURES / "gd1.json").read_text())
        data["actions"]["1"]["A"][0]["next"] = nxt  # a1, the greedy choice
        path = tmp_path / "dds.json"
        path.write_text(json.dumps(data))
        assert run("dds", *command, "--fixture", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", [
        ["solve", "--executor", "dp"], ["solve", "--executor", "sdp"],
        ["solve", "--executor", "chrono"], ["solve", "--executor", "greedy"], ["compare"],
    ])
    @pytest.mark.parametrize("edit, message", [
        # a second a1 used to replace the first and show up twice in the argmax
        (lambda d: d["actions"]["1"]["A"].append({"name": "a1", "reward": 9, "next": {"C": 1.0}}),
         "stage 1, state 'A' lists action 'a1' twice"),
        (lambda d: d["states"]["2"].append("B"), "stage 2 lists state 'B' twice"),
    ])
    def test_repeated_dds_name(self, tmp_path, command, edit, message, capsys):
        data = json.loads((FIXTURES / "gd1.json").read_text())
        edit(data)
        path = tmp_path / "dds.json"
        path.write_text(json.dumps(data))
        assert run("dds", *command, "--fixture", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"malformed decision tables ({message})" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite", ["verify-greedy", "verify-dp"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_verify_suite(self, tmp_path, suite, n, capsys):
        assert run("relalg", suite, "--instances", n, "--out", tmp_path) == 2
        assert f"error: argument --instances: must be >= 1, got {n}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("field, bad, message", [
        ("id", -1, "atom id -1 is not a non-negative integer"),
        ("id", 1.5, "atom id 1.5 is not a non-negative integer"),
        ("targets", [0.0, 1], "target 0.0 is not an integer"),
        ("tv", {"s": 0.5, "c": 0.5, "k": 2.0}, "unexpected keyword argument 'k'"),
    ])
    def test_mine_rejects_malformed_ids(self, tmp_path, field, bad, message, capsys):
        data = json.loads((FIXTURES / "kb_social.json").read_text())
        next(a for a in data["atoms"] if a["kind"] == "edge")[field] = bad
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(data))
        assert run("cog", "mine", "--fixture", path, "--budget", 2, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "kb.json: malformed metagraph" in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["mine", "--budget", 2], ["ecan"]])
    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["atoms"].__setitem__(0, 5), "kb.json: atoms[0] must be an object"),
        (lambda d: d.__setitem__("dangling", [5]), "kb.json: dangling[0] must be an object"),
        (lambda d: d.__setitem__("dangling", 5), "kb.json: field 'dangling' must be a list"),
        (lambda d: d.__setitem__("dangling", [{"slot": 0, "type": 5}]),
         "dangling slot 0 type 5 is not a string"),
        (lambda d: d["atoms"][0].__setitem__("type", 5), "atom 0 type 5 is not a string"),
        (lambda d: d["atoms"][0].__setitem__("sti", "high"), "atom 0 sti 'high' is not a finite number"),
        (lambda d: d["atoms"][0].__setitem__("sti", float("nan")), "atom 0 sti nan is not a finite number"),
        (lambda d: d["atoms"][0].__setitem__("lti", float("inf")), "atom 0 lti inf is not a finite number"),
        (lambda d: d["atoms"][0].__setitem__("sti", True), "atom 0 sti True is not a finite number"),
        *((lambda d, tv=tv: d["atoms"][0].__setitem__("tv", tv),
           f"atom 0 tv {tv!r} does not hold two numbers")
          for tv in ({"s": True, "c": 0.5}, {"s": 0.5, "c": False}, {"s": False, "c": 0.0})),
    ])
    def test_malformed_metagraph_entry(self, tmp_path, command, edit, message, capsys):
        data = json.loads((FIXTURES / "kb_social.json").read_text())
        edit(data)
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(data))
        assert run("cog", *command, "--fixture", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_failed_audit_is_exit_one(self, tmp_path):
        assert run("subpattern", "audit", "--fixture",
                   FIXTURES / "subpattern_maxmin.json", "--out", tmp_path) == 1

    def test_passing_audit_is_exit_zero(self, tmp_path):
        assert run("subpattern", "audit", "--fixture",
                   FIXTURES / "subpattern_union.json", "--out", tmp_path) == 0

    @pytest.mark.parametrize("command, fixture, edit, message", [
        *((["dds", "solve", "--fixture"], "gd1.json", edit, message) for edit, message in [
            (lambda d: d.update(stages=-1), "gd1.json: field 'stages' must be a positive integer, "
             "got -1"),
            (lambda d: d.update(stages=0), "field 'stages' must be a positive integer, got 0"),
            (lambda d: d.update(stages=10**400), "stages must be an integer from 1 to 2"),
            (lambda d: d.update(states={}), "stages must be an integer from 1 to 0"),
            (lambda d: d["states"].update({"1": []}), "stage 1 declares no state"),
            (lambda d: d["states"].update({"2": ["B", 5]}),
             "gd1.json: states['2'] must be a list of strings, got ['B', 5]"),
            (lambda d: d["actions"]["1"]["A"][0].update(name=None),
             f"actions['1']['A'] {ACTIONS_WANT}, got [{{'name': None, 'next': {{'B': 1.0}}, "),
            (lambda d: d["actions"]["1"]["A"][0].update(reward="x"),
             f"actions['1']['A'] {ACTIONS_WANT}, got [{{'name': 'a1', 'next': {{'B': 1.0}}, "
             "'reward': 'x'}, "),
            (lambda d: d["actions"]["1"]["A"][0].update(next=None),
             f"actions['1']['A'] {ACTIONS_WANT}, got [{{'name': 'a1', 'next': None, "),
            (lambda d: d["actions"]["1"]["A"][0].update(next={"B": "x"}),
             f"actions['1']['A'] {ACTIONS_WANT}, got [{{'name': 'a1', 'next': {{'B': 'x'}}, "),
            (lambda d: d["actions"]["1"]["A"][0].update(next={"B": 2.0, "C": -1.0}),
             f"actions['1']['A'] {ACTIONS_WANT}, got [{{'name': 'a1', "
             "'next': {'B': 2.0, 'C': -1.0}, "),
            (lambda d: d.update(alpha=None), "field 'alpha' must be a finite number, got None"),
            # shape faults that used to surface as interpreter text
            (lambda d: d["actions"]["1"].update(A=5), f"gd1.json: actions['1']['A'] {ACTIONS_WANT}, "
             "got 5"),
            (lambda d: d["actions"].update(x=d["actions"].pop("2")),
             "gd1.json: field 'actions' must be an object keyed by stage numbers, got {"),
            (lambda d: d["actions"]["1"]["A"][0].pop("reward"),
             f"actions['1']['A'] {ACTIONS_WANT}, got [{{'name': 'a1', 'next': {{'B': 1.0}}}}, {A2}]"),
            (lambda d: d["actions"].update({"2": [d["actions"]["2"]["B"]]}),
             "gd1.json: actions['2'] must be an object, got [[{'name': 'b', 'reward': 1}]]"),
            (lambda d: d["actions"]["1"]["A"].__setitem__(0, 3),
             f"gd1.json: actions['1']['A'] {ACTIONS_WANT}, got [3, {A2}]"),
        ]),
        # a nan reward: dp used to report "no action recorded", greedy a nan total
        *((["dds", *command, "--fixture"], "gd1.json",
           lambda d: d["actions"]["2"]["C"][0].update(reward=float("nan")),
           f"actions['2']['C'] {ACTIONS_WANT}, got [{{'name': 'c', 'reward': nan}}]")
          for command in (["solve", "--executor", "dp"], ["solve", "--executor", "greedy"],
                          ["compare"])),
        (["cofo", "run", "--fixture"], "cofo_two_hypotheses.json",
         lambda d: d["objective"][0].__setitem__(1, None),
         "objective[0] must be an [x, y] pair of finite numbers, got [1, None]"),
        (["cofo", "run", "--fixture"], "cofo_two_hypotheses.json",
         lambda d: d["hypotheses"][0]["table"][1].__setitem__(1, []),
         "hypotheses[0] table[1] must be an [x, y] pair of finite numbers, got [2, []]"),
        *((["cofo", "run", "--fixture"], "cofo_two_hypotheses.json", edit,
           f"cofo_two_hypotheses.json: {message}")
          for bad in (True, False, float("nan"), float("inf"), float("-inf"))
          for edit, message in [
              (lambda d, bad=bad: d["domain"][1].__setitem__(1, bad),
               f"domain[1] must be an [x, y] pair of finite numbers, got [2, {bad!r}]"),
              (lambda d, bad=bad: d["hypotheses"][1].update(prior=bad),
               "hypotheses[1] must be an object holding a string 'name', a finite number "
               f"'prior' and a list 'table', got {{'name': 'mirror', 'prior': {bad!r}, "),
          ]),
        *((["cofo", "run", "--fixture"], "cofo_two_hypotheses.json", edit, message)
          for bad in (True, False) for edit, message in [
              # true == 1, yet true is no point
              (lambda d, bad=bad: d["domain"][0].__setitem__(0, bad),
               f"domain[0] must be an [x, y] pair of finite numbers, got [{bad!r}, 1.0]"),
              (lambda d, bad=bad: d["objective"][0].__setitem__(0, bad),
               f"objective[0] must be an [x, y] pair of finite numbers, got [{bad!r}, 1.0]"),
              (lambda d, bad=bad: d["hypotheses"][0]["table"][0].__setitem__(0, bad),
               f"hypotheses[0] table[0] must be an [x, y] pair of finite numbers, got [{bad!r}, 1.0]"),
          ]),
        (["cofo", "run", "--fixture"], "cofo_two_hypotheses.json",
         lambda d: d["domain"][2].__setitem__(1, -0.5),
         "malformed problem (domain weights must be >= 0, with a positive, finite sum)"),
        # finite priors whose sum is no finite number
        (["cofo", "run", "--fixture"], "cofo_two_hypotheses.json",
         lambda d: [h.update(prior=1e308) for h in d["hypotheses"]],
         "malformed problem (hypothesis priors must be positive, with a finite sum)"),
        *((["subpattern", command, "--fixture"], fixture, edit,
           "field 'items' must hold strings, finite numbers or lists of finite numbers")
          for command in ("audit", "dag") for fixture, edit in [
              ("subpattern_doubling.json", lambda d: d.update(items=[])),
              ("subpattern_doubling.json", lambda d: d["items"].__setitem__(0, None)),
              ("subpattern_maxmin.json", lambda d: d.update(items=[0, "a"], ops=["concat"])),
              ("subpattern_union.json", lambda d: d["items"].__setitem__(0, [[0]])),
          ]),
        (["subpattern", "dag", "--fixture"], "subpattern_maxmin.json", lambda d: None,
         "simplicity measures take strings or lists, not numbers"),
        (["subpattern", "audit", "--fixture"], "subpattern_maxmin.json",
         lambda d: d.update(ops=["union-merge"]),
         "operator 'union-merge' takes strings or lists, not numbers"),
        *((["cog", "chain", "--executor", executor, "--fixture"], "kb_two_hop.json",
           lambda d: d.update(atoms=[]), "kb_two_hop.json: kb holds no statements")
          for executor in ("greedy", "dp")),
        (["cog", "cluster", "--fixture"], "points_two_pairs.json", lambda d: d.update(k=True),
         "field 'k' must be a positive integer"),
        (["cog", "cluster", "--fixture"], "points_two_pairs.json",
         lambda d: d["points"].update(p0=[1e308, 0.0]), "point distance out of range"),
        (["cog", "ecan", "--fixture"], "kb_social.json",
         lambda d: d["atoms"][0].update(sti=10**400), "atom 0 sti 1000"),
    ])
    def test_malformed_input_fails_closed(self, tmp_path, command, fixture, edit, message,
                                          capsys):
        data = json.loads((FIXTURES / fixture).read_text())
        edit(data)
        path = tmp_path / fixture
        path.write_text(json.dumps(data))
        assert run(*command, path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_ecan_on_empty_kb_skips_every_step(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"atoms": []}))
        assert run("cog", "ecan", "--fixture", path, "--budget", 3, "--out", tmp_path) == 0
        data = json.loads((tmp_path / "ecan.json").read_text())
        assert data == {"sti": {}, "transfers": 0, "skipped": [0, 1, 2]}


# every command form that reads a fixture: the fixture it reads, and its
# argv up to the flag that takes the fixture's path
READING_FORMS = [
    *(("gd1.json", ["dds", "solve", "--executor", e, "--fixture"])
      for e in ("dp", "sdp", "chrono", "greedy")),
    ("gd1.json", ["dds", "compare", "--fixture"]),
    *(("cofo_two_hypotheses.json", ["cofo", "run", "--executor", e, "--fixture"])
      for e in ("dp", "sdp", "chrono", "greedy")),
    *(("kb_two_hop.json", ["cog", "chain", "--rules", FIXTURES / "rules.json",
                           "--executor", e, "--fixture"]) for e in ("greedy", "dp")),
    ("kb_two_hop.json", ["cog", "backchain", "--target", "A,C", "--fixture"]),
    ("rules.json", ["cog", "chain", "--fixture", FIXTURES / "kb_two_hop.json", "--rules"]),
    *(("points_two_pairs.json", ["cog", "cluster", "--executor", e, "--fixture"])
      for e in ("greedy", "dp")),
    ("kb_social.json", ["cog", "mine", "--budget", 2, "--fixture"]),
    ("kb_social.json", ["cog", "ecan", "--budget", 20, "--fixture"]),
    *((fixture, ["subpattern", command, "--fixture"]) for command in ("audit", "dag")
      for fixture in ("subpattern_doubling.json", "subpattern_maxmin.json",
                      "subpattern_union.json")),
]
SINGLE_VALUES = [None, True, -1, 0, 2, 1.5, "x", [], {}, float("nan"), [1, 2]]


def single_value_mutations(data):
    """(where, value, copy of `data`) for every value in `data`, at any
    depth, replaced by each of `SINGLE_VALUES`."""
    stack = [()]
    while stack:
        where = stack.pop()
        node = data
        for key in where:
            node = node[key]
        if isinstance(node, (dict, list)):
            stack.extend(where + (k,) for k in (node if isinstance(node, dict)
                                                 else range(len(node))))
        if not where:
            continue
        for value in SINGLE_VALUES:
            mutated = json.loads(json.dumps(data))
            holder = mutated
            for key in where[:-1]:
                holder = holder[key]
            holder[where[-1]] = value
            yield where, value, mutated


class TestSingleValueMutations:
    @pytest.mark.parametrize("fixture, argv", READING_FORMS, ids=[
        " ".join(str(a) for a in argv[:-1] if not isinstance(a, Path)) + f" {argv[-1]} {fixture}"
        for fixture, argv in READING_FORMS])
    def test_exit_code_without_traceback(self, tmp_path, fixture, argv):
        """A shipped fixture with any one value replaced makes the command
        exit 0, 1 or 2, never raise."""
        path = tmp_path / fixture
        crashes = []
        for where, value, mutated in single_value_mutations(
                json.loads((FIXTURES / fixture).read_text())):
            path.write_text(json.dumps(mutated))
            try:
                code = run(*argv, path, "--out", tmp_path / "out")
            except Exception as exc:
                crashes.append(f"{list(where)} = {value!r}: {exc!r}")
            else:
                assert code in (0, 1, 2), (where, value)
        assert crashes == []


# one command that reads each shipped fixture, as in `READING_FORMS`
FIXTURE_READERS = {
    "gd1.json": ["dds", "solve", "--fixture"],
    "cofo_two_hypotheses.json": ["cofo", "run", "--fixture"],
    "kb_two_hop.json": ["cog", "chain", "--fixture"],
    "kb_social.json": ["cog", "ecan", "--fixture"],
    "rules.json": ["cog", "chain", "--fixture", FIXTURES / "kb_two_hop.json", "--rules"],
    "points_two_pairs.json": ["cog", "cluster", "--fixture"],
    **{f"subpattern_{name}.json": ["subpattern", "audit", "--fixture"]
       for name in ("doubling", "maxmin", "union")},
}
NOT_NUMBERS = [True, False, float("nan"), float("inf"), float("-inf")]
NOT_FLAGS = [0, 1, 0.0]


def number_and_flag_mutations(data):
    """(where, value, copy of `data`) for every number in `data`, at any
    depth, replaced by each of `NOT_NUMBERS`, and every flag by each of
    `NOT_FLAGS`."""
    stack = [()]
    while stack:
        where = stack.pop()
        node = data
        for key in where:
            node = node[key]
        if isinstance(node, (dict, list)):
            stack.extend(where + (k,) for k in (node if isinstance(node, dict)
                                                 else range(len(node))))
            continue
        for value in (NOT_FLAGS if type(node) is bool
                      else NOT_NUMBERS if type(node) in (int, float) else ()):
            mutated = json.loads(json.dumps(data))
            holder = mutated
            for key in where[:-1]:
                holder = holder[key]
            holder[where[-1]] = value
            yield where, value, mutated


class TestNumbersAndFlags:
    @pytest.mark.parametrize("fixture", sorted(FIXTURE_READERS))
    def test_every_number_and_flag_replaced_exits_2(self, tmp_path, fixture):
        """A number of a shipped fixture replaced by true, false, nan or
        +-infinity, or a flag by 0, 1 or 0.0, is a fixture error."""
        path = tmp_path / fixture
        wrong = []
        for where, value, mutated in number_and_flag_mutations(
                json.loads((FIXTURES / fixture).read_text())):
            path.write_text(json.dumps(mutated))
            try:
                code = run(*FIXTURE_READERS[fixture], path, "--out", tmp_path / "out")
            except Exception as exc:
                code = repr(exc)
            if code != 2:
                wrong.append(f"{list(where)} = {value!r}: {code}")
        assert wrong == []


class TestHugeIntegers:
    @pytest.mark.parametrize("fixture", sorted(FIXTURE_READERS))
    def test_integer_past_the_conversion_limit_exits_2(self, tmp_path, fixture, capsys):
        """A JSON integer of more digits than int() converts (4,300 by
        default) is invalid JSON: exit 2 and one error line, no traceback."""
        path = tmp_path / fixture
        text = (FIXTURES / fixture).read_text()
        path.write_text('{"n": ' + "9" * 5000 + ", " + text.lstrip()[1:])
        assert run(*FIXTURE_READERS[fixture], path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON (") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestDdsCommands:
    def test_compare_rows(self, tmp_path):
        assert run("dds", "compare", "--fixture", FIXTURES / "gd1.json",
                   "--out", tmp_path) == 0
        assert (tmp_path / "compare.csv").read_text() == (
            "method,value\ngreedy,3.0\nexact,5.0\n"
        )

    def test_solve_exact_value(self, tmp_path):
        assert run("dds", "solve", "--fixture", FIXTURES / "gd1.json",
                   "--out", tmp_path) == 0
        data = json.loads((tmp_path / "solve.json").read_text())
        assert data["value"] == 5.0
        assert (tmp_path / "value_function.csv").exists()

    def test_solve_greedy_total(self, tmp_path):
        assert run("dds", "solve", "--executor", "greedy",
                   "--fixture", FIXTURES / "gd1.json", "--out", tmp_path) == 0
        data = json.loads((tmp_path / "solve.json").read_text())
        assert data["total"] == 3.0


class TestCogCommands:
    def test_chain_derives_statement(self, tmp_path):
        assert run("cog", "chain", "--fixture", FIXTURES / "kb_two_hop.json",
                   "--rules", FIXTURES / "rules.json", "--out", tmp_path) == 0
        data = json.loads((tmp_path / "chain.json").read_text())
        assert data["statements"]["A->C"]["s"] == pytest.approx(0.78)

    def test_backchain_target(self, tmp_path):
        assert run("cog", "backchain", "--fixture", FIXTURES / "kb_two_hop.json",
                   "--target", "A,C", "--out", tmp_path) == 0
        data = json.loads((tmp_path / "backchain.json").read_text())
        assert data["tv"]["s"] == pytest.approx(0.78)
        assert data["expansions"] == 1
        assert [(n["id"], n["statement"], n["children"], n["leaf_kind"]) for n in data["nodes"]] == [
            (0, "A->C", [1, 2], None), (1, "A->B", [], "dataset"), (2, "B->C", [], "dataset")]

    def test_cluster_blocks(self, tmp_path):
        assert run("cog", "cluster", "--fixture", FIXTURES / "points_two_pairs.json",
                   "--out", tmp_path) == 0
        data = json.loads((tmp_path / "clusters.json").read_text())
        assert data["blocks"] == [["p0", "p1"], ["p2", "p3"]]
        assert data["logical_entropy"] == pytest.approx(0.5)

    def test_mine_outputs_frequencies(self, tmp_path):
        assert run("cog", "mine", "--fixture", FIXTURES / "kb_social.json",
                   "--budget", 2, "--out", tmp_path) == 0
        data = json.loads((tmp_path / "mined.json").read_text())
        freqs = {m["clauses"][0][0]: m["frequency"] for m in data if len(m["clauses"]) == 1}
        assert freqs["likes"] == pytest.approx(0.3)
        assert freqs["knows"] == pytest.approx(0.7)

    def test_ecan_conserves(self, tmp_path):
        assert run("cog", "ecan", "--fixture", FIXTURES / "kb_social.json",
                   "--budget", 20, "--out", tmp_path) == 0
        data = json.loads((tmp_path / "ecan.json").read_text())
        assert sum(data["sti"].values()) == pytest.approx(15.0)


class TestDeterminism:
    def test_identical_artifacts_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("cog", "evolve", "--budget", 300, "--seed", 7,
                       "--out", out) == 0
            assert run("cofo", "run", "--out", out) == 0
        assert (a / "evolve.json").read_bytes() == (b / "evolve.json").read_bytes()
        assert (a / "cofo_run.json").read_bytes() == (b / "cofo_run.json").read_bytes()

    def test_seed_env_variable_has_no_effect(self, tmp_path, monkeypatch):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run("cog", "evolve", "--budget", 300, "--out", a) == 0
        monkeypatch.setenv("COGPAT_SEED", "9")
        assert run("cog", "evolve", "--budget", 300, "--out", b) == 0
        monkeypatch.setenv("COGPAT_SEED", "not a number")
        assert run("cog", "evolve", "--budget", 300, "--seed", 42, "--out", c) == 0
        assert (a / "evolve.json").read_bytes() == (b / "evolve.json").read_bytes()
        assert (b / "evolve.json").read_bytes() == (c / "evolve.json").read_bytes()


def readme_commands() -> list:
    commands = []
    for line in (REPO / "README.md").read_text().splitlines():
        if line.startswith("cogpat "):
            argv = shlex.split(line)[1:]
            assert argv[-2:] == ["--out", "out"]
            commands.append(argv[:-2])
    return commands


def leaf_parsers() -> dict:
    """'group command' -> that command's argparse parser."""
    def sub(p):
        return next(a.choices for a in p._actions if isinstance(a, argparse._SubParsersAction))
    return {f"{g} {c}": leaf for g, gp in sub(_build_parser()).items() for c, leaf in sub(gp).items()}


# a README flag-table entry: `--flag`, then its default, then a note in parentheses
FLAG_ENTRY = re.compile(r"`(--[a-z-]+)`(?: ([^ ,(]+))?(?: \(([^)]*)\))?")


class TestCliContract:
    def test_writers_return_the_written_path(self, tmp_path):
        args = argparse.Namespace(out=str(tmp_path / "out"))
        text = cli._write_text(args, "a.csv", "x\n")
        data = cli._write_json(args, "b.json", {"k": 1})
        assert text == tmp_path / "out" / "a.csv" and text.read_text() == "x\n"
        assert data == tmp_path / "out" / "b.json" and json.loads(data.read_text()) == {"k": 1}

    def test_readme_flag_table_matches_parser(self):
        table = {}
        for line in (REPO / "README.md").read_text().splitlines():
            if line.startswith("| `"):
                commands, flags = line.strip("| ").split(" | ")
                table.update((c, flags) for c in re.findall(r"`([a-z]+ [a-z-]+)`", commands))
        leaves = leaf_parsers()
        assert len(leaves) == 15 and table.keys() == leaves.keys()
        for command, flags in table.items():
            actions = {a.option_strings[-1]: a for a in leaves[command]._actions
                       if not isinstance(a, argparse._HelpAction)}
            assert actions.pop("--out").default == "out"
            entries = FLAG_ENTRY.findall(flags)
            assert (flags == "none") != bool(entries), command
            assert sorted(flag for flag, _, _ in entries) == sorted(actions), command
            for flag, default, note in entries:
                action, where = actions[flag], (command, flag)
                assert action.required == (note == "required"), where
                assert ("" if action.default is None else str(action.default)) == default, where
                assert action.choices == (tuple(note.split("/")) if "/" in note else None), where
                if note.startswith("at least "):
                    low = int(note.removeprefix("at least "))
                    assert action.type(str(low)) == low, where
                    with pytest.raises(argparse.ArgumentTypeError):
                        action.type(str(low - 1))
                else:
                    assert action.type in (None, int, float), where


# a value for any flag: valid ones, out-of-range and non-numeric ones, and
# single-dash ones that a flag takes as its value
FLAG_VALUES = ["0", "1", "3", "-1", "-3", "0.5", "2", "nan", "-inf", "-nan", "-1e5", "1e5", "x",
               "", "greedy", "dp", "sdp", "chrono", "A,B", "out", "-", "--"]


def valid_value(action) -> str:
    """A value `action`'s parser accepts."""
    return action.choices[0] if action.choices else "3" if action.type else "A,B"


@st.composite
def command_argv(draw) -> list:
    """argv for one command: its required flags or not, then its own flags,
    other commands' flags, abbreviated, unknown and help flags, each with a
    valid or a drawn value, attached with `=`, or none."""
    leaves = leaf_parsers()
    command = draw(st.sampled_from(sorted(leaves)))
    takes_value = {f: a for a in leaves[command]._actions if a.nargs is None for f in a.option_strings}
    own = sorted(takes_value)
    others = sorted({f for leaf in leaves.values() for a in leaf._actions if a.nargs is None
                     for f in a.option_strings})
    abbreviated = [f[:k] for f in own for k in (3, len(f) - 1) if 2 < k < len(f)]
    flag = st.one_of(st.sampled_from(own), st.sampled_from(own), st.sampled_from(others),
                     st.sampled_from(abbreviated + ["--bogus", "-x", "extra", "-h", "--help"]))
    argv = command.split()
    if draw(st.booleans()):
        argv += [token for f, a in takes_value.items() if a.required for token in (f, valid_value(a))]
    for token in draw(st.lists(flag, max_size=5)):
        value = draw(st.sampled_from(FLAG_VALUES) | st.just(
            valid_value(takes_value[token]) if token in takes_value else "x"))
        how = draw(st.sampled_from(["apart", "attached", "none"]))
        argv += ([token, value] if how == "apart" else
                 [token + "=" + value] if how == "attached" else [token])
    return argv


def parse_outcome(parse, argv) -> tuple:
    """(exit code, parsed values, stdout, stderr) of `parse(argv)`; exit
    code None and values the namespace's sorted items when it parses."""
    out, err = io.StringIO(), io.StringIO()
    code = values = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values = repr(sorted(vars(parse(argv)).items()))
        except SystemExit as exc:
            code = exc.code
    return code, values, out.getvalue(), err.getvalue()


def full_parse(argv) -> argparse.Namespace:
    """The parse `main` made before each command had its own: the whole
    CLI's parser, once a single-dash token after a flag that takes a value,
    in any command, is attached to that flag."""
    takes_value = {f for leaf in leaf_parsers().values() for a in leaf._actions
                   if a.nargs is None for f in a.option_strings}
    attached = []
    for token in argv:
        if attached and attached[-1] in takes_value and token[:1] == "-" and token[1:2] != "-":
            attached[-1] += "=" + token
        else:
            attached.append(token)
    return _build_parser().parse_args(attached)


class TestDispatch:
    @settings(max_examples=400, deadline=None)
    @given(argv=command_argv() | st.lists(
        st.sampled_from(["cog", "dds", "chain", "solve", "bogus", "--help", "-h", "--out"]), max_size=3))
    def test_table_dispatch_matches_the_full_parse(self, argv):
        """Parsing with the named command's own parser gives the full
        parser's exit code, handler and flag values, help text and error
        message; only an unrecognized-arguments error names the command's
        usage line and prog instead of the top level's."""
        got = parse_outcome(cli._parse, argv)
        want = parse_outcome(full_parse, argv)
        assert got[:3] == want[:3]
        assert got[3].partition(" error: ")[2] == want[3].partition(" error: ")[2]
        if "error: unrecognized arguments: " not in want[3]:
            assert got[3] == want[3]

    def test_a_command_skips_the_full_parser(self, tmp_path, monkeypatch):
        assert {" ".join(k): v for k, v in cli._command_parsers().items()} == leaf_parsers()
        monkeypatch.setattr(_build_parser(), "parse_args", None)
        assert run("morph", "demo", "--out", tmp_path) == 0


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestHashSeedIndependence:
    def test_readme_commands_match_across_hash_seeds(self, tmp_path):
        commands = readme_commands()
        assert len(commands) == 15
        src = str(Path(cogpat.__file__).resolve().parents[1])
        procs = {}
        for hash_seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            procs[hash_seed] = subprocess.Popen(
                [sys.executable, "-c", RUN_COMMANDS, str(tmp_path / hash_seed),
                 json.dumps(commands)],
                cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
        for proc in procs.values():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        trees = {h: tree_bytes(tmp_path / h) for h in procs}
        assert len({p.split(os.sep)[0] for p in trees["0"]}) == len(commands)
        assert trees["0"] == trees["2"]
        got = {}
        for rel, data in trees["0"].items():
            i, *name = Path(rel).parts
            got[f"{shlex.join(commands[int(i)])}: {'/'.join(name)}"] = hashlib.sha256(data).hexdigest()
        pinned = json.loads(README_PINS.read_text())
        differ = sorted(k for k in pinned.keys() | got.keys() if pinned.get(k) != got.get(k))
        assert not differ, f"artifacts differ from {README_PINS.name}: {differ}"

    def test_clusters_of_string_labels_match_across_hash_seeds(self, tmp_path):
        # string labels hash differently per seed, so block iteration order
        # (and with it float sums and near-tie merges) would differ
        rng = random.Random(7)
        commands = []
        for i in range(40):
            n = rng.randint(4, 12)
            k = rng.randint(1, 3)
            centres = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(k)]
            points = {f"p{j}": [round(centres[j % k][0] + rng.gauss(0, 2), 3),
                                round(centres[j % k][1] + rng.gauss(0, 2), 3)]
                      for j in range(n)}
            path = tmp_path / f"points{i}.json"
            path.write_text(json.dumps({"points": points, "k": k}))
            for executor in ("greedy", "dp") if n <= 7 else ("greedy",):
                commands.append(["cog", "cluster", "--fixture", str(path),
                                 "--executor", executor])
        trees = {}
        for hash_seed in ("0", "7"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(Path(cogpat.__file__).resolve().parents[1]),
                            env.get("PYTHONPATH")) if p
            )
            subprocess.run([sys.executable, "-c", RUN_COMMANDS, str(tmp_path / hash_seed),
                            json.dumps(commands)], cwd=REPO, env=env, check=True)
            trees[hash_seed] = tree_bytes(tmp_path / hash_seed)
        assert len(trees["0"]) == len(commands)
        assert trees["0"] == trees["7"]


class TestVerifySuites:
    def test_verify_greedy_report(self, tmp_path):
        assert run("relalg", "verify-greedy", "--instances", 25, "--seed", 42,
                   "--out", tmp_path) == 0
        data = json.loads((tmp_path / "verify.json").read_text())
        assert data["satisfied"] == 25
        assert data["violating_seeds"] == []

    def test_verify_dp_report(self, tmp_path):
        assert run("relalg", "verify-dp", "--instances", 15, "--seed", 42,
                   "--out", tmp_path) == 0
        data = json.loads((tmp_path / "verify.json").read_text())
        assert data["satisfied"] == 15
        assert data["violating_seeds"] == []

    def test_verify_dp_known_counterexample(self, tmp_path):
        assert run("relalg", "verify-dp", "--instances", 100, "--seed", 595220,
                   "--out", tmp_path) == 1
        data = json.loads((tmp_path / "verify.json").read_text())
        assert (data["satisfied"], data["skipped"]) == (100, 440)
        assert data["violating_seeds"] == [595220]


class TestOtherCommands:
    def test_subpattern_dag_artifact(self, tmp_path):
        assert run("subpattern", "dag", "--fixture",
                   FIXTURES / "subpattern_doubling.json", "--out", tmp_path) == 0
        data = json.loads((tmp_path / "dag.json").read_text())
        assert {"parent": "'abab'", "child": "'ab'", "op": "double",
                "other": "''"} in data["edges"]

    def test_subpattern_align_perfect(self, tmp_path):
        assert run("subpattern", "align", "--out", tmp_path) == 0
        data = json.loads((tmp_path / "align.json").read_text())
        assert data["score"] == 1.0

    def test_morph_demo(self, tmp_path):
        assert run("morph", "demo", "--out", tmp_path) == 0
        data = json.loads((tmp_path / "morph.json").read_text())
        assert data["atom_count"] == 5
        assert data["histo_memo_hits"] > 0
        assert data["suspended_resume_matches"] is True

    def test_cofo_run_artifact(self, tmp_path):
        assert run("cofo", "run", "--out", tmp_path) == 0
        data = json.loads((tmp_path / "cofo_run.json").read_text())
        assert data["starting_quality"] > 0.0
        assert data["achievable_entropy_drop"] >= 0.0


class TestEveryExecutor:
    """`dds solve` and `cofo run` under each executor on the shipped
    fixtures; chrono must reproduce dp's artifacts."""

    @staticmethod
    def solve(tmp_path, executor, *cmd) -> dict:
        out = tmp_path / executor
        assert run(*cmd, "--executor", executor, "--out", out) == 0
        return {f.name: f.read_text() for f in sorted(out.iterdir())}

    @pytest.mark.parametrize("executor", ["chrono", "sdp", "greedy"])
    def test_dds_solve(self, tmp_path, executor):
        cmd = ("dds", "solve", "--fixture", FIXTURES / "gd1.json")
        ref, got = self.solve(tmp_path, "dp", *cmd), self.solve(tmp_path, executor, *cmd)
        ref_json, got_json = json.loads(ref["solve.json"]), json.loads(got["solve.json"])
        assert got_json["executor"] == executor
        if executor == "greedy":
            assert got_json["total"] <= ref_json["value"]
            return
        # gd1 is deterministic, so the sampled backup is exact too
        assert got["value_function.csv"] == ref["value_function.csv"]
        assert got_json["value"] == ref_json["value"] == 5.0
        assert got_json["best_action"] == ref_json["best_action"]

    @pytest.mark.parametrize("executor", ["chrono", "sdp", "greedy"])
    def test_cofo_run(self, tmp_path, executor):
        cmd = ("cofo", "run", "--budget", 2, "--fixture", FIXTURES / "cofo_two_hypotheses.json")
        ref = json.loads(self.solve(tmp_path, "dp", *cmd)["cofo_run.json"])
        got = json.loads(self.solve(tmp_path, executor, *cmd)["cofo_run.json"])
        assert got["executor"] == executor
        assert got["starting_quality"] == ref["starting_quality"]
        if executor == "greedy":
            assert got["achievable_entropy_drop"] <= ref["achievable_entropy_drop"]
        else:
            assert got["achievable_entropy_drop"] == ref["achievable_entropy_drop"]
