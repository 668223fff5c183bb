import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cogpat
from cogpat.cli import main
from cogpat.dds import exact_dp
from cogpat.fixtures import (
    FixtureError,
    load_dds,
    load_metagraph,
    load_rules,
    load_subpattern,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REPO = FIXTURES.parent
# SHA-256 of each README command's artifacts, keyed "<command>: <file>"
README_PINS = Path(__file__).resolve().parent / "readme_artifacts.sha256.json"

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


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run("bogus") == 2

    def test_missing_fixture_flag(self, tmp_path):
        assert run("cog", "chain", "--out", tmp_path) == 2

    def test_nonexistent_fixture_path(self, tmp_path):
        assert run("cog", "chain", "--fixture", tmp_path / "nope.json",
                   "--out", tmp_path) == 2

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

    @pytest.mark.parametrize("executor", ["sdp", "chrono"])
    @pytest.mark.parametrize("command", [["chain", "--fixture", FIXTURES / "kb_two_hop.json"],
                                         ["cluster", "--fixture", FIXTURES / "points_two_pairs.json"]])
    def test_greedy_or_dp_only(self, tmp_path, command, executor, capsys):
        assert run("cog", *command, "--executor", executor, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert f"cog {command[0]} runs --executor greedy or dp, not {executor!r}" in err
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

    @pytest.mark.parametrize("suite", ["verify-greedy", "verify-dp"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_verify_suite(self, tmp_path, suite, n, capsys):
        assert run("relalg", suite, "--instances", n, "--out", tmp_path) == 2
        assert f"error: --instances must be >= 1, got {n}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("field, bad, message", [
        ("id", -1, "atom id -1 is not a non-negative integer"),
        ("id", 1.5, "atom id 1.5 is not a non-negative integer"),
        ("targets", [0.0, 1], "target 0.0 is not an integer"),
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

    def test_failed_audit_is_exit_one(self, tmp_path):
        assert run("subpattern", "audit", "--fixture",
                   FIXTURES / "subpattern_maxmin.json", "--out", tmp_path) == 1

    def test_passing_audit_is_exit_zero(self, tmp_path):
        assert run("subpattern", "audit", "--fixture",
                   FIXTURES / "subpattern_union.json", "--out", tmp_path) == 0


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

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        monkeypatch.setenv("COGPAT_SEED", "9")
        assert run("cog", "evolve", "--budget", 300, "--out", a) == 0
        assert run("cog", "evolve", "--budget", 300, "--seed", 9, "--out", b) == 0
        monkeypatch.setenv("COGPAT_SEED", "10")
        assert run("cog", "evolve", "--budget", 300, "--seed", 9, "--out", c) == 0
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
