"""The three workloads: seeded inputs, tasks and output checks.

A workload is a list of blocks.  A block is a short list of tasks; every
block has the same mix of task kinds and sizes, with new inputs.  The
runner plays blocks in a closed loop and stops only at a block boundary,
so every run sees the same mix.  A task is one user-level call: `cogpat.cli.main`
on generated fixture files where the README has a command, otherwise the
public library call.  Each check is an oracle, not golden bytes, so a
correctness fix that changes output still passes.
"""

from __future__ import annotations

import ast
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
from cogpat import cli, dds, fixtures, metagraph, morphisms

# Each workload is built from blocks that all hold the same mix of task
# kinds and sizes, so that a run's cost depends on the program and not on
# which blocks the time limit happened to reach.

# reason: greedy chaining on kbs of each of these concept counts (1.5
# implications per concept) and the dp chain on a dense 10-concept kb (35
# implications), where the cost of reaching its crash varies least.
CHAIN_CONCEPTS = (10, 20, 30)
DP_KB = (10, 35)
# Backchaining runs on the 20-concept kb only, so the median task (a
# backchain) comes from one homogeneous group; 16 of them make a block of 20
# tasks, enough for 10 samples beyond p90 in a run of six blocks.
BACKCHAIN_CONCEPTS = 20
BACKCHAINS = 16
BACKCHAIN_BUDGET = 5  # the CLI default

# graph: mining six-node kbs with each of these (typed edges, edge types,
# budget), and the library tasks on one metagraph of each of these (atoms,
# edge share, type labels): two labels share much structure, forty little.
# The slowest tenth of a block is the 25-edge mine, and the 20-edge mine and
# the 10^4-atom probes, which cost about the same, so p90 falls inside a
# group of like tasks.
MINE_SHAPES = ((10, 2, 3), (20, 2, 3), (25, 2, 3))
GRAPH_SHAPES = ((2000, 0.7, 40), (10000, 0.5, 2))
ECAN_STEPS = 200
MIN_FREQ = 0.05  # the CLI default
PROBES = 100

# plan, sized so that dds, cofo and relalg each take about a third of the
# time, and so that each latency quantile falls inside a band of like tasks
# rather than in a gap between two bands, where it would jump with the
# inputs.  A block holds, by latency: 27 tasks of about 5 ms (subpattern,
# greedy clustering), the 11 tasks of the 10^3-cell tables (7-16 ms, holding
# the median), 14 tasks of 25-130 ms, 12 tasks of 200-400 ms (cofo and
# relalg, holding p90) and the sdp solve of the stochastic 10^4-cell table.
# dds tables (stages, states per stage, actions), each deterministic and
# stochastic: 10^3 and 10^4 cells.
DDS_SHAPES = ((10, 25, 4), (25, 100, 4))
# cofo problems (points, hypotheses, budget), each about 200-400 ms.
COFO_SHAPES = ((8, 8, 3), (10, 12, 2), (8, 16, 2), (12, 8, 2), (8, 12, 3), (10, 8, 3))
# relalg suites (command, instances, first instance seed), each run three
# times.  verify-greedy starts at a seeded random instance.  verify-dp
# starts at random_dp_instance(595220), a known counterexample to the dp
# theorem (see the README), in every block and for every seed.  From a
# random start about one verify-dp task in fifty would meet a
# counterexample, so a run's failure count would depend on its seed and on
# how many blocks it reached.  From this start every verify-dp task reports
# the defect and fails, a fixed share of every block.
DP_COUNTEREXAMPLE = 595220
VERIFY_SUITES = (("verify-greedy", 800, None), ("verify-dp", 100, DP_COUNTEREXAMPLE)) * 3
# clustering inputs (points, clusters), evolution budgets, subpattern sizes;
# the subpattern set (two audits, two dags, one align) runs this many times.
CLUSTER_POINTS = ((6, 2), (7, 3))
EVOLVE_BUDGETS = (500, 2000)
SUBPATTERN_SETS = 5
AUDIT_ITEMS, DAG_ROOTS, DAG_BLOCKS = 8, 4, 12

TOL = 1e-9


class CheckError(Exception):
    """A task's output failed its oracle."""


class CommandFailed(Exception):
    """A CLI command exited non-zero: the program reported the failure."""


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    blocks: list
    warmup: list = field(default_factory=list)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _read(path: Path):
    return json.loads(path.read_text())


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def cli_task(kind: str, argv: list, check: Callable[[], None]) -> Task:
    """`cogpat.cli.main(argv)` in-process.  A non-zero exit code fails the
    task as the program's own report; `check` then judges the artifacts of
    a command that claimed success."""
    def run():
        rc = cli.main(argv)
        if rc != 0:
            raise CommandFailed(f"exit code {rc}")

    return Task(kind, run, lambda result: check())


# ---------------------------------------------------------------------------
# reason: forward chaining (cwig-bound), the dp chain planner, backchaining


def _check_chain(out: Path) -> None:
    res = _read(out / "chain.json")
    for step in res["trace"]:
        _expect(step["reward"] > 0.0, f"chain reward {step['reward']} is not > 0")
    _expect(res["stalled"] or len(res["trace"]) > 0, "empty trace without a stall")


def _check_backchain(out: Path, target: str) -> None:
    res = _read(out / "backchain.json")
    _expect(res["target"] == target, "backchain answered another target")
    tv = res["tv"]
    _expect(0.0 <= tv["s"] <= 1.0 and 0.0 <= tv["c"] < 1.0, f"truth value out of range {tv}")
    _expect(res["expansions"] <= BACKCHAIN_BUDGET, "more expansions than the budget")
    for node in res["nodes"]:
        _expect(len(node["children"]) in (0, 2), "bid node is not binary")


def reason(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    fx, out = root / "fixtures", root / "out"
    rules = _write(fx / "rules.json", gen.RULES)

    def block(i: int, kb_shapes: tuple, dp_shape: tuple, greedy_budget: int,
              dp_budget: int, backchains: int) -> list:
        o, ob = out / "chain", out / "backchain"
        tasks, backs = [], []
        for j, (concepts, implications) in enumerate(kb_shapes):
            data = gen.implication_kb(rng, concepts, implications)
            kb = _write(fx / f"kb{i}_{j}.json", data)
            tasks.append(cli_task(
                "chain_greedy", ["cog", "chain", "--fixture", kb, "--rules", rules,
                                 "--executor", "greedy", "--budget", str(greedy_budget),
                                 "--out", str(o)], lambda: _check_chain(o)))
            if concepts != BACKCHAIN_CONCEPTS:
                continue
            stmts = {tuple(a["targets"]) for a in data["atoms"] if a["kind"] == "edge"}
            open_pairs = [(a, b) for a in range(concepts) for b in range(concepts)
                          if a != b and (a, b) not in stmts]
            for a, b in rng.sample(open_pairs, backchains):
                target = f"C{a},C{b}"
                backs.append(cli_task(
                    "backchain",
                    ["cog", "backchain", "--fixture", kb, "--target", target,
                     "--seed", str(rng.randrange(1000)), "--out", str(ob)],
                    lambda t=target.replace(",", "->"): _check_backchain(ob, t)))
        dense_kb = _write(fx / f"dense{i}.json", gen.implication_kb(rng, *dp_shape))
        tasks.append(cli_task("chain_dp", ["cog", "chain", "--fixture", dense_kb, "--rules", rules,
                                           "--budget", str(dp_budget), "--out", str(o)],
                              lambda: _check_chain(o)))
        return tasks + backs

    warmup = block(0, ((BACKCHAIN_CONCEPTS, 30),), (6, 8), 1, 1, 1)
    shapes = tuple((n, n + n // 2) for n in CHAIN_CONCEPTS)
    blocks = [block(i + 1, shapes, DP_KB, 5, 3, BACKCHAINS) for i in range(12)]
    return Workload(blocks, warmup)


# ---------------------------------------------------------------------------
# graph: pattern mining and attention on dense kbs, metagraph store and
# recursion schemes on large metagraphs


def _typed_edges(data: dict) -> list:
    return [(a["type"], a["targets"][0], a["targets"][1])
            for a in data["atoms"] if a["kind"] == "edge" and len(a["targets"]) == 2]


def conj_count(edges: list, clauses: list) -> int:
    """Satisfying edge tuples of a conjunction, by backtracking over edges
    grouped by type (an oracle independent of `cogkit.mine`)."""
    by_type = defaultdict(list)
    for etype, a, b in edges:
        by_type[etype].append((a, b))

    def extend(i: int, env: dict) -> int:
        if i == len(clauses):
            return 1
        etype, (v1, v2) = clauses[i]
        total = 0
        for a, b in by_type[etype]:
            if env.get(v1, a) != a:
                continue
            if (a if v2 == v1 else env.get(v2, b)) != b:
                continue
            bound = dict(env)
            bound[v1], bound[v2] = a, b
            total += extend(i + 1, bound)
        return total

    return extend(0, {})


def _check_mine(out: Path, edges: list) -> None:
    mined = _read(out / "mined.json")
    _expect(len(mined) > 0, "nothing mined")
    n = len(edges)
    for m in mined:
        clauses = [(t, tuple(vs)) for t, vs in m["clauses"]]
        if m["kind"] == "disj":
            types = {t for t, _ in clauses}
            want = sum(1 for e in edges if e[0] in types) / n
        else:
            want = conj_count(edges, clauses) / n ** len(clauses)
        _expect(m["frequency"] == want,
                f"mined frequency {m['frequency']} != brute-force {want}")
        _expect(m["frequency"] >= MIN_FREQ, "pattern below min_freq")


def _check_ecan(out: Path, sti_total: float, steps: int) -> None:
    res = _read(out / "ecan.json")
    total = sum(res["sti"].values())
    _expect(abs(total - sti_total) <= 1e-6, f"importance not conserved: {total} != {sti_total}")
    _expect(res["transfers"] + len(res["skipped"]) == steps, "steps unaccounted for")


COUNT = morphisms.Algebra(unit=0, combine=lambda acc, ctx: acc + 1,
                          merge=lambda a, b: a + b, declared_associative=True)


def _seed_coalgebra() -> morphisms.Coalgebra:
    """Seeds are integers; n expands to one node plus an edge to its parent
    and has children n//2, n//3, n//5, n//7, so seeds are widely shared."""
    piece = metagraph.TypedMetagraph()
    slot = piece.declare_dangling("T")
    node = piece.add_node("T")
    piece.add_edge("up", [node, metagraph.slot_ref(slot)])

    def expand(n):
        kids = [(n // d, 0) for d in (2, 3, 5, 7)] if n > 1 else []
        return morphisms.Expansion([piece], kids)

    return morphisms.Coalgebra(expand)


def _chrono_oracle(seed: int) -> tuple:
    """Value (atoms counted along the unfolded tree) and memo hits of the
    memoized chronomorphism over `_seed_coalgebra`."""
    memo: dict = {}
    hits = 0

    def visit(n):
        nonlocal hits
        if n in memo:
            hits += 1
            return memo[n]
        v = 2
        if n > 1:
            for d in (2, 3, 5, 7):
                v += visit(n // d)
        memo[n] = v
        return v

    return visit(seed), hits


def _relabel_nodes(data: dict, rng: random.Random) -> dict:
    """The same metagraph with node ids permuted (edges keep their ids)."""
    nodes = [a["id"] for a in data["atoms"] if a["kind"] == "node"]
    perm = dict(zip(nodes, rng.sample(nodes, len(nodes))))
    atoms = []
    for a in data["atoms"]:
        b = dict(a)
        b["id"] = perm.get(a["id"], a["id"])
        if "targets" in a:
            b["targets"] = [perm.get(t, t) for t in a["targets"]]
        atoms.append(b)
    return {"atoms": atoms}


def _graph_library(rng: random.Random, fx: Path, i: str, shape: tuple) -> list:
    atoms, edge_share, labels = shape
    data = gen.large_metagraph(rng, atoms, edge_share, labels)
    path = _write(fx / f"graph{i}.json", data)
    g = fixtures.load_metagraph(path)
    view = g.snapshot()
    n_edges = sum(1 for a in data["atoms"] if a["kind"] == "edge")
    target_refs = sum(len(a.get("targets", ())) for a in data["atoms"])

    incoming = defaultdict(list)
    for a in data["atoms"]:
        for t in a.get("targets", ()):
            incoming[t].append(a["id"])
    probes = rng.sample(range(atoms), PROBES)

    def neighbors_oracle(x):
        out = set(data["atoms"][x].get("targets", ()))
        for e in incoming[x]:
            out.add(e)
            out.update(data["atoms"][e]["targets"])
        out.discard(x)
        return sorted(out)

    want_in = {x: sorted(set(incoming[x])) for x in probes}
    want_nb = {x: neighbors_oracle(x) for x in probes}

    selection = set(rng.sample(range(atoms), atoms // 10))
    outside = {t for x in selection for t in data["atoms"][x].get("targets", ())
               if t not in selection}
    sub = metagraph.submetagraph(view, selection)
    first_of_type = {}
    for a in data["atoms"]:
        first_of_type.setdefault(a["type"], a["id"])
    binding = {d.slot: first_of_type[d.type_label] for d in sub.dangling}

    smalls = []
    for _ in range(4):
        small = gen.small_metagraph(rng, rng.randint(8, 12))
        smalls.append((metagraph.TypedMetagraph.from_dict(small),
                       metagraph.TypedMetagraph.from_dict(_relabel_nodes(small, rng))))

    coalg = _seed_coalgebra()
    chrono_seed = rng.randrange(10**8, 10**9)
    chrono_want = _chrono_oracle(chrono_seed)
    unfold_budget = atoms // 2
    # None adds a node, a pair adds an edge between those atoms
    additions = [None if rng.random() < 0.5 else rng.sample(range(atoms), 2) for _ in range(1000)]

    def t_load():
        return fixtures.load_metagraph(path)

    def c_load(mg):
        _expect(len(mg) == atoms and len(mg.edges()) == n_edges, "loaded graph differs")

    def t_add_atom():
        h = g.clone()
        for targets in additions:
            if targets is None:
                h.add_node("N0")
            else:
                h.add_edge("E0", targets)
        return h

    def t_incoming():
        return {x: view.incoming(x) for x in probes}

    def t_neighbors():
        return {x: view.neighbors(x) for x in probes}

    def t_submetagraph():
        return metagraph.submetagraph(view, selection)

    def c_submetagraph(s):
        _expect(len(s) == len(selection), "submetagraph size differs")
        _expect(len(s.dangling) == len(outside), "submetagraph dangling slots differ")

    def t_join():
        return metagraph.join(sub, view, binding)

    def c_join(j):
        _expect(len(j) == len(sub) + atoms, "join size differs")
        _expect(len(j.dangling) == 0, "join left slots unbound")

    def t_canonical():
        return [(metagraph.canonical_form(a), metagraph.canonical_form(b)) for a, b in smalls]

    def c_canonical(forms):
        for a, b in forms:
            _expect(a == b, "canonical form changed under node relabeling")

    def t_suspend_resume():
        run = morphisms.fold_run(view, COUNT)
        status = morphisms.run_steps(run, atoms // 2)
        return status, morphisms.complete(run)

    def c_count(value):
        _expect(value == atoms, f"fold counted {value}, want {atoms}")

    def t_futu():
        return morphisms.futu_unfold(chrono_seed, coalg, unfold_budget)

    def c_futu(mg):
        _expect(len(mg) == 2 * unfold_budget, "unfold emitted a wrong atom count")
        _expect(len(mg.dangling) == 1, "unfold root slot missing")

    def c_chrono(res):
        value, hits = res
        _expect(res == chrono_want, f"chrono gave {res}, want {chrono_want}")

    return [
        Task("load", t_load, c_load),
        Task("add_atom", t_add_atom,
             lambda h: _expect(len(h) == atoms + len(additions), "add_atom lost atoms")),
        Task("clone", lambda: g.clone(), lambda h: _expect(h.atoms == g.atoms, "clone differs")),
        Task("submetagraph", t_submetagraph, c_submetagraph),
        Task("join", t_join, c_join),
        Task("incoming", t_incoming, lambda r: _expect(r == want_in, "incoming differs")),
        Task("neighbors", t_neighbors, lambda r: _expect(r == want_nb, "neighbors differ")),
        Task("canonical_form", t_canonical, c_canonical),
        Task("fold", lambda: morphisms.fold(view, COUNT), c_count),
        Task("histo_fold", lambda: morphisms.histo_fold(view, COUNT),
             lambda r: _expect(r == (atoms, target_refs), f"histo_fold gave {r}")),
        Task("fold_suspend_resume", t_suspend_resume,
             lambda r: (_expect(r[0] == "paused", "run did not pause"), c_count(r[1]))),
        Task("futu_unfold", t_futu, c_futu),
        Task("chrono", lambda: morphisms.chrono(chrono_seed, coalg, COUNT, 10**6), c_chrono),
    ]


def graph(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    fx, out = root / "fixtures", root / "out"

    def block(i: int, mine_shapes: tuple, graph_shapes: list) -> list:
        tasks = []
        om, oe = out / "mine", out / "ecan"
        for j, (n_edges, types, budget) in enumerate(mine_shapes):
            data = gen.typed_kb(rng, 6, n_edges, types)
            kb = _write(fx / f"typed{i}_{j}.json", data)
            edges = _typed_edges(data)
            tasks.append(cli_task("mine", ["cog", "mine", "--fixture", kb, "--budget", str(budget),
                                           "--out", str(om)],
                                  lambda e=edges: _check_mine(om, e)))
        # attention spreads over the densest of the mined kbs
        sti_total = sum(a.get("sti", 0.0) for a in data["atoms"])
        tasks.append(cli_task("ecan", ["cog", "ecan", "--fixture", kb, "--budget", str(ECAN_STEPS),
                                       "--seed", str(rng.randrange(1000)), "--out", str(oe)],
                              lambda: _check_ecan(oe, sti_total, ECAN_STEPS)))
        for j, shape in enumerate(graph_shapes):
            tasks += _graph_library(rng, fx, f"{i}_{j}", shape)
        return tasks

    warmup = block(0, ((6, 2, 1),), [(200, 0.5, 2)])
    blocks = [block(i + 1, MINE_SHAPES, GRAPH_SHAPES) for i in range(8)]
    return Workload(blocks, warmup)


# ---------------------------------------------------------------------------
# plan: dds solvers, the cofo adapter, relalg verification suites, and the
# smaller planners (clustering, evolution, subpattern tooling)


def _dds_tasks(rng: random.Random, fx: Path, out: Path, name: str, shape: tuple,
               stochastic: bool) -> list:
    stages, width, actions = shape
    path = _write(fx / f"{name}.json", gen.dds_tables(rng, stages, width, actions, stochastic))
    o = out / "dds"
    seed = str(rng.randrange(1000))
    exact = {}

    def solved():
        return _read(o / "solve.json")

    def c_dp():
        exact["value"] = solved()["value"]
        _expect(math.isfinite(exact["value"]), "exact value is not finite")

    def c_same():
        _expect("value" in exact, "no exact value to compare with")
        got = solved()["value"]
        _expect(abs(got - exact["value"]) <= TOL * max(1.0, abs(got)),
                f"{solved()['executor']} value {got} != exact {exact['value']}")

    def c_sdp():
        if stochastic:
            _expect(math.isfinite(solved()["value"]), "sdp value is not finite")
        else:
            c_same()

    def c_greedy():
        total = solved()["total"]
        _expect(len(solved()["steps"]) == stages, "greedy rollout is short")
        if not stochastic:
            _expect(total <= exact["value"] + TOL, f"greedy {total} beats exact {exact['value']}")

    def c_compare():
        rows = dict(line.split(",") for line in (o / "compare.csv").read_text().split()[1:])
        greedy, exact_v = float(rows["greedy"]), float(rows["exact"])
        _expect(abs(exact_v - exact["value"]) <= TOL * max(1.0, abs(exact_v)), "compare exact differs")
        if not stochastic:
            _expect(greedy <= exact_v + TOL, "compare: greedy beats exact")

    def argv(cmd, *extra):
        return ["dds", cmd, "--fixture", path, "--seed", seed, "--out", str(o), *extra]

    tasks = [
        cli_task("dds_dp", argv("solve", "--executor", "dp"), c_dp),
        cli_task("dds_chrono", argv("solve", "--executor", "chrono"), c_same),
        cli_task("dds_sdp", argv("solve", "--executor", "sdp"), c_sdp),
        cli_task("dds_greedy", argv("solve", "--executor", "greedy"), c_greedy),
        cli_task("dds_compare", argv("compare"), c_compare),
    ]
    if stochastic:
        episodes = 200

        def t_evaluate():
            problem = fixtures.load_dds(path)
            vf = dds.exact_dp(problem)
            mean, stderr = dds.evaluate_policy(problem, dds.policy_from(vf), episodes,
                                               seed=int(seed))
            starts = problem.states(1)
            want = sum(vf.value(1, s) for s in starts) / len(starts)
            return mean, stderr, want

        def c_evaluate(res):
            mean, stderr, want = res
            _expect(abs(mean - want) <= 6 * stderr + TOL,
                    f"policy mean {mean} is {abs(mean - want) / max(stderr, TOL):.1f} "
                    f"standard errors from the exact value {want}")

        tasks.append(Task("dds_evaluate_policy", t_evaluate, c_evaluate))
    return tasks


def _check_cofo(out: Path) -> None:
    res = _read(out / "cofo_run.json")
    drop, start = res["achievable_entropy_drop"], res["starting_quality"]
    _expect(-TOL <= drop <= start + TOL,
            f"entropy drop {drop} outside [0, starting quality {start}]")


def _check_verify(out: Path, requested: int) -> None:
    res = _read(out / "verify.json")
    _expect(res["violating_seeds"] == [], f"violations at seeds {res['violating_seeds']}")
    _expect(res["satisfied"] == requested, "fewer instances than requested")


def _cluster_quality(points: dict, blocks: list) -> float:
    dists = []
    for block in blocks:
        block = sorted(block)
        for i, x in enumerate(block):
            for y in block[i + 1:]:
                (x1, y1), (x2, y2) = points[x], points[y]
                dists.append(math.hypot(x1 - x2, y1 - y2))
    return -sum(dists) / len(dists) if dists else 0.0


def _check_cluster(out: Path, data: dict, qualities: dict, executor: str) -> None:
    res = _read(out / "clusters.json")
    labels = sorted(x for block in res["blocks"] for x in block)
    _expect(labels == sorted(data["points"]), "clusters do not partition the points")
    _expect(len(res["blocks"]) == data["k"], "wrong number of clusters")
    _expect(abs(res["quality"] - _cluster_quality(data["points"], res["blocks"])) <= 1e-9,
            "reported quality differs from the recomputed one")
    qualities[executor] = res["quality"]
    if executor == "dp":
        _expect(qualities["dp"] >= qualities.get("greedy", -math.inf) - TOL,
                "dp clustering is worse than greedy")


def _check_evolve(out: Path, budget: int) -> None:
    res = _read(out / "evolve.json")
    _expect(res["best_fitness"] == sum(res["best"]), "best fitness is not the genome's one_max")
    _expect(res["evaluations"] == budget, "evaluations differ from the budget")


def _check_audit(out: Path, domain: int) -> None:
    res = _read(out / "audit.json")
    _expect(res["passed"], "associativity audit failed")
    per_pair = domain ** 3 if res["exhaustive"] else 1000
    for pair in res["pairs"]:
        _expect(pair["checked"] + pair["undefined"] == per_pair, "audit skipped triples")


def _subpattern_op(name: str):
    ops = {
        "concat": lambda y, z: y + z,
        "plus": lambda y, z: y + z,
        "double": lambda y, z: y + y if z == "" else None,
        "union-merge": lambda y, z: None if set(y) & set(z) else tuple(sorted(set(y) | set(z))),
    }
    return ops[name]


def _check_dag(out: Path, data: dict) -> None:
    """Every edge rebuilds its parent with a strict simplicity drop, and the
    edge count matches an exhaustive recount."""
    items = [tuple(v) if isinstance(v, list) else v for v in data["items"]]
    sigma = len if data["sigma"] == "length" else (lambda b: float(len(b) ** 2))
    star = data["sigma_star"]
    res = _read(out / "dag.json")
    want = 0
    for name in data["ops"]:
        op = _subpattern_op(name)
        for y in items:
            for z in items:
                x = op(y, z)
                if x in items and sigma(y) + sigma(z) + star < sigma(x):
                    want += 1
    _expect(len(res["edges"]) == want, f"dag has {len(res['edges'])} edges, want {want}")
    for e in res["edges"]:
        x, y, z = (ast.literal_eval(e[k]) for k in ("parent", "child", "other"))
        _expect(_subpattern_op(e["op"])(y, z) == x, "dag witness does not rebuild its parent")
        _expect(sigma(y) + sigma(z) + star < sigma(x), "dag edge without a simplicity drop")


def _check_align(out: Path) -> None:
    res = _read(out / "align.json")
    _expect(0.0 <= res["score"] <= 1.0, f"alignment score {res['score']} outside [0, 1]")
    _expect(len(res["trace_edges"]) > 0, "empty alignment trace")


def plan(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    fx, out = root / "fixtures", root / "out"

    def block(i: int, dds_shapes: tuple, cofo_shapes: tuple, suites: tuple,
              cluster_points: tuple, evolve_budgets: tuple, subpattern_sets: int) -> list:
        tasks = []
        for j, shape in enumerate(dds_shapes):
            for stochastic in (False, True):
                tasks += _dds_tasks(rng, fx, out, f"dds{i}_{j}_{int(stochastic)}", shape, stochastic)
        oc = out / "cofo"
        for j, (pts, hyps, budget) in enumerate(cofo_shapes):
            problem = gen.cofo_problem(rng, pts, hyps)
            path = _write(fx / f"cofo{i}_{j}.json", problem)
            tasks.append(cli_task("cofo", ["cofo", "run", "--fixture", path, "--budget", str(budget),
                                           "--out", str(oc)], lambda: _check_cofo(oc)))
        ov = out / "relalg"
        for cmd, n, first in suites:
            first = rng.randrange(10**6) if first is None else first
            tasks.append(cli_task(
                "relalg_" + cmd.replace("-", "_"),
                ["relalg", cmd, "--instances", str(n), "--seed", str(first),
                 "--out", str(ov)], lambda n=n: _check_verify(ov, n)))
        ok = out / "cluster"
        for j, (n_points, k) in enumerate(cluster_points):
            pts = gen.points(rng, n_points, k)
            ppath = _write(fx / f"points{i}_{j}.json", pts)
            qualities = {}
            for executor in ("greedy", "dp"):
                tasks.append(cli_task(
                    "cluster_" + executor,
                    ["cog", "cluster", "--fixture", ppath, "--executor", executor, "--out", str(ok)],
                    lambda e=executor, p=pts, q=qualities: _check_cluster(ok, p, q, e)))
        oe = out / "evolve"
        for budget in evolve_budgets:
            tasks.append(cli_task("evolve", ["cog", "evolve", "--budget", str(budget),
                                             "--seed", str(rng.randrange(1000)), "--out", str(oe)],
                                  lambda b=budget: _check_evolve(oe, b)))
        osp = out / "subpattern"
        for r in range(subpattern_sets):
            audits = (gen.subpattern_strings(rng, AUDIT_ITEMS),
                      gen.subpattern_blocks(rng, 4, AUDIT_ITEMS))
            dags = (gen.subpattern_doubling(rng, DAG_ROOTS),
                    gen.subpattern_blocks(rng, 5, DAG_BLOCKS))
            for j, (audit, dag) in enumerate(zip(audits, dags)):
                apath = _write(fx / f"audit{i}_{r}_{j}.json", audit)
                tasks.append(cli_task("subpattern_audit",
                                      ["subpattern", "audit", "--fixture", apath, "--out", str(osp)],
                                      lambda a=audit: _check_audit(osp, len(a["items"]))))
                dpath = _write(fx / f"dag{i}_{r}_{j}.json", dag)
                tasks.append(cli_task("subpattern_dag",
                                      ["subpattern", "dag", "--fixture", dpath, "--out", str(osp)],
                                      lambda d=dag: _check_dag(osp, d)))
            tasks.append(cli_task("subpattern_align", ["subpattern", "align", "--out", str(osp)],
                                  lambda: _check_align(osp)))
        return tasks

    warmup = block(0, ((2, 5, 2),), ((4, 3, 2),), (("verify-greedy", 5, None), ("verify-dp", 5, None)),
                   ((4, 2),), (50,), 1)
    blocks = [block(i + 1, DDS_SHAPES, COFO_SHAPES, VERIFY_SUITES, CLUSTER_POINTS, EVOLVE_BUDGETS,
                    SUBPATTERN_SETS) for i in range(8)]
    return Workload(blocks, warmup)


WORKLOADS = {"reason": reason, "graph": graph, "plan": plan}
