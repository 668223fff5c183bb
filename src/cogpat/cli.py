"""Command-line interface: fixture-driven runs of every solver and
verification suite, with deterministic JSON/CSV artifacts.

Exit codes: 0 success, 1 a verification check failed, 2 usage or fixture
error.  The seed defaults to 42.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import dds as ddsmod
from .cofo import CofoError, make_cofo_dds, quality, two_hypothesis_problem
from .cogkit import (
    agglomerate,
    backward_chain_tv,
    conj,
    ecan_run,
    evolve,
    forward_chain,
    merge_process,
    mine_patterns,
    one_max,
    point_mutation,
    uniform_crossover,
)
from .cogkit.chain import deduction_rule
from .fixtures import (
    SIGMA_MEASURES,
    FixtureError,
    load_cofo,
    load_dds,
    load_kb,
    load_metagraph,
    load_points,
    load_rules,
    load_subpattern,
)
from .metagraph import TypedMetagraph
from .morphisms import Algebra, fold, fold_run, histo_fold, run_steps, complete
from .relalg import (
    random_dp_instance,
    random_greedy_instance,
    verify_dp_theorem,
    verify_greedy_theorem,
)
from .subpattern import (
    alignment_score,
    build_subpattern_dag,
    check_mutual_associativity,
    disjoint_union,
)

class CheckFailure(Exception):
    """A verification suite reported violations; exit code 1."""


def _write_text(args, name: str, text: str) -> Path:
    """Write `text` to `name` under `--out`, made if missing; returns the
    written path.  An `--out` that cannot hold the file is a usage error."""
    path = Path(args.out, name)
    try:
        try:
            f = open(path, "w")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            f = open(path, "w")
        with f:
            f.write(text)
    except OSError as exc:
        raise FixtureError(f"--out {args.out}: cannot write {name} ({exc})") from exc
    return path


def _write_json(args, name: str, obj) -> Path:
    return _write_text(args, name, json.dumps(obj, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# dds


def _value_function(problem, executor: str, seed: int, rollouts: int):
    """The value function that `executor` (sdp, chrono or dp) computes."""
    if executor == "sdp":
        return ddsmod.stochastic_dp(problem, rollouts=rollouts, seed=seed)
    if executor == "chrono":
        return ddsmod.chrono_solve(problem)
    return ddsmod.exact_dp(problem)


def cmd_dds_solve(args) -> int:
    problem = load_dds(args.fixture) if args.fixture else ddsmod.gd1()
    s0 = problem.states(1)[0]
    if args.executor == "greedy":
        traj = ddsmod.greedy_run(problem, s0, seed=args.seed)
        _write_json(args, "solve.json", {
            "executor": "greedy", "total": traj.total,
            "steps": [[repr(s), repr(x), r] for s, x, r in traj.steps],
        })
        return 0
    vf = _value_function(problem, args.executor, args.seed, rollouts=200)
    _write_text(args, "value_function.csv", vf.to_csv())
    _write_json(args, "solve.json", {
        "executor": args.executor,
        "value": vf.value(1, problem.state_key(s0)),
        "best_action": repr(vf.best_action(1, problem.state_key(s0))),
    })
    return 0


def cmd_dds_compare(args) -> int:
    problem = load_dds(args.fixture) if args.fixture else ddsmod.gd1()
    s0 = problem.states(1)[0]
    greedy_total = ddsmod.greedy_run(problem, s0, seed=args.seed).total
    exact_value = ddsmod.exact_dp(problem).value(1, problem.state_key(s0))
    rows = [("greedy", greedy_total), ("exact", exact_value)]
    _write_text(args, "compare.csv", "method,value\n" + "".join(
        f"{m},{v}\n" for m, v in rows
    ))
    return 0


# ---------------------------------------------------------------------------
# cofo


def cmd_cofo_run(args) -> int:
    problem = load_cofo(args.fixture) if args.fixture else two_hypothesis_problem()
    adapter = make_cofo_dds(problem, args.budget)
    d0 = ()
    if args.executor == "greedy":
        value = ddsmod.greedy_run(adapter, d0, seed=args.seed).total
    else:
        vf = _value_function(adapter, args.executor, args.seed, rollouts=100)
        value = vf.value(1, adapter.state_key(d0))
    _write_json(args, "cofo_run.json", {
        "executor": args.executor,
        "horizon": args.budget,
        "starting_quality": quality(problem, d0),
        "achievable_entropy_drop": value,
    })
    return 0


# ---------------------------------------------------------------------------
# relalg


def _verify_suite(args, make_instance, verify) -> int:
    seed0, want = args.seed, args.instances
    satisfied = 0
    violations = []
    skipped = 0
    reports = []
    for offset in range(want * 20):
        instance = make_instance(seed0 + offset)
        report = verify(*instance)
        if not report.preconditions_hold:
            skipped += 1
            continue
        satisfied += 1
        if report.violated:
            violations.append(seed0 + offset)
        if len(reports) < 5:
            reports.append(report.to_dict())
        if satisfied >= want:
            break
    result = {
        "requested": want,
        "satisfied": satisfied,
        "skipped": skipped,
        "violating_seeds": violations,
        "sample_reports": reports,
    }
    _write_json(args, "verify.json", result)
    if violations or satisfied < want:
        raise CheckFailure(
            f"{len(violations)} violations over {satisfied}/{want} instances"
        )
    return 0


def cmd_relalg_verify_greedy(args) -> int:
    return _verify_suite(
        args, random_greedy_instance,
        lambda carriers, f, s, r: verify_greedy_theorem(s, r, f, carriers),
    )


def cmd_relalg_verify_dp(args) -> int:
    return _verify_suite(
        args, random_dp_instance,
        lambda carriers, f, s, t, r: verify_dp_theorem(s, t, r, f, carriers),
    )


# ---------------------------------------------------------------------------
# cog


def cmd_cog_chain(args) -> int:
    kb = load_kb(args.fixture)
    rules = load_rules(args.rules) if args.rules else [deduction_rule()]
    try:
        res = forward_chain(kb, rules, args.budget, executor=args.executor)
    except ValueError as exc:  # the kb holds no statements
        raise FixtureError(f"{args.fixture}: {exc}") from exc
    _write_json(args, "chain.json", {
        "statements": {f"{a}->{b}": tv.to_dict() for (a, b), tv in sorted(res.statements.items())},
        "trace": [
            {"premises": [f"{a}->{b}" for a, b in premises], "rule": rname,
             "conclusion": f"{c[0]}->{c[1]}", "reward": reward}
            for premises, rname, c, reward in res.trace
        ],
        "stalled": res.stalled,
    })
    return 0


def cmd_cog_backchain(args) -> int:
    kb = load_kb(args.fixture)
    src, _, dst = args.target.partition(",")
    if not src or not dst:
        raise FixtureError(f"--target must look like SRC,DST, got {args.target!r}")
    tv, nodes = backward_chain_tv(kb, (src, dst), args.budget, seed=args.seed)
    _write_json(args, "backchain.json", {
        "target": f"{src}->{dst}",
        "tv": tv.to_dict(),
        "expansions": sum(1 for n in nodes if n.children),
        "nodes": [
            {"id": n.id, "statement": f"{n.statement[0]}->{n.statement[1]}",
             "rule": n.rule, "tv": n.tv.to_dict(),
             "children": list(n.children), "leaf_kind": n.leaf_kind}
            for n in nodes
        ],
    })
    return 0


def _distance(points: dict):
    """Euclidean distance between two labels of `points`."""
    return lambda x, y: (
        (points[x][0] - points[y][0]) ** 2 + (points[x][1] - points[y][1]) ** 2
    ) ** 0.5


def cmd_cog_cluster(args) -> int:
    points, k = load_points(args.fixture)
    try:
        clustering = agglomerate(list(points), _distance(points), k, args.executor)
    except OverflowError as exc:  # a squared coordinate gap beyond the float range
        raise FixtureError(f"{args.fixture}: point distance out of range ({exc})") from exc
    _write_json(args, "clusters.json", {
        "blocks": sorted(sorted(b) for b in clustering.blocks),
        "quality": clustering.quality,
        "logical_entropy": clustering.logical_entropy,
    })
    return 0


def cmd_cog_mine(args) -> int:
    kb = load_metagraph(args.fixture)
    if not 0 <= args.min_freq <= 1:  # also rejects nan
        raise FixtureError(f"--min-freq must be between 0 and 1, got {args.min_freq}")
    view = kb.snapshot()
    types = sorted({e.type_label for e in view.edges() if len(e.targets) == 2})
    seeds = [conj((t, ("X", "Y"))) for t in types]
    mined = mine_patterns(view, seeds, min_freq=args.min_freq, budget=args.budget)
    _write_json(args, "mined.json", [
        {"kind": m.pattern.kind,
         "clauses": [[t, list(vs)] for t, vs in m.pattern.sorted_clauses],
         "frequency": m.frequency,
         "surprisingness": m.surprisingness}
        for m in mined
    ])
    return 0


def cmd_cog_evolve(args) -> int:
    import random as _random

    rng = _random.Random(args.seed)
    pop0 = [tuple(rng.randint(0, 1) for _ in range(8)) for _ in range(20)]
    res = evolve(one_max, pop0, budget=args.budget, seed=args.seed,
                 mutate=point_mutation(1 / 8), crossover=uniform_crossover)
    _write_json(args, "evolve.json", {
        "best": list(res.best),
        "best_fitness": res.best_fitness,
        "evaluations": res.evaluations,
    })
    return 0


def cmd_cog_ecan(args) -> int:
    kb = load_metagraph(args.fixture)
    if not 0 < args.quantum < math.inf:  # also rejects nan
        raise FixtureError(f"--quantum must be finite and > 0, got {args.quantum}")
    res = ecan_run(kb.snapshot(), q=args.quantum, steps=args.budget, seed=args.seed)
    _write_json(args, "ecan.json", {
        "sti": {str(i): v for i, v in sorted(res.sti.items())},
        "transfers": len(res.transfers),
        "skipped": res.skipped,
    })
    return 0


# ---------------------------------------------------------------------------
# subpattern


def cmd_subpattern_audit(args) -> int:
    items, ops, _sm = load_subpattern(args.fixture)
    report = check_mutual_associativity(ops, items, seed=args.seed)
    _write_json(args, "audit.json", report.to_dict())
    if not report.passed:
        raise CheckFailure(f"mutual associativity fails, witness {report.witness!r}")
    return 0


def cmd_subpattern_dag(args) -> int:
    items, ops, sm = load_subpattern(args.fixture)
    if not isinstance(items[0], (str, tuple)):  # the items are all of one kind
        raise FixtureError(f"{args.fixture}: simplicity measures take strings or lists, not numbers")
    dag = build_subpattern_dag(items, ops, sm)
    dag.check(ops, sm)
    _write_json(args, "dag.json", dag.to_dict())
    return 0


def _five_item_alignment():
    """Greedy two-group agglomeration of five planar points, aligned against
    the union-merge subpattern dag over the blocks it visits."""
    points = {0: (0.0, 0.0), 1: (0.0, 1.0), 2: (10.0, 0.0), 3: (10.0, 1.0), 4: (10.0, 2.0)}
    merges, _ = ddsmod.greedy(horizon=len(points) - 2,
                              **merge_process(sorted(points), _distance(points)))
    trace = [(a | b, x) for a, b in merges for x in (a, b)]
    items = sorted({v for edge in trace for v in edge}, key=sorted)
    sm = SIGMA_MEASURES["size-squared"](1.0)
    dag = build_subpattern_dag(items, {"merge": disjoint_union}, sm)
    mapping = {v: v for v in items}
    return trace, dag, mapping


def cmd_subpattern_align(args) -> int:
    trace, dag, mapping = _five_item_alignment()
    score = alignment_score(trace, dag, mapping)
    _write_json(args, "align.json", {
        "score": score,
        "trace_edges": [[sorted(p), sorted(c)] for p, c in trace],
        "dag_edges": [[sorted(x), sorted(y)] for x, y, _ in dag.edges],
    })
    return 0


# ---------------------------------------------------------------------------
# morph


def cmd_morph_demo(args) -> int:
    mg = TypedMetagraph()
    x = mg.add_node("X")
    y = mg.add_node("Y")
    e1 = mg.add_edge("pair", [x, y])
    e2 = mg.add_edge("pair", [x, y])
    mg.add_edge("top", [e1, e2])
    view = mg.snapshot()
    count = Algebra(unit=0, combine=lambda acc, ctx: acc + 1,
                    merge=lambda a, b: a + b, declared_associative=True)
    total = fold(view, count)
    _value, hits = histo_fold(view, count)
    run = fold_run(view, count)
    run_steps(run, 2)
    resumed = complete(run)
    _write_json(args, "morph.json", {
        "atom_count": total,
        "histo_memo_hits": hits,
        "suspended_resume_matches": resumed == total,
    })
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return count


# argparse reads a value such as "-inf", "-nan" or "-1e5" after a flag as a
# flag of its own, so a single-dash token after a flag that takes a value is
# attached as "--flag=value" and reaches the flag's type and range check.
# No flag may be abbreviated, so a prefix such as "--min" is reported as an
# unknown flag, together with its value.


def _attach_values(argv: list) -> list:
    out, takes_value = [], _value_flags()
    for token in argv:
        if out and out[-1] in takes_value and token[:1] == "-" and token[1:2] != "-":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _value_flags() -> frozenset:
    """Every flag, across the commands, that takes a value."""
    return frozenset(flag for leaf in _command_parsers().values() for action in leaf._actions
                     if action.nargs is None for flag in action.option_strings)


def _subcommands(parser) -> dict:
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


@functools.cache
def _command_parsers() -> dict:
    """(group, command) -> that command's own parser, from `_build_parser`."""
    return {(g, c): leaf for g, gp in _subcommands(_build_parser()).items()
            for c, leaf in _subcommands(gp).items()}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole CLI contract: each command takes `--out` and exactly the
    flags its handler reads, with their defaults and valid ranges."""
    fixture = ("--fixture", {"help": "path to a JSON fixture"})
    needs_fixture = ("--fixture", {"required": True, "help": "path to a JSON fixture"})
    seed = ("--seed", {"type": int, "default": 42})
    instances = ("--instances", {"type": _at_least(1), "default": 100})

    def budget(default):
        return ("--budget", {"type": _at_least(0), "default": default})

    def executor(*names):
        return ("--executor", {"choices": names, "default": "dp"})

    any_executor, greedy_or_dp = executor("greedy", "dp", "sdp", "chrono"), executor("greedy", "dp")

    parser = argparse.ArgumentParser(prog="cogpat", allow_abbrev=False)
    top = parser.add_subparsers(dest="group", required=True)

    def group(name):
        return top.add_parser(name, allow_abbrev=False).add_subparsers(dest="cmd", required=True)

    def leaf(sub, name, handler, *flags):
        p = sub.add_parser(name, allow_abbrev=False)
        for flag, kw in (("--out", {"default": "out", "help": "artifact directory"}), *flags):
            p.add_argument(flag, **kw)
        p.set_defaults(handler=handler)

    dds = group("dds")
    leaf(dds, "solve", cmd_dds_solve, fixture, seed, any_executor)
    leaf(dds, "compare", cmd_dds_compare, fixture, seed)

    leaf(group("cofo"), "run", cmd_cofo_run, fixture, seed, budget(2), any_executor)

    relalg = group("relalg")
    leaf(relalg, "verify-greedy", cmd_relalg_verify_greedy, seed, instances)
    leaf(relalg, "verify-dp", cmd_relalg_verify_dp, seed, instances)

    cog = group("cog")
    leaf(cog, "chain", cmd_cog_chain, needs_fixture, budget(3), greedy_or_dp,
         ("--rules", {"help": "rule set fixture"}))
    leaf(cog, "backchain", cmd_cog_backchain, needs_fixture, seed, budget(5),
         ("--target", {"required": True, "help": "SRC,DST statement"}))
    leaf(cog, "cluster", cmd_cog_cluster, needs_fixture, greedy_or_dp)
    leaf(cog, "mine", cmd_cog_mine, needs_fixture, budget(5),
         ("--min-freq", {"type": float, "default": 0.05}))
    leaf(cog, "evolve", cmd_cog_evolve, seed, budget(2000))
    leaf(cog, "ecan", cmd_cog_ecan, needs_fixture, seed, budget(10),
         ("--quantum", {"type": float, "default": 1.0}))

    sp = group("subpattern")
    leaf(sp, "audit", cmd_subpattern_audit, needs_fixture, seed)
    leaf(sp, "dag", cmd_subpattern_dag, needs_fixture)
    leaf(sp, "align", cmd_subpattern_align)

    leaf(group("morph"), "demo", cmd_morph_demo)

    return parser


def _parse(argv: list) -> argparse.Namespace:
    """`_build_parser().parse_args(argv)`, parsed by the named command's own
    parser; argv that names no command (a bad one, or `--help`) goes to the
    full parser, for its messages."""
    argv = _attach_values(argv)
    leaf = _command_parsers().get(tuple(argv[:2]))
    if leaf is None:
        return _build_parser().parse_args(argv)
    return leaf.parse_args(argv[2:], argparse.Namespace(group=argv[0], cmd=argv[1]))


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.handler(args)
    except (FixtureError, CofoError, ddsmod.DdsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
