"""Every module-level public name in `cogpat` is referenced by another
`cogpat` module, or is listed below with the reason it stays.

A reference is an import of the name from its module (directly, or through
a package `__init__` that re-exports it) or an attribute read on an
imported module.  A package `__init__`'s own re-exports are not
references: they only pass names on.  A name that only tests reach, with no
reason of its own to stay, goes with its tests.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "cogpat"


def _names(reason, *names):
    return dict.fromkeys(names, reason)


ALLOWED = {
    **_names("CLI handler: cli's parser dispatches to it",
             "cli.cmd_cofo_run", "cli.cmd_cog_backchain", "cli.cmd_cog_chain",
             "cli.cmd_cog_cluster", "cli.cmd_cog_ecan", "cli.cmd_cog_evolve", "cli.cmd_cog_mine",
             "cli.cmd_dds_compare", "cli.cmd_dds_solve", "cli.cmd_morph_demo",
             "cli.cmd_relalg_verify_dp", "cli.cmd_relalg_verify_greedy",
             "cli.cmd_subpattern_align", "cli.cmd_subpattern_audit", "cli.cmd_subpattern_dag"),
    **_names("console entry point `cogpat` in pyproject.toml", "cli.main"),
    **_names("error class its module raises to callers",
             "cli.CheckFailure", "cofo.InconsistencyError", "cogkit.pln.PlnError",
             "dds.DeadEndError", "dds.PolicyGapError", "dds.TransitionError",
             "metagraph.BindingError", "metagraph.CanonicalizationError",
             "metagraph.MgIntegrityError", "metagraph.MgTypeError", "morphisms.UnfoldError",
             "relalg.CarrierMismatchError", "relalg.RelAlgError"),
    **_names("type of a value its module's functions take or return",
             "cofo.Dataset", "cofo.InfoGain", "cofo.PromisingSet",
             "cogkit.chain.BidNode", "cogkit.chain.ChainResult",
             "cogkit.chain.StepSet", "cogkit.cluster.Clustering", "cogkit.ecan.EcanResult",
             "cogkit.evolve.EvolveResult", "cogkit.mine.Clause", "cogkit.mine.MinedPattern",
             "cogkit.mine.Pattern", "dds.Cell", "dds.Trajectory", "dds.ValueFunction",
             "metagraph.DanglingSlot", "morphisms.Coalgebra", "morphisms.Ctx",
             "morphisms.Expansion", "morphisms.MorphRun", "relalg.Carriers", "relalg.DpReport",
             "relalg.FinRel", "relalg.FunctorSpec", "relalg.GreedyReport", "relalg.LfpResult",
             "subpattern.AuditReport", "subpattern.PairAudit", "subpattern.SubpatternDag"),
    **_names("constant its module's own code reads",
             "cogkit.chain.PASS", "dds.GD1_TABLES", "dds.NEG_INF", "metagraph.EDGE",
             "metagraph.NODE", "relalg.MU", "relalg.X_SLOT"),
    **_names("registry that fixture files name entries of",
             "fixtures.COMBINATORS", "fixtures.RULE_FORMULAS", "fixtures.SUBPATTERN_OPS"),
    **_names("called inside its own module",
             "cofo.dataset_key", "cofo.extend_dataset", "cofo.promising_set", "cofo.top_set",
             "cogkit.cluster.logical_entropy", "cogkit.cluster.partition_quality",
             "cogkit.mine.clause_frequency", "cogkit.mine.pattern_frequency", "fixtures.load_json",
             "morphisms.chrono_run", "morphisms.futu_unfold", "morphisms.futu_unfold_run",
             "morphisms.histo_fold_run", "morphisms.order_atoms",
             "relalg.compose", "relalg.converse", "relalg.dp_spec_relation", "relalg.empty",
             "relalg.fname", "relalg.identity", "relalg.is_transitive", "relalg.lfp_dp",
             "relalg.list_functor", "relalg.monotone_check", "relalg.random_functional",
             "relalg.random_preorder", "relalg.random_relation",
             "relalg.register_functor_carriers", "relalg.rel_fold", "relalg.sandwich_monotone",
             "relalg.shrink", "relalg.subset", "relalg.transitive_closure", "relalg.union"),
    **_names("library API that perfbench's workloads call or trace, and tests check",
             "cofo.info_gain", "cogkit.mine.pattern_surprisingness", "dds.evaluate_policy",
             "dds.policy_from", "metagraph.canonical_form", "metagraph.join",
             "metagraph.submetagraph", "morphisms.chrono"),
    **_names("alias of futu_unfold(_run) that perfbench traces; D16 drops it with D1",
             "morphisms.unfold", "morphisms.unfold_run"),
    **_names("test oracle: problem generator for the dds and relalg suites",
             "dds.gd1_noisy", "dds.random_problem", "relalg.sum_fixture"),
    **_names("greedy-theorem precondition: the theorem property's oracle, and what a "
             "greedy run's certificate will check (ROADMAP D9)",
             "dds.single_peak_audit"),
    **_names("relation-algebra primitive README lists; the residual Galois law property "
             "behind the theorem checks uses it",
             "relalg.full", "relalg.residual"),
}


def _modules() -> dict:
    """Dotted name (without the `cogpat.` prefix) -> (is a package, tree)."""
    out = {}
    for path in sorted(PKG.rglob("*.py")):
        parts = path.relative_to(PKG).with_suffix("").parts
        package = parts[-1] == "__init__"
        out[".".join(parts[:-1] if package else parts)] = (package, ast.parse(path.read_text()))
    return out


def _source(module: str, package: bool, node: ast.ImportFrom) -> str:
    """The module a relative `from ... import` in `module` reads."""
    base = module.split(".") if package else module.split(".")[:-1]
    base = base[:len(base) - node.level + 1] if node.level else []
    return ".".join(base + ([node.module] if node.module else []))


def _public_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _references(modules: dict) -> set:
    """(module, name) pairs that some module other than `module` reads."""
    reexports = {}
    for module, (package, tree) in modules.items():
        if package:
            for node in tree.body:
                if isinstance(node, ast.ImportFrom):
                    source = _source(module, package, node)
                    reexports.update(((module, a.asname or a.name), (source, a.name))
                                     for a in node.names)
    refs = set()
    for module, (package, tree) in modules.items():
        if package:
            continue
        aliases = {}  # local name -> the cogpat module it is bound to
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                source = _source(module, package, node)
                for a in node.names:
                    qualified = f"{source}.{a.name}" if source else a.name
                    if qualified in modules:
                        aliases[a.asname or a.name] = qualified
                    read.add(reexports.get((source, a.name), (source, a.name)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                read.add((aliases[node.value.id], node.attr))
        refs.update((m, name) for m, name in read if m != module)
    return refs


def _unreferenced() -> set:
    modules = _modules()
    refs = _references(modules)
    return {f"{module}.{name}"
            for module, (package, tree) in modules.items() if not package
            for name in _public_names(tree) if (module, name) not in refs}


def test_every_public_name_is_referenced_or_allowed():
    assert sorted(_unreferenced() - ALLOWED.keys()) == []


def test_allowlist_lists_only_unreferenced_names():
    """An entry goes once another module references its name, or the name goes."""
    assert sorted(ALLOWED.keys() - _unreferenced()) == []
