"""What the traced run wraps in each cogpat layer, and the per-layer
metrics it derives from the spans and counts.

Span names are "<layer>.<operation>".  A `_s` metric is self time: span
duration minus the time of the wrapped spans it called.  A `_calls` metric
counts spans.  Other counts come from the wrapped calls' arguments and
results.
"""

from __future__ import annotations

import importlib

from cogpat import cli, cofo, dds, fixtures, metagraph, morphisms, relalg, subpattern
from cogpat.cogkit import chain, cluster, ecan, mine, pln

from tracing import Tracer, install

# The package attribute `cogpat.cogkit.evolve` is the function, not the module.
evolve = importlib.import_module("cogpat.cogkit.evolve")

# A suspendable run's steps are charged to the scheme that made the run.
RUN_SPAN = {
    "fold": "morphisms.fold",
    "histo": "morphisms.histo_fold",
    "futu": "morphisms.futu_unfold",
    "unfold": "morphisms.futu_unfold",
    "chrono": "morphisms.chrono",
}
MORPH_SPANS = sorted(set(RUN_SPAN.values()))
DP_SPANS = ("dds.exact_dp", "dds.chrono_solve", "dds.stochastic_dp")


def _run_span(run, *rest):
    return RUN_SPAN[run.kind]


def _run_done(tr, args, result):
    run = args[0]
    tr.count("morphisms.frames", run.frames_done)
    tr.count("morphisms.memo_hits", run.memo_hits)


def _cells(tr, args, vf):
    tr.count("dds.cells", len(vf.table))


def _chrono_cells(tr, args, vf):
    _cells(tr, args, vf)
    tr.count("dds.chrono_memo_hits", vf.memo_hits)


_dataset_key = cofo.dataset_key


def _promising(tr, args, result):
    tr.distinct_in_task("cofo.promising_set_distinct", _dataset_key(args[1]))


def _mined(tr, args, result):
    tr.count("cogkit.mine_kept", len(result))


def _evolved(tr, args, result):
    tr.count("cogkit.evolve_evals", result.evaluations)


def _artifact(tr, args, path):
    tr.count("cli.artifact_bytes", path.stat().st_size)


def _verified(tr, args, report):
    tr.count("relalg.instances_generated")
    if report.preconditions_hold:
        tr.count("relalg.instances_satisfied")


def _count_as(name):
    return lambda tr, args, result: tr.count(name)


def targets() -> list:
    """(owner, attribute, span name, after hook, is a span) per wrapper."""
    mg_cls, base = metagraph.TypedMetagraph, metagraph._MgBase
    span, count = True, False
    out = [
        # metagraph
        (fixtures, "load_metagraph", "metagraph.load", None, span),
        (mg_cls, "from_dict", "metagraph.load", _count_as("metagraph.loads"), span),
        (mg_cls, "from_json", "metagraph.load", None, span),
        (mg_cls, "add_atom", None, _count_as("metagraph.add_atom"), count),
        (mg_cls, "snapshot", None, _count_as("metagraph.snapshot"), count),
        (mg_cls, "clone", "metagraph.clone", None, span),
        (base, "edges", "metagraph.edges", None, span),
        (base, "incoming", "metagraph.incoming", None, span),
        (base, "neighbors", "metagraph.neighbors", None, span),
        (metagraph, "canonical_form", "metagraph.canonical_form", None, span),
        (metagraph, "submetagraph", "metagraph.submetagraph", None, span),
        (metagraph, "join", "metagraph.join", None, span),
        # morphisms
        (morphisms, "fold", "morphisms.fold", None, span),
        (morphisms, "fold_run", "morphisms.fold", None, span),
        (morphisms, "histo_fold", "morphisms.histo_fold", None, span),
        (morphisms, "histo_fold_run", "morphisms.histo_fold", None, span),
        (morphisms, "futu_unfold", "morphisms.futu_unfold", None, span),
        (morphisms, "futu_unfold_run", "morphisms.futu_unfold", None, span),
        (morphisms, "unfold", "morphisms.futu_unfold", None, span),
        (morphisms, "unfold_run", "morphisms.futu_unfold", None, span),
        (morphisms, "chrono", "morphisms.chrono", None, span),
        (morphisms, "chrono_run", "morphisms.chrono", None, span),
        (morphisms, "run_steps", _run_span, None, span),
        (morphisms, "complete", _run_span, _run_done, span),
        # dds
        (dds, "exact_dp", "dds.exact_dp", _cells, span),
        (dds, "chrono_solve", "dds.chrono_solve", _chrono_cells, span),
        (dds, "stochastic_dp", "dds.stochastic_dp", _cells, span),
        (dds, "greedy_run", "dds.greedy_run", None, span),
        (dds, "evaluate_policy", "dds.evaluate_policy", None, span),
        # cofo
        (cofo, "make_cofo_dds", "cofo.make_cofo_dds", None, span),
        (cofo, "promising_set", "cofo.promising_set", _promising, span),
        (cofo, "top_set", "cofo.top_set", None, span),
        (cofo, "info_gain", "cofo.info_gain", None, span),
        # relalg
        (relalg, "compose", "relalg.compose", None, span),
        (relalg.FunctorSpec, "lift", "relalg.lift", None, span),
        (relalg, "rel_fold", "relalg.rel_fold", None, span),
        (relalg, "lfp_dp", "relalg.lfp_dp", None, span),
        (relalg, "verify_greedy_theorem", "relalg.verify_greedy", _verified, span),
        (relalg, "verify_dp_theorem", "relalg.verify_dp", _verified, span),
        # cogkit
        (pln, "cwig", "cogkit.cwig", None, span),
        (chain, "forward_chain", "cogkit.forward_chain", None, span),
        (chain, "backward_chain_tv", "cogkit.backward_chain", None, span),
        (mine, "pattern_frequency", "cogkit.pattern_frequency", None, span),
        (mine, "pattern_surprisingness", "cogkit.pattern_surprisingness", None, span),
        (mine, "mine_patterns", "cogkit.mine_patterns", _mined, span),
        (ecan, "ecan_run", "cogkit.ecan", None, span),
        (cluster, "agglomerate", "cogkit.agglomerate", None, span),
        (evolve, "evolve", "cogkit.evolve", _evolved, span),
        # subpattern
        (subpattern, "check_mutual_associativity", "subpattern.audit", None, span),
        (subpattern, "build_subpattern_dag", "subpattern.dag", None, span),
        (subpattern, "alignment_score", "subpattern.align", None, span),
        # cli
        (cli, "main", "cli.main", None, span),
        (fixtures, "load_dds", "cli.fixture_load", None, span),
        (fixtures, "load_cofo", "cli.fixture_load", None, span),
        (fixtures, "load_rules", "cli.fixture_load", None, span),
        (fixtures, "load_points", "cli.fixture_load", None, span),
        (fixtures, "load_subpattern", "cli.fixture_load", None, span),
        (cli, "_write_json", None, _artifact, count),
        (cli, "_write_text", None, _artifact, count),
    ]
    return out


def make_tracer() -> Tracer:
    tracer = Tracer()
    install(tracer, targets())
    return tracer


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer) -> dict:
    """Per-layer metric name -> (value, unit)."""
    s, c, n = tr.self_s, tr.calls, tr.counts
    morph_s = sum(s[k] for k in MORPH_SPANS)
    dp_s = sum(s[k] for k in DP_SPANS)
    evolve_s = s["cogkit.evolve"]
    return {
        "metagraph.load_s": (s["metagraph.load"], "s"),
        "metagraph.load_calls": (n["metagraph.loads"], "count"),
        "metagraph.add_atom_calls": (n["metagraph.add_atom"], "count"),
        "metagraph.snapshot_calls": (n["metagraph.snapshot"], "count"),
        "metagraph.edges_s": (s["metagraph.edges"], "s"),
        "metagraph.edges_calls": (c["metagraph.edges"], "count"),
        "metagraph.incoming_s": (s["metagraph.incoming"], "s"),
        "metagraph.neighbors_s": (s["metagraph.neighbors"], "s"),
        "metagraph.canonical_form_s": (s["metagraph.canonical_form"], "s"),
        "metagraph.submetagraph_s": (s["metagraph.submetagraph"], "s"),
        "metagraph.join_s": (s["metagraph.join"], "s"),
        "morphisms.fold_s": (s["morphisms.fold"], "s"),
        "morphisms.histo_fold_s": (s["morphisms.histo_fold"], "s"),
        "morphisms.futu_unfold_s": (s["morphisms.futu_unfold"], "s"),
        "morphisms.chrono_s": (s["morphisms.chrono"], "s"),
        "morphisms.frames": (n["morphisms.frames"], "count"),
        "morphisms.frames_per_s": (_ratio(n["morphisms.frames"], morph_s), "1/s"),
        "morphisms.memo_hit_ratio": (_ratio(n["morphisms.memo_hits"], n["morphisms.frames"]), "ratio"),
        "dds.exact_dp_s": (s["dds.exact_dp"], "s"),
        "dds.chrono_solve_s": (s["dds.chrono_solve"], "s"),
        "dds.stochastic_dp_s": (s["dds.stochastic_dp"], "s"),
        "dds.greedy_run_s": (s["dds.greedy_run"], "s"),
        "dds.evaluate_policy_s": (s["dds.evaluate_policy"], "s"),
        "dds.cells": (n["dds.cells"], "count"),
        "dds.cells_per_s": (_ratio(n["dds.cells"], dp_s), "1/s"),
        "dds.chrono_memo_hits": (n["dds.chrono_memo_hits"], "count"),
        "cofo.make_cofo_dds_s": (s["cofo.make_cofo_dds"], "s"),
        "cofo.promising_set_calls": (c["cofo.promising_set"], "count"),
        "cofo.promising_set_s": (s["cofo.promising_set"], "s"),
        "cofo.promising_set_unique_ratio": (
            _ratio(n["cofo.promising_set_distinct"], c["cofo.promising_set"]), "ratio"),
        "cofo.top_set_calls": (c["cofo.top_set"], "count"),
        "cofo.top_set_s": (s["cofo.top_set"], "s"),
        "cofo.info_gain_calls": (c["cofo.info_gain"], "count"),
        "cofo.info_gain_s": (s["cofo.info_gain"], "s"),
        "relalg.compose_calls": (c["relalg.compose"], "count"),
        "relalg.compose_s": (s["relalg.compose"], "s"),
        "relalg.lift_s": (s["relalg.lift"], "s"),
        "relalg.rel_fold_s": (s["relalg.rel_fold"], "s"),
        "relalg.lfp_dp_s": (s["relalg.lfp_dp"], "s"),
        "relalg.verify_greedy_s": (s["relalg.verify_greedy"], "s"),
        "relalg.verify_dp_s": (s["relalg.verify_dp"], "s"),
        "relalg.instance_yield": (
            _ratio(n["relalg.instances_satisfied"], n["relalg.instances_generated"]), "ratio"),
        "cogkit.cwig_calls": (c["cogkit.cwig"], "count"),
        "cogkit.cwig_s": (s["cogkit.cwig"], "s"),
        "cogkit.forward_chain_s": (s["cogkit.forward_chain"], "s"),
        "cogkit.backward_chain_s": (s["cogkit.backward_chain"], "s"),
        "cogkit.pattern_frequency_calls": (c["cogkit.pattern_frequency"], "count"),
        "cogkit.pattern_frequency_s": (s["cogkit.pattern_frequency"], "s"),
        "cogkit.mine_kept_ratio": (
            _ratio(n["cogkit.mine_kept"], c["cogkit.pattern_surprisingness"]), "ratio"),
        "cogkit.ecan_s": (s["cogkit.ecan"], "s"),
        "cogkit.agglomerate_s": (s["cogkit.agglomerate"], "s"),
        "cogkit.evolve_s": (evolve_s, "s"),
        "cogkit.evolve_evals_per_s": (_ratio(n["cogkit.evolve_evals"], evolve_s), "1/s"),
        "subpattern.audit_s": (s["subpattern.audit"], "s"),
        "subpattern.dag_s": (s["subpattern.dag"], "s"),
        "subpattern.align_s": (s["subpattern.align"], "s"),
        "cli.main_s": (s["cli.main"], "s"),
        "cli.fixture_load_s": (s["cli.fixture_load"], "s"),
        "cli.artifact_bytes": (n["cli.artifact_bytes"], "B"),
    }


# Layers each workload must bypass: (metric, workloads on which it may be > 0).
BYPASS = (
    ("cogkit.cwig_calls", ("reason",)),
    ("cogkit.pattern_frequency_calls", ("graph",)),
    ("cofo.promising_set_calls", ("plan",)),
    ("relalg.compose_calls", ("plan",)),
)
