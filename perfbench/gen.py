"""Seeded input generators.

Every generator takes a `random.Random` and size parameters and returns a
JSON-ready dict in the layout one of the `cogpat.fixtures` loaders reads.
The benchmark writes these dicts to files during set-up and every task
reads them back through the repository's own loaders, so the program sees
only generated inputs.
"""

from __future__ import annotations

import random

# The README rule set (deduction plus inversion).
RULES = {
    "rules": [
        {"formula": "deduction", "name": "deduction", "reversible": False},
        {"formula": "inversion", "name": "inversion", "reversible": True},
    ]
}


def _tv(rng: random.Random, lo: float, hi: float) -> dict:
    return {"s": round(rng.uniform(lo, hi), 3), "c": round(rng.uniform(0.5, 0.95), 3)}


def implication_kb(rng: random.Random, concepts: int, implications: int) -> dict:
    """Concept nodes C0..C{n-1} (type label = concept, tv = prior) and
    distinct `implies` edges between random ordered pairs."""
    if implications > concepts * (concepts - 1):
        raise ValueError("more implications than ordered concept pairs")
    atoms = [
        {"id": i, "kind": "node", "type": f"C{i}", "tv": _tv(rng, 0.2, 0.8)}
        for i in range(concepts)
    ]
    pairs: set = set()
    while len(pairs) < implications:
        pairs.add(tuple(rng.sample(range(concepts), 2)))
    for j, (a, b) in enumerate(sorted(pairs)):
        atoms.append({"id": concepts + j, "kind": "edge", "type": "implies",
                      "targets": [a, b], "tv": _tv(rng, 0.3, 0.95)})
    return {"atoms": atoms}


def typed_kb(rng: random.Random, nodes: int, edges: int, types: int) -> dict:
    """Dense edge-typed kb: `nodes` person nodes with short-term importance
    and `edges` binary edges of `types` labels between distinct nodes."""
    atoms = [
        {"id": i, "kind": "node", "type": f"P{i}", "sti": float(rng.randint(0, 5))}
        for i in range(nodes)
    ]
    for j in range(edges):
        a, b = rng.sample(range(nodes), 2)
        atoms.append({"id": nodes + j, "kind": "edge", "type": f"t{rng.randrange(types)}",
                      "targets": [a, b]})
    return {"atoms": atoms}


def large_metagraph(rng: random.Random, atoms: int, edge_share: float, labels: int) -> dict:
    """A metagraph of `atoms` atoms, `edge_share` of them edges.

    `labels` type labels are drawn for nodes and for edges.  Few labels make
    many structurally identical sub-metagraphs; many labels make few.  Each
    edge has two or three targets; a fifth of the targets are earlier edges,
    the rest nodes.
    """
    n_nodes = max(2, int(atoms * (1.0 - edge_share)))
    out = [
        {"id": i, "kind": "node", "type": f"N{rng.randrange(labels)}"}
        for i in range(n_nodes)
    ]
    edge_ids: list[int] = []
    for i in range(n_nodes, atoms):
        targets = []
        for _ in range(rng.choice((2, 2, 3))):
            if edge_ids and rng.random() < 0.2:
                targets.append(rng.choice(edge_ids))
            else:
                targets.append(rng.randrange(n_nodes))
        out.append({"id": i, "kind": "edge", "type": f"E{rng.randrange(labels)}",
                    "targets": targets})
        edge_ids.append(i)
    return {"atoms": out}


def small_metagraph(rng: random.Random, atoms: int) -> dict:
    """An 8-12 atom metagraph for canonical_form: about half nodes over
    three labels, the rest binary edges over two labels."""
    n_nodes = atoms // 2 + rng.randint(0, 1)
    out = [
        {"id": i, "kind": "node", "type": f"N{rng.randrange(3)}"}
        for i in range(n_nodes)
    ]
    for i in range(n_nodes, atoms):
        a, b = rng.sample(range(i), 2)
        out.append({"id": i, "kind": "edge", "type": f"E{rng.randrange(2)}",
                    "targets": [a, b]})
    return {"atoms": out}


def dds_tables(rng: random.Random, stages: int, width: int, actions: int,
               stochastic: bool) -> dict:
    """`DdsProblem.from_tables` layout with stages x width x actions cells.

    Each action moves to one uniformly drawn state of the next stage; in a
    stochastic table half the actions instead spread over two or three
    states with random probabilities.
    """
    states = {t: [f"s{t}_{i}" for i in range(width)] for t in range(1, stages + 1)}
    table: dict = {}
    for t in range(1, stages + 1):
        per_state = {}
        for s in states[t]:
            acts = []
            for j in range(actions):
                act = {"name": f"a{j}", "reward": round(rng.uniform(-2.0, 5.0), 3)}
                if t < stages:
                    succ = states[t + 1]
                    if stochastic and rng.random() < 0.5:
                        chosen = rng.sample(succ, rng.randint(2, 3))
                        raw = [rng.random() + 0.05 for _ in chosen]
                        z = sum(raw)
                        act["next"] = {c: w / z for c, w in zip(chosen, raw)}
                    else:
                        act["next"] = {rng.choice(succ): 1.0}
                acts.append(act)
            per_state[s] = acts
        table[str(t)] = per_state
    return {
        "stages": stages,
        "alpha": 1.0,
        "states": {str(t): v for t, v in states.items()},
        "actions": table,
    }


def cofo_problem(rng: random.Random, points: int, hypotheses: int) -> dict:
    """`load_cofo` layout: integer points 1..n of equal weight, an objective
    that ranks them by a random permutation, and hypotheses of which the
    first is the objective and each other one agrees with it on a random
    half of the points (a random ranking elsewhere), so every dataset stays
    consistent with at least one.  Distinct values and equal weights make
    every top set the same size, which keeps the cost of a problem steady
    across seeds.  The top 30% of the mass is promising; datasets grow by
    the left and right projections."""
    xs = list(range(1, points + 1))

    def ranking() -> dict:
        values = [float(v) for v in range(points)]
        rng.shuffle(values)
        return dict(zip(xs, values))

    objective = ranking()
    hyps = [{"name": "h0", "prior": round(rng.uniform(0.5, 2.0), 3),
             "table": [[x, objective[x]] for x in xs]}]
    for i in range(1, hypotheses):
        agree, other = set(rng.sample(xs, points // 2)), ranking()
        hyps.append({"name": f"h{i}", "prior": round(rng.uniform(0.5, 2.0), 3),
                     "table": [[x, objective[x] if x in agree else other[x]] for x in xs]})
    return {
        "domain": [[x, 1.0] for x in xs],
        "objective": [[x, objective[x]] for x in xs],
        "hypotheses": hyps,
        "rho": 0.3,
        "combinators": ["left", "right"],
    }


def points(rng: random.Random, n: int, k: int) -> dict:
    """`load_points` layout: n labeled planar points around k centres."""
    centres = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(k)]
    pts = {}
    for i in range(n):
        cx, cy = centres[i % k]
        pts[f"p{i}"] = [round(cx + rng.gauss(0, 2), 3), round(cy + rng.gauss(0, 2), 3)]
    return {"points": pts, "k": k}


def subpattern_strings(rng: random.Random, items: int) -> dict:
    """`load_subpattern` layout: short strings over {a, b} under the two
    concatenation operators, with the length simplicity measure."""
    pool: set = set()
    while len(pool) < items:
        pool.add("".join(rng.choice("ab") for _ in range(rng.randint(1, 4))))
    return {"items": sorted(pool), "ops": ["concat", "plus"], "sigma": "length",
            "sigma_star": 1.0}


def subpattern_doubling(rng: random.Random, roots: int) -> dict:
    """Strings and their doublings plus the empty unit, under `double`."""
    pool = {""}
    while len(pool) < 1 + 3 * roots:
        base = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        pool.update((base, base + base, base * 4))
    return {"items": sorted(pool), "ops": ["double"], "sigma": "length",
            "sigma_star": 1.0}


def subpattern_blocks(rng: random.Random, universe: int, items: int) -> dict:
    """Integer blocks (all singletons plus random unions) under
    `union-merge`, with the size-squared simplicity measure."""
    pool = {(i,) for i in range(universe)}
    while len(pool) < items:
        pool.add(tuple(sorted(rng.sample(range(universe), rng.randint(2, universe)))))
    return {"items": [list(b) for b in sorted(pool)], "ops": ["union-merge"],
            "sigma": "size-squared", "sigma_star": 1.0}
