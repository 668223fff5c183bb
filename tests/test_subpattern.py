import itertools

import pytest

from cogpat.cogkit import Pattern, conj
from cogpat.cogkit.cluster import _merge, partition_quality
from cogpat.subpattern import (
    SimplicityMeasure,
    SubpatternDag,
    alignment_score,
    build_subpattern_dag,
    check_mutual_associativity,
    disjoint_union,
)


class TestMutualAssociativity:
    def test_single_plus_passes(self):
        report = check_mutual_associativity({"add": lambda a, b: a + b}, range(6))
        assert report.passed
        assert report.exhaustive
        assert report.pairs[0].checked == 6 ** 3

    def test_max_min_fails_with_witness(self):
        ops = {"max": max, "min": min}
        assert max(min(0, 5), 3) == 3
        assert min(0, max(5, 3)) == 0
        report = check_mutual_associativity(ops, [0, 3, 5])
        assert not report.passed
        x, y, z, left, right = report.witness
        assert left != right
        # the witness reproduces outside the auditor for one pair order
        assert (max(min(x, y), z) != min(x, max(y, z))
                or min(max(x, y), z) != max(x, min(y, z)))

    def test_disjoint_union_family_passes(self):
        blocks = [frozenset({0}), frozenset({1}), frozenset({2})]
        report = check_mutual_associativity({"merge": disjoint_union}, blocks)
        assert report.passed
        # overlapping intermediate results count as partial domain, not failure
        assert report.pairs[0].undefined > 0

    def test_pattern_combination_family_passes(self):
        domain = [
            conj(("a", ("X", "Y"))),
            conj(("b", ("Y", "Z"))),
            conj(("c", ("X", "Z"))),
            Pattern("disj", frozenset({("a", ("X", "Y"))})),
            Pattern("disj", frozenset({("b", ("X", "Y"))})),
        ]
        ops = {"and_or": lambda p, q: p.combine(q)}
        # Pattern is a frozen dataclass over a frozenset, so == is structural
        report = check_mutual_associativity(ops, domain)
        assert report.passed
        assert report.pairs[0].undefined > 0

    def test_sampled_agrees_with_exhaustive(self):
        # 9 elements forces sampling; verdicts must match the exhaustive run
        # on the 8-element subdomain
        wide = list(range(9))
        for ops in ({"add": lambda a, b: a + b}, {"max": max, "min": min}):
            sampled = check_mutual_associativity(ops, wide, trials=500, seed=1)
            exact = check_mutual_associativity(ops, wide[:8])
            assert not sampled.exhaustive and exact.exhaustive
            assert sampled.passed == exact.passed

    def test_trivial_validation(self):
        with pytest.raises(ValueError):
            check_mutual_associativity({"add": lambda a, b: a + b}, range(3), trials=0)
        with pytest.raises(ValueError):
            check_mutual_associativity({"add": lambda a, b: a + b}, [])

    def test_report_serializes(self):
        d = check_mutual_associativity({"max": max, "min": min}, [0, 3, 5]).to_dict()
        assert d["passed"] is False
        assert len(d["pairs"]) == 4


def doubling_ops():
    def double(y, z):
        if z != "":
            raise ValueError("second argument must be the unit")
        return y + y

    return {"double": double}


def length_measure():
    return SimplicityMeasure(sigma=len, sigma_star=lambda name, y, z: 1.0)


class TestSubpatternDag:
    def test_doubling_creates_edge(self):
        # "abab" decomposes as double("ab"): 2 + 0 + 1 = 3 < 4
        dag = build_subpattern_dag(["ab", "abab", ""], doubling_ops(), length_measure())
        assert ("abab", "ab", ("double", "")) in dag.edges
        assert dag.children("abab") == ["ab"]
        dag.check(doubling_ops(), length_measure())

    def test_concatenation_never_simplifies(self):
        ops = {"cat": lambda y, z: y + z}
        dag = build_subpattern_dag(["a", "b", "ab", "ba", "abab"], ops, length_measure())
        assert dag.edges == []

    def test_empty_items_empty_dag(self):
        dag = build_subpattern_dag([], doubling_ops(), length_measure())
        assert dag.vertices == [] and dag.edges == []

    def test_check_rejects_tampered_edge(self):
        dag = build_subpattern_dag(["ab", "abab", ""], doubling_ops(), length_measure())
        dag.edges.append(("ab", "abab", ("double", "")))
        with pytest.raises(ValueError):
            dag.check(doubling_ops(), length_measure())

    def test_serialization_shape(self):
        dag = build_subpattern_dag(["ab", "abab", ""], doubling_ops(), length_measure())
        d = dag.to_dict()
        assert d["edges"][0]["op"] == "double"


class TestAlignment:
    def chain_dag(self):
        dag = SubpatternDag(["a", "b", "c", "d"])
        dag.edges = [("a", "b", ("op", None)), ("b", "c", ("op", None))]
        return dag

    def test_mirrored_trace_is_perfect(self):
        dag = self.chain_dag()
        ident = {v: v for v in dag.vertices}
        assert alignment_score([("a", "b"), ("b", "c")], dag, ident) == 1.0

    def test_empty_trace_vacuous(self):
        assert alignment_score([], self.chain_dag(), {}) == 1.0

    def test_transitive_and_reverse_edges_count(self):
        dag = self.chain_dag()
        ident = {v: v for v in dag.vertices}
        assert alignment_score([("a", "c")], dag, ident) == 1.0
        assert alignment_score([("c", "a")], dag, ident) == 1.0
        assert alignment_score([("a", "d")], dag, ident) == 0.0

    def test_unmapped_vertex_rejected(self):
        with pytest.raises(ValueError):
            alignment_score([("a", "x")], self.chain_dag(), {"a": "a"})


def five_item_trace():
    """Replay the greedy agglomeration of two tight groups down to k=2 and
    record each merge as parent -> child edges."""
    points = {0: (0.0, 0.0), 1: (0.0, 1.0), 2: (10.0, 0.0), 3: (10.0, 1.0), 4: (10.0, 2.0)}
    dist = lambda x, y: ((points[x][0] - points[y][0]) ** 2
                        + (points[x][1] - points[y][1]) ** 2) ** 0.5
    blocks = frozenset(frozenset([i]) for i in points)
    trace = []
    while len(blocks) > 2:
        a, b = max(
            itertools.combinations(sorted(blocks, key=sorted), 2),
            key=lambda ab: partition_quality(_merge(blocks, *ab), dist),
        )
        blocks = _merge(blocks, a, b)
        trace.append((a | b, a))
        trace.append((a | b, b))
    return trace


class TestClusteringAlignmentFixture:
    def setup_method(self):
        self.trace = five_item_trace()
        singles = [frozenset([i]) for i in range(5)]
        self.items = singles + [
            frozenset({0, 1}), frozenset({2, 3}), frozenset({2, 3, 4}),
        ]
        sm = SimplicityMeasure(
            sigma=lambda b: float(len(b) ** 2),
            sigma_star=lambda name, y, z: 1.0,
        )
        self.dag = build_subpattern_dag(self.items, {"merge": disjoint_union}, sm)

    def test_trace_matches_hand_enumeration(self):
        f = frozenset
        assert set(self.trace) == {
            (f({0, 1}), f({0})), (f({0, 1}), f({1})),
            (f({2, 3}), f({2})), (f({2, 3}), f({3})),
            (f({2, 3, 4}), f({2, 3})), (f({2, 3, 4}), f({4})),
        }

    def test_dag_matches_hand_enumeration(self):
        f = frozenset
        assert {(x, y) for x, y, _ in self.dag.edges} == {
            (f({0, 1}), f({0})), (f({0, 1}), f({1})),
            (f({2, 3}), f({2})), (f({2, 3}), f({3})),
            (f({2, 3, 4}), f({2, 3})), (f({2, 3, 4}), f({4})),
        }

    def test_alignment_is_perfect(self):
        mapping = {v: v for v in self.items}
        assert alignment_score(self.trace, self.dag, mapping) == 1.0

    def test_foreign_edge_lowers_score(self):
        mapping = {v: v for v in self.items}
        trace = self.trace + [(frozenset({0, 1}), frozenset({2}))]
        assert alignment_score(trace, self.dag, mapping) == pytest.approx(6 / 7)
