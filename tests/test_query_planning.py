"""Tests for the cost-based SPARQL query planner and its caches.

The correctness oracle is the naive written-order evaluator
(``query(..., use_planner=False)``): for random graphs and random
BGP/OPTIONAL/FILTER queries, planning must never change the solution
multiset — only the evaluation order.  Cache tests prove that the
version-keyed plan / result caches are hit on repeats and invalidated by
any graph mutation.
"""

import random
from collections import Counter

import pytest

from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import Namespace, RDF
from repro.semantics.rdf.term import Literal, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.sparql.algebra import BGP
from repro.semantics.sparql.evaluator import query, select
from repro.semantics.sparql.planner import (
    PlannedBGP,
    QueryPlanner,
    build_plan,
    estimate_pattern,
    order_patterns,
    plan_patterns,
    planner_for,
)
from repro.semantics.sparql.parser import parse_query

EX = Namespace("http://example.org/")


def _solution_multiset(result):
    return Counter(result.solutions)


# --------------------------------------------------------------------- #
# graph statistics
# --------------------------------------------------------------------- #

class TestCardinalityStatistics:
    @pytest.fixture
    def graph(self):
        g = Graph()
        g.namespaces.bind("ex", EX)
        g.add(Triple(EX.s1, EX.p1, EX.o1))
        g.add(Triple(EX.s1, EX.p1, EX.o2))
        g.add(Triple(EX.s2, EX.p1, EX.o1))
        g.add(Triple(EX.s2, EX.p2, Literal(4)))
        return g

    def test_predicate_counters(self, graph):
        assert graph.predicate_cardinality(EX.p1) == 3
        assert graph.predicate_cardinality(EX.p2) == 1
        assert graph.predicate_cardinality(EX.p9) == 0
        assert graph.distinct_subjects_count(EX.p1) == 2
        assert graph.distinct_objects_count(EX.p1) == 2
        assert graph.distinct_subjects_count() == 2
        assert graph.distinct_predicates_count() == 2

    def test_pattern_cardinality_all_shapes(self, graph):
        v = Variable("x")
        assert graph.pattern_cardinality((EX.s1, EX.p1, EX.o1)) == 1
        assert graph.pattern_cardinality((EX.s1, EX.p1, EX.o9)) == 0
        assert graph.pattern_cardinality((EX.s1, EX.p1, v)) == 2
        assert graph.pattern_cardinality((EX.s1, v, EX.o1)) == 1
        assert graph.pattern_cardinality((v, EX.p1, EX.o1)) == 2
        assert graph.pattern_cardinality((EX.s1, None, None)) == 2
        assert graph.pattern_cardinality((None, EX.p1, None)) == 3
        assert graph.pattern_cardinality((None, None, EX.o1)) == 2
        assert graph.pattern_cardinality((None, None, None)) == 4

    def test_counters_track_removal_and_prune(self, graph):
        graph.remove(Triple(EX.s1, EX.p1, EX.o2))
        assert graph.predicate_cardinality(EX.p1) == 2
        assert graph.distinct_objects_count(EX.p1) == 1
        graph.remove(Triple(EX.s1, EX.p1, EX.o1))
        # s1 no longer a subject of p1; the counters and len()-based
        # statistics agree because emptied buckets are pruned
        assert graph.distinct_subjects_count(EX.p1) == 1
        graph.remove(Triple(EX.s2, EX.p1, EX.o1))
        assert graph.predicate_cardinality(EX.p1) == 0
        assert graph.distinct_predicates_count() == 1
        assert graph.pattern_cardinality((None, EX.p1, None)) == 0
        # the remaining triple is still fully indexed
        assert len(list(graph.triples((EX.s2, None, None)))) == 1

    def test_counters_after_clear(self, graph):
        graph.clear()
        assert graph.predicate_cardinality(EX.p1) == 0
        assert graph.distinct_subjects_count() == 0
        assert graph.pattern_cardinality((None, None, None)) == 0

    def test_pattern_cardinality_matches_enumeration(self):
        rng = random.Random(7)
        g = Graph()
        terms = [EX[f"t{i}"] for i in range(6)]
        for _ in range(60):
            g.add(Triple(rng.choice(terms), rng.choice(terms[:3]), rng.choice(terms)))
        for _ in range(20):
            g.remove(Triple(rng.choice(terms), rng.choice(terms[:3]), rng.choice(terms)))
        choices = terms + [None]
        for _ in range(100):
            pattern = (rng.choice(choices), rng.choice(choices), rng.choice(choices))
            assert g.pattern_cardinality(pattern) == len(list(g.triples(pattern)))


# --------------------------------------------------------------------- #
# join ordering
# --------------------------------------------------------------------- #

class TestJoinOrdering:
    @pytest.fixture
    def graph(self):
        g = Graph()
        g.namespaces.bind("ex", EX)
        for i in range(50):
            g.add(Triple(EX[f"obs{i}"], EX.hasValue, Literal(i)))
            g.add(Triple(EX[f"obs{i}"], EX.observedBy, EX[f"sensor{i % 10}"]))
        g.add(Triple(EX.sensor3, RDF.type, EX.RareSensor))
        return g

    def test_most_selective_pattern_first(self, graph):
        big = Triple(Variable("o"), EX.hasValue, Variable("v"))
        mid = Triple(Variable("o"), EX.observedBy, Variable("s"))
        rare = Triple(Variable("s"), RDF.type, EX.RareSensor)
        ordered = order_patterns(graph, [big, mid, rare])
        assert ordered[0] == rare
        # bound-variable propagation: the pattern sharing ?s comes before
        # the disconnected value pattern
        assert ordered[1] == mid

    def test_bound_variables_shrink_estimates(self, graph):
        pattern = Triple(Variable("o"), EX.observedBy, Variable("s"))
        free = estimate_pattern(graph, pattern, set())
        seeded = estimate_pattern(graph, pattern, {Variable("s")})
        assert free == 50
        assert seeded == pytest.approx(5.0)  # 50 triples / 10 sensors

    def test_empty_pattern_estimates_zero(self, graph):
        pattern = Triple(Variable("x"), EX.nonexistent, Variable("y"))
        assert estimate_pattern(graph, pattern, set()) == 0.0

    def test_initial_bound_set_respected(self, graph):
        mid = Triple(Variable("o"), EX.observedBy, Variable("s"))
        big = Triple(Variable("o"), EX.hasValue, Variable("v"))
        ordered = order_patterns(graph, [big, mid], bound=[Variable("s")])
        assert ordered[0] == mid

    def test_planned_bgp_preserves_written_variable_order(self, graph):
        big = Triple(Variable("o"), EX.hasValue, Variable("v"))
        rare = Triple(Variable("s"), RDF.type, EX.RareSensor)
        mid = Triple(Variable("o"), EX.observedBy, Variable("s"))
        planned = plan_patterns(graph, [big, mid, rare])
        assert planned.patterns != [big, mid, rare]  # actually reordered
        assert planned.variables() == [Variable("o"), Variable("v"), Variable("s")]


# --------------------------------------------------------------------- #
# randomized planned-vs-unplanned equivalence
# --------------------------------------------------------------------- #

PREDICATES = [EX.p0, EX.p1, EX.p2, EX.p3]


def _random_graph(rng):
    g = Graph()
    g.namespaces.bind("ex", EX)
    subjects = [EX[f"s{i}"] for i in range(rng.randint(6, 14))]
    iri_objects = [EX[f"o{i}"] for i in range(6)] + subjects[:4]
    for _ in range(rng.randint(30, 140)):
        # skewed predicate usage so estimates actually differ
        predicate = PREDICATES[min(rng.randrange(len(PREDICATES)), rng.randrange(len(PREDICATES)))]
        subject = rng.choice(subjects)
        if predicate == EX.p3:
            obj = Literal(rng.randint(0, 15))
        else:
            obj = rng.choice(iri_objects)
        g.add(Triple(subject, predicate, obj))
    return g


def _random_query(rng):
    # ?v / ?w may bind literals (objects of ex:p3 or of a variable
    # predicate) and occasionally appear in subject position too: a join
    # step binding a literal into a subject must yield no solutions on
    # both evaluation paths, never an error
    node_vars = ["?a", "?b", "?c"]
    value_vars = ["?v", "?w"]
    ground_subjects = ["ex:s0", "ex:s1", "ex:s2"]
    iri_objects = ["ex:o0", "ex:o1", "ex:s3"]

    def pattern():
        subject_pool = node_vars + ground_subjects
        if rng.random() < 0.15:
            subject_pool = subject_pool + value_vars
        s = rng.choice(subject_pool)
        p = rng.choice(["ex:p0", "ex:p1", "ex:p2", "ex:p3", "?p"])
        if p in ("ex:p3", "?p"):
            o = rng.choice(value_vars + [str(rng.randint(0, 15))])
        else:
            o = rng.choice(node_vars + value_vars + iri_objects)
        return f"{s} {p} {o}"

    body = " . ".join(pattern() for _ in range(rng.randint(2, 4)))
    optional = ""
    if rng.random() < 0.5:
        optional = " OPTIONAL { " + pattern() + " . }"
    filter_clause = ""
    if rng.random() < 0.5:
        var = rng.choice(node_vars + value_vars)
        op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
        filter_clause = f" FILTER ({var} {op} {rng.randint(0, 15)})"
    distinct = "DISTINCT " if rng.random() < 0.3 else ""
    return f"SELECT {distinct}* WHERE {{ {body} .{optional}{filter_clause} }}"


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_planned_matches_written_order_oracle(self, seed):
        rng = random.Random(seed)
        graph = _random_graph(rng)
        text = _random_query(rng)
        oracle = query(graph, text, use_planner=False)
        planned = QueryPlanner().query(graph, text)
        assert _solution_multiset(planned) == _solution_multiset(oracle), text

    @pytest.mark.parametrize("seed", range(20))
    def test_pattern_order_is_irrelevant(self, seed):
        """Identical solution multisets regardless of written pattern order."""
        rng = random.Random(1000 + seed)
        graph = _random_graph(rng)
        parts = [
            "?a ex:p0 ?b", "?b ex:p1 ?c", "?a ex:p2 ?c", "?a ex:p3 ?v",
        ]
        reference = None
        for _ in range(6):
            rng.shuffle(parts)
            text = "SELECT * WHERE { " + " . ".join(parts) + " . }"
            for result in (
                QueryPlanner().query(graph, text),
                query(graph, text, use_planner=False),
            ):
                multiset = _solution_multiset(result)
                if reference is None:
                    reference = multiset
                else:
                    assert multiset == reference

    @pytest.mark.parametrize("seed", range(10))
    def test_planned_bgp_equivalence_all_permutations(self, seed):
        import itertools

        rng = random.Random(2000 + seed)
        graph = _random_graph(rng)
        patterns = [
            Triple(Variable("a"), EX.p0, Variable("b")),
            Triple(Variable("b"), EX.p1, Variable("c")),
            Triple(Variable("a"), EX.p2, Variable("c")),
        ]
        reference = Counter(BGP(patterns).solutions(graph))
        for permutation in itertools.permutations(patterns):
            planned = plan_patterns(graph, list(permutation))
            assert Counter(planned.solutions(graph)) == reference

    def test_literal_bound_into_subject_position_yields_no_solutions(self):
        # regression: the planner's data-dependent reordering can evaluate
        # '?s ex:val ?x' first, bind ?x to a literal, and then meet ?x in
        # subject position of '?x ex:p0 ?y'; that join step must produce
        # zero solutions (no stored triple has a literal subject), not a
        # TypeError out of every query path
        graph = Graph()
        graph.namespaces.bind("ex", EX)
        graph.add(Triple(EX.s1, EX.val, Literal(14)))
        for i in range(50):
            graph.add(Triple(EX[f"n{i}"], EX.p0, EX[f"m{i}"]))
        text = "SELECT * WHERE { ?x ex:p0 ?y . ?s ex:val ?x . }"
        planned = QueryPlanner().query(graph, text)
        oracle = query(graph, text, use_planner=False)
        assert len(planned) == len(oracle) == 0

    def test_ask_form_equivalence(self):
        rng = random.Random(42)
        graph = _random_graph(rng)
        positive = "ASK WHERE { ?a ex:p0 ?b . ?b ex:p1 ?c . }"
        negative = "ASK WHERE { ?a ex:nonexistent ?b . }"
        graph.namespaces.bind("ex", EX)
        for text in (positive, negative):
            assert (
                QueryPlanner().query(graph, text).ask
                == query(graph, text, use_planner=False).ask
            )


# --------------------------------------------------------------------- #
# filter pushdown
# --------------------------------------------------------------------- #

class TestFilterPushdown:
    @pytest.fixture
    def graph(self):
        g = Graph()
        g.namespaces.bind("ex", EX)
        for i in range(20):
            g.add(Triple(EX[f"obs{i}"], EX.hasValue, Literal(i)))
            g.add(Triple(EX[f"obs{i}"], EX.observedBy, EX[f"sensor{i % 4}"]))
        g.add(Triple(EX.sensor1, EX.locatedIn, EX.Mangaung))
        return g

    def test_core_filter_is_pushed_into_the_bgp(self, graph):
        plan = build_plan(graph, parse_query(
            "SELECT ?o ?v WHERE { ?o ex:observedBy ?s . ?o ex:hasValue ?v . FILTER (?v < 5) }"
        ))
        planned_bgps = [
            op for op in _walk(plan.root) if isinstance(op, PlannedBGP)
        ]
        assert any(fns for bgp in planned_bgps for fns in bgp.step_filters)

    def test_pushed_filter_same_answers_as_oracle(self, graph):
        text = """
            SELECT ?o ?v ?s WHERE {
                ?o ex:observedBy ?s .
                ?o ex:hasValue ?v .
                FILTER (?v >= 17)
            }
        """
        planned = QueryPlanner().query(graph, text)
        oracle = query(graph, text, use_planner=False)
        assert _solution_multiset(planned) == _solution_multiset(oracle)
        assert len(planned) == 3

    def test_filter_on_optional_variable_stays_outside(self, graph):
        # ?place is bound only by the OPTIONAL block: SPARQL semantics drop
        # rows where the filter variable is unbound, so the filter must NOT
        # be pushed into the required BGP (where it would see no binding)
        text = """
            SELECT ?s ?place WHERE {
                ?o ex:observedBy ?s .
                OPTIONAL { ?s ex:locatedIn ?place . }
                FILTER (?place = ex:Mangaung)
            }
        """
        planned = QueryPlanner().query(graph, text)
        oracle = query(graph, text, use_planner=False)
        assert _solution_multiset(planned) == _solution_multiset(oracle)
        assert all(row["place"] == EX.Mangaung for row in planned.rows)
        assert len(planned) == 5  # sensor1 observes obs1,5,9,13,17

    def test_filter_on_never_bound_variable_drops_everything(self, graph):
        text = "SELECT ?o WHERE { ?o ex:hasValue ?v . FILTER (?ghost > 1) }"
        planned = QueryPlanner().query(graph, text)
        oracle = query(graph, text, use_planner=False)
        assert len(planned) == len(oracle) == 0


def _walk(operator):
    yield operator
    for attr in ("child", "left", "right"):
        nested = getattr(operator, attr, None)
        if nested is not None:
            yield from _walk(nested)


# --------------------------------------------------------------------- #
# plan / result caches and invalidation
# --------------------------------------------------------------------- #

class TestPlanAndResultCaches:
    @pytest.fixture
    def graph(self):
        g = Graph()
        g.namespaces.bind("ex", EX)
        for i in range(10):
            g.add(Triple(EX[f"obs{i}"], EX.hasValue, Literal(i)))
        return g

    TEXT = "SELECT ?o ?v WHERE { ?o ex:hasValue ?v . FILTER (?v >= 5) }"

    def test_repeat_query_hits_both_caches(self, graph):
        planner = QueryPlanner()
        first = planner.query(graph, self.TEXT)
        second = planner.query(graph, self.TEXT)
        assert planner.statistics.plans_built == 1
        assert planner.statistics.result_hits == 1
        assert _solution_multiset(first) == _solution_multiset(second)
        # cached results are independent copies
        second.solutions.clear()
        assert len(planner.query(graph, self.TEXT)) == 5

    def test_mutation_invalidates_result_cache(self, graph):
        planner = QueryPlanner()
        assert len(planner.query(graph, self.TEXT)) == 5
        graph.add(Triple(EX.obs99, EX.hasValue, Literal(99)))
        fresh = planner.query(graph, self.TEXT)
        assert len(fresh) == 6  # not served stale
        assert planner.statistics.result_invalidations == 1
        graph.remove(Triple(EX.obs99, EX.hasValue, Literal(99)))
        assert len(planner.query(graph, self.TEXT)) == 5

    def test_prefix_rebinding_invalidates_caches(self):
        # rebinding a namespace prefix changes how the cached query text
        # resolves without bumping the graph version (regression: the
        # caches used to key on the version alone and served the IRIs of
        # the old binding)
        a = Namespace("http://a.example/")
        b = Namespace("http://b.example/")
        graph = Graph()
        graph.namespaces.bind("ex", a)
        graph.add(Triple(a.s1, RDF.type, a.Sensor))
        graph.add(Triple(b.s2, RDF.type, b.Sensor))
        planner = QueryPlanner()
        text = "SELECT ?s WHERE { ?s a ex:Sensor . }"
        assert planner.query(graph, text).scalars == [a.s1.value]
        graph.namespaces.bind("ex", b)
        assert planner.query(graph, text).scalars == [b.s2.value]
        assert planner.statistics.result_invalidations == 1
        # re-binding the same namespace is not a change: caches stay warm
        graph.namespaces.bind("ex", b)
        assert planner.query(graph, text).scalars == [b.s2.value]
        assert planner.statistics.result_hits == 1

    def test_unrelated_mutation_still_invalidates_conservatively(self, graph):
        planner = QueryPlanner()
        planner.query(graph, self.TEXT)
        graph.add(Triple(EX.x, EX.unrelated, EX.y))
        planner.query(graph, self.TEXT)
        assert planner.statistics.result_hits == 0
        assert planner.statistics.plan_invalidations == 1

    def test_plan_reused_after_replan_when_version_stable(self, graph):
        # result caching disabled so every query exercises the plan cache
        planner = QueryPlanner(result_cache_size=0)
        planner.query(graph, self.TEXT)
        graph.add(Triple(EX.x, EX.unrelated, EX.y))
        planner.query(graph, self.TEXT)   # version moved: replans
        planner.query(graph, self.TEXT)   # version stable again: plan hit
        assert planner.statistics.plans_built == 2
        assert planner.statistics.plan_invalidations == 1
        assert planner.statistics.plan_hits == 1

    def test_result_cache_lru_bound(self, graph):
        planner = QueryPlanner(result_cache_size=2)
        texts = [
            f"SELECT ?o WHERE {{ ?o ex:hasValue {value} . }}" for value in range(4)
        ]
        for text in texts:
            planner.query(graph, text)
        assert len(planner._results) == 2

    def test_result_cache_disabled(self, graph):
        planner = QueryPlanner(result_cache_size=0)
        planner.query(graph, self.TEXT)
        planner.query(graph, self.TEXT)
        assert planner.statistics.result_hits == 0
        assert planner.statistics.plan_hits == 1  # plans still cached

    def test_invalidation_replans_but_never_reparses(self, graph):
        planner = QueryPlanner()
        planner.query(graph, self.TEXT)
        graph.add(Triple(EX.x, EX.unrelated, EX.y))
        planner.query(graph, self.TEXT)
        assert planner.statistics.plans_built == 2
        assert planner.statistics.parses == 1  # parsing is graph-independent

    def test_clear_caches(self, graph):
        planner = QueryPlanner()
        planner.query(graph, self.TEXT)
        planner.clear_caches()
        planner.query(graph, self.TEXT)
        assert planner.statistics.plans_built == 2

    def test_planner_for_is_shared_and_weak(self):
        import gc
        import weakref

        # a locally created graph (the fixture instance would stay alive
        # in pytest's cache and pin its planner)
        local = Graph()
        assert planner_for(local) is planner_for(local)
        ref = weakref.ref(planner_for(local))
        del local
        gc.collect()
        assert ref() is None

    def test_ask_results_are_cached(self, graph):
        planner = QueryPlanner()
        text = "ASK WHERE { ?o ex:hasValue ?v . }"
        assert planner.query(graph, text).ask
        assert planner.query(graph, text).ask
        assert planner.statistics.result_hits == 1

    def test_ask_short_circuits_at_first_solution(self, graph):
        from repro.semantics.sparql.algebra import Operator

        class CountingOperator(Operator):
            def __init__(self, inner):
                self.inner = inner
                self.yielded = 0

            def solutions(self, g):
                for solution in self.inner.solutions(g):
                    self.yielded += 1
                    yield solution

        plan = build_plan(graph, parse_query("ASK WHERE { ?o ex:hasValue ?v . }"))
        counter = CountingOperator(plan.root)
        plan.root = counter
        assert plan.execute(graph)
        assert counter.yielded == 1  # 10 matches exist; only one is drawn

    def test_rebinding_same_namespace_updates_compact_preference(self):
        # most recent bind wins the base -> prefix reverse map used by
        # compact()/serialisation, without invalidating query caches
        ns = Namespace("http://shared.example/")
        graph = Graph()
        graph.namespaces.bind("a", ns)
        graph.namespaces.bind("b", ns)
        assert graph.namespaces.compact(ns.thing) == "b:thing"
        generation = graph.namespaces.generation
        graph.namespaces.bind("a", ns)
        assert graph.namespaces.compact(ns.thing) == "a:thing"
        assert graph.namespaces.generation == generation


# --------------------------------------------------------------------- #
# routed query paths
# --------------------------------------------------------------------- #

class TestRoutedQueryPaths:
    def test_select_planned_matches_unplanned(self):
        rng = random.Random(5)
        graph = _random_graph(rng)
        patterns = [
            Triple(Variable("a"), EX.p0, Variable("b")),
            Triple(Variable("b"), EX.p1, Variable("c")),
        ]
        planned = select(graph, patterns)
        oracle = select(graph, patterns, use_planner=False)
        assert _solution_multiset(planned) == _solution_multiset(oracle)

    def test_reasoner_query_sees_entailments(self):
        from repro.semantics.rdf.namespace import RDFS
        from repro.semantics.reasoner import Reasoner

        graph = Graph()
        graph.namespaces.bind("ex", EX)
        graph.add(Triple(EX.Sensor, RDFS.subClassOf, EX.Device))
        graph.add(Triple(EX.s1, RDF.type, EX.Sensor))
        reasoner = Reasoner(graph)
        result = reasoner.query("SELECT ?d WHERE { ?d a ex:Device . }")
        assert result.scalars == [EX.s1.value]
        # incremental top-up keeps later queries fresh (and uncached stale
        # results are impossible: materialisation bumps the version)
        graph.add(Triple(EX.s2, RDF.type, EX.Sensor))
        result = reasoner.query("SELECT ?d WHERE { ?d a ex:Device . }")
        assert sorted(result.scalars) == [EX.s1.value, EX.s2.value]

    def test_ontology_layer_query_routes_through_shared_planner(self):
        from repro.core.config import MiddlewareConfig
        from repro.core.ontology_layer import OntologySegmentLayer

        layer = OntologySegmentLayer(
            config=MiddlewareConfig(annotate_observations=False)
        )
        text = "SELECT ?c WHERE { ?c rdfs:subClassOf owl:Thing . }"
        before = layer.query_planner.statistics.queries
        layer.query(text)
        layer.query(text)
        stats = layer.query_planner.statistics
        assert stats.queries == before + 2
        assert stats.result_hits >= 1
