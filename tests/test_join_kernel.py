"""The compiled join kernel against the decoded oracle.

``BGP(use_ids=True)``, the planner's ``PlannedBGP``, the standing views and
the rule engine all evaluate through one generated nested-loop kernel
(:mod:`repro.semantics.sparql.kernel`).  The decoded-object join —
``BGP(use_ids=False)`` / ``query(use_planner=False)`` — shares no code
with it and is the oracle: over random small graphs, pattern lists,
initial bindings and filters both must produce the same *bag* of
solutions.  The deterministic cases below pin what random search only
probably reaches: every access path, both bucket layouts, filters that
raise, laziness, the shape cache, the nested-block limit and the DISTINCT
push-down on every shard layout.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.semantics.rdf.dictionary import TermDictionary
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import Namespace
from repro.semantics.rdf.term import Literal, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.rules import Rule, RuleEngine
from repro.semantics.sparql.algebra import BGP, Filter, TermFilter
from repro.semantics.sparql.bindings import Bindings
from repro.semantics.sparql.evaluator import query
from repro.semantics.sparql.kernel import PreparedJoin
from repro.semantics.sparql.parser import parse_query
from repro.semantics.sparql.planner import (
    PlannedBGP,
    build_plan,
    federated_variant,
    plan_patterns,
    planner_for,
)

from naive_fixpoint import derive, naive_run

from test_process_backend import LAYOUTS, build
from test_sharding import make_stream, solution_set

EX = Namespace("http://example.org/")

# one small universe for every position, so variable predicates, repeated
# variables and joins through any position all find matches
NODES = [EX[f"n{i}"] for i in range(5)]
PREDICATES = NODES[:3]
LITERALS = [Literal(1), Literal(7), Literal("seven")]
UNKNOWN = EX.never_interned
VARIABLES = [Variable(name) for name in ("x", "y", "z", "p")]
EXTRA = Variable("untouched")

triples = st.lists(
    st.builds(
        Triple,
        st.sampled_from(NODES),
        st.sampled_from(PREDICATES),
        st.sampled_from(NODES + LITERALS),
    ),
    max_size=14,
)
position = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(NODES))
patterns = st.lists(
    st.builds(
        Triple,
        position,
        st.one_of(st.sampled_from(VARIABLES), st.sampled_from(PREDICATES)),
        st.one_of(position, st.sampled_from(LITERALS), st.just(UNKNOWN)),
    ),
    min_size=1,
    max_size=3,
)
# initial bindings: any subset of the variables (plus one no pattern ever
# mentions), bound to known terms, a literal, or a term the graph never saw
initial = st.dictionaries(
    st.sampled_from(VARIABLES + [EXTRA]),
    st.sampled_from(NODES + LITERALS + [UNKNOWN]),
    max_size=3,
)


def graph_of(facts) -> Graph:
    graph = Graph()
    graph.namespaces.bind("ex", EX)
    graph.add_all(facts)
    return graph


def bag(solutions) -> Counter:
    return Counter(solutions)


@settings(max_examples=300, deadline=None)
@given(triples, patterns, initial)
def test_kernel_matches_decoded_join_as_bags(facts, bgp, seed):
    graph = graph_of(facts)
    bindings = Bindings(seed)
    oracle = bag(BGP(bgp, use_ids=False).solutions_from(graph, bindings))
    assert bag(BGP(bgp).solutions_from(graph, bindings)) == oracle
    planned = plan_patterns(graph, bgp, list(seed))
    assert bag(planned.solutions_from(graph, bindings)) == oracle
    # a second evaluation reuses the prepared join and sees later writes
    extra = Triple(NODES[0], PREDICATES[0], NODES[1])
    graph.add(extra)
    assert bag(planned.solutions_from(graph, bindings)) == bag(
        BGP(bgp, use_ids=False).solutions_from(graph, bindings)
    )


def term_text(term) -> str:
    if isinstance(term, Variable):
        return f"?{term.name}"
    if isinstance(term, Literal):
        return term.n3() if isinstance(term.to_python(), str) else term.lexical
    return term.n3()


filters = st.one_of(
    st.none(),
    st.builds(
        "FILTER (?{} {} {})".format,
        st.sampled_from(["x", "y", "z"]),
        st.sampled_from(["<", ">=", "=", "!="]),
        st.sampled_from(["3", "7", "7.5"]),
    ),
    st.builds(
        "FILTER (?{} {} {})".format,
        st.sampled_from(["x", "y", "z", "p"]),
        st.sampled_from(["=", "!="]),
        st.sampled_from([term.n3() for term in NODES[:2]] + ['"seven"']),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    triples,
    patterns,
    filters,
    st.booleans(),
    st.lists(st.sampled_from(["x", "y", "z", "p"]), max_size=2, unique=True),
)
def test_planned_query_matches_written_order_oracle(facts, bgp, flt, distinct, projected):
    graph = graph_of(facts)
    body = " . ".join(" ".join(term_text(term) for term in pattern) for pattern in bgp)
    head = " ".join(f"?{name}" for name in projected) or "*"
    text = (
        f"SELECT {'DISTINCT ' if distinct else ''}{head} "
        f"WHERE {{ {body} . {flt or ''} }}"
    )
    assert solution_set(query(graph, text)) == solution_set(
        query(graph, text, use_planner=False)
    )
    ask = f"ASK WHERE {{ {body} . {flt or ''} }}"
    assert query(graph, ask).ask == query(graph, ask, use_planner=False).ask


# --------------------------------------------------------------------- #
# the eight access paths, on both bucket layouts
# --------------------------------------------------------------------- #

@pytest.fixture
def bucket_graph():
    # (a, p) holds one object — a bare-int bucket — and (a, q) three — a
    # set; likewise one subject under (q, c) and two under (p, b)
    a, b, c, d, p, q = NODES[0], NODES[1], NODES[2], NODES[3], NODES[0], NODES[1]
    return graph_of(
        [
            Triple(a, p, b),
            Triple(a, q, b),
            Triple(a, q, c),
            Triple(a, q, Literal(7)),
            Triple(d, p, b),
            Triple(d, q, d),
            Triple(c, p, c),
        ]
    )


@pytest.mark.parametrize("ground", list(itertools.product([True, False], repeat=3)))
def test_every_access_path(bucket_graph, ground):
    s, p, o = Variable("s"), Variable("p"), Variable("o")
    seen_paths = set()
    for fact in list(bucket_graph):
        pattern = Triple(
            fact.subject if ground[0] else s,
            fact.predicate if ground[1] else p,
            fact.object if ground[2] else o,
        )
        follow = Triple(o if not ground[2] else s, Variable("p2"), Variable("o2"))
        for bgp in ([pattern], [pattern, follow], [follow, pattern]):
            oracle = bag(BGP(bgp, use_ids=False).solutions(bucket_graph))
            assert bag(BGP(bgp).solutions(bucket_graph)) == oracle
            assert bag(plan_patterns(bucket_graph, bgp).solutions(bucket_graph)) == oracle
        kinds = tuple(kind for kind, _ in PreparedJoin([pattern], None, ()).shape[1][0][:3])
        seen_paths.add(kinds)
    assert seen_paths == {tuple("c" if fixed else "n" for fixed in ground)}


def test_repeated_variable_inside_one_pattern(bucket_graph):
    x, p = Variable("x"), Variable("p")
    loops = [Triple(x, p, x)]
    rows = bag(BGP(loops).solutions(bucket_graph))
    assert rows == bag(BGP(loops, use_ids=False).solutions(bucket_graph))
    assert {row[x] for row in rows} == {NODES[3], NODES[2]}
    assert PreparedJoin(loops, None, ()).shape[1][0][:3] == (("n", 0), ("n", 1), ("r", 0))
    # ... and when x is already bound, it is a plain bound position twice
    seeded = Bindings({x: NODES[3]})
    assert bag(BGP(loops).solutions_from(bucket_graph, seeded)) == bag(
        BGP(loops, use_ids=False).solutions_from(bucket_graph, seeded)
    )
    assert PreparedJoin(loops, None, (x,)).shape[1][0][:3] == (("b", 0), ("n", 1), ("b", 0))


def test_seed_unknown_to_the_dictionary_and_passthrough(bucket_graph):
    x, o = Variable("x"), Variable("o")
    bgp = BGP([Triple(x, NODES[1], o)])
    assert list(bgp.solutions_from(bucket_graph, Bindings({x: UNKNOWN}))) == []
    assert UNKNOWN not in bucket_graph.dictionary._ids  # looked up, never interned
    rows = list(bgp.solutions_from(bucket_graph, Bindings({x: NODES[3], EXTRA: UNKNOWN})))
    assert rows == [Bindings({x: NODES[3], o: NODES[3], EXTRA: UNKNOWN})]
    # a constant the graph has not seen yet matches nothing — until it has
    late = BGP([Triple(x, NODES[4], o)])
    assert list(late.solutions(bucket_graph)) == []
    bucket_graph.add(Triple(NODES[0], NODES[4], NODES[0]))
    assert list(late.solutions(bucket_graph)) == [Bindings({x: NODES[0], o: NODES[0]})]


def test_long_joins_are_compiled_in_chunks():
    # 12 steps, two loops each: past CPython's 20 nested blocks
    ring = [Triple(NODES[i], PREDICATES[0], NODES[(i + 1) % 5]) for i in range(5)]
    graph = graph_of(ring + [Triple(NODES[0], PREDICATES[1], NODES[2])])
    chain = [
        Triple(Variable(f"a{i}"), Variable(f"p{i}"), Variable(f"a{i + 1}"))
        for i in range(12)
    ]
    assert bag(BGP(chain).solutions(graph)) == bag(
        BGP(chain, use_ids=False).solutions(graph)
    )


# --------------------------------------------------------------------- #
# pushed-down filters
# --------------------------------------------------------------------- #

@pytest.fixture
def readings():
    graph = graph_of([])
    for i in range(40):
        value = Literal(i) if i % 5 else Literal(f"reading-{i}")
        graph.add(Triple(EX[f"obs{i}"], EX.hasValue, value))
        graph.add(Triple(EX[f"obs{i}"], EX.observedBy, EX[f"sensor{i % 4}"]))
    return graph


def test_filter_that_raises_drops_the_row(readings):
    obs, value, sensor = Variable("obs"), Variable("v"), Variable("s")
    core = [Triple(obs, EX.hasValue, value), Triple(obs, EX.observedBy, sensor)]

    def above_ten(bindings):
        return bindings[value].to_python() > 10  # str > int: TypeError

    with pytest.raises(TypeError):
        above_ten(Bindings({value: Literal("reading-0")}))
    oracle = bag(Filter(BGP(core, use_ids=False), above_ten).solutions(readings))
    assert len(oracle) == 24
    for pushed in (above_ten, TermFilter(value, lambda term: term.to_python() > 10)):
        planned = PlannedBGP(core, [[(value, pushed)], []])
        assert bag(planned.solutions(readings)) == oracle


def test_ask_stops_the_kernel_at_the_first_solution(readings):
    obs, value = Variable("obs"), Variable("v")
    tested = []

    def seen(term):
        tested.append(term)
        return True

    core = [Triple(obs, EX.hasValue, value), Triple(obs, EX.observedBy, Variable("s"))]
    planned = PlannedBGP(core, [[(value, TermFilter(value, seen))], []])
    assert next(planned.solutions(readings)) is not None
    assert len(tested) == 1
    assert len(list(planned.solutions(readings))) == 40
    assert len(tested) == 41
    # the planner's ASK plans are exactly that: no projection above the BGP
    plan = build_plan(readings, parse_query("ASK WHERE { ?o ex:hasValue ?v . FILTER (?v > 3) }"))
    assert isinstance(plan.root, PlannedBGP) and len(plan.execute(readings)) == 1


def test_literal_value_is_parsed_once():
    literal = Literal("12.5", datatype=Literal(1.5).datatype)
    assert literal.to_python() == 12.5
    assert literal.to_python() is literal.to_python()
    assert Literal("twelve", datatype=literal.datatype).to_python() == "twelve"
    assert literal == Literal(12.5) and hash(literal) == hash(Literal(12.5))


# --------------------------------------------------------------------- #
# the shape cache
# --------------------------------------------------------------------- #

def test_kernels_are_compiled_per_shape_not_per_evaluation(readings):
    planner = planner_for(readings)
    text = "SELECT ?o ?v WHERE { ?o ex:observedBy ?s . ?o ex:hasValue ?v . FILTER (?v > 30) }"
    assert len(planner.query(readings, text)) == 8
    compiled = planner.statistics.kernels_compiled
    plans = planner.statistics.plans_built
    assert compiled >= 1
    for i in range(40, 140):
        readings.add(Triple(EX[f"obs{i}"], EX.hasValue, Literal(i)))
        readings.add(Triple(EX[f"obs{i}"], EX.observedBy, EX[f"sensor{i % 4}"]))
        assert len(planner.query(readings, text)) == 8 + i - 39
    # every write invalidated the plan; no re-plan generated code again
    assert planner.statistics.plans_built == plans + 100
    assert planner.statistics.kernels_compiled == compiled
    # a structurally identical query over other constants shares the kernel
    other = "SELECT ?a ?b WHERE { ?a ex:observedBy ?c . ?a ex:hasValue ?b . FILTER (?b > 99) }"
    assert len(planner.query(readings, other)) == 40
    assert planner.statistics.kernels_compiled == compiled


def test_rules_and_views_reach_the_same_kernel(readings):
    planner = planner_for(readings)
    obs, sensor = Variable("obs"), Variable("s")
    rule = Rule(
        "watched",
        body=[Triple(obs, EX.observedBy, sensor), Triple(obs, EX.hasValue, Variable("v"))],
        head=[Triple(sensor, EX.watches, obs)],
    )
    before = planner.statistics.kernels_compiled
    derived = derive(rule, readings)
    assert derived == derive(rule, readings, use_ids=False) and len(derived) == 40
    assert planner.statistics.kernels_compiled == before + 1
    # close the graph with the naive decoded run, then top it up from a
    # one-triple encoded delta: the rule seeds its first atom from it
    naive_run([rule], readings, use_ids=False)
    fresh = Triple(EX.obs99, EX.observedBy, EX.sensor1)
    readings.add(fresh)
    readings.add(Triple(EX.obs99, EX.hasValue, Literal(99)))
    before_topup = set(readings)
    RuleEngine([rule]).run(readings, [readings.dictionary.lookup_triple(fresh)])
    assert set(readings) - before_topup == {Triple(EX.sensor1, EX.watches, EX.obs99)}
    compiled = planner.statistics.kernels_compiled
    # seeding again from another delta triple of the same atom: no compile,
    # and the top-up reaches the closure the naive decoded run computes
    again = Triple(EX.obs98, EX.observedBy, EX.sensor2)
    readings.add(again)
    readings.add(Triple(EX.obs98, EX.hasValue, Literal(98)))
    oracle = graph_of(readings)
    RuleEngine([rule]).run(readings, [readings.dictionary.lookup_triple(again)])
    naive_run([rule], oracle, use_ids=False)
    assert set(readings) == set(oracle)
    assert planner.statistics.kernels_compiled == compiled


# --------------------------------------------------------------------- #
# DISTINCT push-down
# --------------------------------------------------------------------- #

def _twin_rule() -> Rule:
    """A rule whose second atom names ``ex:twinOf``, which ``readings`` lacks."""
    obs, sensor, twin = Variable("obs"), Variable("s"), Variable("t")
    return Rule(
        "twin",
        body=[Triple(obs, EX.observedBy, sensor), Triple(sensor, EX.twinOf, twin)],
        head=[Triple(obs, EX.observedBy, twin)],
    )


def _relink(graph, start: int):
    """Ten new ``observedBy`` triples over stored terms only, as id triples."""
    added = []
    for i in range(start, start + 10):
        fresh = Triple(EX[f"obs{i}"], EX.observedBy, EX[f"sensor{(i + 1) % 4}"])
        assert graph.add(fresh)
        added.append(graph.dictionary.lookup_triple(fresh))
    return added


def test_a_failed_bind_is_not_retried_until_the_dictionary_grows(readings, monkeypatch):
    engine = RuleEngine([_twin_rule()])
    engine.run(readings)
    looked_up = []
    real_lookup = TermDictionary.lookup

    def counting_lookup(self, term):
        if term == EX.twinOf:
            looked_up.append(term)
        return real_lookup(self, term)

    monkeypatch.setattr(TermDictionary, "lookup", counting_lookup)
    size = len(readings.dictionary)
    per_topup = []
    for start in (0, 10, 20):
        looked_up.clear()
        # ten seeds for the join of ``?s ex:twinOf ?t``, none of them new terms
        trace = engine.run(readings, _relink(readings, start))
        assert trace.inferred == 0
        per_topup.append(len(looked_up))
    assert len(readings.dictionary) == size
    # the seed atom's own constant check, once per top-up; the join's bind
    # failed at this dictionary length before and is not looked up again
    assert per_topup == [1, 1, 1]


def test_a_join_binds_once_its_missing_constant_is_interned(readings):
    engine = RuleEngine([_twin_rule()])
    engine.run(readings)
    engine.run(readings, _relink(readings, 0))
    twins = Triple(EX.sensor1, EX.twinOf, EX.sensor2)
    readings.add(twins)
    engine.run(readings, [readings.dictionary.lookup_triple(twins)])
    # only the ``observedBy`` atom can seed from this triple, so the
    # derivation comes through the join whose bind failed
    relinked = Triple(EX.obs12, EX.observedBy, EX.sensor1)
    readings.add(relinked)
    trace = engine.run(readings, [readings.dictionary.lookup_triple(relinked)])
    assert trace.inferred == 1
    assert Triple(EX.obs12, EX.observedBy, EX.sensor2) in readings
    oracle = graph_of(readings)
    naive_run([_twin_rule()], oracle, use_ids=False)
    assert set(readings) == set(oracle)


def test_distinct_is_taken_in_id_space_before_decode(readings):
    plan = build_plan(
        readings, parse_query("SELECT DISTINCT ?s WHERE { ?o ex:observedBy ?s . ?o ex:hasValue ?v }")
    )
    bgp = plan.root.child
    assert isinstance(bgp, PlannedBGP) and bgp.project == [Variable("s")]
    assert len(list(bgp.solutions(readings))) == 4  # 40 full solutions underneath
    assert solution_set(plan_result(plan, readings)) == solution_set(
        query(readings, "SELECT DISTINCT ?s WHERE { ?o ex:observedBy ?s . ?o ex:hasValue ?v }",
              use_planner=False)
    )
    # an OPTIONAL (or a filter left above the BGP) needs the full rows
    for text in (
        "SELECT DISTINCT ?s WHERE { ?o ex:observedBy ?s . OPTIONAL { ?o ex:hasValue ?v } }",
        "SELECT DISTINCT ?s WHERE { ?o ex:observedBy ?s . FILTER (?nowhere != 3) }",
        "SELECT ?s WHERE { ?o ex:observedBy ?s }",
    ):
        plan = build_plan(readings, parse_query(text))
        assert all(
            op.project is None for op in walk(plan.root) if isinstance(op, PlannedBGP)
        )


def plan_result(plan, graph):
    from repro.semantics.sparql.evaluator import QueryResult

    return QueryResult(plan.form, plan.execute(graph), plan.variables)


def walk(operator):
    yield operator
    for name in ("child", "left", "right"):
        if hasattr(operator, name):
            yield from walk(getattr(operator, name))


def test_federated_variant_owns_the_push_down_rule():
    distinct = parse_query("SELECT DISTINCT ?s WHERE { ?o ex:by ?s } ORDER BY ?s LIMIT 3")
    pushed = federated_variant(distinct)
    assert (pushed.variables, pushed.distinct) == (["s"], True)
    assert (pushed.order_by, pushed.limit, pushed.offset) == (None, None, 0)
    for full in (
        federated_variant(distinct, standing=True),
        federated_variant(parse_query("SELECT ?s WHERE { ?o ex:by ?s } LIMIT 3")),
        federated_variant(
            parse_query("SELECT DISTINCT ?s WHERE { ?o ex:by ?s . OPTIONAL { ?o ex:v ?v } }")
        ),
    ):
        assert (full.variables, full.distinct, full.limit) == ([], False, None)


DISTINCT_QUERIES = [
    """SELECT DISTINCT ?sensor WHERE {
        ?obs ssn:observedBy ?sensor . ?sensor rdf:type ssn:SensingDevice . }""",
    """SELECT DISTINCT ?p WHERE {
        ?obs rdf:type ssn:Observation . ?obs ssn:observedProperty ?p . } ORDER BY ?p""",
    """SELECT DISTINCT ?sensor WHERE {
        ?obs ssn:observedBy ?sensor . ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v .
        FILTER (?v > 24) } ORDER BY DESC(?sensor) LIMIT 4""",
    """SELECT DISTINCT ?sensor WHERE {
        ?obs ssn:observedBy ?sensor . ?obs ssn:observedProperty ?p . }
        ORDER BY ?sensor LIMIT 6 OFFSET 2""",
    """SELECT DISTINCT ?sensor ?p WHERE {
        ?obs ssn:observedBy ?sensor . ?obs ssn:observedProperty ?p . }""",
    # replicated axioms only: every shard ships the same projected rows
    "SELECT DISTINCT ?c WHERE { ?c rdfs:subClassOf ?d . ?d rdfs:subClassOf ssn:Sensor }",
    # OPTIONAL: must stay on full rows for subsumption compensation
    """SELECT DISTINCT ?sensor ?p WHERE {
        ?obs ssn:observedBy ?sensor . OPTIONAL { ?obs ssn:observedProperty ?p } }""",
]


@pytest.mark.parametrize("shards, backend", LAYOUTS)
def test_select_distinct_on_every_layout(shards, backend):
    records = make_stream(random.Random(41), 120)
    reference = build(1, "inline")
    sharded = build(shards, backend)
    try:
        reference.ingest_batch(records)
        sharded.ingest_batch(records)
        for round_ in range(2):
            for text in DISTINCT_QUERIES:
                # every ORDER BY above is total on the distinct rows, so a
                # LIMIT / OFFSET window is one bag on every layout
                expected = query(reference.ontology_layer.graph, text, use_planner=False)
                assert len(expected)
                assert solution_set(reference.query(text)) == solution_set(expected), text
                assert solution_set(sharded.query(text)) == solution_set(expected), text
            # second round: one shard dirty, the others answer from cache
            more = make_stream(random.Random(42), 20)
            reference.ingest_batch(more)
            sharded.ingest_batch(more)
        if shards > 1 and backend == "inline":
            # a partition shipped its distinct projections, not its solutions
            from repro.semantics.sparql.planner import federated_partition_solutions

            graph = sharded.ontology_layer.graphs[0]
            _variables, rows = federated_partition_solutions(graph, DISTINCT_QUERIES[0])
            assert rows and all(set(row) == {Variable("sensor")} for row in rows)
            assert len(rows) == len(set(rows))
            _variables, rows = federated_partition_solutions(graph, DISTINCT_QUERIES[-1])
            assert any(Variable("obs") in row for row in rows)
    finally:
        reference.close()
        sharded.close()
