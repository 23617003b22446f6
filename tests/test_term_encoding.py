"""Randomized encoded-vs-decoded equivalence suite for dictionary encoding.

The graph stores dictionary-encoded ``(int, int, int)`` triples and the
default join loops bind variables to ids; the decoded-object paths —
``query(..., use_planner=False)``, ``BGP(..., use_ids=False)``, the naive
fixpoint of ``naive_fixpoint.py`` over decoded joins and a brute-force
reference store kept in this file — are the oracles.  Random graphs,
random mutation sequences and random SPARQL / rule workloads must produce
identical triples, solutions, statistics and deltas through both
representations.

Dictionary edge cases get their own explicit tests: blank nodes,
language-tagged and datatyped literals that are ``==``-distinct while
string-equal, id stability across mutation and ``clear()``.
"""

import random
from collections import Counter

import pytest

from repro.semantics.rdf.dictionary import TermDictionary
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import Namespace, RDF, RDFS
from repro.semantics.rdf.term import BlankNode, IRI, Literal, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.rules import Rule, RuleEngine
from repro.semantics.sparql.algebra import BGP
from repro.semantics.sparql.bindings import Bindings
from repro.semantics.sparql.evaluator import query, select

from naive_fixpoint import naive_run

EX = Namespace("http://example.org/")


# --------------------------------------------------------------------- #
# dictionary unit behaviour and edge cases
# --------------------------------------------------------------------- #

class TestTermDictionary:
    def test_encode_is_idempotent_and_dense(self):
        d = TermDictionary()
        a = d.encode(EX.a)
        b = d.encode(EX.b)
        assert (a, b) == (0, 1)
        assert d.encode(EX.a) == a
        assert d.encode(IRI("http://example.org/a")) == a  # structural equality
        assert len(d) == 2

    def test_lookup_never_interns(self):
        d = TermDictionary()
        assert d.lookup(EX.a) is None
        assert len(d) == 0
        d.encode(EX.a)
        assert d.lookup(EX.a) == 0

    def test_decode_round_trip(self):
        d = TermDictionary()
        terms = [EX.a, BlankNode("n1"), Literal(3), Literal("x", lang="en")]
        ids = [d.encode(t) for t in terms]
        assert [d.decode(i) for i in ids] == terms

    def test_string_equal_but_distinct_literals_get_distinct_ids(self):
        d = TermDictionary()
        variants = [
            Literal(5),                      # "5"^^xsd:integer
            Literal("5"),                    # "5"^^xsd:string
            Literal("5", lang="en"),         # "5"@en
            Literal("5", datatype=EX.custom),
            IRI("http://example.org/5"),
        ]
        ids = [d.encode(t) for t in variants]
        assert len(set(ids)) == len(variants)
        for term, term_id in zip(variants, ids):
            assert d.decode(term_id) == term

    def test_blank_nodes_encode_by_id(self):
        d = TermDictionary()
        assert d.encode(BlankNode("x")) == d.encode(BlankNode("x"))
        assert d.encode(BlankNode("x")) != d.encode(BlankNode("y"))
        # a blank node and an IRI with the same spelling stay distinct
        assert d.encode(BlankNode("http://example.org/a")) != d.encode(EX.a)

    def test_triple_round_trip(self):
        d = TermDictionary()
        t = Triple(EX.s, EX.p, Literal("v", lang="de"))
        ids = d.encode_triple(t)
        assert d.decode_triple(ids) == t
        assert d.lookup_triple(t) == ids
        assert d.lookup_triple(Triple(EX.s, EX.p, Literal("v"))) is None


class TestGraphIdStability:
    def test_ids_survive_removal_and_clear(self):
        g = Graph()
        t = Triple(EX.s, EX.p, EX.o)
        g.add(t)
        ids = g.dictionary.lookup_triple(t)
        g.remove(t)
        assert g.dictionary.lookup_triple(t) == ids
        g.add(t)
        g.clear()
        assert g.dictionary.lookup_triple(t) == ids
        # re-adding after clear reuses the same ids
        g.add(t)
        assert list(g.triples_ids()) == [ids]

    def test_tracker_journal_decodes_after_later_mutations(self):
        g = Graph()
        tracker = g.track_changes()
        first = Triple(EX.a, EX.p, EX.b)
        g.add(first)
        # mutate further before draining: the append-only dictionary keeps
        # the journalled ids valid
        g.add(Triple(EX.c, EX.p, EX.d))
        g.remove(Triple(EX.c, EX.p, EX.d))
        delta = tracker.drain()
        assert delta.added[0] == first
        assert delta.retracted

    def test_shared_dictionary_set_operations(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, EX.b))
        g.add(Triple(EX.c, EX.p, EX.d))
        copied = g.copy()
        assert copied.dictionary is g.dictionary
        assert set(copied) == set(g)
        other = Graph(dictionary=g.dictionary)
        other.add(Triple(EX.a, EX.p, EX.b))
        assert set(g.difference(other)) == {Triple(EX.c, EX.p, EX.d)}
        assert set(g.intersection(other)) == {Triple(EX.a, EX.p, EX.b)}
        assert set(g.union(other)) == set(g)

    def test_cross_dictionary_set_operations_still_work(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, EX.b))
        other = Graph()  # private dictionary
        other.add(Triple(EX.a, EX.p, EX.b))
        other.add(Triple(EX.x, EX.p, EX.y))
        assert set(g.intersection(other)) == {Triple(EX.a, EX.p, EX.b)}
        assert set(other.difference(g)) == {Triple(EX.x, EX.p, EX.y)}


# --------------------------------------------------------------------- #
# randomized graph-level equivalence against a brute-force store
# --------------------------------------------------------------------- #

class ReferenceStore:
    """Decoded-object oracle: a plain set of triples, scanned per query."""

    def __init__(self):
        self.triples = set()

    def add(self, t):
        self.triples.add(t)

    def remove(self, t):
        self.triples.discard(t)

    def clear(self):
        self.triples.clear()

    def match(self, pattern):
        s, p, o = (None if isinstance(t, Variable) else t for t in pattern)
        return {
            t for t in self.triples
            if (s is None or t.subject == s)
            and (p is None or t.predicate == p)
            and (o is None or t.object == o)
        }


def _random_term(rng, kind=None):
    kind = kind or rng.choice(["iri", "iri", "bnode", "literal"])
    if kind == "iri":
        return EX[f"node{rng.randrange(12)}"]
    if kind == "bnode":
        return BlankNode(f"b{rng.randrange(6)}")
    which = rng.randrange(4)
    if which == 0:
        return Literal(rng.randrange(5))
    if which == 1:
        return Literal(str(rng.randrange(5)))          # string-equal to ints
    if which == 2:
        return Literal(str(rng.randrange(5)), lang="en")
    return Literal(rng.uniform(0, 3))


def _random_triple(rng):
    return Triple(
        _random_term(rng, rng.choice(["iri", "bnode"])),
        EX[f"p{rng.randrange(5)}"],
        _random_term(rng),
    )


@pytest.mark.parametrize("seed", [1, 7, 23, 91])
def test_random_mutations_match_reference(seed):
    rng = random.Random(seed)
    g = Graph()
    ref = ReferenceStore()
    for step in range(300):
        action = rng.random()
        if action < 0.62:
            t = _random_triple(rng)
            assert g.add(t) == (t not in ref.triples)
            ref.add(t)
        elif action < 0.85:
            t = _random_triple(rng)
            assert g.remove(t) == (t in ref.triples)
            ref.remove(t)
        elif action < 0.97:
            pattern = (
                _random_term(rng, "iri") if rng.random() < 0.5 else None,
                EX[f"p{rng.randrange(5)}"] if rng.random() < 0.5 else None,
                _random_term(rng) if rng.random() < 0.5 else None,
            )
            expected = ref.match(pattern)
            assert g.remove_matching(*pattern) == len(expected)
            for t in expected:
                ref.remove(t)
        else:
            g.clear()
            ref.clear()
        if step % 25 == 0:
            _assert_graph_matches_reference(g, ref, rng)
    _assert_graph_matches_reference(g, ref, rng)


def _assert_graph_matches_reference(g, ref, rng):
    assert len(g) == len(ref.triples)
    assert set(g) == ref.triples
    for _ in range(15):
        pattern = (
            _random_term(rng) if rng.random() < 0.5 else None,
            EX[f"p{rng.randrange(5)}"] if rng.random() < 0.5 else None,
            _random_term(rng) if rng.random() < 0.5 else None,
        )
        expected = ref.match(pattern)
        assert set(g.triples(pattern)) == expected
        assert g.pattern_cardinality(pattern) == len(expected)
    # maintained statistics vs enumeration
    for p_index in range(5):
        p = EX[f"p{p_index}"]
        with_p = [t for t in ref.triples if t.predicate == p]
        assert g.predicate_cardinality(p) == len(with_p)
        assert g.distinct_subjects_count(p) == len({t.subject for t in with_p})
        assert g.distinct_objects_count(p) == len({t.object for t in with_p})
    assert g.distinct_subjects_count() == len({t.subject for t in ref.triples})
    assert g.distinct_predicates_count() == len({t.predicate for t in ref.triples})
    # membership for present and absent triples
    present = list(ref.triples)[:10]
    for t in present:
        assert t in g
    assert Triple(EX.never, EX.seen, EX.before) not in g


# --------------------------------------------------------------------- #
# randomized SPARQL equivalence: encoded joins vs decoded oracle
# --------------------------------------------------------------------- #

def _random_workload_graph(rng, size):
    g = Graph()
    g.namespaces.bind("ex", EX)
    for _ in range(size):
        g.add(_random_triple(rng))
    return g


def _random_query_text(rng):
    variables = ["?a", "?b", "?c"]

    def term(allow_var=True):
        if allow_var and rng.random() < 0.55:
            return rng.choice(variables)
        return f"ex:node{rng.randrange(12)}"

    patterns = []
    for _ in range(rng.randrange(1, 4)):
        patterns.append(
            f"{term()} ex:p{rng.randrange(5)} {term()} ."
        )
    optional = ""
    if rng.random() < 0.4:
        optional = f"OPTIONAL {{ ?a ex:p{rng.randrange(5)} ?opt . }}"
    filt = ""
    if rng.random() < 0.35:
        filt = f"FILTER (?a != ex:node{rng.randrange(12)})"
    body = "\n".join(patterns)
    return f"SELECT * WHERE {{ {body} {optional} {filt} }}"


@pytest.mark.parametrize("seed", [3, 19, 57])
def test_random_queries_encoded_equals_decoded(seed):
    rng = random.Random(seed)
    graph = _random_workload_graph(rng, 150)
    for _ in range(25):
        text = _random_query_text(rng)
        planned = query(graph, text)                    # encoded id joins
        oracle = query(graph, text, use_planner=False)  # decoded objects
        assert Counter(planned.solutions) == Counter(oracle.solutions), text


@pytest.mark.parametrize("seed", [5, 41])
def test_random_bgp_use_ids_flag_equivalence(seed):
    rng = random.Random(seed)
    graph = _random_workload_graph(rng, 120)
    v = [Variable("x"), Variable("y"), Variable("z")]
    for _ in range(40):
        patterns = []
        for _ in range(rng.randrange(1, 4)):
            patterns.append(Triple(
                rng.choice(v) if rng.random() < 0.6 else _random_term(rng, "iri"),
                rng.choice(v) if rng.random() < 0.3 else EX[f"p{rng.randrange(5)}"],
                rng.choice(v) if rng.random() < 0.6 else _random_term(rng),
            ))
        encoded = Counter(BGP(patterns, use_ids=True).solutions(graph))
        decoded = Counter(BGP(patterns, use_ids=False).solutions(graph))
        assert encoded == decoded
        # seeded entry point (the rule engine's join path)
        seed_bindings = Bindings({v[0]: _random_term(rng, "iri")})
        encoded_seeded = Counter(
            BGP(patterns, use_ids=True).solutions_from(graph, seed_bindings)
        )
        decoded_seeded = Counter(
            BGP(patterns, use_ids=False).solutions_from(graph, seed_bindings)
        )
        assert encoded_seeded == decoded_seeded


def test_seeded_join_passes_through_foreign_bindings():
    g = Graph()
    g.add(Triple(EX.a, EX.p, EX.b))
    x, other = Variable("x"), Variable("other")
    bgp = BGP([Triple(x, EX.p, EX.b)])
    # ?other is not mentioned by the pattern and its term was never
    # interned; it must pass through untouched (decoded path semantics)
    seeded = list(bgp.solutions_from(g, Bindings({other: EX.unseen})))
    assert seeded == [Bindings({x: EX.a, other: EX.unseen})]
    # a never-interned term bound to a variable the pattern *does* use
    # means no solutions on both paths
    assert list(bgp.solutions_from(g, Bindings({x: EX.unseen}))) == []
    assert list(
        BGP([Triple(x, EX.p, EX.b)], use_ids=False).solutions_from(
            g, Bindings({x: EX.unseen})
        )
    ) == []


def test_select_planned_vs_oracle_on_encoded_graph():
    rng = random.Random(11)
    graph = _random_workload_graph(rng, 100)
    x, y = Variable("x"), Variable("y")
    patterns = [
        Triple(x, EX.p0, y),
        Triple(y, EX.p1, Variable("z")),
    ]
    planned = select(graph, patterns)
    oracle = select(graph, patterns, use_planner=False)
    assert Counter(planned.solutions) == Counter(oracle.solutions)


# --------------------------------------------------------------------- #
# randomized rule-engine equivalence: encoded vs decoded, incremental
# --------------------------------------------------------------------- #

def _random_rules(rng):
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    rules = [
        Rule(
            "chain",
            body=[Triple(x, EX.p0, y), Triple(y, EX.p0, z)],
            head=[Triple(x, EX.derived, z)],
        ),
        Rule(
            "type-prop",
            body=[Triple(x, RDF.type, y), Triple(y, RDFS.subClassOf, z)],
            head=[Triple(x, RDF.type, z)],
        ),
        Rule(
            "wildcard-pred",
            body=[Triple(x, Variable("p"), y), Triple(Variable("p"), EX.marked, EX.yes)],
            head=[Triple(x, EX.flagged, y)],
            guard=lambda b: not isinstance(b.get(Variable("y")), Literal),
        ),
    ]
    return rng.sample(rules, k=rng.randrange(1, len(rules) + 1))


def _rules_workload(rng, size):
    g = Graph()
    classes = [EX[f"C{i}"] for i in range(4)]
    for i in range(3):
        g.add(Triple(classes[i], RDFS.subClassOf, classes[i + 1]))
    g.add(Triple(EX.p0, EX.marked, EX.yes))
    for _ in range(size):
        g.add(_random_triple(rng))
        if rng.random() < 0.3:
            g.add(Triple(EX[f"node{rng.randrange(12)}"], RDF.type, rng.choice(classes)))
    return g


@pytest.mark.parametrize("seed", [2, 29, 83])
def test_rule_engine_encoded_equals_decoded(seed):
    rng = random.Random(seed)
    rules = _random_rules(rng)

    encoded_graph = _rules_workload(random.Random(seed + 1), 60)
    decoded_graph = _rules_workload(random.Random(seed + 1), 60)
    assert set(encoded_graph) == set(decoded_graph)

    encoded_trace = naive_run(rules, encoded_graph, use_ids=True)
    decoded_trace = naive_run(rules, decoded_graph, use_ids=False)
    assert set(encoded_graph) == set(decoded_graph)
    assert encoded_trace.inferred == decoded_trace.inferred
    assert encoded_trace.by_rule == decoded_trace.by_rule

    # the engine's semi-naive run from the whole store reaches the same
    # closure; a triple two rules derive may be credited to either, as the
    # round order differs, so by_rule is not compared
    engine_graph = _rules_workload(random.Random(seed + 1), 60)
    engine_trace = RuleEngine(rules).run(engine_graph)
    assert set(engine_graph) == set(decoded_graph)
    assert engine_trace.inferred == decoded_trace.inferred


@pytest.mark.parametrize("seed", [13, 67])
def test_incremental_encoded_equals_full_decoded(seed):
    rng = random.Random(seed)
    rules = _random_rules(rng)

    incremental_graph = _rules_workload(random.Random(seed + 1), 40)
    full_graph = _rules_workload(random.Random(seed + 1), 40)

    engine = RuleEngine(rules)
    engine.run(incremental_graph)
    naive_run(rules, full_graph, use_ids=False)
    assert set(incremental_graph) == set(full_graph)

    # grow both graphs with the same delta; close one incrementally over
    # encoded joins, the other from scratch over decoded joins
    delta = []
    delta_rng = random.Random(seed + 2)
    for _ in range(15):
        t = _random_triple(delta_rng)
        if incremental_graph.add(t):
            delta.append(incremental_graph.dictionary.lookup_triple(t))
        full_graph.add(t)
    engine.run(incremental_graph, delta)
    naive_run(rules, full_graph, use_ids=False)
    assert set(incremental_graph) == set(full_graph)


# --------------------------------------------------------------------- #
# delta journal equivalence
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("seed", [17, 53])
def test_tracker_delta_matches_actual_insertions(seed):
    rng = random.Random(seed)
    g = Graph()
    tracker = g.track_changes()
    inserted = []
    for _ in range(120):
        t = _random_triple(rng)
        if rng.random() < 0.85:
            if g.add(t):
                inserted.append(t)
        else:
            g.remove(t)
    delta = tracker.drain()
    assert delta.added == inserted
    assert delta.added_ids == [g.dictionary.lookup_triple(t) for t in inserted]
