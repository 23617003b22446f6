"""Randomized equivalence: incremental vs. from-scratch materialisation.

The incremental (semi-naive, delta-seeded) reasoner must produce exactly
the same closure as the naive from-scratch fixpoint
(``naive_fixpoint.py``) over any sequence of add-batches.  Each case
generates a random mix of ontology axioms (subclass / subproperty /
equivalence / domain / range / property characteristics / sameAs),
instance data and literal-valued indicator sightings, feeds it to one
reasoner batch by batch (incremental top-up after every batch) and to the
naive oracle from scratch, and compares the resulting graphs triple for
triple.  IK-style rules with numeric guards are registered on both sides.
"""

import random

import pytest

from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import Namespace, OWL, RDF, RDFS
from repro.semantics.rdf.term import BlankNode, Literal, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.reasoner import Reasoner
from repro.semantics.rules import Rule, RuleEngine

from naive_fixpoint import naive_run, reasoner_closure

EX = Namespace("http://example.org/inc/")

CLASSES = [EX[f"Class{i}"] for i in range(6)]
PROPERTIES = [EX[f"prop{i}"] for i in range(4)]
INDIVIDUALS = [EX[f"ind{i}"] for i in range(8)]


def ik_rules():
    """IK-indicator style rules, including a numeric guard."""
    s, v, o = Variable("s"), Variable("v"), Variable("o")
    return [
        Rule(
            "ik-strong-sighting",
            body=[Triple(s, EX.sightingIntensity, v)],
            head=[Triple(s, RDF.type, EX.DryConditionIndication)],
            guard=lambda b: b[Variable("v")].to_python() >= 0.5,
        ),
        Rule(
            "ik-corroborated",
            body=[
                Triple(s, RDF.type, EX.DryConditionIndication),
                Triple(s, EX.reportedBy, o),
                Triple(o, RDF.type, EX.TrustedObserver),
            ],
            head=[Triple(s, RDF.type, EX.CorroboratedIndication)],
        ),
    ]


def random_triple(rng: random.Random) -> Triple:
    roll = rng.random()
    if roll < 0.12:
        return Triple(rng.choice(CLASSES), RDFS.subClassOf, rng.choice(CLASSES))
    if roll < 0.18:
        return Triple(rng.choice(CLASSES), OWL.equivalentClass, rng.choice(CLASSES))
    if roll < 0.24:
        return Triple(rng.choice(PROPERTIES), RDFS.subPropertyOf, rng.choice(PROPERTIES))
    if roll < 0.30:
        return Triple(rng.choice(PROPERTIES), RDFS.domain, rng.choice(CLASSES))
    if roll < 0.36:
        return Triple(rng.choice(PROPERTIES), RDFS.range, rng.choice(CLASSES))
    if roll < 0.40:
        return Triple(rng.choice(PROPERTIES), OWL.inverseOf, rng.choice(PROPERTIES))
    if roll < 0.44:
        return Triple(
            rng.choice(PROPERTIES),
            RDF.type,
            rng.choice([OWL.SymmetricProperty, OWL.TransitiveProperty]),
        )
    if roll < 0.50:
        return Triple(rng.choice(INDIVIDUALS), OWL.sameAs, rng.choice(INDIVIDUALS))
    if roll < 0.62:
        return Triple(rng.choice(INDIVIDUALS), RDF.type, rng.choice(CLASSES))
    if roll < 0.80:
        return Triple(rng.choice(INDIVIDUALS), rng.choice(PROPERTIES), rng.choice(INDIVIDUALS))
    if roll < 0.90:
        return Triple(
            rng.choice(INDIVIDUALS),
            EX.sightingIntensity,
            Literal(round(rng.random(), 2)),
        )
    if roll < 0.96:
        return Triple(rng.choice(INDIVIDUALS), EX.reportedBy, rng.choice(INDIVIDUALS))
    return Triple(rng.choice(INDIVIDUALS), RDF.type, EX.TrustedObserver)


def random_batches(rng: random.Random):
    return [
        [random_triple(rng) for _ in range(rng.randint(1, 8))]
        for _ in range(rng.randint(2, 5))
    ]


@pytest.mark.parametrize("seed", range(20))
def test_incremental_matches_from_scratch(seed):
    rng = random.Random(seed)
    batches = random_batches(rng)

    incremental_graph = Graph()
    incremental = Reasoner(incremental_graph, extra_rules=ik_rules())
    asserted = []
    for batch in batches:
        asserted.extend(batch)
        incremental_graph.add_all(batch)
        incremental.ensure_materialized()

        oracle_graph = Graph()
        oracle_graph.add_all(asserted)
        reasoner_closure(oracle_graph, ik_rules())
        assert set(incremental_graph) == set(oracle_graph)


@pytest.mark.parametrize("seed", range(5))
def test_incremental_matches_explicit_materialize_calls(seed):
    """materialize() (not just ensure_materialized) also tops up correctly."""
    rng = random.Random(1000 + seed)
    batches = random_batches(rng)

    incremental_graph = Graph()
    incremental = Reasoner(incremental_graph, extra_rules=ik_rules())
    asserted = []
    for batch in batches:
        asserted.extend(batch)
        incremental_graph.add_all(batch)
        incremental.materialize()

    oracle_graph = Graph()
    oracle_graph.add_all(asserted)
    reasoner_closure(oracle_graph, ik_rules())
    assert set(incremental_graph) == set(oracle_graph)


def test_single_batch_closure_matches_unified_ontology_growth():
    """Annotation-shaped triples over the real unified ontology converge."""
    from repro.core.annotation import SemanticAnnotator
    from repro.core.mediator import Mediator
    from repro.ontologies import build_unified_ontology
    from repro.streams.messages import ObservationRecord

    library = build_unified_ontology(materialize=False)
    graph = library.graph
    baseline = graph.copy()
    reasoner = Reasoner(graph)
    reasoner.materialize()

    annotator = SemanticAnnotator(graph)
    mediator = Mediator()
    observations = []
    for index in range(40):
        outcome = mediator.mediate(ObservationRecord(
            source_id=f"mote-{index % 4}", source_kind="wsn_mote",
            property_name="Bodenfeuchte", value=5.0 + index, unit="percent",
            timestamp=float(index * 3600), location=(-29.1, 26.2),
        ))
        observations.append(outcome.observation)
    annotator.annotate_batch(observations)
    reasoner.ensure_materialized()

    oracle = baseline
    oracle_annotator = SemanticAnnotator(oracle)
    oracle_annotator.annotate_batch(observations)
    reasoner_closure(oracle)
    assert set(graph) == set(oracle)


def test_topup_fires_rules_whose_body_predicate_the_same_topup_interned():
    """A head constant interned mid-top-up is a later round's body predicate.

    The graph has never held ``rdfs:subClassOf`` when the equivalence
    axiom arrives; the top-up's first round derives the mutual subclass
    triples, and rdfs9 / rdfs11 must fire on them in the next round.
    """
    graph = Graph()
    reasoner = Reasoner(graph)
    graph.add(Triple(EX.ind0, RDF.type, EX.Class0))
    reasoner.materialize()
    assert graph.dictionary.lookup(RDFS.subClassOf) is None

    graph.add(Triple(EX.Class0, OWL.equivalentClass, EX.Class1))
    trace = reasoner.materialize()
    assert trace.iterations > 1
    assert trace.by_rule["rdfs9-type-propagation"] == 1
    assert trace.by_rule["rdfs11-subclass-transitivity"] == 2
    assert Triple(EX.ind0, RDF.type, EX.Class1) in graph

    oracle = Graph()
    oracle.add(Triple(EX.ind0, RDF.type, EX.Class0))
    oracle.add(Triple(EX.Class0, OWL.equivalentClass, EX.Class1))
    reasoner_closure(oracle)
    assert set(graph) == set(oracle)


def _triples_built(monkeypatch, action) -> int:
    """How many :class:`Triple` objects ``action()`` builds."""
    built = []
    real_init = Triple.__init__

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(Triple, "__init__", counting_init)
    try:
        action()
    finally:
        monkeypatch.undo()
    return len(built)


def test_shard_topup_builds_no_triple_objects(monkeypatch):
    """Neither the first full run, at any store size, nor a one-shard
    top-up over a 40-record poll builds a Triple: both stay in id space."""
    from test_process_backend import build
    from test_sharding import make_stream

    records = make_stream(random.Random(40), 120)
    full_run_built = []
    for size in (40, 80):
        middleware = build(1, "inline")
        try:
            middleware.ingest_batch(records[:size])
            shard = middleware.ontology_layer._backend.shards[0]
            # what the first entailment query runs: the full fixpoint
            full_run_built.append(_triples_built(monkeypatch, shard.reason))
            assert shard.reasoner.last_trace.inferred > 0
            if size == 80:
                middleware.ingest_batch(records[80:])
                assert _triples_built(monkeypatch, shard.reason) == 0
                assert shard.reasoner.last_trace.inferred > 0
        finally:
            middleware.close()
    assert full_run_built == [0, 0]


# random rule shapes: repeated variables inside an atom, ground atoms,
# constants the graph has never stored, and heads that would put a literal
# or blank node where RDF forbids it
SHAPE_VARS = [Variable(name) for name in "abcd"]
SHAPE_NODES = [EX[f"n{i}"] for i in range(5)] + [BlankNode(f"shape{i}") for i in range(2)]
SHAPE_PREDICATES = [EX[f"q{i}"] for i in range(3)]
SHAPE_OBJECTS = SHAPE_NODES + SHAPE_PREDICATES + [Literal(0), Literal(1)]


def random_shape_rule(rng: random.Random, name: str) -> Rule:
    pools = (SHAPE_NODES, SHAPE_PREDICATES + [EX.neverStored], SHAPE_OBJECTS)
    while True:
        body = [
            Triple(*(
                rng.choice(SHAPE_VARS) if rng.random() < 0.6 else rng.choice(pool)
                for pool in pools
            ))
            for _ in range(rng.randint(1, 3))
        ]
        body_vars = [var for atom in body for var in atom.variables()]
        if not body_vars:
            continue
        head = []
        for _ in range(rng.randint(1, 2)):
            terms = [
                rng.choice(body_vars) if rng.random() < 0.7 else rng.choice(pool)
                for pool in (SHAPE_NODES, SHAPE_PREDICATES + [EX.headOnly], SHAPE_OBJECTS)
            ]
            try:
                head.append(Triple(*terms))
            except TypeError:
                continue
        if head:
            return Rule(name, body=body, head=head)


@pytest.mark.parametrize("seed", range(60))
def test_incremental_matches_naive_run_on_random_rule_shapes(seed):
    rng = random.Random(seed)
    rules = [random_shape_rule(rng, f"shape{k}") for k in range(rng.randint(1, 4))]

    def random_fact():
        return Triple(
            rng.choice(SHAPE_NODES), rng.choice(SHAPE_PREDICATES), rng.choice(SHAPE_OBJECTS)
        )

    base = [random_fact() for _ in range(rng.randint(0, 12))]
    delta = [random_fact() for _ in range(rng.randint(1, 8))]

    graph = Graph()
    graph.add_all(base)
    engine = RuleEngine(rules)
    engine.run(graph)
    added = [graph.dictionary.lookup_triple(t) for t in delta if graph.add(t)]
    engine.run(graph, added)

    oracle = Graph()
    oracle.add_all(base + delta)
    naive_run(rules, oracle, use_ids=False)
    assert set(graph) == set(oracle)
