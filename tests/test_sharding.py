"""Sharded per-area partitions vs the single-graph oracle.

The single shared graph (``shards=1``) is the correctness oracle of the
sharded ontology segment layer: for any record stream, a ``shards=N``
deployment must produce the same canonical events (including minted
annotation IRIs), the same derived events, and — through the scatter-gather
federator — the same decoded solution *bags* (row multisets) for every in-contract SPARQL
and entailment query.  The randomized suite drives both configurations with
the same mixed streams (valid observations, IK sightings, unresolvable and
invalid records, multiple districts) and compares everything observable.

Unit tests cover the pieces: the stable router, axiom replication and
cross-dictionary bulk loads, federated modifier semantics (DISTINCT /
ORDER BY / LIMIT / OFFSET / ASK), per-shard cache survival, and the
multi-graph service registry.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.core.shard_router import ShardRouter
from repro.ontologies.library import build_unified_ontology
from repro.ontologies.vocabulary import AFRICRID
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import RDF, Namespace
from repro.semantics.rdf.sharding import build_partitions
from repro.semantics.rdf.term import IRI, Literal
from repro.semantics.rdf.triple import Triple
from repro.semantics.sparql.planner import federated_query, planner_for
from repro.streams.messages import ObservationRecord

EX = Namespace("http://example.org/")

DISTRICTS = ["thabo", "mangaung", "xhariep", "lejwe", "fezile", "matjhabeng"]
PROPERTIES = [
    ("soil moisture", "percent", 20.0),
    ("rainfall", "mm", 3.0),
    ("air temperature", "degC", 18.0),
    ("relative humidity", "percent", 50.0),
]
SIGHTINGS = ["sifennefene_worms", "mutiga_tree_flowering", "aloe_profuse_bloom"]


# --------------------------------------------------------------------- #
# workload generation
# --------------------------------------------------------------------- #


def make_stream(rng: random.Random, count: int):
    """A mixed raw-record stream: observations, sightings, junk."""
    records = []
    for index in range(count):
        district = rng.choice(DISTRICTS)
        roll = rng.random()
        if roll < 0.08:
            records.append(
                ObservationRecord(
                    source_id=f"{district}-observer-{rng.randrange(3):02d}",
                    source_kind="ik_sighting",
                    property_name=rng.choice(SIGHTINGS),
                    value=rng.choice([0.5, 1.0]),
                    unit=None,
                    timestamp=600.0 * index,
                    metadata={"area": district},
                )
            )
            continue
        name, unit, base = rng.choice(PROPERTIES)
        value = base + rng.randrange(12)
        if roll < 0.13:
            name = "flux capacitance"  # unresolvable term -> mediate drop
        elif roll < 0.18:
            value = math.nan  # validate drop
        records.append(
            ObservationRecord(
                source_id=f"{district}-mote-{rng.randrange(5):02d}",
                source_kind="wsn_mote",
                property_name=name,
                value=value,
                unit=unit,
                timestamp=600.0 * index,
                location=(rng.uniform(-30, -28), rng.uniform(26, 28)),
                metadata={"area": district},
            )
        )
    return records


def build_middleware(shards: int, **config_kwargs) -> SemanticMiddleware:
    """A middleware over a *fresh* library (sharding replicates the base
    graph at construction, so configurations must not share a mutated
    library)."""
    return SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(shards=shards, **config_kwargs),
    )


def event_key(event):
    return (
        event.event_type,
        event.value,
        event.timestamp,
        event.source_id,
        event.area,
        event.annotation_iri,
    )


def solution_set(result):
    """Comparable form of a query result: row *multiset* (bag semantics).

    The federated gather matches the single-graph oracle row-for-row
    including duplicate multiplicities, so the comparison is a Counter,
    not a set.  ASK compares the boolean only — the witness solution is an
    implementation detail (the federator short-circuits on the first
    matching partition).
    """
    if result.form == "ASK":
        return result.ask
    return Counter(
        frozenset((var.name, str(term)) for var, term in solution.items())
        for solution in result.solutions
    )


QUERIES = [
    # unselective scan + filter
    """SELECT ?obs ?v WHERE {
        ?obs rdf:type ssn:Observation .
        ?obs ssn:hasResult ?r .
        ?r ssn:hasValue ?v .
        FILTER (?v > 24)
    }""",
    # join through the sensor, distinct
    """SELECT DISTINCT ?sensor WHERE {
        ?obs ssn:observedBy ?sensor .
        ?sensor rdf:type ssn:SensingDevice .
    }""",
    # OPTIONAL co-located within one observation
    """SELECT ?obs ?p WHERE {
        ?obs rdf:type ssn:Observation .
        OPTIONAL { ?obs ssn:observedProperty ?p }
    }""",
    # IK sightings with reporter
    """SELECT ?s ?who WHERE {
        ?s rdf:type ik:IndicatorSighting .
        ?s ik:reportedBy ?who .
    }""",
    # replicated-axiom-only query (matches in every shard; must collapse)
    """SELECT ?c WHERE { ?c rdfs:subClassOf ssn:Sensor }""",
    # ASK over instance data
    """ASK WHERE { ?s rdf:type ik:IndicatorSighting }""",
]

ENTAIL_QUERIES = [
    # rdfs9 over the SSN hierarchy: observations via subclass propagation
    """SELECT DISTINCT ?sensor WHERE { ?sensor rdf:type ssn:Sensor }""",
    """ASK WHERE { ?x rdf:type ik:IndigenousIndicator }""",
]


def area_query(district: str) -> str:
    feature = AFRICRID[f"feature/{district}"].value
    return f"""SELECT ?obs ?v WHERE {{
        ?obs ssn:featureOfInterest <{feature}> .
        ?obs ssn:hasResult ?r .
        ?r ssn:hasValue ?v .
    }}"""


# --------------------------------------------------------------------- #
# the randomized equivalence suite
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sharded_matches_single_graph_randomized(seed):
    rng = random.Random(seed)
    single = build_middleware(shards=1, cep_per_record=True)
    sharded = build_middleware(shards=4, cep_per_record=True)

    derived_single, derived_sharded = [], []
    single.ontology_layer.cep.on_derived_event(derived_single.append)
    sharded.ontology_layer.cep.on_derived_event(derived_sharded.append)

    # several batches so partitions accumulate state between queries
    for _ in range(3):
        batch = make_stream(rng, 120)
        events_single = single.ingest_batch(batch)
        events_sharded = sharded.ingest_batch(batch)
        assert [event_key(e) for e in events_single] == [
            event_key(e) for e in events_sharded
        ]

    assert [event_key(e) for e in derived_single] == [
        event_key(e) for e in derived_sharded
    ]

    for query_text in QUERIES + [area_query(d) for d in DISTRICTS[:3]]:
        result_single = single.query(query_text)
        result_sharded = sharded.query(query_text)
        assert result_single.form == result_sharded.form
        assert solution_set(result_single) == solution_set(result_sharded), query_text

    for query_text in ENTAIL_QUERIES:
        result_single = single.query(query_text, entail=True)
        result_sharded = sharded.query(query_text, entail=True)
        assert solution_set(result_single) == solution_set(result_sharded), query_text


def test_sharded_record_major_matches_batch():
    """ingest_record must equal ingest_batch on the sharded layer."""
    rng = random.Random(7)
    batch = make_stream(rng, 90)
    by_batch = build_middleware(shards=3, cep_per_record=False)
    by_record = build_middleware(shards=3, cep_per_record=False)
    events_batch = by_batch.ingest_batch(batch)
    events_record = [by_record.ingest_record(record) for record in batch]
    assert [event_key(e) for e in events_batch] == [
        event_key(e) for e in events_record if e is not None
    ]
    for query_text in QUERIES[:4]:
        assert solution_set(by_batch.query(query_text)) == solution_set(
            by_record.query(query_text)
        )


def test_sharded_reason_per_batch_matches_single():
    """Per-shard incremental closure top-ups equal the single-graph run."""
    rng = random.Random(11)
    single = build_middleware(shards=1, cep_per_record=False, reason_per_batch=True)
    sharded = build_middleware(shards=4, cep_per_record=False, reason_per_batch=True)
    for _ in range(2):
        batch = make_stream(rng, 80)
        single.ingest_batch(batch)
        sharded.ingest_batch(batch)
    for query_text in ENTAIL_QUERIES + QUERIES[:3]:
        assert solution_set(single.query(query_text, entail=True)) == solution_set(
            sharded.query(query_text, entail=True)
        ), query_text


# --------------------------------------------------------------------- #
# router and store units
# --------------------------------------------------------------------- #


def test_router_is_stable_and_in_range():
    router = ShardRouter(4)
    for area in DISTRICTS + [None, "", "Bloemfontein", "unknown-17"]:
        shard = router.shard_for(area)
        assert 0 <= shard < 4
        assert shard == router.shard_for(area)
        assert shard == ShardRouter(4).shard_for(area)  # process-stable
    assert router.shard_for(None) == router.shard_for("")
    assert ShardRouter(1).shard_for("anything") == 0
    with pytest.raises(ValueError):
        ShardRouter(0)


def test_router_split_preserves_order():
    router = ShardRouter(3)
    items = [(DISTRICTS[i % len(DISTRICTS)], i) for i in range(30)]
    groups = router.split(items)
    assert sorted(x for bucket in groups.values() for x in bucket) == list(range(30))
    for shard, bucket in groups.items():
        assert bucket == sorted(bucket)  # arrival order within a shard
        for value in bucket:
            assert router.shard_for(DISTRICTS[value % len(DISTRICTS)]) == shard


def test_partitions_replicate_axioms_into_every_shard():
    base = Graph()
    base.namespaces.bind("ex", EX)
    axioms = [
        Triple(EX.A, EX.subClassOf, EX.B),
        Triple(EX.B, EX.subClassOf, EX.C),
    ]
    base.add_all(axioms)
    graphs, replicated = build_partitions(3, base)
    assert len(graphs) == 3 and replicated == 2
    assert len(base) == 2  # the axiom base itself is not touched
    dictionaries = {id(graph.dictionary) for graph in graphs}
    assert len(dictionaries) == 3 and id(base.dictionary) not in dictionaries
    for graph in graphs:
        assert graph.namespaces is not base.namespaces
        assert graph.namespaces.expand("ex:A") == EX.A
        for axiom in axioms:
            assert axiom in graph
    # per-shard writes stay local
    graphs[ShardRouter(3).shard_for("somewhere")].add(Triple(EX.x, EX.p, EX.y))
    assert sum(Triple(EX.x, EX.p, EX.y) in g for g in graphs) == 1
    assert sum(len(g) for g in graphs) == 3 * 2 + 1
    union = Graph()
    for graph in graphs:
        union.add_from(graph)
    assert len(union) == 3  # replicated axioms collapse in a union
    assert Triple(EX.x, EX.p, EX.y) in union


def test_graph_add_from_cross_dictionary():
    source = Graph()
    for i in range(5):
        source.add(Triple(EX[f"s{i}"], EX.p, Literal(float(i))))
    target = Graph()
    target.add(Triple(EX.s0, EX.p, Literal(0.0)))  # overlap dedupes
    added = target.add_from(source)
    assert added == 4
    assert len(target) == 5
    assert set(target) == set(source)
    # shared-dictionary fast path
    sibling = Graph(dictionary=source.dictionary)
    assert sibling.add_from(source) == 5
    assert set(sibling) == set(source)


# --------------------------------------------------------------------- #
# federated query semantics
# --------------------------------------------------------------------- #


def _partitioned_graphs():
    """Two partitions with one replicated triple and disjoint instance data."""
    left, right = Graph(), Graph()
    for graph in (left, right):
        graph.namespaces.bind("ex", EX)
        graph.add(Triple(EX.Shared, EX.kind, EX.Axiom))
    for i in range(4):
        left.add(Triple(EX[f"l{i}"], EX.score, Literal(float(i))))
        right.add(Triple(EX[f"r{i}"], EX.score, Literal(float(i) + 0.5)))
    return left, right


def test_federated_collapses_replicated_solutions():
    left, right = _partitioned_graphs()
    result = federated_query([left, right], "SELECT ?s WHERE { ?s ex:kind ex:Axiom }")
    assert [str(row["s"]) for row in result.rows] == [EX.Shared.value]


def test_federated_order_limit_offset_are_global():
    left, right = _partitioned_graphs()
    text = "SELECT ?s ?v WHERE { ?s ex:score ?v } ORDER BY DESC(?v) LIMIT 3 OFFSET 1"
    result = federated_query([left, right], text)
    values = [row["v"].to_python() for row in result.rows]
    assert values == [3.0, 2.5, 2.0]  # global top-8 minus offset, not per-shard
    # no modifiers: merged set is the union
    full = federated_query([left, right], "SELECT ?v WHERE { ?s ex:score ?v }")
    assert len(full) == 8


def test_federated_ask_short_circuits():
    left, right = _partitioned_graphs()
    right.add(Triple(EX.only_right, EX.flag, Literal(1.0)))
    assert federated_query([left, right], "ASK WHERE { ?s ex:flag ?v }").ask
    assert not federated_query([left, right], "ASK WHERE { ?s ex:missing ?v }").ask


def test_federated_single_graph_passthrough():
    left, _ = _partitioned_graphs()
    text = "SELECT ?s WHERE { ?s ex:kind ex:Axiom }"
    assert solution_set(federated_query([left], text)) == solution_set(
        planner_for(left).query(left, text)
    )
    with pytest.raises(ValueError):
        federated_query([], text)


def test_untouched_partition_served_from_result_cache():
    """A write to one partition must not evict the other's cached results."""
    left, right = _partitioned_graphs()
    text = "SELECT ?s ?v WHERE { ?s ex:score ?v }"
    federated_query([left, right], text)
    hits_before = planner_for(right).statistics.result_hits
    left.add(Triple(EX.l9, EX.score, Literal(9.0)))  # touches left only
    result = federated_query([left, right], text)
    assert planner_for(right).statistics.result_hits == hits_before + 1
    assert len(result) == 9
    # the left partition re-evaluated (its version moved), so the new
    # solution is visible
    assert any(row["s"] == EX.l9 for row in result.rows)


def test_federated_optional_drops_spurious_unbound_rows():
    """A partition whose axioms satisfy the required pattern but whose data
    cannot extend the OPTIONAL must not leak the pass-through row when
    another partition extends it (left-join compensation)."""
    left, right = _partitioned_graphs()
    left.add(Triple(EX.obs1, EX.within, EX.Shared))
    text = """SELECT ?k ?o WHERE {
        ex:Shared ex:kind ?k . OPTIONAL { ?o ex:within ex:Shared }
    }"""
    result = federated_query([left, right], text)
    # the oracle over the union graph binds ?o; the unbound row from the
    # right partition (axioms only) is a federation artifact
    rows = result.rows
    assert len(rows) == 1 and str(rows[0]["o"]) == EX.obs1.value
    # a genuinely unextendable required row keeps its pass-through
    left.add(Triple(EX.Lonely, EX.kind, EX.Axiom))
    lonely = federated_query(
        [left, right],
        """SELECT ?s ?o WHERE { ?s ex:kind ex:Axiom .
            OPTIONAL { ?o ex:within ?s } }""",
    )
    by_subject = {str(row["s"]): row for row in lonely.rows}
    assert str(by_subject[EX.Shared.value]["o"]) == EX.obs1.value
    assert "o" not in by_subject[EX.Lonely.value]
    # projection hiding the distinguishing variable keeps both oracle rows
    projected = federated_query(
        [left, right],
        """SELECT ?o WHERE { ?s ex:kind ex:Axiom . OPTIONAL { ?o ex:within ?s } }""",
    )
    assert solution_set(projected) == Counter(
        [frozenset({("o", EX.obs1.value)}), frozenset()]
    )


def test_federated_optional_with_order_and_limit():
    left, right = _partitioned_graphs()
    text = """SELECT ?s ?v WHERE { ?s ex:score ?v .
        OPTIONAL { ?s ex:kind ?k } } ORDER BY DESC(?v) LIMIT 2"""
    result = federated_query([left, right], text)
    assert [row["v"].to_python() for row in result.rows] == [3.5, 3.0]


def test_federated_limit_query_uses_per_shard_result_caches():
    """The modifier-stripped per-shard sets are result-cached too."""
    left, right = _partitioned_graphs()
    text = "SELECT ?s ?v WHERE { ?s ex:score ?v } ORDER BY DESC(?v) LIMIT 3"
    first = federated_query([left, right], text)
    hits = (
        planner_for(left).statistics.result_hits
        + planner_for(right).statistics.result_hits
    )
    again = federated_query([left, right], text)
    assert (
        planner_for(left).statistics.result_hits
        + planner_for(right).statistics.result_hits
        == hits + 2
    )
    assert [row["v"].to_python() for row in again.rows] == [
        row["v"].to_python() for row in first.rows
    ]
    # a write re-evaluates only the touched partition and refreshes the cut
    left.add(Triple(EX.l9, EX.score, Literal(9.0)))
    refreshed = federated_query([left, right], text)
    assert [row["v"].to_python() for row in refreshed.rows] == [9.0, 3.5, 3.0]


def test_sharded_layer_cache_survives_other_district_ingest():
    middleware = build_middleware(shards=4, cep_per_record=False)
    layer = middleware.ontology_layer
    router = ShardRouter(layer.shards)
    rng = random.Random(3)
    middleware.ingest_batch(make_stream(rng, 80))
    query_text = area_query(DISTRICTS[0])
    first = middleware.query(query_text)
    versions = layer.versions()
    # a batch confined to a different district leaves district-0's shard
    # version (and therefore its cached results) untouched
    other = [
        r
        for r in make_stream(rng, 120)
        if r.metadata.get("area")
        and router.shard_for(r.metadata["area"]) != router.shard_for(DISTRICTS[0])
    ]
    assert other
    middleware.ingest_batch(other)
    target = router.shard_for(DISTRICTS[0])
    assert layer.versions()[target] == versions[target]
    again = middleware.query(query_text)
    assert solution_set(first) == solution_set(again)


# --------------------------------------------------------------------- #
# layer plumbing
# --------------------------------------------------------------------- #


def test_sharded_services_visible_from_every_partition():
    middleware = build_middleware(shards=3, cep_per_record=False)
    layer = middleware.ontology_layer
    catalogue = Triple(
        AFRICRID["service/ontology-query"], RDF.type, AFRICRID.SemanticService
    )
    assert len(layer.graphs) == 3 and all(catalogue in g for g in layer.graphs)
    result = middleware.query(
        "SELECT ?s WHERE { ?s rdf:type africrid:SemanticService }"
    )
    assert len(result) == 3  # three default services, collapsed across shards
    assert layer.services.unregister("ontology-query")
    result = middleware.query(
        "SELECT ?s WHERE { ?s rdf:type africrid:SemanticService }"
    )
    assert len(result) == 2
    assert not any(catalogue in g for g in layer.graphs)


def test_dews_runs_end_to_end_with_shards():
    """The DEWS rides the sharded middleware unchanged (per-district
    gateways each touch exactly one partition)."""
    from repro.dews.system import DewsConfig, DroughtEarlyWarningSystem
    from repro.workloads.scenario import build_free_state_scenario

    scenario = build_free_state_scenario(
        districts=["Mangaung", "Xhariep"],
        motes_per_district=3,
        observers_per_district=2,
        stations_per_district=1,
        seed=3,
    )
    config = DewsConfig(
        days=25,
        forecast_every_days=10,
        forecast_start_day=10,
        annotate_observations=True,
        shards=2,
        seed=3,
    )
    dews = DroughtEarlyWarningSystem(scenario, config)
    result = dews.run()
    stats = result.middleware_statistics
    assert stats["sharding"]["shards"] == 2
    assert stats["ontology_layer"].records_in > 0
    assert stats["graph_triples"] == sum(stats["sharding"]["shard_sizes"])
    answer = dews.query(
        "SELECT DISTINCT ?s WHERE { ?s rdf:type ssn:Observation }"
    )
    assert len(answer) > 0


def test_sharded_statistics_surface():
    middleware = build_middleware(shards=4, cep_per_record=False)
    rng = random.Random(5)
    middleware.ingest_batch(make_stream(rng, 60))
    middleware.query(QUERIES[0])
    stats = middleware.statistics()
    sharding = stats["sharding"]
    assert sharding["shards"] == 4
    assert len(sharding["shard_sizes"]) == 4
    assert min(sharding["shard_sizes"]) >= sharding["replicated_triples"]
    assert stats["graph_triples"] == sum(sharding["shard_sizes"])
    assert stats["query_planner"].queries >= 4  # one scatter per partition
    with pytest.raises(RuntimeError):
        middleware.ontology_layer.query_planner


def test_one_shard_store_is_the_unsharded_layer():
    """``shards=1`` is the same execution path over one adopted graph."""
    middleware = build_middleware(shards=1, cep_per_record=False)
    layer = middleware.ontology_layer
    assert not layer.sharded
    assert layer.sharding_statistics() is None
    assert "sharding" not in middleware.statistics()
    # the one shard adopts (not copies) the library graph
    assert layer.shards == 1 and len(layer.graphs) == 1
    assert layer.graphs[0] is layer.library.graph is middleware.graph
    middleware.ingest_batch(make_stream(random.Random(9), 40))
    # it answers through its planner with no merge step: one planner query
    # per layer query, served from the result cache when repeated
    assert layer.query_planner is planner_for(layer.graph)
    first = middleware.query(QUERIES[0])
    again = middleware.query(QUERIES[0])
    assert solution_set(first) == solution_set(again)
    stats = layer.planner_statistics()
    assert (stats.queries, stats.result_misses, stats.result_hits) == (2, 1, 1)
    assert stats == layer.query_planner.statistics
    middleware.close()

