"""Standing-view serving vs re-evaluating the dashboard suite per poll.

PR 4 gave the serving loop version-keyed result caches; PR 5 gave it
per-area partitions so one district's poll only invalidates one shard.
What is left is the cost of that invalidation itself: the dirty shard
re-evaluates every dashboard query from scratch on every poll, so
steady-state serving cost still grows with the shard.  A registered
standing view replaces that re-evaluation with an O(|delta|) fold of the
poll's triples into the materialized result, so per-poll serving cost
stays ~flat while the graph grows.

Benchmarks (each appends its rows to ``BENCH_standing_views.json``, the
summary artifact the CI bench-smoke job uploads via the ``BENCH_*.json``
glob):

* **Poll-cycle serving** — per-district polls with the 28-query dashboard
  suite served after each poll, views registered vs a re-evaluating
  twin.  At the final graph size the standing configuration must serve a
  poll's suite >= 5x faster, every answer staying bag-equal to the
  re-evaluating oracle throughout, and the per-poll serving time must be
  ~flat while the oracle's grows.  The observability counters prove the
  mechanism: the standing planner serves from ``view_hits`` (zero result
  misses once registered), and the views fold deltas without a single
  full refresh on the add-only stream.
* **Removal segment** — itemised removals after the cycle: views may fall
  back to a full re-materialization (counted) but must stay bag-equal.
* **Warm serve latency** — pytest-benchmark timing of one standing query.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import List

from benchmarks._artifact import record_artifact
from benchmarks.conftest import print_table
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.ontologies.library import build_unified_ontology
from repro.ontologies.vocabulary import SSN
from repro.semantics.rdf.term import Literal
from repro.streams.messages import ObservationRecord

ARTIFACT = Path("BENCH_standing_views.json")

DISTRICTS = [f"district{index}" for index in range(8)]
PROPERTIES = [
    ("soil moisture", "percent", 20.0),
    ("rainfall", "mm", 3.0),
    ("air temperature", "degC", 18.0),
    ("relative humidity", "percent", 50.0),
]

ROUNDS = 10
RECORDS_PER_POLL = 60
TOTAL_RECORDS = ROUNDS * len(DISTRICTS) * RECORDS_PER_POLL  # 4_800

GLOBAL_QUERIES = [
    """SELECT ?obs ?v WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . FILTER (?v > 57) }""",
    """SELECT DISTINCT ?sensor WHERE { ?obs ssn:observedBy ?sensor .
        ?sensor rdf:type ssn:SensingDevice . }""",
    """SELECT ?obs ?t WHERE { ?obs ssn:observationResultTime ?t .
        ?obs rdf:type ssn:Observation . FILTER (?t > 1500000) }""",
    """SELECT ?r ?v WHERE { ?r rdf:type ssn:SensorOutput .
        ?r ssn:hasValue ?v . FILTER (?v > 57) }""",
    """SELECT ?obs ?m WHERE { ?obs africrid:alignmentMethod ?m .
        ?obs rdf:type ssn:Observation . FILTER (?m = "fuzzy") }""",
    """ASK WHERE { ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v .
        FILTER (?v > 100) }""",
    """SELECT ?obs ?t WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:observationResultTime ?t . FILTER (?t > 1600000) }""",
    # OPTIONAL panel: property is attached per observation
    """SELECT ?obs ?p WHERE { ?obs rdf:type ssn:Observation .
        OPTIONAL { ?obs ssn:observedProperty ?p } }""",
    """SELECT ?obs ?v WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . FILTER (?v > 56) }""",
    """SELECT ?r ?v WHERE { ?r rdf:type ssn:SensorOutput .
        ?r ssn:hasValue ?v . FILTER (?v > 58) }""",
    """SELECT DISTINCT ?platform WHERE { ?sensor ssn:onPlatform ?platform .
        ?sensor rdf:type ssn:SensingDevice . }""",
    """ASK WHERE { ?s rdf:type ssn:Observation }""",
]


def _area_query(district: str, threshold: int) -> str:
    feature = f"http://africrid.example.org/resource/feature/{district}"
    return (
        f"SELECT ?obs ?v WHERE {{ ?obs ssn:featureOfInterest <{feature}> . "
        f"?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . FILTER (?v > {threshold}) }}"
    )


AREA_QUERIES = [
    _area_query(district, threshold)
    for district in DISTRICTS
    for threshold in (56, 57)
]
DASHBOARD_SUITE = GLOBAL_QUERIES + AREA_QUERIES  # 28 queries


def _district_poll(district: str, round_index: int, count: int) -> List[ObservationRecord]:
    records = []
    for index in range(count):
        name, unit, base = PROPERTIES[index % len(PROPERTIES)]
        sequence = round_index * count + index
        records.append(
            ObservationRecord(
                source_id=f"{district}-mote-{index % 5:02d}",
                source_kind="wsn_mote",
                property_name=name,
                value=base + (sequence % 9),
                unit=unit,
                timestamp=600.0 * sequence,
                location=(1.0, 2.0),
                metadata={"area": district},
            )
        )
    return records


def _build(shards: int) -> SemanticMiddleware:
    return SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(cep_per_record=False, shards=shards),
    )


def _solution_bag(result):
    if result.form == "ASK":
        return result.ask
    return Counter(
        frozenset((var.name, str(term)) for var, term in solution.items())
        for solution in result.solutions
    )


def _assert_bag_equivalent(standing: SemanticMiddleware, oracle: SemanticMiddleware):
    for query_text in DASHBOARD_SUITE:
        assert _solution_bag(standing.query(query_text)) == _solution_bag(
            oracle.query(query_text)
        ), query_text


def _serve_suite(middleware: SemanticMiddleware):
    """Serve the whole suite; returns (seconds, results)."""
    results = []
    start = time.perf_counter()
    for query_text in DASHBOARD_SUITE:
        results.append(middleware.query(query_text))
    return time.perf_counter() - start, results


# --------------------------------------------------------------------- #
# poll-cycle serving: standing views vs per-poll re-evaluation
# --------------------------------------------------------------------- #


def test_bench_standing_poll_cycle(wall_clock_thresholds):
    """Registered views must serve the final-size suite >= 5x faster."""
    standing = _build(shards=4)
    oracle = _build(shards=4)
    views = []
    for query_text in DASHBOARD_SUITE:
        views.extend(standing.register_standing(query_text))

    standing_per_round: List[float] = []
    oracle_per_round: List[float] = []
    for round_index in range(ROUNDS):
        standing_seconds = 0.0
        oracle_seconds = 0.0
        for district in DISTRICTS:
            poll = _district_poll(district, round_index, RECORDS_PER_POLL)
            standing.ingest_batch(poll)
            oracle.ingest_batch(poll)
            seconds, served = _serve_suite(standing)
            standing_seconds += seconds
            seconds, expected = _serve_suite(oracle)
            oracle_seconds += seconds
            # every answer matches the re-evaluating oracle, every poll
            for query_text, got, want in zip(DASHBOARD_SUITE, served, expected):
                assert _solution_bag(got) == _solution_bag(want), query_text
        standing_per_round.append(standing_seconds)
        oracle_per_round.append(oracle_seconds)

    final_speedup = oracle_per_round[-1] / standing_per_round[-1]
    planner_stats = standing.ontology_layer.planner_statistics()
    view_stats = standing.ontology_layer.standing_view_statistics()
    oracle_stats = oracle.ontology_layer.planner_statistics()

    rows = [
        {"round": index + 1,
         "standing_ms": round(1000 * standing_per_round[index], 1),
         "reevaluate_ms": round(1000 * oracle_per_round[index], 1),
         "speedup": round(oracle_per_round[index] / standing_per_round[index], 1)}
        for index in range(ROUNDS)
    ]
    print_table(
        f"Per-round serving of the {len(DASHBOARD_SUITE)}-query suite "
        f"({len(DISTRICTS)} polls/round, {RECORDS_PER_POLL} records/poll)", rows,
    )
    record_artifact(ARTIFACT, "poll_cycle", {
        "records": TOTAL_RECORDS,
        "queries_per_poll": len(DASHBOARD_SUITE),
        "standing_seconds_per_round": standing_per_round,
        "reevaluate_seconds_per_round": oracle_per_round,
        "final_round_speedup": final_speedup,
        "view_hits": planner_stats.view_hits,
        "standing_result_misses": planner_stats.result_misses,
        "oracle_result_misses": oracle_stats.result_misses,
        "delta_updates": view_stats["delta_updates"],
        "full_refreshes": view_stats["full_refreshes"],
        "views": len(views),
    })

    # the mechanism, not just the outcome: registered queries are served
    # from the views (no planner re-evaluation), maintained purely by
    # delta folding on this add-only stream, while the oracle re-evaluates
    # its dirty shard every poll
    assert planner_stats.view_hits > 0
    assert planner_stats.result_misses == 0
    assert oracle_stats.result_misses > 0
    assert view_stats["delta_updates"] > 0
    assert view_stats["full_refreshes"] == 0
    if not wall_clock_thresholds:
        return
    # serving from the materialized views must be ~flat as the graph
    # grows: the last round may not cost more than 3x the first, while the
    # re-evaluating oracle visibly grows
    assert standing_per_round[-1] <= 3.0 * max(standing_per_round[0], 1e-4)
    assert final_speedup >= 5.0


# --------------------------------------------------------------------- #
# removal segment: itemised retractions stay correct
# --------------------------------------------------------------------- #


def test_bench_standing_removals_stay_correct():
    """Removals may force full refreshes (counted) but never wrong rows."""
    standing = _build(shards=4)
    oracle = _build(shards=4)
    for query_text in DASHBOARD_SUITE:
        standing.register_standing(query_text)
    for round_index in range(2):
        for district in DISTRICTS:
            poll = _district_poll(district, round_index, RECORDS_PER_POLL)
            standing.ingest_batch(poll)
            oracle.ingest_batch(poll)
    _assert_bag_equivalent(standing, oracle)

    # retract every value-58 reading from both deployments (the record
    # streams are identical, so the annotation triples are too)
    removed = 0
    for middleware in (standing, oracle):
        count = 0
        for shard_graph in middleware.ontology_layer.graphs:
            victims = list(shard_graph.triples((None, SSN.hasValue, Literal(58.0))))
            for triple in victims:
                shard_graph.remove(triple)
            count += len(victims)
        removed = count
    assert removed > 0

    start = time.perf_counter()
    _assert_bag_equivalent(standing, oracle)
    serve_seconds = time.perf_counter() - start
    view_stats = standing.ontology_layer.standing_view_statistics()
    print_table("Removal segment", [
        {"removed_triples": removed,
         "full_refreshes": view_stats["full_refreshes"],
         "delta_updates": view_stats["delta_updates"],
         "serve_ms": round(1000 * serve_seconds, 1)},
    ])
    record_artifact(ARTIFACT, "removals", {
        "removed_triples": removed,
        "full_refreshes": view_stats["full_refreshes"],
        "delta_updates": view_stats["delta_updates"],
        "serve_seconds": serve_seconds,
    })
    # the value-58 retraction is relevant to the exceedance views (they
    # must fall back) but irrelevant to e.g. the sensor-platform panels
    # (they must not)
    assert view_stats["full_refreshes"] > 0


# --------------------------------------------------------------------- #
# warm serve latency (pytest-benchmark harness)
# --------------------------------------------------------------------- #


def test_bench_standing_serve_latency(benchmark):
    """Warm latency of one standing dashboard query over 4 shards."""
    standing = _build(shards=4)
    standing.register_standing(GLOBAL_QUERIES[0])
    for district in DISTRICTS:
        standing.ingest_batch(_district_poll(district, 0, 50))
    standing.query(GLOBAL_QUERIES[0])  # fold the deltas in once

    benchmark.pedantic(lambda: standing.query(GLOBAL_QUERIES[0]), rounds=5, iterations=20)
