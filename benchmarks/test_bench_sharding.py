"""Sharded per-area partitions vs the single shared graph.

The production serving loop the middleware is built for never ingests in
isolation: district gateways upload poll batches continuously while
dashboards and the DEWS keep asking the same query suite.  On one shared
graph every poll bumps the single ``Graph.version``, so *every* cached
query result is invalidated by *every* district's upload and the whole
dashboard suite re-evaluates against the ever-growing graph after each
poll.  With per-area partitions a poll touches exactly one shard: the
other partitions' versions — and therefore their plan / result caches —
survive, and the one re-evaluation that does happen scans a quarter of the
data.  That cache-survival + partition-pruning effect is architectural, so
the speedup holds even on a single core (no thread parallelism needed).

Benchmarks (each appends its rows to ``BENCH_sharding.json``, the summary
artifact the CI bench-smoke job uploads via the ``BENCH_*.json`` glob):

* **Sustained ingest under dashboard load** — 10k records, mixed across 8
  districts, arriving as per-district polls with the standing query suite
  served after each poll; 4 shards must sustain >= 2x the records/s of
  ``shards=1``, and the final answers must match the single-graph oracle.
* **One mixed-district batch** — the same 10k records as a single
  ``ingest_batch`` call (every shard touched, thread fan-out engaged);
  reported for transparency: on a single-core host this is expected to be
  ~1x, since the win above comes from cache survival, not threads.
* **Process-backend scale-out** — the same mixed stream through the
  ``process`` shard backend (one forked worker per partition) at 1/2/4
  shards, against the inline backend at the same shard counts; the >= 2.5x
  speedup assert engages only when the host actually has >= 4 cores (the
  artifact records the measured core count).
* **Federated query latency** — pytest-benchmark timing of a warm
  scatter-gather query.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import List

from benchmarks._artifact import record_artifact
from benchmarks.conftest import print_table
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.ontologies.library import build_unified_ontology
from repro.streams.messages import ObservationRecord

ARTIFACT = Path("BENCH_sharding.json")

DISTRICTS = [f"district{index}" for index in range(8)]
PROPERTIES = [
    ("soil moisture", "percent", 20.0),
    ("rainfall", "mm", 3.0),
    ("air temperature", "degC", 18.0),
    ("relative humidity", "percent", 50.0),
]

ROUNDS = 10
RECORDS_PER_POLL = 125
TOTAL_RECORDS = ROUNDS * len(DISTRICTS) * RECORDS_PER_POLL  # 10_000

GLOBAL_QUERIES = [
    # unselective scans with selective results: the evaluation walks the
    # observation population (grows with the partition), the answers stay
    # small (cheap to merge / cache)
    """SELECT ?obs ?v WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . FILTER (?v > 57) }""",
    """SELECT DISTINCT ?sensor WHERE { ?obs ssn:observedBy ?sensor .
        ?sensor rdf:type ssn:SensingDevice . }""",
    """SELECT ?obs ?t WHERE { ?obs ssn:observationResultTime ?t .
        ?obs rdf:type ssn:Observation . FILTER (?t > 5990000) }""",
    """SELECT ?r ?v WHERE { ?r rdf:type ssn:SensorOutput .
        ?r ssn:hasValue ?v . FILTER (?v > 57) }""",
    """SELECT ?obs ?m WHERE { ?obs africrid:alignmentMethod ?m .
        ?obs rdf:type ssn:Observation . FILTER (?m = "fuzzy") }""",
    """ASK WHERE { ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v .
        FILTER (?v > 100) }""",
    # recency panels: tail-of-stream windows over the observation times
    """SELECT ?obs ?t WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:observationResultTime ?t . FILTER (?t > 700000) }""",
    """SELECT ?obs ?t WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:observationResultTime ?t . FILTER (?t > 730000) }""",
    """SELECT ?obs ?t WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:observationResultTime ?t . FILTER (?t > 745000) }""",
    # a second exceedance level per panel
    """SELECT ?obs ?v WHERE { ?obs rdf:type ssn:Observation .
        ?obs ssn:hasResult ?r . ?r ssn:hasValue ?v . FILTER (?v > 56) }""",
    """SELECT ?r ?v WHERE { ?r rdf:type ssn:SensorOutput .
        ?r ssn:hasValue ?v . FILTER (?v > 58) }""",
    """SELECT DISTINCT ?platform WHERE { ?sensor ssn:onPlatform ?platform .
        ?sensor rdf:type ssn:SensingDevice . }""",
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
DASHBOARD_SUITE = GLOBAL_QUERIES + AREA_QUERIES


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


def _build(shards: int, backend: str = "inline") -> SemanticMiddleware:
    return SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(
            cep_per_record=False, shards=shards, shard_backend=backend
        ),
    )


def _solution_set(result):
    if result.form == "ASK":
        return result.ask
    return {
        frozenset((var.name, str(term)) for var, term in solution.items())
        for solution in result.solutions
    }


def _assert_oracle_equivalent(single: SemanticMiddleware, sharded: SemanticMiddleware):
    for query_text in DASHBOARD_SUITE:
        assert _solution_set(single.query(query_text)) == _solution_set(
            sharded.query(query_text)
        ), query_text


# --------------------------------------------------------------------- #
# sustained ingest under dashboard load
# --------------------------------------------------------------------- #


def _run_poll_cycle(middleware: SemanticMiddleware) -> float:
    """Ingest 10k records as per-district polls, serving the dashboard
    suite after every poll; returns the wall time."""
    start = time.perf_counter()
    for round_index in range(ROUNDS):
        for district in DISTRICTS:
            middleware.ingest_batch(
                _district_poll(district, round_index, RECORDS_PER_POLL)
            )
            for query_text in DASHBOARD_SUITE:
                middleware.query(query_text)
    return time.perf_counter() - start


def test_bench_sharded_ingest_throughput_under_dashboard_load(wall_clock_thresholds):
    """4 shards must sustain >= 2x the single-graph ingest+serve rate."""
    single = _build(shards=1)
    sharded = _build(shards=4)

    single_seconds = _run_poll_cycle(single)
    sharded_seconds = _run_poll_cycle(sharded)
    speedup = single_seconds / sharded_seconds

    single_stats = single.statistics()
    sharded_stats = sharded.statistics()
    rows = [
        {"config": "shards=1", "seconds": round(single_seconds, 2),
         "records_per_s": int(TOTAL_RECORDS / single_seconds),
         "result_cache_hits": single_stats["query_planner"].result_hits},
        {"config": "shards=4", "seconds": round(sharded_seconds, 2),
         "records_per_s": int(TOTAL_RECORDS / sharded_seconds),
         "result_cache_hits": sharded_stats["query_planner"].result_hits},
        {"config": "speedup", "seconds": round(speedup, 2),
         "records_per_s": "", "result_cache_hits": ""},
    ]
    print_table(
        f"Ingest+serve: {TOTAL_RECORDS} records as per-district polls, "
        f"{len(DASHBOARD_SUITE)} dashboard queries per poll", rows,
    )
    record_artifact(ARTIFACT, "poll_cycle", {
        "records": TOTAL_RECORDS,
        "polls": ROUNDS * len(DISTRICTS),
        "queries_per_poll": len(DASHBOARD_SUITE),
        "single_seconds": single_seconds,
        "sharded_seconds": sharded_seconds,
        "single_records_per_s": TOTAL_RECORDS / single_seconds,
        "sharded_records_per_s": TOTAL_RECORDS / sharded_seconds,
        "speedup": speedup,
        "single_result_cache_hits": single_stats["query_planner"].result_hits,
        "sharded_result_cache_hits": sharded_stats["query_planner"].result_hits,
        "shard_sizes": sharded_stats["sharding"]["shard_sizes"],
    })

    # the mechanism, not just the outcome: the single graph's caches are
    # invalidated by every poll, the partitions' caches survive
    assert single_stats["query_planner"].result_hits == 0
    assert sharded_stats["query_planner"].result_hits > 0
    _assert_oracle_equivalent(single, sharded)
    if wall_clock_thresholds:
        assert speedup >= 2.0


# --------------------------------------------------------------------- #
# one mixed-district batch (every shard touched)
# --------------------------------------------------------------------- #


def test_bench_sharded_mixed_batch_reported(wall_clock_thresholds):
    """One 10k mixed batch: thread fan-out engaged, reported for
    transparency.  Cache survival cannot help here (every shard is
    touched), so a single-core host sees ~1x; the assert only guards
    against a pathological slowdown of the fan-out machinery."""
    mixed: List[ObservationRecord] = []
    for round_index in range(ROUNDS):
        polls = [
            _district_poll(district, round_index, RECORDS_PER_POLL)
            for district in DISTRICTS
        ]
        for index in range(RECORDS_PER_POLL):
            for poll in polls:
                mixed.append(poll[index])
    assert len(mixed) == TOTAL_RECORDS

    single = _build(shards=1)
    start = time.perf_counter()
    events_single = single.ingest_batch(mixed)
    single_seconds = time.perf_counter() - start

    sharded = _build(shards=4)
    start = time.perf_counter()
    events_sharded = sharded.ingest_batch(mixed)
    sharded_seconds = time.perf_counter() - start

    assert len(events_single) == len(events_sharded) == TOTAL_RECORDS
    assert [e.annotation_iri for e in events_single] == [
        e.annotation_iri for e in events_sharded
    ]
    ratio = single_seconds / sharded_seconds
    print_table("One mixed 10k batch (all shards touched)", [
        {"config": "shards=1", "seconds": round(single_seconds, 3),
         "records_per_s": int(TOTAL_RECORDS / single_seconds)},
        {"config": "shards=4", "seconds": round(sharded_seconds, 3),
         "records_per_s": int(TOTAL_RECORDS / sharded_seconds)},
        {"config": "ratio", "seconds": round(ratio, 2), "records_per_s": ""},
    ])
    record_artifact(ARTIFACT, "mixed_batch", {
        "records": TOTAL_RECORDS,
        "single_seconds": single_seconds,
        "sharded_seconds": sharded_seconds,
        "ratio": ratio,
        "parallel_batches": sharded.statistics()["sharding"]["parallel_batches"],
    })
    if wall_clock_thresholds:
        assert ratio > 0.4  # fan-out overhead must stay bounded on any host


# --------------------------------------------------------------------- #
# process-backend scale-out (shared-nothing worker processes)
# --------------------------------------------------------------------- #

PROCESS_ROUNDS = 4
PROCESS_TOTAL = PROCESS_ROUNDS * len(DISTRICTS) * RECORDS_PER_POLL  # 4_000


def _mixed_stream(rounds: int) -> List[ObservationRecord]:
    mixed: List[ObservationRecord] = []
    for round_index in range(rounds):
        polls = [
            _district_poll(district, round_index, RECORDS_PER_POLL)
            for district in DISTRICTS
        ]
        for index in range(RECORDS_PER_POLL):
            for poll in polls:
                mixed.append(poll[index])
    return mixed


def _timed_ingest(middleware: SemanticMiddleware, stream) -> float:
    start = time.perf_counter()
    middleware.ingest_batch(stream)
    return time.perf_counter() - start


def test_bench_process_backend_ingest_scaling(wall_clock_thresholds):
    """Inline vs process shard workers on one mixed stream at 1/2/4 shards.

    The process backend forks one worker per partition, so annotate+reason
    for different shards runs on different cores.  On a >= 4-core host the
    4-shard process run must beat inline by >= 2.5x; on smaller hosts (this
    includes single-core CI runners, where every RPC round-trip is a context
    switch with zero parallelism to pay for it) the assert degrades to the
    bounded-overhead form used by the mixed-batch benchmark above.  The
    measured core count is recorded in the artifact so a reader can tell
    which regime a row came from.
    """
    cores = len(os.sched_getaffinity(0))
    stream = _mixed_stream(PROCESS_ROUNDS)
    assert len(stream) == PROCESS_TOTAL

    rows = []
    payload = {"records": PROCESS_TOTAL, "cores": cores, "workers": {}}
    seconds = {}
    for shards in (1, 2, 4):
        with _build(shards=shards) as inline:
            inline_seconds = _timed_ingest(inline, stream)
        with _build(shards=shards, backend="process") as process:
            process_seconds = _timed_ingest(process, stream)
            stats = process.ontology_layer.shard_statistics()
            assert len(stats) == shards
            assert sum(entry["triples"] for entry in stats) > 0
            assert all(entry["restarts"] == 0 for entry in stats)
            if shards > 1:  # shards=1 stays a single in-process graph
                pids = {entry["pid"] for entry in stats}
                assert len(pids) == shards and os.getpid() not in pids
        seconds[shards] = (inline_seconds, process_seconds)
        ratio = inline_seconds / process_seconds
        rows.append({
            "config": f"shards={shards}",
            "inline_s": round(inline_seconds, 2),
            "process_s": round(process_seconds, 2),
            "process_vs_inline": round(ratio, 2),
        })
        payload["workers"][str(shards)] = {
            "inline_seconds": inline_seconds,
            "process_seconds": process_seconds,
            "process_vs_inline": ratio,
        }
    speedup = seconds[4][0] / seconds[4][1]
    payload["speedup_4_shards"] = speedup
    print_table(
        f"Process shard workers: {PROCESS_TOTAL}-record mixed stream "
        f"({cores} core(s) available)", rows,
    )
    record_artifact(ARTIFACT, "process_backend", payload)

    if not wall_clock_thresholds:
        return
    if cores >= 4:
        assert speedup >= 2.5
    else:
        # no parallelism available: only guard that the RPC machinery's
        # overhead stays bounded, mirroring the mixed-batch threshold
        assert speedup > 0.4


# --------------------------------------------------------------------- #
# federated query latency (pytest-benchmark harness)
# --------------------------------------------------------------------- #


def test_bench_federated_query_latency(benchmark):
    """Warm scatter-gather latency of one dashboard query over 4 shards."""
    sharded = _build(shards=4)
    for district in DISTRICTS:
        sharded.ingest_batch(_district_poll(district, 0, 50))
    query_text = GLOBAL_QUERIES[0]
    sharded.query(query_text)  # warm plan + result caches

    benchmark.pedantic(lambda: sharded.query(query_text), rounds=5, iterations=20)
