"""Fault-tolerance cost: detection latency, restart time, degraded reads.

Supervision must be cheap when nothing fails and bounded when something
does.  Four measurements, each against the same 2-shard process-backend
middleware and record stream:

* **Hung-worker detection latency** — a worker armed to sleep far past
  the RPC deadline must be declared hung within ``shard_rpc_timeout``
  (not the sleep length), SIGKILLed and replaced.
* **Restart-to-serving time** — from a worker crash to the shard
  serving its replayed in-flight batch again (snapshot load + WAL tail
  replay + view re-registration + replay), reported as the delta over a
  clean batch.
* **Degraded-read overhead** — federated query latency with every
  shard healthy vs with one shard tripped under ``degraded_reads``
  (breaker checks + synthetic replies on the scatter path).
* **Quarantine throughput cost** — wall-clock tax on a whole ingest
  run when one poison batch burns its replay budget and is written to
  the dead-letter journal.

Each test appends its rows to ``BENCH_fault_tolerance.json``, the
summary artifact the CI bench-smoke job uploads via the
``BENCH_*.json`` glob.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import List, Optional

from benchmarks._artifact import record_artifact
from benchmarks.conftest import print_table
from repro.core.faults import FaultPlan
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.ontologies.library import build_unified_ontology
from repro.streams.messages import ObservationRecord

ARTIFACT = Path("BENCH_fault_tolerance.json")

DISTRICTS = [f"district{index}" for index in range(8)]
PROPERTIES = [
    ("soil moisture", "percent", 20.0),
    ("rainfall", "mm", 3.0),
    ("air temperature", "degC", 18.0),
    ("relative humidity", "percent", 50.0),
]

SHARDS = 2
BATCHES = 6
RECORDS_PER_BATCH = 500
RPC_TIMEOUT = 0.5

QUERY = """SELECT ?obs ?v WHERE {
    ?obs rdf:type ssn:Observation .
    ?obs ssn:hasResult ?r .
    ?r ssn:hasValue ?v .
}"""


def _batch(batch_index: int) -> List[ObservationRecord]:
    records = []
    for index in range(RECORDS_PER_BATCH):
        sequence = batch_index * RECORDS_PER_BATCH + index
        district = DISTRICTS[sequence % len(DISTRICTS)]
        name, unit, base = PROPERTIES[sequence % len(PROPERTIES)]
        records.append(
            ObservationRecord(
                source_id=f"{district}-mote-{sequence % 5:02d}",
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


def _build(data_dir, plan: Optional[str] = None, **kwargs) -> SemanticMiddleware:
    config = dict(
        cep_per_record=False,
        annotate_observations=True,
        shards=SHARDS,
        shard_backend="process",
        data_dir=str(data_dir),
        shard_rpc_timeout=RPC_TIMEOUT,
        shard_restart_backoff=0.01,
        fault_plan=FaultPlan.parse(plan) if plan else None,
    )
    config.update(kwargs)
    return SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(**config),
    )


def _batch_seconds(middleware: SemanticMiddleware) -> List[float]:
    seconds = []
    for batch_index in range(BATCHES):
        records = _batch(batch_index)
        start = time.perf_counter()
        middleware.ingest_batch(records)
        seconds.append(time.perf_counter() - start)
    return seconds


def test_bench_detection_and_restart(tmp_path):
    """Hang detection bounded by the deadline; crash restart bounded too."""
    baseline = _build(tmp_path / "clean")
    clean_seconds = _batch_seconds(baseline)
    baseline.close()
    clean_batch = statistics.median(clean_seconds)

    # a worker that sleeps 60 s must be caught at the 0.5 s deadline
    hung = _build(tmp_path / "hang", "hang:op=ingest:shard=0:at=3:delay=60")
    hang_seconds = _batch_seconds(hung)
    assert hung.health()["healthy"]
    hung.close()
    hang_batch = max(hang_seconds)
    detection_latency = hang_batch - clean_batch
    assert detection_latency < 60.0, "detection must not wait out the hang"

    # a crash is detected by EOF (no deadline wait): the faulted batch
    # pays restart + WAL replay + in-flight replay only
    crashed = _build(tmp_path / "crash", "crash:op=ingest:shard=0:at=3")
    crash_seconds = _batch_seconds(crashed)
    assert crashed.health()["healthy"]
    crashed.close()
    restart_to_serving = max(crash_seconds) - clean_batch

    print_table(
        f"supervision: {RECORDS_PER_BATCH}-record batches, {SHARDS} shards, "
        f"deadline {RPC_TIMEOUT}s",
        [
            {"metric": "clean batch (median)", "seconds": round(clean_batch, 3)},
            {"metric": "hung-worker detection + recovery",
             "seconds": round(detection_latency, 3)},
            {"metric": "crash restart-to-serving",
             "seconds": round(restart_to_serving, 3)},
        ],
    )
    record_artifact(ARTIFACT, "detection_and_restart", {
        "records_per_batch": RECORDS_PER_BATCH,
        "shards": SHARDS,
        "rpc_timeout": RPC_TIMEOUT,
        "clean_batch_seconds": clean_batch,
        "hung_batch_seconds": hang_batch,
        "detection_latency_seconds": detection_latency,
        "restart_to_serving_seconds": restart_to_serving,
    })


def test_bench_degraded_read_overhead(tmp_path):
    """Query latency: all shards healthy vs one tripped under degraded reads."""
    def median_query_seconds(middleware, runs: int = 40) -> float:
        samples = []
        for run in range(runs):
            start = time.perf_counter()
            result = middleware.query(QUERY)
            samples.append(time.perf_counter() - start)
            assert result.rows
        return statistics.median(samples)

    healthy = _build(tmp_path / "healthy")
    for batch_index in range(2):
        healthy.ingest_batch(_batch(batch_index))
    healthy_seconds = median_query_seconds(healthy)
    healthy.close()

    # shard 0 dies on its third ingest and every restart fails: the
    # breaker trips and reads serve partial results with the marker
    degraded = _build(
        tmp_path / "degraded",
        "crash:op=ingest:shard=0:at=3:count=99,boot_crash:shard=0:at=2:count=99",
        degraded_reads=True,
        shard_restart_budget=1,
        replay_budget=1,
    )
    for batch_index in range(2):
        degraded.ingest_batch(_batch(batch_index))
    degraded.ingest_batch(_batch(2))  # trips shard 0
    assert not degraded.health()["healthy"]
    degraded_seconds = median_query_seconds(degraded)
    assert degraded.query(QUERY).degraded
    degraded.close()

    overhead = degraded_seconds / healthy_seconds - 1.0
    print_table(
        "degraded reads: federated query latency",
        [
            {"config": "all shards up", "ms": round(healthy_seconds * 1e3, 3)},
            {"config": "one shard tripped (degraded)",
             "ms": round(degraded_seconds * 1e3, 3)},
            {"config": "delta", "ms": f"{overhead:+.1%}"},
        ],
    )
    record_artifact(ARTIFACT, "degraded_read_overhead", {
        "healthy_query_seconds": healthy_seconds,
        "degraded_query_seconds": degraded_seconds,
        "overhead": overhead,
    })


def test_bench_quarantine_throughput_cost(tmp_path):
    """Whole-run wall-clock tax of quarantining one poison batch."""
    clean = _build(tmp_path / "clean")
    clean_total = sum(_batch_seconds(clean))
    clean.close()

    # the batch's original send plus both replays crash (count=3); the
    # next batch after quarantine must land cleanly
    poisoned = _build(
        tmp_path / "poisoned",
        "crash:op=ingest:shard=0:at=3:count=3",
        replay_budget=2,
    )
    poisoned_total = sum(_batch_seconds(poisoned))
    health = poisoned.health()
    assert health["quarantined_batches"] == 1
    assert health["healthy"]
    poisoned.close()

    total_records = BATCHES * RECORDS_PER_BATCH
    cost = poisoned_total - clean_total
    print_table(
        f"poison-batch quarantine: {total_records} records, one poisoned batch",
        [
            {"config": "clean run", "seconds": round(clean_total, 2),
             "records_per_s": int(total_records / clean_total)},
            {"config": "quarantine run", "seconds": round(poisoned_total, 2),
             "records_per_s": int(total_records / poisoned_total)},
            {"config": "quarantine cost", "seconds": round(cost, 2),
             "records_per_s": ""},
        ],
    )
    record_artifact(ARTIFACT, "quarantine_throughput_cost", {
        "records": total_records,
        "clean_seconds": clean_total,
        "poisoned_seconds": poisoned_total,
        "quarantine_cost_seconds": cost,
        "replay_budget": 2,
    })
