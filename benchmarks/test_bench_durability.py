"""Durability cost: WAL append overhead and recovery time.

Persistence must be cheap enough to leave on: the write-ahead log rides
every graph mutation of every shard, so its append path is the one place
a durability subsystem can tax the whole pipeline.  The benchmark ingests
the same 10k-record stream into a plain middleware and into one with
``data_dir`` set (``fsync="batch"``: one flush+fsync per shard per ingest
batch, the default policy) and asserts the process-CPU overhead stays
under 20%.  Snapshotting is disabled for that comparison (a huge
``snapshot_interval``) so the number isolates the per-append cost rather
than amortised checkpoint work.

The second benchmark measures what the durability actually buys: cold
recovery time (snapshot load + WAL tail replay across all shards) at
growing store sizes, recorded so regressions in the replay path show up
as a trend break.

Each test appends its rows to ``BENCH_durability.json``, the summary
artifact the CI bench-smoke job uploads via the ``BENCH_*.json`` glob.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import List, Optional

from benchmarks._artifact import record_artifact
from benchmarks.conftest import print_table
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.ontologies.library import build_unified_ontology
from repro.persistence import StorePersistence
from repro.streams.messages import ObservationRecord

ARTIFACT = Path("BENCH_durability.json")

DISTRICTS = [f"district{index}" for index in range(8)]
PROPERTIES = [
    ("soil moisture", "percent", 20.0),
    ("rainfall", "mm", 3.0),
    ("air temperature", "degC", 18.0),
    ("relative humidity", "percent", 50.0),
]

SHARDS = 4
BATCHES = 10
RECORDS_PER_BATCH = 1_000
TOTAL_RECORDS = BATCHES * RECORDS_PER_BATCH  # 10_000
# typical measured cost is ~10%; the cap leaves headroom for the residual
# pair noise that survives the drift-cancelling median (see the overhead
# test's docstring) while still failing on a doubling of the append cost
MAX_OVERHEAD = 0.20


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


def _build(data_dir: Optional[Path]) -> SemanticMiddleware:
    return SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(
            cep_per_record=False,
            shards=SHARDS,
            data_dir=str(data_dir) if data_dir is not None else None,
            wal_fsync="batch",
            # isolate the append cost: no checkpoint inside the timed run
            snapshot_interval=10_000_000,
        ),
    )


def test_bench_wal_append_overhead(tmp_path, wall_clock_thresholds):
    """Journalling every mutation must cost < 20% on a 10k-record ingest.

    The comparison interleaves the two sides at *batch* granularity: a
    baseline and a durable middleware ingest the same stream side by
    side, each batch timed on both (order alternating per batch, so a
    systematic order effect cannot favour one side), and the overhead
    is the median of the per-batch durable/baseline CPU ratios pooled
    across three repetitions.  The assertion uses process-CPU time: the
    WAL's cost is the CPU it adds to the append path, and CPU time is
    immune to scheduler preemption and steal.  It is *not* immune to
    frequency scaling — on a shared host the effective clock drifts by
    tens of percent on a seconds timescale, which inflates every sample
    taken while the clock is low and skews any per-run or per-side
    aggregate (including minima).  The two timings of one batch are
    ~100 ms apart, well inside any drift window, so the multiplicative
    noise divides out of each ratio and the pooled median shrugs off
    the batches that straddle a frequency step.  Wall time is reported
    alongside for transparency.
    """
    reps = 3
    baseline_cpu_total = durable_cpu_total = 0.0
    baseline_wall_total = durable_wall_total = 0.0
    cpu_ratios, wall_ratios = [], []
    for rep in range(reps):
        baseline = _build(None)
        durable = _build(tmp_path / f"store{rep}")
        # sweep then pause the collector around the timed region (the
        # standard pyperf discipline): a gen-2 pass scheduled mid-batch
        # costs tens of milliseconds and would swamp a per-batch sample
        gc.collect()
        gc.disable()
        try:
            for batch_index in range(BATCHES):
                records = _batch(batch_index)
                sides = [("baseline", baseline), ("durable", durable)]
                if batch_index % 2:
                    sides.reverse()
                seconds = {}
                for side, middleware in sides:
                    wall = time.perf_counter()
                    cpu = time.process_time()
                    middleware.ingest_batch(records)
                    seconds[side] = (
                        time.perf_counter() - wall,
                        time.process_time() - cpu,
                    )
                baseline_wall_total += seconds["baseline"][0]
                baseline_cpu_total += seconds["baseline"][1]
                durable_wall_total += seconds["durable"][0]
                durable_cpu_total += seconds["durable"][1]
                wall_ratios.append(seconds["durable"][0] / seconds["baseline"][0])
                cpu_ratios.append(seconds["durable"][1] / seconds["baseline"][1])
        finally:
            gc.enable()
        baseline.close()
        durable.close()

    def median(samples):
        return sorted(samples)[len(samples) // 2]

    baseline_seconds = baseline_cpu_total / reps
    durable_seconds = durable_cpu_total / reps
    overhead = median(cpu_ratios) - 1.0
    wall_overhead = median(wall_ratios) - 1.0

    wal_bytes = sum(
        wal_path.stat().st_size
        for wal_path in (tmp_path / "store0").glob("shard-*/wal-*.log")
    )
    print_table(
        f"WAL append overhead: {TOTAL_RECORDS} records, {SHARDS} shards, "
        "fsync=batch",
        [
            {"config": "no persistence", "cpu_seconds": round(baseline_seconds, 2),
             "records_per_s": int(TOTAL_RECORDS / baseline_seconds)},
            {"config": "wal", "cpu_seconds": round(durable_seconds, 2),
             "records_per_s": int(TOTAL_RECORDS / durable_seconds)},
            {"config": "overhead", "cpu_seconds": f"{overhead:+.1%}",
             "records_per_s": f"(wall {wall_overhead:+.1%})"},
        ],
    )
    record_artifact(ARTIFACT, "wal_append_overhead", {
        "records": TOTAL_RECORDS,
        "shards": SHARDS,
        "fsync": "batch",
        "baseline_cpu_seconds": baseline_seconds,
        "durable_cpu_seconds": durable_seconds,
        "overhead": overhead,
        "baseline_wall_seconds": baseline_wall_total / reps,
        "durable_wall_seconds": durable_wall_total / reps,
        "wall_overhead": wall_overhead,
        "wal_bytes": wal_bytes,
        "wal_bytes_per_record": wal_bytes / TOTAL_RECORDS,
    })
    if wall_clock_thresholds:
        assert overhead < MAX_OVERHEAD, (
            f"WAL append overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%}"
        )


def _cold_recover(data_dir: Path):
    """What a restarted layer's shards do: check the layout, then recover
    each shard's segment from the store's factory."""
    recovery = StorePersistence(str(data_dir))
    recovery.validate_meta(expected_shards=SHARDS)
    return recovery, [recovery.segment(index).recover() for index in range(SHARDS)]


def test_bench_recovery_time_vs_store_size(tmp_path):
    """Cold recovery (snapshot load + WAL replay) at growing store sizes."""
    data_dir = tmp_path / "store"
    durable = _build(data_dir)
    rows = []
    for batch_index in range(BATCHES):
        durable.ingest_batch(_batch(batch_index))
        if (batch_index + 1) * RECORDS_PER_BATCH not in (2_000, 6_000, 10_000):
            continue
        triples = sum(len(graph) for graph in durable.ontology_layer.graphs)
        start = time.perf_counter()
        recovery, graphs = _cold_recover(data_dir)
        seconds = time.perf_counter() - start
        assert sum(len(graph) for graph in graphs) == triples
        recovery.close()
        rows.append({
            "records": (batch_index + 1) * RECORDS_PER_BATCH,
            "triples": triples,
            "recovery_seconds": round(seconds, 3),
            "triples_per_s": int(triples / seconds) if seconds else 0,
        })
    # a mid-life checkpoint folds the WAL into the snapshot: recovery of
    # the same store afterwards replays (almost) nothing
    durable.ontology_layer.checkpoint()
    start = time.perf_counter()
    recovery, graphs = _cold_recover(data_dir)
    checkpointed_seconds = time.perf_counter() - start
    recovery.close()
    rows.append({
        "records": TOTAL_RECORDS,
        "triples": sum(len(graph) for graph in graphs),
        "recovery_seconds": round(checkpointed_seconds, 3),
        "triples_per_s": "(post-checkpoint)",
    })
    print_table("Cold recovery time vs store size", rows)
    record_artifact(ARTIFACT, "recovery_time", {"milestones": rows})
    durable.close()
