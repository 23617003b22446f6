"""What the harness emits: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is the contract the driver
reads; this module is the harness's side of it, and ``test_harness.py``
asserts the two name the same things.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

SCHEMA_VERSION = 1
#: seconds one run measures (``--seconds`` defaults to it)
RUN_SECONDS = 15
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: name -> why the workload exists (one line; also in BENCHMARK.json)
WORKLOADS: Dict[str, str] = {
    "poll_serve": "serve-while-ingesting loop, panels ad hoc: the planner re-evaluates the dirty shard, views do nothing",
    "views_serve": "same traffic with the 14 panels registered as standing views: writes pay delta maintenance, reads are view hits",
    "entail_serve": "unsharded engine, every panel asked with entailment: the reasoner's incremental top-up is most of each tick",
    "durable_flood": "write-only closed loop into 2 durable process shards, then SIGKILL and recovery: pipeline, shard RPC, WAL and snapshots",
    "dews_season": "the paper's application as a batch: sensors, SenML polls, vendor mediation, CEP, IK, forecasting, dissemination",
}

#: (name, unit, better, bound) — every workload reports every one of them;
#: README.md says what each means on each workload.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ingest_records_per_s", "records/s", "higher", 0.12),
    ("ingest_p50_ms", "ms", "lower", 0.18),
    ("query_p50_ms", "ms", "lower", 0.15),
    ("query_p95_ms", "ms", "lower", 0.22),
    ("tick_p50_ms", "ms", "lower", 0.15),
    ("tick_p90_ms", "ms", "lower", 0.22),
    ("alert_p50_ms", "ms", "lower", 0.25),
    ("alert_p90_ms", "ms", "lower", 0.25),
    ("recovery_s", "s", "lower", 0.20),
    ("sim_days_per_s", "days/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: the latency metrics whose sample counts the traced pass reports
SAMPLED = ["ingest", "query", "tick", "alert"]

_STAGES = ["mediate", "validate", "annotate", "reason", "publish", "cep"]

#: (name, unit, better) — read in the traced pass; counters come from the
#: program's own statistics routes, times from the shadow-wrapped spans.
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        ("failed_share", "ratio", "lower"),
        ("serving.outside_engine_p50_ms", "ms", "lower"),
        ("serving.outside_engine_p99_ms", "ms", "lower"),
        ("serving.decode_ms", "ms", "lower"),
        ("serving.serialize_ms", "ms", "lower"),
        ("serving.response_bytes", "bytes", "lower"),
        ("serving.cache_hit_share", "ratio", "higher"),
        ("serving.route_mean_ms.ingest", "ms", "lower"),
        ("serving.route_mean_ms.query", "ms", "lower"),
        ("serving.loop_max_lag_ms", "ms", "lower"),
        ("serving.ws_delivered", "count", "higher"),
        ("serving.ws_dropped", "count", "lower"),
        ("serving.query_p99_ms", "ms", "lower"),
    ]
    + [(f"pipeline.{stage}.busy_s", "s", "lower") for stage in _STAGES]
    + [
        ("pipeline.mediate.dropped", "count", "lower"),
        ("pipeline.validate.dropped", "count", "lower"),
        ("pipeline.batches", "count", "lower"),
        ("graph.add_all.busy_s", "s", "lower"),
        ("graph.triples", "count", "lower"),
        ("graph.rss_bytes_per_triple", "bytes", "lower"),
        ("reasoner.topup.busy_s", "s", "lower"),
        ("reasoner.topups", "count", "lower"),
        ("reasoner.inferred_triples", "count", "lower"),
        ("planner.query.busy_s", "s", "lower"),
        ("planner.result_hit_share", "ratio", "higher"),
        ("planner.view_hit_share", "ratio", "higher"),
        ("planner.plans_built", "count", "lower"),
        ("planner.result_misses", "count", "lower"),
        ("views.refresh.busy_s", "s", "lower"),
        ("views.delta_updates", "count", "lower"),
        ("views.full_refreshes", "count", "lower"),
        ("shards.rpc.busy_s", "s", "lower"),
        ("shards.rpc.calls", "count", "lower"),
        ("shards.skew", "ratio", "lower"),
        ("shards.restarts", "count", "lower"),
        ("shards.queue_depth_max", "count", "lower"),
        ("persistence.wal_bytes_per_record", "bytes", "lower"),
        ("persistence.disk_bytes_per_triple", "bytes", "lower"),
        ("persistence.checkpoints", "count", "lower"),
        ("persistence.reopen_s", "s", "lower"),
        ("broker.publish.busy_s", "s", "lower"),
        ("broker.published", "count", "lower"),
        ("broker.fanout", "ratio", "lower"),
        ("cep.process.busy_s", "s", "lower"),
        ("cep.derived_events", "count", "lower"),
        ("sensors.sample.busy_s", "s", "lower"),
        ("sensors.gateway_receive.busy_s", "s", "lower"),
        ("interface.poll.busy_s", "s", "lower"),
        ("forecasting.busy_s", "s", "lower"),
        ("dews.aggregate.busy_s", "s", "lower"),
        ("dews.disseminate.busy_s", "s", "lower"),
        ("loadgen.schedule_lag_p95_ms", "ms", "lower"),
        ("loadgen.ops", "count", "higher"),
    ]
    + [(f"loadgen.samples.{metric}", "count", "higher") for metric in SAMPLED]
    + [
        ("loadgen.tick_max_ms", "ms", "lower"),
        ("loadgen.alert_max_ms", "ms", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("trace.coverage_share", "ratio", "higher"),
    ]
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_json() -> dict:
    """The contract file's content, generated from this registry."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
