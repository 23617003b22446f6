"""Serving front-door throughput and latency under concurrent sessions.

Boots the asyncio gateway on a loopback port and drives ≥ 50 concurrent
mixed sessions — ingest batches, SPARQL queries, health probes over HTTP
plus long-lived WebSocket subscriptions — then checks three things the
serving layer promises:

* sustained throughput with p50/p99 request latency under concurrency,
* served query results bag-equal to direct ``SemanticMiddleware`` calls
  over the same records, and
* no event-loop stall above 100 ms (engine calls run on the worker
  executor; the loop itself only shuttles bytes).

Appends its rows to ``BENCH_serving.json``, the summary artifact the CI
bench-smoke job uploads via the ``BENCH_*.json`` glob.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from pathlib import Path
from typing import Dict, List

from benchmarks._artifact import record_artifact
from benchmarks.conftest import print_table
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.ontologies import build_unified_ontology
from repro.serving import GatewayServer, ServingConfig
from repro.serving.client import HttpClient, WebSocketClient
from repro.serving.serialize import query_result_to_json
from repro.streams.messages import ObservationRecord

ARTIFACT = Path("BENCH_serving.json")

HTTP_SESSIONS = 52
WS_SESSIONS = 4
INGESTS_PER_SESSION = 3
QUERIES_PER_SESSION = 3
RECORDS_PER_INGEST = 4

DISTRICT_SOURCES = [f"Mangaung-mote-{index:02d}" for index in range(8)]


def _session_records(session: int) -> List[List[dict]]:
    """Each session's ingest batches, globally unique timestamps."""
    batches = []
    for ingest in range(INGESTS_PER_SESSION):
        batch = []
        for index in range(RECORDS_PER_INGEST):
            sequence = (session * INGESTS_PER_SESSION + ingest) * RECORDS_PER_INGEST + index
            batch.append({
                "source_id": DISTRICT_SOURCES[sequence % len(DISTRICT_SOURCES)],
                "source_kind": "wsn_mote",
                "property_name": "Bodenfeuchte",
                "value": 10.0 + (sequence % 30),
                "unit": "percent",
                "timestamp": 3600.0 + sequence,
                "location": [-29.1, 26.2],
            })
        batches.append(batch)
    return batches


def _subject_query(session: int) -> str:
    # a per-session variable name keeps the response cache honest: every
    # session's queries miss on first sight instead of riding one entry
    return (
        f"SELECT ?s{session} WHERE "
        f"{{ ?s{session} a <http://purl.oclc.org/NET/ssnx/ssn#Observation> }}"
    )


class _LoadResult:
    def __init__(self):
        self.lock = threading.Lock()
        self.latencies_ms: List[float] = []
        self.failures: List[str] = []
        self.requests = 0
        self.ws_messages = 0

    def record(self, elapsed: float, status: int, expect: int = 200) -> None:
        with self.lock:
            self.requests += 1
            self.latencies_ms.append(1000.0 * elapsed)
            if status != expect:
                self.failures.append(f"status {status}")


def _http_session(port: int, session: int, result: _LoadResult) -> None:
    try:
        with HttpClient("127.0.0.1", port, client_id=f"bench-{session}") as client:
            batches = _session_records(session)
            query = _subject_query(session)
            for index in range(max(INGESTS_PER_SESSION, QUERIES_PER_SESSION)):
                if index < INGESTS_PER_SESSION:
                    started = time.monotonic()
                    status, _, _ = client.post(
                        "/v1/ingest", {"records": batches[index]}
                    )
                    result.record(time.monotonic() - started, status)
                if index < QUERIES_PER_SESSION:
                    started = time.monotonic()
                    status, _, _ = client.post("/v1/query", {"query": query})
                    result.record(time.monotonic() - started, status)
            started = time.monotonic()
            status, _, _ = client.get("/v1/health")
            result.record(time.monotonic() - started, status)
    except Exception as exc:  # pragma: no cover - surfaced in the assert
        with result.lock:
            result.failures.append(repr(exc))


def _ws_session(port: int, session: int, stop: threading.Event,
                result: _LoadResult) -> None:
    try:
        with WebSocketClient(
            "127.0.0.1", port, topics=["canonical/#"],
            client_id=f"bench-ws-{session}",
        ) as subscriber:
            ready = subscriber.recv_json(timeout=10)
            assert ready and ready["type"] == "ready"
            while not stop.is_set():
                message = subscriber.recv_json(timeout=0.5)
                if message and message.get("type") == "message":
                    with result.lock:
                        result.ws_messages += 1
    except Exception as exc:  # pragma: no cover - surfaced in the assert
        with result.lock:
            result.failures.append(repr(exc))


def _percentile(sorted_values: List[float], fraction: float) -> float:
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def test_bench_serving_mixed_sessions(benchmark, wall_clock_thresholds):
    served = SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0),
    )
    twin = SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0),
    )
    # gc discipline (same as the durability bench): in a full-suite run
    # the heap carries millions of objects from earlier harnesses, and a
    # gen-2 collection landing on the gateway's loop thread would show up
    # as loop lag that has nothing to do with serving.  Collect now, park
    # the survivors in the permanent generation, and keep automatic
    # collection off for the measured window.
    gc.collect()
    gc.freeze()
    gc.disable()

    server = GatewayServer(served, ServingConfig()).start()
    result = _LoadResult()
    timing: Dict[str, float] = {}

    def run_load():
        stop = threading.Event()
        ws_threads = [
            threading.Thread(target=_ws_session, args=(server.port, s, stop, result))
            for s in range(WS_SESSIONS)
        ]
        http_threads = [
            threading.Thread(target=_http_session, args=(server.port, s, result))
            for s in range(HTTP_SESSIONS)
        ]
        started = time.monotonic()
        for thread in ws_threads + http_threads:
            thread.start()
        for thread in http_threads:
            thread.join(timeout=300)
        timing["elapsed_s"] = time.monotonic() - started
        stop.set()
        for thread in ws_threads:
            thread.join(timeout=30)

    try:
        # scope the loop-lag high-water mark to the measured load window:
        # server boot (thread spawn, socket bind) is not serving
        server.gateway.max_loop_lag = 0.0
        benchmark.pedantic(run_load, rounds=1, iterations=1)
        assert not result.failures, result.failures[:5]

        # --- bag equality against direct calls over the same records --- #
        all_records = [
            ObservationRecord.from_dict(record)
            for session in range(HTTP_SESSIONS)
            for batch in _session_records(session)
            for record in batch
        ]
        twin_receipt = twin.ingest_batch(all_records)
        assert twin_receipt.accepted == len(all_records)
        with HttpClient("127.0.0.1", server.port) as client:
            status, served_payload, _ = client.post(
                "/v1/query", {"query": _subject_query(0)}
            )
            assert status == 200
            status, metrics, _ = client.get("/v1/metrics")
            assert status == 200
        direct_payload = query_result_to_json(twin.query(_subject_query(0)))
        served_bag = sorted(
            json.dumps(row, sort_keys=True) for row in served_payload["rows"]
        )
        direct_bag = sorted(
            json.dumps(row, sort_keys=True) for row in direct_payload["rows"]
        )
        bag_equal = served_bag == direct_bag
        assert bag_equal, "served results diverge from direct calls"
        assert len(served_bag) == len(all_records)

        # --- the loop never stalled: engine work stayed on the executor - #
        max_lag_ms = metrics["event_loop"]["max_lag_ms"]
        if wall_clock_thresholds:
            assert max_lag_ms < 100.0, f"event loop stalled {max_lag_ms} ms"
        assert result.ws_messages > 0

        latencies = sorted(result.latencies_ms)
        elapsed = timing["elapsed_s"]
        rows = [{
            "sessions": HTTP_SESSIONS + WS_SESSIONS,
            "requests": result.requests,
            "throughput_rps": round(result.requests / elapsed, 1),
            "p50_ms": round(_percentile(latencies, 0.50), 2),
            "p99_ms": round(_percentile(latencies, 0.99), 2),
            "max_ms": round(latencies[-1], 2),
            "ws_messages": result.ws_messages,
            "loop_max_lag_ms": max_lag_ms,
        }]
        print_table("Serving: concurrent mixed sessions", rows)
        record_artifact(ARTIFACT, "mixed_sessions", {
            **rows[0],
            "elapsed_s": round(elapsed, 3),
            "bag_equal": bag_equal,
            "http_sessions": HTTP_SESSIONS,
            "ws_sessions": WS_SESSIONS,
        })
    finally:
        server.stop()
        served.close()
        twin.close()
        gc.enable()
        gc.unfreeze()
        gc.collect()
