"""Broker routing and batch-ingestion throughput.

Quantifies the two middleware hot paths this repo optimises:

* trie-indexed topic routing vs the naive linear scan over all
  subscriptions, at 10 / 100 / 1000 subscriptions, and
* stage-major batch ingestion (``ingest_batch``) vs the per-record loop
  (``ingest_record`` per record).
"""

from __future__ import annotations

import time
from typing import List

import pytest

from benchmarks.conftest import print_table
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.streams.broker import Broker, topic_matches
from repro.streams.messages import ObservationRecord

SUBSCRIPTION_COUNTS = [10, 100, 1000]


class LinearScanBroker:
    """The pre-trie routing baseline: match every subscription per publish."""

    def __init__(self):
        self._subscriptions = []

    def subscribe(self, pattern, handler):
        self._subscriptions.append((pattern, handler))

    def publish(self, topic, payload):
        for pattern, handler in self._subscriptions:
            if topic_matches(pattern, topic):
                handler(payload)


def _subscribe_n(broker, count: int) -> None:
    # realistic application-layer shapes: exact, one-level-wildcard and
    # subtree subscriptions spread over distinct properties/areas
    for index in range(count):
        prop = f"property-{index % (count // 2 or 1)}"
        if index % 3 == 0:
            pattern = f"canonical/{prop}/+"
        elif index % 3 == 1:
            pattern = f"canonical/{prop}/area-{index}"
        else:
            pattern = f"derived/{prop}/#"
        broker.subscribe(pattern, lambda m: None)


def _publish_topics(count: int) -> List[str]:
    return [f"canonical/property-{i % (count // 2 or 1)}/area-{i}" for i in range(200)]


def _time_publishes(broker, topics, repeats=5) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        for topic in topics:
            broker.publish(topic, None)
    return (time.perf_counter() - start) / (repeats * len(topics))


@pytest.mark.parametrize("count", SUBSCRIPTION_COUNTS)
def test_bench_trie_publish_throughput(benchmark, count):
    """Per-publish cost of trie routing at growing subscription counts."""
    broker = Broker()
    _subscribe_n(broker, count)
    topics = _publish_topics(count)

    def run():
        for topic in topics:
            broker.publish(topic, None)

    benchmark(run)


@pytest.mark.parametrize("count", SUBSCRIPTION_COUNTS)
def test_bench_linear_publish_throughput(benchmark, count):
    """The linear-scan baseline on the identical workload."""
    broker = LinearScanBroker()
    _subscribe_n(broker, count)
    topics = _publish_topics(count)

    def run():
        for topic in topics:
            broker.publish(topic, None)

    benchmark(run)


def test_routing_scales_sublinearly(wall_clock_thresholds):
    """Trie routing must not grow linearly with the subscription count.

    A 10x increase in subscriptions (100 -> 1000) multiplies the linear
    scan's per-publish cost by roughly 10x; the trie walk depends only on
    topic depth plus matched fanout and must stay well below that.
    """
    rows = []
    per_publish = {}
    for count in SUBSCRIPTION_COUNTS:
        trie_broker = Broker()
        linear_broker = LinearScanBroker()
        _subscribe_n(trie_broker, count)
        _subscribe_n(linear_broker, count)
        topics = _publish_topics(count)
        trie_time = _time_publishes(trie_broker, topics)
        linear_time = _time_publishes(linear_broker, topics)
        per_publish[count] = (trie_time, linear_time)
        rows.append({
            "subscriptions": count,
            "trie_us": round(trie_time * 1e6, 2),
            "linear_us": round(linear_time * 1e6, 2),
            "speedup": round(linear_time / trie_time, 1),
        })
    print_table("Broker routing: trie vs linear scan (per publish)", rows)

    if not wall_clock_thresholds:
        return
    trie_growth = per_publish[1000][0] / per_publish[100][0]
    linear_growth = per_publish[1000][1] / per_publish[100][1]
    # the trie's 100 -> 1000 growth factor must be far below the linear
    # scan's (~10x); allow generous slack for timer noise
    assert trie_growth < linear_growth / 2
    assert trie_growth < 5.0
    # and at 1000 subscriptions the trie must beat the scan outright
    assert per_publish[1000][0] < per_publish[1000][1] / 2


def _ingestion_records(count: int) -> List[ObservationRecord]:
    properties = [
        ("Bodenfeuchte", "percent"), ("PLUVIO", "mm"), ("Hoehe", "cm"),
        ("Dry Bulb Temperature", "degF"), ("Stav", "m"),
    ]
    records = []
    for index in range(count):
        name, unit = properties[index % len(properties)]
        records.append(ObservationRecord(
            source_id=f"Mangaung-mote-{index % 40:02d}", source_kind="wsn_mote",
            property_name=name, value=10.0 + (index % 17), unit=unit,
            timestamp=60.0 * index, location=(-29.1, 26.2),
        ))
    return records


def _middleware(ontology_library, annotate=False):
    return SemanticMiddleware(
        library=ontology_library,
        config=MiddlewareConfig(annotate_observations=annotate, broker_latency=0.0),
    )


def test_bench_ingest_batch_vs_single(ontology_library, wall_clock_thresholds):
    """Batch ingestion must measurably beat the per-record loop at 10k records."""
    records = _ingestion_records(10_000)

    single = _middleware(ontology_library)
    start = time.perf_counter()
    single_events = [single.ingest_record(record) for record in records]
    single_time = time.perf_counter() - start

    batch = _middleware(ontology_library)
    start = time.perf_counter()
    batch_events = batch.ingest_batch(records)
    batch_time = time.perf_counter() - start

    assert len(single_events) == len(batch_events) == len(records)
    print_table("Ingestion: 10k records, per-record loop vs stage-major batch", [
        {"mode": "ingest_record loop", "seconds": round(single_time, 3),
         "records_per_s": int(len(records) / single_time)},
        {"mode": "ingest_batch", "seconds": round(batch_time, 3),
         "records_per_s": int(len(records) / batch_time)},
    ])
    # stage-major batching amortises term alignment, graph commits and the
    # CEP flush; it must clearly beat the per-record loop, not just tie it
    if wall_clock_thresholds:
        assert batch_time < single_time * 0.8


def test_bench_ingest_batch_throughput(benchmark, ontology_library):
    """pytest-benchmark timing for the stage-major batch path (2k records)."""
    records = _ingestion_records(2_000)
    middleware = _middleware(ontology_library)
    benchmark.pedantic(lambda: middleware.ingest_batch(records), rounds=3, iterations=1)
