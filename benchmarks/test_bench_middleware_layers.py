"""E2 -- three-tier middleware path (paper Fig. 3 / §4.2).

Measures the per-observation cost of each middleware stage (mediation only,
mediation + annotation, full ingest with CEP and broker publication) and the
end-to-end path from cloud upload to application delivery.
"""

import pytest

from benchmarks.conftest import print_table
from repro.core.mediator import Mediator
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.dews.cloud import CloudStore
from repro.streams.messages import ObservationRecord, SenMLCodec
from repro.streams.scheduler import SimulationScheduler


def _records(count=500):
    spellings = [("Bodenfeuchte", "percent"), ("Hoehe", "cm"), ("Dry Bulb Temperature", "degF"),
                 ("PLUVIO", "mm"), ("Stav", "m"), ("NDVI", "index")]
    return [
        ObservationRecord(
            source_id=f"Mangaung-mote-{index % 10:02d}", source_kind="wsn_mote",
            property_name=spellings[index % len(spellings)][0],
            value=10.0 + (index % 20), unit=spellings[index % len(spellings)][1],
            timestamp=float(index * 60), location=(-29.1, 26.2),
        )
        for index in range(count)
    ]


def test_bench_mediation_only(benchmark):
    records = _records()
    mediator = Mediator()
    benchmark(lambda: mediator.mediate_many(records))


def test_bench_ingest_without_annotation(benchmark, ontology_library):
    records = _records()
    middleware = SemanticMiddleware(
        library=ontology_library,
        config=MiddlewareConfig(annotate_observations=False, broker_latency=0.0),
    )
    benchmark(lambda: [middleware.ingest_record(r) for r in records])


def test_bench_ingest_with_annotation(benchmark, ontology_library):
    records = _records(200)
    middleware = SemanticMiddleware(
        library=ontology_library,
        config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0),
    )
    benchmark.pedantic(
        lambda: [middleware.ingest_record(r) for r in records], rounds=3, iterations=1
    )


def test_bench_end_to_end_layer_table(benchmark, ontology_library):
    """The E2 table: message counts and latency through the three layers."""
    scheduler = SimulationScheduler()
    middleware = SemanticMiddleware(
        scheduler=scheduler, library=ontology_library,
        config=MiddlewareConfig(annotate_observations=False, broker_latency=0.05,
                                cloud_poll_interval=300.0),
    )
    cloud = CloudStore()
    middleware.attach_cloud_store(cloud)
    delivered = []
    middleware.subscribe_property("+", lambda event: delivered.append(event))

    records = _records(300)
    for start in range(0, len(records), 50):
        batch = records[start:start + 50]
        cloud.ingest(SenMLCodec.encode(batch), timestamp=float(start))
    scheduler.run_until(3600.0)

    stats = benchmark(middleware.statistics)
    rows = [
        {"layer": "interface protocol", "metric": "documents downloaded",
         "value": stats["interface_layer"].documents_downloaded},
        {"layer": "interface protocol", "metric": "records decoded",
         "value": stats["interface_layer"].records_decoded},
        {"layer": "ontology segment", "metric": "records mediated",
         "value": stats["mediation"].records_seen},
        {"layer": "ontology segment", "metric": "resolution rate",
         "value": round(stats["mediation"].resolution_rate, 3)},
        {"layer": "application abstraction", "metric": "canonical events published",
         "value": stats["application_layer"].events_published},
        {"layer": "application abstraction", "metric": "events delivered to app",
         "value": len(delivered)},
        {"layer": "broker", "metric": "mean fanout",
         "value": round(stats["broker"].fanout, 2)},
    ]
    print_table("E2: three-tier middleware path", rows)

    assert stats["interface_layer"].records_decoded == 300
    assert stats["application_layer"].events_published >= 290
    assert len(delivered) >= 290
