"""Tests for the staged ingestion pipeline and the batch ingestion APIs."""

import math
import random
from dataclasses import asdict

import pytest

from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.core.pipeline import (
    IngestionContext,
    MediateStage,
    Pipeline,
    Stage,
    ValidateStage,
)
from repro.core.mediator import Mediator
from repro.ontologies import build_unified_ontology
from repro.streams.messages import ObservationRecord
from repro.streams.scheduler import DAY

from test_process_backend import build, graph_bags
from test_sharding import event_key, make_stream


def record(property_name="Bodenfeuchte", value=15.0, unit="percent",
           source_kind="wsn_mote", source_id="Mangaung-mote-01", timestamp=3600.0):
    return ObservationRecord(
        source_id=source_id, source_kind=source_kind, property_name=property_name,
        value=value, unit=unit, timestamp=timestamp, location=(-29.1, 26.2),
    )


def mixed_workload():
    """Valid observations, a sighting burst, an unresolvable term and unit mixes."""
    records = [
        record("Bodenfeuchte", 14.0, "percent"),
        record("Hoehe", 120.0, "cm", source_id="Mangaung-gauge-1"),
        record("nonsense-term"),
        record("Stav", 1.2, "m", source_id="Mangaung-gauge-2"),
        record("Dry Bulb Temperature", 77.0, "degF", source_id="Mangaung-stn-1"),
    ]
    for index in range(4):
        records.append(record(
            "sifennefene_worms", 0.9, None, source_kind="ik_sighting",
            source_id=f"Mangaung-farmer-{index:03d}", timestamp=(index + 1) * DAY,
        ))
    records.append(record("PLUVIO", 5.0, "mm", source_id="Mangaung-mote-07"))
    return records


class TestPipelineAbstraction:
    def test_stage_drop_accounting(self):
        class DropOdd(Stage):
            name = "drop-odd"

            def process(self, context):
                return context.record % 2 == 0

        class Double(Stage):
            name = "double"

            def process(self, context):
                context.event = context.record * 2
                return True

        pipeline = Pipeline([DropOdd(), Double()])
        contexts = [IngestionContext(record=i) for i in range(6)]
        survivors = pipeline.run_batch(contexts)
        assert [c.event for c in survivors] == [0, 4, 8, 12, 16, 20][:3]
        stats = pipeline.statistics
        assert stats.records == 6
        assert stats.batches == 1
        assert stats.stages["drop-odd"].entered == 6
        assert stats.stages["drop-odd"].dropped == 3
        assert stats.stages["double"].entered == 3
        assert stats.stages["double"].dropped == 0
        dropped = [c for c in contexts if c.dropped_by is not None]
        assert all(c.dropped_by == "drop-odd" for c in dropped)

    def test_run_marks_dropping_stage(self):
        class Reject(Stage):
            name = "reject"

            def process(self, context):
                return False

        pipeline = Pipeline([Reject()])
        context = IngestionContext(record=object())
        assert pipeline.run_batch([context]) == []
        assert context.dropped_by == "reject"

    def test_mediate_stage_batch_matches_single(self):
        records = mixed_workload()
        single = Pipeline([MediateStage(Mediator())])
        batch = Pipeline([MediateStage(Mediator())])
        single_survivors = [
            c for r in records for c in single.run_batch([IngestionContext(r)])
        ]
        batch_survivors = batch.run_batch([IngestionContext(r) for r in records])
        assert len(single_survivors) == len(batch_survivors)
        for a, b in zip(single_survivors, batch_survivors):
            assert a.observation.property_key == b.observation.property_key
            assert a.observation.value == pytest.approx(b.observation.value)

    def test_validate_stage_drops_non_finite(self):
        mediator = Mediator(strict_units=False)
        stage = ValidateStage()
        good = IngestionContext(record("Bodenfeuchte", 15.0))
        good.observation = mediator.mediate(good.record).observation
        assert stage.process(good)
        bad = IngestionContext(record("Bodenfeuchte", 15.0))
        bad.observation = mediator.mediate(bad.record).observation
        bad.observation.value = math.nan
        assert not stage.process(bad)


@pytest.fixture(scope="module")
def libraries():
    # two independent libraries so the two middleware instances do not
    # share (and cross-deduplicate within) one annotation graph
    return build_unified_ontology(materialize=True), build_unified_ontology(materialize=True)


class TestBatchIngestionEquivalence:
    def build(self, library):
        return SemanticMiddleware(
            library=library,
            config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0),
        )

    def test_ingest_batch_equivalent_to_ingest_records(self, libraries):
        records = mixed_workload()
        single = self.build(libraries[0])
        batch = self.build(libraries[1])

        looped = [single.ingest_record(r) for r in records]
        single_events = [event for event in looped if event is not None]
        batch_events = batch.ingest_batch(records)

        assert len(single_events) == len(batch_events)
        for a, b in zip(single_events, batch_events):
            assert a.event_type == b.event_type
            assert a.value == pytest.approx(b.value)
            assert a.timestamp == pytest.approx(b.timestamp)
            assert a.area == b.area
            assert a.source_id == b.source_id
            assert a.annotation_iri == b.annotation_iri

        single_stats = single.ontology_layer.statistics
        batch_stats = batch.ontology_layer.statistics
        assert single_stats.records_in == batch_stats.records_in
        assert single_stats.observations_out == batch_stats.observations_out
        assert single_stats.sightings_out == batch_stats.sightings_out
        assert single_stats.derived_events == batch_stats.derived_events
        assert single_stats.annotation_triples == batch_stats.annotation_triples
        assert len(single.graph) == len(batch.graph)

    def test_ingest_record_is_a_batch_of_one(self):
        """``ingest_record(r)`` and ``ingest_batch([r])`` are one code path:
        same events, graphs, layer / mediator / per-stage counters."""
        records = make_stream(random.Random(41), 60)
        with build(3, "inline") as by_record, build(3, "inline") as by_batch:
            looped = [by_record.ingest_record(r) for r in records]
            batched = [next(iter(by_batch.ingest_batch([r])), None) for r in records]
            assert None in looped  # the stream carries junk on purpose
            assert [e and event_key(e) for e in looped] == [
                e and event_key(e) for e in batched
            ]
            one, other = by_record.ontology_layer, by_batch.ontology_layer
            assert graph_bags(one) == graph_bags(other)
            assert one.statistics == other.statistics
            assert asdict(one.mediator.statistics) == asdict(other.mediator.statistics)
            assert asdict(one.pipeline.statistics) == asdict(other.pipeline.statistics)
            entered = one.pipeline.statistics.stages
            assert entered["mediate"].entered == len(records)
            assert entered["mediate"].dropped + entered["validate"].dropped == (
                looped.count(None)
            )

    def test_batch_publishes_canonical_and_derived_events(self, libraries):
        middleware = self.build(libraries[0])
        canonical, derived = [], []
        middleware.subscribe_property("soil_moisture", canonical.append)
        middleware.subscribe_derived("ik_dry_indication", derived.append)
        middleware.ingest_batch(mixed_workload())
        assert canonical and canonical[0].event_type == "soil_moisture"
        assert derived and derived[0].rule_name == "ik_sifennefene_worms"
        assert middleware.knowledge_base.sightings

    def test_empty_batch(self, libraries):
        middleware = self.build(libraries[0])
        assert middleware.ingest_batch([]) == []

    def test_interface_layer_forwards_poll_as_batch(self, libraries):
        from repro.dews.cloud import CloudStore
        from repro.streams.messages import SenMLCodec
        from repro.streams.scheduler import SimulationScheduler

        scheduler = SimulationScheduler()
        middleware = SemanticMiddleware(
            scheduler=scheduler, library=libraries[1],
            config=MiddlewareConfig(annotate_observations=False,
                                    cloud_poll_interval=600.0, broker_latency=0.0),
        )
        cloud = CloudStore()
        middleware.attach_cloud_store(cloud)
        received = []
        middleware.subscribe_property("rainfall", received.append)
        cloud.ingest(SenMLCodec.encode(
            [record("Niederschlag", 7.0, "mm", source_id="Mangaung-mote-02"),
             record("PLUVIO", 3.0, "mm", source_id="Mangaung-mote-03")]), 0.0)
        scheduler.run_until(1200.0)
        stats = middleware.interface_layer.statistics
        assert stats.records_decoded == 2
        assert stats.batches_forwarded == 1
        assert len(received) == 2
        assert middleware.statistics()["pipeline"].batches == 1
