"""Tests for the semantic middleware: mediator, annotator, layers, facade."""

import pytest

from repro.core.annotation import SemanticAnnotator
from repro.core.mediator import Mediator, passthrough_mediator
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.core.services import SemanticService, ServiceRegistry
from repro.ik.knowledge_base import IndigenousKnowledgeBase
from repro.ontologies import build_unified_ontology
from repro.ontologies.vocabulary import DROUGHT, ENVO, IK, SSN
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import RDF
from repro.streams.messages import ObservationRecord
from repro.streams.scheduler import DAY


@pytest.fixture(scope="module")
def library():
    return build_unified_ontology(materialize=True)


def record(property_name="Bodenfeuchte", value=15.0, unit="percent",
           source_kind="wsn_mote", source_id="Mangaung-mote-01", timestamp=3600.0):
    return ObservationRecord(
        source_id=source_id, source_kind=source_kind, property_name=property_name,
        value=value, unit=unit, timestamp=timestamp, location=(-29.1, 26.2),
    )


class TestMediator:
    def test_resolves_german_term(self):
        outcome = Mediator().mediate(record("Bodenfeuchte", 15.0, "percent"))
        assert outcome.resolved
        assert outcome.observation.property_key == "soil_moisture"
        assert outcome.observation.area == "Mangaung"

    def test_unit_conversion_to_canonical(self):
        outcome = Mediator().mediate(record("Hoehe", 250.0, "cm"))
        assert outcome.observation.property_key == "water_level"
        assert outcome.observation.value == pytest.approx(2500.0)
        assert outcome.observation.unit == "mm"

    def test_fahrenheit_station_report(self):
        outcome = Mediator().mediate(record("Dry Bulb Temperature", 77.0, "degF"))
        assert outcome.observation.property_key == "air_temperature"
        assert outcome.observation.value == pytest.approx(25.0)

    def test_unresolved_term_reported(self):
        mediator = Mediator()
        outcome = mediator.mediate(record("quantum_flux", 1.0, "percent"))
        assert not outcome.resolved
        assert "unresolved term" in outcome.failure_reason
        assert mediator.statistics.unresolved_term == 1

    def test_wrong_dimension_unit_rejected_when_strict(self):
        outcome = Mediator(strict_units=True).mediate(record("Bodenfeuchte", 15.0, "degF"))
        assert not outcome.resolved

    def test_lenient_units_pass_value_through(self):
        outcome = Mediator(strict_units=False).mediate(record("Bodenfeuchte", 15.0, "degF"))
        assert outcome.resolved
        assert outcome.observation.value == pytest.approx(15.0)

    def test_out_of_range_value_rejected(self):
        outcome = Mediator().mediate(record("Bodenfeuchte", 1e9, "percent"))
        assert not outcome.resolved

    def test_ik_sighting_mediation(self):
        outcome = Mediator().mediate(record(
            "sifennefene_worms", 0.9, None, source_kind="ik_sighting",
            source_id="Mangaung-farmer-001",
        ))
        assert outcome.resolved
        assert outcome.observation.is_indicator_sighting

    def test_unknown_indicator_rejected(self):
        outcome = Mediator().mediate(record(
            "unknown_sign", 0.9, None, source_kind="ik_sighting"))
        assert not outcome.resolved

    def test_statistics_resolution_rate(self):
        mediator = Mediator()
        mediator.mediate_many([
            record("Bodenfeuchte"), record("Stav", 1.2, "m"), record("nonsense-xyz"),
        ])
        assert mediator.statistics.records_seen == 3
        assert mediator.statistics.resolution_rate == pytest.approx(2 / 3)
        assert mediator.statistics.by_method.get("synonym", 0) >= 2

    def test_passthrough_mediator_fails_on_synonyms(self):
        mediator = passthrough_mediator()
        assert not mediator.mediate(record("Bodenfeuchte")).resolved
        assert mediator.mediate(record("soil_moisture")).resolved


class TestAnnotator:
    def test_observation_annotation_follows_ssn(self, library):
        graph = library.graph.copy()
        annotator = SemanticAnnotator(graph)
        outcome = Mediator().mediate(record("Bodenfeuchte", 15.0, "percent"))
        result = annotator.annotate(outcome.observation)
        assert result.triples_added >= 10
        assert (result.observation_iri, RDF.type, SSN.Observation) in graph
        assert (result.observation_iri, SSN.observedProperty, ENVO.SoilMoisture) in graph
        assert (result.observation_iri, SSN.observedBy, result.sensor_iri) in graph

    def test_sighting_annotation(self, library):
        graph = library.graph.copy()
        annotator = SemanticAnnotator(graph, knowledge_base=IndigenousKnowledgeBase())
        outcome = Mediator().mediate(record(
            "mutiga_tree_flowering", 0.8, None, source_kind="ik_sighting",
            source_id="Mangaung-farmer-002",
        ))
        result = annotator.annotate(outcome.observation)
        assert (result.observation_iri, RDF.type, IK.IndicatorSighting) in graph
        assert annotator.annotated_sightings == 1

    def test_annotated_observations_are_queryable(self, library):
        graph = library.graph.copy()
        annotator = SemanticAnnotator(graph)
        for value in (10.0, 30.0):
            outcome = Mediator().mediate(record("Bodenfeuchte", value, "percent"))
            annotator.annotate(outcome.observation)
        from repro.semantics.sparql.evaluator import query

        result = query(graph, """
            SELECT ?obs ?v WHERE {
                ?obs ssn:observedProperty envo:SoilMoisture .
                ?obs ssn:hasResult ?r .
                ?r ssn:hasValue ?v .
                FILTER (?v > 20)
            }
        """)
        assert len(result) == 1


class TestServiceRegistry:
    def test_register_and_find(self):
        registry = ServiceRegistry(Graph())
        registry.register(SemanticService(
            name="forecasts", topic="forecast/#", description="drought forecasts",
            provides=[DROUGHT.DroughtForecast],
        ))
        assert registry.get("forecasts") is not None
        assert len(registry.find_providing(DROUGHT.DroughtForecast)) == 1
        assert registry.find_providing(DROUGHT.DroughtAlert) == []

    def test_unregister(self):
        registry = ServiceRegistry(Graph())
        registry.register(SemanticService("x", "x/#", "test"))
        assert registry.unregister("x")
        assert not registry.unregister("x")
        assert len(registry) == 0

    def test_find_by_layer(self):
        registry = ServiceRegistry()
        registry.register(SemanticService("a", "a/#", "", layer="application"))
        registry.register(SemanticService("b", "b/#", "", layer="ontology-segment"))
        assert [s.name for s in registry.find_by_layer("application")] == ["a"]


class TestSemanticMiddleware:
    @pytest.fixture
    def middleware(self, library):
        return SemanticMiddleware(
            library=library,
            config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0),
        )

    def test_ingest_publishes_canonical_event(self, middleware):
        received = []
        middleware.subscribe_property("soil_moisture", received.append)
        event = middleware.ingest_record(record("Bodenfeuchte", 14.0, "percent"))
        assert event is not None
        assert received and received[0].event_type == "soil_moisture"
        assert received[0].area == "Mangaung"

    def test_unresolved_record_produces_no_event(self, middleware):
        assert middleware.ingest_record(record("nonsense-term")) is None

    def test_heterogeneous_sources_converge_on_topic(self, middleware):
        received = []
        middleware.subscribe_property("water_level", received.append)
        for raw in [
            record("Hoehe", 120.0, "cm", source_id="Mangaung-gauge-1"),
            record("Stav", 1.2, "m", source_id="Mangaung-gauge-2"),
            record("water level", 1200.0, "mm", source_id="Mangaung-gauge-3"),
        ]:
            middleware.ingest_record(raw)
        assert len(received) == 3
        values = sorted(event.value for event in received)
        assert values == pytest.approx([1200.0, 1200.0, 1200.0])

    def test_ik_sighting_reaches_knowledge_base_and_cep(self, middleware):
        derived = []
        middleware.subscribe_derived("ik_dry_indication", derived.append)
        for index in range(4):
            middleware.ingest_record(record(
                "sifennefene_worms", 0.9, None, source_kind="ik_sighting",
                source_id=f"Mangaung-farmer-{index:03d}", timestamp=(index + 1) * DAY,
            ))
        assert middleware.knowledge_base.sightings
        assert derived and derived[0].rule_name == "ik_sifennefene_worms"

    def test_inject_aggregate_event_triggers_sensor_rules(self, middleware):
        from repro.cep.event import Event

        derived = []
        middleware.subscribe_derived("soil_drying_process", derived.append)
        for day in range(1, 9):
            middleware.inject_event(Event(
                "soil_moisture_anomaly", -1.8, day * DAY,
                source_id="aggregate:Mangaung", area="Mangaung",
            ))
        assert derived

    def test_query_over_annotations(self, middleware):
        middleware.ingest_record(record("PLUVIO", 5.0, "mm", source_id="Mangaung-mote-07"))
        result = middleware.query(
            "SELECT ?obs WHERE { ?obs ssn:observedProperty envo:Rainfall . }"
        )
        assert len(result) >= 1

    def test_services_exposed(self, middleware):
        names = {service.name for service in middleware.services()}
        assert {"canonical-observations", "derived-events", "ontology-query"} <= names

    def test_statistics_snapshot(self, middleware):
        middleware.ingest_record(record("Bodenfeuchte"))
        stats = middleware.statistics()
        assert stats["mediation"].records_seen >= 1
        assert stats["graph_triples"] > 1000

    def test_register_custom_rule(self, middleware):
        from repro.cep.dsl import parse_rule

        middleware.register_rule(parse_rule("""
            RULE frost_watch
            WHEN air_temperature BELOW 0 WITHIN 2 DAYS
            EMIT frost_event
        """))
        assert "frost_watch" in middleware.ontology_layer.cep.rules

    def test_annotation_can_be_disabled(self, library):
        middleware = SemanticMiddleware(
            library=library,
            config=MiddlewareConfig(annotate_observations=False, broker_latency=0.0),
        )
        before = len(middleware.graph)
        middleware.ingest_record(record("Bodenfeuchte"))
        assert len(middleware.graph) == before


class TestInterfaceLayer:
    def test_cloud_polling_path(self, library):
        from repro.dews.cloud import CloudStore
        from repro.streams.messages import SenMLCodec
        from repro.streams.scheduler import SimulationScheduler

        scheduler = SimulationScheduler()
        middleware = SemanticMiddleware(
            scheduler=scheduler, library=library,
            config=MiddlewareConfig(annotate_observations=False, cloud_poll_interval=600.0,
                                    broker_latency=0.0),
        )
        cloud = CloudStore()
        middleware.attach_cloud_store(cloud)
        received = []
        middleware.subscribe_property("rainfall", received.append)
        cloud.ingest(SenMLCodec.encode([record("Niederschlag", 7.0, "mm",
                                               source_id="Mangaung-mote-02")]), 0.0)
        scheduler.run_until(1200.0)
        assert middleware.interface_layer.statistics.records_decoded == 1
        assert received and received[0].value == pytest.approx(7.0)

    def test_decode_failure_counted(self, library):
        from repro.core.interface_layer import InterfaceProtocolLayer
        from repro.dews.cloud import CloudStore

        cloud = CloudStore()
        cloud.ingest("this is not json", 0.0)
        layer = InterfaceProtocolLayer(cloud, batch_sink=lambda records: None)
        layer.poll()
        assert layer.statistics.decode_failures == 1
