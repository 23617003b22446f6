"""Tests for ontology construction, restrictions, rules and the reasoner."""

import pytest

from repro.semantics.owl.ontology import Ontology
from repro.semantics.owl.restrictions import AllValuesFrom, Cardinality, HasValue, SomeValuesFrom
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import Namespace, OWL, RDF, RDFS
from repro.semantics.rdf.term import IRI, Literal, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.reasoner import Reasoner
from repro.semantics.rules import Rule, RuleEngine

from naive_fixpoint import naive_run, reasoner_closure

EX = Namespace("http://example.org/")


@pytest.fixture
def ontology():
    onto = Ontology(IRI("http://example.org/ontology"))
    device = onto.declare_class(EX.Device, label="device")
    sensor = onto.declare_class(EX.Sensor, parents=[device])
    onto.declare_class(EX.SoilSensor, parents=[sensor])
    onto.declare_object_property(EX.observes, domain=sensor, range=EX.Property)
    onto.declare_datatype_property(EX.hasAccuracy, domain=sensor)
    onto.declare_individual(EX.s1, types=[EX.SoilSensor], label="mote 1")
    return onto


class TestOntology:
    def test_class_hierarchy(self, ontology):
        assert EX.Device in ontology.superclasses(EX.SoilSensor)
        assert EX.SoilSensor in ontology.subclasses(EX.Device)
        assert ontology.is_subclass(EX.SoilSensor, EX.Device)
        assert not ontology.is_subclass(EX.Device, EX.SoilSensor)

    def test_classify_individual(self, ontology):
        classes = ontology.classify_individual(EX.s1)
        assert {EX.SoilSensor, EX.Sensor, EX.Device} <= classes

    def test_declare_is_idempotent(self, ontology):
        first = ontology.declare_class(EX.Sensor)
        second = ontology.declare_class(EX.Sensor)
        assert first is second

    def test_labels_materialised(self, ontology):
        assert ontology.classes[EX.Device].label == "device"

    def test_assert_fact_scalar_coercion(self, ontology):
        ontology.assert_fact(EX.s1, EX.hasAccuracy, 0.9)
        assert ontology.graph.literal_value(EX.s1, EX.hasAccuracy) == pytest.approx(0.9)

    def test_property_characteristics(self, ontology):
        prop = ontology.declare_object_property(EX.partOf)
        prop.make_transitive()
        assert Triple(EX.partOf, RDF.type, OWL.TransitiveProperty) in ontology.graph

    def test_equivalences(self, ontology):
        ontology.declare_class(EX.Hoehe)
        ontology.equivalent_classes(EX.Hoehe, EX.WaterLevel)
        assert Triple(EX.Hoehe, OWL.equivalentClass, EX.WaterLevel) in ontology.graph

    def test_imports_merges_registries(self, ontology):
        other = Ontology(IRI("http://example.org/other"))
        other.declare_class(EX.Gauge)
        ontology.imports(other)
        assert EX.Gauge in ontology.classes
        assert Triple(ontology.iri, OWL.imports, other.iri) in ontology.graph

    def test_instances(self, ontology):
        assert EX.s1 in ontology.classes[EX.SoilSensor].instances()


class TestRestrictions:
    def make_graph(self):
        g = Graph()
        g.add(Triple(EX.obs1, EX.observedBy, EX.s1))
        g.add(Triple(EX.s1, RDF.type, EX.Sensor))
        g.add(Triple(EX.obs2, EX.observedBy, EX.notASensor))
        return g

    def test_some_values_from(self):
        g = self.make_graph()
        restriction = SomeValuesFrom(EX.observedBy, EX.Sensor)
        assert restriction.satisfied_by(g, EX.obs1)
        assert not restriction.satisfied_by(g, EX.obs2)

    def test_all_values_from(self):
        g = self.make_graph()
        restriction = AllValuesFrom(EX.observedBy, EX.Sensor)
        assert restriction.satisfied_by(g, EX.obs1)
        assert not restriction.satisfied_by(g, EX.obs2)
        # vacuously satisfied with no values
        assert restriction.satisfied_by(g, EX.obs3)

    def test_has_value(self):
        g = self.make_graph()
        assert HasValue(EX.observedBy, EX.s1).satisfied_by(g, EX.obs1)
        assert not HasValue(EX.observedBy, EX.s1).satisfied_by(g, EX.obs2)

    def test_cardinality(self):
        g = self.make_graph()
        assert Cardinality(EX.observedBy, minimum=1).satisfied_by(g, EX.obs1)
        assert not Cardinality(EX.observedBy, minimum=2).satisfied_by(g, EX.obs1)
        assert Cardinality(EX.observedBy, maximum=1).satisfied_by(g, EX.obs1)

    def test_cardinality_requires_bounds(self):
        with pytest.raises(ValueError):
            Cardinality(EX.observedBy)

    def test_materialize_writes_owl_restriction(self):
        g = Graph()
        node = SomeValuesFrom(EX.observedBy, EX.Sensor).materialize(g)
        assert Triple(node, RDF.type, OWL.Restriction) in g
        assert Triple(node, OWL.onProperty, EX.observedBy) in g


class TestRuleEngine:
    def test_simple_rule_derivation(self):
        g = Graph()
        g.add(Triple(EX.a, EX.parentOf, EX.b))
        g.add(Triple(EX.b, EX.parentOf, EX.c))
        rule = Rule(
            "grandparent",
            body=[
                Triple(Variable("x"), EX.parentOf, Variable("y")),
                Triple(Variable("y"), EX.parentOf, Variable("z")),
            ],
            head=[Triple(Variable("x"), EX.grandparentOf, Variable("z"))],
        )
        trace = RuleEngine([rule]).run(g)
        assert Triple(EX.a, EX.grandparentOf, EX.c) in g
        assert trace.inferred == 1
        assert trace.by_rule["grandparent"] == 1

    def test_head_variable_must_be_bound(self):
        with pytest.raises(ValueError):
            Rule(
                "bad",
                body=[Triple(Variable("x"), EX.p, EX.o)],
                head=[Triple(Variable("x"), EX.p, Variable("unbound"))],
            )

    def test_guard_blocks_firing(self):
        g = Graph()
        g.add(Triple(EX.obs, EX.hasValue, Literal(5.0)))
        rule = Rule(
            "low-value",
            body=[Triple(Variable("o"), EX.hasValue, Variable("v"))],
            head=[Triple(Variable("o"), RDF.type, EX.LowReading)],
            guard=lambda b: b[Variable("v")].to_python() < 3,
        )
        RuleEngine([rule]).run(g)
        assert Triple(EX.obs, RDF.type, EX.LowReading) not in g

    def test_fixpoint_terminates(self):
        g = Graph()
        for i in range(5):
            g.add(Triple(EX[f"n{i}"], EX.next, EX[f"n{i+1}"]))
        rule = Rule(
            "reach",
            body=[
                Triple(Variable("x"), EX.next, Variable("y")),
                Triple(Variable("y"), EX.next, Variable("z")),
            ],
            head=[Triple(Variable("x"), EX.next, Variable("z"))],
        )
        trace = RuleEngine([rule]).run(g)
        assert trace.iterations < 10
        assert Triple(EX.n0, EX.next, EX.n5) in g

    def test_run_on_a_copy_does_not_mutate(self):
        g = Graph()
        g.add(Triple(EX.a, RDFS.subClassOf, EX.b))
        g.add(Triple(EX.b, RDFS.subClassOf, EX.c))
        rules = [Rule(
            "trans",
            body=[Triple(Variable("x"), RDFS.subClassOf, Variable("y")),
                  Triple(Variable("y"), RDFS.subClassOf, Variable("z"))],
            head=[Triple(Variable("x"), RDFS.subClassOf, Variable("z"))],
        )]
        # the copy shares the original's term dictionary
        working = g.copy()
        RuleEngine(rules).run(working)
        inferred = working.difference(g)
        assert len(g) == 2
        assert Triple(EX.a, RDFS.subClassOf, EX.c) in inferred
        oracle = g.copy()
        naive_run(rules, oracle, use_ids=False)
        assert set(inferred) == set(oracle.difference(g))


class TestReasoner:
    def test_subclass_type_propagation(self, ontology):
        reasoner = Reasoner.for_ontology(ontology)
        reasoner.materialize()
        assert reasoner.is_instance_of(EX.s1, EX.Device)
        assert reasoner.is_subclass_of(EX.SoilSensor, EX.Device)

    def test_domain_range_typing(self):
        g = Graph()
        g.add(Triple(EX.observes, RDFS.domain, EX.Sensor))
        g.add(Triple(EX.observes, RDFS.range, EX.Property))
        g.add(Triple(EX.s1, EX.observes, EX.SoilMoisture))
        reasoner = Reasoner(g)
        assert reasoner.is_instance_of(EX.s1, EX.Sensor)
        assert reasoner.is_instance_of(EX.SoilMoisture, EX.Property)

    def test_equivalent_class_bridges_instances(self):
        g = Graph()
        g.add(Triple(EX.Hoehe, OWL.equivalentClass, EX.WaterLevel))
        g.add(Triple(EX.reading, RDF.type, EX.Hoehe))
        reasoner = Reasoner(g)
        assert reasoner.is_instance_of(EX.reading, EX.WaterLevel)

    def test_same_as_copies_statements(self):
        g = Graph()
        g.add(Triple(EX.station1, OWL.sameAs, EX.stationA))
        g.add(Triple(EX.station1, EX.locatedIn, EX.Mangaung))
        reasoner = Reasoner(g)
        reasoner.materialize()
        assert Triple(EX.stationA, EX.locatedIn, EX.Mangaung) in g
        assert EX.stationA in reasoner.same_as(EX.station1)

    def test_inverse_and_symmetric(self):
        g = Graph()
        g.add(Triple(EX.hosts, OWL.inverseOf, EX.hostedBy))
        g.add(Triple(EX.platform, EX.hosts, EX.sensor))
        g.add(Triple(EX.adjacentTo, RDF.type, OWL.SymmetricProperty))
        g.add(Triple(EX.fieldA, EX.adjacentTo, EX.fieldB))
        reasoner = Reasoner(g)
        reasoner.materialize()
        assert Triple(EX.sensor, EX.hostedBy, EX.platform) in g
        assert Triple(EX.fieldB, EX.adjacentTo, EX.fieldA) in g

    def test_transitive_property(self):
        g = Graph()
        g.add(Triple(EX.partOf, RDF.type, OWL.TransitiveProperty))
        g.add(Triple(EX.a, EX.partOf, EX.b))
        g.add(Triple(EX.b, EX.partOf, EX.c))
        reasoner = Reasoner(g)
        reasoner.materialize()
        assert Triple(EX.a, EX.partOf, EX.c) in g

    def test_classification_with_restrictions(self, ontology):
        observation = ontology.declare_class(EX.WellFormedObservation)
        observation.add_restriction(SomeValuesFrom(EX.observedBy, EX.Sensor))
        ontology.declare_individual(EX.obs1)
        ontology.assert_fact(EX.obs1, EX.observedBy, EX.s1)
        ontology.graph.add(Triple(EX.s1, RDF.type, EX.Sensor))
        reasoner = Reasoner.for_ontology(ontology)
        reasoner.materialize()
        added = reasoner.classify_with_restrictions(ontology)
        assert added >= 1
        assert reasoner.is_instance_of(EX.obs1, EX.WellFormedObservation)

    def test_materialize_trace_reports_rules(self, ontology):
        trace = Reasoner.for_ontology(ontology).materialize()
        assert trace.inferred > 0
        assert any("rdfs9" in name for name in trace.by_rule)


class TestReasonerInvalidation:
    """Graph mutations must invalidate a previous materialisation."""

    def make_reasoner(self):
        g = Graph()
        g.add(Triple(EX.Sensor, RDFS.subClassOf, EX.Device))
        reasoner = Reasoner(g)
        reasoner.materialize()
        return g, reasoner

    def test_is_instance_of_reflects_post_materialization_adds(self):
        # regression: adding triples after materialize() used to leave the
        # reasoner serving stale answers from the old closure
        g, reasoner = self.make_reasoner()
        assert not reasoner.is_instance_of(EX.mote9, EX.Device)
        g.add(Triple(EX.mote9, RDF.type, EX.Sensor))
        assert reasoner.is_instance_of(EX.mote9, EX.Device)

    def test_instances_of_reflects_post_materialization_adds(self):
        g, reasoner = self.make_reasoner()
        assert reasoner.instances_of(EX.Device) == set()
        g.add(Triple(EX.mote1, RDF.type, EX.Sensor))
        g.add(Triple(EX.mote2, RDF.type, EX.Sensor))
        assert reasoner.instances_of(EX.Device) == {EX.mote1, EX.mote2}

    def test_post_materialization_axiom_add(self):
        g, reasoner = self.make_reasoner()
        g.add(Triple(EX.mote1, RDF.type, EX.Sensor))
        assert reasoner.is_instance_of(EX.mote1, EX.Device)
        # a new alignment axiom must propagate through existing instances
        g.add(Triple(EX.Device, RDFS.subClassOf, EX.PhysicalEndurant))
        assert reasoner.is_instance_of(EX.mote1, EX.PhysicalEndurant)

    def test_top_up_is_incremental(self):
        g, reasoner = self.make_reasoner()
        g.add(Triple(EX.mote1, RDF.type, EX.Sensor))
        reasoner.ensure_materialized()
        trace = reasoner.last_trace
        # the top-up refired only the delta-touched rules, and only over
        # the delta: one new rdf:type triple via rdfs9
        assert trace.inferred == 1
        assert trace.by_rule == {"rdfs9-type-propagation": 1}

    def test_materialize_full_is_oracle(self):
        g, reasoner = self.make_reasoner()
        g.add(Triple(EX.mote1, RDF.type, EX.Sensor))
        reasoner.ensure_materialized()
        oracle = Graph()
        oracle.add(Triple(EX.Sensor, RDFS.subClassOf, EX.Device))
        oracle.add(Triple(EX.mote1, RDF.type, EX.Sensor))
        reasoner_closure(oracle)
        assert set(g) == set(oracle)

    def test_removal_falls_back_to_full_run(self):
        g, reasoner = self.make_reasoner()
        g.add(Triple(EX.mote1, RDF.type, EX.Sensor))
        reasoner.ensure_materialized()
        g.remove(Triple(EX.mote1, RDF.type, EX.Sensor))
        g.add(Triple(EX.mote2, RDF.type, EX.Sensor))
        # the retraction forces a run from the whole store; new adds still land
        assert reasoner.is_instance_of(EX.mote2, EX.Device)

    def test_add_rules_invalidates(self):
        g, reasoner = self.make_reasoner()
        g.add(Triple(EX.mote1, RDF.type, EX.Sensor))
        reasoner.ensure_materialized()
        reasoner.add_rules([
            Rule(
                "device-is-asset",
                body=[Triple(Variable("x"), RDF.type, EX.Device)],
                head=[Triple(Variable("x"), RDF.type, EX.Asset)],
            )
        ])
        # the new rule must apply to triples that predate its registration
        assert reasoner.is_instance_of(EX.mote1, EX.Asset)

    def test_ensure_materialized_noop_when_clean(self):
        g, reasoner = self.make_reasoner()
        version = g.version
        reasoner.ensure_materialized()
        reasoner.is_instance_of(EX.mote9, EX.Device)
        assert g.version == version


class TestReasonerFailureRecovery:
    def test_failed_run_requeues_the_delta(self):
        """An exception mid-run must not leave the closure silently stale."""
        g = Graph()
        g.add(Triple(EX.Sensor, RDFS.subClassOf, EX.Device))
        calls = {"n": 0}

        def flaky_guard(bindings):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient failure")
            return True

        reasoner = Reasoner(g, extra_rules=[
            Rule(
                "flaky",
                body=[Triple(Variable("x"), RDF.type, EX.Sensor)],
                head=[Triple(Variable("x"), RDF.type, EX.Checked)],
                guard=flaky_guard,
            )
        ])
        reasoner.materialize()
        g.add(Triple(EX.mote1, RDF.type, EX.Sensor))
        with pytest.raises(RuntimeError):
            reasoner.ensure_materialized()
        # the delta was requeued, so a retry completes the closure
        assert reasoner.is_instance_of(EX.mote1, EX.Checked)
        assert reasoner.is_instance_of(EX.mote1, EX.Device)
