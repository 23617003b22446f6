"""Semantic annotation of canonical observations.

Turns a :class:`~repro.core.mediator.CanonicalObservation` into RDF triples
following the SSN pattern, aligned to DOLCE: an ``ssn:Observation``
individual linked to its sensor, observed property, feature of interest,
result (value + unit) and timestamps; IK sightings become
``ik:IndicatorSighting`` individuals.  The annotations are what make the
middleware's data "machine readable ... for easy integration and
interoperability" -- they land in the middleware's annotation graph, are
queryable through the application layer and feed the reasoner.

Annotation is split into triple *generation* and graph *insertion* so the
batch path of the ingestion pipeline can accumulate the triples of a whole
batch and commit them with a single :meth:`Graph.add_all` call.  That
commit is also what drives *incremental reasoning*: the graph's change
trackers record every inserted triple, so the reasoner's next
materialisation refires only the rules the batch's annotations can touch
instead of re-running the fixpoint over the accumulated graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.mediator import CanonicalObservation
from repro.ontologies.environment import CANONICAL_PROPERTIES
from repro.ontologies.units import UNIT_DEFINITIONS
from repro.ontologies.vocabulary import AFRICRID, GEO, IK, SSN
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import RDF, RDFS
from repro.semantics.rdf.term import IRI, Literal
from repro.semantics.rdf.triple import Triple


@dataclass
class AnnotationResult:
    """The IRIs minted while annotating one observation.

    ``triples_added`` is the graph growth for a single :meth:`annotate`
    call; on the batch path it is the number of generated triples (the
    whole batch is committed at once, so per-observation deduplicated
    growth is not individually observable).
    """

    observation_iri: IRI
    sensor_iri: IRI
    property_iri: Optional[IRI]
    triples_added: int


#: IRI path prefixes minted from the shared annotation counter.
_COUNTER_PREFIXES = ("observation/", "result/", "sighting/")


def next_annotation_index(graphs) -> int:
    """The first unused annotation-counter index across ``graphs``.

    Recovery restores triples but not the in-process counter; restarting it
    at 1 would mint ``observation/1`` IRIs that collide with recovered
    annotations.  The dictionaries hold every IRI the counter ever minted,
    so scanning them for the counter-derived path prefixes yields the exact
    high-water mark.
    """
    base = AFRICRID.base
    highest = 0
    for graph in graphs:
        for term in graph.dictionary.terms:
            if not isinstance(term, IRI) or not term.value.startswith(base):
                continue
            path = term.value[len(base):]
            for prefix in _COUNTER_PREFIXES:
                if path.startswith(prefix):
                    suffix = path[len(prefix):]
                    if suffix.isdigit():
                        highest = max(highest, int(suffix))
                    break
    return highest + 1


def annotation_iri_for(observation: CanonicalObservation, index: int) -> str:
    """The IRI the annotator will mint for ``observation`` at ``index``.

    Lets the process-shard parent fill ``context.annotation_iri`` without
    waiting for the worker's reply: the minted IRI is a pure function of
    the observation kind and the pre-assigned counter index.
    """
    if observation.is_indicator_sighting:
        return AFRICRID[f"sighting/{index}"].value
    return AFRICRID[f"observation/{index}"].value


class SemanticAnnotator:
    """Writes SSN/DOLCE annotations for canonical observations into a graph.

    Parameters
    ----------
    graph:
        The annotation graph (usually the ontology segment layer's graph,
        shared with the unified ontology so reasoning spans both).
    knowledge_base:
        Optional IK knowledge base used to annotate indicator sightings.

    Minted IRIs are numbered from the annotator's own counter unless the
    caller pre-assigns the indexes (see :meth:`annotate_batch`).
    """

    def __init__(self, graph: Graph, knowledge_base=None):
        self.graph = graph
        self.knowledge_base = knowledge_base
        self._counter = itertools.count(1)
        self.annotated = 0
        self.annotated_sightings = 0
        # batch-scoped intern memos (see annotate_batch): a 10k-record
        # batch from 40 motes would otherwise construct and re-validate
        # 10k equal sensor/platform/feature IRIs before the graph's term
        # dictionary collapses them to one id
        self._batch_sensor_iris: Dict[str, IRI] = {}
        self._batch_feature_iris: Dict[str, IRI] = {}
        self._batch_platform_iris: Dict[str, IRI] = {}

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def sensor_iri(self, source_id: str) -> IRI:
        """The IRI of the (possibly human) sensor with this source id."""
        iri = self._batch_sensor_iris.get(source_id)
        if iri is None:
            iri = self._batch_sensor_iris[source_id] = AFRICRID[f"sensor/{source_id}"]
        return iri

    def feature_iri(self, observation: CanonicalObservation) -> IRI:
        """The feature-of-interest IRI for an observation."""
        area = observation.area or "unknown-area"
        iri = self._batch_feature_iris.get(area)
        if iri is None:
            iri = self._batch_feature_iris[area] = AFRICRID[
                f"feature/{area.replace(' ', '_')}"
            ]
        return iri

    # ------------------------------------------------------------------ #
    # triple generation
    # ------------------------------------------------------------------ #

    def _observation_triples(
        self, observation: CanonicalObservation, index: Optional[int] = None
    ) -> Tuple[IRI, IRI, Optional[IRI], List[Triple]]:
        if index is None:
            index = next(self._counter)
        obs_iri = AFRICRID[f"observation/{index}"]
        sensor_iri = self.sensor_iri(observation.source_id)
        result_iri = AFRICRID[f"result/{index}"]
        property_iri = CANONICAL_PROPERTIES.get(observation.property_key)
        feature_iri = self.feature_iri(observation)

        triples = [
            Triple(obs_iri, RDF.type, SSN.Observation),
            Triple(obs_iri, SSN.observedBy, sensor_iri),
        ]
        if property_iri is not None:
            triples.append(Triple(obs_iri, SSN.observedProperty, property_iri))
        triples.extend(
            [
                Triple(obs_iri, SSN.featureOfInterest, feature_iri),
                Triple(obs_iri, SSN.hasResult, result_iri),
                Triple(obs_iri, SSN.observationResultTime, Literal(observation.timestamp)),
                Triple(result_iri, RDF.type, SSN.SensorOutput),
                Triple(result_iri, SSN.hasValue, Literal(float(observation.value))),
            ]
        )
        unit_definition = UNIT_DEFINITIONS.get(observation.unit)
        if unit_definition is not None:
            triples.append(Triple(result_iri, SSN.hasUnit, unit_definition.iri))

        sensor_class = (
            SSN.HumanSensor if observation.source_kind == "mobile_report" else SSN.SensingDevice
        )
        triples.append(Triple(sensor_iri, RDF.type, sensor_class))
        triples.append(Triple(sensor_iri, RDFS.label, Literal(observation.source_id)))
        if property_iri is not None:
            triples.append(Triple(sensor_iri, SSN.observes, property_iri))
        if observation.location is not None:
            platform_iri = self._batch_platform_iris.get(observation.source_id)
            if platform_iri is None:
                platform_iri = self._batch_platform_iris[observation.source_id] = AFRICRID[
                    f"platform/{observation.source_id}"
                ]
            triples.extend(
                [
                    Triple(sensor_iri, SSN.onPlatform, platform_iri),
                    Triple(platform_iri, RDF.type, SSN.Platform),
                    Triple(platform_iri, GEO.lat, Literal(float(observation.location[0]))),
                    Triple(platform_iri, GEO.long, Literal(float(observation.location[1]))),
                ]
            )

        # provenance of the mediation step (how the raw term was resolved)
        triples.append(
            Triple(obs_iri, AFRICRID.mediatedFromTerm, Literal(observation.original_term))
        )
        triples.append(
            Triple(obs_iri, AFRICRID.alignmentMethod, Literal(observation.alignment_method))
        )
        return obs_iri, sensor_iri, property_iri, triples

    def _sighting_triples(
        self, observation: CanonicalObservation, index: Optional[int] = None
    ) -> Tuple[IRI, IRI, IRI, List[Triple]]:
        if index is None:
            index = next(self._counter)
        sighting_iri = AFRICRID[f"sighting/{index}"]
        observer_iri = AFRICRID[f"observer/{observation.source_id}"]
        indicator_iri = AFRICRID[f"indicator/{observation.property_key}"]

        triples = [
            Triple(sighting_iri, RDF.type, IK.IndicatorSighting),
            Triple(sighting_iri, IK.sightedIndicator, indicator_iri),
            Triple(sighting_iri, IK.reportedBy, observer_iri),
            Triple(sighting_iri, IK.sightingIntensity, Literal(float(observation.value))),
            Triple(sighting_iri, SSN.observationResultTime, Literal(observation.timestamp)),
            Triple(observer_iri, RDF.type, IK.CommunityObserver),
        ]
        if self.knowledge_base is not None:
            definition = self.knowledge_base.get(observation.property_key)
            if definition is not None:
                triples.append(
                    Triple(indicator_iri, IK.hasReliability, Literal(definition.reliability))
                )
        return sighting_iri, observer_iri, indicator_iri, triples

    def _generate(
        self, observation: CanonicalObservation, index: Optional[int] = None
    ) -> Tuple[AnnotationResult, List[Triple]]:
        if observation.is_indicator_sighting:
            sighting_iri, observer_iri, indicator_iri, triples = self._sighting_triples(
                observation, index
            )
            self.annotated_sightings += 1
            result = AnnotationResult(sighting_iri, observer_iri, indicator_iri, len(triples))
        else:
            obs_iri, sensor_iri, property_iri, triples = self._observation_triples(
                observation, index
            )
            result = AnnotationResult(obs_iri, sensor_iri, property_iri, len(triples))
        self.annotated += 1
        return result, triples

    # ------------------------------------------------------------------ #
    # annotation
    # ------------------------------------------------------------------ #

    def annotate(self, observation: CanonicalObservation) -> AnnotationResult:
        """Annotate one canonical observation (a batch of one), returning
        the minted IRIs with the exact graph growth."""
        before = len(self.graph)
        [result] = self.annotate_batch([observation])
        result.triples_added = len(self.graph) - before
        return result

    def annotate_batch(
        self,
        observations: List[CanonicalObservation],
        indexes: Optional[List[int]] = None,
    ) -> List[AnnotationResult]:
        """Annotate a batch with a single ``graph.add_all`` commit.

        Per-result ``triples_added`` reports generated (pre-deduplication)
        triples; read the graph size around the call for exact growth.

        Term construction is interned per batch: the sensor, platform and
        feature IRIs a batch repeats (a handful of motes and areas across
        thousands of records) are built once and reused, so the graph's
        dictionary encode of the committed triples hits already-hashed
        term objects.  The memos are batch-scoped on purpose — they die
        with the call, so an unbounded source-id population cannot leak.

        ``indexes`` pre-assigns the minted IRI indexes (one per
        observation, drawn from the shared counter by the caller): the
        sharded ingest path allocates them for the *whole* batch in arrival
        order before fanning sub-batches out to per-shard annotators, so
        the IRIs match the single-graph run record for record.
        """
        if indexes is not None and len(indexes) != len(observations):
            raise ValueError("indexes must parallel observations")
        results: List[AnnotationResult] = []
        triples: List[Triple] = []
        try:
            for position, observation in enumerate(observations):
                index = indexes[position] if indexes is not None else None
                result, observation_triples = self._generate(observation, index)
                results.append(result)
                triples.extend(observation_triples)
        finally:
            self._batch_sensor_iris.clear()
            self._batch_feature_iris.clear()
            self._batch_platform_iris.clear()
        self.graph.add_all(triples)
        return results
