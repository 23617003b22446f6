"""The staged ingestion pipeline of the ontology segment layer.

Every raw record crossing the middleware passes the same six stages:

``mediate``
    Heterogeneity resolution: vendor terms, units and schemas are aligned
    to the unified vocabulary (drops unresolvable records).
``validate``
    Sanity checks on the mediated observation (non-finite values or
    timestamps are dropped before they can poison the graph or the CEP
    windows — each reject is written to the dead-letter journal with a
    reason and counted in layer statistics).
``annotate``
    SSN/DOLCE RDF annotation into the record's graph partition, through
    the shard backend (optional).
``reason``
    Incremental reasoning top-up over the freshly annotated triples on the
    partitions the batch touched (optional): each graph's change tracker
    hands its reasoner exactly the delta the ``annotate`` stage committed,
    so per-batch inference cost tracks the batch size, not the accumulated
    graph.
``publish``
    Registers IK sightings with the knowledge base, builds the canonical
    :class:`~repro.cep.event.Event` and hands it to the application
    abstraction layer's publisher.
``cep``
    Feeds the canonical event to the inference (CEP) engine.

The :class:`Pipeline` runs a batch stage-major (``run_batch``): every
surviving record passes stage *n* before any record enters stage *n + 1*.
Stage-major execution is what lets batches amortise per-record overhead —
mediation runs as one ``mediate_many`` call, annotation accumulates triples
for a single ``graph.add_all``, and the CEP engine is flushed once at the
end instead of being interleaved with graph writes and broker publishes.
A record arriving alone is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cep.engine import CepEngine
from repro.cep.event import DerivedEvent, Event
from repro.core.annotation import annotation_iri_for
from repro.core.mediator import CanonicalObservation, Mediator
from repro.streams.messages import ObservationRecord

EventPublisher = Callable[[Event], None]


@dataclass
class IngestionContext:
    """Mutable per-record state threaded through the pipeline stages."""

    record: ObservationRecord
    observation: Optional[CanonicalObservation] = None
    annotation_iri: Optional[str] = None
    event: Optional[Event] = None
    derived: List[DerivedEvent] = field(default_factory=list)
    #: Name of the stage that dropped the record, or ``None`` if it survived.
    dropped_by: Optional[str] = None


@dataclass
class StageStatistics:
    """Per-stage throughput accounting."""

    name: str
    entered: int = 0
    dropped: int = 0


@dataclass
class IngestionPipelineStatistics:
    """Counters the middleware statistics snapshot exposes.

    Distinct from :class:`repro.streams.operators.PipelineStatistics`,
    which counts items through a functional stream pipeline.
    """

    records: int = 0
    batches: int = 0
    stages: Dict[str, StageStatistics] = field(default_factory=dict)


class Stage:
    """One composable step of the ingestion pipeline."""

    name = "stage"

    def process(self, context: IngestionContext) -> bool:
        """Process one record; return ``False`` to drop it."""
        raise NotImplementedError

    def process_batch(self, contexts: List[IngestionContext]) -> List[IngestionContext]:
        """Process a batch, returning the surviving contexts.

        The default runs :meth:`process` per record; stages with a cheaper
        amortised path (batched mediation, ``graph.add_all`` annotation,
        deferred CEP flush) override this.
        """
        survivors = []
        for context in contexts:
            if self.process(context):
                survivors.append(context)
            else:
                context.dropped_by = self.name
        return survivors


class Pipeline:
    """An ordered chain of :class:`Stage` objects with drop accounting."""

    def __init__(self, stages: List[Stage]):
        self.stages = list(stages)
        self.statistics = IngestionPipelineStatistics(
            stages={stage.name: StageStatistics(stage.name) for stage in self.stages}
        )

    def run_batch(self, contexts: List[IngestionContext]) -> List[IngestionContext]:
        """Run a batch through every stage (stage-major).

        Returns the contexts that survived all stages; dropped contexts are
        marked with ``dropped_by`` but not returned.
        """
        self.statistics.records += len(contexts)
        self.statistics.batches += 1
        for stage in self.stages:
            if not contexts:
                break
            stats = self.statistics.stages[stage.name]
            stats.entered += len(contexts)
            survivors = stage.process_batch(contexts)
            stats.dropped += len(contexts) - len(survivors)
            contexts = survivors
        return contexts

    def __repr__(self) -> str:
        names = " -> ".join(stage.name for stage in self.stages)
        return f"<Pipeline {names} records={self.statistics.records}>"


# --------------------------------------------------------------------- #
# the concrete stages of the ontology segment layer
# --------------------------------------------------------------------- #


class MediateStage(Stage):
    """Resolve naming / unit / schema heterogeneity."""

    name = "mediate"

    def __init__(self, mediator: Mediator):
        self.mediator = mediator

    def process_batch(self, contexts: List[IngestionContext]) -> List[IngestionContext]:
        outcomes = self.mediator.mediate_many([context.record for context in contexts])
        survivors = []
        for context, outcome in zip(contexts, outcomes):
            if outcome.resolved:
                context.observation = outcome.observation
                survivors.append(context)
            else:
                context.dropped_by = self.name
        return survivors


class ValidateStage(Stage):
    """Reject observations whose value or timestamp is not a finite number.

    Rejects do not vanish silently: each one lands in the dead-letter
    journal with a reason string (when the layer has one) and bumps the
    layer's ``validation_rejects`` counter, so bad feeds are visible in
    statistics and recoverable from disk instead of inferred from a
    throughput dip.
    """

    name = "validate"

    def __init__(self, dead_letter=None, layer_statistics=None):
        self.dead_letter = dead_letter
        self.layer_statistics = layer_statistics

    def _reject(self, context: IngestionContext, reason: str) -> bool:
        if self.layer_statistics is not None:
            self.layer_statistics.validation_rejects += 1
        if self.dead_letter is not None:
            record = context.record
            self.dead_letter.record(
                "validation_reject",
                reason,
                records=[asdict(record)] if record is not None else [],
            )
        return False

    def process(self, context: IngestionContext) -> bool:
        observation = context.observation
        if observation is None:
            return self._reject(context, "mediation produced no observation")
        if not math.isfinite(observation.value):
            return self._reject(
                context, f"non-finite value {observation.value!r}"
            )
        if not math.isfinite(observation.timestamp):
            return self._reject(
                context, f"non-finite timestamp {observation.timestamp!r}"
            )
        return True


class AnnotateStage(Stage):
    """Write SSN/DOLCE RDF annotations into the per-area graph partitions.

    The stage draws the whole batch's annotation indexes from the layer's
    shared counter in *arrival order*, splits the batch by owning shard and
    hands the groups to the shard backend — which annotates each group
    into its partition with one ``add_all`` (concurrently when the batch
    spans partitions; partitions are single-writer).  Because indexes are
    assigned before the fan-out, minted IRIs — and therefore graph content
    — do not depend on the shard count, the transport or scheduling, and
    each record's annotation IRI is recomputed here (a pure function of
    observation + index) instead of being shipped back.
    """

    name = "annotate"

    def __init__(self, backend, layer_statistics, enabled: bool = True):
        self.backend = backend
        self.layer_statistics = layer_statistics
        self.enabled = enabled
        #: Batches that spanned more than one partition.
        self.parallel_batches = 0

    def process_batch(self, contexts: List[IngestionContext]) -> List[IngestionContext]:
        if not self.enabled or not contexts:
            return contexts
        backend = self.backend
        counter = backend.counter
        indexed = [(context.observation, next(counter)) for context in contexts]
        groups = backend.router.split((pair[0].area, pair) for pair in indexed)
        if len(groups) > 1:
            self.parallel_batches += 1
        self.layer_statistics.annotation_triples += backend.ingest(groups)
        for context, (observation, index) in zip(contexts, indexed):
            context.annotation_iri = annotation_iri_for(observation, index)
        return contexts


class ReasonStage(Stage):
    """Top up the closures of the partitions the record / batch touched.

    Runs after ``annotate`` so that published events and downstream
    queries observe the entailments (SSN/DOLCE typing, alignment axioms,
    IK indicator rules) of the current record or batch.  Every partition
    has its own reasoner, so a batch confined to a few areas tops up only
    those closures — the others (and the query caches keyed on their graph
    versions) survive untouched.  The top-up is incremental and a no-op
    when nothing changed.  Disabled by default: ingest-only deployments
    that never query entailments skip the reasoning cost entirely (the
    reasoners still top up lazily on the first entailment query).
    """

    name = "reason"

    def __init__(self, backend, enabled: bool = False):
        self.backend = backend
        self.enabled = enabled

    def process_batch(self, contexts: List[IngestionContext]) -> List[IngestionContext]:
        if self.enabled and contexts:
            backend = self.backend
            backend.reason(
                backend.router.shards_touched(
                    context.observation.area for context in contexts
                )
            )
        return contexts


class PublishStage(Stage):
    """Build the canonical event and publish it upward.

    The publisher is attached late (by the middleware facade, once the
    application abstraction layer exists); a stand-alone ontology segment
    layer runs with ``publisher=None`` and simply skips broker publication.
    """

    name = "publish"

    def __init__(self, knowledge_base, layer_statistics, publisher: Optional[EventPublisher] = None):
        self.knowledge_base = knowledge_base
        self.layer_statistics = layer_statistics
        self.publisher = publisher

    def process(self, context: IngestionContext) -> bool:
        observation = context.observation
        if observation.is_indicator_sighting:
            self.layer_statistics.sightings_out += 1
            self.knowledge_base.register_sighting(context.record)
        else:
            self.layer_statistics.observations_out += 1
        context.event = Event(
            event_type=observation.property_key,
            value=observation.value,
            timestamp=observation.timestamp,
            source_id=observation.source_id,
            source_kind=observation.source_kind,
            location=observation.location,
            area=observation.area,
            annotation_iri=context.annotation_iri,
            attributes={"alignment_method": observation.alignment_method},
        )
        if self.publisher is not None:
            self.publisher(context.event)
        return True


class CepStage(Stage):
    """Feed canonical events to the inference (CEP) engine.

    Dense sensor streams only reach the engine when per-record feeding is
    on; IK sightings always do.  In batch mode the whole batch is flushed
    through the engine in arrival order after every record has been
    published (deferred CEP flush).
    """

    name = "cep"

    def __init__(self, cep: CepEngine, layer_statistics, per_record: bool = True):
        self.cep = cep
        self.layer_statistics = layer_statistics
        self.per_record = per_record

    def process_batch(self, contexts: List[IngestionContext]) -> List[IngestionContext]:
        for context in contexts:
            if self.per_record or context.observation.is_indicator_sighting:
                context.derived = self.cep.process(context.event)
                self.layer_statistics.derived_events += len(context.derived)
        return contexts
