"""The ontology segment layer.

The middle tier of the paper's architecture (Fig. 3): "contains the
ontology module, reasoning module, inference engine, and semantic services
description module".  Concretely it owns

* the unified ontology library and its graph,
* the mediator (heterogeneity resolution),
* the shards — each a graph with the semantic annotator (SSN/DOLCE RDF
  annotation of observations) and the reasoner over ontology +
  annotations — behind one shard backend,
* the CEP engine as the detection-oriented inference engine, and
* the semantic service registry.

Raw records come in from the interface protocol layer (or directly from a
broker topic); canonical events and derived events go out to the
application abstraction layer.  The processing path itself is a staged
:class:`~repro.core.pipeline.Pipeline` (mediate → validate → annotate →
reason → publish → cep) run stage-major per batch
(:meth:`OntologySegmentLayer.ingest_batch`, with batched annotation and a
deferred CEP flush); a record arriving alone is a batch of one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.cep.engine import CepEngine
from repro.cep.event import DerivedEvent
from repro.cep.rules import CepRule
from repro.core.api import HealthReport, IngestReceipt, StandingViewHandle
from repro.core.config import MiddlewareConfig
from repro.core.mediator import Mediator
from repro.core.pipeline import (
    AnnotateStage,
    CepStage,
    EventPublisher,
    IngestionContext,
    MediateStage,
    Pipeline,
    PublishStage,
    ReasonStage,
    ValidateStage,
)
from repro.core.services import SemanticService
from repro.core.shard_backend import make_shard_backend
from repro.ik.knowledge_base import IndigenousKnowledgeBase
from repro.ontologies.environment import CANONICAL_PROPERTIES
from repro.ontologies.library import OntologyLibrary, build_unified_ontology
from repro.ontologies.vocabulary import DROUGHT
from repro.persistence.dead_letter import DeadLetterJournal
from repro.persistence.store import StorePersistence
from repro.semantics.rdf.graph import Graph
from repro.semantics.sparql.evaluator import QueryResult
from repro.semantics.sparql.planner import (
    PlannerStatistics,
    QueryPlanner,
    planner_for,
)
from repro.streams.broker import topic_matches
from repro.streams.messages import ObservationRecord


@dataclass
class OntologyLayerStatistics:
    """Counters reported by the layer (feeds the E1/E2 benchmarks)."""

    records_in: int = 0
    observations_out: int = 0
    sightings_out: int = 0
    derived_events: int = 0
    annotation_triples: int = 0
    #: Records the validate stage rejected (each also journaled to the
    #: dead-letter file with its reason).
    validation_rejects: int = 0

    def __call__(self) -> Dict[str, int]:
        """Snapshot as a plain dict.

        The layer exposes this dataclass as an *attribute* (the original
        contract: ``layer.statistics.records_in``); calling it yields the
        JSON-safe form, which makes ``layer.statistics()`` line up with
        the ``statistics()`` methods of the other embedding surfaces.
        """
        return asdict(self)


class OntologySegmentLayer:
    """Mediation, annotation, reasoning and inference over the shards.

    The layer's annotation state lives in one or more
    :class:`~repro.core.shard.Shard` objects (graph + annotator + reasoner
    + standing views) behind a shard backend; everything here — the
    pipeline stages, queries, views, statistics, health, durability — is
    written once against that backend (see
    :class:`~repro.core.shard_backend.ShardBackend`) and does not depend
    on how many shards there are or where they execute.

    Parameters
    ----------
    library:
        The ontology library; built (and materialised) on demand if omitted.
    knowledge_base:
        The community IK knowledge base; defaults to the reference
        catalogue.  Its indicators are materialised into the graph.
    mediator:
        Custom mediator (the ablation benchmark passes the passthrough one).
    cep_engine:
        Custom CEP engine; a fresh one is created if omitted.
    config:
        The :class:`~repro.core.config.MiddlewareConfig` — annotation,
        reasoning, sharding, durability and fault-tolerance knobs are all
        read from it (and documented on it); defaults if omitted.
    """

    def __init__(
        self,
        library: Optional[OntologyLibrary] = None,
        knowledge_base: Optional[IndigenousKnowledgeBase] = None,
        mediator: Optional[Mediator] = None,
        cep_engine: Optional[CepEngine] = None,
        config: Optional[MiddlewareConfig] = None,
    ):
        self.config = config = config or MiddlewareConfig()
        self.library = library or build_unified_ontology(materialize=True)
        self.knowledge_base = knowledge_base or IndigenousKnowledgeBase()
        self.mediator = mediator or Mediator()
        self.cep = cep_engine or CepEngine()
        self.statistics = OntologyLayerStatistics()
        self._publish_stage = PublishStage(self.knowledge_base, self.statistics)
        self._closed = False
        #: Records the pipeline gave up on: validation rejects and poison
        #: batches, on disk when a ``data_dir`` exists, in memory otherwise.
        self.dead_letter = DeadLetterJournal(config.data_dir)
        self.persistence: Optional[StorePersistence] = None
        if config.data_dir is not None:
            self.persistence = StorePersistence(
                config.data_dir,
                fsync=config.wal_fsync,
                snapshot_interval=config.snapshot_interval,
            )

        # the backend builds the shards — or recovers them when the data
        # dir already holds a persisted store
        self._backend = make_shard_backend(
            config,
            self.library,
            self.knowledge_base,
            self.statistics,
            persistence=self.persistence,
            dead_letter=self.dead_letter,
        )
        self.shards = self._backend.num_shards
        #: Transport executing the shards; one shard always runs in-process.
        self.shard_backend = self._backend.kind
        #: Whether this layer's graphs were rebuilt from durable state.
        self.recovered = self._backend.recovered
        self.reasoners = self._backend.reasoners
        self.services = self._backend.services
        self._annotate_stage = AnnotateStage(
            self._backend, self.statistics, enabled=config.annotate_observations
        )
        self.pipeline = Pipeline(
            [
                MediateStage(self.mediator),
                ValidateStage(
                    dead_letter=self.dead_letter, layer_statistics=self.statistics
                ),
                self._annotate_stage,
                ReasonStage(self._backend, enabled=config.reason_per_batch),
                self._publish_stage,
                CepStage(self.cep, self.statistics, per_record=config.cep_per_record),
            ]
        )
        self._register_default_services()
        if self.recovered:
            if config.reason_per_batch:
                # the pipeline expects closures to be current between
                # batches; a lazy layer instead recomputes on first
                # entailment query, which needs no eager rebuild
                self._backend.reason(range(self.shards))
            for registration in self.persistence.standing_registrations():
                self.register_standing(
                    registration["text"],
                    name=registration["name"],
                    push=registration["push"],
                )

    def _register_default_services(self) -> None:
        self.services.register(
            SemanticService(
                name="canonical-observations",
                topic="canonical/#",
                description="Mediated observations in the unified vocabulary",
                provides=list(CANONICAL_PROPERTIES.values()),
            )
        )
        self.services.register(
            SemanticService(
                name="derived-events",
                topic="derived/#",
                description="CEP-derived environmental process and IK indication events",
                provides=[DROUGHT.DroughtEvent],
            )
        )
        self.services.register(
            SemanticService(
                name="ontology-query",
                topic="query/ontology",
                description="SPARQL-like query answering over the unified ontology and annotations",
                provides=[],
            )
        )

    # ------------------------------------------------------------------ #
    # rule management (inference engine configuration)
    # ------------------------------------------------------------------ #

    def add_cep_rules(self, rules: Iterable[CepRule]) -> None:
        """Register CEP rules (sensor-side or IK-derived)."""
        self.cep.add_rules(rules)

    # ------------------------------------------------------------------ #
    # the processing path
    # ------------------------------------------------------------------ #

    def set_publisher(self, publisher: Optional[EventPublisher]) -> None:
        """Attach the callable receiving canonical events (publish stage).

        Called by the middleware facade once the application abstraction
        layer exists; a stand-alone layer keeps ``None`` and skips broker
        publication.
        """
        self._publish_stage.publisher = publisher

    def ingest_batch(self, records: Iterable[ObservationRecord]) -> IngestReceipt:
        """Run a batch stage-major through the pipeline — the unified surface.

        Mediation runs as one batch call, annotation triples are committed
        with a single ``graph.add_all`` per shard and the CEP engine is
        flushed once after all records have been published.  On a durable
        layer each shard's share is committed by the shard as its ``ingest``
        op returns — before the publish stage runs.  The receipt
        iterates as the accepted events (the old ``List[Event]`` contract);
        ``rejected`` counts the records a pipeline stage dropped during
        *this* call (each journaled to the dead-letter file), and
        ``quarantined`` counts poison batches the process backend gave up
        replaying.
        """
        contexts = [IngestionContext(record) for record in records]
        self.statistics.records_in += len(contexts)
        quarantined_before = self._backend.quarantined
        survivors = self.pipeline.run_batch(contexts)
        return IngestReceipt(
            [context.event for context in survivors],
            rejected=len(contexts) - len(survivors),
            quarantined=self._backend.quarantined - quarantined_before,
        )

    def subscribe(
        self, pattern: str, handler: Callable[[DerivedEvent], None]
    ) -> None:
        """Subscribe ``handler`` to derived events matching a topic pattern.

        The stand-alone layer has no broker, so the unified ``subscribe``
        surface is served straight from the CEP engine, with the wire's
        MQTT-style pattern language: each derived event is matched as
        ``derived/<type>/<area>`` (``+`` one level, ``#`` the rest).
        """

        def listener(event: DerivedEvent) -> None:
            topic = f"derived/{event.event_type}/{event.area or 'unknown'}"
            if topic_matches(pattern, topic):
                handler(event)

        self.cep.on_derived_event(listener)

    # ------------------------------------------------------------------ #
    # reasoning and querying
    # ------------------------------------------------------------------ #

    @property
    def sharded(self) -> bool:
        """Whether the layer runs more than one per-area graph partition."""
        return self.shards > 1

    @property
    def graph(self) -> Graph:
        """The one graph everything shares — or, under sharding, the
        pristine ontology axiom base (annotations live in :attr:`graphs`)."""
        return self.library.graph if self.sharded else self.graphs[0]

    @property
    def graphs(self) -> List[Graph]:
        """The graphs holding annotations, one per shard.

        Live objects for in-process shards; the process backend ships full
        dumps — correct but expensive, for tests and offline inspection.
        """
        return self._backend.graphs

    def versions(self) -> List[int]:
        """Per-shard write counters: any change to a shard moves its entry.

        Never crosses a process boundary, so it is safe to call from any
        thread at any rate (the gateway keys its response cache on it).
        """
        return self._backend.versions()

    def triple_count(self) -> int:
        """Resident triples, summed across the shards."""
        return self._backend.triple_count()

    def materialize_inferences(self, full: bool = False):
        """Run the OWL/RDFS reasoner over ontology + annotations.

        Incremental over the triples added since the last run;
        ``full=True`` forces the from-scratch fixpoint.  Returns the one
        trace of an unsharded layer, the list of per-shard traces otherwise.
        """
        traces = self._backend.materialize_inferences(full=full)
        return traces if self.sharded else traces[0]

    def query(self, text: str, entail: bool = False) -> QueryResult:
        """Run a SPARQL-like query over the shards.

        Evaluation goes through each graph's shared cost-based planner
        (join-order selection, filter pushdown, version-keyed plan / result
        caches), so repeated dashboard and DEWS queries over an unchanged
        graph skip parse, plan and evaluation entirely.  With ``entail``
        every shard's closure is topped up (incrementally) first — which
        only costs work on the shards that actually changed — so the
        answers also reflect inferred triples.

        One shard answers straight from its planner.  More scatter-gather:
        the query is broadcast to every partition (an untouched partition
        answers from its result cache) and the decoded solutions are
        merged bag-exactly with the one-shard answer for in-contract
        queries.
        """
        return self._backend.query(text, entail=entail)

    def register_standing(
        self, text: str, name: Optional[str] = None, push: bool = False
    ) -> StandingViewHandle:
        """Register ``text`` as a delta-maintained standing view.

        One view per shard (a write to one district then folds only that
        partition's delta in), seeded from the recovered snapshot's rows
        where those are still valid.  :meth:`query` serves the registered
        query from the materialized views from then on.  ``push`` is
        recorded with the registration (a durable layer re-registers it
        after a restart) and carried on the handle; publishing the deltas
        is the business of whoever owns a broker — the middleware facade
        wires it, the stand-alone layer has none.  Returns a
        :class:`~repro.core.api.StandingViewHandle` — still a list of the
        underlying view objects (parent-side handles for the process
        backend), plus the registration's identity.
        """
        views = self._backend.register_standing(text, name=name)
        if self.persistence is not None:
            self.persistence.record_standing(name, text, push=push)
        return StandingViewHandle(views, name=name, text=text, push=push)

    def standing_views(self) -> List:
        """Every live standing view across the shards."""
        return self._backend.standing_views()

    @property
    def query_planner(self) -> QueryPlanner:
        """The shared planner for the single graph (``shards == 1`` only)."""
        if self.sharded:
            raise RuntimeError(
                "a sharded layer has one planner per partition; "
                "use planner_statistics() or planner_for(shard_graph)"
            )
        return planner_for(self.graph)

    def planner_statistics(self) -> PlannerStatistics:
        """Aggregated planner / cache counters across the shards."""
        return self._backend.planner_statistics()

    def standing_view_statistics(self) -> Dict[str, object]:
        """Observability snapshot of the maintained standing views.

        One :meth:`~repro.core.shard.Shard.stats` round — every shard
        reports all of its views' counters in one answer.
        """
        views = [
            view for info in self._backend.shard_stats() for view in info["views"]
        ]
        return {
            "views": views,
            "delta_updates": sum(v["delta_updates"] for v in views),
            "full_refreshes": sum(v["full_refreshes"] for v in views),
        }

    def sharding_statistics(self) -> Optional[Dict[str, object]]:
        """Partition layout counters, or ``None`` for an unsharded layer."""
        if not self.sharded:
            return None
        return {
            "shards": self.shards,
            "backend": self.shard_backend,
            "replicated_triples": self._backend.replicated_triples,
            "shard_sizes": self._backend.shard_sizes(),
            "parallel_batches": self._annotate_stage.parallel_batches,
        }

    def shard_statistics(self) -> List[Dict[str, object]]:
        """Per-shard health: size, queue depth, latency, pid, restarts,
        durable depth — the same shape on every layout, so dashboards
        consume an unsharded layer as one in-process shard."""
        return self._backend.shard_statistics()

    def health(self) -> HealthReport:
        """Supervision snapshot: per-shard state, breaker, dead-letter depth.

        Shard states are ``up`` / ``down`` / ``restarting`` / ``tripped``
        (the latter three only for the process backend, the one place a
        partition can fail independently of this interpreter).  With
        persistence enabled the report also carries the durable store's
        per-shard generation / WAL depth under ``"persistence"``.  The
        return is a :class:`~repro.core.api.HealthReport` — still a dict,
        JSON-safe as-is.
        """
        report = dict(self._backend.health())
        report["validation_rejects"] = self.statistics.validation_rejects
        report["dead_letter_depth"] = len(self.dead_letter)
        report["dead_letter_path"] = (
            str(self.dead_letter.path) if self.dead_letter.path is not None else None
        )
        report["healthy"] = all(
            entry["state"] == "up" for entry in report["shards"]
        )
        if self.persistence is not None:
            report["persistence"] = self.persistence.health()
        return HealthReport(report)

    def checkpoint(self) -> None:
        """Force a durable snapshot of every shard (no-op without persistence)."""
        self._backend.checkpoint_all()

    def close(self) -> None:
        """Shut down the shard backend and the persistence layer (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._backend.close()
        if self.persistence is not None:
            self.persistence.close()

    def __enter__(self) -> "OntologySegmentLayer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"<OntologySegmentLayer shards={self.shards} "
            f"triples={self.triple_count()}, "
            f"rules={len(self.cep.rules)}, services={len(self.services)}>"
        )
