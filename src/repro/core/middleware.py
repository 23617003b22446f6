"""The semantic middleware facade.

:class:`SemanticMiddleware` wires the three layers of Fig. 3 together over a
shared broker and simulation scheduler and exposes the handful of calls the
DEWS application and the examples need:

* feed raw records in (directly, or by attaching a cloud store through the
  interface protocol layer),
* get canonical and derived events out (broker subscriptions via the
  application abstraction layer),
* query the unified ontology and the annotations,
* register CEP rules (sensor-side process rules and IK-derived rules).
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterable, List, Optional

from repro.cep.engine import CepEngine
from repro.cep.event import DerivedEvent, Event
from repro.cep.rules import CepRule
from repro.core.api import HealthReport, IngestReceipt
from repro.core.application_layer import ApplicationAbstractionLayer
from repro.core.config import MiddlewareConfig
from repro.core.interface_layer import InterfaceProtocolLayer
from repro.core.mediator import Mediator
from repro.core.ontology_layer import OntologySegmentLayer
from repro.ik.knowledge_base import IndigenousKnowledgeBase
from repro.ik.rules import derive_cep_rules, sensor_process_rules
from repro.ontologies.library import OntologyLibrary
from repro.streams.broker import Broker, Message, Subscription
from repro.streams.messages import ObservationRecord
from repro.streams.scheduler import SimulationScheduler


class SemanticMiddleware:
    """The assembled three-tier semantic middleware.

    Parameters
    ----------
    scheduler:
        The simulation scheduler shared with the physical layer; a fresh
        one is created when omitted (fine for purely record-driven use).
    knowledge_base:
        The community IK knowledge base used for annotation and rules.
    library:
        A pre-built ontology library (building one takes ~100 ms; tests and
        benchmarks that construct many middleware instances share one).
    mediator:
        Custom mediator, e.g. the passthrough mediator for the ablation.
    config:
        Behavioural knobs, see :class:`MiddlewareConfig`.
    """

    def __init__(
        self,
        scheduler: Optional[SimulationScheduler] = None,
        knowledge_base: Optional[IndigenousKnowledgeBase] = None,
        library: Optional[OntologyLibrary] = None,
        mediator: Optional[Mediator] = None,
        config: Optional[MiddlewareConfig] = None,
    ):
        self.config = config or MiddlewareConfig()
        self.scheduler = scheduler or SimulationScheduler()
        self.broker = Broker(
            scheduler=self.scheduler, delivery_latency=self.config.broker_latency
        )
        self.knowledge_base = knowledge_base or IndigenousKnowledgeBase()
        self.ontology_layer = OntologySegmentLayer(
            library=library,
            knowledge_base=self.knowledge_base,
            mediator=mediator,
            cep_engine=CepEngine(),
            config=self.config,
        )
        self.application_layer = ApplicationAbstractionLayer(
            self.ontology_layer, self.broker
        )
        # standing views registered in push mode: refreshed after every
        # ingest so their deltas reach broker subscribers unprompted
        self._push_views: List = []
        # the pipeline's publish stage hands canonical events to the
        # application abstraction layer
        self.ontology_layer.set_publisher(self.application_layer.publish_event)
        self.interface_layer: Optional[InterfaceProtocolLayer] = None

        self.ontology_layer.add_cep_rules(sensor_process_rules())
        if self.config.install_ik_rules:
            self.ontology_layer.add_cep_rules(
                derive_cep_rules(self.knowledge_base, min_observers=2)
            )
        if self.ontology_layer.recovered:
            # the ontology layer re-registered every persisted standing
            # view during recovery, but broker wiring is this facade's
            # concern: re-subscribe the push-mode ones so their deltas
            # flow again
            pushed = {
                registration["name"]
                for registration in
                self.ontology_layer.persistence.standing_registrations()
                if registration["push"] and registration["name"] is not None
            }
            for view in self.ontology_layer.standing_views():
                if view.name in pushed:
                    self._wire_push(view.name, [view])

    def _wire_push(self, name: str, views: List) -> None:
        """Publish the views' deltas on ``views/<name>`` and refresh them
        after every ingest."""
        topic = f"views/{name}"

        def publish(delta):
            self.broker.publish(topic, delta)

        for view in views:
            view.subscribe(publish)
        self._push_views.extend(views)

    # ------------------------------------------------------------------ #
    # wiring to the physical layer
    # ------------------------------------------------------------------ #

    def attach_cloud_store(self, cloud_store) -> InterfaceProtocolLayer:
        """Attach a cloud store; the interface layer polls it periodically.

        Each poll's records are ingested as one batch so the staged
        pipeline can amortise mediation, annotation and CEP work.
        """
        self.interface_layer = InterfaceProtocolLayer(
            cloud_store,
            batch_sink=self.ingest_batch,
            broker=self.broker,
            scheduler=self.scheduler,
            poll_interval=self.config.cloud_poll_interval,
            on_poll=self._after_poll,
        )
        return self.interface_layer

    def _after_poll(self, records) -> None:
        # even an empty poll refreshes the push-mode standing views, so
        # absence-style subscribers observe quiet cycles too
        self._refresh_push_views()

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #

    def ingest_record(self, record: ObservationRecord) -> Optional[Event]:
        """Push one raw record through the pipeline — a batch of one.

        Returns its canonical event, or ``None`` when a stage dropped it.
        """
        receipt = self.ingest_batch([record])
        return receipt[0] if receipt else None

    def ingest_batch(self, records: Iterable[ObservationRecord]) -> IngestReceipt:
        """Push a batch of raw records through the pipeline stage-major.

        The pipeline mediates, validates, annotates, publishes the
        canonical events on the broker and feeds the CEP engine, amortising
        per-record overhead: one batched mediation call, one
        ``graph.add_all`` annotation commit and a deferred CEP flush after
        every record of the batch has been published.  Returns an
        :class:`~repro.core.api.IngestReceipt` — still the list of accepted
        canonical events, plus accepted / rejected / quarantined counts.
        """
        receipt = self.ontology_layer.ingest_batch(records)
        if self._push_views:
            self._refresh_push_views()
        return receipt

    def inject_event(self, event: Event) -> List[DerivedEvent]:
        """Feed an already-canonical event directly to the CEP engine.

        Used by applications that aggregate canonical observations (e.g. to
        daily per-district means) before pattern detection.
        """
        return self.ontology_layer.cep.process(event)

    # ------------------------------------------------------------------ #
    # standing views
    # ------------------------------------------------------------------ #

    def register_standing(self, text: str, name: Optional[str] = None, push: bool = False):
        """Register a SPARQL query as a delta-maintained standing view.

        From then on :meth:`query` serves ``text`` from the materialized
        view(s): each ingest folds its delta into the affected graph /
        shard in O(|delta|) instead of invalidating the result cache.

        With ``push=True`` the views are also refreshed after every ingest
        and their itemised :class:`~repro.semantics.sparql.views.ViewDelta`
        payloads published on the ``views/<name>`` broker topic, so CEP
        windows and dashboards can follow the standing result without
        re-polling it.  Returns a
        :class:`~repro.core.api.StandingViewHandle` — still the list of
        underlying per-graph views, plus the registration's name / query /
        topic for wire clients.
        """
        if name is None:
            # from the text, so two anonymous views never share a name (or
            # a ``views.json`` record) and a re-registration keeps its own
            name = f"standing-{zlib.crc32(text.encode('utf-8')):08x}"
        handle = self.ontology_layer.register_standing(text, name=name, push=push)
        if push:
            self._wire_push(name, handle)
        return handle

    def _refresh_push_views(self) -> None:
        for view in self._push_views:
            view.refresh()

    def inject_events(self, events: Iterable[Event]) -> List[DerivedEvent]:
        """Feed a batch of already-canonical events to the CEP engine."""
        return self.ontology_layer.cep.process_many(events)

    # ------------------------------------------------------------------ #
    # the API applications use (delegates to the application layer)
    # ------------------------------------------------------------------ #

    def subscribe(
        self,
        pattern: str,
        handler: Callable[[Message], None],
        subscriber_name: str = "application",
    ) -> Subscription:
        """Subscribe to any broker topic pattern — the unified surface.

        ``handler`` receives the full :class:`~repro.streams.broker.Message`
        (topic, payload, timestamp, headers), because a pattern with
        wildcards can match many topics and subscribers need to know which
        one fired.  Topics of interest: ``canonical/<property>/<area>``,
        ``derived/<type>/<area>``, ``views/<name>`` (push-mode view
        deltas).  The typed helpers below unwrap the payload for the
        common cases.
        """
        return self.broker.subscribe(pattern, handler, subscriber_name=subscriber_name)

    def subscribe_property(self, property_key: str, handler, area: str = "+"):
        """Subscribe to canonical events of one property."""
        return self.application_layer.subscribe_property(property_key, handler, area)

    def subscribe_derived(self, event_type: str, handler, area: str = "+"):
        """Subscribe to CEP-derived events."""
        return self.application_layer.subscribe_derived(event_type, handler, area)

    def register_rule(self, rule: CepRule) -> None:
        """Register an additional CEP rule."""
        self.application_layer.register_rule(rule)

    def query(self, text: str, entail: bool = False):
        """Run a SPARQL-like query over the unified ontology + annotations.

        Queries are planned cost-based (join ordering from graph
        statistics, filter pushdown) and cached: a repeated query over an
        unchanged graph is served straight from the version-keyed result
        cache.  ``entail`` tops up the reasoner's closure first so the
        answers include inferred triples.  Sharded deployments federate the
        query scatter-gather across the per-area partitions, with untouched
        partitions answering from their own result caches.
        """
        return self.application_layer.query(text, entail=entail)

    def services(self):
        """The registered semantic services."""
        return self.application_layer.services()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release owned resources (shard worker processes, WAL file handles).

        Idempotent.  With persistence enabled this is the graceful-shutdown
        path: buffered WAL records are committed and the files released, so
        the next construction over the same ``data_dir`` recovers without
        replay loss.  Dropping the middleware without calling this models a
        crash — recovery then loses at most the uncommitted batch.
        """
        self.ontology_layer.close()

    def __enter__(self) -> "SemanticMiddleware":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def graph(self):
        """The shared RDF graph (ontology library + annotations).

        Under sharding (``config.shards > 1``) this is the pristine
        ontology axiom base: annotations live in the per-area partitions
        (``ontology_layer.graphs``), and queries federate across them.
        """
        return self.ontology_layer.graph

    def statistics(self) -> dict:
        """A merged statistics snapshot across the three layers."""
        stats = {
            "mediation": self.ontology_layer.mediator.statistics,
            "ontology_layer": self.ontology_layer.statistics,
            "pipeline": self.ontology_layer.pipeline.statistics,
            "application_layer": self.application_layer.statistics,
            "broker": self.broker.statistics,
            "cep": self.ontology_layer.cep.statistics,
            "query_planner": self.ontology_layer.planner_statistics(),
            "standing_views": self.ontology_layer.standing_view_statistics(),
            "graph_triples": self.ontology_layer.triple_count(),
        }
        sharding = self.ontology_layer.sharding_statistics()
        if sharding is not None:
            stats["sharding"] = sharding
        if self.interface_layer is not None:
            stats["interface_layer"] = self.interface_layer.statistics
        return stats

    def health(self) -> HealthReport:
        """Liveness and fault-tolerance state of the shard serving path.

        Per shard: process state (``up`` / ``down`` / ``tripped``), circuit
        breaker, restart and trip counts, parked ingest depth.  Top level:
        backend kind, degraded-read mode, RPC deadline, quarantined batch
        count, dead-letter journal depth, durable-store state (when
        persistence is on), and an overall ``healthy`` flag.
        """
        return self.ontology_layer.health()

    def __repr__(self) -> str:
        return (
            f"<SemanticMiddleware rules={len(self.ontology_layer.cep.rules)} "
            f"graph={len(self.graph)} triples>"
        )
