"""The application abstraction layer.

The top tier of the paper's middleware (Fig. 3): "provides a high level of
software abstraction that allows communication among the applications and
the semantic middleware".  This is the API the DEWS, dashboards and other
IoT applications program against -- they never see raw vendor records, only
canonical events, derived events, query results and registered services.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.cep.event import DerivedEvent, Event
from repro.cep.rules import CepRule
from repro.core.ontology_layer import OntologySegmentLayer
from repro.core.services import SemanticService
from repro.semantics.sparql.evaluator import QueryResult
from repro.streams.broker import Broker, Subscription

EventHandler = Callable[[Event], None]
DerivedEventHandler = Callable[[DerivedEvent], None]


@dataclass
class ApplicationLayerStatistics:
    """Counters for the middleware-layer benchmark (E2)."""

    events_published: int = 0
    derived_published: int = 0
    queries_answered: int = 0


class ApplicationAbstractionLayer:
    """The API surface applications use to talk to the middleware.

    Parameters
    ----------
    ontology_layer:
        The ontology segment layer whose outputs are exposed.
    broker:
        The broker canonical / derived events are published on.
    """

    def __init__(self, ontology_layer: OntologySegmentLayer, broker: Broker):
        self.ontology_layer = ontology_layer
        self.broker = broker
        self.statistics = ApplicationLayerStatistics()
        # republish derived events from the CEP engine onto the broker
        self.ontology_layer.cep.on_derived_event(self._publish_derived)

    # ------------------------------------------------------------------ #
    # publication (called by the middleware facade)
    # ------------------------------------------------------------------ #

    def publish_event(self, event: Event) -> None:
        """Publish a canonical event on ``canonical/<property>/<area>``."""
        area = event.area or "unknown"
        self.broker.publish(
            f"canonical/{event.event_type}/{area}",
            event,
            timestamp=event.timestamp,
            headers={"source_kind": event.source_kind},
        )
        self.statistics.events_published += 1

    def publish_events(self, events: List[Event]) -> None:
        """Publish a batch of canonical events in order."""
        for event in events:
            self.publish_event(event)

    def _publish_derived(self, event: DerivedEvent) -> None:
        area = event.area or "unknown"
        self.broker.publish(
            f"derived/{event.event_type}/{area}",
            event,
            timestamp=event.timestamp,
            headers={"rule": event.rule_name},
        )
        self.statistics.derived_published += 1

    # ------------------------------------------------------------------ #
    # the application-facing API
    # ------------------------------------------------------------------ #

    def subscribe_property(
        self, property_key: str, handler: EventHandler, area: str = "+",
        subscriber_name: str = "application",
    ) -> Subscription:
        """Subscribe to canonical events of one property (``+`` = any area)."""
        return self.broker.subscribe(
            f"canonical/{property_key}/{area}",
            lambda message: handler(message.payload),
            subscriber_name=subscriber_name,
        )

    def subscribe_derived(
        self, event_type: str, handler: DerivedEventHandler, area: str = "+",
        subscriber_name: str = "application",
    ) -> Subscription:
        """Subscribe to CEP-derived events of one type (``#`` = all types)."""
        pattern = f"derived/{event_type}/{area}" if event_type != "#" else "derived/#"
        return self.broker.subscribe(
            pattern,
            lambda message: handler(message.payload),
            subscriber_name=subscriber_name,
        )

    def register_rule(self, rule: CepRule) -> None:
        """Register an application-supplied CEP rule."""
        self.ontology_layer.cep.add_rule(rule)

    def query(self, text: str, entail: bool = False) -> QueryResult:
        """Run a SPARQL-like query over the unified ontology + annotations.

        Served through the graph's shared cost-based planner; ``entail``
        additionally tops up the reasoner's closure so inferred triples
        are visible to the query.  On a sharded ontology layer the query
        scatter-gathers across the per-area partitions (oracle-equivalent
        bag merge), with untouched partitions answering from their caches.
        """
        self.statistics.queries_answered += 1
        return self.ontology_layer.query(text, entail=entail)

    def services(self) -> List[SemanticService]:
        """The registered semantic services."""
        return self.ontology_layer.services.all()

    def find_services(self, concept) -> List[SemanticService]:
        """Services providing a given ontology concept."""
        return self.ontology_layer.services.find_providing(concept)

    def __repr__(self) -> str:
        return (
            f"<ApplicationAbstractionLayer events={self.statistics.events_published} "
            f"derived={self.statistics.derived_published}>"
        )
