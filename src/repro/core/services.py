"""Semantic service descriptions and registry.

The ontology segment layer of Fig. 3 contains a "semantic services
description module": applications and output channels discover what the
middleware can provide (canonical event streams, forecast feeds, query
endpoints) by matching on the ontology terms a service is described with,
rather than on hard-coded endpoint names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.ontologies.vocabulary import AFRICRID
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import RDF, RDFS
from repro.semantics.rdf.term import IRI, Literal
from repro.semantics.rdf.triple import Triple


@dataclass
class SemanticService:
    """One service exposed through the middleware.

    Attributes
    ----------
    name:
        Unique service name, e.g. ``"canonical-observations"``.
    topic:
        Broker topic (pattern) on which the service publishes.
    description:
        Human-readable description.
    provides:
        Ontology IRIs describing what the service delivers (canonical
        property classes, forecast classes, ...).
    layer:
        Which middleware layer offers the service.
    """

    name: str
    topic: str
    description: str
    provides: List[IRI] = field(default_factory=list)
    layer: str = "ontology-segment"

    def iri(self) -> IRI:
        """The service's IRI in the instance namespace."""
        return AFRICRID[f"service/{self.name}"]


class ServiceRegistry:
    """Registry of semantic services, materialised as catalogue triples.

    The registry builds a service's triples once and writes them through
    two callables: ``replicate(triples)`` and ``retract(subject)``.  The
    ontology segment layer's shard backend supplies its own — one round
    that reaches every partition, so a service description is
    discoverable, like the ontology axioms, from any partition a
    federated query lands on.  Stand-alone, pass the ``graph`` to describe
    the services in (or nothing, for a catalogue without triples).
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        replicate: Optional[Callable[[List[Triple]], object]] = None,
        retract: Optional[Callable[[IRI], object]] = None,
    ):
        if graph is not None:
            replicate, retract = graph.add_all, graph.remove_matching
        self._replicate = replicate
        self._retract = retract
        self._services: Dict[str, SemanticService] = {}

    def register(self, service: SemanticService) -> SemanticService:
        """Register (or replace) a service description."""
        self._services[service.name] = service
        if self._replicate is not None:
            iri = service.iri()
            self._replicate(
                [
                    Triple(iri, RDF.type, AFRICRID.SemanticService),
                    Triple(iri, RDFS.label, Literal(service.name)),
                    Triple(iri, RDFS.comment, Literal(service.description)),
                    Triple(iri, AFRICRID.publishesOn, Literal(service.topic)),
                    *(
                        Triple(iri, AFRICRID.providesConcept, provided)
                        for provided in service.provides
                    ),
                ]
            )
        return service

    def unregister(self, name: str) -> bool:
        """Remove a service by name; returns whether it existed."""
        service = self._services.pop(name, None)
        if service is None:
            return False
        if self._retract is not None:
            self._retract(service.iri())
        return True

    def get(self, name: str) -> Optional[SemanticService]:
        """Look up a service by name."""
        return self._services.get(name)

    def all(self) -> List[SemanticService]:
        """All registered services, sorted by name."""
        return [self._services[name] for name in sorted(self._services)]

    def find_providing(self, concept: IRI) -> List[SemanticService]:
        """Services whose description includes ``concept``."""
        return [
            service
            for service in self.all()
            if concept in service.provides
        ]

    def find_by_layer(self, layer: str) -> List[SemanticService]:
        """Services offered by a given middleware layer."""
        return [service for service in self.all() if service.layer == layer]

    def __len__(self) -> int:
        return len(self._services)
