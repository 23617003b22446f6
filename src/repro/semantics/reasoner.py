"""RDFS + OWL-lite forward-chaining reasoner.

The ontology segment layer of the middleware needs inference so that, for
example, an observation annotated with a *German* water-level property is
recognised as an observation of the canonical ``WaterLevel`` property once
the alignment axiom ``de:Hoehe owl:equivalentClass ex:WaterLevel`` is in the
ontology, and so that an individual typed ``SoilMoistureSensor`` is also an
instance of the DOLCE ``PhysicalEndurant`` it transitively specialises.

The supported entailment rules cover the constructs the ontology library
uses:

* ``rdfs:subClassOf`` transitivity and type propagation (rdfs9, rdfs11)
* ``rdfs:subPropertyOf`` transitivity and triple propagation (rdfs5, rdfs7)
* ``rdfs:domain`` / ``rdfs:range`` typing (rdfs2, rdfs3)
* ``owl:equivalentClass`` / ``owl:equivalentProperty`` (bidirectional
  subclass / subproperty expansion)
* ``owl:sameAs`` (symmetry, transitivity and limited statement copying)
* ``owl:inverseOf``, ``owl:SymmetricProperty``, ``owl:TransitiveProperty``
* restriction-based classification via
  :class:`~repro.semantics.owl.restrictions.Restriction` checkers
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.semantics.owl.ontology import Ontology
from repro.semantics.rdf.graph import ChangeTracker, Graph
from repro.semantics.rdf.namespace import OWL, RDF, RDFS
from repro.semantics.rdf.term import IRI, Term, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.rules import InferenceTrace, Rule, RuleEngine

_S = Variable("s")
_P = Variable("p")
_O = Variable("o")
_X = Variable("x")
_Y = Variable("y")
_Z = Variable("z")
_C1 = Variable("c1")
_C2 = Variable("c2")
_C3 = Variable("c3")


def _rdfs_owl_rules() -> List[Rule]:
    """The static entailment rule set (independent of any ontology content)."""
    return [
        # rdfs11: subclass transitivity
        Rule(
            "rdfs11-subclass-transitivity",
            body=[
                Triple(_C1, RDFS.subClassOf, _C2),
                Triple(_C2, RDFS.subClassOf, _C3),
            ],
            head=[Triple(_C1, RDFS.subClassOf, _C3)],
        ),
        # rdfs9: type propagation along subclass
        Rule(
            "rdfs9-type-propagation",
            body=[
                Triple(_X, RDF.type, _C1),
                Triple(_C1, RDFS.subClassOf, _C2),
            ],
            head=[Triple(_X, RDF.type, _C2)],
        ),
        # rdfs5: subproperty transitivity
        Rule(
            "rdfs5-subproperty-transitivity",
            body=[
                Triple(_C1, RDFS.subPropertyOf, _C2),
                Triple(_C2, RDFS.subPropertyOf, _C3),
            ],
            head=[Triple(_C1, RDFS.subPropertyOf, _C3)],
        ),
        # rdfs7: statement propagation along subproperty
        Rule(
            "rdfs7-subproperty-propagation",
            body=[
                Triple(_X, _C1, _Y),
                Triple(_C1, RDFS.subPropertyOf, _C2),
            ],
            head=[Triple(_X, _C2, _Y)],
        ),
        # rdfs2: domain typing
        Rule(
            "rdfs2-domain",
            body=[
                Triple(_X, _P, _Y),
                Triple(_P, RDFS.domain, _C1),
            ],
            head=[Triple(_X, RDF.type, _C1)],
        ),
        # rdfs3: range typing (objects that are IRIs / bnodes only: a head
        # that would place a literal in subject position derives nothing,
        # as for the inverse and symmetric rules below)
        Rule(
            "rdfs3-range",
            body=[
                Triple(_X, _P, _Y),
                Triple(_P, RDFS.range, _C1),
            ],
            head=[Triple(_Y, RDF.type, _C1)],
        ),
        # owl:equivalentClass -> mutual subclass
        Rule(
            "owl-equivalent-class",
            body=[Triple(_C1, OWL.equivalentClass, _C2)],
            head=[
                Triple(_C1, RDFS.subClassOf, _C2),
                Triple(_C2, RDFS.subClassOf, _C1),
                Triple(_C2, OWL.equivalentClass, _C1),
            ],
        ),
        # owl:equivalentProperty -> mutual subproperty
        Rule(
            "owl-equivalent-property",
            body=[Triple(_C1, OWL.equivalentProperty, _C2)],
            head=[
                Triple(_C1, RDFS.subPropertyOf, _C2),
                Triple(_C2, RDFS.subPropertyOf, _C1),
                Triple(_C2, OWL.equivalentProperty, _C1),
            ],
        ),
        # owl:sameAs symmetry and transitivity
        Rule(
            "owl-sameas-symmetry",
            body=[Triple(_X, OWL.sameAs, _Y)],
            head=[Triple(_Y, OWL.sameAs, _X)],
        ),
        Rule(
            "owl-sameas-transitivity",
            body=[Triple(_X, OWL.sameAs, _Y), Triple(_Y, OWL.sameAs, _Z)],
            head=[Triple(_X, OWL.sameAs, _Z)],
        ),
        # owl:sameAs statement copying (subject position)
        Rule(
            "owl-sameas-subject-copy",
            body=[Triple(_X, OWL.sameAs, _Y), Triple(_X, _P, _O)],
            head=[Triple(_Y, _P, _O)],
            guard=lambda b: b.get(_P) != OWL.sameAs,
        ),
        # owl:inverseOf
        Rule(
            "owl-inverse-of",
            body=[Triple(_C1, OWL.inverseOf, _C2), Triple(_X, _C1, _Y)],
            head=[Triple(_Y, _C2, _X)],
        ),
        Rule(
            "owl-inverse-of-reverse",
            body=[Triple(_C1, OWL.inverseOf, _C2), Triple(_X, _C2, _Y)],
            head=[Triple(_Y, _C1, _X)],
        ),
        # owl:SymmetricProperty
        Rule(
            "owl-symmetric-property",
            body=[Triple(_P, RDF.type, OWL.SymmetricProperty), Triple(_X, _P, _Y)],
            head=[Triple(_Y, _P, _X)],
        ),
        # owl:TransitiveProperty
        Rule(
            "owl-transitive-property",
            body=[
                Triple(_P, RDF.type, OWL.TransitiveProperty),
                Triple(_X, _P, _Y),
                Triple(_Y, _P, _Z),
            ],
            head=[Triple(_X, _P, _Z)],
        ),
    ]


class Reasoner:
    """Forward-chaining reasoner over an RDF graph or :class:`Ontology`.

    Typical use inside the ontology segment layer::

        reasoner = Reasoner(ontology.graph)
        trace = reasoner.materialize()
        assert reasoner.is_instance_of(obs, SSN.Observation)

    Every materialisation is one semi-naive run in id space
    (:meth:`RuleEngine.run`).  The first run starts from every triple in
    the store; once it finishes, the reasoner registers a
    :class:`~repro.semantics.rdf.graph.ChangeTracker` on its graph, so any
    later mutation marks the closure stale, and the next entailment query
    (or :meth:`ensure_materialized` call) tops the closure up from the
    encoded delta — only rules whose body can touch the added triples are
    refired.  Cost is therefore proportional to the size of the added
    batch, not the whole graph.  Removals, newly registered rules and
    ``materialize(full=True)`` start the run from the whole store again.
    Inferred triples are never retracted when their premises are removed.
    """

    def __init__(
        self,
        graph: Graph,
        extra_rules: Optional[Iterable[Rule]] = None,
    ):
        self.graph = graph
        self._engine = RuleEngine(_rdfs_owl_rules())
        if extra_rules:
            self._engine.extend(extra_rules)
        # created when the first (always full) run finishes: until then a
        # tracker would only buffer a delta that run discards
        self._tracker: Optional[ChangeTracker] = None
        self._materialized = False
        self.last_trace: Optional[InferenceTrace] = None

    @classmethod
    def for_ontology(cls, ontology: Ontology, extra_rules: Optional[Iterable[Rule]] = None) -> "Reasoner":
        """Convenience constructor over an ontology's graph."""
        return cls(ontology.graph, extra_rules=extra_rules)

    def add_rules(self, rules: Iterable[Rule]) -> None:
        """Register extra inference rules (e.g. IK-derived rules).

        New rules must be evaluated against the whole graph, so the next
        materialisation runs from scratch.
        """
        self._engine.extend(rules)
        self._materialized = False

    def materialize(self, full: bool = False) -> InferenceTrace:
        """Run forward chaining to fixpoint, adding inferred triples.

        Seeded from the triples added since the last run whenever a
        previous closure exists and nothing was retracted; otherwise, or
        with ``full=True``, seeded from every triple in the store.
        """
        tracker = self._tracker
        delta = None if tracker is None else tracker.drain()
        topup = delta is not None and self._materialized and not full and not delta.needs_full
        try:
            trace = self._engine.run(self.graph, delta.added_ids if topup else None)
        except BaseException:
            # a failed run (e.g. a user rule's guard raising an unexpected
            # exception) must not lose the delta, or the closure would stay
            # silently stale forever; requeue it so the next call retries
            if delta is not None:
                tracker.requeue(delta)
            raise
        if tracker is None:
            self._tracker = self.graph.track_changes()
        else:
            # the run's own insertions land in the tracker too; discard
            # them so they are not replayed as a delta on the next call
            tracker.drain()
        self.last_trace = trace
        self._materialized = True
        return trace

    def ensure_materialized(self) -> None:
        """Bring the closure up to date; cheap to call when nothing changed.

        First call runs the full fixpoint; afterwards graph mutations are
        topped up incrementally (removals trigger a full re-run).
        """
        if not self._materialized or self._tracker.dirty:
            self.materialize()

    # ------------------------------------------------------------------ #
    # entailment queries
    # ------------------------------------------------------------------ #

    def is_instance_of(self, individual: Term, cls: IRI) -> bool:
        """Whether ``individual`` is an (inferred) instance of ``cls``."""
        self.ensure_materialized()
        return Triple(individual, RDF.type, cls) in self.graph

    def instances_of(self, cls: IRI) -> Set[Term]:
        """All (inferred) instances of ``cls``."""
        self.ensure_materialized()
        return set(self.graph.subjects(RDF.type, cls))

    def types_of(self, individual: Term) -> Set[IRI]:
        """All (inferred) classes of ``individual``."""
        self.ensure_materialized()
        return {
            t for t in self.graph.types_of(individual)
            if isinstance(t, IRI) and t != OWL.NamedIndividual
        }

    def is_subclass_of(self, child: IRI, parent: IRI) -> bool:
        """Whether ``child`` is entailed to be a subclass of ``parent``."""
        self.ensure_materialized()
        return child == parent or Triple(child, RDFS.subClassOf, parent) in self.graph

    def same_as(self, individual: Term) -> Set[Term]:
        """All individuals entailed to be owl:sameAs ``individual``."""
        self.ensure_materialized()
        result = {individual}
        result.update(self.graph.objects(individual, OWL.sameAs))
        return result

    def query(self, text: str):
        """Run a SPARQL-like query over the *entailed* graph.

        Brings the closure up to date first (incremental top-up), then
        evaluates through the graph's shared cost-based planner, so the
        answers include inferred triples and repeated queries over an
        unchanged closure are served from the version-keyed result cache.
        """
        from repro.semantics.sparql.evaluator import query as _query

        self.ensure_materialized()
        return _query(self.graph, text)

    def classify_with_restrictions(self, ontology: Ontology) -> int:
        """Type individuals into classes whose restrictions they satisfy.

        For every declared class carrying restrictions, every individual in
        the graph satisfying *all* of them is asserted as an instance.
        Returns the number of new ``rdf:type`` triples.
        """
        self.ensure_materialized()
        added = 0
        individuals = set(self.graph.subjects(RDF.type, OWL.NamedIndividual))
        for cls in ontology.classes.values():
            if not cls.restrictions:
                continue
            for individual in individuals:
                if Triple(individual, RDF.type, cls.iri) in self.graph:
                    continue
                if all(r.satisfied_by(self.graph, individual) for r in cls.restrictions):
                    if self.graph.add(Triple(individual, RDF.type, cls.iri)):
                        added += 1
        if added:
            # new types may trigger further propagation
            self.materialize()
        return added

    def __repr__(self) -> str:
        return f"<Reasoner over {self.graph!r} materialized={self._materialized}>"
