"""Datalog-style rule engine over RDF graphs.

Rules are Horn clauses of triple patterns: when every pattern in the body
matches the graph under some variable binding, the head patterns are
instantiated and asserted.  The engine offers two evaluation modes:

* :meth:`RuleEngine.run` — *naive* forward chaining to a fixed point:
  every rule is re-derived against the whole graph each iteration.  This
  is the from-scratch oracle; its cost grows with total graph size.
* :meth:`RuleEngine.run_incremental` — *semi-naive* forward chaining from
  a delta: only rules whose body can touch the delta are refired, and
  each refiring seeds one body atom from a delta triple before joining
  the remaining atoms against the full graph.  Per-round cost is
  proportional to the delta, not the graph.

Two clients use this module:

* the :class:`~repro.semantics.reasoner.Reasoner`, whose RDFS / OWL-lite
  entailment rules are expressed as :class:`Rule` objects, and
* the indigenous-knowledge layer, which derives drought-indicator rules
  (e.g. "sighting of sifennefene worms implies a DryConditionIndication")
  that run against the annotated observation graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.term import Term, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.sparql.algebra import BGP
from repro.semantics.sparql.bindings import Bindings

#: Optional guard evaluated on the bindings before firing a rule.
RuleGuard = Callable[[Bindings], bool]


@dataclass
class Rule:
    """A Horn rule ``body => head`` over triple patterns.

    Parameters
    ----------
    name:
        Identifier used in provenance and diagnostics.
    body:
        Triple patterns that must all match.
    head:
        Triple patterns asserted for each match.  Head variables must occur
        in the body (the engine checks this and raises ``ValueError``).
    guard:
        Optional Python predicate over the bindings, used for numeric
        conditions that triple patterns cannot express (e.g. thresholds).
    """

    name: str
    body: Sequence[Triple]
    head: Sequence[Triple]
    guard: Optional[RuleGuard] = None

    def __post_init__(self) -> None:
        body_vars = {v for pattern in self.body for v in pattern.variables()}
        for pattern in self.head:
            for v in pattern.variables():
                if v not in body_vars:
                    raise ValueError(
                        f"rule {self.name!r}: head variable {v} not bound in body"
                    )
        # the join operators of this rule — the whole body, and the body
        # minus each seed atom — are kept, because the prepared joins live
        # on them and the incremental engine seeds the same ones thousands
        # of times per batch
        self._joins: Dict[tuple, BGP] = {}

    def _join(self, skip: Optional[int], use_ids: bool) -> BGP:
        """The body's join, without atom ``skip`` when seeding from it."""
        join = self._joins.get((skip, use_ids))
        if join is None:
            join = self._joins[(skip, use_ids)] = BGP(
                [p for i, p in enumerate(self.body) if i != skip], use_ids=use_ids
            )
        return join

    def body_predicates(self) -> Optional[FrozenSet[Term]]:
        """The ground predicates of the body atoms, for delta indexing.

        ``None`` when any body atom has a variable in predicate position:
        such a rule can match a delta triple of *any* predicate and must
        always be considered by the incremental engine.
        """
        predicates = set()
        for pattern in self.body:
            if isinstance(pattern.predicate, Variable):
                return None
            predicates.add(pattern.predicate)
        return frozenset(predicates)

    def derive(self, graph: Graph, use_ids: bool = True) -> Set[Triple]:
        """All head triples derivable from ``graph`` by this rule.

        ``use_ids`` selects the dictionary-encoded join loop (variables
        bound to integer ids, decoded only per solution); pass ``False``
        for the decoded-object join, the equivalence oracle.
        """
        derived: Set[Triple] = set()
        self._instantiate(self._join(None, use_ids).solutions(graph), derived)
        return derived

    def derive_delta(self, graph: Graph, delta: Graph, use_ids: bool = True) -> Set[Triple]:
        """Head triples of matches that use at least one ``delta`` triple.

        Semi-naive evaluation: every new solution must bind some body atom
        to a triple of the delta, so each atom in turn is seeded from the
        delta triples matching it and the remaining atoms are joined
        against the full ``graph`` (which already contains the delta).
        Solutions using several delta triples are found more than once;
        the returned set deduplicates them.
        """
        derived: Set[Triple] = set()
        for index, seed_pattern in enumerate(self.body):
            rest = self._join(index, use_ids)
            allowed = self._allowed_predicates(graph, index)
            for triple in delta.triples(tuple(seed_pattern)):
                if allowed is not None and triple.predicate not in allowed:
                    continue
                match = seed_pattern.matches(triple)
                if match is None:
                    continue
                self._instantiate(
                    rest.solutions_from(graph, Bindings(match)), derived
                )
        return derived

    def _allowed_predicates(self, graph: Graph, seed_index: int) -> Optional[Set[Term]]:
        """Semi-join bound for a variable-predicate seed atom.

        When body atom ``seed_index`` has a variable in predicate position
        that also occurs (in subject / object position) in another body
        atom with a *ground* predicate — the schema atom, e.g. ``?p
        rdfs:domain ?c`` alongside ``?x ?p ?y`` — only predicates the
        schema atom can bind may ever complete a match.  Those sets (the
        declared domains, sub-properties, inverses, …) are small, so
        computing them per call is far cheaper than joining from every
        delta triple.  ``None`` means unconstrained.
        """
        predicate = self.body[seed_index].predicate
        if not isinstance(predicate, Variable):
            return None
        allowed: Optional[Set[Term]] = None
        for index, other in enumerate(self.body):
            if index == seed_index or isinstance(other.predicate, Variable):
                continue
            if other.subject == predicate:
                values = {t.subject for t in graph.triples(tuple(other))}
            elif other.object == predicate:
                values = {t.object for t in graph.triples(tuple(other))}
            else:
                continue
            allowed = values if allowed is None else allowed & values
        return allowed

    def _instantiate(self, solutions: Iterable[Bindings], out: Set[Triple]) -> None:
        """Apply the guard and add the ground head triples of each solution."""
        for solution in solutions:
            if self.guard is not None:
                try:
                    if not self.guard(solution):
                        continue
                except (TypeError, ValueError, KeyError):
                    continue
            mapping = solution.as_dict()
            for pattern in self.head:
                # a head that would place a bound literal in subject or
                # predicate position derives nothing from this solution
                triple = pattern.try_substitute(mapping)
                if triple is not None and triple.is_ground():
                    out.add(triple)

    def __repr__(self) -> str:
        return f"Rule({self.name!r}, body={len(self.body)}, head={len(self.head)})"


@dataclass
class InferenceTrace:
    """Provenance of one forward-chaining run."""

    iterations: int = 0
    inferred: int = 0
    by_rule: Dict[str, int] = field(default_factory=dict)

    def record(self, rule_name: str, count: int) -> None:
        """Account ``count`` new triples to ``rule_name``."""
        if count:
            self.by_rule[rule_name] = self.by_rule.get(rule_name, 0) + count
            self.inferred += count


class RuleEngine:
    """Forward-chaining engine applying a rule set to a graph to fixpoint."""

    def __init__(
        self,
        rules: Optional[Iterable[Rule]] = None,
        max_iterations: int = 100,
        use_ids: bool = True,
    ):
        self.rules: List[Rule] = list(rules or [])
        self.max_iterations = max_iterations
        #: Join over dictionary-encoded ids (default) or decoded term
        #: objects (the equivalence oracle used by the randomized
        #: encoded-vs-decoded suite).
        self.use_ids = use_ids
        self._predicate_index: Optional[Dict[Term, List[Rule]]] = None
        self._wildcard_rules: List[Rule] = []

    def add_rule(self, rule: Rule) -> None:
        """Register an additional rule."""
        self.rules.append(rule)
        self._predicate_index = None

    def extend(self, rules: Iterable[Rule]) -> None:
        """Register several rules."""
        self.rules.extend(rules)
        self._predicate_index = None

    def _body_index(self) -> Dict[Term, List[Rule]]:
        """Map each ground body predicate to the rules mentioning it.

        Rules with a variable-predicate body atom land in
        ``_wildcard_rules`` instead: they can react to any delta triple.
        The index is rebuilt lazily after rule registration.
        """
        if self._predicate_index is None:
            index: Dict[Term, List[Rule]] = {}
            wildcard: List[Rule] = []
            for rule in self.rules:
                predicates = rule.body_predicates()
                if predicates is None:
                    wildcard.append(rule)
                    continue
                for predicate in predicates:
                    index.setdefault(predicate, []).append(rule)
            self._predicate_index = index
            self._wildcard_rules = wildcard
        return self._predicate_index

    def run(self, graph: Graph) -> InferenceTrace:
        """Apply all rules repeatedly until no new triple is produced.

        The inferred triples are added to ``graph`` in place; the returned
        :class:`InferenceTrace` reports how many triples each rule added.
        """
        trace = InferenceTrace()
        for iteration in range(self.max_iterations):
            added_this_round = 0
            for rule in self.rules:
                new_triples = [
                    t for t in rule.derive(graph, use_ids=self.use_ids)
                    if t not in graph
                ]
                for triple in new_triples:
                    graph.add(triple)
                trace.record(rule.name, len(new_triples))
                added_this_round += len(new_triples)
            trace.iterations = iteration + 1
            if added_this_round == 0:
                break
        return trace

    def run_incremental(self, graph: Graph, delta: Iterable[Triple]) -> InferenceTrace:
        """Semi-naive fixpoint from a delta of recently added triples.

        ``graph`` must already contain the delta triples (they are the
        mutations since the caller's last run); only rules whose body
        predicates intersect the current frontier are refired, and each
        firing joins from a frontier triple instead of re-enumerating the
        whole graph.  Produces the same fixpoint as :meth:`run` provided
        ``graph`` was closed under the rules before the delta was added.
        """
        trace = InferenceTrace()
        frontier: Set[Triple] = {t for t in delta if t in graph}
        if not frontier:
            return trace
        index = self._body_index()
        for iteration in range(self.max_iterations):
            # the delta graph shares the main graph's dictionary: frontier
            # triples are already interned there, so seeding re-uses their
            # ids instead of growing a private term table every round
            delta_graph = Graph(dictionary=graph.dictionary)
            for triple in frontier:
                delta_graph.add(triple)
            candidates = {id(rule) for rule in self._wildcard_rules}
            for predicate in {t.predicate for t in frontier}:
                candidates.update(id(rule) for rule in index.get(predicate, ()))
            next_frontier: Set[Triple] = set()
            for rule in self.rules:
                if id(rule) not in candidates:
                    continue
                new_triples = [
                    t for t in rule.derive_delta(graph, delta_graph, use_ids=self.use_ids)
                    if t not in graph
                ]
                for triple in new_triples:
                    graph.add(triple)
                trace.record(rule.name, len(new_triples))
                next_frontier.update(new_triples)
            trace.iterations = iteration + 1
            if not next_frontier:
                break
            frontier = next_frontier
        return trace

    def infer_only(self, graph: Graph) -> Graph:
        """Like :meth:`run` but returns only the inferred triples.

        The input graph is not modified.
        """
        working = graph.copy()
        self.run(working)
        return working.difference(graph)

    def __repr__(self) -> str:
        return f"<RuleEngine {len(self.rules)} rules>"
