"""Datalog-style rule engine over RDF graphs.

Rules are Horn clauses of triple patterns: when every pattern in the body
matches the graph under some variable binding, the head patterns are
instantiated and asserted.  :meth:`RuleEngine.run` is the one evaluation
mode: *semi-naive* forward chaining from a frontier of id triples, in id
space end to end.  Only rules whose body can touch the frontier are
refired, each refiring seeds one body atom from a frontier id triple and
joins the remaining atoms against the full graph as id rows
(:meth:`~repro.semantics.sparql.kernel.PreparedJoin.rows`), and the heads
are asserted as id triples.  No :class:`Triple` is built; only a guarded
rule decodes its solution, into the :class:`Bindings` the guard reads.

The first frontier is either a delta (the triples added since the graph
was last closed: a top-up whose per-round cost is proportional to the
delta, not the graph) or, with ``delta=None``, every triple in the store —
the textbook full fixpoint (Δ₀ = the whole database; Abiteboul, Hull &
Vianu, *Foundations of Databases*, ch. 13).

Two clients use this module:

* the :class:`~repro.semantics.reasoner.Reasoner`, whose RDFS / OWL-lite
  entailment rules are expressed as :class:`Rule` objects, and
* the indigenous-knowledge layer, which derives drought-indicator rules
  (e.g. "sighting of sifennefene worms implies a DryConditionIndication")
  that run against the annotated observation graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.semantics.rdf.dictionary import TermDictionary, TripleIds
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.term import BlankNode, IRI, Term, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.sparql.algebra import BGP
from repro.semantics.sparql.bindings import Bindings, bindings_from_mapping
from repro.semantics.sparql.kernel import PreparedJoin

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
        # the distinct head constants, interned lazily per dictionary
        self._head_terms: Tuple[Term, ...] = tuple(dict.fromkeys(
            term for pattern in self.head for term in pattern
            if not isinstance(term, Variable)
        ))
        self._head_ids: Tuple[object, Tuple[int, ...]] = (None, ())
        self._atoms: Optional[List[_SeedAtom]] = None

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

    def fire(
        self,
        graph: Graph,
        frontier: Set[TripleIds],
        by_predicate: Dict[int, List[TripleIds]],
    ) -> Set[TripleIds]:
        """Head id triples of matches that use at least one frontier triple.

        Semi-naive evaluation in id space: each body atom in turn is
        seeded from the frontier triples it matches (compared id for id),
        and the remaining atoms are joined against the full ``graph``
        (which already contains the frontier) as rows of ids.  Heads are
        built from the row; only a guarded rule decodes, into the
        :class:`Bindings` its guard reads.  ``by_predicate`` is the
        frontier grouped by predicate id.  Solutions using several
        frontier triples are found more than once; the set deduplicates
        them.
        """
        lookup = graph.dictionary.lookup
        terms = graph.dictionary.terms
        guard = self.guard
        derived: Set[TripleIds] = set()
        head_ids: Optional[Tuple[int, ...]] = None
        for atom in self._seed_atoms():
            checks = atom.resolve(lookup)
            if checks is None:
                # a constant no stored triple mentions matches nothing
                continue
            if atom.predicate_bucketed:
                candidates = by_predicate.get(checks.pop(0)[1], ())
            else:
                allowed = self._allowed_predicates(graph, atom.index)
                if allowed is None:
                    candidates = frontier
                else:
                    candidates = [
                        triple
                        for predicate in allowed.intersection(by_predicate)
                        for triple in by_predicate[predicate]
                    ]
            join, feed, seed_of, repeats = atom.join, atom.feed, atom.seed_of, atom.repeats
            for triple in candidates:
                if checks and any(triple[pos] != want for pos, want in checks):
                    continue
                if repeats and any(triple[a] != triple[b] for a, b in repeats):
                    continue
                if head_ids is None:
                    head_ids = self._head_constant_ids(graph.dictionary)
                seed = seed_of(triple)
                prefix = seed + head_ids
                rows = (
                    ((),) if join is None
                    else join.rows(graph, seed if feed is None else feed(seed))
                )
                for row in rows:
                    values = prefix + row
                    if guard is not None:
                        solution = bindings_from_mapping(
                            {var: terms[values[slot]] for var, slot in atom.guard_slots}
                        )
                        try:
                            if not guard(solution):
                                continue
                        except (TypeError, ValueError, KeyError):
                            continue
                    for s, p, o, kinds in atom.heads:
                        # a head that would place a bound literal in
                        # subject or predicate position derives nothing
                        if kinds and not all(
                            isinstance(terms[values[slot]], kind) for slot, kind in kinds
                        ):
                            continue
                        derived.add((values[s], values[p], values[o]))
        return derived

    def _head_constant_ids(self, dictionary: TermDictionary) -> Tuple[int, ...]:
        """The head constants' ids, interned once per rule and dictionary."""
        cached_dictionary, ids = self._head_ids
        if cached_dictionary is not dictionary:
            ids = tuple(dictionary.encode(term) for term in self._head_terms)
            self._head_ids = (dictionary, ids)
        return ids

    def _seed_atoms(self) -> List["_SeedAtom"]:
        """Every body atom compiled for seeding (built once; no graph state)."""
        if self._atoms is None:
            self._atoms = [_SeedAtom(self, index) for index in range(len(self.body))]
        return self._atoms

    def _allowed_predicates(self, graph: Graph, seed_index: int) -> Optional[Set[int]]:
        """Semi-join bound for a variable-predicate seed atom, as ids.

        When body atom ``seed_index`` has a variable in predicate position
        that also occurs (in subject / object position) in another body
        atom with a *ground* predicate — the schema atom, e.g. ``?p
        rdfs:domain ?c`` alongside ``?x ?p ?y`` — only predicates the
        schema atom can bind may ever complete a match.  Those sets (the
        declared domains, sub-properties, inverses, …) are small, so
        computing them per call is far cheaper than joining from every
        frontier triple.  ``None`` means unconstrained.
        """
        predicate = self.body[seed_index].predicate
        if not isinstance(predicate, Variable):
            return None
        allowed: Optional[Set[int]] = None
        for index, other in enumerate(self.body):
            if index == seed_index or isinstance(other.predicate, Variable):
                continue
            if other.subject == predicate:
                column = 0
            elif other.object == predicate:
                column = 2
            else:
                continue
            pattern = graph.encode_pattern(other)
            values = (
                set() if pattern is None
                else {triple[column] for triple in graph.triples_ids(pattern)}
            )
            allowed = values if allowed is None else allowed & values
        return allowed

    def __repr__(self) -> str:
        return f"Rule({self.name!r}, body={len(self.body)}, head={len(self.head)})"


class _SeedAtom:
    """One body atom of a rule, compiled for seeding from id triples.

    Everything here is structure: the atom's constants (the predicate
    first when it is ground, so the frontier's predicate grouping does
    that comparison), the positions whose ids form the seed row, the
    prepared join of the other atoms, and where each head position and
    guard variable reads its id in ``seed + head constants + join row``.
    Ids are resolved per firing, because a top-up interns terms.
    """

    __slots__ = (
        "index", "constants", "predicate_bucketed", "repeats", "seed_of",
        "join", "feed", "heads", "guard_slots",
    )

    def __init__(self, rule: Rule, index: int):
        pattern = rule.body[index]
        self.index = index
        seed_vars: List[Variable] = []
        first: List[int] = []
        constants: List[Tuple[int, Term]] = []
        repeats: List[Tuple[int, int]] = []
        for position, term in enumerate(pattern):
            if not isinstance(term, Variable):
                constants.append((position, term))
            elif term in seed_vars:
                repeats.append((position, first[seed_vars.index(term)]))
            else:
                seed_vars.append(term)
                first.append(position)
        self.predicate_bucketed = not isinstance(pattern.predicate, Variable)
        constants.sort(key=lambda item: item[0] != 1)
        self.constants = tuple(constants)
        self.repeats = tuple(repeats)
        self.seed_of = _picker(first)
        slots = {var: slot for slot, var in enumerate(seed_vars)}
        for offset, term in enumerate(rule._head_terms):
            slots[term] = len(seed_vars) + offset
        self.join: Optional[PreparedJoin] = None
        self.feed: Optional[Callable[[tuple], tuple]] = None
        if len(rule.body) > 1:
            rest = [atom for i, atom in enumerate(rule.body) if i != index]
            join = self.join = BGP(rest).prepared(tuple(seed_vars))
            if len(join.seed_vars) != len(seed_vars):
                self.feed = _picker([seed_vars.index(var) for var in join.seed_vars])
            base = len(slots)
            for offset, var in enumerate(join.out_vars):
                slots.setdefault(var, base + offset)
        # a variable stored in subject or predicate position of some body
        # atom is an IRI or blank node; one stored as a predicate is an IRI
        not_literal = {t for atom in rule.body for t in atom[:2] if isinstance(t, Variable)}
        iri = {atom.predicate for atom in rule.body if isinstance(atom.predicate, Variable)}
        heads = []
        for head in rule.head:
            kinds = []
            if isinstance(head.subject, Variable) and head.subject not in not_literal:
                kinds.append((slots[head.subject], (IRI, BlankNode)))
            if isinstance(head.predicate, Variable) and head.predicate not in iri:
                kinds.append((slots[head.predicate], IRI))
            heads.append((slots[head[0]], slots[head[1]], slots[head[2]], tuple(kinds)))
        self.heads = tuple(heads)
        body_vars = dict.fromkeys(var for atom in rule.body for var in atom.variables())
        self.guard_slots = (
            tuple((var, slots[var]) for var in body_vars) if rule.guard is not None else ()
        )

    def resolve(self, lookup: Callable[[Term], Optional[int]]) -> Optional[List[Tuple[int, int]]]:
        """``(position, id)`` per constant, or ``None`` when one is unknown."""
        checks = []
        for position, term in self.constants:
            term_id = lookup(term)
            if term_id is None:
                return None
            checks.append((position, term_id))
        return checks


def _picker(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """A function returning the items at ``positions`` as a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        only = positions[0]
        return lambda row: (row[only],)
    return lambda row: ()


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
    ):
        self.rules: List[Rule] = list(rules or [])
        self.max_iterations = max_iterations
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

    def run(
        self, graph: Graph, delta: Optional[Iterable[TripleIds]] = None
    ) -> InferenceTrace:
        """Semi-naive forward chaining to a fixpoint, in id space.

        ``delta`` is the first frontier: id triples ``graph`` already
        contains that were added since it was last closed under the rules
        (e.g. ``GraphDelta.added_ids``).  ``None`` means every triple in
        the store, which computes the closure from scratch.  Each round
        refires only the rules whose body predicates occur in the
        frontier, each firing joins from a frontier triple instead of
        re-enumerating the whole graph, and the round's new triples are
        the next frontier.  Frontier, seeds, join rows and heads are id
        tuples; each firing's new triples enter through
        :meth:`Graph.add_encoded` in sorted order, so the insertion (and
        write-ahead log) order is a function of the ids alone.  The
        returned :class:`InferenceTrace` reports how many triples each
        rule added.
        """
        trace = InferenceTrace()
        contains = graph.contains_ids
        frontier: Set[TripleIds] = (
            set(graph.triples_ids()) if delta is None
            else {t for t in delta if contains(t)}
        )
        if not frontier:
            return trace
        index = self._body_index()
        terms = graph.dictionary.terms
        add = graph.add_encoded
        for iteration in range(self.max_iterations):
            by_predicate: Dict[int, List[TripleIds]] = {}
            for triple in frontier:
                by_predicate.setdefault(triple[1], []).append(triple)
            # rules are found through the frontier's decoded predicates: an
            # id resolved once would miss a body predicate that an earlier
            # round's head interned
            candidates = {id(rule) for rule in self._wildcard_rules}
            for predicate in by_predicate:
                candidates.update(id(rule) for rule in index.get(terms[predicate], ()))
            next_frontier: Set[TripleIds] = set()
            for rule in self.rules:
                if id(rule) not in candidates:
                    continue
                new_triples = sorted(
                    t for t in rule.fire(graph, frontier, by_predicate) if not contains(t)
                )
                for s, p, o in new_triples:
                    add(s, p, o)
                trace.record(rule.name, len(new_triples))
                next_frontier.update(new_triples)
            trace.iterations = iteration + 1
            if not next_frontier:
                break
            frontier = next_frontier
        return trace

    def __repr__(self) -> str:
        return f"<RuleEngine {len(self.rules)} rules>"
