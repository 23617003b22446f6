"""Query evaluation: turning parsed queries into algebra and executing them.

By default :func:`query` and :func:`select` route through the cost-based
planner in :mod:`repro.semantics.sparql.planner` (join-order selection from
graph cardinality statistics, filter pushdown, version-keyed plan / result
caches); pass ``use_planner=False`` for the naive written-order evaluation,
which the randomized equivalence tests use as the correctness oracle.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.namespace import RDF
from repro.semantics.rdf.term import IRI, Literal, Term, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.sparql.algebra import (
    BGP,
    Filter,
    LeftJoin,
    Operator,
    Projection,
    TermFilter,
    numeric_filter,
)
from repro.semantics.sparql.bindings import Bindings
from repro.semantics.sparql.parser import (
    DECIMAL_LITERAL_RE,
    INTEGER_LITERAL_RE,
    ParsedFilter,
    ParsedPattern,
    ParsedQuery,
    parse_query,
)


class QueryResult:
    """The result of a SELECT or ASK query.

    Iterating yields :class:`Bindings`; :attr:`rows` gives them as plain
    dictionaries keyed by variable name, which is what application code and
    tests normally want.

    :attr:`degraded` / :attr:`missing_shards` mark a *partial* federated
    result: the process backend sets them when a tripped shard was skipped
    under ``degraded_reads``, so callers can distinguish "empty" from
    "missing a partition".  They stay at their class defaults everywhere
    else.
    """

    degraded: bool = False
    missing_shards: tuple = ()

    def __init__(self, form: str, solutions: List[Bindings], variables: List[Variable]):
        self.form = form
        self.solutions = solutions
        self.variables = variables

    def __iter__(self) -> Iterator[Bindings]:
        return iter(self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)

    def __bool__(self) -> bool:
        return bool(self.solutions)

    @property
    def rows(self) -> List[Dict[str, Term]]:
        """Solutions as ``{variable name: term}`` dictionaries."""
        return [
            {var.name: term for var, term in solution.items()}
            for solution in self.solutions
        ]

    @property
    def scalars(self) -> List[Union[str, int, float, bool]]:
        """For single-variable queries: the bound values as Python scalars."""
        values = []
        for solution in self.solutions:
            for _, term in solution.items():
                if isinstance(term, Literal):
                    values.append(term.to_python())
                else:
                    values.append(str(term))
        return values

    @property
    def ask(self) -> bool:
        """For ASK queries: whether any solution exists."""
        return bool(self.solutions)


def _numeric_literal(text: str) -> Optional[Literal]:
    """Parse ``text`` as a numeric literal, or ``None`` if it is not one.

    Only the parser's canonical numeric-token syntax counts.  Python's
    int()/float() accept far more (``nan``, ``inf``, ``1e3``, ``1_000``),
    which would silently turn bare tokens into numbers instead of letting
    them resolve (or loudly fail to resolve) as prefixed names.
    """
    if INTEGER_LITERAL_RE.match(text):
        return Literal(int(text))
    if DECIMAL_LITERAL_RE.match(text):
        return Literal(float(text))
    return None


def _resolve_term(text: str, graph: Graph) -> Term:
    """Resolve a textual query term against the graph's namespaces."""
    text = text.strip()
    if text.startswith("?"):
        return Variable(text)
    if text == "a":
        return RDF.type
    if text.startswith("<") and text.endswith(">"):
        return IRI(text[1:-1])
    if text.startswith('"'):
        from repro.semantics.rdf.parser import _parse_literal

        return _parse_literal(text)
    numeric = _numeric_literal(text)
    if numeric is not None:
        return numeric
    return graph.namespaces.expand(text)


def _build_bgp(patterns: Sequence[ParsedPattern], graph: Graph) -> BGP:
    triples = [
        Triple(
            _resolve_term(p.subject, graph),
            _resolve_term(p.predicate, graph),
            _resolve_term(p.object, graph),
        )
        for p in patterns
    ]
    # the naive evaluation path is the equivalence oracle for *both* the
    # planner's join ordering and the dictionary-encoded join loop, so it
    # deliberately joins decoded term objects
    return BGP(triples, use_ids=False)


def _build_filter(flt: ParsedFilter, graph: Graph) -> Tuple[Variable, TermFilter]:
    """Build a FILTER predicate, returning the variable it constrains.

    Shared with the planner, which uses the variable to decide where the
    predicate can be pushed down to — and, there, applies the
    :class:`~repro.semantics.sparql.algebra.TermFilter`'s term-level test
    to the one bound term.  Values with proper numeric-literal syntax
    become numeric comparisons; everything else resolves as a term and
    supports (in)equality only.
    """
    var = Variable(flt.variable)
    value_text = flt.value.strip()
    numeric = _numeric_literal(value_text)
    if numeric is not None:
        return var, numeric_filter(var, flt.op, numeric.to_python())
    target = _resolve_term(value_text, graph)
    if flt.op in ("=", "=="):
        return var, TermFilter(var, lambda bound: bound == target)
    if flt.op == "!=":
        return var, TermFilter(var, lambda bound: bound != target)
    return var, TermFilter(var, lambda bound: False)


def _build_algebra(parsed: ParsedQuery, graph: Graph) -> Operator:
    root: Operator = _build_bgp(parsed.patterns, graph)
    for optional in parsed.optional_patterns:
        root = LeftJoin(root, _build_bgp(optional, graph))
    for flt in parsed.filters:
        _, predicate = _build_filter(flt, graph)
        root = Filter(root, predicate)
    projection_vars = [Variable(name) for name in parsed.variables] or None
    return Projection(
        root,
        variables=projection_vars,
        distinct=parsed.distinct,
        order_by=Variable(parsed.order_by) if parsed.order_by else None,
        descending=parsed.descending,
        limit=parsed.limit,
        offset=parsed.offset,
    )


def evaluate(graph: Graph, operator: Operator) -> List[Bindings]:
    """Evaluate an algebra tree, materialising all solutions."""
    return list(operator.solutions(graph))


def query(graph: Graph, text: str, use_planner: bool = True) -> QueryResult:
    """Parse and evaluate a SELECT or ASK query against ``graph``.

    With ``use_planner`` (the default) the query runs through the graph's
    shared :class:`~repro.semantics.sparql.planner.QueryPlanner`: triple
    patterns are join-ordered by estimated selectivity, filters are pushed
    down, and both the plan and (bounded) results are cached keyed on the
    query text and invalidated by :attr:`Graph.version`.  Pass
    ``use_planner=False`` for the naive written-order evaluation — the
    correctness oracle of the equivalence tests and the benchmark baseline.
    """
    if use_planner:
        from repro.semantics.sparql.planner import planner_for

        return planner_for(graph).query(graph, text)
    parsed = parse_query(text)
    algebra = _build_algebra(parsed, graph)
    solutions = evaluate(graph, algebra)
    if parsed.form == "ASK":
        return QueryResult("ASK", solutions[:1], [])
    variables = algebra.variables()
    return QueryResult("SELECT", solutions, variables)


def register_standing(graph: Graph, text: str, name: Optional[str] = None):
    """Register ``text`` as a delta-maintained standing view over ``graph``.

    Subsequent :func:`query` calls (the default planner path) serve the
    query from the materialized view, which folds graph mutations in
    incrementally instead of re-evaluating after every write.  Returns the
    :class:`~repro.semantics.sparql.views.StandingView`.
    """
    from repro.semantics.sparql.planner import register_standing as _register

    return _register(graph, text, name=name)


def federated_query(graphs: Sequence[Graph], text: str) -> QueryResult:
    """Evaluate ``text`` across partition graphs, gathering one result.

    Convenience entry point mirroring :func:`query` for sharded stores: the
    query is scattered to every partition (each evaluated through its own
    cost-based planner and version-keyed caches), the full solution
    mappings — distinct projected rows, for a ``SELECT DISTINCT`` without
    OPTIONAL — are set-unioned (which collapses replicated-axiom copies
    and nothing the query did not ask to collapse), and projection /
    DISTINCT / ORDER BY / LIMIT / OFFSET apply globally after the merge —
    in-contract results match the single-graph oracle as a bag.  See
    :func:`repro.semantics.sparql.planner.federated_query` for the
    federation contract.
    """
    from repro.semantics.sparql.planner import federated_query as _federated

    return _federated(graphs, text)


def select(
    graph: Graph,
    patterns: Sequence[Triple],
    variables: Optional[Sequence[Variable]] = None,
    distinct: bool = False,
    use_planner: bool = True,
) -> QueryResult:
    """Programmatic SELECT over explicit triple patterns (no text parsing).

    With ``use_planner`` (the default) the patterns are join-ordered by the
    cost-based planner before evaluation; results are not cached (callers
    holding explicit patterns typically vary them per call).
    """
    if use_planner:
        from repro.semantics.sparql.planner import plan_patterns

        bgp: Operator = plan_patterns(graph, list(patterns))
    else:
        # written-order decoded-object join: the equivalence oracle
        bgp = BGP(list(patterns), use_ids=False)
    algebra = Projection(bgp, variables=variables, distinct=distinct)
    solutions = evaluate(graph, algebra)
    return QueryResult("SELECT", solutions, algebra.variables())
