"""Cost-based query planning with versioned plan / result caching.

The naive evaluator joins a basic graph pattern's triples in whatever order
the query author wrote them (breaking ties only on the number of unbound
positions), so a badly-ordered query degenerates to a near-full scan even
though the graph answers every partially-ground pattern by index lookup.
This module adds the missing cost model:

* **Cardinality estimation** — :func:`estimate_pattern` prices a triple
  pattern from the graph's maintained statistics
  (:meth:`~repro.semantics.rdf.graph.Graph.pattern_cardinality`, per-
  predicate triple / distinct-subject / distinct-object counts).  A
  variable that an earlier join step will have bound is priced as the
  average fan-out of its position, e.g. ``count(p) / distinct_subjects(p)``
  for a bound subject.

* **Join ordering** — :func:`order_patterns` greedily picks the cheapest
  remaining pattern under the already-bound variable set (most selective
  first), preferring patterns that share already-bound variables so the
  join never degenerates to a cartesian product, and propagates the chosen
  pattern's variables into the bound set for the next round.

* **Filter pushdown** — :func:`build_plan` attaches each FILTER predicate
  to the earliest join step at which its variable is bound, so failing
  bindings are discarded before they fan out.  Filters over variables only
  bound by OPTIONAL blocks keep their SPARQL semantics: they stay above the
  left-join, exactly where the naive evaluator applies them.

* **Compiled evaluation** — a :class:`PlannedBGP` runs its fixed order
  through the generated nested-loop kernel of
  :mod:`repro.semantics.sparql.kernel`; the planner keeps the compiled
  functions by join *shape* (:meth:`QueryPlanner.kernel`), which no graph
  mutation invalidates, and a ``SELECT DISTINCT`` over a bare BGP takes
  its projection and DISTINCT in id space, before any row is decoded.

* **Caching** — :class:`QueryPlanner` memoises plans and (optionally,
  bounded-LRU) full result sets keyed by query text; both are invalidated
  by the graph's monotonic :attr:`~repro.semantics.rdf.graph.Graph.version`
  counter, so repeated dashboard / DEWS queries over an unchanged graph
  skip parse, plan *and* evaluation, while any mutation transparently
  forces re-evaluation (and re-planning against fresh statistics).

Every evaluation path in the middleware — ``evaluator.query`` /
``select``, :meth:`Reasoner.query`, the ontology segment layer, the
application abstraction layer, the middleware facade and the DEWS — routes
through the per-graph shared planner returned by :func:`planner_for`.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.term import Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.sparql.algebra import (
    Filter,
    FilterFunction,
    IdJoin,
    LeftJoin,
    Operator,
    Projection,
    StepFilter,
)
from repro.semantics.sparql.bindings import EMPTY_BINDINGS, Bindings
from repro.semantics.sparql.evaluator import (
    QueryResult,
    _build_filter,
    _resolve_term,
)
from repro.semantics.sparql.kernel import Kernel, Shape, compile_kernel
from repro.semantics.sparql.parser import ParsedPattern, ParsedQuery, parse_query


# --------------------------------------------------------------------- #
# cardinality estimation
# --------------------------------------------------------------------- #

def estimate_pattern(graph: Graph, pattern: Triple, bound: Set[Variable]) -> float:
    """Estimated number of bindings produced by matching ``pattern``.

    Positions holding ground terms use the exact index counts; positions
    holding a variable in ``bound`` are priced as average fan-out (the
    pattern's wildcard count divided by the distinct values the bound
    position can take); free variables cost nothing extra.
    """
    s, p, o = pattern.subject, pattern.predicate, pattern.object
    s_bound = isinstance(s, Variable) and s in bound
    p_bound = isinstance(p, Variable) and p in bound
    o_bound = isinstance(o, Variable) and o in bound
    base = graph.pattern_cardinality((s, p, o))
    if base == 0:
        return 0.0
    estimate = float(base)
    if not isinstance(p, Variable):
        if s_bound:
            estimate /= max(1, graph.distinct_subjects_count(p))
        if o_bound:
            estimate /= max(1, graph.distinct_objects_count(p))
    else:
        if s_bound:
            estimate /= max(1, graph.distinct_subjects_count())
        if o_bound:
            estimate /= max(1, graph.distinct_objects_count())
        if p_bound:
            estimate /= max(1, graph.distinct_predicates_count())
    return estimate


def order_patterns(
    graph: Graph,
    patterns: Sequence[Triple],
    bound: Sequence[Variable] = (),
) -> List[Triple]:
    """Greedy selectivity-first join order with bound-variable propagation.

    At every step the cheapest remaining pattern under the current bound
    set is chosen; patterns sharing no bound variable with the prefix are
    deferred while any connected (or fully ground) pattern remains, since
    a disconnected pattern multiplies the intermediate result (cartesian
    product) no matter how cheap it looks on its own.
    """
    remaining = list(patterns)
    bound_vars: Set[Variable] = set(bound)
    ordered: List[Triple] = []
    while remaining:
        def cost(pattern: Triple) -> Tuple[int, float, int]:
            pattern_vars = set(pattern.variables())
            shared = len(pattern_vars & bound_vars)
            free = len(pattern_vars - bound_vars)
            disconnected = 1 if (ordered and free and not shared) else 0
            return (disconnected, estimate_pattern(graph, pattern, bound_vars), -shared)

        best = min(remaining, key=cost)
        remaining.remove(best)
        ordered.append(best)
        bound_vars.update(best.variables())
    return ordered


# --------------------------------------------------------------------- #
# the planned BGP operator
# --------------------------------------------------------------------- #

class PlannedBGP(IdJoin):
    """A basic graph pattern evaluated in a fixed pre-planned join order.

    Unlike :class:`~repro.semantics.sparql.algebra.BGP` there is no
    reordering: the planner has already fixed the order from the graph's
    cardinality statistics.  Each join step can carry pushed-down FILTER
    predicates that are applied the moment their variable is bound, before
    the partial solution fans out into deeper steps.

    The join runs in id space through the compiled kernel
    (:class:`~repro.semantics.sparql.algebra.IdJoin`): ground pattern terms
    are resolved to dictionary ids once, variables are integer slots, and a
    pushed-down filter reads exactly the one term it constrains (the
    parser's FILTER syntax is single-variable).  Only rows that leave the
    operator are decoded — with ``project`` set, only the distinct
    projections onto those variables.

    ``source_patterns`` preserves the written pattern order purely for
    :meth:`variables`, so ``SELECT *`` projections list variables in the
    order the author introduced them regardless of the join order chosen.
    """

    def __init__(
        self,
        patterns: Sequence[Triple],
        step_filters: Optional[Sequence[Sequence[StepFilter]]] = None,
        source_patterns: Optional[Sequence[Triple]] = None,
        project: Optional[Sequence[Variable]] = None,
    ):
        super().__init__(patterns, project)
        if step_filters is None:
            step_filters = [[] for _ in self.patterns]
        if len(step_filters) != len(self.patterns):
            raise ValueError("step_filters must parallel patterns")
        self.step_filters = [list(fns) for fns in step_filters]
        self.source_patterns = list(source_patterns) if source_patterns else self.patterns

    def variables(self) -> List[Variable]:
        seen: List[Variable] = []
        for pattern in self.source_patterns:
            for var in pattern.variables():
                if var not in seen:
                    seen.append(var)
        return seen

    def _join_order(self, bound):
        return self.patterns, self.step_filters


def plan_patterns(
    graph: Graph, patterns: Sequence[Triple], bound: Sequence[Variable] = ()
) -> PlannedBGP:
    """Plan an explicit pattern list into a :class:`PlannedBGP`."""
    return PlannedBGP(
        order_patterns(graph, patterns, bound), source_patterns=patterns
    )


# --------------------------------------------------------------------- #
# whole-query planning
# --------------------------------------------------------------------- #

@dataclass
class QueryPlan:
    """A compiled, reusable query: algebra tree plus cache bookkeeping."""

    form: str                      # "SELECT" or "ASK"
    root: Operator                 # full tree including the projection
    variables: List[Variable]      # projected variables, written order
    stamp: Tuple[int, int]         # (graph version, namespace generation)
                                   # the plan was resolved and costed at

    def execute(self, graph: Graph) -> List[Bindings]:
        if self.form == "ASK":
            # existence only: stop at the first solution instead of
            # materialising every binding (ASK plans carry no projection,
            # so the operator tree underneath is fully lazy)
            first = next(self.root.solutions(graph), None)
            return [] if first is None else [first]
        return list(self.root.solutions(graph))


def _stamp(graph: Graph) -> Tuple[int, int]:
    """The cache-validity stamp of a graph's current state.

    The namespace generation participates because rebinding a prefix
    changes how the CURIEs baked into a cached plan (or the query text of
    a cached result) resolve, without any triple mutation.
    """
    return (graph.version, graph.namespaces.generation)


def _resolve_patterns(parsed: Sequence[ParsedPattern], graph: Graph) -> List[Triple]:
    return [
        Triple(
            _resolve_term(p.subject, graph),
            _resolve_term(p.predicate, graph),
            _resolve_term(p.object, graph),
        )
        for p in parsed
    ]


def build_plan(graph: Graph, parsed: ParsedQuery) -> QueryPlan:
    """Compile a parsed query into an optimised :class:`QueryPlan`."""
    core = _resolve_patterns(parsed.patterns, graph)
    ordered = order_patterns(graph, core)
    core_vars: Set[Variable] = set()
    for pattern in core:
        core_vars.update(pattern.variables())

    # FILTER pushdown: a filter whose variable the required patterns bind
    # is applied at the first join step after that variable is bound; a
    # filter over an OPTIONAL-only (or nowhere-bound) variable must keep
    # the naive placement above the left-joins to preserve semantics.
    filters = [_build_filter(flt, graph) for flt in parsed.filters]
    step_filters: List[List[StepFilter]] = [[] for _ in ordered]
    outer_filters: List[FilterFunction] = []
    cumulative: Set[Variable] = set()
    bound_after: List[Set[Variable]] = []
    for pattern in ordered:
        cumulative |= set(pattern.variables())
        bound_after.append(set(cumulative))
    for var, predicate in filters:
        if var in core_vars and ordered:
            for index, bound in enumerate(bound_after):
                if var in bound:
                    step_filters[index].append((var, predicate))
                    break
        else:
            outer_filters.append(predicate)

    projection_vars = [Variable(name) for name in parsed.variables] or None
    # SELECT DISTINCT over a bare BGP: the operator itself yields the
    # distinct projections, de-duplicated on id tuples, so only the rows
    # that survive are ever decoded (the Projection above sees them again
    # and changes nothing).  Anything between the BGP and the projection —
    # an OPTIONAL, an unpushed filter — needs the full rows.
    pushed = (
        projection_vars
        if parsed.form == "SELECT"
        and parsed.distinct
        and not parsed.optional_patterns
        and not outer_filters
        else None
    )
    root: Operator = PlannedBGP(ordered, step_filters, source_patterns=core, project=pushed)
    for optional in parsed.optional_patterns:
        optional_patterns = _resolve_patterns(optional, graph)
        # the left join evaluates its right side independently, so the
        # optional block is planned with an empty initial bound set
        root = LeftJoin(root, plan_patterns(graph, optional_patterns))
    for predicate in outer_filters:
        root = Filter(root, predicate)

    if parsed.form == "ASK":
        # no projection wrapper: Projection materialises its child's
        # solutions, which would defeat the ASK short-circuit in
        # :meth:`QueryPlan.execute`
        return QueryPlan(form="ASK", root=root, variables=[], stamp=_stamp(graph))

    projection = Projection(
        root,
        variables=projection_vars,
        distinct=parsed.distinct,
        order_by=Variable(parsed.order_by) if parsed.order_by else None,
        descending=parsed.descending,
        limit=parsed.limit,
        offset=parsed.offset,
    )
    return QueryPlan(
        form="SELECT",
        root=projection,
        variables=projection.variables(),
        stamp=_stamp(graph),
    )


# --------------------------------------------------------------------- #
# the planner facade: plan cache + bounded result cache
# --------------------------------------------------------------------- #

#: Distinct join shapes kept per planner before the table starts over (a
#: dashboard plus the rule set is a few dozen).
_KERNEL_CACHE_SIZE = 1024


@dataclass
class PlannerStatistics:
    """Cache / planning counters (feeds the query-planning benchmark)."""

    queries: int = 0
    parses: int = 0
    plans_built: int = 0
    plan_hits: int = 0
    plan_invalidations: int = 0
    result_hits: int = 0
    result_misses: int = 0
    result_invalidations: int = 0
    view_hits: int = 0
    #: join kernels generated for this graph (one per distinct join
    #: *shape*, whoever asked — planner, view or rule; a number that grows
    #: with the query count means a shape key has stopped being stable)
    kernels_compiled: int = 0

    def __iadd__(self, other: "PlannerStatistics") -> "PlannerStatistics":
        for counter in fields(self):
            setattr(
                self,
                counter.name,
                getattr(self, counter.name) + getattr(other, counter.name),
            )
        return self


class QueryPlanner:
    """Plans textual queries over one (or more) graphs, caching aggressively.

    Parameters
    ----------
    plan_cache_size:
        Maximum number of compiled plans kept (LRU).  Plans are rebuilt
        when the graph's version or namespace bindings moved, since the
        statistics they were costed under — or the IRIs their CURIEs
        resolved to — may be stale.
    result_cache_size:
        Maximum number of full result sets kept (LRU), ``0`` to disable.
        A cached result is only served while the graph's version and
        namespace generation match those it was computed at — any triple
        mutation or prefix rebinding invalidates it.

    The planner itself holds no reference to a graph; every method takes
    the graph as an argument (and cache keys include the graph's identity),
    so a planner can be shared or per-graph (see :func:`planner_for`).
    """

    def __init__(self, plan_cache_size: int = 256, result_cache_size: int = 128):
        self.plan_cache_size = plan_cache_size
        self.result_cache_size = result_cache_size
        self.statistics = PlannerStatistics()
        # entries carry a weakref to their graph: a recycled id() after the
        # original graph is collected must read as a miss, never an alias
        self._plans: "OrderedDict[Tuple[int, str], Tuple[weakref.ref, QueryPlan]]" = OrderedDict()
        self._results: "OrderedDict[Tuple[int, str], Tuple[weakref.ref, Tuple[int, int], str, List[Bindings], List[Variable]]]" = OrderedDict()
        # parsing is graph-independent, so parsed queries are keyed by text
        # alone and survive every invalidation: a graph mutation re-plans
        # (re-costs the join order) but never re-parses
        self._parsed: "OrderedDict[str, ParsedQuery]" = OrderedDict()
        # standing views: delta-maintained materialized results that back
        # the result cache for registered queries instead of dying on every
        # Graph.version bump (see repro.semantics.sparql.views)
        self._views: "Dict[Tuple[int, str], Tuple[weakref.ref, object]]" = {}
        # compiled join kernels by shape: graph-state independent, so they
        # outlive every plan invalidation — a re-plan after a write finds
        # its kernel here instead of generating it again
        self._kernels: Dict[Shape, Kernel] = {}

    # -- join kernels -------------------------------------------------- #

    def kernel(self, shape: Shape) -> Kernel:
        """The compiled join kernel for ``shape`` (generated on first use)."""
        kernel = self._kernels.get(shape)
        if kernel is None:
            if len(self._kernels) >= _KERNEL_CACHE_SIZE:
                self._kernels.clear()
            kernel = self._kernels[shape] = compile_kernel(shape)
            self.statistics.kernels_compiled += 1
        return kernel

    # -- planning ------------------------------------------------------ #

    def _parse(self, text: str) -> ParsedQuery:
        parsed = self._parsed.get(text)
        if parsed is None:
            parsed = parse_query(text)
            self.statistics.parses += 1
            self._parsed[text] = parsed
        self._parsed.move_to_end(text)
        while len(self._parsed) > self.plan_cache_size:
            self._parsed.popitem(last=False)
        return parsed

    def plan(self, graph: Graph, text: str) -> QueryPlan:
        """Return a (cached) compiled plan for ``text`` over ``graph``."""
        return self._plan_cached(graph, text, None)

    def plan_parsed(self, graph: Graph, cache_text: str, parsed: ParsedQuery) -> QueryPlan:
        """Like :meth:`plan` but for an already-parsed (possibly rewritten) query.

        ``cache_text`` keys the plan cache; the federator uses a marked
        variant of the original text so a modifier-stripped plan can never
        be served where the unmodified query is expected.
        """
        return self._plan_cached(graph, cache_text, parsed)

    def _plan_cached(
        self, graph: Graph, text: str, parsed: Optional[ParsedQuery]
    ) -> QueryPlan:
        key = (id(graph), text)
        entry = self._plans.get(key)
        if entry is not None:
            graph_ref, plan = entry
            if graph_ref() is graph:
                if plan.stamp == _stamp(graph):
                    self._plans.move_to_end(key)
                    self.statistics.plan_hits += 1
                    return plan
                self.statistics.plan_invalidations += 1
        plan = build_plan(graph, parsed if parsed is not None else self._parse(text))
        self.statistics.plans_built += 1
        self._plans[key] = (weakref.ref(graph), plan)
        self._plans.move_to_end(key)
        while len(self._plans) > self.plan_cache_size:
            self._plans.popitem(last=False)
        return plan

    # -- execution ----------------------------------------------------- #

    def query(self, graph: Graph, text: str) -> QueryResult:
        """Plan (or reuse) and execute ``text``, serving cached results.

        A result-cache hit returns a fresh :class:`QueryResult` over a
        copy of the cached solution list, so callers may consume results
        independently.
        """
        return self._query_cached(graph, text, None)

    def query_parsed(self, graph: Graph, cache_text: str, parsed: ParsedQuery) -> QueryResult:
        """Like :meth:`query` for an already-parsed (possibly rewritten) query.

        ``cache_text`` keys both the plan and the result cache, so the
        federator's modifier-stripped per-partition result sets enjoy the
        same version-keyed caching as ordinary queries without ever
        aliasing the unmodified query's entries.
        """
        return self._query_cached(graph, cache_text, parsed)

    def _query_cached(
        self, graph: Graph, text: str, parsed: Optional[ParsedQuery]
    ) -> QueryResult:
        self.statistics.queries += 1
        key = (id(graph), text)
        if self._views:
            entry = self._views.get(key)
            if entry is not None:
                graph_ref, view = entry
                if graph_ref() is graph:
                    # the maintained view *is* the result cache for this
                    # query: it folds pending deltas in instead of being
                    # invalidated by the version bump
                    self.statistics.view_hits += 1
                    return view.result()
                del self._views[key]
        if self.result_cache_size:
            cached = self._results.get(key)
            if cached is not None:
                graph_ref, stamp, form, solutions, variables = cached
                if graph_ref() is graph and stamp == _stamp(graph):
                    self._results.move_to_end(key)
                    self.statistics.result_hits += 1
                    return QueryResult(form, list(solutions), list(variables))
                self.statistics.result_invalidations += 1
                del self._results[key]
        plan = self._plan_cached(graph, text, parsed)
        self.statistics.result_misses += 1
        solutions = plan.execute(graph)
        if self.result_cache_size:
            self._results[key] = (
                weakref.ref(graph), _stamp(graph), plan.form, solutions, plan.variables,
            )
            self._results.move_to_end(key)
            while len(self._results) > self.result_cache_size:
                self._results.popitem(last=False)
        return QueryResult(plan.form, list(solutions), list(plan.variables))

    # -- standing views ------------------------------------------------ #

    def register_standing(
        self,
        graph: Graph,
        text: str,
        parsed: Optional[ParsedQuery] = None,
        cache_text: Optional[str] = None,
        name: Optional[str] = None,
        seed=None,
    ):
        """Register ``text`` as a delta-maintained standing view on ``graph``.

        From then on :meth:`query` (and :meth:`query_parsed` under the same
        ``cache_text`` key) serves the query from the materialized view,
        which folds graph deltas in incrementally instead of re-evaluating
        on every :attr:`Graph.version` bump.  Idempotent: re-registering
        returns the existing view.  ``seed`` (a recovered ``base -> rows``
        mapping) skips the initial materialization.
        """
        from repro.semantics.sparql.views import StandingView

        key = (id(graph), cache_text if cache_text is not None else text)
        entry = self._views.get(key)
        if entry is not None:
            graph_ref, view = entry
            if graph_ref() is graph:
                return view
        if parsed is None:
            parsed = self._parse(text)
        view = StandingView(graph, text, parsed=parsed, name=name, seed=seed)
        self._views[key] = (weakref.ref(graph), view)
        return view

    def standing_views(self) -> List[object]:
        """The live registered standing views."""
        views = []
        for key in list(self._views):
            graph_ref, view = self._views[key]
            if graph_ref() is None:
                del self._views[key]
            else:
                views.append(view)
        return views

    def stats(self) -> Dict[str, object]:
        """Cache and view counters as one observability snapshot."""
        return dict(
            asdict(self.statistics),
            views=[view.stats() for view in self.standing_views()],
        )

    def clear_caches(self) -> None:
        """Drop every cached parse, plan and result (statistics are kept).

        Standing views are *not* dropped: they are not caches but
        maintained materializations, and stay registered until their graph
        is collected.
        """
        self._parsed.clear()
        self._plans.clear()
        self._results.clear()

    def __repr__(self) -> str:
        stats = self.statistics
        return (
            f"<QueryPlanner plans={len(self._plans)} results={len(self._results)} "
            f"hits={stats.plan_hits}/{stats.result_hits}>"
        )


# one shared planner per graph, dropped automatically with the graph
_PLANNERS: "weakref.WeakKeyDictionary[Graph, QueryPlanner]" = weakref.WeakKeyDictionary()


def planner_for(graph: Graph) -> QueryPlanner:
    """The process-wide shared :class:`QueryPlanner` for ``graph``.

    Held by weak reference to the graph: dropping the graph drops its
    planner (and caches) without explicit deregistration.
    """
    planner = _PLANNERS.get(graph)
    if planner is None:
        planner = QueryPlanner()
        _PLANNERS[graph] = planner
    return planner


def register_standing(graph: Graph, text: str, name: Optional[str] = None):
    """Register ``text`` as a standing view on ``graph``'s shared planner.

    Convenience wrapper over
    :meth:`QueryPlanner.register_standing`; every later
    ``evaluator.query(graph, text)`` (the default planner path) is served
    from the delta-maintained view.
    """
    return planner_for(graph).register_standing(graph, text, name=name)


# --------------------------------------------------------------------- #
# scatter-gather federation over graph partitions
# --------------------------------------------------------------------- #

#: Plan-cache key marker for the federator's rewritten per-partition plans
#: (:func:`federated_variant`), so they can never alias the unmodified
#: query's cached plan / results.
_FEDERATED_KEY_PREFIX = "\x00federated-full\x00"


class _Gathered(Operator):
    """Already-materialised solutions as an operator, so the federator can
    run the gathered merge through the ordinary :class:`Projection`."""

    def __init__(self, solutions: List[Bindings], variables: List[Variable]):
        self._solutions = solutions
        self._variables = variables

    def variables(self) -> List[Variable]:
        return list(self._variables)

    def solutions(self, graph: Graph) -> Iterator[Bindings]:
        return iter(self._solutions)


def _drop_subsumed_solutions(solutions: List[Bindings]) -> List[Bindings]:
    """Remove solutions strictly subsumed by a compatible larger one.

    OPTIONAL compensation for the scatter-gather merge: a partition whose
    *replicated* triples satisfy the required pattern but whose instance
    data cannot extend the OPTIONAL block emits the pass-through (unbound)
    row, while the partition holding the matching instance data emits the
    extended row — the single-graph oracle would produce only the latter.
    Operating on *full* (pre-projection) solution mappings, a left-join
    chain can never legitimately yield both a solution and a compatible
    strict extension of it (a pass-through happens only when zero
    extensions exist for that exact input row), so every compatibly
    subsumed solution in the merged set is a federation artifact and is
    dropped.  Solutions are bucketed by their largest common domain — the
    variables bound in *every* solution (the required pattern's, at least)
    — so the quadratic check only runs inside buckets that agree there.
    """
    if len(solutions) < 2:
        return solutions
    shared: Set[Variable] = set(solutions[0])
    full_domain: Set[Variable] = set(solutions[0])
    for solution in solutions[1:]:
        domain = set(solution)
        shared &= domain
        full_domain |= domain
    if shared == full_domain:
        return solutions  # every solution binds the same variables
    buckets: Dict[frozenset, List[Bindings]] = {}
    keyed: List[Tuple[frozenset, Bindings]] = []
    for solution in solutions:
        key = frozenset((var, solution[var]) for var in shared)
        keyed.append((key, solution))
        buckets.setdefault(key, []).append(solution)
    kept: List[Bindings] = []
    for key, solution in keyed:
        subsumed = False
        for other in buckets[key]:
            if len(other) <= len(solution) or other is solution:
                continue
            if all(other.get(var) == term for var, term in solution.items()):
                subsumed = True
                break
        if not subsumed:
            kept.append(solution)
    return kept


def _merge_solution_sets(
    per_graph: Sequence[Sequence[Bindings]],
) -> List[Bindings]:
    """Set-union the rows the partitions shipped.

    Those are *full* (pre-projection) solution mappings, and identical
    ones collapse to one — at that level exactly right: a full solution
    grounds every pattern atom to a triple, so a mapping derivable in two
    partitions can only be standing on triples present in both — i.e. on
    the *replicated* axioms — and the single-graph oracle would produce it
    once.  Instance-derived mappings live in exactly one partition and
    always survive.  Collapsing *projected* rows is only sound when the
    query asked for it, which is the one case partitions ship them: the
    DISTINCT push-down of :func:`federated_variant`, whose rows the global
    DISTINCT projection would collapse anyway.  First-seen order is
    preserved so the merge is deterministic for a fixed partition order;
    solutions decode to plain terms before this point, so mappings from
    shards with different dictionaries compare structurally.
    """
    seen: Set[Bindings] = set()
    merged: List[Bindings] = []
    for solutions in per_graph:
        for solution in solutions:
            if solution not in seen:
                seen.add(solution)
                merged.append(solution)
    return merged


def federated_variant(parsed: ParsedQuery, standing: bool = False) -> ParsedQuery:
    """The query one partition evaluates on behalf of a federated SELECT.

    ORDER BY / LIMIT / OFFSET always go: a per-shard cutoff could drop
    rows that survive globally, so they apply once, after the merge.
    Projection and DISTINCT go too — the merge needs *full* solution
    mappings, where set union is exactly the oracle's semantics (see
    :func:`_merge_solution_sets`) — with one exception, the **DISTINCT
    push-down**: a ``SELECT DISTINCT`` without OPTIONAL keeps its
    projection and its DISTINCT, so a partition ships its distinct
    projected rows (de-duplicated in id space, before decode) instead of
    every full solution.  That is exact because the set union of the
    partitions' distinct projections, run through the global DISTINCT
    projection, is the distinct projection of the union of their full
    solutions.  A query with OPTIONAL stays on full rows: subsumption
    compensation (:func:`_drop_subsumed_solutions`) compares whole
    mappings.

    ``standing`` is the variant a standing view maintains, and it is always
    the full-row one: a view's unit of maintenance is the full solution
    (deltas add and remove them, CEP subscribers receive them), and the
    ``base -> rows`` seeds already written into snapshots hold them — so
    views neither gain from nor may change under the push-down.  A shard
    answering from a view thus ships full rows where its neighbour ships
    projected ones; the global DISTINCT projection absorbs the difference.
    """
    push_distinct = (
        parsed.distinct and not parsed.optional_patterns and not standing
    )
    return replace(
        parsed,
        variables=parsed.variables if push_distinct else [],
        distinct=push_distinct,
        order_by=None,
        descending=False,
        limit=None,
        offset=0,
    )


def federated_partition_solutions(
    graph: Graph, text: str
) -> Tuple[List[Variable], List[Bindings]]:
    """One partition's contribution to a federated SELECT.

    Evaluates the :func:`federated_variant` of ``text`` on ``graph``
    (cached per shard under the federated marker key, which a standing
    view registered for ``text`` answers instead) and returns its
    variables and rows.  This is the per-shard half of
    :func:`federated_query`, split out so a process backend can run it
    *inside* a shard worker and ship only the rows.
    """
    planner = planner_for(graph)
    variant = federated_variant(planner._parse(text))
    result = planner.query_parsed(graph, _FEDERATED_KEY_PREFIX + text, variant)
    return list(result.variables), result.solutions


def merge_federated_solutions(
    parsed,
    per_graph: Sequence[Sequence[Bindings]],
    full_variables: List[Variable],
    anchor_graph: Graph,
) -> QueryResult:
    """Gather per-partition rows into one modifier-applied result.

    The parent half of :func:`federated_query`: set-union of the shipped
    rows (:func:`federated_variant` says which),
    OPTIONAL subsumption compensation, then one global
    :class:`Projection` (projection, DISTINCT, ORDER BY, LIMIT, OFFSET)
    evaluated against ``anchor_graph`` — which supplies only term
    comparison context, never solutions.
    """
    merged = _merge_solution_sets(per_graph)
    if parsed.optional_patterns:
        merged = _drop_subsumed_solutions(merged)
    # apply the solution modifiers through the single-graph Projection
    # operator itself, so federated modifier semantics can never drift
    # from the oracle's
    projection = Projection(
        _Gathered(merged, full_variables),
        variables=[Variable(name) for name in parsed.variables] or None,
        distinct=parsed.distinct,
        order_by=Variable(parsed.order_by) if parsed.order_by else None,
        descending=parsed.descending,
        limit=parsed.limit,
        offset=parsed.offset,
    )
    return QueryResult(
        "SELECT", list(projection.solutions(anchor_graph)), projection.variables()
    )


def federate(
    text: str,
    anchor_graph: Graph,
    partitions: Sequence,
    ask: Callable[[object], bool],
    gather: Callable[[], Sequence[Tuple[List[Variable], List[Bindings]]]],
    missing: Callable[[], Tuple[int, ...]] = tuple,
) -> QueryResult:
    """Answer ``text`` from partitions reached through two callables.

    The one scatter-gather every layout runs: ``ask(partition)`` is one
    partition's ASK answer — probed sequentially, so a hit short-circuits
    the rest — and ``gather()`` is every partition's
    :func:`federated_partition_solutions`, merged by
    :func:`merge_federated_solutions`.  How a partition is reached (a
    graph in hand, a :class:`~repro.core.shard.Shard` called directly, a
    worker process behind a pipe) is the caller's business.  ``missing()``
    names the partitions that sat the query out; a result that lacks any
    is stamped ``degraded``.  ``anchor_graph`` supplies the parse cache and
    term-comparison context, never solutions.
    """
    parsed = planner_for(anchor_graph)._parse(text)
    if parsed.form == "ASK":
        hit = any(ask(partition) for partition in partitions)
        result = QueryResult("ASK", [EMPTY_BINDINGS] if hit else [], [])
    else:
        # every partition evaluates the query's federated_variant — full
        # solution mappings (or, for a DISTINCT without OPTIONAL, its
        # distinct projections), never an ORDER/LIMIT/OFFSET — so set union
        # is *exactly* the oracle's semantics (see _merge_solution_sets).
        # The rewritten plan and its unbounded result set are cached per
        # shard under the marker key, preserving the untouched-partition
        # cache hits that make federated serving cheap.  Projection (with
        # oracle row multiplicities), DISTINCT, ordering and cutoffs are
        # then applied once, globally.
        gathered = gather()
        result = merge_federated_solutions(
            parsed,
            [solutions for _variables, solutions in gathered],
            gathered[-1][0],
            anchor_graph,
        )
    absent = tuple(missing())
    if absent:
        result.degraded = True
        result.missing_shards = absent
    return result


def federated_query(graphs: Sequence[Graph], text: str) -> QueryResult:
    """Scatter ``text`` across partition graphs and gather one result.

    The federation contract is **per-partition derivation**: the query is
    evaluated independently on every partition (each through its own
    shared :class:`QueryPlanner`, so untouched partitions answer from
    their version-keyed result caches), so every gathered solution is
    derived entirely from one partition's triples; joins across
    *different* partitions' instance data are out of contract
    (area-partitioned deployments co-locate an area's data precisely so
    the joins that matter stay partition-local).

    Within that contract the gathered result matches the single-graph
    oracle **as a bag**: partitions evaluate the query's
    :func:`federated_variant` — ``SELECT *`` without modifiers, except
    that a ``SELECT DISTINCT`` without OPTIONAL keeps its projection and
    DISTINCT and ships distinct projected rows — the shipped rows are
    set-unioned (exact for full mappings — identical cross-partition ones
    can only stand on replicated axioms — and for rows the query itself
    asked to be distinct), OPTIONAL pass-through rows that another
    partition extends are dropped (:func:`_drop_subsumed_solutions`), and
    projection (preserving row multiplicities), DISTINCT, ORDER BY (the
    single-graph projection's own sort key), LIMIT and OFFSET are applied
    once, globally, after the merge.  ASK short-circuits on the first
    partition with a match.  One graph is not a federation: its planner
    answers directly, with no merge step — the oracle the rest is tested
    against.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("federated_query needs at least one graph")
    if len(graphs) == 1:
        graph = graphs[0]
        return planner_for(graph).query(graph, text)
    return federate(
        text,
        graphs[0],
        graphs,
        ask=lambda graph: planner_for(graph).query(graph, text).ask,
        gather=lambda: [federated_partition_solutions(graph, text) for graph in graphs],
    )
