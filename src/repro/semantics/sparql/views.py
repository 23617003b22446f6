"""Materialized standing views with semi-naive delta maintenance.

A dashboard re-running the same SPARQL query every poll cycle gets nothing
from the planner's version-keyed result cache once ingest is continuous:
every write bumps :attr:`~repro.semantics.rdf.graph.Graph.version` and the
whole cached result dies, so steady-state serving cost is O(graph) per
poll.  A :class:`StandingView` keeps the query's *materialized* result
alive instead: it attaches a
:class:`~repro.semantics.rdf.graph.ChangeTracker` to the graph and, on
each refresh, folds the drained :class:`~repro.semantics.rdf.graph.GraphDelta`
into the stored solution set in O(|delta|) — the same semi-naive seeding
trick :meth:`~repro.semantics.rules.RuleEngine.run` plays for
rules, lifted into the planner's :class:`~repro.semantics.sparql.planner.PlannedBGP`
join machinery:

* every added triple is matched against each required pattern, and each
  match seeds a join of the *remaining* patterns (ordered by the cost
  model under the seed's bound variables), yielding exactly the solutions
  that stand on at least one delta triple;
* the query's FILTERs over required variables are applied to the delta
  rows (conjunctive application to complete rows is equivalent to the
  planner's per-step pushdown);
* OPTIONAL recomputation is confined to the delta-affected subset: a
  delta triple matching an OPTIONAL pattern seeds that block the same
  way, and only the bases whose shared-variable projection matches one of
  the delta extensions re-run their left-join chain;
* removals are journalled item-by-item (``GraphDelta.removed_ids``), so a
  removal that matches no view pattern is *ignored*; a relevant removal —
  or an un-itemised retraction (``clear``), a journal overflow, a prefix
  rebind, or an OPTIONAL shape outside the delta rules — falls back to a
  full re-materialization, decided per view per delta.

Internally the view stores the **full** (pre-projection) solution rows,
grouped per required-pattern solution ("base"), because the left-join
chain processes each base independently: the concatenation of per-base
row lists is bag-equal to the oracle's full solution multiset, and
projection / DISTINCT / ORDER BY / LIMIT / OFFSET run through the ordinary
:class:`~repro.semantics.sparql.algebra.Projection` on every serve, so
modifier semantics can never drift from the single-graph oracle.

Subscribers receive an itemised :class:`ViewDelta` (added / removed full
rows) on every refresh that changed the view — even a full refresh diffs
the old and new row multisets — which is what lets CEP windows follow a
standing query without ever re-polling it.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.semantics.rdf.graph import Graph, GraphDelta
from repro.semantics.rdf.term import Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.sparql.algebra import Projection, apply_filter
from repro.semantics.sparql.bindings import EMPTY_BINDINGS, Bindings
from repro.semantics.sparql.evaluator import QueryResult, _build_filter
from repro.semantics.sparql.parser import ParsedQuery, parse_query


class ViewDelta:
    """The itemised change a standing view observed in one refresh.

    ``added`` / ``removed`` hold **full** (pre-projection) solution rows;
    a row appearing n times changed multiplicity by n.  ``full_refresh``
    records that the view re-materialized from scratch to produce this
    delta (the rows are still itemised — subscribers never need to
    re-poll).
    """

    __slots__ = ("view", "added", "removed", "full_refresh")

    def __init__(
        self,
        view: "StandingView",
        added: List[Bindings],
        removed: List[Bindings],
        full_refresh: bool = False,
    ):
        self.view = view
        self.added = added
        self.removed = removed
        self.full_refresh = full_refresh

    def __bool__(self) -> bool:
        return bool(self.added) or bool(self.removed)

    def __repr__(self) -> str:
        return (
            f"ViewDelta(added={len(self.added)}, removed={len(self.removed)}, "
            f"full_refresh={self.full_refresh})"
        )


ViewListener = Callable[[ViewDelta], None]


class StandingView:
    """A continuously maintained materialized result for one query.

    Parameters
    ----------
    graph:
        The graph (or shard) the view watches.
    text:
        The query text — kept for introspection and registry keys.
    parsed:
        The parsed query to maintain; parsed from ``text`` when omitted.
        The federator registers a modifier-stripped variant here while
        keeping the original ``text`` as the label.
    name:
        Optional human-readable name (broker topics, dashboards).
    seed:
        Optional pre-materialized ``base -> full rows`` mapping (recovered
        from a snapshot's view-rows section).  When given, the initial
        materialization is skipped entirely — the caller asserts the seed
        matches the graph's current state.
    """

    def __init__(
        self,
        graph: Graph,
        text: str,
        parsed: Optional[ParsedQuery] = None,
        name: Optional[str] = None,
        seed: Optional[Dict[Bindings, List[Bindings]]] = None,
    ):
        self.graph = graph
        self.text = text
        self.name = name or text
        self.parsed = parsed if parsed is not None else parse_query(text)
        self.form = self.parsed.form
        self._lock = threading.RLock()
        self._tracker = graph.track_changes()
        self._listeners: List[ViewListener] = []
        #: Number of refreshes folded in as deltas (O(|delta|)).
        self.delta_updates = 0
        #: Number of refreshes that re-materialized from scratch.
        self.full_refreshes = 0
        # base (required-pattern solution) -> final full rows, in a dict so
        # commit order stays deterministic
        self._bases: Dict[Bindings, List[Bindings]] = {}
        self._cached: Optional[Tuple[List[Bindings], List[Variable]]] = None
        self._block_plans = None
        self._generation = -1
        #: True when the initial rows came from a snapshot seed rather
        #: than a from-scratch materialization.
        self.seeded = seed is not None
        self._rebind()
        if seed is not None:
            self._bases = dict(seed)
        else:
            self._materialize()

    # ------------------------------------------------------------------ #
    # resolution against the graph's namespaces
    # ------------------------------------------------------------------ #

    def _rebind(self) -> None:
        """(Re)resolve patterns and filters against the current prefixes."""
        from repro.semantics.sparql.planner import _resolve_patterns

        self._core: List[Triple] = _resolve_patterns(self.parsed.patterns, self.graph)
        self._optional: List[List[Triple]] = [
            _resolve_patterns(block, self.graph)
            for block in self.parsed.optional_patterns
        ]
        core_vars: Set[Variable] = set()
        for pattern in self._core:
            core_vars.update(pattern.variables())
        self._core_vars = core_vars
        self._core_filters: List[Callable[[Bindings], bool]] = []
        self._outer_filters: List[Callable[[Bindings], bool]] = []
        for flt in self.parsed.filters:
            var, predicate = _build_filter(flt, self.graph)
            # a filter over a required variable commutes with the left
            # joins (they never rebind required variables), so it can run
            # on bases before extension; anything else keeps the naive
            # placement above the left-join chain
            if var in core_vars and self._core:
                self._core_filters.append(predicate)
            else:
                self._outer_filters.append(predicate)
        # per OPTIONAL block: the variables it shares with the required
        # part, and whether the delta rules apply (the block must join the
        # left side through required variables only — sharing a variable
        # introduced by an *earlier* OPTIONAL, or nothing at all, sends the
        # view down the full-refresh path instead)
        self._shared: List[Set[Variable]] = []
        self._block_supported: List[bool] = []
        earlier_optional_vars: Set[Variable] = set()
        for block in self._optional:
            block_vars: Set[Variable] = set()
            for pattern in block:
                block_vars.update(pattern.variables())
            shared = block_vars & core_vars
            supported = bool(shared) and not (block_vars & earlier_optional_vars)
            self._shared.append(shared)
            self._block_supported.append(supported)
            earlier_optional_vars |= block_vars - core_vars
        # written-order full-solution variables, mirroring the LeftJoin
        # chain's variables()
        seen: List[Variable] = []
        for pattern in self._core:
            for var in pattern.variables():
                if var not in seen:
                    seen.append(var)
        for block in self._optional:
            for pattern in block:
                for var in pattern.variables():
                    if var not in seen:
                        seen.append(var)
        self._full_variables = seen
        self._generation = self.graph.namespaces.generation

    # ------------------------------------------------------------------ #
    # evaluation helpers
    # ------------------------------------------------------------------ #

    def _plan_rest(self, patterns: Sequence[Triple], bound: Sequence[Variable]):
        from repro.semantics.sparql.planner import plan_patterns

        return plan_patterns(self.graph, list(patterns), bound)

    def _planned_blocks(self):
        # planned once per refresh cycle (the join order only depends on
        # the cost model, never on correctness)
        if self._block_plans is None:
            self._block_plans = [self._plan_rest(block, ()) for block in self._optional]
        return self._block_plans

    def _extend(self, base: Bindings) -> List[Bindings]:
        """Run the left-join chain and outer filters for one base row."""
        rows = [base]
        for planned in self._planned_blocks():
            next_rows: List[Bindings] = []
            for row in rows:
                extended = list(planned.solutions_from(self.graph, row))
                if extended:
                    next_rows.extend(extended)
                else:
                    next_rows.append(row)
            rows = next_rows
        for predicate in self._outer_filters:
            rows = [row for row in rows if apply_filter(predicate, row)]
        return rows

    def _core_solutions_from_delta(self, added: Sequence[Triple]) -> List[Bindings]:
        """Required-pattern solutions standing on >= 1 delta triple."""
        found: List[Bindings] = []
        planned_rest: Dict[int, object] = {}
        for index, pattern in enumerate(self._core):
            rest = self._core[:index] + self._core[index + 1:]
            planned = None
            for triple in added:
                match = pattern.matches(triple)
                if match is None:
                    continue
                if planned is None:
                    planned = planned_rest.get(index)
                    if planned is None:
                        planned = self._plan_rest(rest, list(pattern.variables()))
                        planned_rest[index] = planned
                seed = Bindings(match)
                found.extend(planned.solutions_from(self.graph, seed))
        return found

    def _block_solutions_from_delta(
        self, block: Sequence[Triple], added: Sequence[Triple]
    ) -> List[Bindings]:
        """Full OPTIONAL-block solutions standing on >= 1 delta triple."""
        found: List[Bindings] = []
        for index, pattern in enumerate(block):
            rest = list(block[:index]) + list(block[index + 1:])
            planned = None
            for triple in added:
                match = pattern.matches(triple)
                if match is None:
                    continue
                if planned is None:
                    planned = self._plan_rest(rest, list(pattern.variables()))
                seed = Bindings(match)
                found.extend(planned.solutions_from(self.graph, seed))
        return found

    def _matches_any_pattern(self, triple: Triple) -> bool:
        for pattern in self._core:
            if pattern.matches(triple) is not None:
                return True
        for block in self._optional:
            for pattern in block:
                if pattern.matches(triple) is not None:
                    return True
        return False

    def _passes_core_filters(self, base: Bindings) -> bool:
        return all(apply_filter(p, base) for p in self._core_filters)

    # ------------------------------------------------------------------ #
    # materialization and maintenance
    # ------------------------------------------------------------------ #

    def _materialize(self) -> None:
        """Recompute bases and rows from scratch (current graph state)."""
        self._block_plans = None
        bases: Dict[Bindings, List[Bindings]] = {}
        if self._core:
            planned = self._plan_rest(self._core, ())
            candidates = planned.solutions(self.graph)
        else:
            candidates = iter([EMPTY_BINDINGS])
        for base in candidates:
            if base in bases or not self._passes_core_filters(base):
                continue
            bases[base] = self._extend(base)
        self._bases = bases
        self._cached = None

    def _apply_delta(self, delta: GraphDelta) -> ViewDelta:
        """Fold one drained delta into the materialized rows."""
        self._block_plans = None
        if self._generation != self.graph.namespaces.generation:
            # a prefix rebind changes what the CURIEs in the query resolve
            # to: re-resolve everything and start over
            self._rebind()
            return self._full_refresh_delta()
        if delta.overflowed or (delta.retracted and not delta.removals_itemised):
            return self._full_refresh_delta()
        if delta.retracted:
            for triple in delta.removed:
                if self._matches_any_pattern(triple):
                    return self._full_refresh_delta()
            # every removal is irrelevant to this view's patterns: the adds
            # can be folded in as if the removals never happened
        added = [t for t in delta.added if self._matches_any_pattern(t)]
        if not added:
            self.delta_updates += 1
            return ViewDelta(self, [], [])

        staged_new: Dict[Bindings, List[Bindings]] = {}
        staged_updates: Dict[Bindings, List[Bindings]] = {}

        # 1. new required-pattern solutions, semi-naively seeded
        for base in self._core_solutions_from_delta(added):
            if base in self._bases or base in staged_new:
                continue
            if not self._passes_core_filters(base):
                continue
            staged_new[base] = self._extend(base)

        # 2. OPTIONAL deltas: recompute only the affected bases
        for index, block in enumerate(self._optional):
            block_solutions = self._block_solutions_from_delta(block, added)
            if not block_solutions:
                continue
            if not self._block_supported[index]:
                return self._full_refresh_delta()
            shared = self._shared[index]
            keys = {solution.project(shared) for solution in block_solutions}
            for base in self._bases:
                if base in staged_updates:
                    continue
                if base.project(shared) in keys:
                    staged_updates[base] = self._extend(base)

        # 3. commit and diff
        added_rows: List[Bindings] = []
        removed_rows: List[Bindings] = []
        for base, rows in staged_updates.items():
            old = Counter(self._bases[base])
            new = Counter(rows)
            added_rows.extend((new - old).elements())
            removed_rows.extend((old - new).elements())
            self._bases[base] = rows
        for base, rows in staged_new.items():
            added_rows.extend(rows)
            self._bases[base] = rows
        self.delta_updates += 1
        if added_rows or removed_rows:
            self._cached = None
        return ViewDelta(self, added_rows, removed_rows)

    def _full_refresh_delta(self) -> ViewDelta:
        old = Counter(row for rows in self._bases.values() for row in rows)
        self._materialize()
        new = Counter(row for rows in self._bases.values() for row in rows)
        self.full_refreshes += 1
        return ViewDelta(
            self,
            list((new - old).elements()),
            list((old - new).elements()),
            full_refresh=True,
        )

    # ------------------------------------------------------------------ #
    # the serving API
    # ------------------------------------------------------------------ #

    def refresh(self) -> Optional[ViewDelta]:
        """Fold any pending graph mutations in; notify subscribers.

        Returns the :class:`ViewDelta` when the graph moved (possibly
        empty, if the mutations did not touch this view), or ``None`` when
        there was nothing to do.
        """
        with self._lock:
            if (
                not self._tracker.dirty
                and self._generation == self.graph.namespaces.generation
            ):
                return None
            delta = self._tracker.drain()
            try:
                view_delta = self._apply_delta(delta)
            except Exception:
                # leave the unconsumed mutations in front of the journal so
                # the next refresh retries instead of going silently stale
                self._tracker.requeue(delta)
                raise
        if view_delta or view_delta.full_refresh:
            for listener in list(self._listeners):
                listener(view_delta)
        return view_delta

    def rows(self) -> List[Bindings]:
        """The current full (pre-projection) solution rows."""
        with self._lock:
            self.refresh()
            return [row for rows in self._bases.values() for row in rows]

    def export_rows(self) -> Dict[Bindings, List[Bindings]]:
        """The refreshed ``base -> full rows`` mapping (snapshot payload).

        Persistence stores this alongside the graph image so a restart can
        seed a re-registered view without re-materializing it.
        """
        with self._lock:
            self.refresh()
            return {base: list(rows) for base, rows in self._bases.items()}

    def result(self) -> QueryResult:
        """The current query result, refreshed and with modifiers applied.

        Each call returns a fresh :class:`QueryResult` over copied lists,
        mirroring the planner's result-cache contract.
        """
        from repro.semantics.sparql.planner import _Gathered

        with self._lock:
            self.refresh()
            if self._cached is None:
                all_rows = [row for rows in self._bases.values() for row in rows]
                if self.form == "ASK":
                    self._cached = (all_rows[:1], [])
                else:
                    projection = Projection(
                        _Gathered(all_rows, list(self._full_variables)),
                        variables=[Variable(name) for name in self.parsed.variables]
                        or None,
                        distinct=self.parsed.distinct,
                        order_by=Variable(self.parsed.order_by)
                        if self.parsed.order_by
                        else None,
                        descending=self.parsed.descending,
                        limit=self.parsed.limit,
                        offset=self.parsed.offset,
                    )
                    self._cached = (
                        list(projection.solutions(self.graph)),
                        projection.variables(),
                    )
            solutions, variables = self._cached
            return QueryResult(self.form, list(solutions), list(variables))

    def subscribe(self, listener: ViewListener) -> None:
        """Register a callback receiving every refresh's :class:`ViewDelta`."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: ViewListener) -> None:
        """Remove a previously registered callback (idempotent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def stats(self) -> Dict[str, object]:
        """Maintenance counters for observability (and the benchmark)."""
        with self._lock:
            return {
                "name": self.name,
                "form": self.form,
                "bases": len(self._bases),
                "rows": sum(len(rows) for rows in self._bases.values()),
                "delta_updates": self.delta_updates,
                "full_refreshes": self.full_refreshes,
                "seeded": self.seeded,
            }

    def __repr__(self) -> str:
        return (
            f"<StandingView {self.name!r} bases={len(self._bases)} "
            f"delta_updates={self.delta_updates} full_refreshes={self.full_refreshes}>"
        )
