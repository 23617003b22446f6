"""Query algebra operators.

Queries are evaluated as trees of algebra operators over a graph.  Each
operator exposes ``solutions(graph)`` returning an iterator of
:class:`~repro.semantics.sparql.bindings.Bindings`.  The design mirrors the
SPARQL algebra (BGP, Join, LeftJoin, Union, Filter, Projection, Slice) at
the scale the middleware needs.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.term import Literal, Term, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.sparql.bindings import (
    EMPTY_BINDINGS,
    Bindings,
    bindings_from_mapping,
)
from repro.semantics.sparql.kernel import FILTER_ERRORS, PreparedJoin, TermTest

FilterFunction = Callable[[Bindings], bool]


class Operator:
    """Base class for algebra operators."""

    def solutions(self, graph: Graph) -> Iterator[Bindings]:
        """Yield the solution mappings this operator produces over ``graph``."""
        raise NotImplementedError

    def variables(self) -> List[Variable]:
        """The variables this operator can bind (used by projection)."""
        return []


def apply_filter(predicate: FilterFunction, solution: Bindings) -> bool:
    """Evaluate a FILTER predicate; an erroring predicate drops the solution.

    The join kernel applies pushed-down filters under the same contract
    (:data:`~repro.semantics.sparql.kernel.FILTER_ERRORS`), so both
    placements have identical error semantics.
    """
    try:
        return bool(predicate(solution))
    except FILTER_ERRORS:
        return False


class TermFilter:
    """A single-variable FILTER: a term-level test lifted to solutions.

    Called with a solution mapping it behaves like any
    :data:`FilterFunction`; a join that has pushed it down to the step
    binding :attr:`variable` calls :attr:`test` on that one term instead,
    without building a mapping.  ``test`` receives ``None`` for an unbound
    variable.
    """

    __slots__ = ("variable", "test")

    def __init__(self, variable: Variable, test: TermTest):
        self.variable = variable
        self.test = test

    def __call__(self, bindings: Bindings) -> bool:
        return self.test(bindings.get(self.variable))


def term_test(variable: Variable, predicate: FilterFunction) -> TermTest:
    """The term-level form of a filter pushed down to ``variable``'s step."""
    if isinstance(predicate, TermFilter) and predicate.variable == variable:
        return predicate.test
    return lambda term: predicate(bindings_from_mapping({variable: term}))


#: A FILTER pushed into a join step: the variable it constrains (bound at
#: that step, by construction) plus the predicate itself.
StepFilter = Tuple[Variable, FilterFunction]


class IdJoin(Operator):
    """A conjunction of triple patterns joined in id space.

    The shared evaluation path of :class:`BGP` (``use_ids=True``) and the
    planner's ``PlannedBGP``: a subclass says in which order its patterns
    join under a given set of initially bound variables
    (:meth:`_join_order`), and every evaluation runs the compiled kernel
    of that order (:mod:`repro.semantics.sparql.kernel`).  The prepared
    join is kept per bound-variable tuple, so the seeded
    :meth:`solutions_from` calls of standing views and rules — thousands
    per ingest batch — pay one dictionary probe here, not a compile.
    """

    def __init__(
        self, patterns: Sequence[Triple], project: Optional[Sequence[Variable]] = None
    ):
        self.patterns = list(patterns)
        #: ``None`` for full solutions; a variable list for the *distinct*
        #: projections onto it, de-duplicated on ids before decode
        self.project = project
        self._prepared: Dict[Tuple[Variable, ...], PreparedJoin] = {}

    def _join_order(
        self, bound: Tuple[Variable, ...]
    ) -> Tuple[Sequence[Triple], Optional[Sequence[Sequence[StepFilter]]]]:
        """The patterns in join order, and each step's pushed-down filters."""
        raise NotImplementedError

    def solutions(self, graph: Graph) -> Iterator[Bindings]:
        return self.solutions_from(graph, EMPTY_BINDINGS)

    def solutions_from(self, graph: Graph, bindings: Bindings) -> Iterator[Bindings]:
        """Solutions extending an initial partial solution mapping.

        The entry point of semi-naive evaluation: a rule body atom (or a
        view pattern) is matched against a delta triple first and the
        resulting bindings seed the join of the remaining patterns.
        """
        if not self.patterns:
            return iter((bindings,))
        return self.prepared(tuple(bindings)).solutions(graph, bindings)

    def prepared(self, bound: Tuple[Variable, ...]) -> PreparedJoin:
        """The prepared join under initially bound variables ``bound``."""
        prepared = self._prepared.get(bound)
        if prepared is None:
            ordered, step_filters = self._join_order(bound)
            prepared = self._prepared[bound] = PreparedJoin(
                ordered,
                step_filters
                and [
                    [(var, term_test(var, predicate)) for var, predicate in filters]
                    for filters in step_filters
                ],
                bound,
                self.project,
            )
        return prepared


class BGP(IdJoin):
    """A basic graph pattern: a conjunction of triple patterns.

    Patterns are joined most-selective first by a positional heuristic
    (fewest unbound positions, respecting already-bound variables).  This
    is the naive baseline: the default query path instead compiles a
    :class:`~repro.semantics.sparql.planner.PlannedBGP`, whose join order
    is chosen once from the graph's cardinality statistics.

    By default (``use_ids=True``) the join runs over the graph's
    dictionary-encoded indexes through the compiled kernel
    (:class:`IdJoin`): which positions are unbound at each step depends
    only on *which* variables are bound, never on their values, so the
    greedy order is fixed once per bound-variable tuple.  ``use_ids=False``
    keeps the original decoded-object join — the equivalence oracle,
    mirroring the ``use_planner=False`` convention of the evaluator.
    """

    def __init__(self, patterns: Sequence[Triple], use_ids: bool = True):
        super().__init__(patterns)
        self.use_ids = use_ids

    def variables(self) -> List[Variable]:
        seen: List[Variable] = []
        for p in self.patterns:
            for v in p.variables():
                if v not in seen:
                    seen.append(v)
        return seen

    @staticmethod
    def _selectivity(pattern: Triple, bound: set) -> int:
        score = 0
        for term in pattern:
            if isinstance(term, Variable) and term not in bound:
                score += 1
        return score

    def _join_order(self, bound):
        remaining = list(self.patterns)
        bound_vars = set(bound)
        ordered: List[Triple] = []
        while remaining:
            # min() keeps the first of equally selective patterns
            best = min(remaining, key=lambda p: self._selectivity(p, bound_vars))
            remaining.remove(best)
            ordered.append(best)
            bound_vars.update(best.variables())
        return ordered, None

    def solutions_from(self, graph: Graph, bindings: Bindings) -> Iterator[Bindings]:
        if self.use_ids or not self.patterns:
            return super().solutions_from(graph, bindings)
        return self._match(graph, list(self.patterns), bindings)

    def _match(
        self, graph: Graph, remaining: List[Triple], bindings: Bindings
    ) -> Iterator[Bindings]:
        if not remaining:
            yield bindings
            return
        bound_vars = set(bindings)
        # pick the most selective remaining pattern
        best_idx = min(
            range(len(remaining)),
            key=lambda i: self._selectivity(remaining[i], bound_vars),
        )
        pattern = remaining[best_idx]
        rest = remaining[:best_idx] + remaining[best_idx + 1:]
        concrete = pattern.try_substitute(bindings.as_dict())
        if concrete is None:
            # a bound literal landed in subject/predicate position: this
            # conjunction branch can match nothing
            return
        for triple in graph.triples(tuple(concrete)):
            match = concrete.matches(triple)
            if match is None:
                continue
            extended = bindings.merge(Bindings(match))
            if extended is None:
                continue
            yield from self._match(graph, rest, extended)


class Join(Operator):
    """Inner join of two operators on their shared variables."""

    def __init__(self, left: Operator, right: Operator):
        self.left = left
        self.right = right

    def variables(self) -> List[Variable]:
        seen = list(self.left.variables())
        for v in self.right.variables():
            if v not in seen:
                seen.append(v)
        return seen

    def solutions(self, graph: Graph) -> Iterator[Bindings]:
        right_solutions = list(self.right.solutions(graph))
        for left in self.left.solutions(graph):
            for right in right_solutions:
                merged = left.merge(right)
                if merged is not None:
                    yield merged


class LeftJoin(Operator):
    """OPTIONAL: keep left solutions even when the right side has no match."""

    def __init__(self, left: Operator, right: Operator):
        self.left = left
        self.right = right

    def variables(self) -> List[Variable]:
        seen = list(self.left.variables())
        for v in self.right.variables():
            if v not in seen:
                seen.append(v)
        return seen

    def solutions(self, graph: Graph) -> Iterator[Bindings]:
        right_solutions = list(self.right.solutions(graph))
        for left in self.left.solutions(graph):
            matched = False
            for right in right_solutions:
                merged = left.merge(right)
                if merged is not None:
                    matched = True
                    yield merged
            if not matched:
                yield left


class Union(Operator):
    """UNION: concatenation of the solutions of both sides."""

    def __init__(self, left: Operator, right: Operator):
        self.left = left
        self.right = right

    def variables(self) -> List[Variable]:
        seen = list(self.left.variables())
        for v in self.right.variables():
            if v not in seen:
                seen.append(v)
        return seen

    def solutions(self, graph: Graph) -> Iterator[Bindings]:
        yield from self.left.solutions(graph)
        yield from self.right.solutions(graph)


class Filter(Operator):
    """FILTER: keep solutions satisfying a predicate over the bindings."""

    def __init__(self, child: Operator, predicate: FilterFunction):
        self.child = child
        self.predicate = predicate

    def variables(self) -> List[Variable]:
        return self.child.variables()

    def solutions(self, graph: Graph) -> Iterator[Bindings]:
        for solution in self.child.solutions(graph):
            if apply_filter(self.predicate, solution):
                yield solution


def solution_order_key(order_by: Variable):
    """The ORDER BY sort key for one solution mapping.

    Extracted from :class:`Projection` so any consumer sorting solutions
    (the scatter-gather federator runs its merged set through a
    ``Projection`` and therefore through this key) orders exactly like the
    single-graph oracle: unbound first, then numeric literals by value,
    then everything else by string form.
    """

    def sort_key(solution: Bindings):
        term = solution.get(order_by)
        if term is None:
            return (0, "")
        if isinstance(term, Literal) and term.is_numeric():
            return (1, term.to_python())
        return (2, str(term))

    return sort_key


class Projection(Operator):
    """SELECT projection with optional DISTINCT, ORDER BY and LIMIT/OFFSET."""

    def __init__(
        self,
        child: Operator,
        variables: Optional[Sequence[Variable]] = None,
        distinct: bool = False,
        order_by: Optional[Variable] = None,
        descending: bool = False,
        limit: Optional[int] = None,
        offset: int = 0,
    ):
        self.child = child
        self._variables = list(variables) if variables else None
        self.distinct = distinct
        self.order_by = order_by
        self.descending = descending
        self.limit = limit
        self.offset = offset

    def variables(self) -> List[Variable]:
        if self._variables is not None:
            return list(self._variables)
        return self.child.variables()

    def solutions(self, graph: Graph) -> Iterator[Bindings]:
        wanted = self.variables()
        results: Iterable[Bindings] = (
            s.project(wanted) for s in self.child.solutions(graph)
        )
        if self.distinct:
            seen = set()
            unique: List[Bindings] = []
            for s in results:
                if s not in seen:
                    seen.add(s)
                    unique.append(s)
            results = unique
        if self.order_by is not None:
            results = sorted(
                results,
                key=solution_order_key(self.order_by),
                reverse=self.descending,
            )
        results = list(results)
        if self.offset:
            results = results[self.offset:]
        if self.limit is not None:
            results = results[: self.limit]
        yield from results


def numeric_filter(var: Variable, op: str, value: float) -> TermFilter:
    """Build a FILTER predicate comparing a numeric variable to a constant.

    ``op`` is one of ``< <= > >= = !=``.
    """
    import operator

    ops = {
        "<": operator.lt,
        "<=": operator.le,
        ">": operator.gt,
        ">=": operator.ge,
        "=": operator.eq,
        "==": operator.eq,
        "!=": operator.ne,
    }
    if op not in ops:
        raise ValueError(f"unsupported comparison operator: {op!r}")
    compare = ops[op]

    def test(term: Optional[Term]) -> bool:
        if not isinstance(term, Literal):
            return False
        candidate = term.to_python()
        if not isinstance(candidate, (int, float)):
            return False
        return compare(candidate, value)

    return TermFilter(var, test)
