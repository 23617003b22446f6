"""The compiled id-space join kernel.

Every id-space basic-graph-pattern join in the middleware — the planner's
``PlannedBGP``, ``BGP(use_ids=True)``, the standing views' delta joins and
the rule engine's semi-naive firing — runs through the code this module
generates.  A join is described once, as a **shape**: the pattern order is
already fixed by the caller, so for every step it is known at compile time
which positions hold a constant, a variable bound earlier (by the initial
bindings or an earlier step), a variable this step binds, or a variable
repeated inside the pattern — and therefore which permutation index
(SPO / POS / OSP) the step walks and how.  :func:`compile_kernel` turns a
shape into the source of one generator function of plain nested ``for``
loops over the graph's integer indexes:

* no recursion, no ``yield from`` chain and no per-candidate dictionary:
  variables are local slots ``v0, v1, ...`` of the generated function;
* candidates are enumerated exactly as
  :meth:`~repro.semantics.rdf.graph.Graph.triples_ids` would for the same
  resolved pattern, so solution order is that of the recursive join it
  replaced;
* pushed-down filters are single-term tests applied the moment their
  variable's slot is filled; a test that raises drops the candidate
  (:data:`FILTER_ERRORS`, the contract of ``algebra.apply_filter``);
* it is a generator: a consumer that stops after the first row (ASK) stops
  the loops.

A shape holds no term, id or graph — constants are ``consts[k]``, seeds
are ``seed[k]``, tests are ``tests[k]`` — so one compiled function serves
every graph, every re-plan and every seed that shares the structure.
:class:`PreparedJoin` is a shape bound to its constants' terms and its
variables' slots; it resolves the constants against a graph's dictionary
once (ids are append-only) and fetches the compiled function from that
graph's planner (:meth:`QueryPlanner.kernel`, which counts compiles).
Rows stay tuples of ids (:meth:`PreparedJoin.rows`) until
:meth:`PreparedJoin.solutions` decodes the ones that leave.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.term import Term, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.sparql.bindings import Bindings, bindings_from_mapping

#: What a pushed-down filter may raise to drop its candidate.
FILTER_ERRORS = (TypeError, ValueError, KeyError)

#: A term-level filter test (``None`` never reaches it inside a kernel).
TermTest = Callable[[Optional[Term]], bool]

#: One pattern position: ``("c", k)`` constant ``consts[k]``, ``("b", n)``
#: slot ``n`` bound before this step, ``("n", n)`` slot ``n`` bound here,
#: ``("r", n)`` a second occurrence of a slot this same pattern binds.
Position = Tuple[str, int]
#: ``(subject, predicate, object, ((slot, test index), ...))``
Step = Tuple[Position, Position, Position, Tuple[Tuple[int, int], ...]]
#: ``(number of seed slots, steps, slots yielded)``
Shape = Tuple[int, Tuple[Step, ...], Tuple[int, ...]]

Kernel = Callable[..., Iterator[Tuple[int, ...]]]

# CPython refuses more than 20 statically nested blocks; a longer join is
# compiled in consecutive chunks, each seeded by the rows of the one before
_MAX_NESTED_LOOPS = 18


def _loops(step: Step) -> int:
    """How many ``for`` loops a step opens: one per position it enumerates."""
    return sum(1 for kind, _ in step[:3] if kind in "nr")


class _Source:
    """Lines of one generated function, indented by loop depth."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * (self.depth + 1) + text)

    def loop(self, header: str) -> None:
        self.emit(header)
        self.depth += 1

    @property
    def skip(self) -> str:
        """Abandon the current candidate: the next one, or nothing left."""
        return "continue" if self.depth else "return"


def _emit_step(src: _Source, index: int, step: Step) -> None:
    names = []
    for position, (kind, ref) in enumerate(step[:3]):
        if kind == "c":
            names.append(f"c{ref}")
        elif kind == "r":
            names.append(f"r{index}_{position}")
        else:
            names.append(f"v{ref}")
    s, p, o = names
    s_known, p_known, o_known = (kind in "cb" for kind, _ in step[:3])
    inner, bucket = f"i{index}", f"b{index}"
    each = f"(({bucket},) if {bucket}.__class__ is int else {bucket})"
    misses = f"({bucket} != {o}) if {bucket}.__class__ is int else ({o} not in {bucket})"
    # the same case analysis, in the same order, as Graph.triples_ids
    if s_known:
        src.emit(f"{inner} = spo.get({s})")
        src.emit(f"if {inner} is None: {src.skip}")
        if p_known:
            src.emit(f"{bucket} = {inner}.get({p})")
            src.emit(f"if {bucket} is None: {src.skip}")
            if o_known:
                src.emit(f"if {misses}: {src.skip}")
            else:
                src.loop(f"for {o} in {each}:")
        else:
            src.loop(f"for {p}, {bucket} in {inner}.items():")
            if o_known:
                src.emit(f"if {misses}: {src.skip}")
            else:
                src.loop(f"for {o} in {each}:")
    elif p_known:
        src.emit(f"{inner} = pos.get({p})")
        src.emit(f"if {inner} is None: {src.skip}")
        if o_known:
            src.emit(f"{bucket} = {inner}.get({o})")
            src.emit(f"if {bucket} is None: {src.skip}")
        else:
            src.loop(f"for {o}, {bucket} in {inner}.items():")
        src.loop(f"for {s} in {each}:")
    elif o_known:
        src.emit(f"{inner} = osp.get({o})")
        src.emit(f"if {inner} is None: {src.skip}")
        src.loop(f"for {s}, {bucket} in {inner}.items():")
        src.loop(f"for {p} in {each}:")
    else:
        src.loop(f"for {s}, {inner} in spo.items():")
        src.loop(f"for {p}, {bucket} in {inner}.items():")
        src.loop(f"for {o} in {each}:")
    for position, (kind, ref) in enumerate(step[:3]):
        if kind == "r":
            src.emit(f"if {names[position]} != v{ref}: {src.skip}")
    for slot, test in step[3]:
        src.emit("try:")
        src.emit(f"    ok = t{test}(terms[v{slot}])")
        src.emit("except FILTER_ERRORS:")
        src.emit("    ok = False")
        src.emit(f"if not ok: {src.skip}")


def _compile_chunk(
    n_seed: int, steps: Sequence[Step], first_index: int, out: Sequence[int]
) -> Kernel:
    src = _Source()
    if n_seed:
        src.emit("".join(f"v{slot}, " for slot in range(n_seed)) + "= seed")
    consts = sorted({ref for step in steps for kind, ref in step[:3] if kind == "c"})
    for ref in consts:
        src.emit(f"c{ref} = consts[{ref}]")
    for test in sorted({test for step in steps for _, test in step[3]}):
        src.emit(f"t{test} = tests[{test}]")
    for offset, step in enumerate(steps):
        _emit_step(src, first_index + offset, step)
    src.emit("yield (" + "".join(f"v{slot}, " for slot in out) + ")")
    source = "def kernel(spo, pos, osp, consts, seed, tests, terms):\n" + "\n".join(src.lines)
    namespace: Dict[str, object] = {"FILTER_ERRORS": FILTER_ERRORS}
    # the source is assembled from integers of the shape alone — no query
    # text, term or identifier from outside ever reaches it
    exec(compile(source, "<join kernel>", "exec"), namespace)
    return namespace["kernel"]  # type: ignore[return-value]


def _chain(first: Kernel, rest: Kernel) -> Kernel:
    def kernel(spo, pos, osp, consts, seed, tests, terms):
        for row in first(spo, pos, osp, consts, seed, tests, terms):
            yield from rest(spo, pos, osp, consts, row, tests, terms)

    return kernel


def compile_kernel(shape: Shape) -> Kernel:
    """Generate the nested-loop generator function for ``shape``.

    The result is called as ``kernel(spo, pos, osp, consts, seed, tests,
    terms)`` — the graph's three indexes, the constants' ids, the seed
    slots' ids, the filter tests and the id -> term table the tests read —
    and yields one id tuple per solution, in the shape's ``out`` order.
    """
    n_seed, steps, out = shape
    cuts = [0]  # first step of every chunk
    depth = 0
    for index, step in enumerate(steps):
        if depth and depth + _loops(step) > _MAX_NESTED_LOOPS:
            cuts.append(index)
            depth = 0
        depth += _loops(step)
    parts: List[Kernel] = []
    bound = n_seed
    for first, end in zip(cuts, cuts[1:] + [len(steps)]):
        chunk = steps[first:end]
        bound_after = bound + sum(
            1 for step in chunk for kind, _ in step[:3] if kind == "n"
        )
        # a chunk that is not the last hands every slot bound so far on
        yielded = out if end == len(steps) else range(bound_after)
        parts.append(_compile_chunk(bound, chunk, first, yielded))
        bound = bound_after
    return reduce(_chain, parts)


class PreparedJoin:
    """One join order under one tuple of initially bound variables.

    Built once per operator and bound-variable tuple
    (``algebra.IdJoin`` keeps them), then reused for every seed: what is
    left per call is one dictionary lookup per seed variable, the kernel
    itself and the decode of the rows that leave.

    Parameters
    ----------
    patterns:
        The triple patterns in join order.
    step_filters:
        Per pattern, the ``(variable, test)`` pairs to apply once that
        step has run (the variable must be bound by then), or ``None``.
    bound:
        The variables the initial bindings carry, in their order.  Those
        the patterns mention become the seed slots; the rest pass through
        to every solution untouched.
    project:
        ``None`` yields full solutions.  A variable list yields the
        **distinct** projections onto it, de-duplicated on id tuples
        before anything is decoded.
    """

    __slots__ = (
        "shape", "const_terms", "tests", "seed_vars", "out_vars",
        "passthrough_vars", "distinct", "_dictionary", "_consts", "_run", "_unbound",
    )

    def __init__(
        self,
        patterns: Sequence[Triple],
        step_filters: Optional[Sequence[Sequence[Tuple[Variable, TermTest]]]],
        bound: Sequence[Variable],
        project: Optional[Sequence[Variable]] = None,
    ):
        pattern_vars = {var for pattern in patterns for var in pattern.variables()}
        slots: Dict[Variable, int] = {}
        for var in bound:
            if var in pattern_vars:
                slots[var] = len(slots)
        n_seed = len(slots)
        const_index: Dict[Term, int] = {}
        tests: List[TermTest] = []
        steps: List[Step] = []
        for index, pattern in enumerate(patterns):
            bound_here: List[Variable] = []
            positions: List[Position] = []
            for term in pattern:
                if not isinstance(term, Variable):
                    positions.append(("c", const_index.setdefault(term, len(const_index))))
                elif term in bound_here:
                    positions.append(("r", slots[term]))
                elif term in slots:
                    positions.append(("b", slots[term]))
                else:
                    slots[term] = len(slots)
                    bound_here.append(term)
                    positions.append(("n", slots[term]))
            filters = []
            for var, test in (step_filters[index] if step_filters else ()):
                filters.append((slots[var], len(tests)))
                tests.append(test)
            steps.append((positions[0], positions[1], positions[2], tuple(filters)))
        kept = [
            var for var in slots if project is None or var in project
        ]
        self.shape: Shape = (n_seed, tuple(steps), tuple(slots[var] for var in kept))
        self.const_terms = tuple(const_index)
        self.tests = tuple(tests)
        self.seed_vars = tuple(slots)[:n_seed]
        self.out_vars = tuple(kept)
        self.passthrough_vars = tuple(
            var for var in bound
            if var not in pattern_vars and (project is None or var in project)
        )
        self.distinct = project is not None
        self._dictionary = None
        self._consts: Tuple[int, ...] = ()
        self._run: Optional[Kernel] = None
        # (dictionary, its length) at the last failed bind
        self._unbound: Tuple[object, int] = (None, 0)

    def _bind(self, graph: Graph) -> bool:
        """Resolve the constants in ``graph``'s dictionary (never interning).

        ``False`` while any constant is unknown there: no stored triple
        can match.  The dictionary is append-only, so a failed bind is
        remembered by its length and only retried once it has grown.
        """
        from repro.semantics.sparql.planner import planner_for

        dictionary = graph.dictionary
        if self._unbound == (dictionary, len(dictionary)):
            return False
        lookup = dictionary.lookup
        consts = []
        for term in self.const_terms:
            term_id = lookup(term)
            if term_id is None:
                self._unbound = (dictionary, len(dictionary))
                return False
            consts.append(term_id)
        self._consts = tuple(consts)
        self._run = planner_for(graph).kernel(self.shape)
        self._dictionary = dictionary
        return True

    def rows(self, graph: Graph, seed: Sequence[int]) -> Iterator[Tuple[int, ...]]:
        """The id rows over :attr:`out_vars` extending ``seed``, lazily.

        ``seed`` holds the ids of :attr:`seed_vars`, in that order; the
        pass-through variables are the caller's to carry.  The id-space
        entry: the rule engine's semi-naive firing consumes these rows
        without decoding a single term.
        """
        dictionary = graph.dictionary
        if dictionary is not self._dictionary and not self._bind(graph):
            return iter(())
        rows = self._run(
            *graph.indexes(), self._consts, seed, self.tests, dictionary.terms
        )
        return _unique(rows) if self.distinct else rows

    def solutions(self, graph: Graph, bindings: Bindings) -> Iterator[Bindings]:
        """The solutions extending ``bindings``, lazily.

        :meth:`rows` decoded: the only place in a join where ids become
        terms.
        """
        lookup = graph.dictionary.lookup
        seed = []
        for var in self.seed_vars:
            # a seed term the dictionary has never seen matches nothing
            term_id = lookup(bindings[var])
            if term_id is None:
                return
            seed.append(term_id)
        rows = self.rows(graph, seed)
        decode = graph.dictionary.terms.__getitem__
        out_vars = self.out_vars
        passthrough = [(var, bindings[var]) for var in self.passthrough_vars]
        for row in rows:
            mapping = dict(zip(out_vars, map(decode, row)))
            if passthrough:
                mapping.update(passthrough)
            yield bindings_from_mapping(mapping)


def _unique(rows: Iterator[Tuple[int, ...]]) -> Iterator[Tuple[int, ...]]:
    seen = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row
