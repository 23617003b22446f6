"""The naive forward-chaining fixpoint, kept as a test oracle.

Each round joins every rule's whole body over the whole graph with a plain
:class:`BGP` — over dictionary ids, or over decoded term objects with
``use_ids=False`` — decodes each solution into ground head triples and
adds the new ones, until a round adds nothing.  :meth:`RuleEngine.run`
(semi-naive, in id space) must reach the same closure.
"""

from repro.semantics.reasoner import _rdfs_owl_rules
from repro.semantics.rules import InferenceTrace
from repro.semantics.sparql.algebra import BGP


def derive(rule, graph, use_ids=True):
    """All ground head triples of ``rule``'s solutions over ``graph``."""
    derived = set()
    for solution in BGP(list(rule.body), use_ids=use_ids).solutions(graph):
        if rule.guard is not None:
            try:
                if not rule.guard(solution):
                    continue
            except (TypeError, ValueError, KeyError):
                continue
        mapping = solution.as_dict()
        for pattern in rule.head:
            # a head that would place a bound literal in subject or
            # predicate position derives nothing from this solution
            triple = pattern.try_substitute(mapping)
            if triple is not None and triple.is_ground():
                derived.add(triple)
    return derived


def naive_run(rules, graph, use_ids=True, max_iterations=100):
    """Apply ``rules`` round by round until nothing new; adds in place."""
    trace = InferenceTrace()
    for iteration in range(max_iterations):
        added = 0
        for rule in rules:
            new = [t for t in derive(rule, graph, use_ids) if t not in graph]
            for triple in new:
                graph.add(triple)
            trace.record(rule.name, len(new))
            added += len(new)
        trace.iterations = iteration + 1
        if not added:
            break
    return trace


def reasoner_closure(graph, extra_rules=()):
    """Close ``graph`` under the reasoner's RDFS / OWL rules and ``extra_rules``."""
    return naive_run(_rdfs_owl_rules() + list(extra_rules), graph)
