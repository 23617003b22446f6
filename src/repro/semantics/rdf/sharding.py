"""Per-area graph partitions.

One unified graph was the middleware's last global bottleneck: every
ingested annotation bumps the single :attr:`Graph.version`, invalidating
every cached query plan / result and staling the whole reasoner closure,
and every mutation contends on the same indexes.  A sharded layer keeps
**N partition graphs** instead — each with its *own*
:class:`~repro.semantics.rdf.dictionary.TermDictionary` (ids are
shard-local and never compared across shards), its own permutation indexes,
cardinality statistics, change trackers and, one level up, its own reasoner
and query planner caches — with the ontology axioms **replicated into every
partition** (:func:`build_partitions`) so each one is self-contained for
reasoning and querying.  Each partition is then held by exactly one
:class:`~repro.core.shard.Shard`, in this interpreter or in a worker
process; nothing else keeps a reference to it.

Placement is by *area* (district): a stable router
(:class:`~repro.core.shard_router.ShardRouter`) maps the record's area
to one partition, so all of a district's annotations are co-located and
cross-record work (same-area corroboration joins, per-district dashboards,
incremental closure top-ups) stays partition-local.  Writes to one district
leave the other partitions' versions — and therefore their plan / result
caches and materialised closures — untouched.

Queries go through a **scatter-gather federator**
(:func:`~repro.semantics.sparql.planner.federated_query`): the query is
broadcast to every partition, evaluated there through the partition's own
cost-based planner and caches, and the decoded *full* solution mappings
are set-unioned — exact at that level, since identical cross-partition
mappings can only stand on the replicated axioms — before projection and
solution modifiers apply globally, so in-contract results match the
single-graph oracle row for row including duplicate multiplicities (a
``SELECT DISTINCT`` without OPTIONAL ships its distinct projected rows
instead; the global DISTINCT makes that the same answer).  Each
gathered solution is derived entirely from one partition's triples —
axioms plus that area's annotations — so joins *across* different areas'
instance data must either be area-constrained or run against one graph
the caller ``add_from``-s the partitions into.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.term import IRI


def build_partitions(num_shards: int, base_graph: Graph) -> Tuple[List[Graph], int]:
    """``num_shards`` fresh partition graphs over one axiom base.

    Every partition gets its own term dictionary, a copy of the base
    graph's namespaces and the base graph's triples (the ontology axioms,
    typically already materialised); the base graph itself is not touched.
    Returns the partitions and the number of triples replicated into each.
    """
    base_name = (
        base_graph.identifier.value
        if base_graph.identifier is not None
        else "urn:sharded-store"
    )
    graphs = []
    for index in range(num_shards):
        graph = Graph(
            identifier=IRI(f"{base_name}/shard/{index}"),
            namespaces=base_graph.namespaces.copy(),
        )
        graph.add_from(base_graph)
        graphs.append(graph)
    return graphs, len(graphs[0])
