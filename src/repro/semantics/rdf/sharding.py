"""Per-area graph partitions behind a stable shard router.

One unified graph was the middleware's last global bottleneck: every
ingested annotation bumps the single :attr:`Graph.version`, invalidating
every cached query plan / result and staling the whole reasoner closure,
and every mutation contends on the same indexes.  A
:class:`ShardedGraphStore` keeps **N partition graphs** instead — each with
its *own* :class:`~repro.semantics.rdf.dictionary.TermDictionary` (ids are
shard-local and never compared across shards), its own permutation indexes,
cardinality statistics, change trackers and, one level up, its own reasoner
and query planner caches — with the ontology axioms **replicated into every
shard** so each partition is self-contained for reasoning and querying.

Placement is by *area* (district): a stable router maps the record's area
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
instance data must either be area-constrained or run against
:meth:`ShardedGraphStore.union_graph`.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Union

from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.term import IRI
from repro.semantics.rdf.triple import Triple


def _default_router(num_shards: int):
    # imported lazily: repro.core.__init__ pulls in the whole middleware
    # stack, which itself imports this module
    from repro.core.shard_router import ShardRouter

    return ShardRouter(num_shards)


def register_shard_view(
    graph: Graph,
    text: str,
    name: Optional[str] = None,
    federated: bool = True,
    seed=None,
):
    """Register one partition's standing view for ``text`` on ``graph``.

    ``federated`` selects the cache key the federator will hit: SELECT
    views register the full-row
    :func:`~repro.semantics.sparql.planner.federated_variant` under the
    federated marker key, ASK views (and non-federated single-shard views)
    register under the plain text.  ``seed`` is a recovered ``base -> rows``
    mapping that skips the initial materialization.  This is the
    single-graph half of :meth:`ShardedGraphStore.register_standing`,
    split out so a process backend can run it inside a shard worker.
    """
    from repro.semantics.sparql.planner import (
        _FEDERATED_KEY_PREFIX,
        federated_variant,
        planner_for,
    )

    planner = planner_for(graph)
    if not federated:
        return planner.register_standing(graph, text, name=name, seed=seed)
    parsed = planner._parse(text)
    if parsed.form == "ASK":
        return planner.register_standing(graph, text, parsed=parsed, name=name, seed=seed)
    return planner.register_standing(
        graph,
        text,
        parsed=federated_variant(parsed, standing=True),
        cache_text=_FEDERATED_KEY_PREFIX + text,
        name=name,
        seed=seed,
    )


class ShardedGraphStore:
    """N per-area partition graphs behind a stable area -> shard router.

    Parameters
    ----------
    num_shards:
        Number of partitions (>= 1).
    base_graph:
        Optional graph whose triples (the ontology axioms, typically
        already materialised) are replicated into every partition at
        construction.  The base graph itself is never mutated or queried
        by the store.
    router:
        Custom router exposing ``shard_for(key) -> int`` and ``split``;
        defaults to the CRC-32 :class:`~repro.core.shard_router.ShardRouter`.
    graphs:
        Pre-built partition graphs (one per shard), used by crash recovery
        to adopt graphs restored from snapshots + WAL replay instead of
        building fresh ones.  Mutually exclusive with ``base_graph``: the
        recovered partitions already contain the replicated axioms.
    """

    def __init__(
        self,
        num_shards: int,
        base_graph: Optional[Graph] = None,
        router=None,
        graphs: Optional[List[Graph]] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.router = router if router is not None else _default_router(num_shards)
        if graphs is not None:
            if base_graph is not None:
                raise ValueError("pass base_graph or graphs, not both")
            if len(graphs) != num_shards:
                raise ValueError(
                    f"expected {num_shards} partition graph(s), got {len(graphs)}"
                )
            self.graphs = list(graphs)
            self.replicated_triples = 0
            return
        base_name = (
            base_graph.identifier.value
            if base_graph is not None and base_graph.identifier is not None
            else "urn:sharded-store"
        )
        self.graphs: List[Graph] = []
        for index in range(num_shards):
            namespaces = (
                base_graph.namespaces.copy() if base_graph is not None else None
            )
            shard = Graph(
                identifier=IRI(f"{base_name}/shard/{index}"), namespaces=namespaces
            )
            if base_graph is not None:
                shard.add_from(base_graph)
            self.graphs.append(shard)
        #: Triples per shard right after axiom replication (for statistics).
        self.replicated_triples = len(self.graphs[0]) if self.graphs else 0

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        return len(self.graphs)

    def shard_for(self, area: Optional[str]) -> int:
        """The partition index owning ``area``."""
        return self.router.shard_for(area)

    def graph_for(self, area: Optional[str]) -> Graph:
        """The partition graph owning ``area``."""
        return self.graphs[self.router.shard_for(area)]

    # ------------------------------------------------------------------ #
    # replicated writes (axioms, service catalogue, knowledge base)
    # ------------------------------------------------------------------ #

    def replicate(self, triples: Union[Graph, Iterable[Triple]]) -> int:
        """Add the same triples to *every* partition; returns insertions.

        Used for graph content that must be visible from any partition —
        ontology axioms, service descriptions, indicator definitions — so
        each shard stays self-contained for reasoning and querying.
        """
        added = 0
        if isinstance(triples, Graph):
            for shard in self.graphs:
                added += shard.add_from(triples)
        else:
            materialised = list(triples)
            for shard in self.graphs:
                added += shard.add_all(materialised)
        return added

    def replicate_with(self, writer: Callable[[Graph], object]) -> None:
        """Run a graph-writing callable against every partition."""
        for shard in self.graphs:
            writer(shard)

    # ------------------------------------------------------------------ #
    # federated querying
    # ------------------------------------------------------------------ #

    def query(self, text: str):
        """Scatter-gather the query across every partition.

        Each partition evaluates through its own shared cost-based planner,
        so untouched partitions answer straight from their version-keyed
        result caches; in-contract results match the single-graph oracle as
        a bag — see :func:`~repro.semantics.sparql.planner.federated_query`.
        """
        from repro.semantics.sparql.planner import federated_query

        return federated_query(self.graphs, text)

    def register_standing(self, text: str, name: Optional[str] = None) -> list:
        """Register ``text`` as a per-partition standing view on every shard.

        The federated serving path then maintains one materialized view per
        partition: a write to one district folds its delta into that
        district's view only, while every untouched partition answers from
        its unchanged materialization.  SELECT views are registered under
        the federator's full-row rewrite (and its marker cache key), so
        :meth:`query` picks them up without any change; ASK views
        are registered under the plain text the per-shard short-circuit
        uses.  Returns the per-shard views.
        """
        federated = len(self.graphs) > 1
        return [
            register_shard_view(shard, text, name=name, federated=federated)
            for shard in self.graphs
        ]

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def triple_count(self) -> int:
        """Total resident triples across partitions (axioms counted per shard)."""
        return sum(len(shard) for shard in self.graphs)

    def shard_sizes(self) -> List[int]:
        """Resident triples per partition."""
        return [len(shard) for shard in self.graphs]

    def versions(self) -> List[int]:
        """The per-partition mutation counters."""
        return [shard.version for shard in self.graphs]

    def union_graph(self) -> Graph:
        """A fresh single graph holding the union of every partition.

        The escape hatch for queries that must join instance data *across*
        areas (outside the scatter-gather contract).  Expensive — it
        re-encodes every partition into one new dictionary — so callers
        should hold on to the result rather than rebuild it per query.
        """
        union = Graph(namespaces=self.graphs[0].namespaces.copy())
        for shard in self.graphs:
            union.add_from(shard)
        return union

    def __len__(self) -> int:
        return self.triple_count()

    def __repr__(self) -> str:
        sizes = ", ".join(str(size) for size in self.shard_sizes())
        return f"<ShardedGraphStore shards={self.num_shards} triples=[{sizes}]>"
