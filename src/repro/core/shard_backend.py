"""The two transports that execute the ontology segment layer's shards.

The layer partitions its annotation state by area (see
:mod:`repro.core.shard_router`) into :class:`~repro.core.shard.Shard`
objects — one for an unsharded layer, N for a sharded one.  *Where* those
shards execute is one declarative choice:

``inline``
    :class:`InlineShardBackend` holds the shards in this interpreter and
    calls them directly; a batch that spans partitions fans out over a
    thread pool, a one-shard store runs without one.  Its graphs and
    reasoners are live objects (``layer.graphs`` / ``layer.reasoners``).

``process``
    :class:`repro.core.shard_worker.ProcessShardBackend` forks one worker
    process per shard and calls the same :class:`~repro.core.shard.Shard`
    methods through a pipe, so ingest and reasoning scale across cores
    instead of serialising on the GIL; the supervisor (deadlines, restarts,
    circuit breaker, quarantine) wraps that transport.

Both expose the surface documented on :class:`ShardBackend`, so neither
the layer nor the pipeline stages know which one they are talking to.

The default is ``inline``; the ``REPRO_SHARD_BACKEND`` environment
variable (or the explicit ``shard_backend`` configuration knob, which
wins) selects the other.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.annotation import next_annotation_index
from repro.core.faults import ShardUnavailableError  # noqa: F401 - re-export
from repro.core.services import ServiceRegistry
from repro.core.shard import Shard
from repro.semantics.rdf.sharding import ShardedGraphStore
from repro.semantics.sparql.planner import PlannerStatistics, federated_query

#: Environment variable selecting the default shard backend.
SHARD_BACKEND_ENV = "REPRO_SHARD_BACKEND"

_BACKENDS = ("inline", "process")


def resolve_shard_backend(explicit: Optional[str] = None) -> str:
    """The effective backend name: explicit arg > environment > ``inline``."""
    backend = explicit
    if backend is None:
        backend = os.environ.get(SHARD_BACKEND_ENV) or "inline"
    backend = backend.strip().lower()
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown shard backend {backend!r}; expected one of {list(_BACKENDS)}"
        )
    return backend


class ShardBackend:
    """What the layer and the pipeline stages call on either transport.

    Attributes: ``num_shards``, ``router``, ``counter`` (the shared
    arrival-order annotation index allocator), ``store`` (a
    :class:`~repro.semantics.rdf.sharding.ShardedGraphStore`-shaped view
    of the partitions), ``services``, ``reasoners``, ``quarantined``.

    Transport-specific methods: ``ingest(groups) -> grown`` (``shard ->
    [(observation, index)]``), ``reason(shards)``, ``query(text, entail)``,
    ``materialize_inferences(full)``, ``versions()``,
    ``register_standing`` / ``standing_views`` / ``refresh_views``,
    ``attach_persistence`` / ``commit`` / ``checkpoint_all`` / ``close``,
    ``shard_stats()`` (every shard's :meth:`Shard.stats
    <repro.core.shard.Shard.stats>`), ``health()`` and ``_load(shard)``.
    The aggregations below are written once over those.
    """

    num_shards = 0
    #: thread pool for in-process fan-out, where the transport has one
    executor = None
    #: poison batches written to the dead-letter journal this session
    quarantined = 0

    def planner_statistics(self) -> PlannerStatistics:
        """Planner / cache counters summed across the shards."""
        totals = PlannerStatistics()
        for info in self.shard_stats():
            totals += PlannerStatistics(**info["planner"])
        return totals

    def shard_statistics(self) -> List[dict]:
        """Per-shard size, load, durable depth and supervision state."""
        # stats first: asking a dead worker is what restarts it, and the
        # supervision state read afterwards should say so
        stats = self.shard_stats()
        rows = []
        for entry, info in zip(self.health()["shards"], stats):
            queue_depth, last_batch_latency = self._load(entry["shard"])
            rows.append(
                {
                    "shard": entry["shard"],
                    "triples": info["triples"],
                    "queue_depth": queue_depth,
                    "last_batch_latency": last_batch_latency,
                    "pid": entry["pid"],
                    "restarts": entry["restarts"],
                    "wal_records": info["wal_records"],
                    "generation": info["generation"],
                    "state": entry["state"],
                    "breaker": entry["breaker"],
                    "trips": entry["trips"],
                    "pending_batches": entry["pending_batches"],
                }
            )
        return rows


class InlineShardBackend(ShardBackend):
    """N shards in this interpreter, called directly.

    A one-shard store *adopts* the library graph — ontology axioms, IK
    catalogue, service descriptions and annotations share one graph, and
    queries go straight through its planner with no merge step, which is
    what makes it the oracle the federated layouts are compared against.
    With more shards the library graph stays the pristine axiom base,
    replicated into every partition.
    """

    def __init__(
        self,
        library,
        knowledge_base,
        shards: int,
        shard_workers: Optional[int] = None,
        persistence=None,
    ):
        self.num_shards = shards
        self.persistence = persistence
        self.recovered = persistence is not None and persistence.recoverable
        if self.recovered:
            # the recovered partitions already hold the replicated axioms
            # (they were in each shard's gen-0 snapshot)
            graphs = persistence.recover_all(expected_shards=shards, backend="inline")
            self.store = ShardedGraphStore(shards, graphs=graphs)
        elif shards == 1:
            self.store = ShardedGraphStore(1, graphs=[library.graph])
        else:
            self.store = ShardedGraphStore(shards, base_graph=library.graph)
        self.router = self.store.router
        # idempotent on recovery: the indicators use deterministic IRIs,
        # so re-materialising adds (and therefore journals) nothing new
        self.store.replicate_with(knowledge_base.materialize)
        if shard_workers is None:
            shard_workers = min(shards, 8)
        self.executor = (
            ThreadPoolExecutor(
                max_workers=shard_workers, thread_name_prefix="shard-worker"
            )
            if shard_workers > 0 and shards > 1
            else None
        )
        self.counter = itertools.count(
            next_annotation_index(self.store.graphs) if self.recovered else 1
        )
        self.shards = [Shard(graph, knowledge_base) for graph in self.store.graphs]
        self.reasoners = [shard.reasoner for shard in self.shards]
        self.services = ServiceRegistry(self.store.graphs)
        #: Wall-clock seconds each shard spent on its last ingest group.
        self.last_batch_latency: Dict[int, float] = {}

    def _fan_out(self, call, items: list) -> list:
        """``call(*item)`` per item — on the pool when several shards work."""
        if self.executor is not None and len(items) > 1:
            futures = [self.executor.submit(call, *item) for item in items]
            return [future.result() for future in futures]
        return [call(*item) for item in items]

    # -------------------------------------------------------------- #
    # ingest, reasoning, querying
    # -------------------------------------------------------------- #

    def _ingest_shard(self, shard: int, pairs) -> int:
        started = time.perf_counter()
        grown = self.shards[shard].ingest(pairs)
        self.last_batch_latency[shard] = time.perf_counter() - started
        return grown

    def ingest(self, groups: Dict[int, List[Tuple]]) -> int:
        return sum(self._fan_out(self._ingest_shard, list(groups.items())))

    def reason(self, shards: Iterable[int]) -> None:
        self._fan_out(Shard.reason, [(self.shards[shard],) for shard in shards])

    def query(self, text: str, entail: bool = False):
        if entail:
            for shard in self.shards:
                shard.reason()
        return federated_query(self.store.graphs, text)

    def materialize_inferences(self, full: bool = False):
        return [shard.materialize(full=full) for shard in self.shards]

    def versions(self) -> List[int]:
        return self.store.versions()

    # -------------------------------------------------------------- #
    # standing views
    # -------------------------------------------------------------- #

    def register_standing(self, text: str, name: Optional[str] = None):
        federated = self.num_shards > 1
        return [
            shard.register_view(text, name=name, federated=federated)
            for shard in self.shards
        ]

    def standing_views(self) -> List:
        return [view for shard in self.shards for view in shard.views.values()]

    def refresh_views(self) -> None:
        for shard in self.shards:
            shard.refresh_views()

    # -------------------------------------------------------------- #
    # observability
    # -------------------------------------------------------------- #

    def shard_stats(self) -> List[dict]:
        return [shard.stats() for shard in self.shards]

    def _load(self, shard: int) -> Tuple[int, float]:
        return 0, self.last_batch_latency.get(shard, 0.0)

    def health(self) -> dict:
        """Same shape as the process backend's; in-process shards cannot fail
        independently of this interpreter, so everything reports up (and a
        one-shard store labels itself ``single``)."""
        pid = os.getpid()
        return {
            "backend": "inline" if self.num_shards > 1 else "single",
            "shards": [
                {
                    "shard": index,
                    "state": "up",
                    "breaker": "closed",
                    "restarts": 0,
                    "trips": 0,
                    "pending_batches": 0,
                    "pid": pid,
                    "last_error": None,
                }
                for index in range(self.num_shards)
            ],
            "degraded_reads": False,
            "rpc_timeout": None,
            "quarantined_batches": 0,
        }

    # -------------------------------------------------------------- #
    # durability and lifecycle
    # -------------------------------------------------------------- #

    def attach_persistence(self) -> None:
        """Start journalling a fresh store; give each shard its segment.

        Called once the base content (axioms, IK catalogue, service
        descriptions) is in, so it all lands in each shard's generation-0
        snapshot instead of bloating the WAL.
        """
        if self.persistence is None:
            return
        if not self.recovered:
            self.persistence.attach_all(self.store.graphs, backend="inline")
        for shard, segment in zip(self.shards, self.persistence.shards):
            shard.attach(segment)

    def commit(self) -> None:
        """The batch's durability point: one commit (fsync per policy) after
        the fan-out threads have joined, then roll any shard whose WAL
        outgrew the snapshot interval."""
        if self.persistence is not None:
            self.persistence.commit()
            self.persistence.maybe_checkpoint()

    def checkpoint_all(self) -> None:
        if self.persistence is not None:
            self.persistence.checkpoint_all()

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None

    def __repr__(self) -> str:
        return f"<InlineShardBackend shards={self.num_shards}>"


def make_shard_backend(
    kind: str,
    library,
    knowledge_base,
    statistics,
    shards: int,
    shard_workers: Optional[int] = None,
    persistence=None,
    policy=None,
    fault_plan=None,
    dead_letter=None,
) -> ShardBackend:
    """Build the configured backend (lazily importing the process one)."""
    if kind == "process":
        from repro.core.shard_worker import ProcessShardBackend

        return ProcessShardBackend(
            library,
            knowledge_base,
            statistics,
            shards,
            persistence=persistence,
            policy=policy,
            fault_plan=fault_plan,
            dead_letter=dead_letter,
        )
    return InlineShardBackend(
        library,
        knowledge_base,
        shards,
        shard_workers=shard_workers,
        persistence=persistence,
    )
