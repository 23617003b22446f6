"""The two transports that execute the ontology segment layer's shards.

The layer partitions its annotation state by area (see
:mod:`repro.core.shard_router`) into :class:`~repro.core.shard.Shard`
objects — one for an unsharded layer, N for a sharded one.  *Where* those
shards execute is one declarative choice:

``inline``
    :class:`InlineShardBackend` holds the shards in this interpreter and
    calls them directly, one after another.  Its graphs and reasoners are
    live objects (``layer.graphs`` / ``layer.reasoners``).

``process``
    :class:`repro.core.shard_worker.ProcessShardBackend` forks one worker
    process per shard and calls the same :class:`~repro.core.shard.Shard`
    methods through a pipe, so ingest and reasoning scale across cores
    instead of serialising on the GIL; the supervisor (deadlines, restarts,
    circuit breaker, quarantine) wraps that transport.  Parallelism is this
    transport's job: under the GIL an in-process thread pool bought
    nothing.

A transport is one primitive — :meth:`ShardBackend._run`, "run these
``Shard`` methods on these shards and hand back the results" — and every
shard operation is written once on :class:`ShardBackend` over it, so
neither the layer nor the pipeline stages know which one they are talking
to.  Durability is not a transport concern either: each shard opens its
own segment of the data dir and :meth:`Shard.run
<repro.core.shard.Shard.run>` commits it per write op, wherever the shard
executes; the backend only checks or records the directory's layout.

The default is ``inline``; the ``REPRO_SHARD_BACKEND`` environment
variable (or the explicit ``shard_backend`` configuration knob, which
wins) selects the other.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.annotation import next_annotation_index
from repro.core.faults import (
    FaultTolerancePolicy,
    ShardUnavailableError,  # noqa: F401 - re-export
    resolve_fault_plan,
)
from repro.core.services import ServiceRegistry
from repro.core.shard import Shard
from repro.core.shard_router import ShardRouter
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.sharding import build_partitions
from repro.semantics.rdf.term import Term
from repro.semantics.rdf.triple import Triple
from repro.semantics.rules import InferenceTrace
from repro.semantics.sparql.evaluator import QueryResult
from repro.semantics.sparql.planner import PlannerStatistics, federate, federated_query

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

    Attributes: ``kind`` (``"inline"`` / ``"process"``), ``num_shards``,
    ``library``, ``router``, ``counter`` (the shared arrival-order
    annotation index allocator), ``services``, ``reasoners``,
    ``recovered``, ``replicated_triples``, ``quarantined``.

    A transport builds its shards (fresh partitions come from
    :func:`~repro.semantics.rdf.sharding.build_partitions`, each then
    handed its segment of the data dir; a recovered store's shards are
    built from their segments alone) and supplies :meth:`_run` and what is
    genuinely its own: ``versions()``, ``register_standing`` /
    ``standing_views`` / ``refresh_views``, ``close``, ``health()`` and
    ``_load(shard)``.  Every shard operation below is written once over
    ``_run``.
    """

    kind = ""
    #: triples per partition right after axiom replication (0 when the
    #: partitions were adopted or recovered rather than built)
    replicated_triples = 0
    #: poison batches written to the dead-letter journal this session
    quarantined = 0

    def __init__(self, library, knowledge_base, shards: int, persistence=None):
        self.library = library
        self.knowledge_base = knowledge_base
        self.num_shards = shards
        self.router = ShardRouter(shards)
        self.persistence = persistence
        self.recovered = persistence is not None and persistence.recoverable
        if self.recovered:
            persistence.validate_meta(expected_shards=shards, backend=self.kind)
        self.services = ServiceRegistry(replicate=self.replicate, retract=self.retract)

    def _record_layout(self) -> None:
        """Make a fresh store recoverable, once the transport has built its
        shards: every generation-0 snapshot is durable by then, so
        ``meta.json`` never describes a half-initialised directory."""
        if self.persistence is not None and not self.recovered:
            self.persistence.write_meta(self.num_shards, self.kind)

    def _run(self, requests: Dict[int, Tuple[str, tuple]]) -> Dict[int, object]:
        """The transport: ``{shard: (Shard method name, args)}`` in,
        ``{shard: result}`` out."""
        raise NotImplementedError

    def _run_all(self, method: str, *args) -> List:
        """One method on every shard; results in shard order."""
        results = self._run({shard: (method, args) for shard in range(self.num_shards)})
        return [results[shard] for shard in range(self.num_shards)]

    def _missing_shards(self) -> Sequence[int]:
        """Shards sitting a read out — none, unless the transport's shards
        can fail independently of this interpreter."""
        return ()

    # -------------------------------------------------------------- #
    # ingest, reasoning, querying
    # -------------------------------------------------------------- #

    def ingest(self, groups: Dict[int, List[Tuple]]) -> int:
        """Annotate ``shard -> [(observation, index)]``; returns the growth."""
        grown = self._run({shard: ("ingest", (pairs,)) for shard, pairs in groups.items()})
        return sum(grown.values())

    def reason(self, shards: Iterable[int]) -> None:
        self._run({shard: ("reason", ()) for shard in shards})

    def query(self, text: str, entail: bool = False) -> QueryResult:
        if entail:
            # every partition's closure is topped up first, whether or not
            # an ASK then short-circuits before reaching it
            self.reason(range(self.num_shards))
        if self.num_shards == 1:
            # one shard is not a federation: its planner answers, no merge
            return federated_query(self.graphs, text)
        return federate(
            text,
            self.library.graph,
            range(self.num_shards),
            # entail=False: every closure was topped up (and committed) above
            ask=lambda shard: self._run({shard: ("query_ask", (text, False))})[shard],
            gather=lambda: self._run_all("query_full", text, False),
            missing=self._missing_shards,
        )

    def materialize_inferences(self, full: bool = False) -> List[InferenceTrace]:
        return self._run_all("materialize", full)

    # -------------------------------------------------------------- #
    # replication (service descriptions, ontology deltas)
    # -------------------------------------------------------------- #

    def replicate(self, triples: List[Triple]) -> int:
        """Add the same triples to every shard, in one round."""
        return sum(self._run_all("replicate", triples))

    def retract(self, subject: Term) -> int:
        """Remove every triple about ``subject`` from every shard."""
        return sum(self._run_all("retract", subject))

    # -------------------------------------------------------------- #
    # durability and observability
    # -------------------------------------------------------------- #

    def checkpoint_all(self) -> None:
        self._run_all("checkpoint")

    def shard_stats(self) -> List[dict]:
        """Every shard's :meth:`Shard.stats <repro.core.shard.Shard.stats>`."""
        return self._run_all("stats")

    def shard_sizes(self) -> List[int]:
        """Resident triples per shard."""
        return [info["triples"] for info in self.shard_stats()]

    def triple_count(self) -> int:
        """Resident triples across the shards (axioms counted per shard)."""
        return sum(self.shard_sizes())

    @property
    def graphs(self) -> List[Graph]:
        """Every shard's graph: the live object of an in-process shard, a
        full copy of a worker's — correct but expensive, for tests and
        offline inspection."""
        return self._run_all("dump")

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
    """N shards in this interpreter, called directly and serially.

    One shard *adopts* the library graph — ontology axioms, IK
    catalogue, service descriptions and annotations share one graph, and
    queries go straight through its planner with no merge step, which is
    what makes it the oracle the federated layouts are compared against.
    With more shards the library graph stays the pristine axiom base,
    replicated into every partition.
    """

    kind = "inline"

    def __init__(self, library, knowledge_base, shards: int, persistence=None):
        super().__init__(library, knowledge_base, shards, persistence)
        graphs: List[Optional[Graph]]
        if self.recovered:
            # each shard recovers its own partition, replicated axioms
            # included (they were in its gen-0 snapshot)
            graphs = [None] * shards
        elif shards == 1:
            graphs = [library.graph]
        else:
            graphs, self.replicated_triples = build_partitions(shards, library.graph)
        self.shards = [
            Shard(
                graph,
                knowledge_base,
                persistence.segment(index) if persistence is not None else None,
            )
            for index, graph in enumerate(graphs)
        ]
        self._record_layout()
        self.counter = itertools.count(
            next_annotation_index([shard.graph for shard in self.shards])
            if self.recovered
            else 1
        )
        self.reasoners = [shard.reasoner for shard in self.shards]
        #: Wall-clock seconds each shard spent on its last operation.
        self.last_batch_latency: Dict[int, float] = {}

    def _run(self, requests: Dict[int, Tuple[str, tuple]]) -> Dict[int, object]:
        results = {}
        for shard, (method, args) in requests.items():
            started = time.perf_counter()
            results[shard] = self.shards[shard].run(method, args)
            self.last_batch_latency[shard] = time.perf_counter() - started
        return results

    def versions(self) -> List[int]:
        return [shard.graph.version for shard in self.shards]

    # -------------------------------------------------------------- #
    # standing views
    # -------------------------------------------------------------- #

    def register_standing(self, text: str, name: Optional[str] = None):
        return self._run_all("register_view", text, name, self.num_shards > 1)

    def standing_views(self) -> List:
        return [view for shard in self.shards for view in shard.views.values()]

    def refresh_views(self) -> None:
        self._run_all("refresh_views")

    # -------------------------------------------------------------- #
    # observability
    # -------------------------------------------------------------- #

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

    def close(self) -> None:
        """Nothing to release: the shards are plain objects."""

    def __repr__(self) -> str:
        return f"<InlineShardBackend shards={self.num_shards}>"


def make_shard_backend(
    config, library, knowledge_base, statistics, persistence=None, dead_letter=None
) -> ShardBackend:
    """Build the transport ``config`` selects (lazily importing the process
    one); a one-shard store always runs in-process."""
    shards = max(1, int(config.shards))
    if shards > 1 and resolve_shard_backend(config.shard_backend) == "process":
        from repro.core.shard_worker import ProcessShardBackend

        return ProcessShardBackend(
            library,
            knowledge_base,
            statistics,
            shards,
            persistence=persistence,
            policy=FaultTolerancePolicy.from_config(config),
            fault_plan=resolve_fault_plan(config.fault_plan),
            dead_letter=dead_letter,
        )
    return InlineShardBackend(library, knowledge_base, shards, persistence=persistence)
