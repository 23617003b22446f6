"""Process-based shard workers: one OS process per graph partition.

The :class:`ProcessShardBackend` forks one worker per shard.  Each worker
owns one :class:`~repro.core.shard.Shard` outright — the ``Graph``, its
``Reasoner`` and planner caches, every standing view registered on it, and
(when the layer is durable) its own
:class:`~repro.persistence.store.ShardPersistence` WAL/snapshot
generation — and runs the same ``Shard`` methods the inline backend calls
directly.  The parent keeps only the router, the shared arrival-order
annotation counter, and one duplex pipe per worker.

Requests travel as ``opcode + body`` messages in the WAL/snapshot codec
(:mod:`repro.core.shard_wire`); the pipe length-prefixes each message.
Annotation indexes are pre-assigned by the parent from the shared counter
before fan-out, so minted IRIs — and therefore graph content — stay
bag-identical to the inline backend regardless of process scheduling.

Crash handling: a worker that dies mid-request is detected by the broken
pipe — and a worker that *hangs* mid-request is detected by the RPC
deadline (``FaultTolerancePolicy.rpc_timeout``) and SIGKILLed, which
turns a hang into the crash the rest of the machinery already handles.
Either way the worker is respawned in recovery mode (newest valid
snapshot + WAL tail), its standing views re-registered, and the
in-flight request replayed.  Replay is safe because every mutating op is
idempotent: annotations use deterministic counter-minted IRIs and
``Graph.add`` deduplicates, so re-ingesting a half-applied batch
converges on exactly the inline oracle's content.

Supervision is budgeted: respawn attempts back off exponentially and a
shard that cannot be brought back within ``restart_budget`` attempts
trips its :class:`~repro.core.faults.ShardBreaker` — queries then raise
:class:`~repro.core.faults.ShardUnavailableError` (or serve partial,
explicitly-marked results under ``degraded_reads``), ingest for the
tripped shard parks in a bounded pending queue, and the next request
after the breaker's retry delay runs a half-open probe that restarts
the shard and flushes the parked batches.  A batch whose *replay* keeps
crashing the worker is a poison batch: after ``replay_budget`` replays
it is written to the dead-letter journal and the shard resumes clean.
Fault injection (hangs, crashes, WAL errors — :mod:`repro.core.faults`)
is armed parent-side and shipped as one-shot ``OP_FAULT`` directives so
it stays deterministic across respawns.

Workers exit with ``os._exit`` in every path.  A forked child inherits
the parent's open WAL buffers for *other* layers; running interpreter
shutdown in the child would flush those buffers and corrupt logs the
child does not own, so the worker never runs ``atexit``/GC finalisers.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from dataclasses import asdict

from repro.core.annotation import next_annotation_index
from repro.core.faults import (
    FaultInjector,
    FaultPlan,
    FaultTolerancePolicy,
    ShardBreaker,
    ShardUnavailableError,
)
from repro.core.services import ServiceRegistry
from repro.core.shard import Shard
from repro.core.shard_backend import ShardBackend
from repro.core.shard_router import ShardRouter
from repro.core.shard_wire import (
    OP_CHECKPOINT,
    OP_CLOSE,
    OP_DUMP,
    OP_ERROR,
    OP_FAULT,
    OP_HELLO,
    OP_INGEST,
    OP_KILL,
    OP_MATERIALIZE,
    OP_PING,
    OP_QUERY_ASK,
    OP_QUERY_FULL,
    OP_REASON,
    OP_REFRESH_VIEWS,
    OP_REGISTER_VIEW,
    OP_REPLICATE,
    OP_RETRACT_SUBJECT,
    OP_STATS,
    OP_VIEW_ROWS,
    decode_ingest,
    decode_json,
    decode_query_result,
    decode_string,
    decode_term,
    decode_triples,
    decode_view_deltas,
    encode_ingest,
    encode_json,
    encode_query_result,
    encode_string,
    encode_term_into,
    encode_triples,
    encode_view_deltas,
    frame,
    read_uvarint,
    unframe,
    write_uvarint,
)
from repro.persistence.snapshot import (
    decode_graph_body,
    encode_graph_body,
    restore_graph,
)
from repro.persistence.store import DEFAULT_SNAPSHOT_INTERVAL, ShardPersistence
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.sharding import ShardedGraphStore
from repro.semantics.rdf.term import Term
from repro.semantics.rdf.triple import Triple
from repro.semantics.rules import InferenceTrace
from repro.semantics.sparql.bindings import EMPTY_BINDINGS
from repro.semantics.sparql.evaluator import QueryResult
from repro.semantics.sparql.planner import (
    PlannerStatistics,
    merge_federated_solutions,
    planner_for,
)
from repro.semantics.sparql.views import ViewDelta


# ------------------------------------------------------------------ #
# the worker side
# ------------------------------------------------------------------ #


def _encode_count(count: int) -> bytes:
    reply = bytearray()
    write_uvarint(reply, count)
    return bytes(reply)


class _ShardWorker:
    """Wire adapter around the one :class:`Shard` a worker process owns.

    Every handler is decode → :class:`Shard` method → commit → encode; the
    per-op commit is this transport's durability point (the parent cannot
    fsync a log it does not own).
    """

    def __init__(self, shard: Shard, snapshot_interval: int, recovered: bool):
        self.shard = shard
        self.persistence = shard.persistence
        self.snapshot_interval = snapshot_interval
        self.recovered = recovered
        #: (text, ViewDelta) buffered for the next REFRESH_VIEWS drain —
        #: deltas can also surface implicitly (a query or checkpoint
        #: refreshing a view), and the parent must still see them
        self.pending: List[Tuple[str, ViewDelta]] = []

    def _commit(self) -> None:
        if self.persistence is None:
            return
        self.persistence.commit()
        wal = self.persistence.wal
        if wal is not None and wal.records >= self.snapshot_interval:
            self.persistence.checkpoint()

    # -- dispatch ------------------------------------------------------- #

    def dispatch(self, opcode: int, body: bytes) -> bytes:
        handler = self._HANDLERS.get(opcode)
        if handler is None:
            raise ValueError(f"unknown opcode 0x{opcode:02x}")
        return handler(self, body)

    def _op_ingest(self, body: bytes) -> bytes:
        pairs, _reason = decode_ingest(body)
        grown = self.shard.ingest(pairs)
        self._commit()
        return _encode_count(grown)

    def _op_reason(self, body: bytes) -> bytes:
        self.shard.reason()
        self._commit()
        return b""

    def _decode_query(self, body: bytes) -> Tuple[str, bool]:
        text, _ = decode_string(body, 1)
        return text, bool(body[0])

    def _op_query_ask(self, body: bytes) -> bytes:
        text, entail = self._decode_query(body)
        ask = self.shard.query_ask(text, entail)
        if entail:
            self._commit()
        return bytes([1 if ask else 0])

    def _op_query_full(self, body: bytes) -> bytes:
        text, entail = self._decode_query(body)
        variables, solutions = self.shard.query_full(text, entail)
        if entail:
            self._commit()
        return encode_query_result(variables, solutions)

    def _op_register_view(self, body: bytes) -> bytes:
        spec = decode_json(body)
        text = spec["text"]
        fresh = text not in self.shard.views
        view = self.shard.register_view(
            text, name=spec["name"], federated=bool(spec["federated"])
        )
        if fresh:
            view.subscribe(
                lambda delta, _text=text: self.pending.append((_text, delta))
            )
        return encode_json({"rows": view.stats()["rows"], "seeded": view.seeded})

    def _op_refresh_views(self, body: bytes) -> bytes:
        self.shard.refresh_views()
        deltas = [
            (text, delta.full_refresh, delta.view._full_variables,
             delta.added, delta.removed)
            for text, delta in self.pending
        ]
        self.pending = []
        return encode_view_deltas(deltas)

    def _op_view_rows(self, body: bytes) -> bytes:
        variables, rows = self.shard.view_rows(decode_json(body)["text"])
        return encode_query_result(variables, rows)

    def _op_stats(self, body: bytes) -> bytes:
        return encode_json(dict(self.shard.stats(), recovered=self.recovered))

    def _op_materialize(self, body: bytes) -> bytes:
        trace = self.shard.materialize(full=bool(body[0]))
        self._commit()
        return encode_json(
            {
                "iterations": trace.iterations,
                "inferred": trace.inferred,
                "by_rule": trace.by_rule,
            }
        )

    def _op_replicate(self, body: bytes) -> bytes:
        added = self.shard.replicate(
            Triple(s, p, o) for s, p, o in decode_triples(body)
        )
        self._commit()
        return _encode_count(added)

    def _op_retract_subject(self, body: bytes) -> bytes:
        subject, _ = decode_term(body, 0)
        removed = self.shard.retract_subject(subject)
        self._commit()
        return _encode_count(removed)

    def _op_dump(self, body: bytes) -> bytes:
        return encode_graph_body(self.shard.graph)

    def _op_checkpoint(self, body: bytes) -> bytes:
        if self.persistence is not None:
            self.persistence.commit()
            self.persistence.checkpoint()
        return b""

    def _op_ping(self, body: bytes) -> bytes:
        """Heartbeat: proves the worker loop is live, not just the process."""
        return encode_json({"pid": os.getpid(), "triples": len(self.shard.graph)})

    _HANDLERS = {
        OP_INGEST: _op_ingest,
        OP_REASON: _op_reason,
        OP_QUERY_ASK: _op_query_ask,
        OP_QUERY_FULL: _op_query_full,
        OP_REGISTER_VIEW: _op_register_view,
        OP_REFRESH_VIEWS: _op_refresh_views,
        OP_VIEW_ROWS: _op_view_rows,
        OP_STATS: _op_stats,
        OP_MATERIALIZE: _op_materialize,
        OP_REPLICATE: _op_replicate,
        OP_RETRACT_SUBJECT: _op_retract_subject,
        OP_DUMP: _op_dump,
        OP_CHECKPOINT: _op_checkpoint,
        OP_PING: _op_ping,
    }


def _worker_main(
    conn,
    parent_side,
    shard_dir: Optional[str],
    fsync: str,
    snapshot_interval: int,
    graph: Optional[Graph],
    knowledge_base,
    recover: bool,
    boot_crash: bool = False,
) -> None:
    """Entry point of one forked shard worker."""
    if parent_side is not None:
        parent_side.close()
    if boot_crash:
        # injected startup failure (decided parent-side from the fault
        # plan and this spawn's incarnation number): die before HELLO so
        # the supervisor sees a spawn failure, not a serving worker
        os._exit(2)
    injector = FaultInjector()
    persistence: Optional[ShardPersistence] = None
    try:
        if shard_dir is not None:
            persistence = ShardPersistence(
                shard_dir, fsync=fsync, fault_hook=injector.wal_hook
            )
        if recover:
            graph = persistence.recover()
            # idempotent: the IK indicators use deterministic IRIs, so
            # re-materialising over recovered content journals nothing new
            knowledge_base.materialize(graph)
        elif persistence is not None:
            persistence.attach(graph)
        worker = _ShardWorker(
            Shard(graph, knowledge_base, persistence), snapshot_interval, recover
        )
        conn.send_bytes(
            frame(
                OP_HELLO,
                encode_json(
                    {
                        "pid": os.getpid(),
                        "next_index": next_annotation_index([graph]),
                        "triples": len(graph),
                        "recovered": recover,
                        "generation": (
                            persistence.generation if persistence is not None else 0
                        ),
                    }
                ),
            )
        )
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        try:
            conn.send_bytes(
                frame(OP_ERROR, encode_json({"error": f"{type(exc).__name__}: {exc}"}))
            )
        except OSError:
            pass
        os._exit(1)
    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            # parent vanished: exit without flushing inherited buffers
            os._exit(0)
        opcode, body = unframe(message)
        if opcode == OP_KILL:
            # simulated crash: drop buffered WAL records on the floor
            if persistence is not None:
                persistence.kill()
            os._exit(1)
        if opcode == OP_CLOSE:
            if persistence is not None:
                persistence.close()
            try:
                conn.send_bytes(frame(OP_CLOSE, b""))
                conn.close()
            except OSError:
                pass
            os._exit(0)
        if opcode == OP_FAULT:
            # one-shot injection directives armed by the parent for the
            # next op; fire-and-forget, no reply
            injector.arm(decode_json(body))
            continue
        try:
            deferred = injector.before_op(opcode)
            reply = frame(opcode, worker.dispatch(opcode, body))
            injector.after_op(deferred)
        except OSError:
            # fail-stop: a disk error mid-op (real or injected) can leave
            # the in-memory graph ahead of the durable log.  Dying here
            # makes the supervisor replay the op against the last
            # consistent on-disk state instead of serving divergent data.
            os._exit(3)
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            reply = frame(OP_ERROR, encode_json({"error": f"{type(exc).__name__}: {exc}"}))
        try:
            conn.send_bytes(reply)
        except OSError:
            os._exit(0)


# ------------------------------------------------------------------ #
# the parent side
# ------------------------------------------------------------------ #


def _reap_workers(entries: List[List[object]]) -> None:
    """GC/exit fallback: make sure no worker outlives its backend."""
    for entry in entries:
        process, conn = entry
        try:
            conn.close()
        except OSError:
            pass
        if process.is_alive():
            process.terminate()
            process.join(timeout=5)


class _WorkerHungError(RuntimeError):
    """A worker missed its RPC deadline; the supervisor will SIGKILL it."""

    def __init__(self, message: str, shard: int):
        super().__init__(message)
        self.shard = shard


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "shard",
        "process",
        "conn",
        "pid",
        "next_index",
        "triples",
        "recovered",
        "inflight",
        "last_batch_latency",
    )

    def __init__(self, shard: int, process, conn, hello: dict):
        self.shard = shard
        self.process = process
        self.conn = conn
        self.pid = hello["pid"]
        self.next_index = hello["next_index"]
        self.triples = hello["triples"]
        self.recovered = hello["recovered"]
        #: the request awaiting a reply, kept for crash replay
        self.inflight: Optional[Tuple[int, bytes]] = None
        self.last_batch_latency = 0.0


class ProcessViewHandle:
    """Parent-side stand-in for one shard's standing view.

    Quacks like :class:`~repro.semantics.sparql.views.StandingView` for
    the surfaces the middleware and applications use — ``name``,
    ``subscribe``/``unsubscribe``, ``refresh``, ``rows``, ``stats`` and
    the delta counters — while the view itself (and its maintenance
    work) lives in the worker.  Deltas are shipped over the wire when the
    backend drains dirty shards and re-dispatched to parent-side
    listeners as ordinary :class:`ViewDelta` objects.
    """

    def __init__(self, backend: "ProcessShardBackend", shard: int, text: str,
                 name: Optional[str], seeded: bool = False):
        self._backend = backend
        self.shard = shard
        self.text = text
        self.name = name or text
        self.seeded = seeded
        self.listeners: List = []

    def subscribe(self, listener) -> None:
        if listener not in self.listeners:
            self.listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        if listener in self.listeners:
            self.listeners.remove(listener)

    def refresh(self) -> None:
        """Drain pending deltas (for every view — refreshes are global)."""
        self._backend.refresh_views()

    def rows(self):
        body = self._backend._rpc(
            self.shard, OP_VIEW_ROWS, encode_json({"text": self.text})
        )
        _variables, rows = decode_query_result(body)
        return rows

    def stats(self) -> dict:
        info = self._backend.worker_stats(self.shard)
        for view in info["views"]:
            if view["text"] == self.text:
                return view
        raise KeyError(f"view {self.text!r} not registered on shard {self.shard}")

    @property
    def delta_updates(self) -> int:
        return self.stats()["delta_updates"]

    @property
    def full_refreshes(self) -> int:
        return self.stats()["full_refreshes"]

    def __repr__(self) -> str:
        return f"<ProcessViewHandle {self.name!r} shard={self.shard}>"


class _WorkerGraphProxy:
    """Write-through stand-in for one worker's graph.

    Lets the parent-side :class:`ServiceRegistry` keep its ``graph.add``
    / ``graph.remove_matching`` contract: service descriptions written
    through the proxy are replicated into the owning worker's partition.
    """

    def __init__(self, backend: "ProcessShardBackend", shard: int):
        self._backend = backend
        self._shard = shard

    def add(self, triple) -> bool:
        return self.add_all([triple]) > 0

    def add_all(self, triples: Iterable) -> int:
        materialised = [
            triple if isinstance(triple, Triple) else Triple(*triple)
            for triple in triples
        ]
        return self._backend.replicate_to(self._shard, materialised)

    def remove_matching(self, subject: Optional[Term] = None, **kwargs) -> int:
        if subject is None or kwargs:
            raise NotImplementedError(
                "process-shard graph proxies only support subject retraction"
            )
        return self._backend.retract_subject(self._shard, subject)

    def __repr__(self) -> str:
        return f"<_WorkerGraphProxy shard={self._shard}>"


class ProcessShardStore:
    """A :class:`ShardedGraphStore`-shaped facade over worker processes.

    Serves the store surface the layer and its tests consume.  Paths that
    need whole graphs (``graphs``, ``union_graph``) ship full snapshots
    over the DUMP RPC — correct but expensive, intended for tests and
    offline inspection, not the hot path.
    """

    def __init__(self, backend: "ProcessShardBackend", replicated_triples: int):
        self._backend = backend
        self.router = backend.router
        self.replicated_triples = replicated_triples

    @property
    def num_shards(self) -> int:
        return self._backend.num_shards

    def shard_for(self, area: Optional[str]) -> int:
        return self.router.shard_for(area)

    @property
    def graphs(self) -> List[Graph]:
        return self._backend.dump_graphs()

    def graph_for(self, area: Optional[str]) -> Graph:
        return self._backend.dump_graph(self.shard_for(area))

    def replicate(self, triples) -> int:
        if isinstance(triples, Graph):
            triples = [Triple(s, p, o) for s, p, o in triples]
        else:
            triples = list(triples)
        return self._backend.replicate_all(triples)

    def replicate_with(self, writer) -> None:
        raise RuntimeError(
            "replicate_with cannot cross the process boundary; replicate "
            "triples, or write into the partitions before the workers fork"
        )

    def query(self, text: str):
        return self._backend.query(text)

    def register_standing(self, text: str, name: Optional[str] = None):
        return self._backend.register_standing(text, name=name)

    def triple_count(self) -> int:
        return sum(self.shard_sizes())

    def shard_sizes(self) -> List[int]:
        return [info["triples"] for info in self._backend.shard_stats()]

    def versions(self) -> List[int]:
        return [info["version"] for info in self._backend.shard_stats()]

    def union_graph(self) -> Graph:
        union = Graph()
        for shard_graph in self.graphs:
            union.add_all(Triple(s, p, o) for s, p, o in shard_graph)
        return union

    def __len__(self) -> int:
        return self.num_shards

    def __repr__(self) -> str:
        return f"<ProcessShardStore shards={self.num_shards}>"


class ProcessShardBackend(ShardBackend):
    """Shared-nothing multi-core sharding: one worker process per partition.

    The :class:`~repro.core.shard_backend.ShardBackend` surface over a
    pipe; see the module docstring for the protocol and crash-recovery
    story.
    """

    def __init__(
        self,
        library,
        knowledge_base,
        statistics,
        shards: int,
        persistence=None,
        policy: Optional[FaultTolerancePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        dead_letter=None,
    ):
        self.library = library
        self.knowledge_base = knowledge_base
        self.num_shards = shards
        self.router = ShardRouter(shards)
        self.persistence = persistence
        recovered = persistence is not None and persistence.recoverable
        self.recovered = recovered
        if recovered:
            # the workers recover their own partitions; the parent only
            # validates that the store matches the layout
            persistence.validate_meta(expected_shards=shards, backend="process")
        # the shards live in the workers: no live reasoners to hand out
        self.reasoners: List = []
        self._context = multiprocessing.get_context("fork")
        self._dirty: set = set()
        #: per-shard count of writes sent (see :meth:`versions`)
        self._writes = [0] * shards
        self._handles: Dict[Tuple[int, str], ProcessViewHandle] = {}
        self._ordered_handles: List[ProcessViewHandle] = []
        self._view_specs: List[Tuple[str, Optional[str]]] = []
        self.restart_counts = [0] * shards
        self._closed = False
        self._killed = False
        self.policy = policy if policy is not None else FaultTolerancePolicy()
        self.dead_letter = dead_letter
        self.layer_statistics = statistics
        self.breakers = [ShardBreaker() for _ in range(shards)]
        # without persistence a crashed worker cannot be rebuilt, so only
        # non-destructive ("slow") injected faults survive the filter —
        # this lets a CI-wide REPRO_FAULT_PLAN run suites that also build
        # ephemeral backends without destroying them
        plan = fault_plan if fault_plan is not None else FaultPlan()
        self._faults = plan.session(recoverable=persistence is not None)
        self._incarnations = [0] * shards

        replicated = 0
        graphs: List[Optional[Graph]] = [None] * shards
        if not recovered:
            # build the partitions in the parent (axiom base + IK catalogue
            # replicated into each) and hand them to the workers via fork —
            # copy-on-write, nothing is pickled
            seed_store = ShardedGraphStore(
                shards, base_graph=library.graph, router=self.router
            )
            seed_store.replicate_with(knowledge_base.materialize)
            replicated = seed_store.replicated_triples
            graphs = list(seed_store.graphs)
        self.workers: List[_WorkerHandle] = [
            self._spawn(index, graphs[index], recovered) for index in range(shards)
        ]
        del graphs
        # belt-and-braces reaper: a backend dropped without close() must
        # not leak worker processes (holds no reference back to self)
        self._reap_entries = [[w.process, w.conn] for w in self.workers]
        self._finalizer = weakref.finalize(self, _reap_workers, self._reap_entries)

        start = (
            max(worker.next_index for worker in self.workers) if recovered else 1
        )
        self.counter = itertools.count(start)
        self.store = ProcessShardStore(self, 0 if recovered else replicated)
        self.services = ServiceRegistry(
            [_WorkerGraphProxy(self, index) for index in range(shards)]
        )
        if persistence is not None:
            # a simulated whole-store kill must take the workers down too,
            # or their graceful exits would flush what the test wants lost
            persistence.kill_hook = self._kill_workers

    # -------------------------------------------------------------- #
    # process management
    # -------------------------------------------------------------- #

    def _spawn(self, shard: int, graph: Optional[Graph], recover: bool) -> _WorkerHandle:
        persistence = self.persistence
        shard_dir = (
            str(persistence._shard_dir(shard)) if persistence is not None else None
        )
        self._incarnations[shard] += 1
        boot_crash = self._faults.boot_crash_fires(shard, self._incarnations[shard])
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                parent_conn,
                shard_dir,
                persistence.fsync if persistence is not None else "batch",
                persistence.snapshot_interval
                if persistence is not None
                else DEFAULT_SNAPSHOT_INTERVAL,
                graph,
                self.knowledge_base,
                recover,
                boot_crash,
            ),
            daemon=True,
            name=f"shard-worker-{shard}",
        )
        process.start()
        child_conn.close()
        try:
            message = parent_conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise RuntimeError(f"shard worker {shard} died during startup") from exc
        opcode, body = unframe(message)
        if opcode != OP_HELLO:
            raise RuntimeError(
                f"shard worker {shard} failed to start: {decode_json(body)}"
            )
        return _WorkerHandle(shard, process, parent_conn, decode_json(body))

    def _restart_worker(self, shard: int) -> _WorkerHandle:
        """One respawn attempt: recover from disk, re-register views.

        Raises :class:`RuntimeError`/:class:`OSError` when the spawn or
        the view re-registration fails (the half-started worker is killed
        first, so a failed attempt leaks nothing).
        """
        worker = self._spawn(shard, None, recover=True)
        self.workers[shard] = worker
        self.restart_counts[shard] += 1
        self._reap_entries[shard][0] = worker.process
        self._reap_entries[shard][1] = worker.conn
        try:
            # the worker rebuilt its graph but not its standing views
            for text, name in self._view_specs:
                self._send(
                    worker,
                    OP_REGISTER_VIEW,
                    encode_json(
                        {"text": text, "name": name, "federated": self.num_shards > 1}
                    ),
                )
                self._receive(worker)
        except (RuntimeError, EOFError, OSError) as exc:
            worker.process.kill()
            worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
            raise RuntimeError(
                f"shard worker {shard} failed during view re-registration: {exc}"
            ) from exc
        self.mark_dirty((shard,))
        return worker

    def _recover_worker(self, shard: int) -> bytes:
        """Bring a dead shard back and replay its in-flight op, budgeted.

        Respawn attempts (from the shard's snapshot + WAL) back off
        exponentially and are capped by ``restart_budget``; exhaustion
        trips the shard's breaker and the in-flight op is answered by
        :meth:`_unavailable_reply`.  A replay that crashes the fresh
        worker again does *not* burn restart budget — it burns
        ``replay_budget``, and past that the batch is a poison batch:
        quarantined to the dead-letter journal while the shard resumes
        clean.  A replay that hangs is SIGKILLed like any hung RPC.
        """
        dead = self.workers[shard]
        inflight = dead.inflight
        dead.inflight = None
        try:
            dead.conn.close()
        except OSError:
            pass
        dead.process.join(timeout=5)
        if self.persistence is None:
            self._trip(shard, "worker died and no data_dir is configured")
            raise ShardUnavailableError(
                f"shard worker {shard} died and no data_dir is configured "
                "for recovery",
                shard=shard,
            )
        failures = 0
        replays = 0
        attempt = 0
        last_error = f"shard worker {shard} died"
        while True:
            if failures >= self.policy.restart_budget:
                self._trip(shard, last_error)
                if inflight is None:
                    return b""
                return self._unavailable_reply(shard, inflight[0], inflight[1])
            delay = self.policy.backoff(attempt)
            attempt += 1
            if delay:
                time.sleep(delay)
            try:
                worker = self._restart_worker(shard)
            except (RuntimeError, OSError) as exc:
                failures += 1
                last_error = str(exc) or f"{type(exc).__name__}"
                continue
            if inflight is None:
                self.breakers[shard].close()
                return b""
            if replays >= self.policy.replay_budget:
                self._quarantine(shard, inflight, last_error)
                self.breakers[shard].close()
                return self._synthetic_reply(shard, inflight[0])
            opcode, body = inflight
            replays += 1
            worker.inflight = inflight
            try:
                self._send(worker, opcode, body)
                reply = self._receive(worker)
            except _WorkerHungError:
                worker.process.kill()
                worker.process.join(timeout=5)
                try:
                    worker.conn.close()
                except OSError:
                    pass
                last_error = f"shard worker {shard} hung replaying the batch"
                continue
            except (EOFError, BrokenPipeError, OSError) as exc:
                worker.process.join(timeout=5)
                try:
                    worker.conn.close()
                except OSError:
                    pass
                last_error = (
                    f"shard worker {shard} died replaying the batch "
                    f"({type(exc).__name__}: {exc})"
                )
                continue
            self.breakers[shard].close()
            return reply

    def _send(self, worker: _WorkerHandle, opcode: int, body: bytes) -> None:
        """Send one request, shipping any armed fault directives first.

        Directives ride ahead of the op they apply to as a fire-and-forget
        ``OP_FAULT`` message, so the worker's injector state is always a
        pure function of what the parent decided — respawns inherit
        nothing, and a replayed batch counts as a fresh matching send.
        """
        if self._faults.active:
            directives = self._faults.op_directive(worker.shard, opcode)
            if directives:
                worker.conn.send_bytes(frame(OP_FAULT, encode_json(directives)))
        worker.conn.send_bytes(frame(opcode, body))

    def _receive(self, worker: _WorkerHandle) -> bytes:
        started = time.perf_counter()
        if not worker.conn.poll(self.policy.rpc_timeout):
            raise _WorkerHungError(
                f"shard worker {worker.shard} did not reply within "
                f"{self.policy.rpc_timeout}s",
                shard=worker.shard,
            )
        message = worker.conn.recv_bytes()
        worker.last_batch_latency = time.perf_counter() - started
        worker.inflight = None
        opcode, body = unframe(message)
        if opcode == OP_ERROR:
            raise RuntimeError(
                f"shard worker {worker.shard} failed: {decode_json(body)['error']}"
            )
        return body

    def scatter(self, requests: Sequence[Tuple[int, int, bytes]]) -> Dict[int, bytes]:
        """Send every request, then collect every reply (in shard order).

        A broken pipe at either end marks the worker dead, and a reply
        missing its deadline marks it hung (the process is SIGKILLed —
        from here on a hang *is* a crash); both route through
        :meth:`_recover_worker`.  The ops are idempotent (deterministic
        IRIs, deduplicating adds), so a request that was half-applied
        before the crash converges on replay.  Requests for a shard whose
        breaker is open are answered locally by :meth:`_unavailable_reply`
        — unless the breaker's retry delay has elapsed, in which case a
        half-open probe tries to bring the shard back first.
        """
        replies: Dict[int, bytes] = {}
        dead: List[int] = []
        sent: List[Tuple[int, int, bytes]] = []
        for shard, opcode, body in requests:
            if self.breakers[shard].open and not self._probe_recover(shard):
                replies[shard] = self._unavailable_reply(shard, opcode, body)
                continue
            worker = self.workers[shard]
            worker.inflight = (opcode, body)
            sent.append((shard, opcode, body))
            try:
                self._send(worker, opcode, body)
            except (BrokenPipeError, OSError):
                dead.append(shard)
        for shard, opcode, body in sent:
            if shard in dead:
                continue
            worker = self.workers[shard]
            try:
                replies[shard] = self._receive(worker)
            except _WorkerHungError:
                worker.process.kill()
                worker.process.join(timeout=5)
                dead.append(shard)
            except (EOFError, BrokenPipeError, OSError):
                dead.append(shard)
        for shard in dead:
            replies[shard] = self._recover_worker(shard)
        return replies

    def _rpc(self, shard: int, opcode: int, body: bytes = b"") -> bytes:
        return self.scatter([(shard, opcode, body)])[shard]

    def _broadcast(self, opcode: int, body: bytes = b"") -> Dict[int, bytes]:
        return self.scatter(
            [(shard, opcode, body) for shard in range(self.num_shards)]
        )

    def mark_dirty(self, shards: Iterable[int]) -> None:
        """Note writes: the shards' views need draining, their versions move."""
        for shard in shards:
            self._dirty.add(shard)
            self._writes[shard] += 1

    def versions(self) -> List[int]:
        """Parent-side write counters — no RPC, so callable from any thread
        while another is mid-``scatter`` on the same pipes."""
        return list(self._writes)

    # -------------------------------------------------------------- #
    # degraded operation: breaker, pending queue, quarantine
    # -------------------------------------------------------------- #

    def _trip(self, shard: int, error: str) -> None:
        """Open the shard's breaker; the retry delay keeps growing per trip."""
        breaker = self.breakers[shard]
        delay = min(
            self.policy.restart_backoff
            * (2 ** (self.policy.restart_budget + breaker.trips - 1)),
            self.policy.backoff_cap,
        )
        breaker.trip(error, delay)

    def _probe_recover(self, shard: int) -> bool:
        """Half-open probe: one restart attempt once the retry delay passed.

        On success the breaker closes and every parked ingest batch is
        flushed into the recovered shard; on failure the breaker re-trips
        with a doubled delay.  Returns whether the shard is serving again.
        """
        breaker = self.breakers[shard]
        if self.persistence is None:
            return False
        if time.monotonic() < breaker.retry_at:
            return False
        breaker.state = "half_open"
        try:
            self._restart_worker(shard)
        except (RuntimeError, OSError) as exc:
            self._trip(shard, str(exc) or type(exc).__name__)
            return False
        breaker.close()
        self._flush_pending(shard)
        return True

    def _flush_pending(self, shard: int) -> None:
        """Replay parked ingest batches into a freshly recovered shard."""
        breaker = self.breakers[shard]
        parked, breaker.pending = list(breaker.pending), []
        for body in parked:
            reply = self.scatter([(shard, OP_INGEST, body)])[shard]
            self.layer_statistics.annotation_triples += read_uvarint(reply, 0)[0]
            self.mark_dirty((shard,))

    def _unavailable_reply(self, shard: int, opcode: int, body: bytes) -> bytes:
        """Answer a request for a tripped shard without a worker.

        Ingest parks in the bounded pending queue (recovery will flush
        it); housekeeping ops (stats, view drains, checkpoints, pings)
        get synthetic empty replies so the rest of the system keeps
        running; reads get synthetic partial replies only under
        ``degraded_reads``.  Everything else refuses loudly.
        """
        breaker = self.breakers[shard]
        error = breaker.last_error or "restart budget exhausted"
        if opcode == OP_INGEST and self.persistence is not None:
            if len(breaker.pending) >= self.policy.pending_limit:
                raise ShardUnavailableError(
                    f"shard {shard} is unavailable and its pending ingest "
                    f"queue is full ({self.policy.pending_limit} batches): "
                    f"{error}",
                    shard=shard,
                )
            breaker.pending.append(body)
            return self._synthetic_reply(shard, opcode)
        if opcode in (OP_REFRESH_VIEWS, OP_STATS, OP_CHECKPOINT, OP_PING):
            return self._synthetic_reply(shard, opcode)
        if (
            opcode in (OP_QUERY_ASK, OP_QUERY_FULL, OP_REASON)
            and self.policy.degraded_reads
        ):
            return self._synthetic_reply(shard, opcode)
        raise ShardUnavailableError(
            f"shard {shard} is unavailable (circuit open after "
            f"{breaker.trips} trip(s)): {error}",
            shard=shard,
        )

    def _synthetic_reply(self, shard: int, opcode: int) -> bytes:
        """The empty-but-well-formed reply a missing shard contributes."""
        if opcode in (OP_INGEST, OP_REPLICATE, OP_RETRACT_SUBJECT):
            return _encode_count(0)
        if opcode == OP_REFRESH_VIEWS:
            return encode_view_deltas([])
        if opcode == OP_QUERY_ASK:
            return bytes([0])
        if opcode == OP_QUERY_FULL:
            return encode_query_result([], [])
        if opcode == OP_STATS:
            return encode_json(
                {
                    "pid": None,
                    "triples": 0,
                    "version": 0,
                    "recovered": False,
                    "wal_records": 0,
                    "generation": 0,
                    "tripped": True,
                    "planner": asdict(PlannerStatistics()),
                    "views": [],
                }
            )
        if opcode == OP_PING:
            return encode_json({"pid": None, "triples": 0, "tripped": True})
        return b""

    def _quarantine(self, shard: int, inflight: Tuple[int, bytes], error: str) -> None:
        """Write a poison batch to the dead-letter journal and move on.

        What quarantine deliberately loses: the batch's annotations never
        reach the shard's graph, so queries and views will not reflect
        the quarantined records — the journal entry (decoded records +
        error + shard) is the recovery path, not silent retry forever.
        """
        opcode, body = inflight
        records: List[dict] = []
        if opcode == OP_INGEST:
            try:
                pairs, _reason = decode_ingest(body)
                records = [asdict(obs) for obs, _index in pairs]
            except (ValueError, IndexError):
                records = []
        self.quarantined += 1
        if self.dead_letter is not None:
            self.dead_letter.record(
                "poison_batch",
                f"shard worker {shard} kept crashing while replaying "
                f"op 0x{opcode:02x} ({self.policy.replay_budget} replays): "
                f"{error}",
                shard=shard,
                records=records,
            )

    def _degraded_shards(self) -> Tuple[int, ...]:
        return tuple(
            shard for shard in range(self.num_shards) if self.breakers[shard].open
        )

    # -------------------------------------------------------------- #
    # ingest, reasoning, querying
    # -------------------------------------------------------------- #

    def ingest(self, groups: Dict[int, List[Tuple]]) -> int:
        replies = self.scatter(
            [
                (shard, OP_INGEST, encode_ingest(pairs, False))
                for shard, pairs in groups.items()
            ]
        )
        self.mark_dirty(groups)
        return sum(read_uvarint(body, 0)[0] for body in replies.values())

    def reason(self, shards: Iterable[int]) -> None:
        shards = list(shards)
        self.scatter([(shard, OP_REASON, b"") for shard in shards])
        self.mark_dirty(shards)

    def query(self, text: str, entail: bool = False):
        anchor = self.library.graph
        parsed = planner_for(anchor)._parse(text)
        if entail:
            # every partition's closure is topped up first — matching the
            # inline oracle's side-effects even when an ASK short-circuits
            self.reason(range(self.num_shards))
        body = bytearray([0])
        encode_string(body, text)
        body = bytes(body)
        if parsed.form == "ASK":
            # sequential probe so a hit short-circuits the remaining shards
            for shard in range(self.num_shards):
                reply = self._rpc(shard, OP_QUERY_ASK, body)
                if reply and reply[0]:
                    return self._mark_degraded(
                        QueryResult("ASK", [EMPTY_BINDINGS], [])
                    )
            return self._mark_degraded(QueryResult("ASK", [], []))
        replies = self._broadcast(OP_QUERY_FULL, body)
        per_graph: List[List] = []
        full_variables: List = []
        for shard in range(self.num_shards):
            variables, solutions = decode_query_result(replies[shard])
            per_graph.append(solutions)
            full_variables = variables
        return self._mark_degraded(
            merge_federated_solutions(parsed, per_graph, full_variables, anchor)
        )

    def _mark_degraded(self, result: QueryResult) -> QueryResult:
        """Stamp a partial result when any shard sat out behind its breaker."""
        missing = self._degraded_shards()
        if missing:
            result.degraded = True
            result.missing_shards = missing
        return result

    def materialize_inferences(self, full: bool = False) -> List[InferenceTrace]:
        replies = self._broadcast(OP_MATERIALIZE, bytes([1 if full else 0]))
        self.mark_dirty(range(self.num_shards))
        traces = []
        for shard in range(self.num_shards):
            info = decode_json(replies[shard])
            traces.append(
                InferenceTrace(
                    iterations=info["iterations"],
                    inferred=info["inferred"],
                    by_rule=dict(info["by_rule"]),
                )
            )
        return traces

    # -------------------------------------------------------------- #
    # standing views
    # -------------------------------------------------------------- #

    def register_standing(self, text: str, name: Optional[str] = None):
        body = encode_json(
            {"text": text, "name": name, "federated": self.num_shards > 1}
        )
        handles = []
        for shard in range(self.num_shards):
            handle = self._handles.get((shard, text))
            if handle is None:
                info = decode_json(self._rpc(shard, OP_REGISTER_VIEW, body))
                handle = ProcessViewHandle(
                    self, shard, text, name, seeded=bool(info["seeded"])
                )
                self._handles[(shard, text)] = handle
                self._ordered_handles.append(handle)
            handles.append(handle)
        if (text, name) not in self._view_specs:
            self._view_specs.append((text, name))
        return handles

    def standing_views(self) -> List[ProcessViewHandle]:
        return list(self._ordered_handles)

    def refresh_views(self) -> None:
        """Drain the dirty shards' view deltas to parent-side listeners."""
        if not self._dirty or not self._handles:
            return
        dirty = sorted(self._dirty)
        self._dirty.clear()
        replies = self.scatter([(shard, OP_REFRESH_VIEWS, b"") for shard in dirty])
        for shard in dirty:
            for text, full_refresh, _variables, added, removed in decode_view_deltas(
                replies[shard]
            ):
                handle = self._handles.get((shard, text))
                if handle is None:
                    continue
                delta = ViewDelta(handle, added, removed, full_refresh)
                if delta or delta.full_refresh:
                    for listener in list(handle.listeners):
                        listener(delta)

    # -------------------------------------------------------------- #
    # replication (service descriptions, ontology deltas)
    # -------------------------------------------------------------- #

    def replicate_to(self, shard: int, triples: List[Triple]) -> int:
        body = encode_triples([(t.subject, t.predicate, t.object) for t in triples])
        self.mark_dirty((shard,))
        return read_uvarint(self._rpc(shard, OP_REPLICATE, body), 0)[0]

    def replicate_all(self, triples: List[Triple]) -> int:
        body = encode_triples([(t.subject, t.predicate, t.object) for t in triples])
        replies = self._broadcast(OP_REPLICATE, body)
        self.mark_dirty(range(self.num_shards))
        return sum(read_uvarint(reply, 0)[0] for reply in replies.values())

    def retract_subject(self, shard: int, subject: Term) -> int:
        body = bytearray()
        encode_term_into(body, subject)
        self.mark_dirty((shard,))
        return read_uvarint(self._rpc(shard, OP_RETRACT_SUBJECT, bytes(body)), 0)[0]

    # -------------------------------------------------------------- #
    # observability
    # -------------------------------------------------------------- #

    def ping(self, shard: Optional[int] = None) -> Dict[int, dict]:
        """Heartbeat the workers; a hung worker fails the RPC deadline."""
        shards = range(self.num_shards) if shard is None else (shard,)
        replies = self.scatter([(index, OP_PING, b"") for index in shards])
        return {index: decode_json(replies[index]) for index in shards}

    def health(self) -> dict:
        """Per-shard supervision state, without touching the workers."""
        shards = []
        for shard, worker in enumerate(self.workers):
            breaker = self.breakers[shard]
            if breaker.state == "open":
                state = "tripped"
            elif breaker.state == "half_open":
                state = "restarting"
            elif not worker.process.is_alive():
                state = "down"
            else:
                state = "up"
            shards.append(
                {
                    "shard": shard,
                    "state": state,
                    "breaker": breaker.state,
                    "restarts": self.restart_counts[shard],
                    "trips": breaker.trips,
                    "pending_batches": len(breaker.pending),
                    "pid": worker.pid,
                    "last_error": breaker.last_error,
                }
            )
        return {
            "backend": "process",
            "shards": shards,
            "degraded_reads": self.policy.degraded_reads,
            "rpc_timeout": self.policy.rpc_timeout,
            "quarantined_batches": self.quarantined,
        }

    def worker_stats(self, shard: int) -> dict:
        return decode_json(self._rpc(shard, OP_STATS))

    def shard_stats(self) -> List[dict]:
        replies = self._broadcast(OP_STATS)
        return [decode_json(replies[shard]) for shard in range(self.num_shards)]

    def _load(self, shard: int) -> Tuple[int, float]:
        worker = self.workers[shard]
        return (1 if worker.inflight is not None else 0), worker.last_batch_latency

    def dump_graph(self, shard: int) -> Graph:
        return restore_graph(decode_graph_body(self._rpc(shard, OP_DUMP)))

    def dump_graphs(self) -> List[Graph]:
        replies = self._broadcast(OP_DUMP)
        return [
            restore_graph(decode_graph_body(replies[shard]))
            for shard in range(self.num_shards)
        ]

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    def attach_persistence(self) -> None:
        """Record a fresh store's layout; the workers attached their own
        WALs and snapshots when they were spawned."""
        if self.persistence is not None and not self.recovered:
            self.persistence.register_remote(self.num_shards, "process")

    def commit(self) -> None:
        """Nothing to do here: each worker commits its own log per op."""

    def checkpoint_all(self) -> None:
        self._broadcast(OP_CHECKPOINT)

    def _kill_workers(self) -> None:
        """Simulated crash (tests): workers die without flushing buffers."""
        if self._closed or self._killed:
            return
        self._killed = True
        self._finalizer.detach()
        for worker in self.workers:
            try:
                worker.conn.send_bytes(frame(OP_KILL))
            except OSError:
                pass
        for worker in self.workers:
            worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass

    def close(self) -> None:
        if self._closed or self._killed:
            return
        self._closed = True
        self._finalizer.detach()
        for worker in self.workers:
            try:
                worker.conn.send_bytes(frame(OP_CLOSE))
            except OSError:
                continue
        for worker in self.workers:
            try:
                worker.conn.recv_bytes()
            except (EOFError, OSError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=5)

    def __repr__(self) -> str:
        alive = sum(1 for worker in self.workers if worker.process.is_alive())
        return f"<ProcessShardBackend shards={self.num_shards} alive={alive}>"
