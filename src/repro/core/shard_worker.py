"""Process-based shard workers: one OS process per graph partition.

The :class:`ProcessShardBackend` forks one worker per shard.  Each worker
owns one :class:`~repro.core.shard.Shard` outright — the ``Graph``, its
``Reasoner`` and planner caches, every standing view registered on it, and
(when the layer is durable) the
:class:`~repro.persistence.store.ShardPersistence` WAL/snapshot
generation it opened for itself — and executes ops through the same
:meth:`Shard.run <repro.core.shard.Shard.run>` the inline backend calls
directly.  The parent keeps only the router, the shared arrival-order
annotation counter, and one duplex pipe per worker.

Requests travel as ``opcode + body`` messages in the WAL/snapshot codec
(:mod:`repro.core.shard_wire`); the pipe length-prefixes each message.
Nothing here knows an individual operation: the parent's transport
(:meth:`ProcessShardBackend._run`) encodes a request and decodes its reply
from the op's row in :data:`~repro.core.shard_wire.OPS`, the worker's
dispatcher decodes, has ``Shard.run`` call the method the row names and
commit as the row says, and encodes the result, and the supervisor
answers for a shard behind an open breaker from the row's ``down`` /
``empty`` columns.
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

A worker's heap is its partition: it only grows, and nearly all of it
stays reachable.  Left to its defaults the cyclic collector walks that
whole heap every time the young generations have promoted a quarter as
much again, finds nothing, and stalls whichever request it lands on for a
pause that grows with the graph (tens of milliseconds at 10^5 objects).
So a worker parks what it holds in the permanent generation
(``gc.freeze``) — at start-up, where that also keeps the pages forked from
the parent shared, and after each checkpoint, the one step that is
already O(heap) and takes the full collection with it
(:func:`_settle_heap`).  Collections between checkpoints then walk only
what arrived since the last one.

Workers exit with ``os._exit`` in every path.  A forked child inherits
the parent's open WAL buffers for *other* layers; running interpreter
shutdown in the child would flush those buffers and corrupt logs the
child does not own, so the worker never runs ``atexit``/GC finalisers.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import time
import weakref
from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.annotation import next_annotation_index
from repro.core.faults import (
    FaultInjector,
    FaultPlan,
    FaultTolerancePolicy,
    ShardBreaker,
    ShardUnavailableError,
)
from repro.core.shard import Shard
from repro.core.shard_backend import ShardBackend
from repro.core.shard_wire import (
    ALWAYS,
    DEGRADED,
    EMPTY,
    OP_CLOSE,
    OP_ERROR,
    OP_FAULT,
    OP_HELLO,
    OP_KILL,
    OPS,
    OPS_BY_OPCODE,
    PARK,
    decode_json,
    encode_json,
    frame,
    unframe,
)
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.sharding import build_partitions
from repro.semantics.sparql.views import ViewDelta

_INGEST = OPS["ingest"]
_REGISTER_VIEW = OPS["register_view"]


# ------------------------------------------------------------------ #
# the worker side
# ------------------------------------------------------------------ #


class _ShardWorker(Shard):
    """The :class:`Shard` a worker process owns, driven by the op table.

    :meth:`dispatch` is decode → :meth:`Shard.run` (the method, then the
    row's commit rule) → encode, all read from the op's row.
    """

    def __init__(self, graph, knowledge_base, persistence):
        super().__init__(graph, knowledge_base, persistence)
        #: (text, ViewDelta) buffered for the next ``refresh_views`` drain —
        #: deltas can also surface implicitly (a query or checkpoint
        #: refreshing a view), and the parent must still see them
        self.pending: List[Tuple[str, ViewDelta]] = []

    def dispatch(self, opcode: int, body: bytes) -> bytes:
        op = OPS_BY_OPCODE.get(opcode)
        if op is None:
            raise ValueError(f"unknown opcode 0x{opcode:02x}")
        generation = self.generation
        result = self.run(op.method, op.request.decode(body))
        if self.generation != generation:
            # the op rolled a snapshot
            _settle_heap()
        return op.reply.encode(result)

    def register_view(self, text: str, name: Optional[str] = None, federated: bool = True):
        fresh = text not in self.views
        view = super().register_view(text, name=name, federated=federated)
        if fresh:
            view.subscribe(lambda delta: self.pending.append((text, delta)))
        return view

    def refresh_views(self) -> List[tuple]:
        """Drain the buffered deltas, itemised for the wire — a parent-side
        handle re-dispatches them to its listeners."""
        super().refresh_views()
        drained, self.pending = self.pending, []
        return [
            (text, delta.full_refresh, delta.view._full_variables,
             delta.added, delta.removed)
            for text, delta in drained
        ]


def _settle_heap() -> None:
    """One full collection now, then none over the survivors until the
    next call (see the module docstring)."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def _worker_main(
    conn,
    parent_side,
    shard: int,
    store,
    graph: Optional[Graph],
    knowledge_base,
    boot_crash: bool = False,
) -> None:
    """Entry point of one forked shard worker.

    ``store`` is the layer's (forked) ``StorePersistence`` or ``None``;
    ``graph`` the fresh partition, or ``None`` to recover it from the
    shard's segment (newest valid snapshot + WAL tail).
    """
    if parent_side is not None:
        parent_side.close()
    if boot_crash:
        # injected startup failure (decided parent-side from the fault
        # plan and this spawn's incarnation number): die before HELLO so
        # the supervisor sees a spawn failure, not a serving worker
        os._exit(2)
    injector = FaultInjector()
    try:
        worker = _ShardWorker(
            graph,
            knowledge_base,
            store.segment(shard, fault_hook=injector.wal_hook)
            if store is not None
            else None,
        )
        gc.freeze()
        conn.send_bytes(
            frame(
                OP_HELLO,
                encode_json(
                    {
                        "pid": os.getpid(),
                        "next_index": next_annotation_index([worker.graph]),
                        "triples": len(worker.graph),
                        "recovered": graph is None,
                        "generation": worker.generation,
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
            if worker.persistence is not None:
                worker.persistence.kill()
            os._exit(1)
        if opcode == OP_CLOSE:
            if worker.persistence is not None:
                worker.persistence.close()
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

    def _call(self, method: str, *args):
        return self._backend._run({self.shard: (method, args)})[self.shard]

    def rows(self):
        _variables, rows = self._call("view_rows", self.text)
        return rows

    def stats(self) -> dict:
        for view in self._call("stats")["views"]:
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


class ProcessShardBackend(ShardBackend):
    """Shared-nothing multi-core sharding: one worker process per partition.

    The :class:`~repro.core.shard_backend.ShardBackend` surface over a
    pipe; see the module docstring for the protocol and crash-recovery
    story.
    """

    kind = "process"

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
        super().__init__(library, knowledge_base, shards, persistence)
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

        graphs: List[Optional[Graph]] = [None] * shards
        if not self.recovered:
            # build the partitions in the parent (axiom base replicated
            # into each) and hand them to the workers via fork —
            # copy-on-write, nothing is pickled
            graphs, self.replicated_triples = build_partitions(shards, library.graph)
        self.workers: List[_WorkerHandle] = [
            self._spawn(index, graphs[index]) for index in range(shards)
        ]
        del graphs
        # every worker has said HELLO: its generation-0 snapshot is durable
        self._record_layout()
        # belt-and-braces reaper: a backend dropped without close() must
        # not leak worker processes (holds no reference back to self)
        self._reap_entries = [[w.process, w.conn] for w in self.workers]
        self._finalizer = weakref.finalize(self, _reap_workers, self._reap_entries)

        self.counter = itertools.count(
            max(worker.next_index for worker in self.workers) if self.recovered else 1
        )
        if persistence is not None:
            # a simulated whole-store kill must take the workers down too,
            # or their graceful exits would flush what the test wants lost
            persistence.kill_hook = self._kill_workers

    # -------------------------------------------------------------- #
    # process management
    # -------------------------------------------------------------- #

    def _spawn(self, shard: int, graph: Optional[Graph]) -> _WorkerHandle:
        """Fork shard ``shard``'s worker around ``graph`` — or, with
        ``None``, have it recover the partition from its segment."""
        self._incarnations[shard] += 1
        boot_crash = self._faults.boot_crash_fires(shard, self._incarnations[shard])
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                parent_conn,
                shard,
                self.persistence,
                graph,
                self.knowledge_base,
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
        worker = self._spawn(shard, None)
        self.workers[shard] = worker
        self.restart_counts[shard] += 1
        self._reap_entries[shard][0] = worker.process
        self._reap_entries[shard][1] = worker.conn
        try:
            # the worker rebuilt its graph but not its standing views
            for text, name in self._view_specs:
                self._send(
                    worker,
                    _REGISTER_VIEW.opcode,
                    _REGISTER_VIEW.request.encode(text, name, self.num_shards > 1),
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
                return self._unavailable_reply(shard, *inflight)
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
                return OPS_BY_OPCODE[inflight[0]].empty
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

    def _run(self, requests: Dict[int, Tuple[str, tuple]]) -> Dict[int, object]:
        """The transport: each request encoded from its op-table row, one
        :meth:`scatter`, each reply decoded from the same row."""
        ops = {shard: OPS[method] for shard, (method, _args) in requests.items()}
        replies = self.scatter(
            [
                (shard, ops[shard].opcode, ops[shard].request.encode(*args))
                for shard, (_method, args) in requests.items()
            ]
        )
        self.mark_dirty(shard for shard, op in ops.items() if op.writes == ALWAYS)
        return {shard: op.reply.decode(replies[shard]) for shard, op in ops.items()}

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
            reply = self.scatter([(shard, _INGEST.opcode, body)])[shard]
            self.layer_statistics.annotation_triples += _INGEST.reply.decode(reply)
            self.mark_dirty((shard,))

    def _unavailable_reply(self, shard: int, opcode: int, body: bytes) -> bytes:
        """Answer a request for a tripped shard without a worker.

        What the shard contributes is the op's ``down`` column: ingest
        parks in the bounded pending queue (recovery will flush it);
        housekeeping ops (stats, view drains, checkpoints, pings) get
        empty replies so the rest of the system keeps running; reads get
        empty — partial — replies only under ``degraded_reads``.
        Everything else refuses loudly.
        """
        op = OPS_BY_OPCODE[opcode]
        breaker = self.breakers[shard]
        error = breaker.last_error or "restart budget exhausted"
        if op.down == PARK and self.persistence is not None:
            if len(breaker.pending) >= self.policy.pending_limit:
                raise ShardUnavailableError(
                    f"shard {shard} is unavailable and its pending ingest "
                    f"queue is full ({self.policy.pending_limit} batches): "
                    f"{error}",
                    shard=shard,
                )
            breaker.pending.append(body)
            return op.empty
        if op.down == EMPTY or (op.down == DEGRADED and self.policy.degraded_reads):
            return op.empty
        raise ShardUnavailableError(
            f"shard {shard} is unavailable (circuit open after "
            f"{breaker.trips} trip(s)): {error}",
            shard=shard,
        )

    def _quarantine(self, shard: int, inflight: Tuple[int, bytes], error: str) -> None:
        """Write a poison batch to the dead-letter journal and move on.

        What quarantine deliberately loses: the batch's annotations never
        reach the shard's graph, so queries and views will not reflect
        the quarantined records — the journal entry (decoded records +
        error + shard) is the recovery path, not silent retry forever.
        """
        opcode, body = inflight
        records: List[dict] = []
        if opcode == _INGEST.opcode:
            try:
                (pairs,) = _INGEST.request.decode(body)
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

    def _missing_shards(self) -> Tuple[int, ...]:
        return tuple(
            shard for shard in range(self.num_shards) if self.breakers[shard].open
        )

    # -------------------------------------------------------------- #
    # standing views
    # -------------------------------------------------------------- #

    def register_standing(self, text: str, name: Optional[str] = None):
        fresh = [
            shard for shard in range(self.num_shards)
            if (shard, text) not in self._handles
        ]
        infos = self._run(
            {shard: ("register_view", (text, name, self.num_shards > 1)) for shard in fresh}
        )
        for shard in fresh:
            handle = ProcessViewHandle(
                self, shard, text, name, seeded=bool(infos[shard]["seeded"])
            )
            self._handles[(shard, text)] = handle
            self._ordered_handles.append(handle)
        if (text, name) not in self._view_specs:
            self._view_specs.append((text, name))
        return [self._handles[(shard, text)] for shard in range(self.num_shards)]

    def standing_views(self) -> List[ProcessViewHandle]:
        return list(self._ordered_handles)

    def refresh_views(self) -> None:
        """Drain the dirty shards' view deltas to parent-side listeners."""
        if not self._dirty or not self._handles:
            return
        dirty = sorted(self._dirty)
        self._dirty.clear()
        drained = self._run({shard: ("refresh_views", ()) for shard in dirty})
        for shard in dirty:
            for text, full_refresh, _variables, added, removed in drained[shard]:
                handle = self._handles.get((shard, text))
                if handle is None:
                    continue
                delta = ViewDelta(handle, added, removed, full_refresh)
                if delta or delta.full_refresh:
                    for listener in list(handle.listeners):
                        listener(delta)

    # -------------------------------------------------------------- #
    # observability
    # -------------------------------------------------------------- #

    def ping(self, shard: Optional[int] = None) -> Dict[int, dict]:
        """Heartbeat the workers; a hung worker fails the RPC deadline."""
        shards = range(self.num_shards) if shard is None else (shard,)
        return self._run({index: ("ping", ()) for index in shards})

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

    def _load(self, shard: int) -> Tuple[int, float]:
        worker = self.workers[shard]
        return (1 if worker.inflight is not None else 0), worker.last_batch_latency

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

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
