"""The middleware's configuration: one declarative object.

:class:`MiddlewareConfig` is the single option reference — the facade,
the ontology segment layer, the shard backend factory and the
fault-tolerance policy all read the same instance, and nothing below
re-declares its fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class MiddlewareConfig:
    """Every knob of the middleware, documented once, here."""

    #: Whether to write RDF annotations for every observation.
    annotate_observations: bool = True
    #: Whether to derive and install CEP rules from the IK knowledge base.
    install_ik_rules: bool = True
    #: Feed every canonical observation to the CEP engine.  Applications
    #: processing high-frequency mote streams (the DEWS) usually disable
    #: this and feed daily per-district aggregates instead via
    #: :meth:`SemanticMiddleware.inject_event`; IK sightings always reach
    #: the engine.
    cep_per_record: bool = True
    #: Keep the reasoner's closure current inside the ingestion pipeline:
    #: after each record / batch is annotated, the ``reason`` stage tops
    #: the materialisation up incrementally (cost proportional to the
    #: batch, not the graph).  Off by default — entailment queries top up
    #: lazily, just as incrementally.
    reason_per_batch: bool = False
    #: Per-hop broker delivery latency in simulated seconds.
    broker_latency: float = 0.05
    #: Cloud polling interval of the interface protocol layer.
    cloud_poll_interval: float = 900.0
    #: Number of per-area graph partitions in the ontology segment layer.
    #: With ``1`` ontology and annotations share one graph and queries go
    #: straight through its planner — the oracle the federated layouts are
    #: tested against.  With more, records are routed by district to
    #: per-shard graphs (own dictionary, reasoner and planner caches,
    #: ontology axioms replicated) and queries federate scatter-gather
    #: across the partitions.
    shards: int = 1
    #: Shard execution model: ``"inline"`` (per-shard graphs in this
    #: process, worked one after another — the equivalence oracle) or
    #: ``"process"`` (one worker process per shard — shared-nothing
    #: multi-core scale-out).  ``None`` defers to the
    #: ``REPRO_SHARD_BACKEND`` environment variable, defaulting to inline.
    #: Ignored when ``shards == 1``: one shard always runs in-process.
    shard_backend: Optional[str] = None
    #: Directory for durable state (per-shard WAL + snapshots).  ``None``
    #: keeps the middleware purely in-memory; a directory that already
    #: holds a persisted store is *recovered* on construction — graphs,
    #: closures and standing views come back, and push-mode views are
    #: re-wired to the broker.
    data_dir: Optional[str] = None
    #: WAL durability policy: ``"always"`` (fsync per record), ``"batch"``
    #: (one fsync per write op on the shard it wrote — the default) or
    #: ``"never"``.
    wal_fsync: str = "batch"
    #: WAL records per shard segment before the commit that reaches it
    #: rolls a fresh snapshot and truncates the log.
    snapshot_interval: int = 50_000
    #: Deadline (seconds) for every RPC to a shard worker process; a
    #: worker that misses it is declared hung, killed and restarted from
    #: its snapshot + WAL.  ``None`` defers to ``REPRO_SHARD_RPC_TIMEOUT``,
    #: defaulting to 30 s.  Process backend only.
    shard_rpc_timeout: Optional[float] = None
    #: Consecutive failed restarts of one shard before its circuit
    #: breaker trips and the shard is declared unavailable.
    shard_restart_budget: int = 3
    #: Base of the exponential backoff between restart attempts (seconds).
    shard_restart_backoff: float = 0.1
    #: Replays of an in-flight batch after a worker crash before the batch
    #: is declared poisonous and quarantined to the dead-letter journal.
    replay_budget: int = 2
    #: Serve *partial* federated query results (marked ``degraded`` with
    #: the missing shards listed) when a shard's breaker is open, instead
    #: of raising :class:`repro.core.faults.ShardUnavailableError`.
    degraded_reads: bool = False
    #: Ingest batches parked per tripped shard awaiting recovery before
    #: further ingest for that shard raises.
    pending_queue_limit: int = 32
    #: Deterministic fault-injection plan for the process backend (a
    #: :class:`repro.core.faults.FaultPlan`; tests / CI).  ``None`` defers
    #: to ``REPRO_FAULT_PLAN`` / ``REPRO_FAULT_SEED``; normal operation
    #: leaves all three unset.
    fault_plan: Optional[object] = None
