"""Fault-tolerant shard serving: deadlines, supervision, degraded reads.

The process backend must survive hostile workers: every RPC carries a
deadline, a worker that misses it is declared hung, SIGKILLed and
restarted from its snapshot + WAL with the in-flight batch replayed; a
batch that kills its worker on every replay is quarantined to the
dead-letter journal; a shard whose restarts keep failing trips a
circuit breaker and is either refused loudly or, under
``degraded_reads``, skipped with an explicit marker on partial results.

Faults are injected deterministically through
:mod:`repro.core.faults` — the randomized schedule suite echoes its
seed (override with ``FAULT_SCHEDULE_SEED``) and requires the faulted
process backend to end bag-equal to an inline oracle that never saw a
fault.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.core.faults import (
    OP_NAMES,
    FaultPlan,
    FaultSpec,
    FaultTolerancePolicy,
    ShardUnavailableError,
    resolve_rpc_timeout,
)
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.ontologies.library import build_unified_ontology
from repro.persistence import StoreMetadataError, StorePersistence

from test_process_backend import VIEW_QUERY, build, graph_bags, view_row_bag
from test_sharding import QUERIES, event_key, make_stream, solution_set

pytestmark = pytest.mark.usefixtures("_no_ambient_faults")


@pytest.fixture
def _no_ambient_faults(monkeypatch):
    # these tests arm their own plans; a CI fault-matrix leg must not
    # stack its ambient profile on top
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
    monkeypatch.delenv("REPRO_SHARD_RPC_TIMEOUT", raising=False)


def build_faulted(tmp_path, plan: str, **kwargs) -> SemanticMiddleware:
    defaults = dict(
        shards=2,
        shard_backend="process",
        annotate_observations=True,
        data_dir=str(tmp_path / "state"),
        shard_rpc_timeout=5.0,
        shard_restart_backoff=0.01,
        fault_plan=FaultPlan.parse(plan) if isinstance(plan, str) else plan,
    )
    defaults.update(kwargs)
    return SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(**defaults),
    )


def assert_matches_oracle(faulted: SemanticMiddleware, records) -> None:
    """The faulted middleware's end state equals an un-faulted inline run."""
    oracle = build(2, "inline", annotate_observations=True)
    try:
        oracle.ingest_batch(records)
        assert graph_bags(faulted.ontology_layer) == graph_bags(oracle.ontology_layer)
        for text in QUERIES:
            assert solution_set(faulted.query(text)) == solution_set(
                oracle.query(text)
            ), text
    finally:
        oracle.close()


# --------------------------------------------------------------------- #
# the fault plan itself
# --------------------------------------------------------------------- #


def test_fault_plan_parse():
    plan = FaultPlan.parse(
        "hang:op=ingest:at=2:delay=60, crash:shard=1:op=query_full:count=3"
    )
    hang, crash = plan.specs
    assert (hang.kind, hang.op, hang.at, hang.delay) == ("hang", 0x02, 2, 60.0)
    assert (crash.kind, crash.shard, crash.op, crash.count) == ("crash", 1, 0x05, 3)
    assert crash.matches(1, 0x05) and not crash.matches(0, 0x05)
    with pytest.raises(ValueError):
        FaultPlan.parse("meteor_strike:at=1")
    with pytest.raises(ValueError):
        FaultPlan.parse("crash:at=0")
    with pytest.raises(ValueError):
        FaultPlan.parse("crash:op=warp_core")


def test_fault_plan_env_precedence():
    explicit = FaultPlan.parse("slow:delay=0.01")
    assert (
        FaultPlan.from_env({"REPRO_FAULT_PLAN": "hang:delay=9", "REPRO_FAULT_SEED": "7"})
        .specs[0]
        .kind
        == "hang"
    )
    assert FaultPlan.from_env({"REPRO_FAULT_SEED": "7"}) == FaultPlan.random(7)
    assert FaultPlan.random(7) == FaultPlan.random(7)  # seeded = reproducible
    assert FaultPlan.from_env({}) is None
    from repro.core.faults import resolve_fault_plan

    assert resolve_fault_plan(explicit) is explicit


def test_session_drops_unrecoverable_faults_without_persistence():
    plan = FaultPlan.parse("crash:op=ingest,slow:delay=0.01,wal_torn:op=ingest")
    assert [s.kind for s in plan.session(recoverable=False).specs] == ["slow"]
    assert [s.kind for s in plan.session(recoverable=True).specs] == [
        "crash",
        "slow",
        "wal_torn",
    ]


def test_backoff_schedule_and_timeout_resolution(monkeypatch):
    policy = FaultTolerancePolicy(restart_backoff=0.1, backoff_cap=0.5)
    assert [policy.backoff(n) for n in (0, 1, 2, 3, 4, 10)] == [
        0.0,
        0.1,
        0.2,
        0.4,
        0.5,
        0.5,
    ]
    monkeypatch.delenv("REPRO_SHARD_RPC_TIMEOUT", raising=False)
    assert resolve_rpc_timeout(None) == 30.0
    monkeypatch.setenv("REPRO_SHARD_RPC_TIMEOUT", "2.5")
    assert resolve_rpc_timeout(None) == 2.5
    assert resolve_rpc_timeout(1.0) == 1.0  # explicit config wins


def test_boot_crash_is_a_pure_function_of_incarnation():
    session = FaultPlan.parse("boot_crash:shard=0:at=2:count=2").session(True)
    assert [session.boot_crash_fires(0, n) for n in (1, 2, 3, 4)] == [
        False,
        True,
        True,
        False,
    ]
    assert not session.boot_crash_fires(1, 2)


# --------------------------------------------------------------------- #
# heartbeats and health
# --------------------------------------------------------------------- #


def test_ping_and_health_shapes():
    middleware = build(2, "process")
    try:
        backend = middleware.ontology_layer._backend
        pongs = backend.ping()
        assert set(pongs) == {0, 1}
        assert all(pong["pid"] for pong in pongs.values())
        health = middleware.health()
        assert health["backend"] == "process"
        assert [s["state"] for s in health["shards"]] == ["up", "up"]
        assert health["healthy"] and health["quarantined_batches"] == 0
        assert health["dead_letter_depth"] == 0
    finally:
        middleware.close()


def test_health_inline_and_single_graph():
    inline = build(2, "inline")
    single = SemanticMiddleware(config=MiddlewareConfig(shards=1))
    try:
        assert inline.health()["backend"] == "inline"
        assert inline.health()["healthy"]
        report = single.health()
        assert report["backend"] == "single"
        assert report["healthy"] and len(report["shards"]) == 1
        # health keys are folded into shard statistics everywhere
        for stats in (
            inline.ontology_layer.shard_statistics(),
            single.ontology_layer.shard_statistics(),
        ):
            for entry in stats:
                assert entry["state"] == "up" and entry["breaker"] == "closed"
    finally:
        inline.close()
        single.close()


# --------------------------------------------------------------------- #
# hung workers: deadline -> SIGKILL -> restart -> replay
# --------------------------------------------------------------------- #


def test_hung_worker_detected_killed_and_replayed(tmp_path):
    rng = random.Random(11)
    records = make_stream(rng, 80)
    middleware = build_faulted(
        tmp_path, "hang:op=ingest:shard=0:at=2:delay=120", shard_rpc_timeout=1.0
    )
    try:
        events = middleware.ingest_batch(records[:40])
        started = time.monotonic()
        events += middleware.ingest_batch(records[40:])  # one shard hangs here
        elapsed = time.monotonic() - started
        # detected within the RPC deadline (plus restart work), not the
        # 120 s the worker intended to sleep
        assert 1.0 <= elapsed < 30.0
        health = middleware.health()
        assert health["healthy"]
        assert sum(s["restarts"] for s in health["shards"]) == 1
        oracle = build(2, "inline", annotate_observations=True)
        try:
            oracle_events = oracle.ingest_batch(records[:40])
            oracle_events += oracle.ingest_batch(records[40:])
            assert [event_key(e) for e in events] == [
                event_key(e) for e in oracle_events
            ]
        finally:
            oracle.close()
        assert_matches_oracle(middleware, records)
    finally:
        middleware.close()


@pytest.mark.parametrize(
    "fault",
    ["crash:op=ingest:at=2", "crash_after:op=ingest:at=2"],
    ids=["crash-before", "crash-after"],
)
def test_crash_at_op_n_recovers_and_converges(tmp_path, fault):
    rng = random.Random(23)
    records = make_stream(rng, 80)
    middleware = build_faulted(tmp_path, fault)
    try:
        middleware.ingest_batch(records[:40])
        middleware.ingest_batch(records[40:])  # crashes once, replays clean
        health = middleware.health()
        assert health["healthy"]
        assert sum(s["restarts"] for s in health["shards"]) == 1
        assert_matches_oracle(middleware, records)
    finally:
        middleware.close()


@pytest.mark.parametrize(
    "fault", ["wal_error", "wal_fsync_error", "wal_torn"]
)
def test_wal_faults_failstop_and_recover(tmp_path, fault):
    # a disk fault mid-op leaves worker memory ahead of its log, so the
    # worker fail-stops; recovery replays from the last consistent state
    # (for wal_torn, past a genuinely torn tail frame)
    rng = random.Random(31)
    records = make_stream(rng, 80)
    middleware = build_faulted(tmp_path, f"{fault}:op=ingest:at=2")
    try:
        middleware.ingest_batch(records[:40])
        middleware.ingest_batch(records[40:])
        assert middleware.health()["healthy"]
        assert_matches_oracle(middleware, records)
    finally:
        middleware.close()


# --------------------------------------------------------------------- #
# poison batches -> dead-letter quarantine
# --------------------------------------------------------------------- #


def test_poison_batch_quarantined_after_replay_budget(tmp_path):
    rng = random.Random(47)
    records = make_stream(rng, 60)
    middleware = build_faulted(
        tmp_path, "crash:op=ingest:shard=0:at=2:count=99", replay_budget=2
    )
    try:
        middleware.ingest_batch(records[:30])
        middleware.ingest_batch(records[30:])  # shard 0 crashes on every replay
        health = middleware.health()
        assert health["quarantined_batches"] == 1
        assert health["dead_letter_depth"] == 1
        assert health["healthy"]  # quarantine clears the fault: shard serves on
        (entry,) = middleware.ontology_layer.dead_letter.entries()
        assert entry["kind"] == "poison_batch" and entry["shard"] == 0
        assert "2 replays" in entry["reason"]
        assert entry["records"], "quarantined records must be recoverable"
        # the journal holds the decoded canonical observations
        assert all("property_key" in record for record in entry["records"])
        # the journal survives on disk, one fsynced JSON line per entry
        journal = tmp_path / "state" / "dead-letter.jsonl"
        assert health["dead_letter_path"] == str(journal)
        lines = journal.read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["kind"] == "poison_batch"
        # the shard is healthy again: later batches land normally
        more = make_stream(random.Random(48), 30)
        middleware.ingest_batch(more)
        assert middleware.health()["healthy"]
        assert middleware.query(VIEW_QUERY).rows
    finally:
        middleware.close()


# --------------------------------------------------------------------- #
# circuit breaker: refuse loudly or serve degraded
# --------------------------------------------------------------------- #

TRIP_PLAN = "crash:op=ingest:shard=0:at=2:count=99,boot_crash:shard=0:at=2:count=99"


def test_restart_budget_exhaustion_trips_breaker(tmp_path):
    rng = random.Random(59)
    records = make_stream(rng, 60)
    middleware = build_faulted(
        tmp_path, TRIP_PLAN, shard_restart_budget=2, pending_queue_limit=1
    )
    try:
        middleware.ingest_batch(records[:30])
        middleware.ingest_batch(records[30:])  # shard 0 dies and cannot restart
        health = middleware.health()
        assert not health["healthy"]
        shard0 = health["shards"][0]
        assert shard0["state"] == "tripped" and shard0["breaker"] == "open"
        assert shard0["trips"] >= 1 and shard0["last_error"]
        # reads refuse loudly by default, naming the shard
        with pytest.raises(ShardUnavailableError) as excinfo:
            middleware.query(VIEW_QUERY)
        assert excinfo.value.shard == 0
        # statistics still answer (synthetic zeroed entry for the shard)
        per_shard = middleware.ontology_layer.shard_statistics()
        assert per_shard[0]["state"] == "tripped"
        # the in-flight batch parked; the queue is bounded
        assert middleware.health()["shards"][0]["pending_batches"] == 1
        with pytest.raises(ShardUnavailableError, match="queue is full"):
            middleware.ingest_batch(records[:30])
    finally:
        middleware.close()


def test_degraded_reads_serve_partial_results_then_recover(tmp_path):
    rng = random.Random(61)
    records = make_stream(rng, 60)
    middleware = build_faulted(
        tmp_path,
        # one op crash, then the next two boots fail -> budget (2)
        # exhausted -> trip; the half-open probe's boot succeeds
        "crash:op=ingest:shard=0:at=2,boot_crash:shard=0:at=2:count=2",
        shard_restart_budget=2,
        degraded_reads=True,
    )
    try:
        middleware.ingest_batch(records[:30])
        middleware.ingest_batch(records[30:])  # trips shard 0, batch parks
        assert middleware.health()["shards"][0]["state"] == "tripped"
        partial = middleware.query(VIEW_QUERY)
        assert partial.degraded and partial.missing_shards == (0,)
        # the surviving shard keeps answering and keeps ingesting
        assert partial.rows
        middleware.ingest_batch(make_stream(random.Random(62), 30))
        assert middleware.health()["shards"][0]["pending_batches"] >= 1
        # past the retry delay the next request probes, recovers the
        # worker from snapshot + WAL and flushes the parked batches
        time.sleep(0.3)
        recovered = middleware.query(VIEW_QUERY)
        assert not recovered.degraded and recovered.missing_shards == ()
        health = middleware.health()
        assert health["healthy"]
        assert health["shards"][0]["pending_batches"] == 0
        assert len(recovered) > len(partial)
    finally:
        middleware.close()


def test_degraded_ask_and_full_equivalence_after_recovery(tmp_path):
    rng = random.Random(67)
    records = make_stream(rng, 60)
    middleware = build_faulted(
        tmp_path,
        "crash:op=ingest:shard=0:at=2,boot_crash:shard=0:at=2:count=2",
        shard_restart_budget=2,
        degraded_reads=True,
    )
    try:
        middleware.ingest_batch(records[:30])
        middleware.ingest_batch(records[30:])
        ask = middleware.query("ASK WHERE { ?obs rdf:type ssn:Observation }")
        assert ask.degraded  # a partial ASK is still marked
        time.sleep(0.3)
        middleware.query(VIEW_QUERY)  # probe + flush
        assert_matches_oracle(middleware, records)
    finally:
        middleware.close()


# --------------------------------------------------------------------- #
# standing views across supervised restarts
# --------------------------------------------------------------------- #


def test_standing_views_survive_hang_kill_restart(tmp_path):
    rng = random.Random(71)
    records = make_stream(rng, 80)
    middleware = build_faulted(
        tmp_path, "hang:op=ingest:at=2:delay=120", shard_rpc_timeout=1.0
    )
    oracle = build(2, "inline", annotate_observations=True)
    try:
        views = middleware.register_standing(VIEW_QUERY, name="obs")
        oracle_views = oracle.register_standing(VIEW_QUERY, name="obs")
        middleware.ingest_batch(records[:40])
        oracle.ingest_batch(records[:40])
        middleware.ingest_batch(records[40:])  # hang -> kill -> restart
        oracle.ingest_batch(records[40:])
        assert view_row_bag(views) == view_row_bag(oracle_views)
    finally:
        middleware.close()
        oracle.close()


# --------------------------------------------------------------------- #
# randomized seeded fault schedules vs the un-faulted oracle
# --------------------------------------------------------------------- #


def _random_schedule(seed: int, faults: int = 3) -> FaultPlan:
    """A convergent random schedule: every fault fires exactly once
    (``count=1``) on an ingest/query/refresh RPC, so replay always
    makes progress and the run must end bag-equal to the oracle."""
    rng = random.Random(seed)
    kinds = ["hang", "crash", "crash_after", "wal_error", "wal_fsync_error", "wal_torn"]
    specs = []
    for _ in range(faults):
        kind = rng.choice(kinds)
        op = "ingest" if kind.startswith("wal") else rng.choice(
            ["ingest", "query_full", "refresh_views"]
        )
        specs.append(
            FaultSpec(
                kind=kind,
                shard=rng.choice([None, 0, 1]),
                op=OP_NAMES[op],
                at=rng.randint(2, 4),
                count=1,
                delay=120.0 if kind == "hang" else 0.0,
            )
        )
    return FaultPlan(tuple(specs))


def test_randomized_fault_schedule_matches_oracle(tmp_path):
    seed = int(os.environ.get("FAULT_SCHEDULE_SEED", random.randrange(2**32)))
    print(f"FAULT_SCHEDULE_SEED={seed}")
    plan = _random_schedule(seed)
    rng = random.Random(seed)
    records = make_stream(rng, 120)
    middleware = build_faulted(tmp_path, plan, shard_rpc_timeout=1.0)
    try:
        for start in range(0, 120, 30):
            middleware.ingest_batch(records[start : start + 30])
            middleware.query(VIEW_QUERY)
        middleware.ontology_layer._backend.refresh_views()
        assert_matches_oracle(middleware, records)
        assert middleware.health()["healthy"]
    finally:
        middleware.close()


# --------------------------------------------------------------------- #
# validation rejects -> dead-letter journal
# --------------------------------------------------------------------- #


class _GullibleMediator:
    """A mediator that resolves everything verbatim, including the
    non-finite readings the real mediators refuse upstream — validation
    is the net that has to catch them."""

    def __init__(self):
        from repro.core.mediator import Mediator

        self._real = Mediator()
        self.statistics = self._real.statistics

    def mediate(self, record):
        from repro.core.mediator import CanonicalObservation, MediationOutcome

        observation = CanonicalObservation(
            property_key="rainfall",
            value=record.value,
            unit="mm",
            timestamp=record.timestamp,
            source_id=record.source_id,
            source_kind=record.source_kind,
            area=record.metadata.get("area"),
            original_term=record.property_name,
        )
        return MediationOutcome(record, observation)

    def mediate_many(self, records):
        return [self.mediate(record) for record in records]


def _unvalidatable_stream():
    """Records a trusting mediator resolves happily but whose values or
    timestamps the validate stage must refuse to annotate."""
    from repro.streams.messages import ObservationRecord

    def record(value, timestamp):
        return ObservationRecord(
            source_id="mote-00",
            source_kind="wsn_mote",
            property_name="rainfall",
            value=value,
            timestamp=timestamp,
            unit="mm",
            metadata={"area": "thabo"},
        )

    good = [record(3.0, 600.0 * n) for n in range(4)]
    bad = [
        record(float("nan"), 3000.0),
        record(float("inf"), 3600.0),
        record(2.0, float("nan")),
    ]
    return good, bad


def _gullible_middleware(data_dir=None) -> SemanticMiddleware:
    return SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        mediator=_GullibleMediator(),
        config=MiddlewareConfig(
            shards=2,
            shard_backend="inline",
            annotate_observations=True,
            data_dir=data_dir,
        ),
    )


def test_validation_rejects_reach_dead_letter(tmp_path):
    good, bad = _unvalidatable_stream()
    middleware = _gullible_middleware(data_dir=str(tmp_path / "state"))
    try:
        events = middleware.ingest_batch(good + bad)
        assert len(events) == len(good)
        rejects = middleware.ontology_layer.statistics.validation_rejects
        assert rejects == len(bad)
        entries = [
            entry
            for entry in middleware.ontology_layer.dead_letter.entries()
            if entry["kind"] == "validation_reject"
        ]
        assert len(entries) == rejects
        assert sum("non-finite value" in e["reason"] for e in entries) == 2
        assert sum("non-finite timestamp" in e["reason"] for e in entries) == 1
        # the raw record rides along, so a fixed feed can be replayed
        assert all(
            entry["records"][0]["property_name"] == "rainfall" for entry in entries
        )
        health = middleware.health()
        assert health["validation_rejects"] == rejects
        assert health["dead_letter_depth"] == rejects
        # journalled to disk alongside the WAL state
        journal = tmp_path / "state" / "dead-letter.jsonl"
        assert len(journal.read_text().splitlines()) == rejects
    finally:
        middleware.close()


def test_validation_rejects_counted_without_data_dir():
    good, bad = _unvalidatable_stream()
    middleware = _gullible_middleware()
    try:
        # batches of one reject identically to one batch
        for record in good + bad:
            middleware.ingest_record(record)
        assert middleware.ontology_layer.statistics.validation_rejects == len(bad)
        assert middleware.health()["dead_letter_path"] is None
        assert middleware.health()["dead_letter_depth"] == len(bad)  # in-memory
    finally:
        middleware.close()


# --------------------------------------------------------------------- #
# corrupt store metadata
# --------------------------------------------------------------------- #


def test_corrupt_meta_json_raises_typed_error(tmp_path):
    store = tmp_path / "state"
    middleware = build(
        2, "inline", annotate_observations=True, data_dir=str(store)
    )
    middleware.ingest_batch(make_stream(random.Random(89), 30))
    middleware.close()
    meta = store / "meta.json"
    meta.write_text("{not json")
    with pytest.raises(StoreMetadataError, match="corrupt"):
        StorePersistence(str(store)).validate_meta()
    # recovery through the middleware surfaces the same typed error
    with pytest.raises(StoreMetadataError, match="corrupt"):
        build(2, "inline", annotate_observations=True, data_dir=str(store))
    meta.write_text(json.dumps({"shards": "two"}))
    with pytest.raises(StoreMetadataError, match="does not describe"):
        StorePersistence(str(store)).validate_meta()
    meta.write_text(json.dumps([1, 2]))
    with pytest.raises(StoreMetadataError, match="does not describe"):
        StorePersistence(str(store)).validate_meta()
