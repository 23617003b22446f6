"""Process-based shard workers vs the inline (and single-graph) oracles.

The ``process`` shard backend forks one worker per partition; the inline
backend — itself bag-equal to the single shared graph — is its
equivalence oracle.  For any record stream the two must produce the same
canonical events (including minted annotation IRIs), the same federated
query solution bags, and the same standing-view rows and push deltas.

The crash suite SIGKILLs a worker mid-stream (seed echoed for replay,
override with ``KILL_RESTART_SEED``) and requires the supervisor to
respawn it from its WAL, re-register its views, replay the in-flight
batch, and end bag-equal to the oracle that never crashed.
"""

from __future__ import annotations

import os
import random
import signal
import sys
import time
from collections import Counter
from dataclasses import asdict

import pytest

from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.core.shard import Shard
from repro.core.shard_backend import resolve_shard_backend
from repro.core.shard_router import ShardRouter
from repro.core.shard_wire import OP_TABLE, OPS, OPS_BY_OPCODE
from repro.dews.system import DewsConfig, DroughtEarlyWarningSystem
from repro.ontologies.library import build_unified_ontology
from repro.ontologies.vocabulary import AFRICRID
from repro.semantics.rdf.term import BlankNode
from repro.semantics.rules import InferenceTrace
from repro.semantics.sparql import planner
from repro.workloads.scenario import build_free_state_scenario

from test_sharding import DISTRICTS, QUERIES, event_key, make_stream, solution_set

VIEW_QUERY = """SELECT ?obs ?v WHERE {
    ?obs rdf:type ssn:Observation .
    ?obs ssn:hasResult ?r .
    ?r ssn:hasValue ?v .
}"""

AREA_VIEW_QUERY = """SELECT ?obs WHERE {
    ?obs rdf:type ssn:Observation .
    ?obs africrid:area "thabo" .
}"""


def build(shards: int, backend: str, **config_kwargs) -> SemanticMiddleware:
    return SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(
            shards=shards, shard_backend=backend, **config_kwargs
        ),
    )


def view_row_bag(views) -> Counter:
    return Counter(
        frozenset((var.name, str(term)) for var, term in row.items())
        for view in views
        for row in view.rows()
    )


def _canonical_triple(triple) -> str:
    # BlankNode labels come from a process-global counter, so two
    # independently built middlewares name the same ontology axiom
    # b0 in one and b3 in the other.  Blank nodes are label-agnostic
    # by RDF semantics; mask the label before bagging.
    parts = []
    for term in (triple.subject, triple.predicate, triple.object):
        parts.append("_:*" if isinstance(term, BlankNode) else str(term))
    return " ".join(parts)


def graph_bags(layer):
    return [Counter(map(_canonical_triple, graph)) for graph in layer.graphs]


# --------------------------------------------------------------------- #
# backend selection
# --------------------------------------------------------------------- #


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_BACKEND", raising=False)
    assert resolve_shard_backend(None) == "inline"
    monkeypatch.setenv("REPRO_SHARD_BACKEND", "process")
    assert resolve_shard_backend(None) == "process"
    # an explicit knob wins over the environment
    assert resolve_shard_backend("inline") == "inline"
    with pytest.raises(ValueError):
        resolve_shard_backend("threads")


def test_single_shard_ignores_backend(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_BACKEND", "process")
    middleware = SemanticMiddleware(config=MiddlewareConfig(shards=1))
    try:
        assert middleware.ontology_layer.shard_backend == "inline"
        assert not middleware.ontology_layer.sharded
    finally:
        middleware.close()


# --------------------------------------------------------------------- #
# randomized process-vs-inline equivalence
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [3, 17])
def test_process_matches_inline_randomized(seed):
    rng = random.Random(seed)
    records = make_stream(rng, 140)
    inline = build(4, "inline")
    proc = build(4, "process")
    try:
        half = len(records) // 2
        inline_events = inline.ingest_batch(records[:half])
        process_events = proc.ingest_batch(records[:half])
        # one-record tail: batches of one must match too
        for record in records[half:]:
            event = inline.ingest_record(record)
            if event is not None:
                inline_events.append(event)
            event = proc.ingest_record(record)
            if event is not None:
                process_events.append(event)
        assert [event_key(e) for e in process_events] == [
            event_key(e) for e in inline_events
        ]
        for text in QUERIES:
            assert solution_set(proc.query(text)) == solution_set(
                inline.query(text)
            ), text
        # entailment federates through the workers' reasoners
        entail_query = QUERIES[0]
        assert solution_set(proc.query(entail_query, entail=True)) == solution_set(
            inline.query(entail_query, entail=True)
        )
        assert graph_bags(proc.ontology_layer) == graph_bags(inline.ontology_layer)
    finally:
        proc.close()
        inline.close()


def test_process_reason_per_batch_matches_inline():
    rng = random.Random(5)
    records = make_stream(rng, 80)
    inline = build(3, "inline", reason_per_batch=True)
    proc = build(3, "process", reason_per_batch=True)
    try:
        inline_events = inline.ingest_batch(records)
        process_events = proc.ingest_batch(records)
        assert [event_key(e) for e in process_events] == [
            event_key(e) for e in inline_events
        ]
        for text in QUERIES:
            assert solution_set(proc.query(text)) == solution_set(inline.query(text))
    finally:
        proc.close()
        inline.close()


def test_process_materialize_inferences_matches_inline():
    rng = random.Random(9)
    records = make_stream(rng, 60)
    inline = build(3, "inline")
    proc = build(3, "process")
    try:
        inline.ingest_batch(records)
        proc.ingest_batch(records)
        inline_traces = inline.ontology_layer.materialize_inferences()
        process_traces = proc.ontology_layer.materialize_inferences()
        assert [t.inferred for t in process_traces] == [
            t.inferred for t in inline_traces
        ]
        assert graph_bags(proc.ontology_layer) == graph_bags(inline.ontology_layer)
    finally:
        proc.close()
        inline.close()


# --------------------------------------------------------------------- #
# standing views over the wire
# --------------------------------------------------------------------- #


def test_process_standing_views_match_inline():
    rng = random.Random(21)
    records = make_stream(rng, 110)
    inline = build(3, "inline")
    proc = build(3, "process")
    try:
        inline_views = inline.register_standing(VIEW_QUERY, name="vals", push=True)
        process_views = proc.register_standing(VIEW_QUERY, name="vals", push=True)
        inline_deltas, process_deltas = [], []
        for view in inline_views:
            view.subscribe(
                lambda d: inline_deltas.append((len(d.added), len(d.removed)))
            )
        for view in process_views:
            view.subscribe(
                lambda d: process_deltas.append((len(d.added), len(d.removed)))
            )
        for start in range(0, len(records), 40):
            inline.ingest_batch(records[start : start + 40])
            proc.ingest_batch(records[start : start + 40])
        assert view_row_bag(process_views) == view_row_bag(inline_views)
        # the wire ships itemised deltas, not re-polls: same pushes, and
        # never a full re-materialization
        assert sorted(process_deltas) == sorted(inline_deltas)
        stats = proc.ontology_layer.standing_view_statistics()
        assert stats["full_refreshes"] == 0
        assert stats["delta_updates"] > 0
        # the registered query is served from the workers' views
        assert solution_set(proc.query(VIEW_QUERY)) == solution_set(
            inline.query(VIEW_QUERY)
        )
    finally:
        proc.close()
        inline.close()


def test_process_view_handles_are_per_shard():
    rng = random.Random(2)
    records = make_stream(rng, 60)
    proc = build(3, "process")
    try:
        views = proc.register_standing(AREA_VIEW_QUERY, name="thabo-obs")
        assert len(views) == 3
        assert [view.shard for view in views] == [0, 1, 2]
        proc.ingest_batch(records)
        # "thabo" lives on exactly one shard; the other partitions' views
        # stay empty
        populated = [view for view in views if view.rows()]
        assert len(populated) <= 1
        # re-registration returns the same handles, not duplicates
        again = proc.register_standing(AREA_VIEW_QUERY, name="thabo-obs")
        assert [id(v) for v in again] == [id(v) for v in views]
    finally:
        proc.close()


# --------------------------------------------------------------------- #
# durability: graceful restart, seeding, crash recovery
# --------------------------------------------------------------------- #


def test_process_persistence_recovers_content_and_views(tmp_path):
    rng = random.Random(31)
    records = make_stream(rng, 90)
    first = build(3, "process", data_dir=str(tmp_path))
    first.register_standing(VIEW_QUERY, name="vals", push=True)
    first.ingest_batch(records[:60])
    content = graph_bags(first.ontology_layer)
    first.close()

    second = build(3, "process", data_dir=str(tmp_path))
    try:
        assert second.ontology_layer.recovered
        assert graph_bags(second.ontology_layer) == content
        views = second.ontology_layer.standing_views()
        assert [view.name for view in views] == ["vals"] * 3
        # ingest continues past the recovered IRIs without collisions
        oracle = build(3, "inline")
        oracle.register_standing(VIEW_QUERY, name="vals", push=True)
        oracle.ingest_batch(records[:60])
        second_events = second.ingest_batch(records[60:])
        oracle_events = oracle.ingest_batch(records[60:])
        assert [event_key(e) for e in second_events] == [
            event_key(e) for e in oracle_events
        ]
        assert view_row_bag(views) == view_row_bag(
            oracle.ontology_layer.standing_views()
        )
        oracle.close()
    finally:
        second.close()


def test_worker_checkpoint_settles_heap(tmp_path):
    """A worker takes its full collection when an op's commit rolls a
    snapshot and parks the survivors, so no later collection walks the
    partition (run in process: the class is the worker minus the pipe)."""
    import gc

    from repro.core.shard_worker import _ShardWorker
    from repro.ik.knowledge_base import IndigenousKnowledgeBase
    from repro.persistence.store import ShardPersistence
    from repro.semantics.rdf.graph import Graph
    from repro.semantics.rdf.triple import Triple

    persistence = ShardPersistence(tmp_path / "shard-0", fsync="never")
    worker = _ShardWorker(Graph(), IndigenousKnowledgeBase(), persistence)
    replicate = OPS["replicate"]

    def replicate_over_the_wire(subject, obj):
        triples = [Triple(AFRICRID[subject], AFRICRID["p"], AFRICRID[obj])]
        worker.dispatch(replicate.opcode, replicate.request.encode(triples))

    assert gc.get_freeze_count() == 0
    try:
        replicate_over_the_wire("a", "b")
        assert persistence.generation == 0 and gc.get_freeze_count() == 0
        persistence.snapshot_interval = 1
        replicate_over_the_wire("b", "c")
        assert persistence.generation == 1 and gc.get_freeze_count() > 0
        # everything that survived is out of the collector's reach
        assert not gc.get_objects(generation=2)
    finally:
        gc.unfreeze()
        persistence.close()


def test_snapshot_seeds_views_without_rematerializing(tmp_path):
    rng = random.Random(41)
    records = make_stream(rng, 70)
    first = build(2, "process", data_dir=str(tmp_path))
    first.register_standing(VIEW_QUERY, name="vals")
    first.ingest_batch(records)
    # roll a snapshot carrying the views' rows, leaving an empty WAL tail
    first.ontology_layer.checkpoint()
    first.close()

    second = build(2, "process", data_dir=str(tmp_path))
    try:
        views = second.ontology_layer.standing_views()
        assert all(view.seeded for view in views)
        oracle = build(2, "inline")
        oracle.register_standing(VIEW_QUERY, name="vals")
        oracle.ingest_batch(records)
        assert view_row_bag(views) == view_row_bag(
            oracle.ontology_layer.standing_views()
        )
        oracle.close()
    finally:
        second.close()


def test_snapshot_seed_falls_back_on_query_text_mismatch(tmp_path):
    rng = random.Random(43)
    records = make_stream(rng, 50)
    first = build(2, "process", data_dir=str(tmp_path))
    first.register_standing(VIEW_QUERY, name="vals")
    first.ingest_batch(records)
    first.ontology_layer.checkpoint()
    first.close()
    # swap the registration under the same name: the stored rows answer a
    # different query, so they must NOT seed the new view
    registrations = first.ontology_layer.persistence.standing_registrations()
    assert registrations and registrations[0]["name"] == "vals"
    first.ontology_layer.persistence.record_standing(
        "vals", AREA_VIEW_QUERY
    )

    second = build(2, "process", data_dir=str(tmp_path))
    try:
        views = [
            view
            for view in second.ontology_layer.standing_views()
            if view.text == AREA_VIEW_QUERY
        ]
        assert views and not any(view.seeded for view in views)
        oracle = build(2, "inline")
        oracle.register_standing(AREA_VIEW_QUERY, name="vals")
        oracle.ingest_batch(records)
        assert view_row_bag(views) == view_row_bag(
            oracle.ontology_layer.standing_views()
        )
        oracle.close()
    finally:
        second.close()


def test_meta_rejects_backend_mismatch(tmp_path):
    first = build(2, "process", data_dir=str(tmp_path))
    first.ingest_batch(make_stream(random.Random(1), 20))
    first.close()
    with pytest.raises(ValueError, match="shard backend"):
        build(2, "inline", data_dir=str(tmp_path))


def test_worker_sigkill_mid_stream_recovers_and_replays(tmp_path):
    seed = int(os.environ.get("KILL_RESTART_SEED", random.randrange(2**31)))
    print(f"KILL_RESTART_SEED={seed}")
    rng = random.Random(seed)
    records = make_stream(rng, 120)
    proc = build(3, "process", data_dir=str(tmp_path))
    inline = build(3, "inline")
    try:
        proc.register_standing(VIEW_QUERY, name="vals", push=True)
        inline.register_standing(VIEW_QUERY, name="vals", push=True)
        cut = rng.randrange(30, 90)
        process_events = proc.ingest_batch(records[:cut])
        inline_events = inline.ingest_batch(records[:cut])
        victim = rng.randrange(3)
        os.kill(
            proc.ontology_layer.shard_statistics()[victim]["pid"], signal.SIGKILL
        )
        time.sleep(0.1)
        # the next batch hits the dead pipe mid-scatter; the supervisor
        # must respawn from the WAL and replay the in-flight sub-batch
        process_events += proc.ingest_batch(records[cut:])
        inline_events += inline.ingest_batch(records[cut:])
        assert [event_key(e) for e in process_events] == [
            event_key(e) for e in inline_events
        ]
        stats = proc.ontology_layer.shard_statistics()
        assert sum(entry["restarts"] for entry in stats) >= 1
        for text in QUERIES:
            assert solution_set(proc.query(text)) == solution_set(inline.query(text))
        assert graph_bags(proc.ontology_layer) == graph_bags(inline.ontology_layer)
        assert view_row_bag(proc.ontology_layer.standing_views()) == view_row_bag(
            inline.ontology_layer.standing_views()
        )
    finally:
        proc.close()
        inline.close()


def test_worker_death_without_data_dir_raises():
    proc = build(2, "process")
    try:
        records = make_stream(random.Random(4), 30)
        proc.ingest_batch(records)
        for entry in proc.ontology_layer.shard_statistics():
            os.kill(entry["pid"], signal.SIGKILL)
        time.sleep(0.1)
        with pytest.raises(RuntimeError, match="no data_dir"):
            proc.ingest_batch(records)
    finally:
        proc.ontology_layer._backend._killed = True  # workers are already gone
        proc.close()


# --------------------------------------------------------------------- #
# observability and lifecycle
# --------------------------------------------------------------------- #


def test_shard_statistics_shape():
    proc = build(3, "process")
    inline = build(3, "inline")
    single = SemanticMiddleware(config=MiddlewareConfig(shards=1))
    try:
        records = make_stream(random.Random(6), 60)
        proc.ingest_batch(records)
        inline.ingest_batch(records)
        keys = {"shard", "triples", "queue_depth", "last_batch_latency", "pid", "restarts"}
        for layer in (proc.ontology_layer, inline.ontology_layer, single.ontology_layer):
            stats = layer.shard_statistics()
            assert all(keys <= set(entry) for entry in stats)
        process_stats = proc.ontology_layer.shard_statistics()
        assert len({entry["pid"] for entry in process_stats}) == 3
        assert all(entry["pid"] != os.getpid() for entry in process_stats)
        inline_stats = inline.ontology_layer.shard_statistics()
        assert all(entry["pid"] == os.getpid() for entry in inline_stats)
        assert proc.ontology_layer.sharding_statistics()["backend"] == "process"
        assert inline.ontology_layer.sharding_statistics()["backend"] == "inline"
    finally:
        proc.close()
        inline.close()
        single.close()


# --------------------------------------------------------------------- #
# the op table
# --------------------------------------------------------------------- #

#: what a shard that holds nothing answers, per op (stats / ping / dump
#: are checked field by field below)
DOCUMENTED_EMPTY = {
    "ingest": 0,
    "reason": None,
    "query_ask": False,
    "query_full": ([], []),
    "register_view": {"rows": 0, "seeded": False},
    "refresh_views": [],
    "view_rows": ([], []),
    "materialize": InferenceTrace(),
    "replicate": 0,
    "retract": 0,
    "checkpoint": None,
    "ping": {"pid": None, "triples": 0, "tripped": True},
}


def test_op_table_is_complete_and_round_trips():
    # one row per op, one op per opcode
    assert len(OP_TABLE) == len(OPS) == len(OPS_BY_OPCODE)
    # the rows are exactly the Shard methods a backend runs: every public
    # method but ``run`` itself, which executes a row and applies its
    # ``writes`` rule on both transports
    public = {
        name
        for name, member in vars(Shard).items()
        if callable(member) and not name.startswith("_")
    }
    assert set(OPS) == public - {"run"}

    # representative values: a mediated make_stream batch and the terms of
    # the graph it was ingested into
    with build(1, "inline") as middleware:
        layer = middleware.ontology_layer
        records = make_stream(random.Random(31), 40)
        outcomes = [layer.mediator.mediate(record) for record in records]
        pairs = [
            (outcome.observation, index)
            for index, outcome in enumerate(outcomes, start=1)
            if outcome.resolved
        ]
        assert len(pairs) > 20
        shard = layer._backend.shards[0]
        assert shard.ingest(pairs) > 0
        view = shard.register_view(VIEW_QUERY, name="vals", federated=True)
        variables, rows = shard.view_rows(VIEW_QUERY)
        assert len(rows) > 10
        everything = list(shard.graph)
        triples = everything[:: len(everything) // 12]  # axioms and annotations
        samples = {
            "ingest": ((pairs,), 7),
            "reason": ((), None),
            "query_ask": ((QUERIES[-1], True), True),
            "query_full": ((VIEW_QUERY, False), shard.query_full(VIEW_QUERY)),
            "register_view": ((VIEW_QUERY, "vals", True), view),
            "refresh_views": (
                (),
                [(VIEW_QUERY, False, variables, rows[:3], rows[3:5]),
                 ("other", True, variables, [], rows[:1])],
            ),
            "view_rows": ((VIEW_QUERY,), (variables, rows)),
            "stats": ((), shard.stats()),
            "materialize": ((True,), InferenceTrace(2, 5, {"rdfs9": 3, "rdfs7": 2})),
            "replicate": ((triples,), len(triples)),
            "retract": ((triples[0].subject,), 4),
            "dump": ((), shard.graph),
            "checkpoint": ((), None),
            "ping": ((), shard.ping()),
        }
        assert set(samples) == set(OPS)
        for name, (args, result) in samples.items():
            op = OPS[name]
            assert op.request.decode(op.request.encode(*args)) == args, name
            decoded = op.reply.decode(op.reply.encode(result))
            if name == "register_view":
                # the view stays with its shard; its size and seeding travel
                assert decoded == {"rows": len(rows), "seeded": False}
            elif name == "dump":
                assert Counter(map(_canonical_triple, decoded)) == Counter(
                    map(_canonical_triple, result)
                )
            else:
                assert decoded == result, name

    for name, op in OPS.items():
        empty = op.reply.decode(op.empty)
        if name == "stats":
            assert empty["tripped"] and empty["triples"] == 0 and empty["views"] == []
            assert empty["planner"] == asdict(planner.PlannerStatistics())
        elif name == "dump":
            assert len(empty) == 0
        else:
            assert empty == DOCUMENTED_EMPTY[name], name


LAYOUTS = [(1, "inline"), (3, "inline"), (3, "process")]


OPTIONAL_ORDERED_QUERY = """SELECT DISTINCT ?obs ?p WHERE {
    ?obs rdf:type ssn:Observation .
    OPTIONAL { ?obs ssn:observedProperty ?p }
} ORDER BY ?obs LIMIT 15"""


@pytest.mark.parametrize("shards, backend", LAYOUTS)
def test_one_shape_on_every_layout(shards, backend, tmp_path, monkeypatch):
    """One ``Shard``, two transports: every layout reports the same shape,
    counts the same receipts, builds the same graphs one record at a time
    or in one batch and answers through the one federator."""
    merges = []
    merge = planner.merge_federated_solutions

    def recording(*args, **kwargs):
        merges.append(sys._getframe(1).f_code.co_name)
        return merge(*args, **kwargs)

    monkeypatch.setattr(planner, "merge_federated_solutions", recording)
    records = make_stream(random.Random(23), 90)
    reference = build(1, "inline")
    by_batch = build(shards, backend, data_dir=str(tmp_path / "data"))
    by_record = build(shards, backend)
    try:
        expected = reference.ingest_batch(records)
        receipt = by_batch.ingest_batch(records)
        assert (receipt.accepted, receipt.rejected, receipt.quarantined) == (
            expected.accepted,
            expected.rejected,
            expected.quarantined,
        )
        assert receipt.rejected > 0  # the stream carries junk on purpose
        assert [event_key(e) for e in receipt] == [event_key(e) for e in expected]

        # batches of one and one whole batch build the same graphs
        looped = [by_record.ingest_record(record) for record in records]
        assert [event_key(e) for e in looped if e is not None] == [
            event_key(e) for e in receipt
        ]
        assert graph_bags(by_record.ontology_layer) == graph_bags(
            by_batch.ontology_layer
        )

        # one federator: an ASK only the last shard can answer and a SELECT
        # through every solution modifier, asserted and entailed, are
        # bag-equal to the one-shard answer — merged by the same function
        # on both sharded layouts, not merged at all on one shard
        last = [
            district
            for district in DISTRICTS
            if ShardRouter(shards).shard_for(district) == shards - 1
        ]
        ask_last = (
            "ASK WHERE { ?obs ssn:featureOfInterest "
            f"<{AFRICRID[f'feature/{last[0]}'].value}> }}"
        )
        for entail in (False, True):
            assert by_batch.query(ask_last, entail=entail).ask
            assert reference.query(ask_last, entail=entail).ask
            assert not by_batch.query(
                ask_last.replace(last[0], "nowhere"), entail=entail
            ).ask
            answer = by_batch.query(OPTIONAL_ORDERED_QUERY, entail=entail)
            assert len(answer) == 15
            assert solution_set(answer) == solution_set(
                reference.query(OPTIONAL_ORDERED_QUERY, entail=entail)
            )
        assert set(merges) == ({"federate"} if shards > 1 else set())

        layer = by_batch.ontology_layer
        reference_layer = reference.ontology_layer
        stats = layer.shard_statistics()
        health = layer.health()["shards"]
        assert len(stats) == len(health) == shards
        for entry in stats:
            assert set(entry) == set(reference_layer.shard_statistics()[0])
        for entry in health:
            assert set(entry) == set(reference_layer.health()["shards"][0])
        # the durable layout reports its segment depth in the shared shape
        assert sum(entry["wal_records"] for entry in stats) > 0
        assert all(
            entry["wal_records"] == 0 and entry["generation"] == 0
            for entry in by_record.ontology_layer.shard_statistics()
        )
        assert layer.triple_count() == sum(entry["triples"] for entry in stats)
        # versions(): one write counter per shard, moved by any write
        before = layer.versions()
        assert len(before) == shards
        by_batch.ingest_batch(make_stream(random.Random(24), 30))
        assert layer.versions() != before

        if backend == "inline":
            # in-process shards hand out the live objects, not copies
            assert all(a is b for a, b in zip(layer.graphs, layer.graphs))
            assert [r.graph for r in layer.reasoners] == layer.graphs
            assert (layer.graph is layer.graphs[0]) == (shards == 1)
        else:
            assert layer.reasoners == []
    finally:
        reference.close()
        by_batch.close()
        by_record.close()


def test_context_managers_close_idempotently():
    records = make_stream(random.Random(8), 30)
    with build(2, "process") as middleware:
        middleware.ingest_batch(records)
        pids = [e["pid"] for e in middleware.ontology_layer.shard_statistics()]
    for pid in pids:
        # the workers must be gone after __exit__
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    middleware.close()  # second close is a no-op

    with SemanticMiddleware(config=MiddlewareConfig(shards=1)) as single:
        single.ingest_batch(records)
    single.close()

    layer_owner = build(2, "inline")
    with layer_owner.ontology_layer as layer:
        assert layer.sharded
    layer_owner.close()


def test_dews_process_backend_end_to_end():
    scenario = build_free_state_scenario(
        districts=["Mangaung", "Xhariep"],
        motes_per_district=3,
        observers_per_district=2,
        stations_per_district=1,
        seed=3,
    )
    config = DewsConfig(
        days=25,
        forecast_every_days=10,
        forecast_start_day=10,
        annotate_observations=True,
        shards=2,
        shard_backend="process",
        seed=3,
    )
    with DroughtEarlyWarningSystem(scenario, config=config) as dews:
        result = dews.run()
        stats = result.middleware_statistics
        assert stats["sharding"]["shards"] == 2
        assert stats["sharding"]["backend"] == "process"
        assert stats["ontology_layer"].records_in > 0
        assert stats["graph_triples"] == sum(stats["sharding"]["shard_sizes"])


def test_process_services_visible_from_every_partition(monkeypatch):
    """The catalogue write path: a service's triples are built once and
    reach every partition in one ``replicate`` round (one ``retract`` round
    to unregister) — on both transports, with the same catalogue answers."""
    from repro.core.services import SemanticService
    from repro.core.shard_wire import OP_REPLICATE, OP_RETRACT_SUBJECT
    from repro.core.shard_worker import ProcessShardBackend
    from repro.ontologies.vocabulary import DROUGHT
    from repro.semantics.rdf.namespace import RDF
    from repro.semantics.rdf.triple import Triple

    rounds = []
    scatter = ProcessShardBackend.scatter

    def recording(self, requests):
        requests = list(requests)
        rounds.append([opcode for _, opcode, _ in requests])
        return scatter(self, requests)

    monkeypatch.setattr(ProcessShardBackend, "scatter", recording)
    text = """SELECT ?s WHERE {
        ?s rdf:type africrid:SemanticService .
    }"""
    service = SemanticService(
        name="forecast-feed",
        topic="forecast/#",
        description="District drought forecasts",
        provides=[DROUGHT.DroughtEvent],
    )
    described = Triple(service.iri(), RDF.type, AFRICRID.SemanticService)
    with build(3, "process") as proc, build(3, "inline") as inline:
        # construction publishes the three default services: one round each
        writes = [ops for ops in rounds if OP_REPLICATE in ops]
        assert 0 < len(writes) <= 3
        assert all(ops == [OP_REPLICATE] * 3 for ops in writes)

        del rounds[:]
        for middleware in (proc, inline):
            middleware.ontology_layer.services.register(service)
        assert rounds == [[OP_REPLICATE] * 3]
        for middleware in (proc, inline):
            layer = middleware.ontology_layer
            assert len(layer.services.all()) == 4
            assert len(middleware.query(text).solutions) == 4
            assert len(layer.graphs) == 3
            assert all(described in graph for graph in layer.graphs)

        del rounds[:]
        for middleware in (proc, inline):
            assert middleware.ontology_layer.services.unregister("forecast-feed")
        assert rounds == [[OP_RETRACT_SUBJECT] * 3]
        for middleware in (proc, inline):
            layer = middleware.ontology_layer
            assert len(middleware.query(text).solutions) == 3
            assert not any(described in graph for graph in layer.graphs)
