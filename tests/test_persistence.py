"""Durability tests: WAL framing, snapshots, and kill-restart equivalence.

The randomized kill-restart suites draw their seed from the
``KILL_RESTART_SEED`` environment variable when set (CI exports one per
run); every assertion message echoes the seed so a failure reproduces with
``KILL_RESTART_SEED=<seed> pytest tests/test_persistence.py``.
"""

import json
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.ontologies.library import build_unified_ontology
from repro.persistence import (
    GraphWal,
    ShardPersistence,
    StorePersistence,
    WriteAheadLog,
    load_snapshot,
    replay_wal,
    restore_graph,
    write_snapshot,
)
from repro.persistence.codec import decode_term, encode_term, read_uvarint, write_uvarint
from repro.persistence.wal import apply_ops
from repro.semantics.rdf.graph import ChangeTracker, Graph
from repro.semantics.rdf.term import BlankNode, IRI, Literal, Variable
from repro.semantics.rdf.triple import Triple
from repro.streams.messages import ObservationRecord

SEED = int(os.environ.get("KILL_RESTART_SEED", random.SystemRandom().randrange(2**32)))

EX = "http://example.org/"


def _iri(name):
    return IRI(EX + name)


def _triple(i):
    return Triple(_iri(f"s{i % 17}"), _iri(f"p{i % 5}"), Literal(str(i)))


# --------------------------------------------------------------------- #
# codec
# --------------------------------------------------------------------- #


class TestCodec:
    def test_uvarint_round_trip(self):
        buffer = bytearray()
        values = [0, 1, 127, 128, 300, 2**20, 2**40]
        for value in values:
            write_uvarint(buffer, value)
        data = bytes(buffer)
        offset = 0
        for value in values:
            decoded, offset = read_uvarint(data, offset)
            assert decoded == value
        assert offset == len(data)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)

    def test_uvarint_truncated(self):
        buffer = bytearray()
        write_uvarint(buffer, 300)
        with pytest.raises(ValueError):
            read_uvarint(bytes(buffer[:1]), 0)

    @pytest.mark.parametrize(
        "term",
        [
            IRI("http://example.org/x"),
            Literal("plain"),
            Literal("5", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer")),
            Literal("hallo", lang="af"),
            Literal(""),
            Literal("unicode ♞ ümlaut"),
            BlankNode("b42"),
            Variable("v"),
        ],
    )
    def test_term_round_trip(self, term):
        encoded = encode_term(term)
        decoded, offset = decode_term(encoded)
        assert decoded == term
        assert offset == len(encoded)

    def test_term_truncation_raises(self):
        encoded = encode_term(IRI("http://example.org/long-enough-to-cut"))
        for cut in range(len(encoded)):
            with pytest.raises(ValueError):
                decode_term(encoded[:cut])


# --------------------------------------------------------------------- #
# WAL framing and torn tails
# --------------------------------------------------------------------- #


class TestWriteAheadLog:
    def _scripted(self, path):
        wal = WriteAheadLog(path, fsync="always")
        wal.append_term(0, _iri("s0"))
        wal.append_term(1, _iri("p0"))
        wal.append_term(2, Literal("0"))
        wal.append_add((0, 1, 2))
        wal.append_remove((0, 1, 2))
        wal.append_clear()
        wal.append_add((0, 1, 2))
        wal.close()

    def test_replay_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        self._scripted(path)
        ops, valid = replay_wal(path)
        assert valid == path.stat().st_size
        assert [op[0] for op in ops] == [
            "term", "term", "term", "add", "remove", "clear", "add",
        ]
        assert ops[0] == ("term", 0, _iri("s0"))
        assert ops[3] == ("add", 0, 1, 2)

    def test_torn_tail_at_every_byte_offset(self, tmp_path):
        """Truncating anywhere must yield a clean record-prefix replay."""
        path = tmp_path / "wal.log"
        self._scripted(path)
        full_ops, _ = replay_wal(path)
        data = path.read_bytes()
        probe = tmp_path / "probe.log"
        for cut in range(len(data) + 1):
            probe.write_bytes(data[:cut])
            ops, valid = replay_wal(probe)
            # replay never invents records: always a prefix of the full log
            assert ops == full_ops[: len(ops)], f"cut={cut}"
            assert valid <= cut

    def test_corrupt_payload_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        self._scripted(path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the final record's payload
        path.write_bytes(bytes(data))
        ops, valid = replay_wal(path)
        assert [op[0] for op in ops] == ["term", "term", "term", "add", "remove", "clear"]
        assert valid < len(data)

    def test_kill_loses_exactly_the_uncommitted_buffer(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="batch")
        wal.append_add((1, 2, 3))
        wal.commit()
        wal.append_add((4, 5, 6))  # buffered, never committed
        wal.kill()
        ops, _ = replay_wal(path)
        assert ops == [("add", 1, 2, 3)]

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "w.log", fsync="sometimes")


# --------------------------------------------------------------------- #
# snapshots
# --------------------------------------------------------------------- #


class TestSnapshot:
    def _graph(self):
        graph = Graph(identifier=IRI(EX + "g"))
        for i in range(25):
            graph.add(_triple(i))
        graph.add(Triple(_iri("s"), _iri("p"), Literal("tagged", lang="af")))
        graph.add(Triple(BlankNode("b1"), _iri("p"), Literal("3.5", datatype=IRI(
            "http://www.w3.org/2001/XMLSchema#decimal"))))
        return graph

    def test_round_trip(self, tmp_path):
        graph = self._graph()
        path = tmp_path / "snap.bin"
        write_snapshot(graph, path)
        data = load_snapshot(path)
        assert data is not None
        restored = restore_graph(data)
        assert set(restored) == set(graph)
        assert restored.identifier == graph.identifier
        # id-for-id dictionary equality, not just triple equality: WAL
        # records written against the old ids must stay decodable
        assert restored.dictionary.terms == graph.dictionary.terms
        assert dict(restored.namespaces.bindings()) == dict(graph.namespaces.bindings())

    def test_corruption_detected_at_every_byte(self, tmp_path):
        graph = self._graph()
        path = tmp_path / "snap.bin"
        write_snapshot(graph, path)
        data = bytearray(path.read_bytes())
        rng = random.Random(SEED)
        probe = tmp_path / "corrupt.bin"
        for _ in range(40):
            position = rng.randrange(len(data))
            corrupted = bytearray(data)
            corrupted[position] ^= 0xFF
            probe.write_bytes(bytes(corrupted))
            loaded = load_snapshot(probe)
            if loaded is not None:
                # the only undetectable flips would be inside ignored
                # padding, of which the format has none — so a successful
                # load must decode the identical graph
                assert set(restore_graph(loaded)) == set(graph), f"seed={SEED}"

    def test_truncation_returns_none(self, tmp_path):
        graph = self._graph()
        path = tmp_path / "snap.bin"
        write_snapshot(graph, path)
        data = path.read_bytes()
        probe = tmp_path / "cut.bin"
        for cut in (0, 4, 12, len(data) // 2, len(data) - 1):
            probe.write_bytes(data[:cut])
            assert load_snapshot(probe) is None

    def test_missing_file_returns_none(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.bin") is None


# --------------------------------------------------------------------- #
# GraphWal: the journal hook
# --------------------------------------------------------------------- #


class TestGraphWal:
    def test_scripted_sequence_replays_identically(self, tmp_path):
        graph = Graph()
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="always")
        GraphWal(graph, wal)
        graph.add(_triple(1))
        graph.add(_triple(2))
        graph.remove(_triple(1))
        graph.clear()
        graph.add(_triple(3))
        graph.add(_triple(3))  # duplicate: not a mutation, must not log
        wal.close()

        ops, _ = replay_wal(tmp_path / "wal.log")
        replica = Graph()
        apply_ops(replica, ops)
        assert set(replica) == set(graph) == {_triple(3)}
        # ids must match exactly — clear() keeps the dictionary, and so
        # does the replay (the 'C' op never resets term ids)
        assert replica.dictionary.terms == graph.dictionary.terms

    def test_terms_logged_lazily_once(self, tmp_path):
        graph = Graph()
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="always")
        GraphWal(graph, wal)
        graph.add(Triple(_iri("s"), _iri("p"), Literal("a")))
        graph.add(Triple(_iri("s"), _iri("p"), Literal("b")))
        wal.close()
        ops, _ = replay_wal(tmp_path / "wal.log")
        term_ops = [op for op in ops if op[0] == "term"]
        # 4 distinct terms total; s and p appear in both triples but are
        # logged exactly once
        assert len(term_ops) == 4

    def test_detach_stops_logging(self, tmp_path):
        graph = Graph()
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="always")
        journal = GraphWal(graph, wal)
        graph.add(_triple(1))
        journal.detach()
        graph.add(_triple(2))
        wal.close()
        ops, _ = replay_wal(tmp_path / "wal.log")
        assert len([op for op in ops if op[0] == "add"]) == 1


# --------------------------------------------------------------------- #
# randomized kill-restart: graph level, arbitrary byte truncation
# --------------------------------------------------------------------- #


class TestKillRestartEquivalence:
    """Truncate the WAL at arbitrary byte offsets; the recovered graph
    must equal the oracle that applied exactly the surviving op prefix."""

    OPS = 160

    def _run_script(self, rng):
        """A random add/remove/clear script over a small triple universe."""
        script = []
        for _ in range(self.OPS):
            roll = rng.random()
            if roll < 0.70:
                script.append(("add", rng.randrange(60)))
            elif roll < 0.96:
                script.append(("remove", rng.randrange(60)))
            else:
                script.append(("clear",))
        return script

    @staticmethod
    def _apply(graph, op):
        if op[0] == "add":
            graph.add(_triple(op[1]))
        elif op[0] == "remove":
            graph.remove(_triple(op[1]))
        else:
            graph.clear()

    def test_recovery_matches_op_prefix_oracle(self, tmp_path):
        rng = random.Random(SEED)
        script = self._run_script(rng)

        shard_dir = tmp_path / "shard"
        persistence = ShardPersistence(shard_dir, fsync="always")
        graph = Graph()
        persistence.attach(graph)
        wal_path = persistence.wal.path
        # byte offset of the durable WAL after each op (fsync="always"
        # writes through on every append, so st_size is exact)
        offsets = [0]
        states = [frozenset(graph)]
        for op in script:
            self._apply(graph, op)
            offsets.append(wal_path.stat().st_size)
            states.append(frozenset(graph))
        persistence.close()
        full = wal_path.read_bytes()

        for trial in range(25):
            cut = rng.randrange(len(full) + 1)
            # the oracle state: the last op fully on disk at this cut
            surviving = max(k for k in range(len(offsets)) if offsets[k] <= cut)
            wal_path.write_bytes(full[:cut])
            recovery = ShardPersistence(shard_dir, fsync="always")
            recovered = recovery.recover()
            assert frozenset(recovered) == states[surviving], (
                f"seed={SEED} trial={trial} cut={cut} surviving_ops={surviving}"
            )
            recovery.kill()
            wal_path.write_bytes(full)

    def test_recovery_continues_cleanly_after_truncation(self, tmp_path):
        """After a torn-tail recovery, new writes + another recovery work."""
        rng = random.Random(SEED + 1)
        shard_dir = tmp_path / "shard"
        persistence = ShardPersistence(shard_dir, fsync="always")
        graph = Graph()
        persistence.attach(graph)
        for i in range(30):
            graph.add(_triple(i))
        wal_path = persistence.wal.path
        persistence.close()

        data = wal_path.read_bytes()
        wal_path.write_bytes(data[: rng.randrange(1, len(data))])
        recovery = ShardPersistence(shard_dir, fsync="always")
        recovered = recovery.recover()
        before = set(recovered)
        recovered.add(_triple(100))
        recovery.close()

        second = ShardPersistence(shard_dir, fsync="always")
        final = second.recover()
        assert set(final) == before | {_triple(100)}, f"seed={SEED}"
        second.close()


# --------------------------------------------------------------------- #
# checkpoint rotation
# --------------------------------------------------------------------- #


class TestCheckpoint:
    def test_rotation_prunes_old_generation(self, tmp_path):
        persistence = ShardPersistence(tmp_path / "shard", fsync="always")
        graph = Graph()
        persistence.attach(graph)
        for i in range(10):
            graph.add(_triple(i))
        persistence.checkpoint()
        names = sorted(p.name for p in (tmp_path / "shard").iterdir())
        assert names == ["snap-00000001.bin", "wal-00000001.log"]
        # the new WAL is empty: everything lives in the snapshot
        assert persistence.wal.records == 0
        persistence.close()

        recovery = ShardPersistence(tmp_path / "shard")
        recovered = recovery.recover()
        assert set(recovered) == set(graph)
        recovery.close()

    def test_mid_checkpoint_crash_falls_back_to_old_generation(self, tmp_path):
        persistence = ShardPersistence(tmp_path / "shard", fsync="always")
        graph = Graph()
        persistence.attach(graph)
        for i in range(10):
            graph.add(_triple(i))
        persistence.close()
        # simulate a crash after the new snapshot file was created but
        # before it was completely written: a corrupt snap-1 beside an
        # intact generation 0
        bad = tmp_path / "shard" / "snap-00000001.bin"
        bad.write_bytes(b"RPSNAP01 torn half-written snapshot")
        recovery = ShardPersistence(tmp_path / "shard")
        recovered = recovery.recover()
        assert set(recovered) == set(graph)
        assert recovery.generation == 0
        # the dead generation-1 leftovers were pruned
        assert not bad.exists()
        recovery.close()

    def test_checkpoint_after_clear_preserves_id_space(self, tmp_path):
        persistence = ShardPersistence(tmp_path / "shard", fsync="always")
        graph = Graph()
        persistence.attach(graph)
        for i in range(5):
            graph.add(_triple(i))
        graph.clear()
        persistence.checkpoint()
        dict_size = len(graph.dictionary)
        graph.add(_triple(99))
        persistence.close()

        recovery = ShardPersistence(tmp_path / "shard")
        recovered = recovery.recover()
        assert set(recovered) == {_triple(99)}
        assert len(recovered.dictionary) >= dict_size
        recovery.close()


# --------------------------------------------------------------------- #
# the store manager
# --------------------------------------------------------------------- #


def _create_store(path, shards: int, backend: str = "inline") -> StorePersistence:
    """A fresh store the way a backend creates one: each shard's segment
    from the factory and attached, ``meta.json`` last."""
    store = StorePersistence(path)
    for index in range(shards):
        store.segment(index).attach(Graph())
    store.write_meta(shards, backend)
    return store


class TestStorePersistence:
    def test_resharding_refused(self, tmp_path):
        _create_store(tmp_path, 2).close()
        again = StorePersistence(tmp_path)
        with pytest.raises(ValueError, match="re-sharding"):
            again.validate_meta(expected_shards=4, backend="inline")
        with pytest.raises(ValueError, match="backend that wrote it"):
            again.validate_meta(expected_shards=2, backend="process")
        assert again.validate_meta(expected_shards=2, backend="inline")["shards"] == 2

    def test_attach_over_existing_store_refused(self, tmp_path):
        _create_store(tmp_path, 1).close()
        again = StorePersistence(tmp_path)
        with pytest.raises(ValueError, match="already holds"):
            again.write_meta(1, "inline")

    def test_store_is_recoverable_only_once_meta_is_written(self, tmp_path):
        store = StorePersistence(tmp_path)
        segment = store.segment(0)
        segment.attach(Graph())
        # a durable generation-0 snapshot alone is not a store yet
        assert (segment.shard_dir / "snap-00000000.bin").exists()
        assert not store.recoverable
        store.write_meta(1, "inline")
        assert store.recoverable
        store.close()

    def test_segment_factory_carries_the_store_policy(self, tmp_path):
        store = StorePersistence(tmp_path, fsync="never", snapshot_interval=7)
        hook = lambda event, **_: None  # noqa: E731
        segment = store.segment(3, fault_hook=hook)
        assert segment.shard_dir == tmp_path / "shard-0003"
        assert (segment.fsync, segment.snapshot_interval) == ("never", 7)
        assert segment.fault_hook is hook
        # health / close / kill cover exactly the segments opened here
        segment.attach(Graph())
        assert store.health()["shards"] == [
            {"shard": 3, "generation": 0, "wal_records": 0}
        ]
        store.close()
        assert segment.wal is None

    def test_standing_registrations_preserve_push_flag(self, tmp_path):
        store = StorePersistence(tmp_path)
        store.record_standing("v1", "SELECT ...", push=True)
        # a re-registration without an explicit flag (the recovery path)
        # must not strip the push wiring from the record
        store.record_standing("v1", "SELECT ...")
        [registration] = store.standing_registrations()
        assert registration["push"] is True

    def test_record_standing_skips_an_unchanged_registration(self, tmp_path):
        store = StorePersistence(tmp_path)
        store.record_standing("v1", "SELECT ...", push=True)
        store.record_standing("v2", "ASK ...", push=False)
        before = store.views_path.stat()
        # what recovery does for every view: same name, text and push flag
        store.record_standing("v1", "SELECT ...", push=True)
        store.record_standing("v2", "ASK ...")
        after = store.views_path.stat()
        # the atomic writer replaces the file, so an untouched inode (and
        # mtime) means no rewrite and no fsync happened
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        # a changed record still lands
        store.record_standing("v2", "ASK ...", push=True)
        assert store.views_path.stat().st_ino != before.st_ino
        assert [v["push"] for v in store.standing_registrations()] == [True, True]

    def test_commit_rolls_at_snapshot_interval(self, tmp_path):
        # the interval counts WAL records (term defs + triple ops), not
        # graph mutations: 5 adds write at most 20 records
        store = StorePersistence(tmp_path, fsync="always", snapshot_interval=100)
        graph = Graph()
        segment = store.segment(0)
        segment.attach(graph)
        for i in range(5):
            graph.add(_triple(i))
        assert segment.commit() is False and segment.generation == 0
        for i in range(5, 40):
            graph.add(_triple(i))
        assert segment.commit() is True and segment.generation == 1
        # the fresh post-checkpoint WAL is below the interval again
        assert segment.wal.records == 0
        assert segment.commit() is False and segment.generation == 1
        store.close()


# --------------------------------------------------------------------- #
# middleware-level kill-restart (sharded, standing views, counter)
# --------------------------------------------------------------------- #

DISTRICTS = ["thabo", "mangaung", "xhariep", "lejwe"]
PROPERTIES = [
    ("soil moisture", "percent", 20.0),
    ("rainfall", "mm", 3.0),
    ("air temperature", "degC", 18.0),
]

OBSERVATION_QUERY = (
    "SELECT ?s WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://purl.oclc.org/NET/ssnx/ssn#Observation> . }"
)
ALL_QUERY = "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }"


def make_records(rng, count, start_index=0):
    records = []
    for index in range(start_index, start_index + count):
        district = rng.choice(DISTRICTS)
        name, unit, base = rng.choice(PROPERTIES)
        records.append(
            ObservationRecord(
                source_id=f"{district}-mote-{rng.randrange(4):02d}",
                source_kind="wsn_mote",
                property_name=name,
                value=base + rng.randrange(12),
                unit=unit,
                timestamp=600.0 * index,
                location=(-29.0, 26.5),
                metadata={"area": district},
            )
        )
    return records


def _term_key(term):
    # blank-node labels are not stable across independently built
    # middleware instances; collapse them so bags compare structurally
    text = str(term)
    return "_:" if text.startswith("_:") else text


def row_bag(result):
    return Counter(
        tuple(sorted((str(var).lstrip("?"), _term_key(term)) for var, term in row.items()))
        for row in result.rows
    )


def view_row_bag(views):
    bag = Counter()
    for view in views:
        for row in view.rows():
            bag[
                tuple(
                    sorted(
                        (str(var).lstrip("?"), _term_key(term))
                        for var, term in row.items()
                    )
                )
            ] += 1
    return bag


class TestMiddlewareKillRestart:
    SHARDS = 4

    def _build(self, data_dir=None, library=None, **overrides):
        config = MiddlewareConfig(
            shards=self.SHARDS,
            data_dir=str(data_dir) if data_dir is not None else None,
            wal_fsync="batch",
            **overrides,
        )
        return SemanticMiddleware(
            library=library or build_unified_ontology(materialize=True), config=config
        )

    def test_restart_equivalence_with_standing_views(self, tmp_path):
        rng = random.Random(SEED)
        records = make_records(rng, 60)
        batches = [records[:25], records[25:45], records[45:]]

        oracle = self._build()
        oracle.register_standing(OBSERVATION_QUERY, name="obs", push=True)
        durable = self._build(data_dir=tmp_path / "data")
        durable.register_standing(OBSERVATION_QUERY, name="obs", push=True)

        for batch in batches[:2]:
            oracle.ingest_batch(list(batch))
            durable.ingest_batch(list(batch))
        # crash the durable instance without a graceful close: fsync="batch"
        # committed at each ingest_batch, so nothing is lost
        durable.ontology_layer.persistence.kill()

        recovered = self._build(data_dir=tmp_path / "data")
        assert recovered.ontology_layer.recovered, f"seed={SEED}"
        assert row_bag(recovered.query(ALL_QUERY)) == row_bag(
            oracle.query(ALL_QUERY)
        ), f"seed={SEED}"
        # standing views were re-registered and serve bag-equal rows
        assert view_row_bag(recovered.ontology_layer.standing_views()) == view_row_bag(
            oracle.ontology_layer.standing_views()
        ), f"seed={SEED}"

        # both sides keep ingesting: annotation IRIs must not collide, so
        # the bags stay equal after recovery too
        oracle.ingest_batch(list(batches[2]))
        recovered.ingest_batch(list(batches[2]))
        assert row_bag(recovered.query(ALL_QUERY)) == row_bag(
            oracle.query(ALL_QUERY)
        ), f"seed={SEED}"
        assert row_bag(recovered.query(OBSERVATION_QUERY)) == row_bag(
            oracle.query(OBSERVATION_QUERY)
        ), f"seed={SEED}"
        oracle.close()
        recovered.close()

    def test_push_views_rewired_after_recovery(self, tmp_path):
        rng = random.Random(SEED + 2)
        durable = self._build(data_dir=tmp_path / "data")
        durable.register_standing(OBSERVATION_QUERY, name="obs", push=True)
        durable.ingest_batch(make_records(rng, 10))
        durable.ontology_layer.persistence.kill()

        recovered = self._build(data_dir=tmp_path / "data")
        deliveries = []
        recovered.broker.subscribe("views/obs", deliveries.append)
        recovered.ingest_batch(make_records(rng, 6, start_index=100))
        recovered.scheduler.run_until(10_000_000.0)
        assert deliveries, f"seed={SEED}: push-mode view not re-wired after recovery"
        recovered.close()

    def test_anonymous_views_each_survive_a_restart(self, tmp_path):
        """Two unnamed registrations are two views: each gets its own name
        and ``views.json`` record, and both come back after a restart."""
        value_query = OBSERVATION_QUERY.replace("?s WHERE", "?s ?v WHERE").replace(
            " . }",
            " . ?s <http://purl.oclc.org/NET/ssnx/ssn#hasResult> ?r ."
            " ?r <http://purl.oclc.org/NET/ssnx/ssn#hasValue> ?v . }",
        )
        durable = self._build(data_dir=tmp_path / "data")
        first = durable.register_standing(OBSERVATION_QUERY)
        second = durable.register_standing(value_query)
        assert first.name != second.name
        assert durable.register_standing(OBSERVATION_QUERY).name == first.name
        durable.ingest_batch(make_records(random.Random(SEED + 8), 20))
        expected = {
            text: row_bag(durable.query(text))
            for text in (OBSERVATION_QUERY, value_query)
        }
        assert all(expected.values())
        durable.close()

        recovered = self._build(data_dir=tmp_path / "data")
        registrations = recovered.ontology_layer.persistence.standing_registrations()
        assert {r["name"]: r["text"] for r in registrations} == {
            first.name: OBSERVATION_QUERY,
            second.name: value_query,
        }
        views = recovered.ontology_layer.standing_views()
        assert {view.name for view in views} == {first.name, second.name}
        for name, text in ((first.name, OBSERVATION_QUERY), (second.name, value_query)):
            # (a shard's view keeps full rows; the projection is the query's)
            assert sum(len(v.rows()) for v in views if v.name == name) == sum(
                expected[text].values()
            )
            hits = recovered.ontology_layer.planner_statistics().view_hits
            assert row_bag(recovered.query(text)) == expected[text]
            assert recovered.ontology_layer.planner_statistics().view_hits > hits
        recovered.close()

    def test_annotation_counter_continues_after_recovery(self, tmp_path):
        rng = random.Random(SEED + 3)
        durable = self._build(data_dir=tmp_path / "data")
        durable.ingest_batch(make_records(rng, 12))
        observations = row_bag(durable.query(OBSERVATION_QUERY))
        durable.ontology_layer.persistence.kill()

        recovered = self._build(data_dir=tmp_path / "data")
        recovered.ingest_batch(make_records(rng, 12, start_index=50))
        after = row_bag(recovered.query(OBSERVATION_QUERY))
        # 12 recovered + 12 new observations; a counter collision would
        # alias IRIs and lose rows
        assert sum(after.values()) == sum(observations.values()) + 12, f"seed={SEED}"
        recovered.close()

    def test_reason_per_batch_closure_rebuilt(self, tmp_path):
        rng = random.Random(SEED + 4)
        durable = self._build(data_dir=tmp_path / "data", reason_per_batch=True)
        durable.ingest_batch(make_records(rng, 10))
        entailed = row_bag(durable.query(OBSERVATION_QUERY, entail=True))
        durable.ontology_layer.persistence.kill()

        recovered = self._build(data_dir=tmp_path / "data", reason_per_batch=True)
        assert row_bag(recovered.query(OBSERVATION_QUERY, entail=True)) == entailed, (
            f"seed={SEED}"
        )
        recovered.close()

    def test_graceful_close_then_recover(self, tmp_path):
        rng = random.Random(SEED + 5)
        durable = self._build(data_dir=tmp_path / "data")
        durable.ingest_batch(make_records(rng, 10))
        everything = row_bag(durable.query(ALL_QUERY))
        durable.close()

        recovered = self._build(data_dir=tmp_path / "data")
        assert row_bag(recovered.query(ALL_QUERY)) == everything, f"seed={SEED}"
        recovered.close()

    def test_truncated_shard_wal_recovers_consistently(self, tmp_path):
        """Arbitrary-offset truncation of shard WALs: recovery must come
        back torn-tail clean and standing views must match a fresh query
        over the recovered graphs."""
        rng = random.Random(SEED + 6)
        durable = self._build(data_dir=tmp_path / "data")
        durable.register_standing(OBSERVATION_QUERY, name="obs")
        for start in (0, 30):
            durable.ingest_batch(make_records(rng, 30, start_index=start))
        oracle_triples = [set(g) for g in durable.ontology_layer.graphs]
        durable.ontology_layer.persistence.kill()

        # tear every shard's WAL at an arbitrary byte offset
        for shard_dir in sorted((tmp_path / "data").glob("shard-*")):
            for wal_path in shard_dir.glob("wal-*.log"):
                size = wal_path.stat().st_size
                if size:
                    os.truncate(wal_path, rng.randrange(size + 1))

        recovered = self._build(data_dir=tmp_path / "data")
        assert recovered.ontology_layer.recovered
        for index, graph in enumerate(recovered.ontology_layer.graphs):
            assert set(graph) <= oracle_triples[index], f"seed={SEED} shard={index}"
        # the re-registered standing views serve exactly what a fresh
        # query over the recovered partitions sees
        assert view_row_bag(recovered.ontology_layer.standing_views()) == row_bag(
            recovered.query(OBSERVATION_QUERY)
        ), f"seed={SEED}"
        recovered.close()


class TestMiddlewareKillRestartOneShard(TestMiddlewareKillRestart):
    """The same crash / recovery contract on an unsharded (one-shard) store."""

    SHARDS = 1

    def test_layout_on_disk_is_a_one_shard_inline_store(self, tmp_path):
        durable = self._build(data_dir=tmp_path / "data")
        durable.ingest_batch(make_records(random.Random(SEED + 7), 8))
        durable.close()
        with open(tmp_path / "data" / "meta.json", encoding="utf-8") as handle:
            meta = json.load(handle)
        assert meta == {"version": 1, "shards": 1, "backend": "inline"}
        assert [p.name for p in (tmp_path / "data").glob("shard-*")] == ["shard-0000"]
        # the recovered graph replaces the library graph as *the* graph
        recovered = self._build(data_dir=tmp_path / "data")
        layer = recovered.ontology_layer
        assert layer.recovered and not layer.sharded
        assert layer.graph is layer.graphs[0]
        assert layer.graph is not layer.library.graph
        recovered.close()


# --------------------------------------------------------------------- #
# ChangeTracker.requeue after overflow (property)
# --------------------------------------------------------------------- #


class _SmallTracker(ChangeTracker):
    max_buffered = 8


@settings(max_examples=60, deadline=None)
@given(
    before=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 5)), max_size=20
    ),
    after=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 5)), max_size=20
    ),
)
def test_change_tracker_requeue_after_overflow(before, after):
    """drain → (more ops) → requeue → drain must never resurrect itemised
    state that an overflow already collapsed, and must keep the overflow
    and retraction flags sticky."""
    tracker = _SmallTracker()
    for kind, value in before:
        if kind == "add":
            tracker.record_add((value, value, value))
        else:
            tracker.record_remove((value, value, value))
    first = tracker.drain()

    for kind, value in after:
        if kind == "add":
            tracker.record_add((value, value, value))
        else:
            tracker.record_remove((value, value, value))
    tracker.requeue(first)
    merged = tracker.drain()

    if first.overflowed:
        # an overflowed delta collapses the merge: no itemised backlog may
        # survive requeue, and consumers must see needs_full
        assert merged.overflowed
        assert merged.needs_full
        assert merged.added_ids == []
    if first.retracted or any(kind == "remove" for kind, _ in after):
        assert merged.retracted
    if not merged.overflowed:
        # without overflow nothing is lost: the requeued delta's adds come
        # back in front of the later ones, in order
        expected = [(v, v, v) for k, v in before if k == "add"] + [
            (v, v, v) for k, v in after if k == "add"
        ]
        assert merged.added_ids == expected
