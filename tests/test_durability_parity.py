"""One durability model on both transports.

Every ``Shard`` opens its own segment and :meth:`Shard.run` commits it by
the op's ``writes`` column, whether the shard runs in this interpreter or
in a worker.  So the same script against a 2-shard durable store must
leave the same durable state under ``inline`` and under ``process`` after
*every* step — same snapshot generation and WAL depth per shard, same WAL
contents — and a kill at the end must lose nothing on either.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

import repro.persistence.wal as wal_module
from repro.core.services import SemanticService
from repro.ontologies.vocabulary import DROUGHT
from repro.persistence.wal import replay_wal

from test_process_backend import VIEW_QUERY, build, view_row_bag
from test_sharding import DISTRICTS, ENTAIL_QUERIES, QUERIES, make_stream, solution_set

BACKENDS = ("inline", "process")
ENTAIL_QUERY = ENTAIL_QUERIES[0]
#: small enough that the script rolls snapshots mid-way, on both shards
SNAPSHOT_INTERVAL = 1500


def _durable_state(layer):
    return [
        (row["shard"], row["generation"], row["wal_records"])
        for row in layer.shard_statistics()
    ]


def _run_script(backend: str, data_dir: Path, records, snapshot_interval: int):
    """The script, yielding ``(step, middleware)`` after every step."""
    middleware = build(
        2, backend, data_dir=str(data_dir), snapshot_interval=snapshot_interval
    )
    layer = middleware.ontology_layer
    yield "built", middleware
    middleware.register_standing(VIEW_QUERY, name="vals")
    yield "view registered", middleware
    for start in range(0, len(records), 40):
        middleware.ingest_batch(records[start:start + 40])
        yield f"ingest {start}", middleware
    # one district only: a batch that leaves the other shard untouched
    one_area = [r for r in records if r.metadata["area"] == DISTRICTS[0]][:10]
    middleware.ingest_batch(one_area)
    yield "one-shard ingest", middleware
    # the lazy top-up: nothing reasons per batch, so this query's closure
    # is the first (large) write the reasoner makes
    middleware.query(ENTAIL_QUERY, entail=True)
    yield "entail query", middleware
    layer.services.register(
        SemanticService(
            name="parity-probe",
            topic="parity/#",
            description="registered and withdrawn again by the parity script",
            provides=[DROUGHT.DroughtEvent],
        )
    )
    yield "service register", middleware
    assert layer.services.unregister("parity-probe")
    yield "service unregister", middleware


def _lockstep(tmp_path, records, snapshot_interval: int = SNAPSHOT_INTERVAL):
    """Both transports through the script, compared after every step;
    yields the step name and the two live middlewares."""
    scripts = [
        _run_script(backend, tmp_path / backend, records, snapshot_interval)
        for backend in BACKENDS
    ]
    for (step, inline), (_step, process) in zip(*scripts):
        states = [_durable_state(m.ontology_layer) for m in (inline, process)]
        assert states[0] == states[1], f"durable state diverged after {step!r}"
        yield step, inline, process


def _wal_segments(data_dir: Path):
    return sorted(
        path.relative_to(data_dir) for path in data_dir.glob("shard-*/wal-*.log")
    )


@pytest.fixture
def records():
    return make_stream(random.Random(16), 200)


def test_transports_agree_on_durable_state_after_every_step(tmp_path, records):
    steps = []
    for step, inline, process in _lockstep(tmp_path, records):
        steps.append(step)
        last = (inline, process)
    assert steps[-1] == "service unregister"
    inline, process = last
    # the script exercised the roll, and the entail top-up reached the log
    assert all(gen > 0 for _shard, gen, _depth in _durable_state(inline.ontology_layer))
    expected_triples = inline.ontology_layer.triple_count()
    assert process.ontology_layer.triple_count() == expected_triples
    expected_rows = solution_set(inline.query(ENTAIL_QUERY, entail=True))

    # SIGKILL semantics on both: whatever was not committed is gone
    for middleware in last:
        middleware.ontology_layer.persistence.kill()
    recovered = [
        build(2, backend, data_dir=str(tmp_path / backend),
              snapshot_interval=SNAPSHOT_INTERVAL)
        for backend in BACKENDS
    ]
    try:
        layers = [m.ontology_layer for m in recovered]
        assert all(layer.recovered for layer in layers)
        # every op was durable before it answered: the kill lost nothing,
        # the closure the entail query wrote included
        assert [layer.triple_count() for layer in layers] == [expected_triples] * 2
        assert _durable_state(layers[0]) == _durable_state(layers[1])
        for query in QUERIES:
            answers = [solution_set(m.query(query)) for m in recovered]
            assert answers[0] == answers[1], query
        for middleware in recovered:
            # no top-up needed: the recovered graph already holds the closure
            assert solution_set(middleware.query(ENTAIL_QUERY)) == expected_rows
        view_rows = [view_row_bag(layer.standing_views()) for layer in layers]
        assert view_rows[0] and view_rows[0] == view_rows[1]
    finally:
        for middleware in recovered:
            middleware.close()


def test_transports_write_the_same_wal(tmp_path, records):
    # no roll: generation 0's log holds the whole script
    before_entail = {}
    for step, inline, process in _lockstep(tmp_path, records, snapshot_interval=10**9):
        if step == "one-shard ingest":
            # every op so far is committed, so the files are current
            before_entail = {
                segment: (tmp_path / "inline" / segment).stat().st_size
                for segment in _wal_segments(tmp_path / "inline")
            }
    inline.close()
    process.close()
    segments = _wal_segments(tmp_path / "inline")
    assert len(segments) == 2 and segments == _wal_segments(tmp_path / "process")
    for segment in segments:
        logs = [(tmp_path / backend / segment).read_bytes() for backend in BACKENDS]
        # base content, view registration and every ingest: byte for byte —
        # same terms under the same ids, same triple ops in the same order,
        # framed and committed at the same op boundaries
        prefix = before_entail[segment]
        assert prefix > 10_000 and logs[0][:prefix] == logs[1][:prefix], segment
        # the reasoner derives a top-up's triples in set-iteration order,
        # which differs from one interpreter to the next, so from the
        # entail query on the op streams are compared as bags
        ops = [replay_wal(tmp_path / backend / segment)[0] for backend in BACKENDS]
        assert len(ops[0]) == len(ops[1]) and Counter(ops[0]) == Counter(ops[1]), segment
        assert len(logs[0]) == len(logs[1]) > prefix, segment


def test_inline_commit_fsyncs_only_the_shards_an_op_wrote(tmp_path, records, monkeypatch):
    middleware = build(2, "inline", data_dir=str(tmp_path))
    try:
        layer = middleware.ontology_layer
        middleware.ingest_batch(records[:40])
        one_area = [r for r in records if r.metadata["area"] == DISTRICTS[0]][:10]
        touched = layer._backend.router.shard_for(DISTRICTS[0])
        synced = []
        real_fsync = wal_module.os.fsync
        by_fileno = {
            segment.wal._file.fileno(): index
            for index, segment in layer.persistence.segments.items()
        }

        def counting_fsync(fileno):
            synced.append(by_fileno.get(fileno))
            return real_fsync(fileno)

        monkeypatch.setattr(wal_module.os, "fsync", counting_fsync)
        middleware.ingest_batch(one_area)
        # one write op (ingest; nothing reasons per batch) on one shard
        assert synced == [touched]
    finally:
        middleware.close()
