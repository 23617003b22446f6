"""E7 -- incremental (delta-driven) reasoning vs. the from-scratch fixpoint.

The ontology segment layer re-reasons after every ingest batch.  A run
from scratch — the semi-naive engine seeded with every triple in the
store — costs time that grows with the *accumulated* graph; the top-up
seeds rule joins from the batch's delta only, so it stays ~flat while the
from-scratch baseline keeps growing with total triples.
"""

import time

import pytest

from benchmarks.conftest import print_table
from repro.core.annotation import SemanticAnnotator
from repro.core.mediator import Mediator
from repro.ontologies import build_unified_ontology
from repro.semantics.reasoner import Reasoner
from repro.streams.messages import ObservationRecord

BATCH_RECORDS = 60
BATCHES = 20


def _observations(mediator, count, start=0):
    observations = []
    for index in range(start, start + count):
        outcome = mediator.mediate(ObservationRecord(
            source_id=f"mote-{index % 12}", source_kind="wsn_mote",
            property_name="Bodenfeuchte", value=5.0 + index % 30, unit="percent",
            timestamp=float(index * 600), location=(-29.1, 26.2),
        ))
        observations.append(outcome.observation)
    return observations


def test_bench_incremental_batch_topup(benchmark):
    """Per-batch incremental top-up on an already-grown graph."""
    library = build_unified_ontology(materialize=False)
    graph = library.graph
    reasoner = Reasoner(graph)
    reasoner.materialize()
    annotator = SemanticAnnotator(graph)
    mediator = Mediator()
    # grow the graph well past its seed size before measuring
    annotator.annotate_batch(_observations(mediator, 600))
    reasoner.ensure_materialized()
    state = {"next": 600}

    def topup():
        observations = _observations(mediator, BATCH_RECORDS, start=state["next"])
        state["next"] += BATCH_RECORDS
        annotator.annotate_batch(observations)
        reasoner.ensure_materialized()

    benchmark.pedantic(topup, rounds=5, iterations=1)
    assert reasoner.last_trace is not None


def test_bench_incremental_vs_from_scratch_scaling(wall_clock_thresholds):
    """The E7 table: per-batch reasoning cost as the graph grows ~10x."""
    library = build_unified_ontology(materialize=False)
    graph = library.graph
    reasoner = Reasoner(graph)
    reasoner.materialize()
    base_size = len(graph)
    annotator = SemanticAnnotator(graph)
    mediator = Mediator()

    checkpoints = {0, BATCHES // 2, BATCHES - 1}
    rows = []
    incremental_times = []
    full_times = {}
    for batch_index in range(BATCHES):
        observations = _observations(
            mediator, BATCH_RECORDS, start=batch_index * BATCH_RECORDS
        )
        annotator.annotate_batch(observations)
        started = time.perf_counter()
        reasoner.ensure_materialized()
        incremental_time = time.perf_counter() - started
        incremental_times.append(incremental_time)

        full_time = None
        if batch_index in checkpoints:
            # from-scratch baseline: the same engine seeded with every
            # triple in the store, what every post-batch materialize()
            # would cost without delta tracking
            scratch = graph.copy()
            started = time.perf_counter()
            Reasoner(scratch).materialize(full=True)
            full_time = time.perf_counter() - started
            full_times[batch_index] = full_time
            # the incrementally maintained graph is already closed: the
            # from-scratch run must not find anything new
            assert len(scratch) == len(graph)

        rows.append({
            "batch": batch_index + 1,
            "graph_triples": len(graph),
            "incremental_ms": round(incremental_time * 1e3, 2),
            "from_scratch_ms": "" if full_time is None else round(full_time * 1e3, 2),
        })

    print_table("E7: incremental vs from-scratch reasoning", rows)

    # the graph grew >= 10x past the materialized ontology seed
    assert len(graph) >= 10 * base_size

    if not wall_clock_thresholds:
        # the structural checks above — the loop ran and the incremental
        # closure is a true fixpoint at every checkpoint — are the rot
        # detector; wall-clock ratios are only asserted in a timed run
        return
    # from-scratch cost grows with total graph size ...
    assert full_times[BATCHES - 1] > 1.5 * full_times[0]
    # ... while the incremental top-up stays ~flat (generous bound for
    # timer noise: same batch size => same order of work)
    first = min(incremental_times[:3])
    last = min(incremental_times[-3:])
    assert last < 8 * max(first, 1e-4)
    # and the incremental top-up beats re-running from scratch outright
    # (locally ~10x; min-of-3 and a 2x bound absorb scheduling noise)
    assert min(incremental_times[-3:]) < full_times[BATCHES - 1] / 2
