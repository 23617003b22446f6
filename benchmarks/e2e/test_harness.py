"""Unit checks of the end-to-end harness itself (no sockets, no processes)."""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.e2e import generator, loadgen, registry
from benchmarks.e2e.compare import classify
from benchmarks.e2e.stats import MIN_BEYOND, busy_by_name, capped_percentile, self_times, spread
from benchmarks.e2e.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]


def test_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    assert capped_percentile(samples, 0.5) == (50, 0.5)
    # p90 of 100 samples leaves exactly ten beyond: allowed as asked
    assert capped_percentile(samples, 0.9) == (90, 0.9)
    # p99 would leave one beyond: capped to the highest rank with ten beyond
    value, effective = capped_percentile(samples, 0.99)
    assert value == 90 and effective == 0.9
    assert sum(1 for sample in samples if sample > value) == MIN_BEYOND
    # 60 samples cannot support a p90 (6 beyond): capped lower
    value, effective = capped_percentile(list(range(60)), 0.9)
    assert sum(1 for sample in range(60) if sample > value) == MIN_BEYOND
    assert effective < 0.9
    # too few samples for any cap: the median is all the data supports
    assert capped_percentile([5.0, 1.0, 3.0], 0.95) == (3.0, 0.5)


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    first, _, third = statistics.quantiles(values, n=4)
    assert spread(values) == (third - first) / statistics.median(values)
    assert spread([7.0]) == 0.0


def test_span_self_time_subtracts_direct_children_only():
    spans = [
        ["engine.ingest_batch", 0.0, 10.0, -1, 0],
        ["pipeline.annotate", 1.0, 7.0, 0, 0],
        ["graph.add_all", 2.0, 5.0, 1, 0],
        ["pipeline.publish", 7.0, 9.0, 0, 0],
        ["engine.query", 20.0, 21.0, -1, 1],
    ]
    assert self_times(spans) == [2.0, 3.0, 3.0, 2.0, 1.0]
    busy = busy_by_name(spans)
    assert busy["engine.ingest_batch"] == {"calls": 1, "busy_s": 2.0, "total_s": 10.0}
    assert busy["graph.add_all"]["busy_s"] == 3.0
    # self times of one op add up to its root's wall time
    assert sum(own for span, own in zip(spans, self_times(spans)) if span[4] == 0) == 10.0


def test_tracer_records_parent_and_op_id():
    tracer = Tracer()

    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.inner()

    layer = Layer()
    tracer.shadow(layer, "inner", "inner")
    tracer.shadow(layer, "outer", "outer")
    assert layer.outer() == 2
    assert layer.outer() == 2
    spans = tracer.spans()
    assert [span[0] for span in spans] == ["outer", "inner", "inner"] * 2
    assert [span[3] for span in spans] == [-1, 0, 0, -1, 3, 3]
    assert [span[4] for span in spans] == [0, 0, 0, 1, 1, 1]
    assert all(span[2] >= span[1] for span in spans)
    # the class itself is untouched: only the live object was shadowed
    assert "inner" not in Layer().__dict__ and Layer().outer() == 2


def test_generator_is_deterministic_in_the_seed():
    def script(seed):
        return generator.build_script("poll_serve", seed, 40, 8, 6)

    assert script(7).to_bytes() == script(7).to_bytes()
    assert script(7).digest() != script(8).digest()
    # preload and window polls come from one stream: the child regenerates
    # the preload from the seed alone and gets the same records
    assert generator.make_poll(7, 3, 40).body() == generator.make_polls(7, 0, 8, 40)[3].body()


def test_generator_expectations_match_its_records():
    for index in range(12):
        poll = generator.make_poll(11, index, 50)
        bad = [
            record
            for record in poll.records
            if record["unit"] == "?" or record["value"] != record["value"]
            or record["value"] in (float("inf"), float("-inf"))
        ]
        assert poll.rejected == len(bad) and poll.sent == 50
        assert len(poll.accepted_times) == 50 - poll.rejected
        exceed = sorted(
            record["timestamp"]
            for record in poll.records
            if record not in bad and record["unit"] in ("percent", "mm", "degC")
            and record["value"] > generator.ALERT_THRESHOLD
        )
        assert exceed == sorted(poll.alert_times)
        stamps = [record["timestamp"] for record in poll.records]
        assert len(set(stamps)) == 50
        assert all(
            index * generator.POLL_SIM_SECONDS <= stamp < (index + 1) * generator.POLL_SIM_SECONDS
            for stamp in stamps
        )
        vendor = [
            record for record in poll.records
            if record not in bad
            and record["property_name"] not in {p[0] for p in generator.PROPERTIES}
        ]
        assert 5 <= len(vendor) <= 9  # ~15 % phrased through vendor profiles


def test_open_loop_schedule_and_due_time_bookkeeping():
    schedule = loadgen.due_times(100.0, 4.0, 5)
    assert schedule == [100.0, 100.25, 100.5, 100.75, 101.0]
    # a poll is timed from its due time, not from when it was sent: a tick
    # that started 30 ms late carries those 30 ms
    reply = loadgen.Reply(200, False, b"{}", sent_at=100.28, done_at=100.29)
    sample = loadgen.OpSample("ingest", due_at=schedule[1], reply=reply)
    assert abs(sample.latency - 0.04) < 1e-9
    request = loadgen.encode_request("POST", "/v1/query", b'{"query":"x"}')
    assert request.startswith(b"POST /v1/query HTTP/1.1\r\n")
    assert request.endswith(b"Content-Length: 13\r\n\r\n" + b'{"query":"x"}')


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert classify(steady, [v * 1.05 for v in steady], "lower", 0.10)[0] == "within-bound"
    assert classify(steady, [v * 1.20 for v in steady], "lower", 0.10)[0] == "worse"
    assert classify(steady, [v * 0.80 for v in steady], "lower", 0.10)[0] == "better"
    assert classify(steady, [v * 0.80 for v in steady], "higher", 0.10)[0] == "worse"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert classify(noisy, [v * 1.2 for v in noisy], "lower", 0.10)[0] == "unresolved"
    assert classify(noisy, [50.0, 55.0, 45.0, 60.0], "lower", 0.10)[0] == "better"


def test_benchmark_json_names_what_the_harness_emits():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract == registry.benchmark_json()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = (
        [w["name"] for w in contract["workloads"]]
        + [m["name"] for m in contract["end_to_end"]]
        + [m["name"] for m in contract["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(registry.NAME_PATTERN.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert 2 <= len(contract["workloads"]) <= 8
    assert len(contract["end_to_end"]) <= 16 and len(contract["per_layer"]) <= 128
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in contract["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert contract["paths"] == ["benchmarks/e2e"]
    # the run's result object carries exactly the registered names
    from benchmarks.e2e.workloads import SPECS, Run

    assert list(SPECS) == [w["name"] for w in contract["workloads"]]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        run = Run("poll_serve", 1, 1.0, trace)
        run.metrics = {m["name"]: 1.0 for m in contract[section]}
        run.attempted = 1
        payload = run.to_json()
        assert list(payload["metrics"]) == [m["name"] for m in contract[section]]
        assert {e["unit"] for e in payload["metrics"].values()} == {
            m["unit"] for m in contract[section]
        }
