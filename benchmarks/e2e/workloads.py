"""The five workloads: what each sends, measures and checks.

Every run has the same skeleton — set the system up in a fresh child
(several times, for ``setup_s``), drive the measured window, read the
program's own counters, SIGKILL the child and time a restart to its first
correct answer, then verify the answers against a reference — and the
workloads differ in the engine configuration and the traffic, which is
what moves the work from one layer to another.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from benchmarks.e2e import generator, loadgen
from benchmarks.e2e.child import Child
from benchmarks.e2e.registry import END_TO_END_UNITS, PER_LAYER_UNITS, SAMPLED, WORKLOADS
from benchmarks.e2e.stats import capped_percentile

RESULTS = Path(__file__).resolve().parent / "results"

#: ticks per measured second of the open-loop workloads; with the default
#: 15 s window that is 100 ticks, so ten lie beyond the p90
TICK_RATE = 100.0 / 15.0
#: simulated days the batch workload runs per measured second
DEWS_DAYS_PER_SECOND = 24
#: share of the measured seconds the durable workload floods for; the rest
#: pays for the crash, the recovery and the queries on the recovered store
FLOOD_SHARE = 0.6
#: days of the batch workload's restart probe: long enough to ingest,
#: mediate and aggregate again
PROBE_DAYS = 12
#: fresh set-ups per untraced run: the first serves the window, the others
#: are the restarts ``recovery_s`` is taken from
SETUPS = 3


@dataclass
class Spec:
    """One workload's shape; sizes are for the full-length run."""

    name: str
    engine: Dict[str, Any]
    poll_size: int = 0
    preload_polls: int = 0
    entail: bool = False
    register_panels: bool = False


SPECS: Dict[str, Spec] = {
    "poll_serve": Spec("poll_serve", {"shards": 4}, poll_size=40, preload_polls=80),
    "views_serve": Spec(
        "views_serve", {"shards": 4}, poll_size=40, preload_polls=80, register_panels=True
    ),
    "entail_serve": Spec(
        "entail_serve", {"shards": 1}, poll_size=40, preload_polls=20, entail=True
    ),
    "durable_flood": Spec(
        "durable_flood",
        {
            "shards": 2,
            "shard_backend": "process",
            "wal_fsync": "batch",
            # ~190k log records reach each shard in a full flood: three
            # or more checkpoints per shard
            "snapshot_interval": 50_000,
        },
        poll_size=125,
    ),
    "dews_season": Spec("dews_season", {}),
}
assert list(SPECS) == list(WORKLOADS)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Run:
    """The outcome of one workload run (one pass)."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    percentiles: Dict[str, float] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    setup: List[dict] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), "" if ok else detail))

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(check.ok for check in self.checks)

    def to_json(self) -> dict:
        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
            "samples": self.samples,
            "effective_percentiles": self.percentiles,
            "checks": [vars(check) for check in self.checks],
            "setup": self.setup,
            "notes": self.notes,
        }


class Children:
    """Every child a run starts; none outlives the ``with`` block."""

    def __init__(self, run: Run):
        self.run = run
        self.started: List[Child] = []
        self.setups: List[float] = []
        self.rss: List[float] = []

    def start(self, config: dict, fresh: bool = True) -> Child:
        child = Child(config)
        self.started.append(child)
        self.run.setup.append(child.ready["setup"])
        if fresh:
            self.setups.append(child.setup_s)
        return child

    def measure_rss(self, child: Child) -> float:
        self.rss.append(child.peak_rss_mb())
        return self.rss[-1]

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for child in self.started:
            child.kill()


@dataclass
class Samples:
    """The client-side latency samples of one run, in milliseconds."""

    ingest: List[float]
    query: List[float]
    tick: List[float]
    alert: List[float]
    response_bytes: float
    ops: int
    schedule_lag_ms: float = 0.0


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #

_FRACTIONS = {
    "ingest": {"p50": 0.5},
    "query": {"p50": 0.5, "p95": 0.95},
    "tick": {"p50": 0.5, "p90": 0.9},
    "alert": {"p50": 0.5, "p90": 0.9},
}


def _report_end_to_end(run: Run, samples: Samples, children: Children,
                       recoveries: List[float], records_per_s: float,
                       sim_days_per_s: float) -> None:
    for family, fractions in _FRACTIONS.items():
        values = getattr(samples, family)
        run.samples[family] = len(values)
        for label, fraction in fractions.items():
            value, effective = capped_percentile(values, fraction)
            run.metrics[f"{family}_{label}_ms"] = value
            run.percentiles[f"{family}_{label}_ms"] = round(effective, 4)
    run.metrics["ingest_records_per_s"] = records_per_s
    run.metrics["sim_days_per_s"] = sim_days_per_s
    run.metrics["setup_s"] = statistics.median(children.setups)
    run.metrics["recovery_s"] = statistics.median(recoveries)
    run.metrics["peak_rss_mb"] = max(children.rss)
    run.samples.update(setup=len(children.setups), recovery=len(recoveries))


def _report_per_layer(run: Run, samples: Samples, trace: dict,
                      values: Dict[str, float]) -> None:
    """Every registered per-layer metric, zero where the layer was idle."""
    by_name = trace["by_name"]
    layers = {
        name: name[: -len(".busy_s")]
        for name in PER_LAYER_UNITS
        if name.endswith(".busy_s")
    }
    merged = {
        metric: by_name.get(span, {}).get("busy_s", 0.0) for metric, span in layers.items()
    }
    merged.update(
        {
            "reasoner.topups": by_name.get("reasoner.topup", {}).get("calls", 0),
            "shards.rpc.calls": by_name.get("shards.rpc", {}).get("calls", 0),
            "trace.spans": trace["spans"],
            "trace.overhead_share": trace["overhead_share"],
            "trace.coverage_share": trace["coverage_share"],
            "failed_share": run.failed / run.attempted,
            "serving.response_bytes": samples.response_bytes,
            "serving.query_p99_ms": capped_percentile(samples.query, 0.99)[0],
            "loadgen.schedule_lag_p95_ms": samples.schedule_lag_ms,
            "loadgen.ops": samples.ops,
            **{f"loadgen.samples.{family}": len(getattr(samples, family)) for family in SAMPLED},
            "loadgen.tick_max_ms": max(samples.tick),
            "loadgen.alert_max_ms": max(samples.alert),
        }
    )
    for metric, span in (("serving.decode_ms", "serving.decode"),
                         ("serving.serialize_ms", "serving.serialize")):
        entry = by_name.get(span)
        if entry:
            merged[metric] = 1000 * entry["total_s"] / entry["calls"]
    merged.update(values)
    run.metrics = {name: float(merged.get(name, 0.0)) for name in PER_LAYER_UNITS}
    run.notes["trace_path"] = trace.get("path")
    run.notes["tick_p50_ms"] = capped_percentile(samples.tick, 0.5)[0]


def _planner_values(planner: dict) -> Dict[str, float]:
    lookups = planner["result_hits"] + planner["result_misses"] + planner["view_hits"]
    return {
        "planner.result_hit_share": planner["result_hits"] / lookups if lookups else 0.0,
        "planner.view_hit_share": planner["view_hits"] / lookups if lookups else 0.0,
        "planner.plans_built": planner["plans_built"],
        "planner.result_misses": planner["result_misses"],
    }


def _cache_hit_share(metrics: dict) -> float:
    cache = metrics["cache"]
    asked = cache["hits"] + cache["misses"]
    return cache["hits"] / asked if asked else 0.0


def _served_values(stats: dict, metrics: dict, snapshot: dict, rss_mb: float) -> Dict[str, float]:
    """Counters the program keeps itself: ``/v1/statistics``, ``/v1/metrics``
    and the shard statistics."""
    stages = stats["pipeline"]["stages"]
    broker = stats["broker"]
    routes = metrics["middleware"]["routes"]
    bridges = metrics["subscriptions"]["bridges"]
    sizes = [shard["triples"] for shard in snapshot["shards"]]
    values = _planner_values(stats["query_planner"])
    values.update(
        {
            "pipeline.batches": stats["pipeline"]["batches"],
            "pipeline.mediate.dropped": stages["mediate"]["dropped"],
            "pipeline.validate.dropped": stages["validate"]["dropped"],
            "graph.triples": snapshot["triples"],
            "graph.rss_bytes_per_triple": rss_mb * 1e6 / snapshot["triples"],
            "reasoner.inferred_triples": snapshot["inferred_triples"],
            "views.delta_updates": stats["standing_views"]["delta_updates"],
            "views.full_refreshes": stats["standing_views"]["full_refreshes"],
            "broker.published": broker["published"],
            "broker.fanout": broker["delivered"] / broker["published"],
            "cep.derived_events": stats["cep"]["derived_events"],
            "shards.skew": max(sizes) / statistics.fmean(sizes),
            "shards.restarts": sum(shard["restarts"] for shard in snapshot["shards"]),
            "shards.queue_depth_max": max(s["queue_depth"] for s in snapshot["shards"]),
            "serving.cache_hit_share": _cache_hit_share(metrics),
            "serving.route_mean_ms.ingest": routes["POST /v1/ingest"]["mean_latency_ms"],
            "serving.route_mean_ms.query": routes.get("POST /v1/query", {}).get(
                "mean_latency_ms", 0.0
            ),
            "serving.loop_max_lag_ms": metrics["event_loop"]["max_lag_ms"],
            "serving.ws_delivered": sum(bridge["delivered"] for bridge in bridges),
            "serving.ws_dropped": sum(bridge["dropped"] for bridge in bridges),
        }
    )
    return values


def _outside_engine(ops: Sequence[loadgen.OpSample], trace: dict) -> Dict[str, float]:
    """Client latency minus the matching engine span, per engine-reaching op.

    One sequential connection: the k-th request that reached the engine is
    the k-th engine span.  Responses the gateway cache answered never
    reached it.
    """
    spans = {kind: iter(values) for kind, values in trace["engine_ms"].items()}
    gaps = []
    for op in ops:
        if op.reply.cache_hit or op.reply.status != 200:
            continue
        source = spans["engine.ingest_batch" if op.kind == "ingest" else "engine.query"]
        engine_ms = next(source, None)
        if engine_ms is None:
            break
        gaps.append(1000 * (op.reply.done_at - op.reply.sent_at) - engine_ms)
    return {
        "serving.outside_engine_p50_ms": capped_percentile(gaps, 0.5)[0],
        "serving.outside_engine_p99_ms": capped_percentile(gaps, 0.99)[0],
    }


# --------------------------------------------------------------------- #
# one serving window and its checks
# --------------------------------------------------------------------- #


def _bag(rows: Sequence[dict]) -> List[str]:
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


def _same_answer(reply: loadgen.Reply, reference: dict) -> bool:
    if reply.status != 200:
        return False
    served = json.loads(reply.body)
    if served.get("form") != reference["form"]:
        return False
    if reference["form"] == "ASK":
        return served.get("ask") == reference["ask"]
    return _bag(served["rows"]) == _bag(reference["rows"])


def _query_request(panel: generator.Panel) -> bytes:
    return loadgen.encode_request("POST", "/v1/query", panel.body())


def _ingest_requests(polls: Sequence[generator.Poll]) -> List[bytes]:
    return [loadgen.encode_request("POST", "/v1/ingest", poll.body()) for poll in polls]


def _child_config(spec: Spec, seed: int, trace: bool, **fields: Any) -> dict:
    config = {
        "mode": "serve",
        "seed": seed,
        "engine": dict(spec.engine),
        "poll_size": spec.poll_size,
        "preload_polls": spec.preload_polls,
        "views": [],
        "warmup": [],
        "trace": trace,
        "trace_path": str(RESULTS / f"spans-{spec.name}-{seed}.json.gz") if trace else None,
    }
    config.update(fields)
    return config


@dataclass
class Window:
    """What one serving child yielded: the generator's log and the
    program's own counters, taken before anything is torn down."""

    log: loadgen.WindowLog
    polls: List[generator.Poll]
    accepted: int
    alert_ms: List[float]
    after: List[loadgen.Reply]
    stats: dict
    metrics: dict
    snapshot: dict
    rss_mb: float


def _check_alerts(run: Run, polls: Sequence[generator.Poll], due: Sequence[float],
                  frames: Sequence) -> List[float]:
    """Exactly one frame per poll with exceedances, carrying its ``?t`` set.

    Returns the warning delays in milliseconds.  A ``lag`` marker (the
    gateway shed frames) or a frame no poll explains is a failure.
    """
    by_poll: Dict[int, List[tuple]] = {}
    for stamp, text in frames:
        message = json.loads(text)
        if message.get("type") == "ready":
            continue
        times = set()
        if message.get("type") == "message":
            times = {row["t"]["value"] for row in message["payload"]["added"]}
        index = int(min(times) // generator.POLL_SIM_SECONDS) if times else -1
        by_poll.setdefault(index, []).append((stamp, times))
    delays = []
    for poll, due_at in zip(polls, due):
        got = by_poll.pop(poll.index, [])
        if not poll.alert_times:
            run.check(f"no alert for quiet poll {poll.index}", not got, f"{len(got)} frames")
            continue
        ok = len(got) == 1 and got[0][1] == set(poll.alert_times)
        run.op(ok)
        if ok:
            delays.append(1000 * (got[0][0] - due_at))
    run.check("no dropped or stray WebSocket frames", not by_poll,
              f"unexplained frames for polls {sorted(by_poll)}")
    return delays


def _serve_window(run: Run, children: Children, child: Child,
                  polls: Sequence[generator.Poll],
                  drive: Callable[[loadgen.HttpConnection], loadgen.WindowLog],
                  after: Sequence[bytes] = ()) -> Window:
    """Drive one window against ``child`` and check every answer it gave.

    ``after`` are requests sent once the window is over (the final state
    the reference is compared with).  Both connections are closed before
    the caller stops or kills the child, so shutdown is silent.
    """
    connection = loadgen.HttpConnection(child.port)
    listener = loadgen.AlertListener(child.port, "views/alert")
    try:
        run.check("WebSocket subscription live", listener.wait_ready())
        gc.collect()
        gc.disable()
        try:
            log = drive(connection)
        finally:
            gc.enable()
        after_replies = [connection.exchange(request) for request in after]
        stats = json.loads(
            connection.exchange(loadgen.encode_request("GET", "/v1/statistics")).body
        )
        metrics = json.loads(
            connection.exchange(loadgen.encode_request("GET", "/v1/metrics")).body
        )
        ingests = [op for op in log.ops if op.kind == "ingest"]
        sent = list(polls[: len(ingests)])
        # give the last alert frames (after the ``ready`` one) a moment to land
        expected_frames = 1 + sum(1 for poll in sent if poll.alert_times)
        deadline = time.perf_counter() + 2.0
        while len(listener.frames) < expected_frames and time.perf_counter() < deadline:
            time.sleep(0.01)
        snapshot = child.command({"cmd": "snapshot"})
        rss_mb = children.measure_rss(child)
    finally:
        listener.close()
        connection.close()

    accepted = 0
    for op, poll in zip(ingests, sent):
        body = json.loads(op.reply.body) if op.reply.status == 200 else {}
        run.op(
            op.reply.status == 200
            and body["accepted"] + body["rejected"] == poll.sent
            and body["rejected"] == poll.rejected
        )
        accepted += body.get("accepted", 0)
    for op in log.ops:
        if op.kind != "ingest":
            run.op(op.reply.status == 200)
    alert_ms = _check_alerts(run, sent, log.tick_due, listener.frames)
    return Window(log, sent, accepted, alert_ms, after_replies, stats, metrics, snapshot, rss_mb)


def _window_samples(window: Window, query_ms: Optional[List[float]] = None) -> Samples:
    log = window.log
    ingests = [op for op in log.ops if op.kind == "ingest"]
    queries = [op for op in log.ops if op.kind != "ingest"]
    return Samples(
        ingest=[1000 * op.latency for op in ingests],
        query=query_ms if query_ms is not None else [1000 * op.latency for op in queries],
        tick=[1000 * (done - due) for due, done in zip(log.tick_due, log.tick_done)],
        alert=window.alert_ms,
        response_bytes=statistics.fmean(len(op.reply.body) for op in queries or ingests),
        ops=len(log.ops),
        schedule_lag_ms=(
            1000 * capped_percentile(log.schedule_lag, 0.95)[0] if log.schedule_lag else 0.0
        ),
    )


# --------------------------------------------------------------------- #
# the served open-loop workloads
# --------------------------------------------------------------------- #


def _reference_engine():
    """The in-process, unsharded twin the served answers must equal."""
    from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
    from repro.ontologies import build_unified_ontology

    return SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0, shards=1),
    )


def _reference_ingest(twin, polls: Sequence[generator.Poll]):
    from repro.streams.messages import ObservationRecord

    return twin.ingest_batch(
        [ObservationRecord.from_dict(record) for poll in polls for record in poll.records]
    )


def _reference_answer(twin, panel: generator.Panel) -> dict:
    from repro.serving.serialize import query_result_to_json

    return query_result_to_json(twin.query(panel.text, entail=panel.entail))


def run_served(spec: Spec, seed: int, seconds: float, trace: bool, scale: float,
               setups: int) -> Run:
    run = Run(spec.name, seed, seconds, trace)
    ticks = max(6, round(TICK_RATE * seconds))
    preload_polls = max(8, round(spec.preload_polls * scale))
    script = generator.build_script(
        spec.name, seed, spec.poll_size, preload_polls, ticks, entail=spec.entail
    )
    run.notes["script_digest"] = script.digest()
    panels = script.panels
    views = [["alert", generator.ALERT_QUERY, True]]
    if spec.register_panels:
        views += [[f"panel-{panel.name}", panel.text, False] for panel in panels]
    config = _child_config(
        spec, seed, trace,
        preload_polls=preload_polls,
        views=views,
        warmup=[[panel.text, panel.entail] for panel in panels],
    )
    ingest_requests = _ingest_requests(script.ticks)
    query_requests = [_query_request(panel) for panel in panels]

    recoveries: List[float] = []
    recovery_replies: List[loadgen.Reply] = []
    with Children(run) as children:
        child = children.start(config)
        window = _serve_window(
            run, children, child, script.ticks,
            lambda connection: loadgen.run_open_loop(
                connection, TICK_RATE, ingest_requests, query_requests, script.reasked
            ),
            after=query_requests,
        )
        # nothing is durable here: a crash loses the window, and recovery
        # is a cold restart up to the first correct (preload-state) answer
        for _ in range(0 if trace else setups - 1):
            killed_at = child.kill()
            child = children.start(config)
            connection = loadgen.HttpConnection(child.port)
            reply = connection.exchange(query_requests[-1])
            connection.close()
            recoveries.append(reply.done_at - killed_at)
            recovery_replies.append(reply)
            children.measure_rss(child)
        child.quit()

    twin = _reference_engine()
    try:
        _reference_ingest(twin, generator.make_polls(seed, 0, preload_polls, spec.poll_size))
        at_restart = _reference_answer(twin, panels[-1])
        for reply in recovery_replies:
            run.op(_same_answer(reply, at_restart))
        receipt = _reference_ingest(twin, script.ticks)
        run.check(
            "the generator's rejects are the reference's",
            receipt.rejected == sum(poll.rejected for poll in script.ticks),
            f"reference rejected {receipt.rejected}",
        )
        for panel, reply in zip(panels, window.after):
            run.op(_same_answer(reply, _reference_answer(twin, panel)))
    finally:
        twin.close()

    samples = _window_samples(window)
    if trace:
        values = _served_values(window.stats, window.metrics, window.snapshot, window.rss_mb)
        values.update(_outside_engine(window.log.ops, window.snapshot["trace"]))
        _report_per_layer(run, samples, window.snapshot["trace"], values)
        return run
    span = window.log.ended_at - window.log.started_at
    _report_end_to_end(
        run, samples, children, recoveries,
        records_per_s=window.accepted / (sum(samples.ingest) / 1000),
        sim_days_per_s=generator.sim_days(script.ticks) / span,
    )
    run.notes.update(
        {
            "window_s": span,
            "ticks": ticks,
            "schedule_lag_p95_ms": samples.schedule_lag_ms,
            "cache_hit_share": _cache_hit_share(window.metrics),
            "utilisation": sum(samples.tick) / 1000 / span,
        }
    )
    return run


# --------------------------------------------------------------------- #
# the durable closed-loop workload
# --------------------------------------------------------------------- #


def _disk_bytes(data_dir: Path) -> Dict[str, int]:
    sizes = {"wal": 0, "total": 0}
    for path in data_dir.rglob("*"):
        if path.is_file():
            size = path.stat().st_size
            sizes["total"] += size
            if path.name.startswith("wal-"):
                sizes["wal"] += size
    return sizes


def run_flood(spec: Spec, seed: int, seconds: float, trace: bool, scale: float,
              setups: int) -> Run:
    run = Run(spec.name, seed, seconds, trace)
    flood_seconds = FLOOD_SHARE * seconds
    # enough polls for a box twice as fast: the loop stops on the clock
    polls = generator.make_polls(seed, 0, max(8, round(70 * flood_seconds)), spec.poll_size)
    requests = _ingest_requests(polls)
    data_dirs: List[Path] = []

    def fresh_config(tag: str) -> dict:
        data_dir = RESULTS / f"tmp-flood-{seed}-{tag}"
        shutil.rmtree(data_dir, ignore_errors=True)
        data_dirs.append(data_dir)
        engine = dict(
            spec.engine,
            data_dir=str(data_dir),
            snapshot_interval=max(2000, round(spec.engine["snapshot_interval"] * scale)),
        )
        return _child_config(
            spec, seed, trace, engine=engine,
            views=[["alert", generator.ALERT_QUERY, True]],
        )

    recoveries: List[float] = []
    try:
        with Children(run) as children:
            config = fresh_config("main")
            child = children.start(config)
            window = _serve_window(
                run, children, child, polls,
                lambda connection: loadgen.run_closed_loop(connection, flood_seconds, requests),
            )
            disk = _disk_bytes(data_dirs[0])

            # crash, restart on the same directory, first correct answer:
            # the tail of the stream, which only the log can have kept
            tail = window.polls[-3:]
            tail_start = round(tail[0].index * generator.POLL_SIM_SECONDS - 0.0005, 4)
            tail_times = sorted(t for poll in tail for t in poll.accepted_times)
            killed_at = child.kill()
            child = children.start(config, fresh=False)
            run.check("the restart recovered the store", child.ready["recovered"])
            reopen_s = child.ready["setup"]["construct_s"]
            connection = loadgen.HttpConnection(child.port)
            reply = connection.exchange(_query_request(generator.tail_panel(tail_start)))
            recoveries.append(reply.done_at - killed_at)
            run.op(
                reply.status == 200
                and sorted(row["t"]["value"] for row in json.loads(reply.body)["rows"])
                == tail_times
            )
            # query latency on the recovered store: with this backend the
            # gateway's cache key costs a dump of every shard per query, so
            # the budget allows the tail panel and two district panels
            query_ms = [1000 * (reply.done_at - reply.sent_at)]
            for district in generator.DISTRICTS[:2]:
                reply = connection.exchange(
                    _query_request(
                        generator.Panel("area", generator.district_panel(district, 80))
                    )
                )
                run.op(reply.status == 200)
                query_ms.append(1000 * (reply.done_at - reply.sent_at))
            reply = connection.exchange(
                _query_request(generator.Panel("count", generator.OBSERVATION_COUNT_QUERY))
            )
            connection.close()
            count = len(json.loads(reply.body)["rows"]) if reply.status == 200 else -1
            run.op(count == window.accepted)
            run.check("observations after recovery == acknowledged before the kill",
                      count == window.accepted, f"{count} != {window.accepted}")
            children.measure_rss(child)
            child.quit()
            for index in range(0 if trace else setups - 1):
                children.start(fresh_config(f"extra{index}")).quit()
    finally:
        for data_dir in data_dirs:
            shutil.rmtree(data_dir, ignore_errors=True)

    samples = _window_samples(window, query_ms)
    # a tick of the write-only script is one poll acknowledged durably
    samples.tick = samples.ingest
    shards = window.snapshot["shards"]
    checkpoints = sum(shard["generation"] for shard in shards)
    if trace:
        values = _served_values(window.stats, window.metrics, window.snapshot, window.rss_mb)
        values.update(_outside_engine(window.log.ops, window.snapshot["trace"]))
        values.update(
            {
                # the live log segments over the ops they hold (a checkpoint
                # truncates both)
                "persistence.wal_bytes_per_record": disk["wal"]
                / max(1, sum(shard["wal_records"] for shard in shards)),
                "persistence.disk_bytes_per_triple": disk["total"] / window.snapshot["triples"],
                "persistence.checkpoints": checkpoints,
                "persistence.reopen_s": reopen_s,
            }
        )
        _report_per_layer(run, samples, window.snapshot["trace"], values)
        return run
    span = window.log.ended_at - window.log.started_at
    _report_end_to_end(
        run, samples, children, recoveries,
        records_per_s=window.accepted / span,
        sim_days_per_s=generator.sim_days(window.polls) / span,
    )
    run.notes.update(
        {
            "window_s": span,
            "polls": len(window.polls),
            "accepted": window.accepted,
            "checkpoints": checkpoints,
            "reopen_s": reopen_s,
            "disk_bytes": disk,
        }
    )
    return run


# --------------------------------------------------------------------- #
# the batch DEWS season
# --------------------------------------------------------------------- #


def run_dews(spec: Spec, seed: int, seconds: float, trace: bool, scale: float,
             setups: int) -> Run:
    run = Run(spec.name, seed, seconds, trace)
    days = max(PROBE_DAYS, round(DEWS_DAYS_PER_SECOND * seconds))
    full_length = days >= 330  # the whole drought episode lies inside the run
    panels = generator.season_panels(recent_after=round(0.9 * days * 86400.0, 1))

    def config(run_days: int) -> dict:
        return _child_config(
            spec, seed, trace, mode="dews", days=run_days, forecast_every_days=5,
            forecast_start_day=min(60, max(2, run_days // 4)),
        )

    recoveries: List[float] = []
    probes: List[dict] = []
    with Children(run) as children:
        child = children.start(config(days))
        gc.collect()
        season = child.command({"cmd": "run"}, timeout=170.0)
        answers = child.command(
            {"cmd": "queries", "panels": [[panel.text, False] for panel in panels]},
            timeout=60.0,
        )["queries"]
        season.update(child.command({"cmd": "snapshot"}))
        children.measure_rss(child)
        # a crash loses the season (nothing is durable here): recovery is a
        # cold restart up to the first days of data flowing through again
        for _ in range(0 if trace else setups - 1):
            killed_at = child.kill()
            child = children.start(config(PROBE_DAYS))
            probes.append(child.command({"cmd": "run"}, timeout=60.0))
            recoveries.append(time.perf_counter() - killed_at)
            children.measure_rss(child)
        child.quit()

    uploaded = sum(g["records_uploaded"] for g in season["gateways"].values())
    uploads = sum(g["uploads"] for g in season["gateways"].values())
    cloud, interface = season["cloud"], season["interface"]
    lost = uploaded - season["records_ingested"]
    run.attempted += season["records_ingested"] + len(panels)
    run.check("every decoded record entered the pipeline",
              interface["records_decoded"] == season["records_ingested"]
              and interface["decode_failures"] == 0, str(interface))
    run.check("every upload was stored or refused by the cloud",
              uploads == cloud["documents_stored"] + cloud["rejected_uploads"], str(cloud))
    run.check("every stored document was polled",
              interface["documents_downloaded"] == cloud["documents_stored"], str(interface))
    run.check("records ingested == gateway uploads minus the cloud's refusals",
              0 <= lost <= 50 * cloud["rejected_uploads"]
              and (lost > 0) == (cloud["rejected_uploads"] > 0),
              f"lost {lost} with {cloud['rejected_uploads']} refused uploads")
    run.check("no record was dropped by a pipeline stage",
              all(stage["dropped"] == 0 for stage in season["pipeline"]["stages"].values()))
    if full_length:
        skills = {row["method"]: row for row in season["skills"]}
        run.check("every method evaluated >= 20 forecasts",
                  len(skills) == 3 and all(s["n_forecasts"] >= 20 for s in skills.values()),
                  str(season["skills"]))
        run.check("fusion CSI >= indigenous CSI",
                  skills["fusion"]["CSI"] >= skills["indigenous"]["CSI"], str(season["skills"]))
    for first, second in zip(probes, probes[1:]):
        run.check("same-seed reruns agree",
                  first["series_hash"] == second["series_hash"]
                  and first["records_ingested"] == second["records_ingested"])
    rows = {
        panel.name: json.loads(answer["body"]).get("rows", [])
        for panel, answer in zip(panels, answers)
    }
    top = generator.DEWS_THRESHOLDS[-1]
    by_district = [rows[f"area-{d}-{top}"] for d in generator.DEWS_DISTRICTS]
    run.check("the districts' exceedance panels add up to the global one",
              _bag(rows["exceed-obs"]) == _bag([row for part in by_district for row in part])
              and all(by_district),
              f"{len(rows['exceed-obs'])} != {[len(part) for part in by_district]}")
    run.notes.update({"skill_hash": season["skill_hash"], "series_hash": season["series_hash"],
                      "days": days, "skills": season["skills"], "alerts": season["alerts"],
                      "wall_s": season["wall_s"]})

    samples = Samples(
        ingest=season["ingest_ms"],
        query=[answer["ms"] for answer in answers],
        # a tick of the batch script is one simulated day, start to start
        tick=season["day_ms"],
        alert=season["alert_ms"],
        response_bytes=statistics.fmean(len(answer["body"]) for answer in answers),
        ops=len(season["day_ms"]) + len(answers),
    )
    if trace:
        values = _planner_values(season["planner"])
        values.update(
            {
                "pipeline.batches": season["pipeline"]["batches"],
                "graph.triples": season["triples"],
                "graph.rss_bytes_per_triple": children.rss[0] * 1e6 / season["triples"],
                "broker.published": season["broker"]["published"],
                "broker.fanout": season["broker"]["fanout"],
                "cep.derived_events": season["cep_derived"],
            }
        )
        _report_per_layer(run, samples, season["trace"], values)
        return run
    _report_end_to_end(
        run, samples, children, recoveries,
        records_per_s=season["records_ingested"] / season["wall_s"],
        sim_days_per_s=days / season["wall_s"],
    )
    return run


RUNNERS = {
    "poll_serve": run_served,
    "views_serve": run_served,
    "entail_serve": run_served,
    "durable_flood": run_flood,
    "dews_season": run_dews,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, setups: int = SETUPS) -> Run:
    """Run one pass of one workload; ``scale`` shrinks the preloaded state."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    return RUNNERS[name](SPECS[name], seed, seconds, trace, scale, setups)
