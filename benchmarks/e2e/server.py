"""The child process that holds the system under test.

Started fresh by the harness for every set-up: builds the ontology and
the engine, preloads, starts the gateway, registers the views and warms
the caches over the wire, then prints one JSON line (port + set-up
timings) and serves until told to quit on stdin — or until it is
SIGKILLed, which is how the recovery metrics are taken.  ``mode: dews``
builds the Drought Early Warning System instead and runs one season on
command, with no gateway.

With ``trace`` on, public callables of the live objects are
shadow-wrapped (``src/`` is never edited) once set-up is over, so the
spans cover exactly the measured window.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from benchmarks.e2e import generator  # noqa: E402
from benchmarks.e2e.stats import busy_by_name  # noqa: E402
from benchmarks.e2e.tracing import Tracer, span_cost  # noqa: E402


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class _Stopwatch:
    """Outside-the-call timing for the batch workload, which has no wire.

    ``wrap`` records ``(start, end)`` of every call of one public callable;
    that is the client's clock when the client is in the same process.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, List[tuple]] = {}

    def shadow(self, owner: Any, attribute: str, name: str) -> None:
        fn = getattr(owner, attribute)
        stamps = self.calls.setdefault(name, [])
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stamps.append((started, clock()))

        setattr(owner, attribute, timed)


# --------------------------------------------------------------------- #
# tracing: which public callables stand for which layer
# --------------------------------------------------------------------- #


class _Counters:
    """Counts only visible from the wrapped call's return value."""

    def __init__(self) -> None:
        self.inferred_triples = 0


def _count_inferred(counters: _Counters, materialize):
    def counted(*args: Any, **kwargs: Any):
        trace = materialize(*args, **kwargs)
        counters.inferred_triples += getattr(trace, "inferred", 0)
        return trace

    return counted


def trace_middleware(tracer: Tracer, counters: _Counters, middleware) -> None:
    """Wrap the layer boundaries below one ``SemanticMiddleware``."""
    import repro.core.shard_worker as shard_worker

    layer = middleware.ontology_layer
    tracer.shadow(layer, "query", "planner.query")
    for stage in layer.pipeline.stages:
        tracer.shadow(stage, "process_batch", f"pipeline.{stage.name}")
    if layer.shard_backend == "process":
        backend_class = shard_worker.ProcessShardBackend
        if not hasattr(backend_class.scatter, "__wrapped__"):
            backend_class.scatter = tracer.wrap("shards.rpc", backend_class.scatter)
    else:
        for graph in layer.graphs:
            tracer.shadow(graph, "add_all", "graph.add_all")
        for reasoner in layer.reasoners:
            reasoner.materialize = _count_inferred(counters, reasoner.materialize)
            tracer.shadow(reasoner, "materialize", "reasoner.topup")
    for view in layer.standing_views():
        tracer.shadow(view, "refresh", "views.refresh")
    tracer.shadow(middleware.broker, "publish", "broker.publish")
    tracer.shadow(middleware, "inject_events", "cep.process")


def trace_gateway(tracer: Tracer, engine) -> None:
    import repro.serving.gateway as gateway

    tracer.shadow(engine, "ingest_batch", "engine.ingest_batch")
    tracer.shadow(engine, "query", "engine.query")
    tracer.shadow(gateway, "records_from_json", "serving.decode")
    tracer.shadow(gateway, "query_result_to_json", "serving.serialize")


def trace_dews(tracer: Tracer, dews) -> None:
    for district in dews.scenario.districts:
        tracer.shadow(district.network, "sample_and_deliver", "sensors.sample")
        for station in district.stations:
            tracer.shadow(station, "report", "sensors.sample")
        for observer in district.observers:
            tracer.shadow(observer, "report_conditions", "sensors.sample")
            tracer.shadow(observer, "report_sightings", "sensors.sample")
    for gateway in dews.gateways.values():
        tracer.shadow(gateway, "receive", "sensors.gateway_receive")
    tracer.shadow(dews.scheduler, "run_until", "interface.poll")
    tracer.shadow(dews.middleware.interface_layer, "batch_sink", "engine.ingest_batch")
    tracer.shadow(dews.statistical, "forecast_series", "forecasting")
    tracer.shadow(dews.fusion, "drought_probability_at", "forecasting")
    tracer.shadow(dews.indigenous, "drought_probability_at", "forecasting")
    tracer.shadow(dews.aggregator, "series", "dews.aggregate")
    tracer.shadow(dews.aggregator, "value", "dews.aggregate")
    tracer.shadow(dews.dissemination, "disseminate", "dews.disseminate")
    tracer.shadow(dews, "run", "dews.run")


def trace_summary(tracer: Tracer, roots: List[str], path: Optional[str]) -> dict:
    """Aggregate the spans (and write them all out) for the harness."""
    spans = tracer.spans()
    by_name = busy_by_name(spans)
    root_wall = sum(by_name[name]["total_s"] for name in roots if name in by_name)
    root_self = sum(by_name[name]["busy_s"] for name in roots if name in by_name)
    cost = span_cost()
    summary = {
        "spans": len(spans),
        "by_name": by_name,
        "root_wall_s": root_wall,
        "coverage_share": 1.0 - root_self / root_wall if root_wall else 0.0,
        "span_cost_s": cost,
        "overhead_share": len(spans) * cost / root_wall if root_wall else 0.0,
        # k-th engine call <-> k-th request that reached the engine
        "engine_ms": {
            name: [round(1000 * (s[2] - s[1]), 4) for s in spans if s[0] == name]
            for name in ("engine.ingest_batch", "engine.query")
        },
    }
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write('{"columns":["name","start","end","parent","op_id"],"spans":[\n')
            out.write(",\n".join(json.dumps(span) for span in spans))
            out.write("\n]}\n")
        summary["path"] = path
    return summary


# --------------------------------------------------------------------- #
# served mode
# --------------------------------------------------------------------- #


def serve(config: dict) -> int:
    from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
    from repro.ontologies import build_unified_ontology
    from repro.serving import GatewayServer, ServingConfig
    from repro.serving.client import HttpClient
    from repro.streams.messages import ObservationRecord

    timings = {"import_s": time.perf_counter() - _STARTED}
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        timings[name] = now - mark
        mark = now

    library = build_unified_ontology(materialize=True)
    lap("ontology_s")
    middleware = SemanticMiddleware(
        library=library,
        config=MiddlewareConfig(
            annotate_observations=True, broker_latency=0.0, **config["engine"]
        ),
    )
    lap("construct_s")
    recovered = bool(middleware.ontology_layer.recovered)
    if not recovered:
        for poll in generator.make_polls(
            config["seed"], 0, config["preload_polls"], config["poll_size"]
        ):
            middleware.ingest_batch(
                [ObservationRecord.from_dict(record) for record in poll.records]
            )
    lap("preload_s")
    server = GatewayServer(middleware, ServingConfig()).start()
    lap("bind_s")
    with HttpClient("127.0.0.1", server.port) as client:
        if not recovered:
            for name, text, push in config["views"]:
                status, body, _ = client.post(
                    "/v1/views", {"query": text, "name": name, "push": push}
                )
                if status != 201:
                    raise RuntimeError(f"view {name!r} refused: {status} {body}")
        lap("views_s")
        for text, entail in config["warmup"]:
            status, body, _ = client.post("/v1/query", {"query": text, "entail": entail})
            if status != 200:
                raise RuntimeError(f"warm-up query refused: {status} {body}")
        lap("warmup_s")
    # park what set-up allocated in the permanent generation, so a full
    # collection during the window walks the window's objects only
    gc.collect()
    gc.freeze()
    # the loop-lag high-water mark should cover the window, not set-up
    server.gateway.max_loop_lag = 0.0

    tracer: Optional[Tracer] = None
    counters = _Counters()
    if config["trace"]:
        tracer = Tracer()
        trace_middleware(tracer, counters, middleware)
        trace_gateway(tracer, middleware)
    _emit({"ready": True, "port": server.port, "recovered": recovered, "setup": timings})

    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "snapshot":
            layer = middleware.ontology_layer
            reply: Dict[str, Any] = {
                "shards": layer.shard_statistics(),
                "triples": layer.triple_count(),
                "inferred_triples": counters.inferred_triples,
                "trace": None,
            }
            if tracer is not None:
                reply["trace"] = trace_summary(
                    tracer, ["engine.ingest_batch", "engine.query"], config["trace_path"]
                )
            _emit(reply)
        elif command["cmd"] == "quit":
            break
    server.stop()
    middleware.close()
    _emit({"stopped": True})
    return 0


# --------------------------------------------------------------------- #
# batch DEWS mode
# --------------------------------------------------------------------- #


def _skill_hash(rows: List[dict]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def run_dews(config: dict) -> int:
    from repro.dews.system import DewsConfig, DroughtEarlyWarningSystem
    from repro.ontologies import build_unified_ontology
    from repro.serving.serialize import json_safe, query_result_to_json
    from repro.workloads import DroughtEpisode, build_free_state_scenario

    timings = {"import_s": time.perf_counter() - _STARTED}
    mark = time.perf_counter()
    library = build_unified_ontology(materialize=True)
    timings["ontology_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    seed = config["seed"]
    scenario = build_free_state_scenario(
        motes_per_district=8,
        observers_per_district=10,
        stations_per_district=1,
        episodes=[DroughtEpisode(200, 310, 0.85)],
        seed=seed,
    )
    dews = DroughtEarlyWarningSystem(
        scenario,
        DewsConfig(
            days=config["days"],
            annotate_observations=True,
            forecast_every_days=config["forecast_every_days"],
            forecast_start_day=config["forecast_start_day"],
            seed=seed,
        ),
        library=library,
    )
    timings["construct_s"] = time.perf_counter() - mark
    gc.collect()
    gc.freeze()

    tracer: Optional[Tracer] = None
    if config["trace"]:
        tracer = Tracer()
        trace_middleware(tracer, _Counters(), dews.middleware)
        trace_dews(tracer, dews)
    # the client's clock for an in-process workload: day boundaries, poll
    # batches and warning dissemination, stamped around public calls
    watch = _Stopwatch()
    watch.shadow(dews.scheduler, "run_until", "day")
    watch.shadow(dews.middleware.interface_layer, "batch_sink", "ingest")
    watch.shadow(dews.dissemination, "disseminate", "alert")
    _emit({"ready": True, "setup": timings})

    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "run":
            started = time.perf_counter()
            result = dews.run()
            wall = time.perf_counter() - started
            day_ends = [end for _, end in watch.calls["day"]]
            # a day's work ends when the next day's poll drain begins; the
            # last day ends with the run
            day_starts = [started] + [begin for begin, _ in watch.calls["day"][1:]]
            day_walls = [
                later - earlier
                for earlier, later in zip(day_starts, day_starts[1:] + [started + wall])
            ]
            # warning delay: the forecast day's data was complete when its
            # poll drain returned; the warning is out when disseminate returns
            alert_ms = []
            for _, sent in watch.calls["alert"]:
                complete = max(end for end in day_ends if end <= sent)
                alert_ms.append(1000 * (sent - complete))
            skills = result.skill_table()
            stats = result.middleware_statistics
            reply = {
                "wall_s": wall,
                "days": config["days"],
                "skills": skills,
                "skill_hash": _skill_hash(skills),
                "series_hash": hashlib.sha256(
                    repr(
                        sorted(
                            (district, key, series.tobytes().hex())
                            for district, per in result.daily_series.items()
                            for key, series in per.items()
                        )
                    ).encode()
                ).hexdigest()[:16],
                "records_ingested": stats["pipeline"].records,
                "pipeline": json_safe(stats["pipeline"]),
                "interface": json_safe(stats["interface_layer"]),
                "cloud": json_safe(dews.cloud.statistics),
                "gateways": json_safe(result.gateway_statistics),
                "broker": {
                    "published": stats["broker"].published,
                    "fanout": stats["broker"].fanout,
                },
                "cep_derived": stats["cep"].derived_events,
                "triples": stats["graph_triples"],
                "alerts": len(result.alerts),
                "ingest_ms": [1000 * (e - s) for s, e in watch.calls["ingest"]],
                "day_ms": [1000 * w for w in day_walls],
                "alert_ms": alert_ms,
            }
            _emit(reply)
        elif command["cmd"] == "queries":
            # post-season analysis: the dashboard panels over the season's
            # graph, each timed around the public query call
            samples = []
            for text, entail in command["panels"]:
                started = time.perf_counter()
                result = dews.query(text, entail=entail)
                body = json.dumps(query_result_to_json(result), separators=(",", ":"))
                samples.append(
                    {"ms": 1000 * (time.perf_counter() - started), "body": body}
                )
            _emit({"queries": samples})
        elif command["cmd"] == "snapshot":
            # after the season and its queries: the planner's counters and
            # (traced pass) every span so far
            _emit(
                {
                    "planner": json_safe(dews.middleware.ontology_layer.planner_statistics()),
                    "trace": trace_summary(tracer, ["dews.run"], config["trace_path"])
                    if tracer is not None
                    else None,
                }
            )
        elif command["cmd"] == "quit":
            break
    dews.close()
    _emit({"stopped": True})
    return 0


def main(argv: List[str]) -> int:
    config = json.loads(argv[1])
    if config["mode"] == "dews":
        return run_dews(config)
    return serve(config)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
