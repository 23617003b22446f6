"""The asyncio HTTP/WebSocket gateway over the unified embedding API.

One :class:`Gateway` fronts one engine — a
:class:`~repro.core.middleware.SemanticMiddleware`, a
:class:`~repro.dews.system.DroughtEarlyWarningSystem`, or a bare
:class:`~repro.core.ontology_layer.OntologySegmentLayer` — through the six
unified calls (``ingest_batch`` / ``query`` / ``register_standing`` /
``subscribe`` / ``health`` / ``statistics``).  Route table:

    POST /v1/ingest          ingest a batch of raw observation records
    POST /v1/query           SPARQL query (``{"query", "entail"}``)
    POST /v1/views           register a standing view
    GET  /v1/views           list registered views
    GET  /v1/views/<name>    the view's current result (federated query)
    GET  /v1/health          engine health report
    GET  /v1/statistics      engine statistics snapshot
    GET  /v1/metrics         gateway-side metrics (middleware, loop lag)
    GET  /v1/subscribe       WebSocket upgrade; ``?topics=p1,p2`` patterns

The engine is single-writer (graph, pipeline and planner caches are not
safe under concurrent mutation), so every engine call is serialized
through a bounded worker-thread executor — the event loop itself never
runs engine code and never blocks on it.  Each HTTP route runs the
middleware stack (request-context → metrics → rate-limit → cache);
exceptions surface as their :data:`STATUS_BY_CODE`-mapped statuses.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    BadRequestError,
    NotFoundError,
    QueryError,
    ReproError,
)
from repro.serving import websocket as ws
from repro.serving.bridge import SubscriptionBridge, lag_marker
from repro.serving.http import (
    Request,
    Response,
    peer_name,
    read_request,
    write_response,
)
from repro.serving.middleware import (
    CacheMiddleware,
    MetricsMiddleware,
    RateLimitMiddleware,
    RequestContextMiddleware,
    build_stack,
)
from repro.serving.serialize import (
    json_safe,
    message_to_json,
    query_result_to_json,
    records_from_json,
)

#: The one exception → HTTP status table.  Codes, not classes, are the
#: contract: any :class:`~repro.errors.ReproError` raised anywhere below
#: the gateway maps here, and unknown codes fall back to 500.
STATUS_BY_CODE: Dict[str, int] = {
    "bad_request": 400,
    "query_error": 400,
    "not_found": 404,
    "payload_too_large": 413,
    "rate_limited": 429,
    "internal": 500,
    "store_metadata": 500,
    "shard_unavailable": 503,
}


@dataclass
class ServingConfig:
    """Tunables of the serving front door."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (read it back from ``Gateway.port``).
    port: int = 0
    #: Request body ceiling in bytes (JSON record batches are compact).
    max_body: int = 1_000_000
    #: Worker threads for engine calls.  The engine is single-writer —
    #: leave this at 1 unless the engine grows internal synchronisation.
    engine_workers: int = 1
    #: In-flight + queued engine calls before further requests wait.
    max_pending: int = 64
    #: Token-bucket refill rate per client (requests/second); ``0`` turns
    #: rate limiting off.
    rate_limit_rate: float = 0.0
    #: Token-bucket burst capacity per client.
    rate_limit_burst: int = 20
    #: LRU capacity of the version-keyed response cache.
    cache_capacity: int = 256
    #: Per-WebSocket bounded send queue (drop-oldest beyond this).
    ws_queue_limit: int = 256
    #: Idle seconds between server pings on a quiet subscription.
    ws_ping_interval: float = 20.0
    #: Transport write-buffer high-water mark per WebSocket; small so a
    #: slow consumer exerts backpressure on the sender (which then sheds
    #: into the bounded queue) instead of ballooning process memory.
    ws_write_buffer: int = 16 * 1024
    #: Zero the broker's simulated per-hop delivery latency on start.  The
    #: gateway *is* the delivery hop in a served deployment; leaving the
    #: simulated latency on would park every publication on a scheduler
    #: nobody pumps.
    zero_broker_latency: bool = True


class Gateway:
    """The asyncio server.  ``await start()``, then ``await stop()``.

    Synchronous hosts (tests, benchmarks, ``examples/serve_dews.py``) use
    :class:`GatewayServer`, which runs one of these on a background
    thread.
    """

    def __init__(self, engine: Any, config: Optional[ServingConfig] = None):
        self.engine = engine
        self.config = config or ServingConfig()
        self._layer = self._resolve_layer(engine)
        self._broker = getattr(engine, "broker", None)

        #: Monotone counter of served mutations; part of the cache key.
        self._mutations = 0
        self._views: Dict[str, Any] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._engine_gate: Optional[asyncio.Semaphore] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._bridges: List[SubscriptionBridge] = []
        self._started_at = 0.0
        self.port: Optional[int] = None

        #: Event-loop responsiveness, measured from inside the loop: the
        #: worst observed gap beyond a 10 ms sleep.  Stays ~0 unless
        #: something blocked the loop (which nothing should).
        self.max_loop_lag = 0.0
        self._lag_samples = 0

        self.context = RequestContextMiddleware(STATUS_BY_CODE)
        self.metrics = MetricsMiddleware()
        self.rate_limit = RateLimitMiddleware(
            self.config.rate_limit_rate,
            self.config.rate_limit_burst,
            exempt={"/v1/health", "/v1/metrics"},
        )
        self.cache = CacheMiddleware(
            self._version_token,
            cacheable={("POST", "/v1/query")},
            capacity=self.config.cache_capacity,
        )
        self._routes: Dict[Tuple[str, str], Callable] = {
            ("POST", "/v1/ingest"): self._route_ingest,
            ("POST", "/v1/query"): self._route_query,
            ("POST", "/v1/views"): self._route_register_view,
            ("GET", "/v1/views"): self._route_list_views,
            ("GET", "/v1/health"): self._route_health,
            ("GET", "/v1/statistics"): self._route_statistics,
            ("GET", "/v1/metrics"): self._route_metrics,
        }
        self._stack = build_stack(
            [self.context, self.metrics, self.rate_limit, self.cache],
            self._dispatch,
        )

    # ---------------------------------------------------------------- #
    # engine plumbing
    # ---------------------------------------------------------------- #

    @staticmethod
    def _resolve_layer(engine: Any) -> Optional[Any]:
        """The ontology layer under any of the three embedding surfaces."""
        if hasattr(engine, "graphs") and hasattr(engine, "pipeline"):
            return engine  # a bare OntologySegmentLayer
        middleware = getattr(engine, "middleware", engine)
        return getattr(middleware, "ontology_layer", None)

    def _version_token(self) -> tuple:
        """Cache key component that changes whenever answers could.

        The gateway's own mutation counter covers everything served
        through it; the layer's per-shard write counters additionally
        catch writes made behind the gateway's back.  This runs on the
        event-loop thread for every cacheable request, so it must not
        reach into a shard: ``versions()`` is parent-side state on every
        backend, never an RPC.
        """
        versions = tuple(self._layer.versions()) if self._layer is not None else ()
        return (self._mutations, versions)

    async def _run_engine(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run one engine call on the bounded executor, off the loop."""
        async with self._engine_gate:
            return await self._loop.run_in_executor(
                self._executor, functools.partial(fn, *args, **kwargs)
            )

    # ---------------------------------------------------------------- #
    # lifecycle
    # ---------------------------------------------------------------- #

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.engine_workers,
            thread_name_prefix="gateway-engine",
        )
        self._engine_gate = asyncio.Semaphore(self.config.max_pending)
        if self.config.zero_broker_latency and self._broker is not None:
            # the service boundary replaces the simulated delivery hop;
            # a nonzero latency would defer every publication onto a
            # simulation scheduler nobody pumps while serving
            self._broker.delivery_latency = 0.0
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._monitor_task = self._loop.create_task(self._monitor_loop())

    async def stop(self) -> None:
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for bridge in list(self._bridges):
            bridge.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def _monitor_loop(self) -> None:
        interval = 0.01
        while True:
            before = self._loop.time()
            await asyncio.sleep(interval)
            lag = self._loop.time() - before - interval
            if lag > self.max_loop_lag:
                self.max_loop_lag = lag
            self._lag_samples += 1

    # ---------------------------------------------------------------- #
    # connection handling
    # ---------------------------------------------------------------- #

    async def _handle_connection(self, reader, writer) -> None:
        host, client = peer_name(writer)
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.max_body)
                except ReproError as exc:
                    status = STATUS_BY_CODE.get(exc.code, 500)
                    await write_response(
                        writer,
                        Response.json(exc.to_payload(), status=status),
                        keep_alive=False,
                    )
                    return
                if request is None:
                    return
                request.client = client
                if request.path == "/v1/subscribe":
                    await self._handle_websocket(request, reader, writer)
                    return
                response = await self._stack(request)
                keep_alive = (
                    request.header("connection", "keep-alive") or ""
                ).lower() != "close"
                await write_response(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ---------------------------------------------------------------- #
    # HTTP routes
    # ---------------------------------------------------------------- #

    async def _dispatch(self, request: Request) -> Response:
        handler = self._routes.get((request.method, request.path))
        if handler is not None:
            request.context["route"] = f"{request.method} {request.path}"
            return await handler(request)
        if request.method == "GET" and request.path.startswith("/v1/views/"):
            name = request.path[len("/v1/views/") :]
            if name and "/" not in name:
                request.context["route"] = "GET /v1/views/<name>"
                return await self._route_view_result(request, name)
        if any(path == request.path for _, path in self._routes):
            allowed = sorted(
                method for method, path in self._routes if path == request.path
            )
            return Response.json(
                {"error": "method_not_allowed", "allow": allowed},
                status=405,
                Allow=", ".join(allowed),
            )
        raise NotFoundError(f"no route for {request.method} {request.path}")

    async def _route_ingest(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, dict) or "records" not in payload:
            raise BadRequestError("expected a JSON object with a 'records' array")
        records = records_from_json(payload["records"])
        receipt = await self._run_engine(self.engine.ingest_batch, records)
        self._mutations += 1
        body = receipt.to_payload()
        body["events"] = len(receipt)
        return Response.json(body)

    async def _route_query(self, request: Request) -> Response:
        payload = request.json()
        text = payload.get("query") if isinstance(payload, dict) else None
        if not isinstance(text, str) or not text.strip():
            raise BadRequestError("expected a JSON object with a 'query' string")
        entail = bool(payload.get("entail", False))
        try:
            result = await self._run_engine(self.engine.query, text, entail=entail)
        except (ValueError, KeyError) as exc:
            raise QueryError.wrap(exc)
        return Response.json(query_result_to_json(result))

    async def _route_register_view(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, dict):
            raise BadRequestError("expected a JSON object")
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            raise BadRequestError("expected a 'query' string")
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            raise BadRequestError("'name' must be a string")
        push = bool(payload.get("push", False))
        if name is not None and name in self._views:
            raise BadRequestError(
                f"view {name!r} is already registered", detail={"name": name}
            )
        try:
            handle = await self._run_engine(
                self.engine.register_standing, text, name=name, push=push
            )
        except ValueError as exc:
            raise QueryError.wrap(exc)
        key = handle.name or name or text
        self._views[key] = handle
        self._mutations += 1
        return Response.json(handle.to_payload(), status=201)

    async def _route_list_views(self, request: Request) -> Response:
        return Response.json(
            {"views": [handle.to_payload() for handle in self._views.values()]}
        )

    async def _route_view_result(self, request: Request, name: str) -> Response:
        handle = self._views.get(name)
        if handle is None:
            raise NotFoundError(f"no view named {name!r}", detail={"name": name})
        # served through the engine's query path, which federates across
        # partitions and applies the full modifier pipeline — and is
        # answered *from* the materialized view by the planner
        result = await self._run_engine(self.engine.query, handle.text)
        body = query_result_to_json(result)
        body["view"] = handle.to_payload()
        return Response.json(body)

    async def _route_health(self, request: Request) -> Response:
        report = await self._run_engine(self.engine.health)
        status = 200 if report.get("healthy", False) else 503
        return Response.json(json_safe(report), status=status)

    async def _route_statistics(self, request: Request) -> Response:
        snapshot = await self._run_engine(self.engine.statistics)
        return Response.json(json_safe(snapshot))

    async def _route_metrics(self, request: Request) -> Response:
        return Response.json(
            {
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "middleware": self.metrics.snapshot(),
                "cache": self.cache.snapshot(),
                "rate_limited": self.rate_limit.limited,
                "unhandled_errors": self.context.unhandled_errors,
                "subscriptions": {
                    "open": len(self._bridges),
                    "bridges": [bridge.stats() for bridge in self._bridges],
                },
                "event_loop": {
                    "max_lag_ms": round(1000 * self.max_loop_lag, 3),
                    "samples": self._lag_samples,
                },
            }
        )

    # ---------------------------------------------------------------- #
    # WebSocket subscriptions
    # ---------------------------------------------------------------- #

    async def _handle_websocket(self, request: Request, reader, writer) -> None:
        if not request.wants_upgrade:
            await write_response(
                writer,
                Response.json(
                    {"error": "upgrade_required", "message": "use a WebSocket client"},
                    status=426,
                ),
                keep_alive=False,
            )
            return
        key = request.header("sec-websocket-key")
        if not key:
            await write_response(
                writer,
                Response.json(
                    {"error": "bad_request", "message": "missing Sec-WebSocket-Key"},
                    status=400,
                ),
                keep_alive=False,
            )
            return
        try:
            self.rate_limit.check(request)
        except ReproError as exc:
            await write_response(
                writer,
                Response.json(exc.to_payload(), status=STATUS_BY_CODE.get(exc.code, 500)),
                keep_alive=False,
            )
            return

        patterns = [
            pattern.strip()
            for pattern in (request.query.get("topics") or "#").split(",")
            if pattern.strip()
        ] or ["#"]

        writer.write(ws.handshake_response(key))
        await writer.drain()
        # a slow reader should stall the sender quickly (and shed load in
        # the bounded bridge queue) instead of buffering without bound
        writer.transport.set_write_buffer_limits(
            high=self.config.ws_write_buffer,
            low=self.config.ws_write_buffer // 2,
        )

        bridge = SubscriptionBridge(self._loop, limit=self.config.ws_queue_limit)
        self._bridges.append(bridge)
        subscriptions = []
        for pattern in patterns:
            subscription = self.engine.subscribe(pattern, bridge.push)
            if subscription is not None:
                subscriptions.append(subscription)

        async def send_json(payload: dict) -> None:
            writer.write(ws.encode_text(json.dumps(payload, separators=(",", ":"))))
            await writer.drain()

        async def sender() -> None:
            await send_json({"type": "ready", "topics": patterns})
            while not bridge.closed:
                dropped, items = await bridge.drain(
                    timeout=self.config.ws_ping_interval
                )
                if bridge.closed:
                    return
                if dropped:
                    await send_json(lag_marker(dropped))
                for item in items:
                    await send_json(message_to_json(item))
                if not items and not dropped:
                    writer.write(ws.encode_frame(ws.OP_PING, b"keepalive"))
                    await writer.drain()

        async def receiver() -> None:
            parser = ws.FrameParser(require_mask=True)
            while True:
                data = await reader.read(4096)
                if not data:
                    return
                for frame in parser.feed(data):
                    if frame.opcode == ws.OP_PING:
                        writer.write(ws.encode_frame(ws.OP_PONG, frame.payload))
                        await writer.drain()
                    elif frame.opcode == ws.OP_CLOSE:
                        writer.write(ws.encode_close())
                        await writer.drain()
                        return
                    # text/pong frames are accepted and ignored

        sender_task = self._loop.create_task(sender())
        receiver_task = self._loop.create_task(receiver())
        try:
            done, pending = await asyncio.wait(
                {sender_task, receiver_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            bridge.close()
            for task in pending:
                task.cancel()
            for task in done | pending:
                try:
                    await task
                except (
                    asyncio.CancelledError,
                    ConnectionResetError,
                    BrokenPipeError,
                    ws.ProtocolError,
                ):
                    pass
        finally:
            bridge.close()
            if bridge in self._bridges:
                self._bridges.remove(bridge)
            if self._broker is not None:
                for subscription in subscriptions:
                    try:
                        self._broker.unsubscribe(subscription)
                    except Exception:
                        pass


class GatewayServer:
    """Run a :class:`Gateway` on a background thread with its own loop.

    The synchronous entry point tests, benchmarks and the example use:

        server = GatewayServer(engine, config).start()
        ... requests against 127.0.0.1:server.port ...
        server.stop()
    """

    def __init__(self, engine: Any, config: Optional[ServingConfig] = None):
        self.engine = engine
        self.config = config or ServingConfig()
        self.gateway: Optional[Gateway] = None
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> "GatewayServer":
        self._thread = threading.Thread(
            target=self._run, name="gateway-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("gateway did not start in time")
        if self._startup_error is not None:
            raise RuntimeError("gateway failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup failures to start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self.gateway = Gateway(self.engine, self.config)
        try:
            await self.gateway.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = self.gateway.port
        self._ready.set()
        await self._shutdown.wait()
        await self.gateway.stop()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._shutdown is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
