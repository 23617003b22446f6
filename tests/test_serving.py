"""Tests for the serving front door and the unified typed API.

Covers the typed results and error hierarchy, the sans-IO WebSocket codec,
the backpressure bridge, the middleware stack pieces, and the gateway
end-to-end over real sockets: ingest / query round-trips bag-equal with
direct library calls, error-code → status mapping, rate limiting, response
caching, degraded reads, and slow-consumer lag markers.
"""

import json
import math
import threading
import time

import pytest

from repro.core.api import HealthReport, IngestReceipt, StandingViewHandle
from repro.core.faults import ShardUnavailableError
from repro.core.middleware import MiddlewareConfig, SemanticMiddleware
from repro.errors import (
    BadRequestError,
    QueryError,
    RateLimitedError,
    ReproError,
)
from repro.ontologies import build_unified_ontology
from repro.persistence.store import StoreMetadataError
from repro.cep.event import DerivedEvent, Event
from repro.semantics.sparql.evaluator import QueryResult
from repro.serving import STATUS_BY_CODE, GatewayServer, ServingConfig
from repro.serving import websocket as ws
from repro.serving.bridge import SubscriptionBridge, lag_marker
from repro.serving.client import HttpClient, WebSocketClient
from repro.serving.middleware import TokenBucket
from repro.serving.serialize import query_result_to_json
from repro.streams.messages import ObservationRecord

OBSERVATION_QUERY = (
    "SELECT ?s WHERE { ?s a <http://purl.oclc.org/NET/ssnx/ssn#Observation> }"
)


@pytest.fixture(scope="module")
def library():
    return build_unified_ontology(materialize=True)


def record(property_name="Bodenfeuchte", value=15.0, unit="percent",
           source_kind="wsn_mote", source_id="Mangaung-mote-01", timestamp=3600.0):
    return ObservationRecord(
        source_id=source_id, source_kind=source_kind, property_name=property_name,
        value=value, unit=unit, timestamp=timestamp, location=(-29.1, 26.2),
    )


def wire_record(property_name="Bodenfeuchte", value=15.0, unit="percent",
                source_id="Mangaung-mote-01", timestamp=3600.0):
    return {
        "source_id": source_id, "source_kind": "wsn_mote",
        "property_name": property_name, "value": value, "unit": unit,
        "timestamp": timestamp, "location": [-29.1, 26.2],
    }


def row_bag(payload):
    """A query payload's rows as a comparable multiset."""
    return sorted(json.dumps(row, sort_keys=True) for row in payload["rows"])


# --------------------------------------------------------------------- #
# the typed API surface
# --------------------------------------------------------------------- #


class TestTypedApi:
    @pytest.fixture
    def middleware(self, library):
        with SemanticMiddleware(
            library=library,
            config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0),
        ) as mw:
            yield mw

    def test_ingest_receipt_is_event_list(self, middleware):
        receipt = middleware.ingest_batch([record(value=14.0)])
        assert isinstance(receipt, IngestReceipt)
        assert len(receipt) == 1
        assert receipt[0].event_type == "soil_moisture"
        assert receipt.accepted == 1
        assert receipt.rejected == 0
        assert receipt.events == list(receipt)
        assert receipt.to_payload() == {
            "accepted": 1, "rejected": 0, "quarantined": 0,
        }

    def test_ingest_receipt_counts_rejects(self, middleware):
        receipt = middleware.ingest_batch([
            record(value=14.0),
            record("quantum_flux", 1.0),             # unresolvable term
            record(value=math.nan, timestamp=3800.0),  # non-finite reading
        ])
        assert receipt.accepted == 1
        assert receipt.rejected == 2
        assert receipt.quarantined == 0

    def test_empty_batch_still_equals_empty_list(self, middleware):
        assert middleware.ingest_batch([]) == []

    def test_rejected_counts_are_per_call_deltas(self, middleware):
        first = middleware.ingest_batch([record("quantum_flux", 1.0)])
        second = middleware.ingest_batch([record(value=12.5, timestamp=4000.0)])
        assert first.rejected == 1
        assert second.rejected == 0

    def test_health_report_is_typed_dict(self, middleware):
        report = middleware.health()
        assert isinstance(report, HealthReport)
        assert report["healthy"] is True          # old subscript contract
        assert report.healthy is True             # new typed contract
        assert report.shards[0]["state"] == "up"
        assert report.persistence is None

    def test_health_report_carries_persistence(self, library, tmp_path):
        with SemanticMiddleware(
            library=library,
            config=MiddlewareConfig(
                broker_latency=0.0, data_dir=str(tmp_path / "store")
            ),
        ) as mw:
            mw.ingest_batch([record(value=11.0)])
            report = mw.health()
            assert report.persistence is not None
            assert report.persistence["shards"][0]["generation"] >= 0

    def test_standing_view_handle(self, middleware):
        handle = middleware.register_standing(
            OBSERVATION_QUERY, name="obs", push=True
        )
        assert isinstance(handle, StandingViewHandle)
        assert handle.name == "obs"
        assert handle.push is True
        assert handle.topic == "views/obs"
        assert handle[0] is handle.views[0]       # old indexing contract
        payload = handle.to_payload()
        assert payload["name"] == "obs"
        assert payload["partitions"] == len(handle)

    def test_middleware_subscribe_receives_envelopes(self, middleware):
        seen = []
        middleware.subscribe("canonical/#", seen.append)
        middleware.ingest_batch([record(value=13.0)])
        assert seen and seen[0].topic == "canonical/soil_moisture/Mangaung"
        assert seen[0].payload.event_type == "soil_moisture"

    def test_layer_statistics_is_callable_and_attribute(self, middleware):
        layer = middleware.ontology_layer
        layer.ingest_batch([record(value=10.0, timestamp=5000.0)])
        assert layer.statistics.records_in >= 1     # attribute contract
        snapshot = layer.statistics()               # unified callable form
        assert snapshot["records_in"] == layer.statistics.records_in

    def test_layer_subscribe_filters_by_pattern(self, library):
        from repro.core.ontology_layer import OntologySegmentLayer

        layer = OntologySegmentLayer(library=library)
        hits, misses = [], []
        layer.subscribe("derived/drought_watch/#", hits.append)
        layer.subscribe("derived/never_matches/#", misses.append)
        listener_count = len(layer.cep._listeners)
        assert listener_count >= 2
        # fabricate a derived event through the CEP listener path
        event = DerivedEvent(
            event_type="drought_watch", value=0.8, timestamp=10.0,
            area="Mangaung", rule_name="test",
        )
        for listener in layer.cep._listeners[-2:]:
            listener(event)
        assert [e.event_type for e in hits] == ["drought_watch"]
        assert misses == []


class TestErrorHierarchy:
    def test_shard_unavailable_is_typed_and_runtime(self):
        exc = ShardUnavailableError("shard 2 down", shard=2)
        assert isinstance(exc, ReproError)
        assert isinstance(exc, RuntimeError)      # pre-hierarchy contract
        assert exc.code == "shard_unavailable"
        assert exc.to_payload()["detail"] == {"shard": 2}

    def test_store_metadata_error_is_typed(self):
        exc = StoreMetadataError("bad meta")
        assert isinstance(exc, ReproError)
        assert isinstance(exc, RuntimeError)
        assert exc.code == "store_metadata"

    def test_rate_limited_carries_retry_after(self):
        exc = RateLimitedError(retry_after=2.5)
        assert exc.code == "rate_limited"
        assert exc.detail["retry_after"] == 2.5

    def test_query_error_wraps_value_error(self):
        exc = QueryError.wrap(ValueError("no parse"))
        assert exc.code == "query_error"
        assert "no parse" in str(exc)

    def test_every_code_in_status_table_is_sane(self):
        for code, status in STATUS_BY_CODE.items():
            assert 400 <= status <= 599, code
        assert STATUS_BY_CODE["rate_limited"] == 429
        assert STATUS_BY_CODE["shard_unavailable"] == 503


# --------------------------------------------------------------------- #
# the sans-IO WebSocket codec
# --------------------------------------------------------------------- #


class TestWebSocketCodec:
    def test_masked_roundtrip(self):
        parser = ws.FrameParser(require_mask=True)
        frames = parser.feed(ws.encode_text("hello", mask=True))
        assert [f.text for f in frames] == ["hello"]

    def test_unmasked_client_frame_rejected_by_server(self):
        parser = ws.FrameParser(require_mask=True)
        with pytest.raises(ws.ProtocolError):
            parser.feed(ws.encode_text("hello", mask=False))

    def test_partial_feeds_reassemble(self):
        frame = ws.encode_text("x" * 300, mask=True)  # 16-bit length form
        parser = ws.FrameParser(require_mask=True)
        out = []
        for i in range(0, len(frame), 7):
            out.extend(parser.feed(frame[i : i + 7]))
        assert len(out) == 1 and out[0].text == "x" * 300

    def test_fragmented_message_reassembles(self):
        parser = ws.FrameParser()
        data = (
            ws.encode_frame(ws.OP_TEXT, b"he", fin=False)
            + ws.encode_frame(ws.OP_PING, b"k")
            + ws.encode_frame(ws.OP_CONT, b"llo", fin=True)
        )
        frames = parser.feed(data)
        assert [f.opcode for f in frames] == [ws.OP_PING, ws.OP_TEXT]
        assert frames[1].text == "hello"

    def test_close_frame_carries_code(self):
        parser = ws.FrameParser()
        frames = parser.feed(ws.encode_close(1001, "bye"))
        assert frames[0].close_code == 1001

    def test_accept_key_matches_rfc_example(self):
        # the worked example from RFC 6455 §1.3
        assert (
            ws.accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )


# --------------------------------------------------------------------- #
# the backpressure bridge and the token bucket
# --------------------------------------------------------------------- #


class TestBridge:
    def test_drop_oldest_and_lag_accounting(self):
        import asyncio

        async def scenario():
            loop = asyncio.get_running_loop()
            bridge = SubscriptionBridge(loop, limit=3)
            for i in range(7):
                bridge.push(i)
            dropped, items = await bridge.drain(timeout=0.5)
            assert dropped == 4
            assert items == [4, 5, 6]             # newest survive
            assert bridge.stats()["dropped"] == 4
            bridge.push(7)
            dropped, items = await bridge.drain(timeout=0.5)
            assert (dropped, items) == (0, [7])

        asyncio.run(scenario())

    def test_push_from_foreign_thread_wakes_consumer(self):
        import asyncio

        async def scenario():
            loop = asyncio.get_running_loop()
            bridge = SubscriptionBridge(loop, limit=8)
            threading.Timer(0.05, lambda: bridge.push("x")).start()
            dropped, items = await bridge.drain(timeout=5.0)
            assert (dropped, items) == (0, ["x"])

        asyncio.run(scenario())

    def test_lag_marker_shape(self):
        assert lag_marker(3) == {"type": "lag", "dropped": 3}


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1000.0, burst=2)
        assert bucket.take()[0]
        assert bucket.take()[0]
        ok, retry = bucket.take()
        assert not ok and retry > 0
        time.sleep(0.005)
        assert bucket.take()[0]


# --------------------------------------------------------------------- #
# the gateway end-to-end
# --------------------------------------------------------------------- #


@pytest.fixture(scope="class")
def served(request):
    """One gateway-fronted middleware plus a direct twin for equivalence."""
    served_mw = SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0),
    )
    twin = SemanticMiddleware(
        library=build_unified_ontology(materialize=True),
        config=MiddlewareConfig(annotate_observations=True, broker_latency=0.0),
    )
    server = GatewayServer(served_mw, ServingConfig()).start()
    request.cls.server = server
    request.cls.engine = served_mw
    request.cls.twin = twin
    yield server
    server.stop()
    served_mw.close()
    twin.close()


@pytest.mark.usefixtures("served")
class TestGatewayHttp:
    def client(self, client_id="tests"):
        return HttpClient("127.0.0.1", self.server.port, client_id=client_id)

    def test_served_results_bag_equal_direct_calls(self):
        records = [
            wire_record(value=14.0),
            wire_record("Hoehe", 250.0, "cm", source_id="Mangaung-mote-02",
                        timestamp=3700.0),
            wire_record("quantum_flux", 1.0, timestamp=3800.0),
        ]
        # the class shares one served engine: count what this test adds
        before = len(self.twin.query(OBSERVATION_QUERY))
        with self.client() as c:
            status, body, _ = c.post("/v1/ingest", {"records": records})
            assert status == 200
            assert body["accepted"] == 2
            assert body["rejected"] == 1
        twin_receipt = self.twin.ingest_batch(
            [ObservationRecord.from_dict(r) for r in records]
        )
        assert twin_receipt.accepted == 2

        with self.client() as c:
            status, served_payload, _ = c.post(
                "/v1/query", {"query": OBSERVATION_QUERY}
            )
            assert status == 200
        direct_payload = query_result_to_json(self.twin.query(OBSERVATION_QUERY))
        assert row_bag(served_payload) == row_bag(direct_payload)
        assert len(served_payload["rows"]) == before + 2

    def test_entailment_query_served(self):
        # rdfs9 over the SSN hierarchy: sensing devices surface as sensors
        entail_query = (
            "SELECT DISTINCT ?sensor WHERE "
            "{ ?sensor a <http://purl.oclc.org/NET/ssnx/ssn#Sensor> }"
        )
        # its own sensing device, on both engines: the test must not lean
        # on what an earlier test of the class happened to ingest
        reading = wire_record(source_id="Xhariep-mote-07", timestamp=7200.0)
        self.twin.ingest_batch([ObservationRecord.from_dict(reading)])
        with self.client() as c:
            status, receipt, _ = c.post("/v1/ingest", {"records": [reading]})
            assert (status, receipt["accepted"]) == (200, 1)
            status, plain, _ = c.post("/v1/query", {"query": entail_query})
            assert status == 200
            status, body, _ = c.post(
                "/v1/query", {"query": entail_query, "entail": True}
            )
            assert status == 200
        direct = query_result_to_json(self.twin.query(entail_query, entail=True))
        assert row_bag(body) == row_bag(direct)
        # the entailed result is strictly larger: subclass members appear
        assert len(body["rows"]) > len(plain["rows"])

    def test_malformed_json_maps_to_400(self):
        with self.client() as c:
            status, body, _ = c.request(
                "POST", "/v1/query", headers={"Content-Type": "application/json"}
            )
            assert status == 400
        import http.client as hc

        conn = hc.HTTPConnection("127.0.0.1", self.server.port)
        conn.request("POST", "/v1/ingest", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert payload["error"] == "bad_request"
        conn.close()

    def test_bad_query_maps_to_query_error(self):
        with self.client() as c:
            status, body, _ = c.post("/v1/query", {"query": "NOT SPARQL"})
            assert status == 400
            assert body["error"] == "query_error"

    def test_malformed_record_maps_to_400_with_detail(self):
        with self.client() as c:
            status, body, _ = c.post(
                "/v1/ingest", {"records": [{"source_id": "x"}]}
            )
            assert status == 400
            assert body["error"] == "bad_request"
            assert "missing" in body["detail"]

    def test_unknown_route_404_and_wrong_method_405(self):
        with self.client() as c:
            status, body, _ = c.get("/v1/nothing-here")
            assert status == 404
            assert body["error"] == "not_found"
            status, body, headers = c.get("/v1/ingest")
            assert status == 405
            assert "POST" in headers.get("Allow", "")

    def test_view_lifecycle(self):
        with self.client() as c:
            status, body, _ = c.post(
                "/v1/views", {"query": OBSERVATION_QUERY, "name": "obs-http"}
            )
            assert status == 201
            assert body["name"] == "obs-http"
            status, body, _ = c.post(
                "/v1/views", {"query": OBSERVATION_QUERY, "name": "obs-http"}
            )
            assert status == 400                   # duplicate name
            status, listing, _ = c.get("/v1/views")
            assert "obs-http" in [v["name"] for v in listing["views"]]
            status, result, _ = c.get("/v1/views/obs-http")
            assert status == 200
            direct = query_result_to_json(self.engine.query(OBSERVATION_QUERY))
            assert row_bag(result) == row_bag(direct)
            status, body, _ = c.get("/v1/views/no-such-view")
            assert status == 404

    def test_query_cache_hits_and_ingest_invalidates(self):
        probe = {"query": OBSERVATION_QUERY.replace("?s", "?cacheprobe")}
        with self.client() as c:
            _, _, h1 = c.post("/v1/query", probe)
            _, _, h2 = c.post("/v1/query", probe)
            assert h2.get("X-Cache") == "hit"
            status, _, _ = c.post(
                "/v1/ingest",
                {"records": [wire_record(value=9.0, timestamp=9000.0)]},
            )
            assert status == 200
            _, _, h3 = c.post("/v1/query", probe)
            assert h3.get("X-Cache") == "miss"
        self.twin.ingest_batch([record(value=9.0, timestamp=9000.0)])

    def test_health_and_statistics_serve_json(self):
        with self.client() as c:
            status, health, _ = c.get("/v1/health")
            assert status == 200
            assert health["healthy"] is True
            assert health["shards"][0]["state"] == "up"
            status, stats, _ = c.get("/v1/statistics")
            assert status == 200
            assert stats["ontology_layer"]["records_in"] >= 1
            status, metrics, _ = c.get("/v1/metrics")
            assert status == 200
            assert "POST /v1/query" in metrics["middleware"]["routes"]
            assert metrics["event_loop"]["samples"] > 0

    def test_payload_too_large_maps_to_413(self):
        with self.client() as c:
            big = [wire_record(timestamp=float(i)) for i in range(8000)]
            status, body, _ = c.post("/v1/ingest", {"records": big})
            assert status == 413
            assert body["error"] == "payload_too_large"

    def test_concurrent_mixed_clients(self):
        errors = []

        def worker(index):
            try:
                with self.client(client_id=f"worker-{index}") as c:
                    for i in range(5):
                        ts = 20_000.0 + index * 100 + i
                        status, body, _ = c.post(
                            "/v1/ingest",
                            {"records": [wire_record(value=10.0 + i, timestamp=ts)]},
                        )
                        assert status == 200, body
                        status, body, _ = c.post(
                            "/v1/query", {"query": OBSERVATION_QUERY}
                        )
                        assert status == 200, body
                        status, _, _ = c.get("/v1/health")
                        assert status == 200
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        with WebSocketClient(
            "127.0.0.1", self.server.port, topics=["canonical/#"]
        ) as subscriber:
            assert subscriber.recv_json(timeout=5)["type"] == "ready"
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            message = subscriber.recv_json(timeout=5)
            assert message["type"] == "message"
            assert message["topic"].startswith("canonical/")
        # keep the twin in sync for later bag-equality tests
        for index in range(8):
            self.twin.ingest_batch([
                record(value=10.0 + i, timestamp=20_000.0 + index * 100 + i)
                for i in range(5)
            ])


class TestGatewayCacheTokenStaysInProcess:
    def test_process_backend_query_sends_no_dump(self):
        """The cache token is computed on the event-loop thread for every
        query; it must never reach into a shard worker (it used to dump
        every shard's graph per request)."""
        from repro.core.shard_wire import OP_DUMP

        with SemanticMiddleware(
            library=build_unified_ontology(materialize=True),
            config=MiddlewareConfig(
                shards=2, shard_backend="process", broker_latency=0.0
            ),
        ) as mw:
            backend = mw.ontology_layer._backend
            opcodes = []
            scatter = backend.scatter

            def recording(requests):
                requests = list(requests)
                opcodes.extend(opcode for _, opcode, _ in requests)
                return scatter(requests)

            backend.scatter = recording
            probe = {"query": OBSERVATION_QUERY}
            with GatewayServer(mw, ServingConfig()) as server:
                with HttpClient("127.0.0.1", server.port, client_id="t") as c:
                    status, first, h1 = c.post("/v1/query", probe)
                    assert status == 200 and h1.get("X-Cache") == "miss"
                    _, _, h2 = c.post("/v1/query", probe)
                    assert h2.get("X-Cache") == "hit"
                    # a write behind the gateway's back still moves the token
                    token = server.gateway._version_token()
                    mw.ingest_batch([record(value=11.0, timestamp=7200.0)])
                    assert server.gateway._version_token() != token
                    status, third, h3 = c.post("/v1/query", probe)
                    assert status == 200 and h3.get("X-Cache") == "miss"
                    assert len(third["rows"]) == len(first["rows"]) + 1
            assert opcodes, "the queries never reached the workers"
            assert OP_DUMP not in opcodes


class TestStatisticsViewSectionIsOneRound:
    def test_process_backend_statistics_sends_one_stats_per_shard(self):
        """``statistics()["standing_views"]`` is one ``stats`` round — every
        shard answers for all of its views at once (it used to be one RPC
        per view handle per counter: O(views x shards))."""
        from repro.core.shard_wire import OP_STATS

        queries = [
            OBSERVATION_QUERY,
            "SELECT ?s WHERE { ?s rdf:type ik:IndicatorSighting }",
            "ASK WHERE { ?obs rdf:type ssn:Observation }",
        ]
        batches = [
            [record(value=10.0 + i, timestamp=3600.0 * (i + 1)) for i in range(6)],
            [record(value=30.0 + i, timestamp=90_000.0 + i) for i in range(4)],
        ]

        def drive(backend):
            mw = SemanticMiddleware(
                library=build_unified_ontology(materialize=True),
                config=MiddlewareConfig(
                    shards=3, shard_backend=backend, broker_latency=0.0
                ),
            )
            for index, text in enumerate(queries):
                mw.register_standing(text, name=f"view-{index}", push=True)
            for batch in batches:
                mw.ingest_batch(batch)
            return mw

        with drive("inline") as inline, drive("process") as proc:
            backend = proc.ontology_layer._backend
            opcodes = []
            scatter = backend.scatter

            def recording(requests):
                requests = list(requests)
                opcodes.extend(opcode for _, opcode, _ in requests)
                return scatter(requests)

            backend.scatter = recording
            views = proc.ontology_layer.standing_view_statistics()
            assert opcodes == [OP_STATS] * 3
            assert len(views["views"]) == len(queries) * 3
            expected = inline.statistics()["standing_views"]
            assert expected["delta_updates"] > 0
            for key in ("delta_updates", "full_refreshes"):
                assert views[key] == expected[key]
                assert proc.statistics()["standing_views"][key] == expected[key]


class TestGatewayRateLimit:
    def test_429_per_client_with_retry_after(self, library):
        with SemanticMiddleware(
            library=library, config=MiddlewareConfig(broker_latency=0.0)
        ) as mw:
            config = ServingConfig(rate_limit_rate=2.0, rate_limit_burst=3)
            with GatewayServer(mw, config) as server:
                with HttpClient(
                    "127.0.0.1", server.port, client_id="greedy"
                ) as c:
                    statuses = [
                        c.post("/v1/query", {"query": OBSERVATION_QUERY})[0]
                        for _ in range(6)
                    ]
                    assert statuses.count(429) >= 1
                    status, body, headers = c.post(
                        "/v1/query", {"query": OBSERVATION_QUERY}
                    )
                    if status == 429:
                        assert int(headers["Retry-After"]) >= 1
                        assert body["error"] == "rate_limited"
                # a different client id has its own untouched bucket
                with HttpClient(
                    "127.0.0.1", server.port, client_id="patient"
                ) as c2:
                    status, _, _ = c2.post(
                        "/v1/query", {"query": OBSERVATION_QUERY}
                    )
                    assert status == 200
                    # health stays exempt even for the throttled client
                with HttpClient(
                    "127.0.0.1", server.port, client_id="greedy"
                ) as c3:
                    assert c3.get("/v1/health")[0] == 200


class TestGatewayWebSocket:
    def test_subscription_delivers_and_backpressure_sheds(self, library):
        with SemanticMiddleware(
            library=library, config=MiddlewareConfig(broker_latency=0.0)
        ) as mw:
            config = ServingConfig(ws_queue_limit=8, ws_write_buffer=4096)
            with GatewayServer(mw, config) as server:
                with WebSocketClient(
                    "127.0.0.1", server.port, topics=["derived/#"]
                ) as slow:
                    assert slow.recv_json(timeout=5)["type"] == "ready"
                    # flood without reading: the transport buffer fills,
                    # the sender stalls, and the bounded bridge sheds
                    for i in range(4000):
                        mw.broker.publish(
                            "derived/flood/areaX",
                            Event(
                                event_type="flood", value=float(i),
                                timestamp=float(i), area="areaX",
                            ),
                        )
                    time.sleep(0.5)
                    saw_lag = False
                    values = []
                    for _ in range(5000):
                        message = slow.recv_json(timeout=2)
                        if message is None:
                            break
                        if message.get("type") == "lag":
                            saw_lag = True
                            assert message["dropped"] > 0
                        elif message.get("type") == "message":
                            values.append(message["payload"]["value"])
                    assert saw_lag, "slow consumer never saw a lag marker"
                    # drop-oldest: whatever survived is in order
                    assert values == sorted(values)
                    assert values, "no messages delivered at all"

    def test_plain_get_is_rejected_with_426(self, library):
        with SemanticMiddleware(
            library=library, config=MiddlewareConfig(broker_latency=0.0)
        ) as mw:
            with GatewayServer(mw, ServingConfig()) as server:
                with HttpClient("127.0.0.1", server.port) as c:
                    status, body, _ = c.get("/v1/subscribe")
                    assert status == 426


class _DegradedEngine:
    """A stub engine whose shard 1 is gone: degraded queries, sick health."""

    def ingest_batch(self, records):
        raise ShardUnavailableError("shard 1 circuit breaker open", shard=1)

    def query(self, text, entail=False):
        from repro.semantics.rdf.term import Variable
        from repro.semantics.sparql.bindings import Bindings

        result = QueryResult("SELECT", [Bindings({})], [Variable("s")])
        result.degraded = True
        result.missing_shards = (1,)
        return result

    def register_standing(self, text, name=None, push=False):
        return StandingViewHandle([], name=name, text=text, push=push)

    def subscribe(self, pattern, handler):
        return None

    def health(self):
        return HealthReport({
            "healthy": False, "backend": "process",
            "shards": [
                {"shard": 0, "state": "up"},
                {"shard": 1, "state": "tripped"},
            ],
            "degraded_reads": True, "quarantined_batches": 1,
            "validation_rejects": 0, "dead_letter_depth": 1,
        })

    def statistics(self):
        return {"stub": True}


class TestDegradedServing:
    def test_degraded_payloads_and_shard_unavailable_status(self):
        engine = _DegradedEngine()
        with GatewayServer(engine, ServingConfig()) as server:
            with HttpClient("127.0.0.1", server.port) as c:
                status, body, _ = c.post("/v1/query", {"query": "SELECT ..."})
                assert status == 200
                assert body["degraded"] is True
                assert body["missing_shards"] == [1]

                status, body, _ = c.post(
                    "/v1/ingest", {"records": [wire_record()]}
                )
                assert status == 503
                assert body["error"] == "shard_unavailable"
                assert body["detail"]["shard"] == 1

                status, body, _ = c.get("/v1/health")
                assert status == 503
                assert body["healthy"] is False
                assert body["shards"][1]["state"] == "tripped"
