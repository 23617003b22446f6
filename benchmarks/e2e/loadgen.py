"""The load generator: one HTTP keep-alive connection, one WebSocket.

The generator lives in the harness process, so its JSON work never
shares the engine's interpreter lock.  Request bytes are encoded before
the window opens; a latency stops when the last response byte is read,
and bodies are kept raw — parsing them for the checks happens after the
window.  Two threads at most: the caller's (HTTP) and the WebSocket
reader's.
"""

from __future__ import annotations

import base64
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.serving import websocket as ws

HOST = "127.0.0.1"


def encode_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
    if body:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


@dataclass
class Reply:
    status: int
    cache_hit: bool
    body: bytes
    sent_at: float
    done_at: float


class HttpConnection:
    """A blocking HTTP/1.1 keep-alive connection that stamps each reply."""

    def __init__(self, port: int, timeout: float = 60.0):
        self._sock = socket.create_connection((HOST, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def exchange(self, request: bytes) -> Reply:
        sent_at = time.perf_counter()
        self._sock.sendall(request)
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head, rest = buffer[:end], buffer[end + 4 :]
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        cache_hit = False
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            key = key.strip().lower()
            if key == b"content-length":
                length = int(value)
            elif key == b"x-cache":
                cache_hit = value.strip() == b"hit"
        while len(rest) < length:
            chunk = self._sock.recv(max(65536, length - len(rest)))
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            rest += chunk
        done_at = time.perf_counter()
        self._buffer = rest[length:]
        return Reply(status, cache_hit, rest[:length], sent_at, done_at)

    def close(self) -> None:
        self._sock.close()


class AlertListener:
    """The WebSocket subscriber: stamps every frame on arrival, parses later."""

    def __init__(self, port: int, topic: str):
        self._sock = socket.create_connection((HOST, port), timeout=30.0)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        self._sock.sendall(
            (
                f"GET /v1/subscribe?topics={topic.replace('/', '%2F')} HTTP/1.1\r\n"
                f"Host: {HOST}\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ConnectionError("WebSocket handshake failed")
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0]:
            raise ConnectionError(f"WebSocket upgrade refused: {head[:80]!r}")
        self._parser = ws.FrameParser(require_mask=False)
        #: (arrival stamp, text payload) of every data frame, in order
        self.frames: List[Tuple[float, str]] = []
        self._ready = threading.Event()
        self._closing = False
        self._consume(rest, time.perf_counter())
        self._thread = threading.Thread(target=self._run, name="alert-listener")
        self._thread.start()

    def _consume(self, data: bytes, stamp: float) -> None:
        for frame in self._parser.feed(data) if data else ():
            if frame.opcode == ws.OP_TEXT:
                self.frames.append((stamp, frame.text))
                self._ready.set()
            elif frame.opcode == ws.OP_PING:
                self._sock.sendall(ws.encode_frame(ws.OP_PONG, frame.payload, mask=True))

    def _run(self) -> None:
        try:
            while True:
                data = self._sock.recv(65536)
                stamp = time.perf_counter()
                if not data:
                    return
                self._consume(data, stamp)
        except OSError:
            if not self._closing:
                raise

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Whether the server's ``ready`` frame arrived (the subscription is live)."""
        return self._ready.wait(timeout)

    def close(self) -> None:
        self._closing = True
        try:
            self._sock.sendall(ws.encode_close(mask=True))
        except OSError:
            pass
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            self._sock.shutdown(socket.SHUT_RDWR)
            self._thread.join(timeout=5.0)
        self._sock.close()


@dataclass
class OpSample:
    kind: str  # "ingest" | "query"
    due_at: float
    reply: Reply

    @property
    def latency(self) -> float:
        return self.reply.done_at - self.due_at


@dataclass
class WindowLog:
    """What the generator's clock saw during one measured window."""

    started_at: float = 0.0
    ended_at: float = 0.0
    ops: List[OpSample] = field(default_factory=list)
    tick_due: List[float] = field(default_factory=list)
    tick_done: List[float] = field(default_factory=list)
    #: first send of each tick minus its due time
    schedule_lag: List[float] = field(default_factory=list)


def due_times(start: float, rate: float, count: int) -> List[float]:
    """The open-loop schedule: tick ``k`` is due at ``start + k / rate``."""
    return [start + k / rate for k in range(count)]


def wait_until(due: float) -> None:
    """Sleep to just before ``due``, then spin the last stretch."""
    while True:
        remaining = due - time.perf_counter()
        if remaining <= 0:
            return
        if remaining > 0.002:
            time.sleep(remaining - 0.0015)


def run_open_loop(
    connection: HttpConnection,
    rate: float,
    ingest_requests: Sequence[bytes],
    query_requests: Sequence[bytes],
    reasked: Sequence[int],
) -> WindowLog:
    """Send one scripted tick every ``1 / rate`` seconds, whatever happens.

    A tick is the poll upload, every panel once, then the re-asked panels,
    back to back on the one connection.  The poll and the tick are timed
    from the tick's due time, so a tick that starts late (its predecessor
    overran) carries the wait; a panel is due when the op before it ended,
    or at the tick's due time if that is later.
    """
    log = WindowLog()
    log.started_at = time.perf_counter() + 0.05
    schedule = due_times(log.started_at, rate, len(ingest_requests))
    for tick, due in enumerate(schedule):
        wait_until(due)
        reply = connection.exchange(ingest_requests[tick])
        log.schedule_lag.append(reply.sent_at - due)
        log.ops.append(OpSample("ingest", due, reply))
        for index in [*range(len(query_requests)), *reasked]:
            reply = connection.exchange(query_requests[index])
            log.ops.append(OpSample("query", reply.sent_at, reply))
        log.tick_due.append(due)
        log.tick_done.append(reply.done_at)
    log.ended_at = log.tick_done[-1]
    return log


def run_closed_loop(
    connection: HttpConnection,
    seconds: float,
    ingest_requests: Sequence[bytes],
) -> WindowLog:
    """Send polls back to back for ``seconds`` (or until the script ends)."""
    log = WindowLog()
    log.started_at = time.perf_counter()
    deadline = log.started_at + seconds
    for request in ingest_requests:
        reply = connection.exchange(request)
        log.ops.append(OpSample("ingest", reply.sent_at, reply))
        log.tick_due.append(reply.sent_at)
        log.tick_done.append(reply.done_at)
        if reply.done_at >= deadline:
            break
    log.ended_at = log.tick_done[-1]
    return log
