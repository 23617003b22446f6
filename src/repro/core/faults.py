"""Deterministic fault injection for the process shard backend.

A :class:`FaultPlan` is a declarative list of faults — worker hangs,
slow RPCs, crash-at-op-N, boot-time crashes, WAL write/fsync errors and
torn frames — that the supervisor arms against its workers at precise,
reproducible points in the RPC stream.  The plan lives in the *parent*:
per-spec fire counters are kept on the supervisor side and shipped to
the worker as one-shot ``OP_FAULT`` directives immediately before the
RPC they apply to.  That keeps injection deterministic across worker
respawns (a forked worker inherits no half-spent counters) and makes a
replayed in-flight batch count as a fresh matching send, which is
exactly what a crash-loop test needs.

Plans come from three places, in precedence order: an explicit
``MiddlewareConfig.fault_plan``, the ``REPRO_FAULT_PLAN`` environment
variable (a compact spec string, see :meth:`FaultPlan.parse`), or
``REPRO_FAULT_SEED`` (a seeded random plan).  Environment-sourced plans
are meant for CI fault-matrix legs that run the *whole* suite under a
standard fault profile, so a :class:`FaultSession` drops unrecoverable
faults (anything but ``slow``) for backends without persistence — a
crash injected into a store that cannot recover would fail tests that
are not about fault tolerance at all.

The worker half is :class:`FaultInjector`: it holds armed directives,
fires hangs/delays/crashes around op dispatch, and exposes a
``wal_hook`` that :mod:`repro.persistence.wal` calls before WAL writes
and fsyncs to simulate disk-full errors and torn frames.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.shard_wire import OPS
from repro.errors import ReproError

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
FAULT_SEED_ENV = "REPRO_FAULT_SEED"
RPC_TIMEOUT_ENV = "REPRO_SHARD_RPC_TIMEOUT"

DEFAULT_RPC_TIMEOUT = 30.0

# fault kinds a worker can survive without persistence (no state is lost)
RECOVERABLE_ONLY_KINDS = frozenset(
    {"hang", "crash", "crash_after", "boot_crash", "wal_error", "wal_fsync_error", "wal_torn"}
)

KINDS = frozenset(
    {
        "hang",
        "slow",
        "crash",
        "crash_after",
        "boot_crash",
        "wal_error",
        "wal_fsync_error",
        "wal_torn",
    }
)

# symbolic op names accepted in plan specs: the op table's method names
OP_NAMES = {op.method: op.opcode for op in OPS.values()}


class ShardUnavailableError(ReproError, RuntimeError):
    """A shard's worker is gone and its circuit breaker is open.

    Raised by the process backend when an operation needs a shard whose
    restart budget is exhausted (and, for queries, ``degraded_reads`` is
    off).  Keeps :class:`RuntimeError` in its bases so pre-existing
    callers that caught worker-death errors keep working; carries the
    stable code ``shard_unavailable`` for the typed hierarchy (the
    serving gateway maps it to 503).
    """

    code = "shard_unavailable"

    def __init__(self, message: str, shard: Optional[int] = None):
        super().__init__(message, detail={"shard": shard} if shard is not None else {})
        self.shard = shard


@dataclass(frozen=True)
class FaultSpec:
    """One fault: *kind*, where it applies, and when it fires.

    ``at`` is 1-based over the matching sends (or boots, for
    ``boot_crash``): ``at=2, count=1`` fires on exactly the second
    matching send.  ``delay`` is the sleep for ``hang``/``slow``.
    """

    kind: str
    shard: Optional[int] = None  # None = any shard
    op: Optional[int] = None  # opcode; None = any op
    at: int = 1
    count: int = 1
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 1:
            raise ValueError("fault 'at' is 1-based and must be >= 1")

    def matches(self, shard: int, opcode: Optional[int]) -> bool:
        if self.shard is not None and self.shard != shard:
            return False
        if self.op is not None and self.op != opcode:
            return False
        return True


def _parse_spec(text: str) -> FaultSpec:
    parts = [part.strip() for part in text.strip().split(":") if part.strip()]
    if not parts:
        raise ValueError("empty fault spec")
    kind = parts[0]
    kwargs: Dict[str, object] = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed fault field {part!r} (expected key=value)")
        key = key.strip()
        value = value.strip()
        if key == "op":
            if value not in OP_NAMES:
                raise ValueError(f"unknown op name {value!r} in fault spec")
            kwargs["op"] = OP_NAMES[value]
        elif key in ("shard", "at", "count"):
            kwargs[key] = int(value)
        elif key == "delay":
            kwargs[key] = float(value)
        else:
            raise ValueError(f"unknown fault field {key!r}")
    return FaultSpec(kind=kind, **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable set of :class:`FaultSpec`."""

    specs: Tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a compact plan string.

        Comma-separated specs of colon-separated fields, e.g.
        ``"hang:op=ingest:at=2:delay=60,slow:op=query_full:delay=0.05"``.
        """
        specs = tuple(
            _parse_spec(chunk) for chunk in text.split(",") if chunk.strip()
        )
        return cls(specs)

    @classmethod
    def random(cls, seed: int, faults: int = 3) -> "FaultPlan":
        """A seeded random plan of recoverable faults for soak runs."""
        rng = random.Random(seed)
        kinds = ["hang", "crash", "crash_after", "wal_error", "wal_torn"]
        ops = [OP_NAMES["ingest"], OP_NAMES["query_full"], OP_NAMES["refresh_views"], None]
        specs = []
        for _ in range(faults):
            kind = rng.choice(kinds)
            specs.append(
                FaultSpec(
                    kind=kind,
                    shard=None,
                    op=rng.choice(ops) if kind != "hang" else OP_NAMES["ingest"],
                    at=rng.randint(1, 6),
                    count=1,
                    delay=60.0 if kind == "hang" else 0.0,
                )
            )
        return cls(tuple(specs))

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        environ = os.environ if environ is None else environ
        text = environ.get(FAULT_PLAN_ENV)
        if text:
            return cls.parse(text)
        seed = environ.get(FAULT_SEED_ENV)
        if seed:
            return cls.random(int(seed))
        return None

    def session(self, recoverable: bool) -> "FaultSession":
        specs = self.specs
        if not recoverable:
            specs = tuple(spec for spec in specs if spec.kind == "slow")
        return FaultSession(specs)


def resolve_fault_plan(explicit: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """An explicit plan wins over the environment; None disables injection."""
    if explicit is not None:
        return explicit
    return FaultPlan.from_env()


def resolve_rpc_timeout(explicit: Optional[float]) -> float:
    """Explicit config wins; else ``REPRO_SHARD_RPC_TIMEOUT``; else 30s."""
    if explicit is not None:
        return float(explicit)
    env = os.environ.get(RPC_TIMEOUT_ENV)
    if env:
        return float(env)
    return DEFAULT_RPC_TIMEOUT


class FaultSession:
    """Parent-side fire counters for one backend instance.

    The supervisor asks :meth:`op_directive` before every send; matching
    specs advance their counter and, when the send falls inside the
    ``[at, at+count)`` window, contribute a one-shot directive that is
    shipped to the worker as ``OP_FAULT``.  Boot crashes are a pure
    function of ``(shard, incarnation)`` so forked children can check
    them without shared state.
    """

    def __init__(self, specs: Sequence[FaultSpec]):
        self.specs = tuple(specs)
        self._sends: Dict[int, int] = {}  # spec index -> matching sends so far
        self._boots: Dict[Tuple[int, int], int] = {}  # (spec idx, shard) -> boots

    @property
    def active(self) -> bool:
        return bool(self.specs)

    def op_directive(self, shard: int, opcode: int) -> List[dict]:
        directives = []
        for index, spec in enumerate(self.specs):
            if spec.kind == "boot_crash" or not spec.matches(shard, opcode):
                continue
            nth = self._sends.get(index, 0) + 1
            self._sends[index] = nth
            if spec.at <= nth < spec.at + spec.count:
                directives.append(
                    {"kind": spec.kind, "delay": spec.delay}
                )
        return directives

    def boot_crash_fires(self, shard: int, incarnation: int) -> bool:
        """True when this (re)spawn of ``shard`` should die before HELLO.

        ``incarnation`` is 1-based and monotonic per shard, so the
        decision is deterministic and independent of process state.
        """
        for spec in self.specs:
            if spec.kind != "boot_crash" or not spec.matches(shard, None):
                continue
            if spec.at <= incarnation < spec.at + spec.count:
                return True
        return False


class FaultInjector:
    """Worker-side executor of armed fault directives.

    Lives inside the forked worker.  ``arm`` is called on ``OP_FAULT``;
    ``before_op``/``after_op`` bracket op dispatch; ``wal_hook`` is
    threaded into the WAL so persistence faults fire on the exact write
    or fsync the plan named.
    """

    def __init__(self):
        self._pending: List[dict] = []

    def arm(self, directives: Sequence[dict]) -> None:
        self._pending.extend(directives)

    def before_op(self, opcode: int) -> List[dict]:
        """Fire pre-dispatch faults; return directives deferred to later."""
        directives, self._pending = self._pending, []
        deferred = []
        for directive in directives:
            kind = directive["kind"]
            if kind in ("hang", "slow"):
                # a hang is just a sleep longer than the RPC deadline
                time.sleep(float(directive.get("delay") or 0.0))
            elif kind == "crash":
                os._exit(2)
            elif kind in ("crash_after", "wal_error", "wal_fsync_error", "wal_torn"):
                deferred.append(directive)
        # WAL faults stay armed until the op's persistence path hits them
        self._pending = [d for d in deferred if d["kind"] != "crash_after"]
        return [d for d in deferred if d["kind"] == "crash_after"]

    def after_op(self, deferred: Sequence[dict]) -> None:
        for directive in deferred:
            if directive["kind"] == "crash_after":
                os._exit(2)

    def wal_hook(self, event: str, buffer: Optional[list] = None, fh=None) -> None:
        """Called by the WAL before writes (``"write"``) and fsyncs
        (``"fsync"``).  Raises :class:`OSError` to simulate a full disk;
        for ``wal_torn`` first writes half the frame so recovery sees a
        torn tail."""
        remaining = []
        fired: Optional[dict] = None
        for directive in self._pending:
            kind = directive["kind"]
            if fired is None and (
                (kind in ("wal_error", "wal_torn") and event == "write")
                or (kind == "wal_fsync_error" and event == "fsync")
            ):
                fired = directive
            else:
                remaining.append(directive)
        if fired is None:
            return
        self._pending = remaining
        if fired["kind"] == "wal_torn" and buffer is not None and fh is not None:
            data = b"".join(bytes(chunk) for chunk in buffer)
            fh.write(data[: max(1, len(data) // 2)])
            fh.flush()
            os.fsync(fh.fileno())
            # keep the buffer object (GraphWal caches it) but drop the
            # frames so a retry cannot complete the torn write
            del buffer[:]
        raise OSError(28, "injected WAL fault (no space left on device)")


@dataclass
class FaultTolerancePolicy:
    """Supervision knobs for the process backend, resolved from config."""

    rpc_timeout: float = DEFAULT_RPC_TIMEOUT
    restart_budget: int = 3
    restart_backoff: float = 0.1
    replay_budget: int = 2
    degraded_reads: bool = False
    pending_limit: int = 32
    backoff_cap: float = 30.0

    @classmethod
    def from_config(cls, config) -> "FaultTolerancePolicy":
        """The policy a :class:`~repro.core.config.MiddlewareConfig` asks for."""
        return cls(
            rpc_timeout=resolve_rpc_timeout(config.shard_rpc_timeout),
            restart_budget=config.shard_restart_budget,
            restart_backoff=config.shard_restart_backoff,
            replay_budget=config.replay_budget,
            degraded_reads=config.degraded_reads,
            pending_limit=config.pending_queue_limit,
        )

    def backoff(self, attempt: int) -> float:
        """Exponential backoff for the ``attempt``-th retry (1-based)."""
        if attempt <= 0:
            return 0.0
        return min(self.restart_backoff * (2 ** (attempt - 1)), self.backoff_cap)


@dataclass
class ShardBreaker:
    """Per-shard circuit breaker state (parent side).

    ``closed`` — normal serving.  ``open`` — restart budget exhausted;
    operations are refused or served degraded, ingest parks in
    ``pending``.  ``half_open`` — a probe restart is in flight.
    """

    state: str = "closed"
    trips: int = 0
    retry_at: float = 0.0
    pending: List[bytes] = field(default_factory=list)
    last_error: Optional[str] = None

    @property
    def open(self) -> bool:
        return self.state != "closed"

    def trip(self, error: str, delay: float) -> None:
        self.state = "open"
        self.trips += 1
        self.retry_at = time.monotonic() + delay
        self.last_error = error

    def close(self) -> None:
        self.state = "closed"
        self.retry_at = 0.0
