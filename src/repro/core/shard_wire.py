"""Wire encoding for the process-shard RPC boundary.

Worker processes speak a tiny binary protocol over a duplex pipe.  The
payload codec is the same varint/term framing the WAL and snapshots use
(:mod:`repro.persistence.codec`): observations, solution rows and view
deltas all travel as length-prefixed strings, doubles and self-describing
terms.  Control-plane payloads (statistics) travel as JSON strings — they
are read by humans and dashboards, not replayed into graphs.

Every message is ``opcode byte + body``; the pipe itself length-prefixes
each message, so no outer framing is needed here.

The module ends with the **op table** (:data:`OPS`): one :class:`ShardOp`
row per shard operation, which is everything either transport, the worker
dispatcher, the supervisor and the fault harness know about it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.mediator import CanonicalObservation
from repro.persistence.codec import (
    decode_string,
    decode_term,
    encode_string,
    encode_term_into,
    read_uvarint,
    write_uvarint,
)
from repro.persistence.snapshot import (
    decode_graph_body,
    encode_graph_body,
    restore_graph,
)
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.term import Term, Variable
from repro.semantics.rdf.triple import Triple
from repro.semantics.rules import InferenceTrace
from repro.semantics.sparql.bindings import Bindings, bindings_from_mapping
from repro.semantics.sparql.planner import PlannerStatistics

_DOUBLE = struct.Struct("<d")

# ------------------------------------------------------------------ #
# opcodes (parent -> worker requests; worker echoes the opcode back).
# HELLO / CLOSE / KILL / FAULT / ERROR are the worker loop's own control
# frames; every other opcode is a row of the op table at the end.
# ------------------------------------------------------------------ #

OP_HELLO = 0x01
OP_INGEST = 0x02
OP_REASON = 0x03
OP_QUERY_ASK = 0x04
OP_QUERY_FULL = 0x05
OP_REGISTER_VIEW = 0x06
OP_REFRESH_VIEWS = 0x07
OP_STATS = 0x08
OP_MATERIALIZE = 0x09
OP_REPLICATE = 0x0A
OP_RETRACT_SUBJECT = 0x0B
OP_DUMP = 0x0C
OP_CLOSE = 0x0D
OP_KILL = 0x0E
OP_PING = 0x0F
OP_CHECKPOINT = 0x10
OP_VIEW_ROWS = 0x11
OP_FAULT = 0x12
OP_ERROR = 0x7F


def frame(opcode: int, body: bytes = b"") -> bytes:
    """One wire message: opcode byte + body."""
    return bytes([opcode]) + body


def unframe(message: bytes) -> Tuple[int, bytes]:
    """Split a wire message into ``(opcode, body)``."""
    if not message:
        raise ValueError("empty wire message")
    return message[0], message[1:]


# ------------------------------------------------------------------ #
# scalar helpers
# ------------------------------------------------------------------ #


def _write_double(buffer: bytearray, value: float) -> None:
    buffer += _DOUBLE.pack(value)


def _read_double(data: bytes, offset: int) -> Tuple[float, int]:
    if offset + 8 > len(data):
        raise ValueError("truncated double")
    return _DOUBLE.unpack_from(data, offset)[0], offset + 8


def _write_optional_string(buffer: bytearray, text: Optional[str]) -> None:
    if text is None:
        buffer.append(0)
    else:
        buffer.append(1)
        encode_string(buffer, text)


def _read_optional_string(data: bytes, offset: int) -> Tuple[Optional[str], int]:
    if offset >= len(data):
        raise ValueError("truncated optional string")
    flag = data[offset]
    offset += 1
    if not flag:
        return None, offset
    return decode_string(data, offset)


# ------------------------------------------------------------------ #
# canonical observations
# ------------------------------------------------------------------ #


def encode_observation_into(buffer: bytearray, obs: CanonicalObservation) -> None:
    """Append the wire encoding of one canonical observation."""
    encode_string(buffer, obs.property_key)
    _write_double(buffer, float(obs.value))
    encode_string(buffer, obs.unit)
    _write_double(buffer, float(obs.timestamp))
    encode_string(buffer, obs.source_id)
    encode_string(buffer, obs.source_kind)
    if obs.location is None:
        buffer.append(0)
    else:
        buffer.append(1)
        _write_double(buffer, float(obs.location[0]))
        _write_double(buffer, float(obs.location[1]))
    _write_optional_string(buffer, obs.area)
    encode_string(buffer, obs.original_term)
    _write_optional_string(buffer, obs.original_unit)
    encode_string(buffer, obs.alignment_method)
    _write_double(buffer, float(obs.alignment_confidence))
    # metadata values are JSON-representable by construction (the mediator
    # folds vendor fields into plain strings/numbers)
    encode_string(buffer, json.dumps(obs.metadata, sort_keys=True) if obs.metadata else "")


def decode_observation(data: bytes, offset: int) -> Tuple[CanonicalObservation, int]:
    """Decode one canonical observation at ``offset``."""
    property_key, offset = decode_string(data, offset)
    value, offset = _read_double(data, offset)
    unit, offset = decode_string(data, offset)
    timestamp, offset = _read_double(data, offset)
    source_id, offset = decode_string(data, offset)
    source_kind, offset = decode_string(data, offset)
    if offset >= len(data):
        raise ValueError("truncated observation")
    has_location = data[offset]
    offset += 1
    location: Optional[Tuple[float, float]] = None
    if has_location:
        lat, offset = _read_double(data, offset)
        lon, offset = _read_double(data, offset)
        location = (lat, lon)
    area, offset = _read_optional_string(data, offset)
    original_term, offset = decode_string(data, offset)
    original_unit, offset = _read_optional_string(data, offset)
    alignment_method, offset = decode_string(data, offset)
    alignment_confidence, offset = _read_double(data, offset)
    metadata_json, offset = decode_string(data, offset)
    metadata: Dict[str, object] = json.loads(metadata_json) if metadata_json else {}
    return (
        CanonicalObservation(
            property_key=property_key,
            value=value,
            unit=unit,
            timestamp=timestamp,
            source_id=source_id,
            source_kind=source_kind,
            location=location,
            area=area,
            original_term=original_term,
            original_unit=original_unit,
            alignment_method=alignment_method,
            alignment_confidence=alignment_confidence,
            metadata=metadata,
        ),
        offset,
    )


def encode_ingest(pairs: Sequence[Tuple[CanonicalObservation, int]]) -> bytes:
    """INGEST body: a reserved zero byte + (annotation index, observation) pairs."""
    buffer = bytearray()
    buffer.append(0)
    write_uvarint(buffer, len(pairs))
    for obs, index in pairs:
        write_uvarint(buffer, index)
        encode_observation_into(buffer, obs)
    return bytes(buffer)


def decode_ingest(body: bytes) -> List[Tuple[CanonicalObservation, int]]:
    """Decode an INGEST body back into (observation, index) pairs."""
    if not body:
        raise ValueError("truncated ingest body")
    count, offset = read_uvarint(body, 1)
    pairs: List[Tuple[CanonicalObservation, int]] = []
    for _ in range(count):
        index, offset = read_uvarint(body, offset)
        obs, offset = decode_observation(body, offset)
        pairs.append((obs, index))
    return pairs


# ------------------------------------------------------------------ #
# solution rows (query results, view rows, view deltas)
# ------------------------------------------------------------------ #


def encode_rows_into(
    buffer: bytearray, variables: Sequence[Variable], rows: Sequence[Bindings]
) -> None:
    """Append a variable header + bindings encoded as (ordinal, term) pairs."""
    ordinals = {var: i for i, var in enumerate(variables)}
    write_uvarint(buffer, len(variables))
    for var in variables:
        encode_string(buffer, var.name)
    write_uvarint(buffer, len(rows))
    for row in rows:
        write_uvarint(buffer, len(row))
        for var, term in row.items():
            write_uvarint(buffer, ordinals[var])
            encode_term_into(buffer, term)


def decode_rows(data: bytes, offset: int) -> Tuple[List[Variable], List[Bindings], int]:
    """Decode a variable header + rows; returns ``(variables, rows, offset)``."""
    var_count, offset = read_uvarint(data, offset)
    variables: List[Variable] = []
    for _ in range(var_count):
        name, offset = decode_string(data, offset)
        variables.append(Variable(name))
    row_count, offset = read_uvarint(data, offset)
    rows: List[Bindings] = []
    for _ in range(row_count):
        size, offset = read_uvarint(data, offset)
        mapping: Dict[Variable, Term] = {}
        for _ in range(size):
            ordinal, offset = read_uvarint(data, offset)
            term, offset = decode_term(data, offset)
            mapping[variables[ordinal]] = term
        rows.append(bindings_from_mapping(mapping))
    return variables, rows, offset


def encode_query_result(variables: Sequence[Variable], rows: Sequence[Bindings]) -> bytes:
    """A full query-result body."""
    buffer = bytearray()
    encode_rows_into(buffer, variables, rows)
    return bytes(buffer)


def decode_query_result(body: bytes) -> Tuple[List[Variable], List[Bindings]]:
    """Decode a full query-result body."""
    variables, rows, _ = decode_rows(body, 0)
    return variables, rows


def encode_view_deltas(deltas: Sequence[Tuple[str, bool, Sequence[Variable],
                                              Sequence[Bindings], Sequence[Bindings]]]) -> bytes:
    """REFRESH_VIEWS reply: (name, full_refresh, variables, added, removed) per view."""
    buffer = bytearray()
    write_uvarint(buffer, len(deltas))
    for name, full_refresh, variables, added, removed in deltas:
        encode_string(buffer, name)
        buffer.append(1 if full_refresh else 0)
        ordinals = {var: i for i, var in enumerate(variables)}
        write_uvarint(buffer, len(variables))
        for var in variables:
            encode_string(buffer, var.name)
        for rows in (added, removed):
            write_uvarint(buffer, len(rows))
            for row in rows:
                write_uvarint(buffer, len(row))
                for var, term in row.items():
                    write_uvarint(buffer, ordinals[var])
                    encode_term_into(buffer, term)
    return bytes(buffer)


def decode_view_deltas(
    body: bytes,
) -> List[Tuple[str, bool, List[Variable], List[Bindings], List[Bindings]]]:
    """Decode a REFRESH_VIEWS reply."""
    count, offset = read_uvarint(body, 0)
    out: List[Tuple[str, bool, List[Variable], List[Bindings], List[Bindings]]] = []
    for _ in range(count):
        name, offset = decode_string(body, offset)
        full_refresh = bool(body[offset])
        offset += 1
        var_count, offset = read_uvarint(body, offset)
        variables: List[Variable] = []
        for _ in range(var_count):
            var_name, offset = decode_string(body, offset)
            variables.append(Variable(var_name))
        sections: List[List[Bindings]] = []
        for _ in range(2):
            row_count, offset = read_uvarint(body, offset)
            rows: List[Bindings] = []
            for _ in range(row_count):
                size, offset = read_uvarint(body, offset)
                mapping: Dict[Variable, Term] = {}
                for _ in range(size):
                    ordinal, offset = read_uvarint(body, offset)
                    term, offset = decode_term(body, offset)
                    mapping[variables[ordinal]] = term
                rows.append(bindings_from_mapping(mapping))
            sections.append(rows)
        out.append((name, full_refresh, variables, sections[0], sections[1]))
    return out


# ------------------------------------------------------------------ #
# triples (REPLICATE) and control-plane JSON
# ------------------------------------------------------------------ #


def encode_triples(triples: Sequence[Triple]) -> bytes:
    """REPLICATE body: a flat list of decoded triples."""
    buffer = bytearray()
    write_uvarint(buffer, len(triples))
    for s, p, o in triples:
        encode_term_into(buffer, s)
        encode_term_into(buffer, p)
        encode_term_into(buffer, o)
    return bytes(buffer)


def decode_triples(body: bytes) -> List[Triple]:
    """Decode a REPLICATE body."""
    count, offset = read_uvarint(body, 0)
    triples: List[Triple] = []
    for _ in range(count):
        s, offset = decode_term(body, offset)
        p, offset = decode_term(body, offset)
        o, offset = decode_term(body, offset)
        triples.append(Triple(s, p, o))
    return triples


def encode_json(payload: object) -> bytes:
    """Control-plane body: one JSON document."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def decode_json(body: bytes) -> object:
    """Decode a control-plane JSON body."""
    return json.loads(body.decode("utf-8"))


# ------------------------------------------------------------------ #
# the op table
# ------------------------------------------------------------------ #


class Codec(NamedTuple):
    """An encode/decode pair.  A request codec encodes the method's
    argument tuple (``encode(*args)``) and decodes a body back into one; a
    reply codec carries the method's result."""

    encode: Callable[..., bytes]
    decode: Callable[[bytes], object]


def _encode_count(count: int) -> bytes:
    buffer = bytearray()
    write_uvarint(buffer, count)
    return bytes(buffer)


def _encode_query(text: str, entail: bool = False) -> bytes:
    buffer = bytearray([1 if entail else 0])
    encode_string(buffer, text)
    return bytes(buffer)


def _encode_term(term: Term) -> bytes:
    buffer = bytearray()
    encode_term_into(buffer, term)
    return bytes(buffer)


def _decode_view_spec(body: bytes) -> Tuple[str, Optional[str], bool]:
    spec = decode_json(body)
    return spec["text"], spec["name"], bool(spec["federated"])


_NO_ARGS = Codec(lambda: b"", lambda body: ())
_PAIRS = Codec(encode_ingest, lambda body: (decode_ingest(body),))
_QUERY = Codec(_encode_query, lambda body: (decode_string(body, 1)[0], bool(body[0])))
_VIEW_SPEC = Codec(
    lambda text, name=None, federated=True: encode_json(
        {"text": text, "name": name, "federated": federated}
    ),
    _decode_view_spec,
)
_VIEW_TEXT = Codec(
    lambda text: encode_json({"text": text}), lambda body: (decode_json(body)["text"],)
)
_FLAG_ARG = Codec(lambda flag=False: bytes([1 if flag else 0]), lambda body: (bool(body[0]),))
_TRIPLES = Codec(encode_triples, lambda body: (decode_triples(body),))
_TERM = Codec(_encode_term, lambda body: (decode_term(body, 0)[0],))

_NOTHING = Codec(lambda result: b"", lambda body: None)
_COUNT = Codec(_encode_count, lambda body: read_uvarint(body, 0)[0])
_FLAG = Codec(lambda flag: bytes([1 if flag else 0]), lambda body: bool(body and body[0]))
_ROWS = Codec(lambda result: encode_query_result(*result), decode_query_result)
_JSON = Codec(encode_json, decode_json)
#: a standing view stays with its shard; its size and seeding cross the pipe
_VIEW_INFO = Codec(
    lambda view: encode_json({"rows": view.stats()["rows"], "seeded": view.seeded}),
    decode_json,
)
_DELTAS = Codec(encode_view_deltas, decode_view_deltas)
_TRACE = Codec(
    lambda trace: encode_json(asdict(trace)),
    lambda body: InferenceTrace(**decode_json(body)),
)
_GRAPH = Codec(encode_graph_body, lambda body: restore_graph(decode_graph_body(body)))

#: ``ShardOp.writes``: whether the op changes the shard's graph — a worker
#: commits its journal after one, the parent marks the shard dirty.
ALWAYS, ON_ENTAIL, NEVER = "always", "entail", "never"
#: ``ShardOp.down``: what a shard behind an open breaker contributes.
PARK, EMPTY, DEGRADED, REFUSE = "park", "empty", "degraded", "refuse"


@dataclass(frozen=True)
class ShardOp:
    """One shard operation, declared once.

    ``method`` is the public :class:`~repro.core.shard.Shard` method that
    *is* the operation (and the op's name in fault-plan specs): the
    in-process transport calls it directly, the process transport sends
    ``opcode`` + ``request.encode(*args)``, the worker decodes, calls the
    same method, commits per ``writes`` (``ON_ENTAIL`` ops take ``(text,
    entail)`` and write only when asked to entail) and answers
    ``reply.encode(result)``.

    ``down`` is what the supervisor answers for a shard whose breaker is
    open — ``PARK`` the request body until the shard is back (durable
    stores only) and answer ``empty``; answer ``empty``; answer ``empty``
    only under ``degraded_reads``; or ``REFUSE`` with
    :class:`~repro.core.faults.ShardUnavailableError`.  ``empty`` is the
    encoded reply of a shard that holds nothing, which is also what a
    quarantined poison request is answered with.
    """

    method: str
    opcode: int
    request: Codec = _NO_ARGS
    reply: Codec = _NOTHING
    writes: str = NEVER
    down: str = REFUSE
    empty: bytes = b""


_EMPTY_ROWS = encode_query_result([], [])
_ZERO = _encode_count(0)

#: The table.  Adding a shard operation is one ``Shard`` method plus one
#: row here.
OP_TABLE: Tuple[ShardOp, ...] = (
    ShardOp("ingest", OP_INGEST, _PAIRS, _COUNT, writes=ALWAYS, down=PARK, empty=_ZERO),
    ShardOp("reason", OP_REASON, writes=ALWAYS, down=DEGRADED),
    ShardOp(
        "query_ask", OP_QUERY_ASK, _QUERY, _FLAG,
        writes=ON_ENTAIL, down=DEGRADED, empty=b"\x00",
    ),
    ShardOp(
        "query_full", OP_QUERY_FULL, _QUERY, _ROWS,
        writes=ON_ENTAIL, down=DEGRADED, empty=_EMPTY_ROWS,
    ),
    ShardOp(
        "register_view", OP_REGISTER_VIEW, _VIEW_SPEC, _VIEW_INFO,
        empty=encode_json({"rows": 0, "seeded": False}),
    ),
    ShardOp(
        "refresh_views", OP_REFRESH_VIEWS, reply=_DELTAS,
        down=EMPTY, empty=encode_view_deltas([]),
    ),
    ShardOp("view_rows", OP_VIEW_ROWS, _VIEW_TEXT, _ROWS, empty=_EMPTY_ROWS),
    ShardOp(
        "stats", OP_STATS, reply=_JSON,
        down=EMPTY,
        empty=encode_json(
            {
                "pid": None,
                "triples": 0,
                "version": 0,
                "wal_records": 0,
                "generation": 0,
                "tripped": True,
                "planner": asdict(PlannerStatistics()),
                "views": [],
            }
        ),
    ),
    ShardOp(
        "materialize", OP_MATERIALIZE, _FLAG_ARG, _TRACE,
        writes=ALWAYS, empty=_TRACE.encode(InferenceTrace()),
    ),
    ShardOp("replicate", OP_REPLICATE, _TRIPLES, _COUNT, writes=ALWAYS, empty=_ZERO),
    ShardOp("retract", OP_RETRACT_SUBJECT, _TERM, _COUNT, writes=ALWAYS, empty=_ZERO),
    ShardOp("dump", OP_DUMP, reply=_GRAPH, empty=encode_graph_body(Graph())),
    ShardOp("checkpoint", OP_CHECKPOINT, down=EMPTY),
    ShardOp(
        "ping", OP_PING, reply=_JSON,
        down=EMPTY, empty=encode_json({"pid": None, "triples": 0, "tripped": True}),
    ),
)

#: Shard method name -> its row, and opcode -> row.
OPS: Dict[str, ShardOp] = {op.method: op for op in OP_TABLE}
OPS_BY_OPCODE: Dict[int, ShardOp] = {op.opcode: op for op in OP_TABLE}
