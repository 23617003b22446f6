"""JSON wire forms of the middleware's native objects.

One module owns every translation between engine types and the gateway's
JSON payloads, so the wire contract lives in one place and the test suite
can serialize direct library results through the *same* functions when
asserting bag-equality with served responses.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List

from repro.cep.event import DerivedEvent, Event
from repro.errors import BadRequestError
from repro.semantics.rdf.term import BlankNode, IRI, Literal, Variable
from repro.semantics.sparql.bindings import Bindings
from repro.semantics.sparql.evaluator import QueryResult
from repro.semantics.sparql.views import ViewDelta
from repro.streams.messages import Message, ObservationRecord

# --------------------------------------------------------------------- #
# RDF terms and query results
# --------------------------------------------------------------------- #


def term_to_json(term: object) -> Dict[str, Any]:
    """One RDF term as a tagged JSON object."""
    if isinstance(term, IRI):
        return {"type": "iri", "value": term.value}
    if isinstance(term, Literal):
        payload: Dict[str, Any] = {
            "type": "literal",
            "value": _json_number(term.to_python()),
            "lexical": term.lexical,
        }
        if term.lang:
            payload["lang"] = term.lang
        elif term.datatype is not None:
            payload["datatype"] = term.datatype.value
        return payload
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.id}
    if isinstance(term, Variable):
        return {"type": "variable", "value": term.name}
    return {"type": "opaque", "value": str(term)}


def bindings_to_json(solution: Bindings) -> Dict[str, Any]:
    """One solution mapping as ``{variable name: term}``."""
    return {var.name: term_to_json(term) for var, term in solution.items()}


def query_result_to_json(result: QueryResult) -> Dict[str, Any]:
    """A SELECT / ASK result, including degraded-read markers."""
    payload: Dict[str, Any] = {
        "form": result.form,
        "variables": [variable.name for variable in result.variables],
        "rows": [bindings_to_json(solution) for solution in result.solutions],
    }
    if result.form == "ASK":
        payload["ask"] = result.ask
    if result.degraded:
        payload["degraded"] = True
        payload["missing_shards"] = list(result.missing_shards)
    return payload


# --------------------------------------------------------------------- #
# events, view deltas, broker messages
# --------------------------------------------------------------------- #


def event_to_json(event: Event) -> Dict[str, Any]:
    """A canonical or derived event; derived ones carry their provenance."""
    payload: Dict[str, Any] = {
        "event_type": event.event_type,
        "value": _json_number(event.value),
        "timestamp": event.timestamp,
        "source_id": event.source_id,
        "source_kind": event.source_kind,
        "area": event.area,
        "event_id": event.event_id,
    }
    if event.location is not None:
        payload["location"] = list(event.location)
    if event.annotation_iri is not None:
        payload["annotation_iri"] = event.annotation_iri
    if event.attributes:
        payload["attributes"] = json_safe(event.attributes)
    if isinstance(event, DerivedEvent):
        payload["kind"] = "derived"
        payload["rule"] = event.rule_name
        payload["provenance"] = event.provenance
    else:
        payload["kind"] = "canonical"
    return payload


def view_delta_to_json(delta: ViewDelta) -> Dict[str, Any]:
    """A standing view's itemised refresh delta."""
    return {
        "view": delta.view.name,
        "added": [bindings_to_json(row) for row in delta.added],
        "removed": [bindings_to_json(row) for row in delta.removed],
        "full_refresh": delta.full_refresh,
    }


def payload_to_json(payload: object) -> Dict[str, Any]:
    """Any broker payload in its closest wire form."""
    if isinstance(payload, Event):
        return event_to_json(payload)
    if isinstance(payload, ViewDelta):
        return view_delta_to_json(payload)
    if isinstance(payload, ObservationRecord):
        return payload.to_dict()
    return {"repr": repr(payload)}


def message_to_json(message: object) -> Dict[str, Any]:
    """One subscription delivery.

    Broker subscribers receive :class:`~repro.streams.messages.Message`
    envelopes; a broker-less :class:`OntologySegmentLayer` delivers bare
    derived events.  Both serialize to the same ``{"type": "message"}``
    shape so WebSocket clients need one decoder.
    """
    if isinstance(message, Message):
        return {
            "type": "message",
            "topic": message.topic,
            "timestamp": message.timestamp,
            "message_id": message.message_id,
            "headers": json_safe(message.headers),
            "payload": payload_to_json(message.payload),
        }
    if isinstance(message, Event):
        area = message.area or "unknown"
        return {
            "type": "message",
            "topic": f"derived/{message.event_type}/{area}",
            "timestamp": message.timestamp,
            "payload": event_to_json(message),
        }
    return {"type": "message", "payload": payload_to_json(message)}


# --------------------------------------------------------------------- #
# ingest decoding
# --------------------------------------------------------------------- #

_RECORD_REQUIRED = ("source_id", "source_kind", "property_name", "value", "timestamp")


def records_from_json(items: object) -> List[ObservationRecord]:
    """Decode the ingest route's ``records`` array, or raise ``bad_request``."""
    if not isinstance(items, list):
        raise BadRequestError("'records' must be an array of record objects")
    records = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise BadRequestError(f"record {index} is not an object")
        missing = [key for key in _RECORD_REQUIRED if key not in item]
        if missing:
            raise BadRequestError(
                f"record {index} is missing {', '.join(missing)}",
                detail={"index": index, "missing": missing},
            )
        try:
            records.append(ObservationRecord.from_dict({"unit": None, **item}))
        except (TypeError, ValueError) as exc:
            raise BadRequestError(
                f"record {index} is malformed: {exc}", detail={"index": index}
            )
    return records


# --------------------------------------------------------------------- #
# generic sanitisation (the statistics route)
# --------------------------------------------------------------------- #


def _json_number(value: object) -> object:
    # JSON has no NaN / Infinity; the statistics and query payloads must
    # stay parseable by any client, not just Python's json module
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def json_safe(obj: object, _depth: int = 0) -> object:
    """Best-effort conversion of an arbitrary object tree to JSON types.

    The statistics snapshot mixes dataclasses, dicts, tuples and counters;
    this walks the tree, renders dataclasses as dicts and falls back to
    ``repr`` for anything exotic rather than failing the request.
    """
    if _depth > 8:
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return _json_number(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: json_safe(getattr(obj, field.name), _depth + 1)
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(key): json_safe(value, _depth + 1) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [json_safe(item, _depth + 1) for item in obj]
    return repr(obj)

