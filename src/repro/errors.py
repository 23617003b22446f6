"""The typed error hierarchy of the public API surface.

Every error the middleware intends callers to handle derives from
:class:`ReproError` and carries a stable machine-readable ``code``.  The
code — not the Python class — is the contract: the serving gateway maps
codes to HTTP statuses in one table (:data:`repro.serving.gateway.STATUS_BY_CODE`),
wire clients switch on the code string, and refactoring an exception's
class or module never changes what a client observes.

Two pre-existing exceptions are re-based onto this hierarchy without
breaking their old contracts: :class:`repro.core.faults.ShardUnavailableError`
and :class:`repro.persistence.store.StoreMetadataError` both keep
``RuntimeError`` in their bases, so ``except RuntimeError`` call sites
written before the hierarchy existed still catch them.

This module is imported by low-level packages (``persistence``, ``core``)
and must stay dependency-free: stdlib only, no repro imports.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base of every intentional, caller-visible middleware error.

    ``code`` is a stable snake_case identifier; subclasses override the
    class attribute (or pass ``code=`` for one-off instances).  ``detail``
    is an optional structured payload (a JSON-safe dict) the gateway
    forwards to wire clients alongside the message.
    """

    code: str = "internal"

    def __init__(
        self,
        message: str = "",
        *,
        code: Optional[str] = None,
        detail: Optional[dict] = None,
    ):
        super().__init__(message)
        if code is not None:
            self.code = code
        self.detail = dict(detail) if detail else {}

    def to_payload(self) -> dict:
        """The JSON-safe wire form served by the gateway's error handler."""
        payload = {"error": self.code, "message": str(self)}
        if self.detail:
            payload["detail"] = self.detail
        return payload


class BadRequestError(ReproError):
    """The request itself is malformed (bad JSON, missing fields)."""

    code = "bad_request"


class NotFoundError(ReproError):
    """The named route / view / resource does not exist."""

    code = "not_found"


class PayloadTooLargeError(ReproError):
    """The request body exceeds the gateway's configured size limit."""

    code = "payload_too_large"


class RateLimitedError(ReproError):
    """The client exhausted its token bucket; retry after ``retry_after``."""

    code = "rate_limited"

    def __init__(self, message: str = "rate limit exceeded", *, retry_after: float = 1.0):
        super().__init__(message, detail={"retry_after": round(retry_after, 3)})
        self.retry_after = retry_after


class QueryError(ReproError):
    """A SPARQL query failed to parse or evaluate.

    The evaluator raises plain :class:`ValueError` for malformed query
    text (a library-level contract predating this hierarchy); boundary
    code wraps those with :meth:`wrap` so wire clients see a stable code
    instead of a 500.
    """

    code = "query_error"

    @classmethod
    def wrap(cls, exc: Exception) -> "QueryError":
        return cls(str(exc) or exc.__class__.__name__)
