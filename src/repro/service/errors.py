"""Typed service errors: every reject has a status, a code, a reason.

The service layer never drops work silently.  Saturation anywhere in
the pipeline — a full postbox, a shard queue at its depth limit, a full
geocast board — surfaces as a :class:`ServiceError` subclass that the
HTTP layer maps to a structured JSON error response, and that in-process
callers (the load generator, tests) can catch by type.
"""

from __future__ import annotations

from ..postbox import PostboxFullError

__all__ = [
    "PostboxFullError",
    "ServiceError",
    "BadRequestError",
    "NotFoundError",
    "ShardOverloadedError",
    "GeocastBoardFullError",
    "error_response",
]


class ServiceError(Exception):
    """Base for every typed service-level reject.

    Attributes:
        status: the HTTP status the error maps to.
        code: a stable machine-readable reason (``"postbox_full"``).
    """

    status = 500
    code = "internal_error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class BadRequestError(ServiceError):
    """The request body was malformed or missing a required field."""

    status = 400
    code = "bad_request"


class NotFoundError(ServiceError):
    """Unknown endpoint or unknown name."""

    status = 404
    code = "not_found"


class ShardOverloadedError(ServiceError):
    """A shard's single-writer queue is at its depth limit.

    This is the service's explicit backpressure signal: the caller is
    told to back off *now*, instead of the queue growing without bound
    and latency collapsing for everyone.
    """

    status = 503
    code = "shard_overloaded"

    def __init__(self, shard: int, depth_limit: int):
        super().__init__(
            f"shard {shard} queue at depth limit ({depth_limit} pending ops)"
        )
        self.shard = shard
        self.depth_limit = depth_limit


class GeocastBoardFullError(ServiceError):
    """The geocast board is at its message cap."""

    status = 429
    code = "geocast_board_full"


class ConfirmRefusedError(ServiceError):
    """A push confirm named a message that is not pending.

    Exactly-once enforcement, typed: the id was already confirmed (a
    client retry after a lost response — the classic duplicate), or it
    was never pushed to this owner.  Surfacing this as a 409 instead of
    a soft ``confirmed: false`` lets retrying clients distinguish "my
    confirm already landed" from a transport failure they should keep
    retrying.  The payload still carries ``confirmed: false`` so older
    callers that only inspect that field keep working.
    """

    status = 409
    code = "confirm_refused"

    def __init__(self, owner: str, msg_id: int):
        super().__init__(
            f"message {msg_id} is not pending confirmation for {owner!r} "
            "(already confirmed, or never pushed)"
        )
        self.owner = owner
        self.msg_id = msg_id


def error_response(exc: Exception) -> tuple[int, dict]:
    """Map an exception to the wire ``(status, payload)`` pair.

    :class:`~repro.postbox.PostboxFullError` is a postbox-layer type
    (it predates the service), so it is translated here rather than
    subclassing :class:`ServiceError`.
    """
    if isinstance(exc, PostboxFullError):
        return 429, {
            "error": "postbox_full",
            "detail": str(exc),
            "owner": exc.owner_name,
        }
    if isinstance(exc, ConfirmRefusedError):
        return exc.status, {
            "error": exc.code,
            "detail": str(exc),
            "confirmed": False,
            "msg_id": exc.msg_id,
        }
    if isinstance(exc, ServiceError):
        return exc.status, {"error": exc.code, "detail": str(exc)}
    return 500, {"error": "internal_error", "detail": str(exc)}
