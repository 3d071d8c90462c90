"""The ``repro serve`` wire protocol: newline-delimited JSON frames.

One request per line, one response per line, over a plain TCP stream.  The
payload of a fold is the *existing* in-process unit of delivery — a
:class:`~repro.streaming.source.SourceUpdate` bucket delta — serialized
through :meth:`Coreset.to_state` / :meth:`Coreset.from_state`: each bucket's
points and weights travel as base64 little-endian float64 minus the
low-order bytes that are zero in every element
(:func:`~repro.cr.coreset.encode_array`).  That round-trips float64 exactly,
so a fold delivered over the wire is bit-identical to one folded in-process,
and a quantized coordinate costs the bytes the bit meter charges for it.
Version 1's list-form coresets are refused as ``bad-request``.

Requests are JSON objects with an ``op`` key::

    {"op": "register", "tenant": "default", "source_id": "source-0"}
    {"op": "fold", "tenant": "default", "update": {...}}
    {"op": "query", "tenant": "default"}
    {"op": "healthz"} | {"op": "metrics"} | {"op": "snapshot"} | {"op": "shutdown"}

Responses always carry ``ok``; failures add a stable ``error`` code from
:data:`ERROR_CODES` plus a human-readable ``message`` and, for
``update-gap``, the ``expected`` index the client must replay from.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.cr.coreset import Coreset
from repro.streaming.server import (
    EmptySummaryError,
    UnknownSourceError,
    UpdateGapError,
)
from repro.streaming.source import BucketUpdate, SourceUpdate

#: Bumped on incompatible frame-layout changes; echoed by ``healthz``.
#: Version 2 carries coresets as encoded arrays instead of JSON lists.
PROTOCOL_VERSION = 2

#: Upper bound on one NDJSON frame (a fold carrying a full coreset delta);
#: the daemon's stream reader enforces it so a garbage client cannot buffer
#: unbounded bytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Stable error codes, so clients switch on codes instead of messages.
ERROR_BAD_REQUEST = "bad-request"
ERROR_UNKNOWN_SOURCE = "unknown-source"
ERROR_UPDATE_GAP = "update-gap"
ERROR_EMPTY_SUMMARY = "empty-summary"
ERROR_CODES = (
    ERROR_BAD_REQUEST,
    ERROR_UNKNOWN_SOURCE,
    ERROR_UPDATE_GAP,
    ERROR_EMPTY_SUMMARY,
)


class ProtocolError(ValueError):
    """A malformed frame (bad JSON, missing fields, wrong types)."""


# ------------------------------------------------------------------- frames
def dump_frame(payload: Dict[str, Any]) -> bytes:
    """Serialize one frame: compact JSON + newline (the frame delimiter)."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def parse_frame(line: bytes) -> Dict[str, Any]:
    """Parse one frame, raising :class:`ProtocolError` on anything that is
    not a JSON object."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"a frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# ------------------------------------------------------- update (de)coding
def encode_bucket(bucket: BucketUpdate) -> Dict[str, Any]:
    """One bucket as it crosses the wire (the coreset via ``to_state``)."""
    return {
        "bucket_id": int(bucket.bucket_id),
        "level": int(bucket.level),
        "first_batch": int(bucket.first_batch),
        "last_batch": int(bucket.last_batch),
        "coreset": bucket.coreset.to_state(),
    }


def decode_bucket(payload: Dict[str, Any]) -> BucketUpdate:
    """Inverse of :func:`encode_bucket` (bit-identical coreset)."""
    try:
        return BucketUpdate(
            bucket_id=int(payload["bucket_id"]),
            coreset=Coreset.from_state(payload["coreset"]),
            first_batch=int(payload["first_batch"]),
            last_batch=int(payload["last_batch"]),
            level=int(payload["level"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed bucket update: {exc!r}") from None


def encode_update(update: SourceUpdate) -> Dict[str, Any]:
    """A :class:`SourceUpdate` as its wire frame payload."""
    return {
        "source_id": str(update.source_id),
        "batch_index": int(update.batch_index),
        "added": [encode_bucket(b) for b in update.added],
        "retired_ids": [int(i) for i in update.retired_ids],
    }


def decode_update(payload: Dict[str, Any]) -> SourceUpdate:
    """Inverse of :func:`encode_update`; the daemon folds the result."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"an update must be a JSON object, got {type(payload).__name__}"
        )
    try:
        added: List[BucketUpdate] = [decode_bucket(b) for b in payload.get("added", ())]
        return SourceUpdate(
            source_id=str(payload["source_id"]),
            batch_index=int(payload["batch_index"]),
            added=added,
            retired_ids=[int(i) for i in payload.get("retired_ids", ())],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed source update: {exc!r}") from None


# --------------------------------------------------------------- responses
def ok_response(**fields: Any) -> Dict[str, Any]:
    """A success frame."""
    return {"ok": True, **fields}


def error_response(code: str, message: str, **fields: Any) -> Dict[str, Any]:
    """A failure frame with a stable error code."""
    return {"ok": False, "error": code, "message": message, **fields}


def encode_exception(exc: Exception) -> Dict[str, Any]:
    """Map a typed fold/query rejection onto its protocol error frame."""
    if isinstance(exc, UnknownSourceError):
        return error_response(
            ERROR_UNKNOWN_SOURCE, str(exc),
            source_id=exc.source_id, registered=list(exc.registered),
        )
    if isinstance(exc, UpdateGapError):
        return error_response(
            ERROR_UPDATE_GAP, str(exc),
            source_id=exc.source_id, expected=exc.expected, got=exc.got,
        )
    if isinstance(exc, EmptySummaryError):
        return error_response(ERROR_EMPTY_SUMMARY, str(exc))
    if isinstance(exc, ProtocolError):
        return error_response(ERROR_BAD_REQUEST, str(exc))
    raise TypeError(f"no protocol mapping for {type(exc).__name__}") from exc


__all__ = [
    "ERROR_BAD_REQUEST",
    "ERROR_CODES",
    "ERROR_EMPTY_SUMMARY",
    "ERROR_UNKNOWN_SOURCE",
    "ERROR_UPDATE_GAP",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_bucket",
    "decode_update",
    "dump_frame",
    "encode_bucket",
    "encode_exception",
    "encode_update",
    "error_response",
    "ok_response",
    "parse_frame",
]
