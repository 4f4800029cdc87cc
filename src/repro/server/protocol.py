"""The kimdb wire protocol: length-prefixed frames of JSON.

The paper's minimum definition of an OODB makes it "a persistent and
*sharable* repository"; sharing across processes needs a wire format.
This one is deliberately small:

* **Framing** — every message is a 4-byte big-endian unsigned length
  followed by that many bytes of UTF-8 JSON.  A frame larger than
  :data:`MAX_FRAME_BYTES` is a protocol error (a malformed length prefix
  must not make the peer allocate gigabytes).
* **Requests** — ``{"id": n, "op": "query", "params": {...}}``.  The id
  is chosen by the client and echoed back verbatim, so a client library
  can pipeline requests if it wants to (the bundled one does not).  An
  optional ``"trace": {"id": str, "span": n}`` field propagates the
  client's trace context: the server adopts the id for the request's
  spans, wait events and slow-op log entries (see
  :meth:`~repro.obs.tracing.Tracer.trace`), so a slow query is findable
  server-side — SysSlowOp, SysWaitEvent — by the id the client logged.
  Unknown or malformed trace fields are ignored, never an error.
* **Responses** — ``{"id": n, "ok": true, "result": ...}`` on success,
  or ``{"id": n, "ok": false, "error": {"code": ..., "message": ...}}``.
  Error *codes* are the stable contract (clients dispatch on them);
  messages are human-readable and may change.
* **Values** — JSON primitives pass through; an OID crosses the wire as
  ``{"$oid": value, "$class": hint}``, so object references survive the
  round trip; a set or frozenset goes out as a list.

The codec is one pass inside the standard library's C JSON codec:
:func:`encode_frame` runs one module-level encoder whose ``default`` hook
turns OIDs into markers and sets into lists and refuses everything else,
and :func:`decode_payload` runs one decoder whose ``object_hook`` revives
a marker whose ``"$oid"`` is a non-negative integer.  A malformed marker
(``{"$oid": -1}``, ``{"$oid": "x"}``) stays a plain dict, so the op's
own parameter check answers it with a typed error.  Dict keys follow
JSON's rule: a str key goes out as is, an int or float key as its JSON
number text, a ``None``/``True``/``False`` key as ``"null"``/``"true"``/
``"false"`` (no engine value has one); any other key type is a
:class:`ProtocolError`.
:func:`to_wire` / :func:`from_wire` are the same mapping as explicit
Python walks, kept as the reference the one-pass codec is tested
against: ``encode_frame(x)`` is byte for byte the frame of
``json.dumps(to_wire(x))``.

A stored state never changes (a write installs a new one), so the first
frame that carries a shared state keeps its row's JSON text in the
state's ``wire_row`` slot and later frames join that text in
(:func:`_joined`).  A state travels only as a response's ``result`` or
in its result's ``rows``; every other frame — a request, an error — is
encoded whole, with no walk.  Never send a caller-owned copy: it may be
edited.

Engine exceptions map onto stable error codes via :func:`error_code`;
the client re-raises them as :class:`ServerError` carrying the code.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import caret_snippet, source_position
from ..errors import (
    AuthorizationError,
    DeadlockError,
    KimDBError,
    LockTimeoutError,
    ObjectNotFoundError,
    QueryError,
    QuerySyntaxError,
    SchemaError,
    SemanticError,
    TransactionError,
    TypeCheckError,
)

#: Hard ceiling on one frame (requests and responses alike).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(KimDBError):
    """Malformed frame, oversized frame, or non-serializable value."""


class SessionError(KimDBError):
    """Illegal session usage (nested BEGIN, unknown cursor, closed session)."""


class ServerError(KimDBError):
    """Client-side image of a typed error frame.

    ``code`` is the stable wire code (``LOCK_TIMEOUT``, ``DEADLOCK``,
    ...); ``message`` is the server's human-readable description.
    ``diagnostics`` carries the structured compile-time findings of a
    ``SEMANTIC`` error — each with code, severity, character span and
    resolved line/column/caret — exactly as the server's analyzer
    produced them, so remote tooling can point at source without
    re-parsing the rendered message.
    """

    def __init__(self, code: str, message: str, diagnostics=()) -> None:
        super().__init__("[%s] %s" % (code, message))
        self.code = code
        self.message = message
        self.diagnostics = list(diagnostics)


#: Exception class -> stable wire code, most specific first.  Anything
#: not matched (a genuine server bug) reports ``INTERNAL``.
_ERROR_CODES: Tuple[Tuple[type, str], ...] = (
    (DeadlockError, "DEADLOCK"),
    (LockTimeoutError, "LOCK_TIMEOUT"),
    (TransactionError, "TRANSACTION"),
    (ObjectNotFoundError, "NOT_FOUND"),
    (SemanticError, "SEMANTIC"),
    (QuerySyntaxError, "SYNTAX"),
    (QueryError, "QUERY"),
    (SchemaError, "SCHEMA"),
    (TypeCheckError, "TYPECHECK"),
    (AuthorizationError, "FORBIDDEN"),
    (SessionError, "SESSION"),
    (ProtocolError, "PROTOCOL"),
    (KimDBError, "ENGINE"),
)


def error_code(exc: BaseException) -> str:
    """The stable wire code for an exception (``INTERNAL`` if unknown)."""
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return code
    return "INTERNAL"


# -- value encoding ----------------------------------------------------------


def _wire_default(value: Any) -> Any:
    """The encoder's hook for values JSON has no form for.

    OIDs become ``{"$oid": ..., "$class": ...}`` markers and sets become
    lists; anything else is a :class:`ProtocolError` (the server must
    never silently ``repr`` an internal object onto the wire).
    """
    if isinstance(value, OID):
        return {"$oid": value.value, "$class": value.hint}
    if isinstance(value, (set, frozenset)):
        return list(value)
    raise ProtocolError(
        "value of type %s is not wire-encodable" % type(value).__name__
    )


def _revive(obj: Dict[str, Any]) -> Any:
    """The decoder's hook: a well-formed OID marker becomes an OID."""
    if "$oid" in obj:
        value = obj["$oid"]
        if type(value) is int and value >= 0:
            return OID(value, str(obj.get("$class") or ""))
    return obj


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_wire_default)
_DECODER = json.JSONDecoder(object_hook=_revive)


def to_wire(value: Any) -> Any:
    """Reference encoder: the wire form of a value as a Python walk.

    OIDs become ``{"$oid": ..., "$class": ...}`` markers; containers
    recurse; JSON primitives pass through; anything else is a
    :class:`ProtocolError`.  :func:`encode_frame` computes the same
    mapping inside the C encoder; this walk is the oracle it is tested
    against.
    """
    if isinstance(value, OID):
        return {"$oid": value.value, "$class": value.hint}
    if isinstance(value, dict):
        return {str(key): to_wire(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_wire(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ProtocolError(
        "value of type %s is not wire-encodable" % type(value).__name__
    )


def from_wire(value: Any) -> Any:
    """Reference decoder, the inverse of :func:`to_wire`: revive OID
    markers, recurse containers (the oracle for :func:`decode_payload`)."""
    if isinstance(value, dict):
        if "$oid" in value:
            return OID(int(value["$oid"]), str(value.get("$class") or ""))
        return {key: from_wire(item) for key, item in value.items()}
    if isinstance(value, list):
        return [from_wire(item) for item in value]
    return value


# -- frame encoding ----------------------------------------------------------


def _row_text(state: ObjectState) -> str:
    """The JSON text of a shared state's row, encoded on first use and
    then kept in its ``wire_row`` slot.  A row with no wire form raises
    before anything is kept; two threads that fill one row store equal
    strings."""
    try:
        return state.wire_row
    except AttributeError:
        row = {"oid": state.oid, "class": state.class_name, "values": state.values}
        text = state.wire_row = _ENCODER.encode(row)
        return text


def _joined(payload: Dict[str, Any]) -> Optional[str]:
    """The JSON text of a response whose ``result`` is a shared state or
    holds a ``rows`` list of them (a list's first item decides) — the
    only places the server puts states — joined from the states' kept
    rows; None for any other payload, which the one-pass encoder takes
    whole, unwalked (and which refuses a state anywhere else)."""
    result = payload.get("result")
    rows = result.get("rows") if type(result) is dict else None
    if type(result) is ObjectState:
        text: Optional[str] = _row_text(result)
    elif type(rows) is list and rows and type(rows[0]) is ObjectState:
        text = _object(result, "rows", "[%s]" % ",".join(map(_row_text, rows)))
    else:
        return None
    return _object(payload, "result", text)


def _object(members: Dict[Any, Any], name: str, text: Optional[str]) -> Optional[str]:
    """``members`` as a JSON object whose member ``name`` is ``text``;
    None when ``text`` is None or a key is not a str."""
    if text is None or not all(type(key) is str for key in members):
        return None
    return "{%s}" % ",".join(
        [
            _ENCODER.encode(key) + ":" + (text if key == name else _ENCODER.encode(value))
            for key, value in members.items()
        ]
    )


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame (length prefix + JSON body) for a message dict.

    Anything the frame cannot carry — a value with no wire form, a dict
    key that is not a str/int/float, a reference cycle, a body over
    :data:`MAX_FRAME_BYTES` — is a :class:`ProtocolError`.  A shared
    state goes out as its row ``{"oid", "class", "values"}``, joined in
    from the text :func:`_row_text` keeps.
    """
    try:
        text = _joined(payload) or _ENCODER.encode(payload)
    except (TypeError, ValueError, RecursionError, AttributeError) as exc:
        # AttributeError: a joined ``rows`` list whose later item is no state.
        raise ProtocolError("payload is not wire-encodable: %s" % exc) from exc
    body = text.encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte limit"
            % (len(body), MAX_FRAME_BYTES)
        )
    return _LENGTH.pack(len(body)) + body


def decode_payload(body: bytes) -> Dict[str, Any]:
    """Parse one frame body, OID markers revived; malformed JSON is a
    :class:`ProtocolError`."""
    try:
        payload = _DECODER.decode(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError("undecodable frame: %s" % exc) from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return payload


def frame_length(header: bytes) -> int:
    """Decode and bounds-check a 4-byte length prefix."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            "announced frame of %d bytes exceeds the %d-byte limit"
            % (length, MAX_FRAME_BYTES)
        )
    return length


# -- response shaping (shared by server and tests) ---------------------------


def ok_response(request_id: Any, result: Any) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, exc: BaseException) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": error_code(exc), "message": str(exc)}
    diagnostics = _wire_diagnostics(exc)
    if diagnostics:
        error["diagnostics"] = diagnostics
    return {"id": request_id, "ok": False, "error": error}


def _wire_diagnostics(exc: BaseException) -> list:
    """Structured diagnostics of a semantic/rewrite failure, wire-shaped.

    Each entry is the diagnostic's own ``to_dict`` (severity, code,
    message, character span) plus — when the failing query's source text
    is known — the span resolved to 1-based ``line``/``column`` and a
    ``caret`` snippet, so the client renders the identical
    pointed-at-source message without owning the query text.
    """
    diagnostics = getattr(exc, "diagnostics", None)
    if not diagnostics:
        return []
    source = getattr(exc, "source", None)
    out = []
    for diag in diagnostics:
        entry = dict(diag.to_dict())
        span = getattr(diag, "span", None)
        if source is not None and span is not None:
            line, column = source_position(source, span.start)
            entry["line"] = line
            entry["column"] = column
            entry["caret"] = caret_snippet(
                source, span.start, max(1, span.end - span.start)
            )
        out.append(entry)
    return out


# -- blocking socket helpers (client side) -----------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> int:
    """Write one frame to a blocking socket; returns bytes sent."""
    frame = encode_frame(payload)
    sock.sendall(frame)
    return len(frame)


def recv_frame(sock: socket.socket) -> Tuple[Dict[str, Any], int]:
    """Read one frame from a blocking socket: (payload, bytes read)."""
    header = _recv_exact(sock, _LENGTH.size)
    length = frame_length(header)
    body = _recv_exact(sock, length) if length else b""
    return decode_payload(body), _LENGTH.size + length


def raise_on_error(payload: Dict[str, Any]) -> Any:
    """Unwrap a response payload; re-raise typed errors as ServerError."""
    if payload.get("ok"):
        return payload.get("result")
    error: Optional[Dict[str, Any]] = payload.get("error")
    if not isinstance(error, dict):
        raise ProtocolError("response frame is neither ok nor a typed error")
    return_code = str(error.get("code") or "INTERNAL")
    raise ServerError(
        return_code,
        str(error.get("message") or ""),
        diagnostics=error.get("diagnostics") or (),
    )
