"""Server sessions: one connected client's view of the database.

A :class:`Session` is the unit of transaction scope on the wire — the
paper's "sharable repository" requirement means many clients, each with
at most one open transaction.  Every request of a session runs on its
connection's own thread, so a transaction the session begins is that
thread's current transaction until commit, rollback or release: the
engine's thread-local autocommit logic applies exactly as in embedded
use.

Lifecycle (see DESIGN.md for the full state diagram)::

    connect -> IDLE --begin--> IN_TXN --commit/rollback--> IDLE
    any state --disconnect/idle-timeout--> RELEASED
                (open transaction rolled back, cursors closed,
                 locks freed, session removed from the registry)

``release()`` is idempotent and is the single cleanup path for normal
close, client crash, and idle eviction alike, which is what
makes "kill a client mid-transaction leaves no stranded locks" a
structural property rather than a best-effort one.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..core.obj import ObjectState
from ..core.oid import OID
from ..database import Database, QueryStream
from ..errors import DeadlockError
from .protocol import SessionError, error_response, ok_response

# Unused here: the ledger tracer patches these two bindings by name (ROADMAP 2(a)).
from .protocol import from_wire, to_wire  # noqa: F401

#: Session states as reported by the SysSession view.
IDLE = "idle"
IN_TXN = "in_txn"
RELEASED = "released"


class Session:
    """One client connection's server-side state.

    Requests for a session are serialized by ``_session_mutex`` (a
    client sends one request at a time anyway; the mutex makes that a
    guarantee rather than an assumption).  The mutex sits *below* every
    engine lock in the ordering lattice: a request handler acquires it
    first and only then calls into the engine.
    """

    def __init__(
        self,
        session_id: int,
        db: Database,
        registry: "SessionRegistry",
        client: str = "?",
    ) -> None:
        self.session_id = session_id
        self.db = db
        self.client = client
        self._registry = registry
        self._session_mutex = threading.Lock()
        self._txn = None  # open Transaction, current on the connection thread
        self._cursors: Dict[int, QueryStream] = {}
        self._next_cursor = 1
        self._released = False
        #: True while a request is executing (SysSession reports a
        #: session that is merely slow as 0 s idle).
        self.busy = False
        self.requests = 0
        self.rows_streamed = 0
        metrics = db.metrics
        self._m_requests = metrics.counter("server.requests")
        self._m_errors = metrics.counter("server.errors")
        self._m_rows_streamed = metrics.counter("server.rows_streamed")
        self._m_cursors = metrics.gauge("server.cursors")
        self._created_clock = time.perf_counter()
        self._last_active_clock = self._created_clock

    # -- introspection (SysSession) ----------------------------------------

    @property
    def state(self) -> str:
        if self._released:
            return RELEASED
        return IN_TXN if self._txn is not None else IDLE

    @property
    def age_seconds(self) -> float:
        return time.perf_counter() - self._created_clock

    @property
    def idle_seconds(self) -> float:
        if self.busy:
            return 0.0
        return time.perf_counter() - self._last_active_clock

    @property
    def txn_id(self) -> Optional[int]:
        return self._txn.txn_id if self._txn is not None else None

    # -- request dispatch --------------------------------------------------

    def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one decoded request frame, returning the response dict.

        All engine exceptions become typed error frames here; nothing a
        client sends can take the connection handler down.
        """
        request_id = payload.get("id")
        op = payload.get("op")
        params = payload.get("params") or {}
        trace_id = self._trace_id(payload.get("trace"))
        self.busy = True
        try:
            with self._session_mutex:
                if self._released:
                    raise SessionError(
                        "session %d is released" % self.session_id
                    )
                self.requests += 1
                self._m_requests.inc()
                handler = self._OPS.get(op) if isinstance(op, str) else None
                if handler is None:
                    raise SessionError("unknown op %r" % op)
                if not isinstance(params, dict):
                    raise SessionError("params must be an object")
                # Adopt the client's trace context for the whole request:
                # the server.request span, every nested engine span, wait
                # events and slow-op entries recorded on this thread all
                # carry the id the client stamped into the frame.
                with self.db.tracer.trace(trace_id):
                    with self.db.tracer.span("server.request", target=op):
                        result = handler(self, params)
            return ok_response(request_id, result)
        except DeadlockError as exc:
            # The engine chose this transaction as the deadlock victim;
            # its locks must go away *now*, not when the client decides
            # to send a rollback.
            self._abort_txn()
            self._m_errors.inc()
            return error_response(request_id, exc)
        except Exception as exc:
            self._m_errors.inc()
            return error_response(request_id, exc)
        finally:
            self._last_active_clock = time.perf_counter()
            self.busy = False

    @staticmethod
    def _trace_id(trace: Any) -> Optional[str]:
        """Sanitize the optional request-frame trace field.

        Accepts ``{"id": ..., "span": ...}`` (the client's format) or a
        bare string; anything else — or an oversized id, this is
        client-controlled input landing in server-side views — is
        dropped rather than rejected: tracing is observability, not
        validation, and an untraced request must still succeed.
        """
        if isinstance(trace, dict):
            trace = trace.get("id")
        if not isinstance(trace, str) or not trace or len(trace) > 64:
            return None
        return trace

    def _abort_txn(self) -> None:
        txn = self._txn
        self._txn = None
        if txn is not None and txn.is_active:
            txn.abort()

    # -- transaction ops ---------------------------------------------------

    def _op_ping(self, params: Dict[str, Any]) -> str:
        return "pong"

    def _op_begin(self, params: Dict[str, Any]) -> Dict[str, Any]:
        if self._txn is not None:
            raise SessionError(
                "session %d already has open transaction %d"
                % (self.session_id, self._txn.txn_id)
            )
        txn = self.db.txns.begin()
        self._txn = txn
        return {"txn": txn.txn_id}

    def _require_txn(self):
        if self._txn is None:
            raise SessionError(
                "session %d has no open transaction" % self.session_id
            )
        return self._txn

    def _op_commit(self, params: Dict[str, Any]) -> Dict[str, Any]:
        txn = self._require_txn()
        self._close_cursors()
        try:
            txn.commit()
        except Exception:
            # A failed commit (WAL append error, injected fault) must not
            # strand the transaction on the session: roll it back so its
            # locks die with the request, then surface the typed error.
            if txn.is_active:
                txn.abort()
            raise
        finally:
            self._txn = None
        return {"txn": txn.txn_id}

    def _op_rollback(self, params: Dict[str, Any]) -> Dict[str, Any]:
        txn = self._require_txn()
        self._close_cursors()
        self._txn = None
        txn.abort()
        return {"txn": txn.txn_id}

    # -- query ops ---------------------------------------------------------

    # Results leave the ops as engine values — OIDs, the shared stored
    # states themselves — and are serialised by the frame encoder after
    # the op returns, each state's row encoded once and kept with the
    # state.  Nothing mutable leaves the process, so a shared, read-only
    # stored state needs no copy on its way out (DESIGN "Stored states
    # are shared and read-only").

    def _op_query(self, params: Dict[str, Any]) -> Dict[str, Any]:
        q = self._str_param(params, "q")
        want_values = bool(params.get("values"))
        result = self.db.execute(q)
        if result.system or result.rows is not None:
            rows: List[Any] = result.rows or []
        elif want_values:
            # The states the snapshot query saw — not a re-read of
            # current storage, which could contradict the predicate.
            rows = result.shared_states
        else:
            rows = result.oids
        return {"rows": rows, "count": len(rows)}

    def _op_query_stream(self, params: Dict[str, Any]) -> Dict[str, Any]:
        q = self._str_param(params, "q")
        stream = self.db.select_iter(q)
        cursor_id = self._next_cursor
        self._next_cursor += 1
        self._cursors[cursor_id] = stream
        self._m_cursors.set(len(self._cursors))
        return {"cursor": cursor_id}

    def _op_fetch(self, params: Dict[str, Any]) -> Dict[str, Any]:
        cursor_id = self._cursor_param(params)
        limit = params.get("n", 64)
        if type(limit) is not int or limit < 1:
            raise SessionError("fetch size 'n' must be a positive integer")
        stream = self._cursors.get(cursor_id)
        if stream is None:
            raise SessionError("unknown cursor %r" % cursor_id)
        rows: List[Any] = []
        done = False
        while len(rows) < limit:
            try:
                # The stream's own visible state, not a re-read of
                # current storage: under snapshot reads the cursor
                # must keep serving its begin snapshot even while
                # writers commit between fetch batches.
                state = stream.next_shared_state()
            except StopIteration:
                done = True
                break
            rows.append(state)
        if done:
            stream.close()
            self._cursors.pop(cursor_id, None)
            self._m_cursors.set(len(self._cursors))
        self.rows_streamed += len(rows)
        self._m_rows_streamed.inc(len(rows))
        return {"rows": rows, "done": done}

    def _op_close_cursor(self, params: Dict[str, Any]) -> Dict[str, Any]:
        cursor_id = self._cursor_param(params)
        stream = self._cursors.pop(cursor_id, None)
        if stream is None:
            raise SessionError("unknown cursor %r" % cursor_id)
        stream.close()
        self._m_cursors.set(len(self._cursors))
        return {"closed": cursor_id}

    # -- object ops ----------------------------------------------------------

    def _op_new(self, params: Dict[str, Any]) -> Dict[str, Any]:
        class_name = self._str_param(params, "class")
        values = params.get("values") or {}
        if not isinstance(values, dict):
            raise SessionError("values must be an object")
        handle = self.db.new(class_name, values)
        return {"oid": handle.oid}

    def _op_get(self, params: Dict[str, Any]) -> ObjectState:
        oid = self._oid_param(params)
        return self.db.get_shared_state(oid)

    def _op_update(self, params: Dict[str, Any]) -> Dict[str, Any]:
        oid = self._oid_param(params)
        changes = params.get("changes")
        if not isinstance(changes, dict):
            raise SessionError("changes must be an object")
        self.db.update(oid, changes)
        return {"oid": oid}

    def _op_delete(self, params: Dict[str, Any]) -> Dict[str, Any]:
        oid = self._oid_param(params)
        self.db.delete(oid)
        return {"oid": oid}

    def _op_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "objects": len(self.db.storage.directory),
            "metrics": self.db.metrics.snapshot(),
            "querystats": self.db.query_stats.rows(),
        }

    # -- param / row helpers -------------------------------------------------

    def _str_param(self, params: Dict[str, Any], key: str) -> str:
        value = params.get(key)
        if not isinstance(value, str) or not value:
            raise SessionError("op requires a non-empty %r string" % key)
        return value

    def _cursor_param(self, params: Dict[str, Any]) -> int:
        cursor_id = params.get("cursor")
        if type(cursor_id) is not int:  # bool is not a cursor id either
            raise SessionError("op requires an integer 'cursor'")
        return cursor_id

    def _oid_param(self, params: Dict[str, Any]) -> OID:
        oid = params.get("oid")
        if not isinstance(oid, OID):
            raise SessionError("op requires an 'oid' reference")
        return oid

    # -- teardown ------------------------------------------------------------

    def _close_cursors(self) -> None:
        cursors, self._cursors = self._cursors, {}
        for stream in cursors.values():
            stream.close()
        self._m_cursors.set(0)

    def release(self) -> None:
        """Tear the session down: cursors closed, transaction rolled
        back, registry entry removed.  Idempotent; runs on clean close,
        client crash, idle eviction and server shutdown alike."""
        with self._session_mutex:
            if self._released:
                return
            self._released = True
            self._close_cursors()
            self._abort_txn()
        self._registry.remove(self)

    def __repr__(self) -> str:
        return "<Session %d %s client=%s>" % (
            self.session_id,
            self.state,
            self.client,
        )

    #: Wire op name -> handler, built once for the class.
    _OPS: Dict[str, Callable[["Session", Dict[str, Any]], Any]] = {
        "ping": _op_ping,
        "begin": _op_begin,
        "commit": _op_commit,
        "rollback": _op_rollback,
        "query": _op_query,
        "query_stream": _op_query_stream,
        "fetch": _op_fetch,
        "close_cursor": _op_close_cursor,
        "new": _op_new,
        "get": _op_get,
        "update": _op_update,
        "delete": _op_delete,
        "stats": _op_stats,
    }


class SessionRegistry:
    """All live sessions of one server; the SysSession row source.

    The server attaches its registry as ``db.sessions``, which is all
    the wiring the system catalog needs — ``SysSession`` then flows
    through the same parse/plan/pipeline path as every other view.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self._sessions_mutex = threading.Lock()
        self._sessions: Dict[int, Session] = {}
        self._next_id = 1
        self._m_sessions = db.metrics.gauge("server.sessions")

    def create(self, client: str = "?") -> Session:
        with self._sessions_mutex:
            session_id = self._next_id
            self._next_id += 1
            session = Session(session_id, self.db, self, client=client)
            self._sessions[session_id] = session
            self._m_sessions.set(len(self._sessions))
        return session

    def remove(self, session: Session) -> None:
        with self._sessions_mutex:
            self._sessions.pop(session.session_id, None)
            self._m_sessions.set(len(self._sessions))

    def snapshot(self) -> List[Session]:
        with self._sessions_mutex:
            return [self._sessions[sid] for sid in sorted(self._sessions)]

    def __len__(self) -> int:
        with self._sessions_mutex:
            return len(self._sessions)

    def release_all(self) -> None:
        for session in self.snapshot():
            session.release()

    def rows(self) -> Iterator[Dict[str, Any]]:
        """SysSession rows (fresh snapshot per scan)."""
        for session in self.snapshot():
            yield {
                "session": session.session_id,
                "client": session.client,
                "state": session.state,
                "txn": session.txn_id,
                "age": session.age_seconds,
                "idle": session.idle_seconds,
                "requests": session.requests,
                "rows_streamed": session.rows_streamed,
                "cursors": len(session._cursors),
            }
