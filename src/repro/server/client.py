"""Blocking client for the kimdb wire protocol.

:class:`Client` is one connection = one server session: its ``begin``
opens the session's single transaction, and dropping the connection
(crash or :meth:`Client.kill`) makes the server roll that transaction
back.  Typed error frames re-raise as
:class:`~repro.server.protocol.ServerError` with the stable wire code.

:class:`ConnectionPool` amortizes connection setup for fan-out
workloads: connections are health-checked (ping) on reuse and returned
to the pool clean — an open transaction on a released connection is
rolled back rather than leaking into the next borrower.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import threading
import uuid
from typing import Any, Dict, Iterator, List, Optional

from ..core.oid import OID
from .protocol import ServerError, raise_on_error, recv_frame, send_frame


class Client:
    """One blocking connection to a kimdb server."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        trace_id: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_id = 1
        self._closed = False
        #: This connection's trace id, stamped into every request frame
        #: (with the request id as the span id) and adopted server-side,
        #: so the client can find its own slow queries in SysSlowOp /
        #: SysWaitEvent by an id it chose — or logged — itself.
        self.trace_id = trace_id if trace_id is not None else uuid.uuid4().hex[:16]
        #: True between a successful begin and its commit/rollback
        #: (the pool rolls back before reusing the connection).
        self.in_txn = False

    # -- plumbing ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def call(self, op: str, **params: Any) -> Any:
        """One request/response round trip; returns the decoded result."""
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = self._next_id
        self._next_id += 1
        send_frame(
            self._sock,
            {
                "id": request_id,
                "op": op,
                "params": params,
                "trace": {"id": self.trace_id, "span": request_id},
            },
        )
        payload, _n = recv_frame(self._sock)
        if payload.get("id") not in (request_id, None):
            raise ConnectionError(
                "response id %r does not match request id %d"
                % (payload.get("id"), request_id)
            )
        return raise_on_error(payload)

    def close(self) -> None:
        """Close the connection (the server rolls back any open txn)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def kill(self) -> None:
        """Abort the connection with an RST — simulates a client crash.

        Unlike :meth:`close` there is no orderly FIN; the server sees
        the connection die exactly as it would for a killed process.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- transactions --------------------------------------------------------

    def ping(self) -> bool:
        return self.call("ping") == "pong"

    def begin(self) -> int:
        txn = self.call("begin")["txn"]
        self.in_txn = True
        return txn

    def commit(self) -> int:
        # Clear the flag *before* the round trip: whether commit
        # succeeds or fails, the server ends the transaction (a failed
        # commit is rolled back server-side), so a commit-time
        # ServerError must propagate to the caller — not trigger a
        # doomed rollback of a transaction that no longer exists.
        self.in_txn = False
        return self.call("commit")["txn"]

    def rollback(self) -> int:
        self.in_txn = False
        return self.call("rollback")["txn"]

    @contextlib.contextmanager
    def transaction(self) -> Iterator["Client"]:
        self.begin()
        try:
            yield self
        except BaseException:
            if self.in_txn and not self._closed:
                self.rollback()
            raise
        else:
            self.commit()

    # -- queries -------------------------------------------------------------

    def query(self, q: str, values: bool = False) -> List[Any]:
        """Run a query, materialized server-side in one response."""
        return self.call("query", q=q, values=values)["rows"]

    def query_stream(self, q: str, batch: int = 64) -> Iterator[Dict[str, Any]]:
        """Stream query rows through a server-side cursor.

        The cursor is chunk-fetched lazily; abandoning the generator
        closes it server-side so its snapshot never outlives the consumer.
        """
        cursor = self.call("query_stream", q=q)["cursor"]
        done = False
        try:
            while not done:
                reply = self.call("fetch", cursor=cursor, n=batch)
                done = bool(reply.get("done"))
                for row in reply["rows"]:
                    yield row
        finally:
            if not done and not self._closed:
                try:
                    self.call("close_cursor", cursor=cursor)
                except (ServerError, ConnectionError, OSError):
                    pass

    # -- objects -------------------------------------------------------------

    def new(self, class_name: str, values: Optional[Dict[str, Any]] = None) -> OID:
        reply = self.call("new", **{"class": class_name, "values": values or {}})
        return reply["oid"]

    def get(self, oid: OID) -> Dict[str, Any]:
        return self.call("get", oid=oid)

    def update(self, oid: OID, changes: Dict[str, Any]) -> OID:
        return self.call("update", oid=oid, changes=changes)["oid"]

    def delete(self, oid: OID) -> OID:
        return self.call("delete", oid=oid)["oid"]

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return "<Client %s:%d %s>" % (self.host, self.port, state)


class ConnectionPool:
    """A small health-checked pool of :class:`Client` connections."""

    def __init__(
        self, host: str, port: int, size: int = 8, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.size = size
        self.timeout = timeout
        self._pool_mutex = threading.Lock()
        self._idle: List[Client] = []
        self._closed = False

    def _connect(self) -> Client:
        return Client(self.host, self.port, timeout=self.timeout)

    def acquire(self) -> Client:
        """A healthy connection: pooled if one pings, fresh otherwise."""
        while True:
            with self._pool_mutex:
                if self._closed:
                    raise ConnectionError("pool is closed")
                client = self._idle.pop() if self._idle else None
            if client is None:
                return self._connect()
            try:
                if client.ping():
                    return client
            except (ServerError, ConnectionError, OSError):
                pass
            client.close()

    def release(self, client: Client) -> None:
        """Return a connection, rolled back and ready for the next user."""
        if client.closed:
            return
        if client.in_txn:
            try:
                client.rollback()
            except (ServerError, ConnectionError, OSError):
                client.close()
                return
        with self._pool_mutex:
            if not self._closed and len(self._idle) < self.size:
                self._idle.append(client)
                return
        client.close()

    @contextlib.contextmanager
    def connection(self) -> Iterator[Client]:
        client = self.acquire()
        try:
            yield client
        finally:
            self.release(client)

    def close(self) -> None:
        with self._pool_mutex:
            self._closed = True
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return "<ConnectionPool %s:%d %d idle>" % (
            self.host,
            self.port,
            len(self._idle),
        )
