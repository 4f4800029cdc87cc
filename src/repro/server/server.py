"""The network front end: one thread per connection.

One process owns the :class:`~repro.database.Database`; any number of
clients share it over TCP.  The split of responsibilities:

* the **accept thread** takes connections off the listening socket and
  starts one thread for each.
* a **connection thread** loops over four steps: read a frame, run
  :meth:`Session.handle`, encode the response into a frame — inside the
  request's error boundary, so a response that cannot be framed becomes
  a typed ``PROTOCOL`` frame for that request — and ``sendall`` it.  A
  session's transaction is begun on this thread and stays bound to it
  until commit, rollback or release, so the engine's thread-local
  autocommit logic applies unchanged.  At most ``workers`` requests
  execute in the engine at once; frame reads and writes do not count.
* **idle eviction** is the connection's read timeout: a client silent
  for ``idle_timeout`` seconds is hung up on, and the thread's
  ``finally`` releases its session, so eviction and client crash share
  one cleanup path.  A request that is merely slow (waiting on a lock)
  is not reading, so it is never evicted.

The server registers its session registry as ``db.sessions``, which
makes the ``SysSession`` system view live — connected sessions are
queryable over the very protocol they arrive on.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..database import Database
from . import protocol
from .protocol import ProtocolError, _recv_exact
from .session import Session, SessionRegistry


class Server:
    """Serve one database to many clients.

    Usable as a context manager; ``port=0`` binds an ephemeral port
    (read the bound one from :attr:`address` after :meth:`start`).
    """

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 8,
        idle_timeout: Optional[float] = None,
        lock_timeout: Optional[float] = None,
    ) -> None:
        self.db = db
        self.host = host
        self.port = port
        self.workers = workers
        self.idle_timeout = idle_timeout
        self.lock_timeout = lock_timeout
        self.sessions = SessionRegistry(db)
        #: Held around each request's execution: at most ``workers``
        #: requests are inside the engine at once.
        self._engine_slots = threading.BoundedSemaphore(workers)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._running = False
        #: Live connection socket -> its thread; shutdown wakes and
        #: joins them through it.
        self._conns_mutex = threading.Lock()
        self._conns: Dict[socket.socket, threading.Thread] = {}

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "Server":
        if self._running:
            return self
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server((self.host, self.port), family=family)
        self.port = self._listener.getsockname()[1]
        if self.lock_timeout is not None:
            self.db.locks.default_timeout = self.lock_timeout
        self.db.sessions = self.sessions
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="kimdb-server", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        try:
            # close() alone does not wake a blocked accept() on Linux.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._accept_thread.join(timeout=10.0)
        self._listener.close()
        # Under the mutex: a connection thread closes its socket only
        # after leaving the table, so no socket here is closed yet.
        with self._conns_mutex:
            conns = list(self._conns.items())
            for sock, _thread in conns:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for _sock, thread in conns:
            thread.join(timeout=10.0)
        # Belt and braces: the connection threads already released
        # their sessions on the way down; anything left (a thread still
        # inside a long request) is swept here.
        self.sessions.release_all()
        self.db.sessions = None

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def serve_forever(self) -> None:
        """Block the calling thread until the server is stopped."""
        self.start()
        try:
            while self._accept_thread.is_alive():
                self._accept_thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # -- connections ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                if not self._running:
                    return  # stop() shut the listener down
                time.sleep(0.1)  # e.g. out of file descriptors: retry, don't spin
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            client = "%s:%s" % peer[:2]
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock, client),
                name="kimdb-conn %s" % client,
                daemon=True,
            )
            with self._conns_mutex:
                self._conns[sock] = thread
            thread.start()

    def _serve_connection(self, sock: socket.socket, client: str) -> None:
        session = self.sessions.create(client=client)
        metrics = self.db.metrics
        metrics.counter("server.connections").inc()
        m_in = metrics.counter("server.bytes_in")
        m_out = metrics.counter("server.bytes_out")
        sock.settimeout(self.idle_timeout)
        try:
            while True:
                try:
                    length = protocol.frame_length(_recv_exact(sock, 4))
                    payload = protocol.decode_payload(_recv_exact(sock, length))
                except socket.timeout:
                    metrics.counter("server.idle_evictions").inc()
                    break
                except OSError:
                    break
                except ProtocolError as exc:
                    # Framing is unrecoverable once a bad length or
                    # body arrives: answer with a typed error, hang up.
                    frame = protocol.encode_frame(protocol.error_response(None, exc))
                    try:
                        sock.sendall(frame)
                    except OSError:
                        pass
                    break
                m_in.inc(4 + length)
                with self._engine_slots:
                    frame = self._serve(session, payload)
                try:
                    sock.sendall(frame)
                except OSError:
                    break
                m_out.inc(len(frame))
        finally:
            # The stranded-lock guarantee: clean goodbye, client crash
            # and idle eviction all funnel through this release — open
            # transaction rolled back, cursors closed, locks freed.
            session.release()
            with self._conns_mutex:
                self._conns.pop(sock, None)
            sock.close()

    def _serve(self, session: Session, payload: Dict[str, Any]) -> bytes:
        """Run one request and encode its response frame.

        A response the wire cannot carry (a value with no wire form, a
        frame over the size cap) is answered with a typed ``PROTOCOL``
        frame for the same request id; the connection, the session and
        its open transaction all stay up.
        """
        response = session.handle(payload)
        try:
            return protocol.encode_frame(response)
        except ProtocolError as exc:
            self.db.metrics.counter("server.errors").inc()
            return protocol.encode_frame(
                protocol.error_response(response.get("id"), exc)
            )

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return "<Server %s:%d %s, %d sessions>" % (
            self.host,
            self.port,
            state,
            len(self.sessions),
        )
