"""The network front end: asyncio framing, thread-pool execution.

One process owns the :class:`~repro.database.Database`; any number of
clients share it over TCP.  The split of responsibilities:

* the **asyncio loop** (one daemon thread) does nothing but frame I/O —
  read a length prefix, read a body, write a response.  It never calls
  into the engine, so a slow query can't stall other clients' reads.
* the **thread pool** runs engine work.  A request is decoded on the
  loop, handed to :meth:`Session.handle` on a pool thread (which
  re-attaches the session's parked transaction there), its response is
  encoded into a frame on that same pool thread — inside the request's
  error boundary, so a response that cannot be framed becomes a typed
  ``PROTOCOL`` frame for that request — and the frame is written back
  from the loop.
* the **idle reaper** (an asyncio task) closes connections whose
  sessions have been idle past ``idle_timeout``; the connection
  handler's ``finally`` then releases the session, so eviction and
  client crash share one cleanup path.

The server registers its session registry as ``db.sessions``, which
makes the ``SysSession`` system view live — connected sessions are
queryable over the very protocol they arrive on.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from ..database import Database
from . import protocol
from .protocol import ProtocolError
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
        self._pool: Optional[ThreadPoolExecutor] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._reaper: Optional[asyncio.Task] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._running = False
        #: session id -> StreamWriter; loop-thread only (reaper eviction
        #: and shutdown close connections through it).
        self._conns: Dict[int, asyncio.StreamWriter] = {}
        #: Live connection-handler tasks; shutdown drains these so every
        #: session release completes before the loop exits.
        self._handler_tasks: set = set()

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "Server":
        if self._running:
            return self
        if self.lock_timeout is not None:
            self.db.locks.default_timeout = self.lock_timeout
        self.db.sessions = self.sessions
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="kimdb-worker"
        )
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="kimdb-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10s")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise self._startup_error
        self._running = True
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._request_stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        # Belt and braces: the connection handlers already released
        # their sessions on the way down; anything left (a connection
        # that never finished its handshake) is swept here.
        self.sessions.release_all()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.db.sessions = None

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def serve_forever(self) -> None:
        """Block the calling thread until the server is stopped."""
        self.start()
        thread = self._thread
        try:
            while thread is not None and thread.is_alive():
                thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # -- event loop ----------------------------------------------------------

    def _run_loop(self) -> None:
        asyncio.run(self._main())

    def _request_stop(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        try:
            self._asyncio_server = await asyncio.start_server(
                self._handle_conn, self.host, self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        sockname = self._asyncio_server.sockets[0].getsockname()
        self.port = sockname[1]
        if self.idle_timeout is not None:
            self._reaper = self._loop.create_task(self._reap_idle())
        self._started.set()
        await self._stop_requested.wait()
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
        self._asyncio_server.close()
        await self._asyncio_server.wait_closed()
        for writer in list(self._conns.values()):
            writer.close()
        # Let every handler run its finally block (session release) to
        # completion before asyncio.run starts cancelling tasks.
        pending = [task for task in self._handler_tasks if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=5.0)

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        peer = writer.get_extra_info("peername")
        client = "%s:%s" % (peer[0], peer[1]) if isinstance(peer, tuple) else "?"
        session = self.sessions.create(client=client)
        self._conns[session.session_id] = writer
        metrics = self.db.metrics
        metrics.counter("server.connections").inc()
        m_in = metrics.counter("server.bytes_in")
        m_out = metrics.counter("server.bytes_out")
        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                    length = protocol.frame_length(header)
                    body = await reader.readexactly(length)
                    payload = protocol.decode_payload(body)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except ProtocolError as exc:
                    # Framing is unrecoverable once a bad length or
                    # body arrives: answer with a typed error, hang up.
                    writer.write(
                        protocol.encode_frame(protocol.error_response(None, exc))
                    )
                    await self._drain(writer)
                    break
                m_in.inc(4 + length)
                frame = await self._loop.run_in_executor(
                    self._pool, self._serve, session, payload
                )
                writer.write(frame)
                if not await self._drain(writer):
                    break
                m_out.inc(len(frame))
        finally:
            self._conns.pop(session.session_id, None)
            # The stranded-lock guarantee: clean goodbye, client crash
            # and reaper eviction all funnel through this release —
            # open transaction rolled back, cursors closed, locks freed.
            await self._release(session)
            writer.close()

    def _serve(self, session: Session, payload: Dict[str, Any]) -> bytes:
        """Pool thread: run one request and encode its response frame.

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

    @staticmethod
    async def _drain(writer: asyncio.StreamWriter) -> bool:
        try:
            await writer.drain()
        except ConnectionError:
            return False
        return True

    async def _release(self, session: Session) -> None:
        try:
            await asyncio.shield(
                self._loop.run_in_executor(self._pool, session.release)
            )
        except (RuntimeError, asyncio.CancelledError):
            # Pool shutting down, or this handler was cancelled during
            # loop teardown: release inline (idempotent either way).
            session.release()

    async def _reap_idle(self) -> None:
        assert self.idle_timeout is not None
        interval = max(0.05, min(1.0, self.idle_timeout / 4.0))
        while True:
            await asyncio.sleep(interval)
            for session in self.sessions.snapshot():
                if session.busy or session.idle_seconds < self.idle_timeout:
                    continue
                writer = self._conns.get(session.session_id)
                if writer is not None:
                    self.db.metrics.counter("server.idle_evictions").inc()
                    # Closing the transport wakes the handler's read,
                    # which runs the one true cleanup path above.
                    writer.close()

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return "<Server %s:%d %s, %d sessions>" % (
            self.host,
            self.port,
            state,
            len(self.sessions),
        )
