"""Multi-client network front end for the kimdb engine.

The paper's first requirement for an OODB is that it be "a persistent
and *sharable* repository of objects"; everything before this package
shared a database only between threads of one process.  ``repro.server``
makes the repository sharable in the ordinary client/server sense:

* :mod:`~repro.server.protocol` — the wire format: length-prefixed JSON
  frames, OID markers, stable error codes;
* :mod:`~repro.server.session` — per-connection sessions owning at most
  one open transaction each, bound to the connection's own thread;
* :mod:`~repro.server.server` — an accept thread plus one thread per
  connection, with idle eviction by read timeout and
  rollback-on-disconnect;
* :mod:`~repro.server.client` — a blocking :class:`Client` and a
  health-checked :class:`ConnectionPool`.

Start a server with ``python -m repro.tools.serve`` or in-process::

    with Server(db, port=0) as server:
        client = Client(*server.address)
"""

from .client import Client, ConnectionPool
from .protocol import ProtocolError, ServerError, SessionError
from .server import Server
from .session import Session, SessionRegistry

__all__ = [
    "Client",
    "ConnectionPool",
    "ProtocolError",
    "ServerError",
    "SessionError",
    "Server",
    "Session",
    "SessionRegistry",
]
