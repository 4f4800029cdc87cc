"""kimdb server: ``python -m repro.tools.serve``.

Serves one database file (or an in-memory Figure 1 demo) over the
repro.server wire protocol.  ``--smoke`` runs the end-to-end smoke used
by CI: start a server on an ephemeral port, drive a pooled multi-client
workload including a mid-transaction client kill, then assert the
engine is clean — no sessions, no live transactions, no residual locks.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from ..bench.schemas import build_vehicle_schema, populate_vehicles
from ..database import Database
from ..server import Client, ConnectionPool, Server


def build_demo_database(n_vehicles: int = 120) -> Database:
    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=n_vehicles, n_companies=8)
    return db


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def run_smoke() -> int:
    """Multi-client smoke: pooled workload + crash-mid-txn, then audit."""
    db = build_demo_database()
    failures: List[str] = []
    with Server(db, port=0, workers=4, idle_timeout=30.0, lock_timeout=2.0) as server:
        host, port = server.address
        print("smoke: server on %s:%d" % (host, port))

        with ConnectionPool(host, port, size=4) as pool:
            # Plain reads through pooled connections.
            with pool.connection() as c:
                rows = c.query("Automobile where color = 'blue'")
                print("smoke: query returned %d automobiles" % len(rows))
                if not rows:
                    failures.append("blue-automobile query returned no rows")

            # A streamed read through a server-side cursor.
            with pool.connection() as c:
                streamed = sum(1 for _row in c.query_stream("Vehicle", batch=16))
                print("smoke: streamed %d vehicles" % streamed)
                if not streamed:
                    failures.append("vehicle stream yielded no rows")

            # A committed transactional write, visible to a second client.
            with pool.connection() as c:
                target = c.query("Truck limit 1")[0]
                with c.transaction():
                    c.update(target, {"color": "smoke-green"})
            with pool.connection() as c:
                seen = c.get(target)["values"]["color"]
                if seen != "smoke-green":
                    failures.append("committed write not visible: %r" % seen)

        # Crash a client mid-transaction: the server must roll back and
        # free its locks without any goodbye from the client.
        victim = Client(host, port)
        victim.begin()
        victim.update(target, {"color": "doomed"})
        victim.kill()
        drained = _wait_until(lambda: len(server.sessions) == 0)
        if not drained:
            failures.append("killed client's session not released")
        if not _wait_until(lambda: not db.txns.active_transactions()):
            failures.append(
                "live transactions after kill: %r" % db.txns.active_transactions()
            )
        if db.select("SysLock"):
            failures.append("residual locks after kill: %r" % db.select("SysLock"))
        if db.select("SysSession"):
            failures.append("SysSession not empty after kill")
        with Client(host, port) as probe:
            color = probe.get(target)["values"]["color"]
            if color != "smoke-green":
                failures.append("kill did not roll back: color=%r" % color)
        print("smoke: crash-mid-txn rolled back, locks free")

    db.close()
    if failures:
        for failure in failures:
            print("smoke FAIL: %s" % failure, file=sys.stderr)
        return 1
    print("smoke OK")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.serve",
        description="serve a kimdb database over the repro.server protocol",
    )
    parser.add_argument("--path", help="database file to open (default: in-memory demo)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=1990)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="evict sessions idle for this many seconds",
    )
    parser.add_argument(
        "--lock-timeout",
        type=float,
        default=None,
        help="override the engine's default lock wait timeout",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the multi-client smoke on an ephemeral port and exit",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke()

    db = Database(args.path) if args.path else build_demo_database()
    server = Server(
        db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        idle_timeout=args.idle_timeout,
        lock_timeout=args.lock_timeout,
    )
    try:
        server.start()
        print("kimdb server listening on %s:%d" % server.address)
        print("database: %s" % (args.path or "in-memory Figure 1 demo"))
        server.serve_forever()
    finally:
        server.stop()
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
