"""kimdb monitor: ``python -m repro.tools.monitor --once``.

A top-like front end over the system statistics views.  Every panel is
the result of a *normal OQL query* against a system view — the monitor
contains no privileged introspection, only::

    SysWaitEvent order by total_wait desc limit 10
    SysTransaction order by txn
    SysLock where granted = false
    SysStat order by name
    ...

Because there is no server process to attach to, the monitor opens an
in-memory demo database and drives a small workload — inserts, queries,
and a deliberate two-transaction lock conflict — so every panel has
something to show.  ``--once`` prints a single snapshot and exits (the
mode CI exercises); the default loops until interrupted.  With
``--prometheus`` the metric registry is rendered in the Prometheus text
exposition format instead of panels.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from ..core.attribute import AttributeDef
from ..database import Database
from ..obs.export import render_prometheus


def build_demo_database() -> Database:
    """An in-memory database with enough activity to populate the views."""
    db = Database()
    db.configure_observability(slow_threshold=0.0)
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("color", "String", default="white"),
            AttributeDef("weight", "Integer"),
        ],
    )
    for i in range(64):
        db.new("Vehicle", {"color": ("red", "green", "blue")[i % 3], "weight": 900 + i})
    db.create_class_index("Vehicle", "weight")
    db.execute("SELECT v FROM Vehicle v WHERE v.weight >= 950")
    db.execute("Vehicle where color = 'red' order by weight desc limit 5")
    # Repeat one query so SysQueryStat shows calls > 1 and a cache hit.
    db.execute("SELECT v FROM Vehicle v WHERE v.weight >= 950")
    _demo_lock_conflict(db)
    return db


def _demo_lock_conflict(db: Database, hold_seconds: float = 0.05) -> None:
    """Two transactions contending for one object: a real Lock wait."""
    target = db.select("Vehicle where color = 'red' limit 1")[0]
    writer = db.txns.begin()
    db.update(target.oid, {"weight": 2000})  # writer holds X
    started = threading.Event()

    def blocked_reader() -> None:
        with db.txns.begin():
            started.set()
            db.get_state(target.oid)  # blocks until the writer commits

    thread = threading.Thread(target=blocked_reader)
    thread.start()
    started.wait()
    time.sleep(hold_seconds)
    writer.commit()
    thread.join()


# -- rendering ---------------------------------------------------------------


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "%.4f" % value
    return str(value)


def _render_table(rows: List[Dict[str, Any]], columns: List[str]) -> List[str]:
    if not rows:
        return ["  (no rows)"]
    table = [[_format_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    out = ["  " + "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))]
    for line in table:
        out.append("  " + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return out


#: (panel title, system-view query, columns shown) — each panel is one
#: ordinary OQL query; the monitor has no other data source.
PANELS = [
    (
        "top waits",
        "SysWaitEvent order by total_wait desc limit 10",
        ["kind", "target", "count", "total_wait", "avg_wait", "last_txn", "last_blocker"],
    ),
    (
        "active transactions",
        "SysTransaction order by txn",
        ["txn", "status", "age", "operations", "locks_held", "wait_seconds", "waiting_for"],
    ),
    (
        "blocked lock requests",
        "SysLock where granted = false",
        ["resource", "txn", "mode"],
    ),
    (
        "slow operations",
        "SysSlowOp order by elapsed desc limit 10",
        ["name", "elapsed", "threshold", "target", "trace"],
    ),
    (
        "hot queries",
        "SysQueryStat order by calls desc limit 10",
        ["fingerprint", "target", "calls", "plan_cache_hits", "mean_seconds", "p95", "lock_wait"],
    ),
    (
        "class statistics",
        "SysClassStat order by rows desc limit 10",
        ["class_name", "rows", "pages"],
    ),
    (
        "index statistics",
        "SysIndexStat order by entries desc limit 10",
        ["index", "kind", "path", "entries", "distinct_keys", "height"],
    ),
    (
        "last query pipeline",
        "SysOperator order by position",
        ["position", "op", "detail", "rows_out", "elapsed"],
    ),
    (
        "key statistics",
        "SysStat where kind = 'counter' order by name",
        ["name", "value"],
    ),
]


def render_snapshot(db: Database) -> str:
    lines = ["kimdb monitor — %s" % time.strftime("%Y-%m-%d %H:%M:%S")]
    for title, query, columns in PANELS:
        lines.append("")
        lines.append("%s   [%s]" % (title, query))
        lines.extend(_render_table(db.select(query), columns))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.monitor",
        description="top-like monitor over kimdb's system statistics views",
    )
    parser.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    parser.add_argument(
        "--prometheus",
        action="store_true",
        help="render the metrics registry in Prometheus text format instead",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh interval in seconds (default: 2)",
    )
    args = parser.parse_args(argv)

    db = build_demo_database()
    try:
        if args.prometheus:
            sys.stdout.write(
                render_prometheus(db.metrics, querystats=db.query_stats)
            )
            return 0
        if args.once:
            print(render_snapshot(db))
            return 0
        while True:
            print(render_snapshot(db))
            print()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # Downstream reader (head, grep -m, a closed pager) went away.
        sys.stderr.close()
        return 0
    finally:
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
