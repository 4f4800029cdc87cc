"""kimdb ANALYZE: ``python -m repro.tools.analyze --path db.kim``.

Runs :meth:`~repro.database.Database.analyze` against a durable
database (or, with ``--demo``, against the monitor's in-memory demo
workload) and prints the collected class and index statistics as
tables.  On a durable database the catalog is persisted alongside the
schema, so the next open — and the next ``SELECT ... FROM
SysClassStat`` — sees it without re-scanning.

``--json FILE`` additionally writes the raw
:class:`~repro.obs.stats.StatisticsCatalog` payload (the exact dict
that is persisted) for CI artifacts and offline diffing.

``--explain FILE`` (demo only) is the CI plan-quality smoke: after
ANALYZE it EXPLAINs a fixed query set, asserts every decision was costed
from the ANALYZE statistics with the expected access path, and writes the
rendered ``-- cost --`` output to FILE for artifact upload.  Exits
non-zero when the optimizer stopped making stats-driven choices.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from ..database import Database


def _render_table(rows: List[Dict[str, Any]], columns: List[str]) -> List[str]:
    if not rows:
        return ["  (no rows)"]
    def cell(value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return "%.1f" % value
        return str(value)
    table = [[cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    out = ["  " + "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))]
    for line in table:
        out.append(
            "  " + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line))
        )
    return out


def render_catalog(catalog) -> str:
    lines = [
        "ANALYZE: %d classes, %d indexes (schema v%d, index epoch %d)"
        % (
            len(catalog.class_stats),
            len(catalog.index_stats),
            catalog.schema_version,
            catalog.index_epoch,
        ),
        "",
        "class statistics",
    ]
    lines.extend(
        _render_table(
            catalog.class_rows_table(),
            ["class_name", "rows", "avg_bytes", "total_bytes"],
        )
    )
    lines.append("")
    lines.append("index statistics")
    lines.extend(
        _render_table(
            catalog.index_rows_table(),
            [
                "index",
                "kind",
                "target",
                "path",
                "entries",
                "distinct_keys",
                "buckets",
                "low",
                "high",
            ],
        )
    )
    return "\n".join(lines)


#: The plan-quality smoke's fixed query set against the monitor demo
#: workload (64 Vehicles, weight-indexed): (source, expected access-path
#: description fragment).  A selective indexed equality must probe, an
#: unselective range and an unindexed equality must scan.
EXPLAIN_SMOKE_QUERIES = (
    ("SELECT v FROM Vehicle v WHERE v.weight = 910", "index-eq("),
    ("SELECT v FROM Vehicle v WHERE v.weight >= 900", "scan("),
    ("SELECT v FROM Vehicle v WHERE v.color = 'red'", "scan("),
)


def run_explain_smoke(db) -> "Tuple[str, List[str]]":
    """EXPLAIN the fixed query set; return (rendered output, failures)."""
    sections: List[str] = []
    failures: List[str] = []
    for source, expected in EXPLAIN_SMOKE_QUERIES:
        explain = db.explain(source)
        sections.append("$ EXPLAIN %s\n%s" % (source, explain.render()))
        decision = getattr(explain.plan, "cost", None)
        if decision is None or decision.source != "statistics":
            failures.append(
                "%s: expected a decision costed from ANALYZE statistics, got %s"
                % (
                    source,
                    "no cost decision" if decision is None
                    else "live cardinalities (%s)" % decision.reason,
                )
            )
        if expected not in explain.plan.access.description:
            failures.append(
                "%s: expected access matching %r, cost model chose %s"
                % (source, expected, explain.plan.access.description)
            )
    return "\n\n".join(sections) + "\n", failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.analyze",
        description="collect and persist class/index statistics",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--path", help="durable database path to analyze")
    target.add_argument(
        "--demo",
        action="store_true",
        help="analyze the in-memory monitor demo workload instead",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the raw statistics catalog payload as JSON",
    )
    parser.add_argument(
        "--explain",
        metavar="FILE",
        help="(with --demo) EXPLAIN a fixed query set after ANALYZE, "
        "assert statistics-driven plan choices, write the output to FILE",
    )
    args = parser.parse_args(argv)
    if args.explain and not args.demo:
        parser.error("--explain requires --demo (the fixed query set "
                     "targets the demo workload)")

    if args.demo:
        from .monitor import build_demo_database

        db = build_demo_database()
    else:
        db = Database(args.path)
    try:
        catalog = db.analyze()
        print(render_catalog(catalog))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(catalog.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("\nwrote %s" % args.json)
        if args.explain:
            output, failures = run_explain_smoke(db)
            with open(args.explain, "w", encoding="utf-8") as handle:
                handle.write(output)
            print(
                "\nplan-quality smoke: %d queries explained, wrote %s"
                % (len(EXPLAIN_SMOKE_QUERIES), args.explain)
            )
            if failures:
                for failure in failures:
                    print("PLAN-QUALITY FAILURE: %s" % failure, file=sys.stderr)
                return 1
    except BrokenPipeError:
        # Downstream reader (head, grep -m, a closed pager) went away.
        sys.stderr.close()
        return 0
    finally:
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
