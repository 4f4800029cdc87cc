"""Performance-regression gate over benchmark artifacts.

Compares freshly produced ``BENCH_*.json`` files against committed
baselines and fails (exit 1) when an engine cost counter regressed
beyond tolerance::

    python -m repro.tools.benchgate \
        --baseline benchmarks/baselines --fresh benchmarks

By default only *deterministic* cost counters are gated — physical
I/O, WAL traffic, lock work, rows examined — because they measure the
same workload identically on any machine; wall-clock series vary with
the runner and would make the gate flaky.  ``--include-timings`` adds
the per-series millisecond figures under a (much looser) separate
tolerance for local use.

A regression is an *increase* in a cost counter; decreases are reported
as improvements and never fail the gate.  Counters whose baseline is
tiny (below ``--min-base``) are skipped: going from 2 reads to 4 is
noise, going from 2000 to 4000 is not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Deterministic cost-counter prefixes the gate compares.  More work on
#: any of these for the same benchmark workload is a real regression
#: regardless of how fast the runner is.
COST_PREFIXES = (
    "pager.",
    "buffer.faults",
    "buffer.evictions",
    "buffer.flushes",
    "wal.appends",
    "wal.append_bytes",
    "wal.flushes",
    "wal.syncs",
    "wal.page_images",
    "locks.acquisitions",
    "locks.waits",
    "locks.deadlocks",
    "locks.upgrades",
    "query.rows_examined",
    "query.index_probes",
    "fault.",
    "server.requests",
    "server.rows_streamed",
    "query.plan_cache.",
    "query.cost.",
    "rewrite.",
    "txn.snapshot.",
    "wal.group_commit.",
    "query.stats.",
    "analyze.",
    "workspace.",
)


class Finding:
    """One compared counter: regression, improvement, or steady."""

    __slots__ = ("bench", "metric", "base", "fresh", "kind")

    def __init__(self, bench: str, metric: str, base: float, fresh: float, kind: str) -> None:
        self.bench = bench
        self.metric = metric
        self.base = base
        self.fresh = fresh
        self.kind = kind  # "regression" | "improvement" | "missing"

    @property
    def delta_pct(self) -> float:
        if self.base == 0:
            return float("inf") if self.fresh else 0.0
        return 100.0 * (self.fresh - self.base) / self.base

    def render(self) -> str:
        if self.kind == "missing":
            return "%-28s %-34s baseline exists but no fresh artifact" % (
                self.bench,
                self.metric,
            )
        return "%-28s %-34s %12g -> %12g  (%+.1f%%)" % (
            self.bench,
            self.metric,
            self.base,
            self.fresh,
            self.delta_pct,
        )


def _gated_metrics(artifact: Dict[str, Any]) -> Dict[str, float]:
    """The scalar cost counters of one artifact's ``metrics`` block."""
    out: Dict[str, float] = {}
    for name, value in artifact.get("metrics", {}).items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue  # histograms are dicts; skip non-scalars
        if any(name.startswith(prefix) for prefix in COST_PREFIXES):
            out[name] = float(value)
    return out


def _timing_series(artifact: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for i, point in enumerate(artifact.get("series", [])):
        if isinstance(point, dict) and isinstance(point.get("ms"), (int, float)):
            label = str(
                point.get("plan") or point.get("access_path") or "series[%d]" % i
            )
            out["ms:%s" % label] = float(point["ms"])
    return out


def _artifacts(directory: str) -> Iterator[Tuple[str, str]]:
    for name in sorted(os.listdir(directory)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            yield name, os.path.join(directory, name)


def compare_dirs(
    baseline_dir: str,
    fresh_dir: str,
    tolerance: float = 0.25,
    min_base: float = 100.0,
    include_timings: bool = False,
    timing_tolerance: float = 1.0,
) -> List[Finding]:
    """All regressions/improvements of fresh artifacts vs their baselines.

    Every baseline must have a fresh counterpart (a benchmark that
    stopped producing its artifact is itself a regression); fresh
    artifacts without baselines are new benchmarks and pass silently.
    """
    findings: List[Finding] = []
    fresh_paths = dict(_artifacts(fresh_dir)) if os.path.isdir(fresh_dir) else {}
    for name, base_path in _artifacts(baseline_dir):
        bench = name[len("BENCH_") : -len(".json")]
        fresh_path = fresh_paths.get(name)
        if fresh_path is None:
            findings.append(Finding(bench, "<artifact>", 0, 0, "missing"))
            continue
        with open(base_path, "r", encoding="utf-8") as handle:
            base = json.load(handle)
        with open(fresh_path, "r", encoding="utf-8") as handle:
            fresh = json.load(handle)
        pairs = [(_gated_metrics(base), _gated_metrics(fresh), tolerance)]
        if include_timings:
            pairs.append((_timing_series(base), _timing_series(fresh), timing_tolerance))
        for base_metrics, fresh_metrics, tol in pairs:
            for metric, base_value in sorted(base_metrics.items()):
                fresh_value = fresh_metrics.get(metric)
                if fresh_value is None:
                    continue  # renamed/removed counter: not a perf signal
                if base_value < min_base and fresh_value < min_base:
                    continue
                if fresh_value > base_value * (1.0 + tol):
                    findings.append(
                        Finding(bench, metric, base_value, fresh_value, "regression")
                    )
                elif fresh_value < base_value * (1.0 - tol):
                    findings.append(
                        Finding(bench, metric, base_value, fresh_value, "improvement")
                    )
    return findings


def list_rows(
    baseline_dir: str, fresh_dir: str
) -> List[Tuple[str, str, Optional[float], Optional[float]]]:
    """Every gated counter's (bench, metric, baseline, fresh) pair.

    Unlike :func:`compare_dirs` this reports *all* counters — steady
    ones included — so drift inside the tolerance band stays visible on
    green runs.  A ``None`` side means the counter (or the artifact)
    exists only on the other side.
    """
    rows: List[Tuple[str, str, Optional[float], Optional[float]]] = []
    base_paths = dict(_artifacts(baseline_dir)) if os.path.isdir(baseline_dir) else {}
    fresh_paths = dict(_artifacts(fresh_dir)) if os.path.isdir(fresh_dir) else {}
    for name in sorted(set(base_paths) | set(fresh_paths)):
        bench = name[len("BENCH_") : -len(".json")]
        sides: List[Dict[str, float]] = []
        for paths in (base_paths, fresh_paths):
            path = paths.get(name)
            if path is None:
                sides.append({})
                continue
            with open(path, "r", encoding="utf-8") as handle:
                sides.append(_gated_metrics(json.load(handle)))
        base_metrics, fresh_metrics = sides
        for metric in sorted(set(base_metrics) | set(fresh_metrics)):
            rows.append(
                (bench, metric, base_metrics.get(metric), fresh_metrics.get(metric))
            )
    return rows


def render_markdown_deltas(
    rows: List[Tuple[str, str, Optional[float], Optional[float]]]
) -> str:
    """The ``--list`` table as GitHub-flavored markdown for step summaries."""
    def cell(value: Optional[float]) -> str:
        return "%g" % value if value is not None else "—"

    lines = [
        "### benchgate counter deltas (baseline vs fresh)",
        "",
        "| bench | counter | baseline | fresh | delta |",
        "| --- | --- | ---: | ---: | ---: |",
    ]
    for bench, metric, base, fresh in rows:
        if base is None or fresh is None:
            delta = "n/a"
        elif base == 0:
            delta = "+inf" if fresh else "0.0%"
        else:
            delta = "%+.1f%%" % (100.0 * (fresh - base) / base)
        lines.append(
            "| %s | %s | %s | %s | %s |"
            % (bench, metric, cell(base), cell(fresh), delta)
        )
    if not rows:
        lines.append("| (no gated counters found) | | | | |")
    return "\n".join(lines)


def update_baselines(baseline_dir: str, fresh_dir: str) -> List[str]:
    """Copy every fresh artifact over its baseline; returns names written."""
    os.makedirs(baseline_dir, exist_ok=True)
    written = []
    for name, fresh_path in _artifacts(fresh_dir):
        with open(fresh_path, "r", encoding="utf-8") as handle:
            data = handle.read()
        with open(os.path.join(baseline_dir, name), "w", encoding="utf-8") as handle:
            handle.write(data)
        written.append(name)
    return written


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.benchgate", description=__doc__
    )
    parser.add_argument(
        "--baseline",
        default="benchmarks/baselines",
        help="directory of committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--fresh",
        default="benchmarks",
        help="directory of freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative increase of a cost counter (default 0.25)",
    )
    parser.add_argument(
        "--min-base",
        type=float,
        default=100.0,
        help="skip counters whose baseline and fresh values are both below this",
    )
    parser.add_argument(
        "--include-timings",
        action="store_true",
        help="also gate wall-clock series (noisy; off in CI)",
    )
    parser.add_argument(
        "--timing-tolerance",
        type=float,
        default=1.0,
        help="tolerance for --include-timings comparisons (default 1.0 = 2x)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy fresh artifacts over the baselines instead of comparing",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_deltas",
        help="print every gated counter's baseline-vs-fresh delta as a "
        "markdown table (appended to $GITHUB_STEP_SUMMARY when set) "
        "instead of gating",
    )
    args = parser.parse_args(argv)

    if args.list_deltas:
        table = render_markdown_deltas(list_rows(args.baseline, args.fresh))
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a", encoding="utf-8") as handle:
                handle.write(table + "\n")
        try:
            print(table)
        except BrokenPipeError:
            sys.stderr.close()  # downstream reader (head, pager) went away
        return 0

    if args.update:
        for name in update_baselines(args.baseline, args.fresh):
            print("baseline updated: %s" % name)
        return 0

    if not os.path.isdir(args.baseline):
        print("benchgate: no baseline directory %r — nothing to gate" % args.baseline)
        return 0

    findings = compare_dirs(
        args.baseline,
        args.fresh,
        tolerance=args.tolerance,
        min_base=args.min_base,
        include_timings=args.include_timings,
        timing_tolerance=args.timing_tolerance,
    )
    regressions = [f for f in findings if f.kind in ("regression", "missing")]
    improvements = [f for f in findings if f.kind == "improvement"]
    for finding in improvements:
        print("IMPROVED   %s" % finding.render())
    for finding in regressions:
        print("REGRESSED  %s" % finding.render())
    if regressions:
        print(
            "\nbenchgate: %d regression(s) beyond %.0f%% tolerance; if the "
            "cost change is intended, refresh the baselines with --update"
            % (len(regressions), 100 * args.tolerance)
        )
        return 1
    print(
        "benchgate: OK (%d improvement(s), 0 regressions at %.0f%% tolerance)"
        % (len(improvements), 100 * args.tolerance)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
