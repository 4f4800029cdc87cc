"""The ledger's metric catalogue: what is measured, and what it should move.

``BENCHMARK.json`` is the contract the driver reads; this table is where
its content comes from, plus the part the manifest's schema has no room
for: which end-to-end metric, on which workload, each per-layer metric
is expected to move (written down before measuring, choosing-metrics §3).
``check_manifest.py`` fails the run when the two disagree.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

#: Wall seconds the measured pass is sized for (``run_seconds``).
RUN_SECONDS = 6

WORKLOADS = {
    "fig1_scan": (
        "embedded in-memory, 1 thread, data fits the buffer; 4 fixed-text scans "
        "per round (Fig.1 query, range, GROUP BY, top-10): row pipeline, deref, "
        "decode; bypasses WAL, locks, server, pager"
    ),
    "query_point": (
        "embedded in-memory, 1 thread; 20 short indexed queries per round, 10 "
        "plan-cache hits + 10 fresh literals: parser, analysis, planner, index, "
        "facade glue; few rows touched"
    ),
    "oo1_traverse": (
        "durable file, 1 thread, data ~15x the 32-page buffer; 50 index lookups + "
        "one depth-7 workspace traversal per round: swizzling, buffer faults, "
        "pager reads; bypasses the query front door"
    ),
    "commit_write": (
        "durable file, fsync on commit + group commit (defaults), 2 writer threads; "
        "25 txns per round, checkpoint every 25 rounds: WAL, locks, index "
        "maintenance, encode; crash-checked"
    ),
    "server_mixed": (
        "in-process Server, 2 Client connections; per round 6 point queries, 2 get, "
        "a 500-row stream, a write txn: wire framing, sessions, snapshot readers "
        "beside committing writers"
    ),
}

ALL = tuple(WORKLOADS)
SINGLE_THREADED = ("fig1_scan", "query_point", "oo1_traverse")

#: name, unit, better, bound.
#: Bounds are what this sandbox can resolve (README, "Steadiness"), not
#: what one would like: its CPU changes speed by up to 2x under the run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metrics this one should move ...
    moves: Tuple[str, ...]
    #: ... on these workloads (elsewhere the prediction is "no work").
    on: Tuple[str, ...]


def _ms(name, moves, on):
    return LayerMetric(name, "ms", "lower", moves, on)


def _count(name, moves, on):
    return LayerMetric(name, "count", "lower", moves, on)


def _ratio(name, better, moves, on):
    return LayerMetric(name, "ratio", better, moves, on)


_TPUT = ("ops_per_s",)
_TPUT_P50 = ("ops_per_s", "op_p50_ms")
_P50 = ("op_p50_ms",)
_P90 = ("op_p90_ms",)
_TAIL = ("op_p50_ms", "op_p90_ms")

#: ``*_ms`` = mean self-time per round from the traced pass; counts,
#: ratios and ``*_p50_ms`` come from the measured pass.
PER_LAYER = (
    # server
    _ms("server.decode_ms", _TPUT_P50, ("server_mixed",)),
    _ms("server.encode_ms", _TPUT_P50, ("server_mixed",)),
    _ms("server.session_self_ms", _TPUT_P50, ("server_mixed",)),
    _count("server.requests_per_round", _TPUT_P50, ("server_mixed",)),
    _count("server.bytes_per_round", _TPUT_P50, ("server_mixed",)),
    _ms("server.point_query_p50_ms", _TPUT_P50, ("server_mixed",)),
    _ms("server.get_p50_ms", _TPUT_P50, ("server_mixed",)),
    _ms("server.stream_p50_ms", _TPUT_P50, ("server_mixed",)),
    _ms("server.write_txn_p50_ms", _TPUT_P50, ("server_mixed",)),
    # database.py facade
    _ms("database.self_ms", _TPUT, ("query_point",)),
    # query
    _ms("query.parse_ms", _TPUT, ("query_point",)),
    _ms("query.plan_ms", _TPUT, ("query_point",)),
    _ms("query.exec_self_ms", _TPUT_P50, ("fig1_scan",)),
    _ratio("query.rows_examined_per_row", "lower", _TPUT_P50, ("fig1_scan",)),
    _ms("query.fig1_p50_ms", _TPUT_P50, ("fig1_scan",)),
    _ms("query.groupby_p50_ms", _TPUT_P50, ("fig1_scan",)),
    _ms("query.topk_p50_ms", _TPUT_P50, ("fig1_scan",)),
    _count("query.index_probes_per_round", _P50, ("query_point",)),
    _ms("query.cache_hit_p50_ms", _P50, ("query_point",)),
    _ms("query.cache_miss_p50_ms", _P50, ("query_point",)),
    # analysis
    _ms("analysis.check_ms", _TPUT, ("query_point",)),
    _ms("analysis.rewrite_ms", _TPUT, ("query_point",)),
    _ms("analysis.plancache_ms", _TPUT, ("query_point",)),
    _ratio("analysis.plancache_hit_ratio", "higher", _TPUT, ("query_point",)),
    # index
    _ms("index.lookup_ms", _P50, ("query_point", "oo1_traverse")),
    _ms("index.lookup_batch_p50_ms", _P50, ("query_point", "oo1_traverse")),
    _ms("index.maintain_ms", _TPUT, ("commit_write",)),
    # workspace
    _ms("workspace.load_self_ms", _P50, ("oo1_traverse",)),
    _ratio("workspace.hit_ratio", "higher", _P50, ("oo1_traverse",)),
    _ms("workspace.traverse_p50_ms", _P50, ("oo1_traverse",)),
    # storage
    _ms("storage.load_self_ms", _TPUT, ("fig1_scan", "oo1_traverse")),
    _ms("storage.decode_ms", _TPUT, ("fig1_scan", "oo1_traverse")),
    _ms("storage.buffer_self_ms", _TAIL, ("oo1_traverse",)),
    _ratio("storage.buffer_hit_ratio", "higher", _TAIL, ("oo1_traverse",)),
    _count("storage.buffer_evictions_per_round", _TAIL, ("oo1_traverse",)),
    _ms("storage.pager_read_ms", _TAIL, ("oo1_traverse",)),
    _count("storage.pager_reads_per_round", _TAIL, ("oo1_traverse",)),
    _ms("storage.encode_ms", _TPUT, ("commit_write",)),
    _ms("storage.pager_write_ms", _TPUT, ("commit_write",)),
    _count("storage.pager_writes_per_round", _TPUT, ("commit_write",)),
    _ratio("storage.file_bytes_per_user_byte", "lower", ("peak_rss_mb",), ALL),
    # txn
    _ms("txn.wal_append_ms", _TPUT, ("commit_write", "server_mixed")),
    _ms("txn.wal_sync_ms", _TPUT, ("commit_write", "server_mixed")),
    _ratio("txn.wal_syncs_per_commit", "lower", _TPUT, ("commit_write", "server_mixed")),
    _ratio("txn.wal_bytes_per_user_byte", "lower", _TPUT, ("commit_write", "server_mixed")),
    _ms("txn.commit_self_ms", _TPUT, ("commit_write", "server_mixed")),
    _ms("txn.lock_acquire_ms", _TPUT, ("commit_write", "server_mixed")),
    _ms("txn.lock_wait_ms", _TPUT, ("commit_write", "server_mixed")),
    _count("txn.lock_acquisitions_per_round", _TPUT, ("commit_write", "server_mixed")),
    _ms("txn.checkpoint_ms", _P90, ("commit_write",)),
    # versions
    _ms("versions.resolve_ms", _P90, ("server_mixed",)),
    _count("versions.snapshots_per_round", _P90, ("server_mixed",)),
    _count("versions.plan_downgrades_per_round", _P90, ("server_mixed",)),
    _count("versions.gc_reclaimed_per_round", _P90, ("server_mixed",)),
    # the observer, and what the budget fails to explain
    _ratio("obs.trace_overhead_ratio", "lower", _TPUT, ALL),
    _ratio("obs.engine_obs_cost_ratio", "lower", _TPUT, ALL),
    _ms("harness.unattributed_ms", _TPUT, ALL),
)

#: The self-time partition: every traced callable rolls up into exactly
#: one of these, and together with ``harness.unattributed_ms`` they sum
#: to the traced round time.
SELF_TIME = (
    "server.decode_ms",
    "server.encode_ms",
    "server.session_self_ms",
    "database.self_ms",
    "query.parse_ms",
    "query.plan_ms",
    "query.exec_self_ms",
    "analysis.check_ms",
    "analysis.rewrite_ms",
    "analysis.plancache_ms",
    "index.lookup_ms",
    "index.maintain_ms",
    "workspace.load_self_ms",
    "storage.load_self_ms",
    "storage.decode_ms",
    "storage.encode_ms",
    "storage.buffer_self_ms",
    "storage.pager_read_ms",
    "storage.pager_write_ms",
    "txn.wal_append_ms",
    "txn.wal_sync_ms",
    "txn.commit_self_ms",
    "txn.lock_acquire_ms",
    "versions.resolve_ms",
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` this catalogue implies."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
