"""E17: query-fingerprint statistics overhead.

A deterministic battery of distinct query shapes over the Figure 1
population, each executed a fixed number of times.  Every execution
folds into the accumulator (``query.stats.recorded`` grows by exactly
sweep x repeats), and the per-fingerprint call counts come out exact:
the accumulator is bookkeeping, not sampling.  More ``query.stats.*``
work for the same battery is a regression the benchgate flags.

(The timed ANALYZE phase is retired: the planner costs from exact live
counts, so there is no statistics collection left to time.)

The emitted ``BENCH_querystats`` artifact carries the timing plus the
engine metric snapshot (``query.stats.*``), so perf PRs diff
accumulator behavior rather than stdout tables.
"""

import pytest
from conftest import emit_bench_artifact, print_table, timed

from repro import Database
from repro.bench.schemas import build_vehicle_schema, populate_vehicles

N_VEHICLES = 500
N_COMPANIES = 20
SWEEP_SHAPES = 40
REPEATS = 5


@pytest.fixture(scope="module")
def bench_db():
    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=N_VEHICLES, n_companies=N_COMPANIES, seed=1990)
    db.create_class_index("Vehicle", "weight")
    yield db
    db.close()


def _sweep_query(i):
    """One of ``SWEEP_SHAPES`` structurally distinct queries."""
    low = 1000 + i * 190
    return "SELECT v FROM Vehicle v WHERE v.weight >= %d" % low


def test_fingerprint_sweep(bench_db):
    db = bench_db
    recorded_before = db.metrics.snapshot().get("query.stats.recorded", 0)
    sweep_seconds, _ = timed(
        lambda: [
            db.execute(_sweep_query(i))
            for _rep in range(REPEATS)
            for i in range(SWEEP_SHAPES)
        ]
    )
    snap = db.metrics.snapshot()
    assert snap["query.stats.recorded"] - recorded_before == SWEEP_SHAPES * REPEATS
    assert snap["query.stats.fingerprints"] == SWEEP_SHAPES

    rows = db.select("SysQueryStat order by calls desc")
    assert len(rows) == SWEEP_SHAPES
    # Exact per-fingerprint call counts: every shape ran REPEATS times,
    # hitting the plan cache on every execution after its first.
    assert all(row["calls"] == REPEATS for row in rows)
    assert all(row["plan_cache_hits"] == REPEATS - 1 for row in rows)
    assert sum(row["rows_examined"] for row in rows) > 0

    print_table(
        "E17 query statistics",
        ("phase", "ms"),
        [
            (
                "fingerprint sweep (%d shapes x %d)" % (SWEEP_SHAPES, REPEATS),
                "%.1f" % (sweep_seconds * 1e3),
            )
        ],
    )
    emit_bench_artifact(
        "querystats",
        {
            "series": [{"plan": "sweep", "ms": sweep_seconds * 1e3}],
            "sweep_shapes": SWEEP_SHAPES,
            "repeats": REPEATS,
            "fingerprints": len(rows),
        },
        db,
    )
