"""E7: the optimizer's index-vs-scan crossover, discovered by the cost model.

Section 2.2: declarative queries made the query optimizer necessary —
it must "automatically arrive at an optimal plan ... such that the plan
will make use of appropriate access methods available in the system."
Earlier revisions of this bench hard-coded where the planner should
switch from index probe to extent scan; now exact live counts (the
counted B+-tree) drive a real cost model (``repro.query.cost``), so the
sweep *asks the model* where the crossover is and asserts the choices
are consistent with its own candidate costs: index probes on the
selective side, one switch point, extent scans beyond it, and every
estimate equal to the rows the query matches.
"""

import pytest
from conftest import emit_bench_artifact, print_table, timed

from repro import AttributeDef, Database
from repro.bench.workloads import selectivity_values
from repro.query.ast import Comparison, Const, Path, Query
from repro.query.planner import ExtentScan, IndexEqProbe

N = 5000
#: distinct-count sweep: key k of "distinct d" matches N/d rows.
DISTINCTS = (2500, 500, 50, 10, 2, 1)


@pytest.fixture(scope="module")
def sweep_db():
    db = Database()
    db.define_class("Row", attributes=[
        AttributeDef("bucket_%d" % d, "Integer") for d in DISTINCTS
    ])
    columns = {d: selectivity_values(N, d, seed=d) for d in DISTINCTS}
    for position in range(N):
        db.new(
            "Row",
            {"bucket_%d" % d: columns[d][position] for d in DISTINCTS},
        )
    for d in DISTINCTS:
        db.create_hierarchy_index("Row", "bucket_%d" % d)
    return db


def query_for(distinct):
    return Query(
        "Row",
        where=Comparison("=", Path(("bucket_%d" % distinct,)), Const(0)),
    )


def test_selective_query_uses_index(sweep_db, benchmark):
    plan = sweep_db.plan(query_for(2500))
    assert plan.cost is not None
    assert isinstance(plan.access, IndexEqProbe)
    benchmark(lambda: sweep_db.execute(query_for(2500)))


def test_unselective_query_uses_scan(sweep_db, benchmark):
    plan = sweep_db.plan(query_for(1))
    assert plan.cost is not None
    assert isinstance(plan.access, ExtentScan)
    benchmark(lambda: sweep_db.execute(query_for(1)))


def test_crossover_summary(sweep_db):
    # The artifact's cost counters must reflect only this fixed sweep,
    # not however many warm-up iterations pytest-benchmark calibrated for
    # the two timing tests above (that count drifts with machine speed).
    sweep_db.metrics.reset()
    rows = []
    series = []
    choices = []
    for distinct in DISTINCTS:
        query = query_for(distinct)
        plan = sweep_db.plan(query)
        decision = plan.cost
        assert decision is not None
        chosen_is_index = isinstance(plan.access, IndexEqProbe)
        choices.append("index" if chosen_is_index else "scan")
        by_kind = {c.kind: c for c in decision.candidates}
        scan_total = by_kind["extent-scan"].total
        index_total = by_kind["index-eq"].total
        # The choice must be exactly what the candidate costs dictate.
        assert chosen_is_index == (index_total < scan_total)
        t_chosen, result = timed(sweep_db.execute, query)
        # Exact counts: the estimate is the match count, and execution
        # confirms it.
        assert decision.estimated_rows == result.stats.matched == N // distinct

        # Force the other strategy for a wall-clock comparison.
        if chosen_is_index:
            forced = Query("Row", where=query.where)
            forced_plan = sweep_db.planner.plan(forced)
            forced_plan.access = ExtentScan(sorted(forced_plan.scope))
            forced_plan.residual = forced.where
            t_other, _ = timed(sweep_db._executor.execute, forced_plan)
        else:
            index = sweep_db.indexes.find_index(
                "Row", query.where.path.steps, {"Row"}
            )
            forced_plan = sweep_db.planner.plan(query)
            forced_plan.access = IndexEqProbe(index, 0)
            t_other, _ = timed(sweep_db._executor.execute, forced_plan)

        selectivity = len(result.oids) / N
        rows.append(
            (
                "%.2f%%" % (selectivity * 100),
                "index" if chosen_is_index else "scan",
                round(scan_total, 1),
                round(index_total, 1),
                round(t_chosen * 1e3, 2),
                round(t_other * 1e3, 2),
            )
        )
        series.append(
            {
                "distinct": distinct,
                "selectivity": selectivity,
                "chosen": "index" if chosen_is_index else "scan",
                "est_scan_total": scan_total,
                "est_index_total": index_total,
                "estimated_rows": decision.estimated_rows,
                "chosen_ms": t_chosen * 1e3,
                "forced_other_ms": t_other * 1e3,
                "examined": result.stats.examined,
                "matched": result.stats.matched,
                "index_probes": result.stats.index_probes,
                "operators": result.operator_stats(),
            }
        )
    # The cost model must discover one crossover inside the sweep: index
    # probes on the selective side, extent scans beyond, no flip-flops.
    assert "index" in choices and "scan" in choices, (
        "sweep must cross the index/scan boundary"
    )
    switch = choices.index("scan")
    assert choices == ["index"] * switch + ["scan"] * (len(choices) - switch), (
        "plan choice must switch exactly once along falling selectivity: %r"
        % (choices,)
    )
    crossover = {
        "below_distinct": DISTINCTS[switch - 1],
        "above_distinct": DISTINCTS[switch],
        "selectivity": series[switch]["selectivity"],
    }
    print_table(
        "E7: cost-model crossover at %.1f%% selectivity (N=%d)"
        % (crossover["selectivity"] * 100, N),
        ("selectivity", "chosen", "est scan", "est index", "chosen ms", "forced ms"),
        rows,
    )
    emit_bench_artifact(
        "e7_crossover",
        {"n": N, "crossover": crossover, "sweep": series},
        db=sweep_db,
    )
    # Wall-clock sanity at the sweep endpoints: the clearly-right choice
    # must actually be faster (middle points are informational — near
    # the crossover the two strategies are, by definition, comparable).
    assert series[0]["chosen_ms"] <= series[0]["forced_other_ms"] * 1.5
    assert series[-1]["chosen_ms"] <= series[-1]["forced_other_ms"] * 1.5
