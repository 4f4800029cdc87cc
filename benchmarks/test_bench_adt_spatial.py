"""E14: user-defined predicates in the optimization framework.

Section 5.5 flags integrating "user-defined predicates on user-defined
types into the optimization framework" as unsolved; kimdb's answer is
ADT access methods the planner can cost.  The VLSI rectangle workload
[STON83, BANE86] sweeps layout sizes and compares scan-with-residual
against the grid access method.
"""

import random

import pytest
from conftest import print_table, timed

from repro import AttributeDef, Database
from repro.adt import (
    attach,
    make_rect,
    rect_overlaps,
    register_rectangle_type,
    register_spatial_index,
)

QUERY = "SELECT c FROM Cell c WHERE overlaps(c.shape, [100, 100, 160, 160])"


def build_layout(n, with_grid):
    db = Database()
    registry = attach(db)
    register_rectangle_type(registry)
    db.define_class(
        "Cell",
        attributes=[AttributeDef("layer", "Integer"), AttributeDef("shape", "Rectangle")],
    )
    if with_grid:
        register_spatial_index(registry, "Cell", "shape", cell_size=32)
    rng = random.Random(14)
    span = max(256, int((n * 64) ** 0.5))
    for _ in range(n):
        x, y = rng.randrange(span), rng.randrange(span)
        width, height = rng.randrange(1, 12), rng.randrange(1, 12)
        db.new(
            "Cell",
            {"layer": rng.randrange(4), "shape": make_rect(x, y, x + width, y + height)},
        )
    return db


@pytest.fixture(scope="module")
def layouts():
    return build_layout(4000, with_grid=False), build_layout(4000, with_grid=True)


def test_overlap_scan(layouts, benchmark):
    scan_db, _grid_db = layouts
    assert "scan" in scan_db.plan(QUERY).access.description
    benchmark(lambda: scan_db.select(QUERY))


def test_overlap_grid_index(layouts, benchmark):
    scan_db, grid_db = layouts
    assert "adt-index" in grid_db.plan(QUERY).access.description
    expected = {h["layer"] for h in scan_db.select(QUERY)}
    result = benchmark(lambda: grid_db.select(QUERY))
    assert {h["layer"] for h in result} <= expected | set(range(4))


def test_size_sweep_summary():
    rows = []
    speedups = {}
    from conftest import best_of

    for n in (1000, 4000, 12000):
        scan_db = build_layout(n, with_grid=False)
        grid_db = build_layout(n, with_grid=True)
        t_scan, scan_result = best_of(scan_db.select, QUERY)
        t_grid, grid_result = best_of(grid_db.select, QUERY)
        assert len(scan_result) == len(grid_result)
        for handle in grid_result:
            assert rect_overlaps(handle["shape"], 100, 100, 160, 160)
        speedups[n] = t_scan / t_grid if t_grid > 0 else float("inf")
        rows.append(
            (n, len(grid_result), round(t_scan * 1e3, 2), round(t_grid * 1e3, 2),
             round(speedups[n], 1))
        )
    print_table(
        "E14: rectangle overlap query, scan vs grid access method",
        ("rectangles", "matches", "scan ms", "grid ms", "speedup"),
        rows,
    )
    assert speedups[12000] > 3, "grid must win decisively on large layouts"
    # The advantage grows with layout size (fixed window, growing extent).
    assert speedups[12000] > speedups[1000]
