"""E12: schema evolution is metadata-cost with lazy coercion.

[BANE87]'s ORION strategy: adding or dropping an attribute touches the
class object only; stored instances coerce on load.  The bench contrasts
lazy ``add_attribute`` with the eager rewrite path (``rename_attribute``
rewrites every instance) across extent sizes.
"""

import pytest
from conftest import print_table, timed

from repro import AttributeDef, Database
from repro.evolution import SchemaEvolution


def build(n):
    db = Database()
    db.define_class(
        "Doc",
        attributes=[AttributeDef("title", "String"), AttributeDef("serial", "Integer")],
    )
    for position in range(n):
        db.new("Doc", {"title": "d%d" % position, "serial": position})
    return db


def test_lazy_add_attribute(benchmark):
    counter = [0]

    def run():
        db = build(500)
        evolution = SchemaEvolution(db)
        counter[0] += 1
        evolution.add_attribute(
            "Doc", AttributeDef("status_%d" % counter[0], "String", default="new")
        )

    benchmark(run)


def test_eager_rename_attribute(benchmark):
    def run():
        db = build(500)
        evolution = SchemaEvolution(db)
        evolution.rename_attribute("Doc", "title", "headline")

    benchmark(run)


def test_lazy_vs_eager_scaling_summary():
    rows = []
    lazy_times, eager_times = {}, {}
    for n in (500, 2000, 8000):
        db = build(n)
        evolution = SchemaEvolution(db)
        t_lazy, _ = timed(
            evolution.add_attribute, "Doc", AttributeDef("status", "String", default="new")
        )
        t_eager, rewritten = timed(evolution.rename_attribute, "Doc", "title", "headline")
        assert rewritten == n
        lazy_times[n] = t_lazy
        eager_times[n] = t_eager
        rows.append((n, round(t_lazy * 1e3, 3), round(t_eager * 1e3, 1)))
    print_table(
        "E12: add_attribute (lazy) vs rename_attribute (eager rewrite)",
        ("instances", "lazy ms", "eager ms"),
        rows,
    )
    # Lazy cost must not scale with the extent; eager must.
    assert lazy_times[8000] < lazy_times[500] * 10 + 0.005
    assert eager_times[8000] > eager_times[500] * 4
    # And lazy is orders cheaper at scale.
    assert lazy_times[8000] * 20 < eager_times[8000]


def test_coercion_correctness_after_lazy_change():
    db = build(100)
    evolution = SchemaEvolution(db)
    evolution.add_attribute("Doc", AttributeDef("status", "String", default="new"))
    evolution.drop_attribute("Doc", "serial")
    sample = db.select("SELECT d FROM Doc d LIMIT 5")
    for handle in sample:
        assert handle["status"] == "new"
        state = db.get_state(handle.oid)
        assert "serial" not in state.values


def test_first_read_pays_coercion_once(benchmark):
    db = build(2000)
    evolution = SchemaEvolution(db)
    evolution.add_attribute("Doc", AttributeDef("status", "String", default="new"))

    def read_all():
        return sum(1 for _ in db.storage.scan_class("Doc"))

    assert benchmark(read_all) == 2000
