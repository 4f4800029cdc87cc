"""E6: physical clustering of composite objects cuts page faults.

Section 4.2 lists physical clustering among the components needing
OODB-specific architecture; composite parts placed near their parents
turn a deep traversal into a handful of page reads.  Faults are counted
on a cold buffer pool, so the comparison is deterministic.
"""

import pytest
from conftest import print_table

from repro import Database
from repro.bench.workloads import define_assembly_schema
from repro.storage.clustering import CompositeClustering, NoClustering

GROUPS = 8
LENGTH = 64
LABEL = 160


def build(policy):
    db = Database(clustering=policy, buffer_capacity=4)
    define_assembly_schema(db)
    previous = [None] * GROUPS
    for position in range(LENGTH):
        for group in range(GROUPS):
            subassemblies = [previous[group]] if previous[group] is not None else []
            handle = db.new(
                "Assembly",
                {
                    "label": "g%d-%d-%s" % (group, position, "x" * LABEL),
                    "mass": 1,
                    "subassemblies": subassemblies,
                },
            )
            previous[group] = handle.oid
    return db, previous


def traverse(db, root):
    db.storage.drop_cache()
    db.metrics.reset("buffer.")
    count = 0
    oid = root
    while oid is not None:
        state = db.storage.load(oid)
        count += 1
        children = state.values.get("subassemblies") or []
        oid = children[0] if children else None
    return count, db.metrics.value("buffer.faults")


@pytest.fixture(scope="module")
def databases():
    clustered = build(CompositeClustering())
    scattered = build(NoClustering())
    return clustered, scattered


def test_clustered_cold_traversal(databases, benchmark):
    (db, heads), _ = databases

    def run():
        return traverse(db, heads[0])

    count, _faults = benchmark(run)
    assert count == LENGTH


def test_scattered_cold_traversal(databases, benchmark):
    _, (db, heads) = databases

    def run():
        return traverse(db, heads[0])

    count, _faults = benchmark(run)
    assert count == LENGTH


def test_fault_count_summary(databases):
    (clustered_db, clustered_heads), (scattered_db, scattered_heads) = databases
    rows = []
    total_c = total_s = 0
    for group in range(GROUPS):
        count_c, faults_c = traverse(clustered_db, clustered_heads[group])
        count_s, faults_s = traverse(scattered_db, scattered_heads[group])
        assert count_c == count_s == LENGTH
        total_c += faults_c
        total_s += faults_s
        if group < 3:
            rows.append((group, faults_c, faults_s, round(faults_s / max(1, faults_c), 1)))
    rows.append(("all %d" % GROUPS, total_c, total_s, round(total_s / max(1, total_c), 1)))
    print_table(
        "E6: cold-buffer faults per composite-chain traversal (%d objects/chain)" % LENGTH,
        ("chain", "clustered faults", "scattered faults", "ratio"),
        rows,
    )
    # Clustering must cut faults by a large factor (chain pages are
    # contiguous instead of striped across all groups).
    assert total_c * 3 <= total_s
