"""E5: memory-resident object management — the order-of-magnitude claim.

Section 4.2: "the overhead incurred to access a memory-resident object
is still an order of magnitude higher than what is necessary for these
applications, running without an underlying database system, to access
an object in virtual memory by a few memory lookups."

Four access paths over the same hot set:

* unswizzled — every dereference goes back through the database layer;
* OID table  — a ``"none"`` workspace: every dereference is a lookup in
  the workspace's resident table, never a pointer;
* swizzled   — workspace with direct pointers after first touch;
* raw        — plain Python dicts, no database at all (the ceiling).

``BENCH_e5_swizzling.json`` carries each policy's ``workspace.hits`` and
``workspace.faults`` for the cold pass and for the hot passes, which
benchgate compares with the committed baseline: a policy that stopped
installing pointers, or faulted an object twice, shows there.
"""

import pytest
from conftest import emit_bench_artifact, print_table, timed

from repro import AttributeDef, Database
from repro.core.oid import OID
from repro.workspace import ObjectWorkspace

CHAIN = 400
PASSES = 30


@pytest.fixture(scope="module")
def chain_db():
    db = Database()
    db.define_class(
        "Node",
        attributes=[AttributeDef("payload", "Integer"), AttributeDef("next", "Node")],
    )
    previous = None
    oids = []
    for position in reversed(range(CHAIN)):
        handle = db.new("Node", {"payload": position, "next": previous})
        previous = handle.oid
        oids.append(handle.oid)
    return db, previous  # head


def traverse_unswizzled(db, head):
    total = 0
    oid = head
    while oid is not None:
        state = db.get_state(oid)
        total += state.values["payload"]
        oid = state.values["next"]
    return total


def traverse_swizzled(workspace, head):
    total = 0
    node = workspace.load(head)
    while node is not None:
        total += node["payload"]
        node = node.ref("next")
    return total


def build_raw(db, head):
    nodes = {}
    oid = head
    order = []
    while oid is not None:
        state = db.get_state(oid)
        nodes[oid] = {"payload": state.values["payload"], "next": state.values["next"]}
        order.append(oid)
        oid = state.values["next"]
    for record in nodes.values():
        record["next"] = nodes.get(record["next"])
    return nodes[head]


def traverse_raw(head_record):
    total = 0
    node = head_record
    while node is not None:
        total += node["payload"]
        node = node["next"]
    return total


def test_unswizzled_traversal(chain_db, benchmark):
    db, head = chain_db
    benchmark(lambda: [traverse_unswizzled(db, head) for _ in range(PASSES)])


def test_swizzled_traversal(chain_db, benchmark):
    db, head = chain_db
    workspace = ObjectWorkspace(db, policy="lazy")
    traverse_swizzled(workspace, head)  # fault everything in once
    benchmark(lambda: [traverse_swizzled(workspace, head) for _ in range(PASSES)])


def test_raw_python_traversal(chain_db, benchmark):
    db, head = chain_db
    head_record = build_raw(db, head)
    benchmark(lambda: [traverse_raw(head_record) for _ in range(PASSES)])


def test_policy_ablation_and_summary(chain_db):
    db, head = chain_db
    expected = CHAIN * (CHAIN - 1) // 2
    counts = {}

    def count(workspace, phase, since=(0, 0)):
        """Record the workspace's hits and faults since ``since``."""
        now = workspace.stats.hits, workspace.stats.faults
        for name, value, base in zip(("hits", "faults"), now, since):
            counts["workspace.%s.%s.%s" % (name, workspace.policy, phase)] = value - base
        return now

    t_unswizzled, total_u = timed(
        lambda: [traverse_unswizzled(db, head) for _ in range(PASSES)]
    )

    lazy = ObjectWorkspace(db, policy="lazy")
    t_cold, total_cold = timed(lambda: traverse_swizzled(lazy, head))
    cold = count(lazy, "cold")
    t_hot, total_hot = timed(
        lambda: [traverse_swizzled(lazy, head) for _ in range(PASSES)]
    )
    count(lazy, "hot", cold)

    table = ObjectWorkspace(db, policy="none")
    traverse_swizzled(table, head)  # fault everything in once
    cold = count(table, "cold")
    t_table_hot, total_table = timed(
        lambda: [traverse_swizzled(table, head) for _ in range(PASSES)]
    )
    count(table, "hot", cold)

    eager = ObjectWorkspace(db, policy="eager")
    timed(lambda: eager.load(head))  # eager load pulls the chain closure
    cold = count(eager, "cold")
    t_eager_hot, _ = timed(
        lambda: [traverse_swizzled(eager, head) for _ in range(PASSES)]
    )
    count(eager, "hot", cold)

    head_record = build_raw(db, head)
    t_raw, total_raw = timed(lambda: [traverse_raw(head_record) for _ in range(PASSES)])

    assert total_u[0] == total_cold == total_hot[0] == total_table[0] == total_raw[0] == expected

    per_pass = lambda t: round(t / PASSES * 1e6, 1)
    rows = [
        ("database layer (unswizzled)", per_pass(t_unswizzled),
         round(t_unswizzled / t_raw, 1)),
        ("workspace lazy, cold (faulting)", round(t_cold * 1e6, 1), "-"),
        ("workspace none (OID table), hot", per_pass(t_table_hot),
         round(t_table_hot / t_raw, 1)),
        ("workspace lazy, hot (swizzled)", per_pass(t_hot), round(t_hot / t_raw, 1)),
        ("workspace eager, hot", per_pass(t_eager_hot), round(t_eager_hot / t_raw, 1)),
        ("raw Python objects", per_pass(t_raw), 1.0),
    ]
    print_table(
        "E5: %d-node chain traversal (%d hot passes)" % (CHAIN, PASSES),
        ("access path", "us/pass", "vs raw"),
        rows,
    )
    emit_bench_artifact(
        "e5_swizzling",
        {
            "chain": CHAIN,
            "passes": PASSES,
            "series": [
                {"access_path": path, "ms": us / 1e3, "vs_raw": ratio}
                for path, us, ratio in rows
            ],
            "metrics": counts,
        },
    )
    # Every policy faults each node once.  Afterwards lazy follows
    # pointers (one OID-table hit per pass, for the head); eager's first
    # pass finds every node resident and installs the pointers; none goes
    # through the OID table for every node.
    for policy in ("lazy", "eager", "none"):
        assert counts["workspace.faults.%s.cold" % policy] == CHAIN
        assert counts["workspace.faults.%s.hot" % policy] == 0
    assert counts["workspace.hits.lazy.hot"] == PASSES
    assert counts["workspace.hits.eager.hot"] == PASSES + CHAIN - 1
    assert counts["workspace.hits.none.hot"] == CHAIN * PASSES
    # Shape assertions: swizzled beats unswizzled by a wide margin, a
    # direct pointer beats a lookup in the workspace's OID table, and
    # raw in-memory access still beats the swizzled workspace (the
    # residual overhead the paper says CAx applications balk at).
    assert t_hot < t_unswizzled / 3
    assert t_hot < t_table_hot
    assert t_raw < t_hot
