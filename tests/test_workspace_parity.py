"""The object workspace against plain database reads, on random graphs.

Each example builds a seeded graph of ``Node`` objects with cycles,
self-references, dangling single and set-valued references (their
targets are deleted after the references are stored), duplicate OIDs in
one list, references written with another class hint, ``None`` slots
and nested lists that hold no OIDs.  Under each swizzling policy a
depth-k closure walked through ``ref``/``refs`` (and through
``ObjectWorkspace.closure``) must reach the objects, in the same
order and with the same values, that the same walk over
``Database.get_state`` reaches — on the first pass, which faults, and on
the second, which enters through an OID with another class hint and
follows installed pointers or the OID table.  A lazy
or unswizzled workspace faults each reached object exactly once; an
eager one faults the whole reachable set.  Edits to the memory objects
leave the object buffer's shared states as they were.

``WORKSPACE_PARITY_EXAMPLES`` sets the examples per policy.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AttributeDef, Database
from repro.core.oid import OID
from repro.workspace import MemoryObject, ObjectWorkspace

WORKSPACE_PARITY_EXAMPLES = int(os.environ.get("WORKSPACE_PARITY_EXAMPLES", "15"))

ATTRIBUTES = ("next", "links")


def _graph(seed):
    """A database of random ``Node``s; returns it and the live OIDs."""
    rng = random.Random(seed)
    db = Database()
    db.define_class(
        "Node",
        attributes=[
            AttributeDef("label", "String"),
            AttributeDef("next", "Node"),
            AttributeDef("links", "Node", multi=True),
            AttributeDef("grid"),
        ],
    )
    live = [db.new("Node", {"label": "n%d" % i}).oid for i in range(rng.randint(1, 12))]
    gone = [db.new("Node", {"label": "gone"}).oid for _ in range(rng.randint(1, 3))]

    def target():
        oid = rng.choice(gone) if rng.random() < 0.2 else rng.choice(live)
        # Another class hint names the same object (OIDs are their value).
        return OID(oid.value, "Other") if rng.random() < 0.3 else oid

    for oid in live:
        values = {"next": None if rng.random() < 0.2 else target()}
        if rng.random() < 0.8:
            links = [target() for _ in range(rng.randint(0, 4))]
            if links and rng.random() < 0.5:
                links.append(rng.choice(links))  # a duplicate OID
            values["links"] = links
        if rng.random() < 0.5:
            values["grid"] = [[rng.randint(0, 9), "s"], [], [["deep"]]]
        db.update(oid, values)
    for oid in gone:
        db.delete(oid)
    return db, live


def _closure(root, depth, neighbours, oid_of):
    """``ObjectWorkspace.closure``'s walk over any node representation."""
    visited = set()
    order = []
    frontier = [(root, 0)]
    while frontier:
        node, level = frontier.pop()
        if oid_of(node) in visited:
            continue
        visited.add(oid_of(node))
        order.append(node)
        if depth is not None and level >= depth:
            continue
        for neighbour in neighbours(node):
            if oid_of(neighbour) not in visited:
                frontier.append((neighbour, level + 1))
    return order


def _stored_neighbours(db):
    def neighbours(oid):
        out = []
        for name in ATTRIBUTES:
            value = db.get_state(oid).values.get(name)
            for element in value if isinstance(value, list) else [value]:
                if isinstance(element, OID) and db.exists(element):
                    out.append(element)
        return out

    return neighbours


def _memory_neighbours(memory_object):
    single = memory_object.ref("next")
    return ([single] if single is not None else []) + memory_object.refs("links")


def _stored_form(value):
    if isinstance(value, MemoryObject):
        return value.oid
    if isinstance(value, list):
        return [_stored_form(element) for element in value]
    return value


@pytest.mark.parametrize("policy", ["lazy", "eager", "none"])
@settings(max_examples=WORKSPACE_PARITY_EXAMPLES, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(0, 4))
def test_closure_matches_a_get_state_walk(policy, seed, depth):
    db, live = _graph(seed)
    root = random.Random(seed).choice(live)
    shared = {}
    for oid in live:
        db.storage.load(oid)  # the second read admits
        state = db.storage.load(oid)
        shared[oid] = (state, state.copy().values)

    expected = _closure(root, depth, _stored_neighbours(db), lambda oid: oid)
    reachable = _closure(root, None, _stored_neighbours(db), lambda oid: oid)
    workspace = ObjectWorkspace(db, policy=policy)
    # Faulting, then through pointers or the OID table — reached through
    # an OID with another class hint.
    for entry in (root, OID(root.value, "Other")):
        reached = _closure(
            workspace.load(entry), depth, _memory_neighbours, lambda m: m.oid
        )
        assert [m.oid for m in reached] == expected
        for memory_object in reached:
            assert {
                name: _stored_form(value)
                for name, value in memory_object.values.items()
            } == db.get_state(memory_object.oid).values
    assert [m.oid for m in workspace.closure([root], ATTRIBUTES, depth)] == expected
    faulted = reachable if policy == "eager" else expected
    assert workspace.stats.faults == len(faulted) == len(workspace)

    for memory_object in reached:
        for value in memory_object.values.values():
            if isinstance(value, list):
                value.append("x")
                for element in value:
                    if isinstance(element, list):
                        element.append("x")
        memory_object.set("label", "edited")
    for oid, (state, values) in shared.items():
        assert db.storage.load(oid) is state
        assert state.values == values
