"""Memory-resident object management: swizzling, faulting, write-back."""

import gc

import pytest

from repro import AttributeDef, Database
from repro.authz import attach, attach_mandatory
from repro.core.oid import OID
from repro.errors import AuthorizationError, KimDBError, TransactionError
from repro.workspace.cache import ObjectWorkspace
from repro.workspace.swizzle import MemoryObject


@pytest.fixture
def graph_db():
    db = Database()
    db.define_class(
        "Node",
        attributes=[
            AttributeDef("label", "String"),
            AttributeDef("next", "Node"),
            AttributeDef("links", "Node", multi=True),
        ],
    )
    return db


def make_chain(db, length):
    previous = None
    oids = []
    for position in reversed(range(length)):
        handle = db.new(
            "Node",
            {"label": "n%d" % position, "next": previous, "links": []},
        )
        previous = handle.oid
        oids.append(handle.oid)
    oids.reverse()
    return oids


class TestLoadingAndPolicies:
    def test_load_caches(self, graph_db):
        oids = make_chain(graph_db, 2)
        workspace = ObjectWorkspace(graph_db)
        first = workspace.load(oids[0])
        again = workspace.load(oids[0])
        assert first is again
        assert workspace.metrics.value("workspace.hits") == 1
        assert workspace.metrics.value("workspace.faults") == 1

    def test_lazy_keeps_the_stored_oid_until_traversed(self, graph_db):
        oids = make_chain(graph_db, 2)
        workspace = ObjectWorkspace(graph_db, policy="lazy")
        root = workspace.load(oids[0])
        assert isinstance(root["next"], OID) and root["next"] == oids[1]
        assert len(workspace) == 1  # referenced node not loaded yet
        target = root.ref("next")
        assert target.oid == oids[1]
        assert root["next"] == oids[1]  # the slot keeps its OID
        assert root.values["next"] == oids[1]

    def test_eager_policy_loads_referenced(self, graph_db):
        oids = make_chain(graph_db, 3)
        workspace = ObjectWorkspace(graph_db, policy="eager")
        workspace.load(oids[0])
        # Eager pulls the closure (each load swizzles its own refs eagerly).
        assert len(workspace) == 3

    def test_none_policy_keeps_oids(self, graph_db):
        oids = make_chain(graph_db, 2)
        hub = graph_db.new("Node", {"links": oids})
        workspace = ObjectWorkspace(graph_db, policy="none")
        root = workspace.load(oids[0])
        assert isinstance(root.values["next"], OID)
        target = root.ref("next")  # never installs a pointer
        assert target.oid == oids[1]
        assert isinstance(root.values["next"], OID)
        hits = workspace.stats.hits
        assert root.ref("next") is target  # through the OID table
        assert workspace.stats.hits == hits + 1
        node = workspace.load(hub.oid)
        assert [m.oid for m in node.refs("links")] == oids
        assert all(isinstance(element, OID) for element in node.values["links"])

    def test_unknown_policy_rejected(self, graph_db):
        with pytest.raises(KimDBError):
            ObjectWorkspace(graph_db, policy="telepathic")


class TestTraversal:
    def test_ref_faults_then_pointers(self, graph_db):
        oids = make_chain(graph_db, 3)
        hub = graph_db.new("Node", {"links": oids})
        for policy in ("lazy", "eager"):
            workspace = ObjectWorkspace(graph_db, policy=policy)
            root = workspace.load(oids[0])
            middle = root.ref("next")
            assert isinstance(middle, MemoryObject)
            assert middle["label"] == "n1"
            node = workspace.load(hub.oid)
            linked = node.refs("links")
            counts = workspace.stats.hits, workspace.stats.faults
            # After the first traversal the pointer table answers: the
            # same objects, through neither the OID table nor a fault.
            assert root.ref("next") is middle
            assert list(map(id, node.refs("links"))) == list(map(id, linked))
            assert (workspace.stats.hits, workspace.stats.faults) == counts
            assert root["next"] == oids[1]  # the slots keep their OIDs
            assert node["links"] == oids

    @pytest.mark.parametrize("policy", ["lazy", "eager", "none"])
    def test_set_on_a_followed_reference_is_followed_next(self, graph_db, policy):
        oids = make_chain(graph_db, 2)
        other = graph_db.new("Node", {"label": "other"})
        hub = graph_db.new("Node", {"links": oids})
        workspace = ObjectWorkspace(graph_db, policy=policy)
        root = workspace.load(oids[0])
        assert root.ref("next").oid == oids[1]
        root.set("next", other.oid)
        assert root.ref("next").oid == other.oid
        pointer = workspace.load(oids[1])
        root.set("next", pointer)
        assert root.ref("next") is pointer
        root.set("next", None)
        assert root.ref("next") is None
        node = workspace.load(hub.oid)
        assert [m.oid for m in node.refs("links")] == oids
        node.set("links", [other.oid, pointer])
        assert [m.oid for m in node.refs("links")] == [other.oid, oids[1]]

    @pytest.mark.parametrize("policy", ["lazy", "eager", "none"])
    def test_refs_returns_a_list_the_caller_owns(self, graph_db, policy):
        targets = [graph_db.new("Node", {"label": "t%d" % i}) for i in range(3)]
        hub = graph_db.new("Node", {"links": [t.oid for t in targets]})
        workspace = ObjectWorkspace(graph_db, policy=policy)
        node = workspace.load(hub.oid)
        first = node.refs("links")
        first.reverse()
        first.append(node)
        second = node.refs("links")
        assert [m["label"] for m in second] == ["t0", "t1", "t2"]
        second.clear()
        assert [m["label"] for m in node.refs("links")] == ["t0", "t1", "t2"]

    @pytest.mark.parametrize("policy", ["lazy", "eager", "none"])
    def test_a_read_only_traversal_copies_no_object(self, graph_db, policy):
        oids = make_chain(graph_db, 4)
        hub = graph_db.new("Node", {"label": "hub", "next": oids[0], "links": oids})
        shared = {}
        get_shared_state = graph_db.get_shared_state

        def recording(oid):
            state = get_shared_state(oid)
            shared[oid] = state.values
            return state

        graph_db.get_shared_state = recording
        workspace = ObjectWorkspace(graph_db, policy=policy)
        order = workspace.closure([hub.oid], ["next", "links"])
        assert len(order) == 5
        for memory_object in order:  # scalar reads copy nothing
            assert memory_object["label"] == memory_object.get("label")
        assert len(shared) == len(workspace) == 5
        for memory_object in order:  # still the stored dicts themselves
            assert memory_object._values is shared[memory_object.oid]
        # A list read through the object copies it first.
        tail = workspace.load(oids[-1])
        tail["links"].append("local")
        assert tail._values is not shared[tail.oid]
        assert shared[tail.oid]["links"] == []

    def test_a_memory_object_is_not_iterable(self, graph_db):
        (oid,) = make_chain(graph_db, 1)
        memory_object = ObjectWorkspace(graph_db).load(oid)
        # Without __iter__ = None, both would index 0, 1, ... forever.
        assert MemoryObject.__iter__ is None
        with pytest.raises(TypeError):
            "label" in memory_object
        with pytest.raises(TypeError):
            list(memory_object)

    def test_refs_multi(self, graph_db):
        targets = [graph_db.new("Node", {"label": "t%d" % i}) for i in range(3)]
        hub = graph_db.new("Node", {"links": [t.oid for t in targets]})
        workspace = ObjectWorkspace(graph_db)
        node = workspace.load(hub.oid)
        assert [n["label"] for n in node.refs("links")] == ["t0", "t1", "t2"]

    def test_closure(self, graph_db):
        oids = make_chain(graph_db, 5)
        workspace = ObjectWorkspace(graph_db)
        order = workspace.closure([oids[0]], ["next"])
        assert [m["label"] for m in order] == ["n0", "n1", "n2", "n3", "n4"]

    def test_closure_max_depth(self, graph_db):
        oids = make_chain(graph_db, 5)
        workspace = ObjectWorkspace(graph_db)
        order = workspace.closure([oids[0]], ["next"], max_depth=2)
        assert len(order) == 3

    def test_closure_handles_cycles(self, graph_db):
        a = graph_db.new("Node", {"label": "a"})
        b = graph_db.new("Node", {"label": "b", "next": a.oid})
        graph_db.update(a.oid, {"next": b.oid})
        workspace = ObjectWorkspace(graph_db)
        order = workspace.closure([a.oid], ["next"])
        assert len(order) == 2

    def test_dangling_reference_returns_none(self, graph_db):
        target = graph_db.new("Node", {"label": "gone"})
        source = graph_db.new("Node", {"label": "src", "next": target.oid})
        graph_db.delete(target.oid)
        workspace = ObjectWorkspace(graph_db)
        node = workspace.load(source.oid)
        assert node.ref("next") is None
        assert node.values["next"] == target.oid  # the slot keeps its OID


class TestOidTable:
    """The OID table is keyed by the OID's value: a class hint is only
    debug text, so an OID with another hint is the same object."""

    @pytest.mark.parametrize("policy", ["lazy", "eager", "none"])
    def test_another_hint_is_the_same_object(self, graph_db, policy):
        oids = make_chain(graph_db, 2)
        hub = graph_db.new(
            "Node",
            {"next": OID(oids[0].value, "Other"), "links": [OID(oids[1].value, "X")]},
        )
        workspace = ObjectWorkspace(graph_db, policy=policy)
        root = workspace.load(oids[0])
        assert workspace.load(OID(oids[0].value, "Other")) is root
        assert OID(oids[0].value, "Other") in workspace
        node = workspace.load(hub.oid)
        assert node.ref("next") is root
        assert node.refs("links") == [workspace.load(oids[1])]
        assert root.ref("next") is workspace.load(OID(oids[1].value))
        assert len(workspace) == 3
        assert workspace.stats.faults == 3
        workspace.evict(OID(oids[0].value, "Other"))
        assert oids[0] not in workspace and len(workspace) == 2


class TestClear:
    def test_cleared_objects_are_freed_without_the_collector(self, graph_db):
        a = graph_db.new("Node", {"label": "a"})
        b = graph_db.new("Node", {"label": "b", "next": a.oid})
        graph_db.update(a.oid, {"next": b.oid})

        def alive():
            return sum(1 for obj in gc.get_objects() if type(obj) is MemoryObject)

        gc.collect()
        before = alive()
        gc.disable()
        try:
            workspace = ObjectWorkspace(graph_db)
            assert len(workspace.closure([a.oid], ["next"])) == 2  # a 2-cycle of pointers
            workspace.clear()
            del workspace
            assert alive() == before
        finally:
            gc.enable()


class TestFollowedReferencesStayAuthorized:
    """A followed reference faults its target in through the same
    authorized read as :meth:`ObjectWorkspace.load`: a denied target
    raises, and only a missing object reads as a dangling reference."""

    @pytest.fixture(params=["discretionary", "mandatory"])
    def guarded(self, request, graph_db):
        graph_db.define_class("Secret", superclasses=("Node",))
        secret = graph_db.new("Secret", {"label": "s"}).oid
        visible = graph_db.new("Node", {"label": "v"}).oid
        source = graph_db.new(
            "Node", {"label": "src", "next": secret, "links": [visible, secret]}
        ).oid
        if request.param == "discretionary":
            manager = attach(graph_db)
            manager.add_role("clerk")
            manager.grant("clerk", "read", "Node", include_subclasses=False)
        else:
            manager = attach_mandatory(graph_db)
            manager.classify_class("Secret", "secret")
            manager.clear_subject("clerk", "confidential")
        manager.set_subject("clerk")
        return graph_db, source, secret

    @pytest.mark.parametrize("policy", ["lazy", "eager", "none"])
    def test_a_denied_target_raises_and_is_not_admitted(self, guarded, policy):
        db, source, secret = guarded
        workspace = ObjectWorkspace(db, policy=policy)
        if policy == "eager":  # loading follows the stored references at once
            with pytest.raises(AuthorizationError):
                workspace.load(source)
        node = workspace.load(source)
        with pytest.raises(AuthorizationError):
            node.ref("next")
        with pytest.raises(AuthorizationError):
            node.refs("links")
        with pytest.raises(AuthorizationError):
            workspace.closure([source], ["next", "links"])
        assert secret not in workspace
        assert node["next"] == secret  # the slot keeps its OID


class TestWriteBack:
    def test_set_marks_dirty_and_flush_persists(self, graph_db):
        node = graph_db.new("Node", {"label": "x"})
        workspace = ObjectWorkspace(graph_db)
        memory_object = workspace.load(node.oid)
        memory_object.set("label", "y")
        assert memory_object.dirty
        assert workspace.flush() == 1
        assert graph_db.get(node.oid)["label"] == "y"
        assert not memory_object.dirty

    def test_flush_unswizzles_pointers(self, graph_db):
        oids = make_chain(graph_db, 2)
        other = graph_db.new("Node", {"label": "other"})
        workspace = ObjectWorkspace(graph_db)
        root = workspace.load(oids[0])
        root.ref("next")  # swizzle to a direct pointer
        root.set("next", workspace.load(other.oid))  # pointer-valued write
        workspace.flush()
        assert graph_db.get_state(oids[0]).values["next"] == other.oid

    def test_flush_keeps_a_traversed_dangling_reference(self, graph_db):
        target = graph_db.new("Node", {"label": "gone"})
        source = graph_db.new("Node", {"label": "src", "next": target.oid})
        graph_db.delete(target.oid)
        workspace = ObjectWorkspace(graph_db)
        node = workspace.load(source.oid)
        assert node.ref("next") is None
        node.set("label", "renamed")
        workspace.flush()
        stored = graph_db.get_state(source.oid).values
        assert stored["label"] == "renamed"
        assert stored["next"] == target.oid

    def test_flush_writes_back_only_the_changed_names(self, graph_db):
        target = graph_db.new("Node", {"label": "gone"})
        kept = graph_db.new("Node", {"label": "kept"})
        source = graph_db.new(
            "Node", {"label": "src", "links": [kept.oid, target.oid]}
        )
        graph_db.delete(target.oid)
        workspace = ObjectWorkspace(graph_db)
        node = workspace.load(source.oid)
        node.set("label", "renamed")  # the dangling links stay untouched
        assert workspace.flush() == 1
        stored = graph_db.get_state(source.oid).values
        assert stored["label"] == "renamed"
        assert stored["links"] == [kept.oid, target.oid]
        assert not node.dirty

    def test_a_commit_between_load_and_flush_is_reported(self, graph_db):
        node = graph_db.new("Node", {"label": "x"})
        workspace = ObjectWorkspace(graph_db)
        workspace.load(node.oid).set("label", "mine")
        graph_db.update(node.oid, {"label": "theirs"})  # committed since the load
        with pytest.raises(TransactionError, match=repr(node.oid)):
            workspace.flush()
        assert graph_db.get_state(node.oid).values["label"] == "theirs"
        assert workspace.load(node.oid).dirty  # kept for a retry

    def test_flush_empty_is_zero(self, graph_db):
        assert ObjectWorkspace(graph_db).flush() == 0

    def test_database_features_still_apply_on_writeback(self, graph_db):
        # The paper's point: workspace writes go through the database, so
        # indexes stay consistent.
        index = graph_db.create_hierarchy_index("Node", "label")
        node = graph_db.new("Node", {"label": "before"})
        workspace = ObjectWorkspace(graph_db)
        memory_object = workspace.load(node.oid)
        memory_object.set("label", "after")
        workspace.flush()
        assert node.oid in index.lookup_eq("after")
        assert node.oid not in index.lookup_eq("before")

    def test_evict_dirty_rejected(self, graph_db):
        node = graph_db.new("Node", {"label": "x"})
        workspace = ObjectWorkspace(graph_db)
        memory_object = workspace.load(node.oid)
        memory_object.set("label", "y")
        with pytest.raises(KimDBError):
            workspace.evict(node.oid)
        workspace.flush()
        workspace.evict(node.oid)
        assert node.oid not in workspace
