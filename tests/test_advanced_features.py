"""Lock escalation, exact range counts, change_domain, explain analyze,
paged relational tables, WAL-truncation fuzzing."""

import random

import pytest

from repro import AttributeDef, Database
from repro.errors import SchemaEvolutionError
from repro.evolution import SchemaEvolution
from repro.index.btree import BTree
from repro.core.oid import OID
from repro.relational import RelationalEngine
from repro.storage import StorageManager


class TestLockEscalation:
    @pytest.fixture
    def edb(self):
        db = Database()
        db.lock_escalation_threshold = 10
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        return db

    def test_escalates_to_class_lock(self, edb):
        oids = [edb.new("Item", {"n": i}).oid for i in range(30)]
        with edb.transaction() as txn:
            for oid in oids:
                edb.update(oid, {"n": 0})
            # Past the threshold the class holds an exclusive lock and
            # object locks stop accumulating.
            assert edb.locks.holds(txn.txn_id, ("class", "Item"), "X")
            object_locks = [
                resource
                for resource, _mode in edb.locks.locks_held(txn.txn_id)
                if resource[0] == "object"
            ]
            assert len(object_locks) < 30
            txn.abort()

    def test_escalated_class_lock_blocks_other_writers(self, edb):
        oids = [edb.new("Item", {"n": i}).oid for i in range(15)]
        txn = edb.transaction()
        for oid in oids:
            edb.update(oid, {"n": 0})
        from repro.errors import LockTimeoutError

        with pytest.raises(LockTimeoutError):
            edb.locks.acquire(9999, ("class", "Item"), "IX", timeout=0.05)
        txn.abort()

    def test_no_escalation_below_threshold(self, edb):
        oids = [edb.new("Item", {"n": i}).oid for i in range(5)]
        with edb.transaction() as txn:
            for oid in oids:
                edb.update(oid, {"n": 0})
            assert not edb.locks.holds(txn.txn_id, ("class", "Item"), "X")
            txn.abort()


class TestRangeEstimation:
    """Range estimates are exact counted-B+-tree counts."""

    def test_open_high_range_counts_exactly(self):
        tree = BTree()
        for value in range(1000):
            tree.insert(value, "A", OID(value + 1))
        assert tree.count_range(low=900) == 100

    def test_bounded_range(self):
        tree = BTree()
        for value in range(1000):
            tree.insert(value, "A", OID(value + 1))
        assert tree.count_range(low=250, high=500) == 251
        assert tree.count_range(250, 500, include_low=False, include_high=False) == 249

    def test_out_of_span_range_is_zero(self):
        tree = BTree()
        for value in range(100):
            tree.insert(value, "A", OID(value + 1))
        assert tree.count_range(low=1000) == 0

    def test_string_keys_count_exactly(self):
        tree = BTree()
        for value in range(90):
            tree.insert("k%03d" % value, "A", OID(value + 1))
        assert tree.count_range(low="k010") == 80

    def test_empty_tree(self):
        assert BTree().count_range() == 0

    def test_planner_prefers_tight_ranges(self):
        db = Database()
        db.define_class("Row", attributes=[AttributeDef("v", "Integer")])
        for value in range(2000):
            db.new("Row", {"v": value})
        db.create_hierarchy_index("Row", "v")
        tight = db.plan("SELECT r FROM Row r WHERE r.v > 1990")
        loose = db.plan("SELECT r FROM Row r WHERE r.v > 10")
        assert tight.estimated_cost < loose.estimated_cost
        assert "index-range" in tight.access.description
        # Nearly-whole-extent range falls back to a scan.
        assert "scan" in loose.access.description


class TestChangeDomain:
    @pytest.fixture
    def ddb(self):
        db = Database()
        db.define_class("Company")
        db.define_class("AutoCompany", superclasses=("Company",))
        db.define_class(
            "Vehicle", attributes=[AttributeDef("maker", "Company")]
        )
        return db

    def test_narrowing_with_conforming_instances(self, ddb):
        auto = ddb.new("AutoCompany")
        ddb.new("Vehicle", {"maker": auto.oid})
        evolution = SchemaEvolution(ddb)
        checked = evolution.change_domain("Vehicle", "maker", "AutoCompany")
        assert checked == 1
        assert ddb.schema.attribute("Vehicle", "maker").domain == "AutoCompany"

    def test_narrowing_with_violating_instance_refused(self, ddb):
        plain = ddb.new("Company")
        vehicle = ddb.new("Vehicle", {"maker": plain.oid})
        evolution = SchemaEvolution(ddb)
        with pytest.raises(SchemaEvolutionError):
            evolution.change_domain("Vehicle", "maker", "AutoCompany")
        # Nothing changed.
        assert ddb.schema.attribute("Vehicle", "maker").domain == "Company"
        assert ddb.exists(vehicle.oid)

    def test_unknown_domain_rejected(self, ddb):
        evolution = SchemaEvolution(ddb)
        with pytest.raises(SchemaEvolutionError):
            evolution.change_domain("Vehicle", "maker", "Ghost")

    def test_widening_always_allowed(self, ddb):
        auto = ddb.new("AutoCompany")
        ddb.new("Vehicle", {"maker": auto.oid})
        evolution = SchemaEvolution(ddb)
        evolution.change_domain("Vehicle", "maker", "Any")
        assert ddb.schema.attribute("Vehicle", "maker").domain == "Any"


class TestExplainAnalyze:
    def test_reports_plan_and_stats(self):
        db = Database()
        db.define_class("T", attributes=[AttributeDef("n", "Integer")])
        for value in range(50):
            db.new("T", {"n": value})
        db.create_hierarchy_index("T", "n")
        report = db.explain("SELECT t FROM T t WHERE t.n = 7").render()
        assert "index-eq" in report
        assert "objects examined: 1" in report
        assert "objects matched: 1" in report
        assert "index probes: 1" in report


class TestPagedRelationalTables:
    @pytest.fixture
    def paged(self):
        engine = RelationalEngine(StorageManager(buffer_capacity=8))
        engine.create_table(
            "t", [("k", "int"), ("s", "str")], primary_key="k"
        )
        for key in range(200):
            engine.insert("t", {"k": key, "s": "row-%d" % key})
        return engine

    def test_rows_live_on_pages(self, paged):
        table = paged.table("t")
        assert table.paged
        assert paged.storage.heap_for("table:t").page_count > 1

    def test_scan_and_pk_probe(self, paged):
        assert sum(1 for _ in paged.scan("t")) == 200
        assert paged.table("t").by_primary_key(123)["s"] == "row-123"

    def test_update_and_delete(self, paged):
        table = paged.table("t")
        row_id = next(rid for rid, row in table.scan() if row["k"] == 5)
        table.update(row_id, {"s": "changed"})
        assert table.get(row_id)["s"] == "changed"
        table.delete(row_id)
        assert table.by_primary_key(5) is None
        assert len(table) == 199

    def test_secondary_index_on_paged_table(self, paged):
        table = paged.table("t")
        table.create_index("s")
        assert table.index_lookup("s", "row-7")[0]["k"] == 7

    def test_joins_over_paged_tables(self, paged):
        paged.create_table("u", [("k", "int"), ("extra", "str")], primary_key="k")
        for key in range(0, 200, 2):
            paged.insert("u", {"k": key, "extra": "even"})
        joined = paged.join(list(paged.scan("u")), "k", "t", "k")
        assert len(joined) == 100
        assert all(row["extra"] == "even" for row in joined)


class TestWalTruncationFuzz:
    @pytest.mark.parametrize("seed", range(5))
    def test_any_log_prefix_recovers_consistently(self, tmp_path, seed):
        """Cutting the WAL at a random byte must never crash recovery and
        must yield a transaction-consistent prefix of the history."""
        import os

        path = str(tmp_path / ("fuzz-%d.pages" % seed))
        db = Database(path, sync_on_commit=False)
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        db.checkpoint()
        committed_states = []  # snapshot after each commit
        state = {}
        rng = random.Random(seed)
        for batch in range(10):
            with db.transaction():
                for _ in range(rng.randrange(1, 4)):
                    handle = db.new("Item", {"n": rng.randrange(100)})
                    state[handle.oid] = handle["n"]
            committed_states.append(dict(state))
        db.storage.buffer.flush_all()
        db.storage.save_metadata()
        db.storage.pager.close()
        db.wal.close()

        wal_path = path + ".wal"
        full = open(wal_path, "rb").read()
        cut = rng.randrange(1, len(full))
        with open(wal_path, "wb") as handle:
            handle.write(full[:cut])

        reopened = Database(path)
        survived = {
            s.oid: s.values["n"] for s in reopened.storage.scan_class("Item")
        }
        assert survived in ([{}] + committed_states), (
            "recovered state is not a committed prefix (cut at %d)" % cut
        )
        reopened.close()
