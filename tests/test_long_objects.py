"""Long unstructured data: overflow-chain storage."""

import pytest

from repro import AttributeDef, Database
from repro.storage.manager import OVERFLOW_HEAP


@pytest.fixture
def blob_db():
    db = Database()
    db.define_class(
        "Blob",
        attributes=[
            AttributeDef("name", "String"),
            AttributeDef("payload", "Bytes"),
        ],
    )
    return db


BIG = bytes(range(256)) * 100  # ~25 KiB, several pages


class TestLongObjects:
    def test_store_and_load(self, blob_db):
        handle = blob_db.new("Blob", {"name": "img", "payload": BIG})
        assert blob_db.get(handle.oid)["payload"] == BIG
        assert blob_db.storage.heap_for(OVERFLOW_HEAP).page_count > 1

    def test_small_objects_stay_inline(self, blob_db):
        blob_db.new("Blob", {"name": "small", "payload": b"x"})
        assert not blob_db.storage.has_heap(OVERFLOW_HEAP) or (
            sum(1 for _ in blob_db.storage.heap_for(OVERFLOW_HEAP).scan()) == 0
        )

    def test_grow_and_shrink(self, blob_db):
        handle = blob_db.new("Blob", {"name": "v", "payload": b"small"})
        blob_db.update(handle.oid, {"payload": BIG})
        assert blob_db.get(handle.oid)["payload"] == BIG
        blob_db.update(handle.oid, {"payload": b"small again"})
        assert blob_db.get(handle.oid)["payload"] == b"small again"
        # Shrinking freed the chain.
        live_chunks = sum(1 for _ in blob_db.storage.heap_for(OVERFLOW_HEAP).scan())
        assert live_chunks == 0

    def test_update_long_to_long_frees_old_chain(self, blob_db):
        handle = blob_db.new("Blob", {"name": "v", "payload": BIG})
        chunks_before = sum(1 for _ in blob_db.storage.heap_for(OVERFLOW_HEAP).scan())
        blob_db.update(handle.oid, {"payload": BIG[::-1]})
        chunks_after = sum(1 for _ in blob_db.storage.heap_for(OVERFLOW_HEAP).scan())
        assert chunks_after == chunks_before
        assert blob_db.get(handle.oid)["payload"] == BIG[::-1]

    def test_delete_frees_chain(self, blob_db):
        handle = blob_db.new("Blob", {"name": "v", "payload": BIG})
        blob_db.delete(handle.oid)
        assert sum(1 for _ in blob_db.storage.heap_for(OVERFLOW_HEAP).scan()) == 0

    def test_long_object_in_query_scan(self, blob_db):
        blob_db.new("Blob", {"name": "wanted", "payload": BIG})
        blob_db.new("Blob", {"name": "other", "payload": b"x"})
        result = blob_db.select("SELECT b FROM Blob b WHERE b.name = 'wanted'")
        assert len(result) == 1
        assert result[0]["payload"] == BIG

    def test_long_string_values(self, blob_db):
        blob_db.define_class(
            "Doc", attributes=[AttributeDef("text", "String")]
        )
        text = "long article " * 2000
        handle = blob_db.new("Doc", {"text": text})
        assert blob_db.get(handle.oid)["text"] == text

    def test_durable_roundtrip(self, durable_path):
        db = Database(durable_path)
        db.define_class("Blob", attributes=[AttributeDef("payload", "Bytes")])
        handle = db.new("Blob", {"payload": BIG})
        db.close()
        reopened = Database(durable_path)
        assert reopened.get(handle.oid)["payload"] == BIG
        reopened.close()

    @pytest.mark.parametrize("committed", [True, False])
    def test_a_stub_written_back_without_its_chunks_recovers_from_the_log(
        self, durable_path, committed
    ):
        """A crash wrote back the page holding a long object's stub, but
        neither its chunks' pages nor the catalog that lists them."""
        db = Database(durable_path, page_size=512)
        db.define_class("Blob", attributes=[AttributeDef("payload", "Bytes")])
        oid = db.new("Blob", {"payload": b"short"}).oid
        db.checkpoint()
        txn = db.transaction()
        db.update(oid, {"payload": BIG})
        if committed:
            txn.commit()
        db.storage.buffer.flush_page(db.storage.directory.lookup(oid)[1])
        db.storage.pager.close()
        db.wal.close()
        reopened = Database(durable_path, page_size=512)
        assert reopened.get(oid)["payload"] == (BIG if committed else b"short")
        reopened.close()

    def test_transaction_rollback_restores_long_object(self, blob_db):
        handle = blob_db.new("Blob", {"name": "v", "payload": BIG})
        txn = blob_db.transaction()
        blob_db.update(handle.oid, {"payload": b"short"})
        txn.abort()
        assert blob_db.get(handle.oid)["payload"] == BIG

    def test_indexed_attribute_on_long_object(self, blob_db):
        index = blob_db.create_hierarchy_index("Blob", "name")
        handle = blob_db.new("Blob", {"name": "findme", "payload": BIG})
        assert handle.oid in index.lookup_eq("findme")
