"""The network front end: wire protocol, sessions, isolation, cleanup.

Covers the repro.server subsystem end to end over real sockets: frame
and OID codecs, typed error frames, session-scoped transactions
(read-your-writes, writer/writer conflict as a typed error rather than
a hang, rollback-and-release on disconnect), cursor streaming, idle
eviction, shutdown, thread and session leaks, the SysSession view, and
the connection pool.
"""

import copy
import json
import socket
import sys
import threading
import time

import pytest

from repro import AttributeDef, Database
from repro.core.oid import OID
from repro.evolution import SchemaEvolution
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    ObjectNotFoundError,
    QuerySyntaxError,
    TransactionError,
)
from repro.server import Client, ConnectionPool, ProtocolError, Server, ServerError
from repro.server import protocol


def _wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _make_db():
    db = Database()
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("color", "String", default="white"),
        ],
    )
    for i in range(24):
        db.new("Vehicle", {"weight": 1000 + i, "color": ("red", "blue")[i % 2]})
    return db


@pytest.fixture
def served():
    """(db, server) with a short lock timeout so conflicts fail fast."""
    db = _make_db()
    server = Server(db, port=0, workers=4, lock_timeout=0.5)
    server.start()
    yield db, server
    server.stop()
    db.close()


@pytest.fixture
def client(served):
    _db, server = served
    c = Client(*server.address)
    yield c
    c.close()


class TestProtocol:
    def test_frame_round_trip(self):
        payload = {"id": 7, "op": "query", "params": {"q": "Vehicle"}}
        frame = protocol.encode_frame(payload)
        length = protocol.frame_length(frame[:4])
        assert length == len(frame) - 4
        assert protocol.decode_payload(frame[4:]) == payload

    def test_oversized_announced_frame_rejected(self):
        import struct

        header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            protocol.frame_length(header)

    def test_malformed_body_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"not json at all {")
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"[1, 2, 3]")  # not an object
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"[" * 100000)  # nested past the recursion limit

    def test_oid_survives_wire_round_trip(self):
        oid = OID(42, "Vehicle")
        frame = protocol.encode_frame({"ref": oid, "n": [1, oid], "s": {oid}})
        revived = protocol.decode_payload(frame[4:])
        assert revived["n"][1] == oid
        assert revived["ref"].hint == "Vehicle"
        assert revived["s"] == [oid]

    def test_unencodable_value_rejected(self):
        cycle = []
        cycle.append(cycle)
        for bad in (object(), b"bytes", {(1, 2): "tuple key"}, {OID(1): "oid key"}, cycle):
            with pytest.raises(ProtocolError):
                protocol.encode_frame({"id": 1, "result": bad})

    def test_malformed_oid_marker_stays_a_dict(self):
        body = b'{"a":{"$oid":-1},"b":{"$oid":"7"},"c":{"$oid":true},"d":{"$oid":1.0}}'
        payload = protocol.decode_payload(body)
        assert not any(isinstance(value, OID) for value in payload.values())
        assert payload["a"] == {"$oid": -1}

    def test_error_codes_most_specific_first(self):
        assert protocol.error_code(DeadlockError("x")) == "DEADLOCK"
        assert protocol.error_code(LockTimeoutError("x")) == "LOCK_TIMEOUT"
        assert protocol.error_code(TransactionError("x")) == "TRANSACTION"
        assert protocol.error_code(QuerySyntaxError("x")) == "SYNTAX"
        assert protocol.error_code(ObjectNotFoundError("x")) == "NOT_FOUND"
        assert protocol.error_code(ValueError("x")) == "INTERNAL"


class TestBasicOps:
    def test_ping(self, client):
        assert client.ping()

    def test_object_lifecycle_over_the_wire(self, client):
        oid = client.new("Vehicle", {"weight": 7600, "color": "green"})
        assert isinstance(oid, OID)
        fetched = client.get(oid)
        assert fetched["class"] == "Vehicle"
        assert fetched["values"]["weight"] == 7600
        client.update(oid, {"color": "black"})
        assert client.get(oid)["values"]["color"] == "black"
        client.delete(oid)
        with pytest.raises(ServerError) as err:
            client.get(oid)
        assert err.value.code == "NOT_FOUND"

    def test_query_returns_oids_or_values(self, client):
        oids = client.query("Vehicle where color = 'red'")
        assert oids and all(isinstance(o, OID) for o in oids)
        rows = client.query("Vehicle where color = 'red'", values=True)
        assert len(rows) == len(oids)
        assert all(row["values"]["color"] == "red" for row in rows)

    def test_syntax_error_is_typed(self, client):
        with pytest.raises(ServerError) as err:
            client.query("SELEKT banana FROM nowhere")
        assert err.value.code == "SYNTAX"

    def test_unknown_op_is_session_error(self, client):
        with pytest.raises(ServerError) as err:
            client.call("frobnicate")
        assert err.value.code == "SESSION"

    def test_protocol_error_closes_connection(self, served):
        _db, server = served
        c = Client(*server.address)
        # A length prefix announcing more than MAX_FRAME_BYTES.
        import struct

        c._sock.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
        payload, _n = protocol.recv_frame(c._sock)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "PROTOCOL"
        with pytest.raises(ConnectionError):
            protocol.recv_frame(c._sock)  # server hung up
        c.close()

    def test_stats_op(self, client):
        client.query("Vehicle where color = 'red'")
        snapshot = client.stats()
        assert snapshot["objects"] >= 24
        assert snapshot["metrics"]["query.executes"] >= 1
        assert snapshot["querystats"][0]["calls"] >= 1


class TestSessionTransactions:
    def test_read_your_writes_then_rollback(self, served):
        db, server = served
        target = db.select("Vehicle where color = 'red' limit 1")[0].oid
        with Client(*server.address) as c1:
            c1.begin()
            c1.update(target, {"color": "purple"})
            # The writer sees its own uncommitted write...
            assert c1.get(target)["values"]["color"] == "purple"
            c1.rollback()
            # ...and rollback restores the committed state for everyone.
            with Client(*server.address) as c2:
                assert c2.get(target)["values"]["color"] == "red"

    def test_commit_is_visible_to_other_sessions(self, served):
        db, server = served
        target = db.select("Vehicle where color = 'blue' limit 1")[0].oid
        with Client(*server.address) as c1, Client(*server.address) as c2:
            c1.begin()
            c1.update(target, {"weight": 31337})
            c1.commit()
            assert c2.get(target)["values"]["weight"] == 31337

    def test_writer_writer_conflict_is_typed_error_not_hang(self, served):
        db, server = served
        target = db.select("Vehicle limit 1")[0].oid
        with Client(*server.address) as c1, Client(*server.address) as c2:
            c1.begin()
            c1.update(target, {"color": "held"})
            c2.begin()
            started = time.perf_counter()
            with pytest.raises(ServerError) as err:
                c2.update(target, {"color": "contender"})
            elapsed = time.perf_counter() - started
            assert err.value.code == "LOCK_TIMEOUT"
            assert elapsed < 5.0  # bounded by the server's lock_timeout
            c1.rollback()
            # The loser's transaction is still usable after the timeout.
            c2.update(target, {"color": "contender"})
            c2.commit()
        assert db.select("Vehicle where color = 'contender' limit 1")

    def test_query_values_are_the_rows_the_snapshot_query_saw(self, served):
        """``values=true`` serialises the states the pipeline yielded,
        not a re-read of current storage: a row never contradicts the
        predicate that selected it, a concurrent delete cannot fail the
        request, and (readers don't lock) no lock is taken."""
        db, server = served
        q = "select v from Vehicle v where v.weight = 1003"
        with Client(*server.address) as c1, Client(*server.address) as c2:
            c1.begin()
            (oid,) = c1.query(q)  # binds c1's snapshot
            c2.update(oid, {"weight": 99})
            locks_before = db.metrics.value("locks.acquisitions")
            (row,) = c1.query(q, values=True)
            assert row["values"]["weight"] == 1003
            assert db.metrics.value("locks.acquisitions") == locks_before
            c2.delete(oid)
            (row,) = c1.query(q, values=True)
            assert (row["oid"], row["values"]["weight"]) == (oid, 1003)
            c1.rollback()

    def test_nested_begin_rejected(self, client):
        client.begin()
        with pytest.raises(ServerError) as err:
            client.call("begin")
        assert err.value.code == "SESSION"
        client.rollback()

    def test_a_read_only_session_transaction_logs_nothing(self, served):
        db, server = served
        with Client(*server.address) as c:
            (oid,) = c.query("Vehicle where weight = 1003")
            records = db.wal.record_count
            c.begin()
            c.query("Vehicle where color = 'red'")
            c.get(oid)
            c.commit()
            assert db.wal.record_count == records

    def test_commit_without_begin_rejected(self, client):
        with pytest.raises(ServerError) as err:
            client.call("commit")
        assert err.value.code == "SESSION"

    def test_disconnect_mid_txn_rolls_back_and_frees_locks(self, served):
        db, server = served
        target = db.select("Vehicle limit 1")[0].oid
        victim = Client(*server.address)
        victim.begin()
        victim.update(target, {"color": "doomed"})
        assert db.txns.active_transactions()
        victim.kill()
        assert _wait_until(lambda: len(server.sessions) == 0)
        assert _wait_until(lambda: not db.txns.active_transactions())
        # SysLock and SysSession agree: nothing is held, nobody is home.
        assert db.select("SysLock") == []
        assert db.select("SysSession") == []
        # And a fresh client can write the object immediately.
        with Client(*server.address) as c:
            c.update(target, {"color": "survivor"})
            assert c.get(target)["values"]["color"] == "survivor"

    def test_deadlock_victim_gets_typed_error_and_loses_txn(self, served):
        db, server = served
        vehicles = db.select("Vehicle limit 2")
        oid_a, oid_b = vehicles[0].oid, vehicles[1].oid
        errors = []
        with Client(*server.address) as c1, Client(*server.address) as c2:
            c1.begin()
            c1.update(oid_a, {"weight": 1})
            c2.begin()
            c2.update(oid_b, {"weight": 2})

            def cross():
                try:
                    c1.update(oid_b, {"weight": 3})
                except ServerError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=cross)
            thread.start()
            try:
                c2.update(oid_a, {"weight": 4})
            except ServerError as exc:
                errors.append(exc)
            thread.join(timeout=30)
        assert errors, "one of the two writers must fail"
        assert all(e.code in ("DEADLOCK", "LOCK_TIMEOUT") for e in errors)
        # Whatever happened, disconnecting both cleaned everything up.
        assert _wait_until(lambda: not db.txns.active_transactions())
        assert db.select("SysLock") == []

    def test_commit_time_error_surfaces_typed_and_ends_txn(self, served):
        db, server = served
        real_log_commit = db.wal.log_commit

        def failing_log_commit(txn_id):
            raise TransactionError("injected commit failure")

        with Client(*server.address) as c:
            c.begin()
            oid = c.new("Vehicle", {"weight": 123, "color": "doomed"})
            db.wal.log_commit = failing_log_commit
            try:
                with pytest.raises(ServerError) as err:
                    c.commit()
            finally:
                db.wal.log_commit = real_log_commit
            # The failure reaches the caller with its typed wire code —
            # not swallowed by a pool rollback on a dead transaction.
            assert err.value.code == "TRANSACTION"
            assert not c.in_txn
            # Server side: the transaction was rolled back, not stranded.
            assert db.txns.active_transactions() == []
            assert db.select("SysLock") == []
            assert db.select("Vehicle where color = 'doomed'") == []
            # The connection is still usable for a fresh transaction.
            c.begin()
            c.new("Vehicle", {"weight": 124, "color": "phoenix"})
            c.commit()
            assert len(db.select("Vehicle where color = 'phoenix'")) == 1

    def test_transaction_context_propagates_commit_error(self, served):
        db, server = served
        real_log_commit = db.wal.log_commit

        def failing_log_commit(txn_id):
            raise TransactionError("injected commit failure")

        with Client(*server.address) as c:
            try:
                with pytest.raises(ServerError) as err:
                    with c.transaction():
                        c.new("Vehicle", {"weight": 9, "color": "ghost"})
                        db.wal.log_commit = failing_log_commit
            finally:
                db.wal.log_commit = real_log_commit
            assert err.value.code == "TRANSACTION"
            assert not c.in_txn
            assert db.txns.active_transactions() == []


class TestStreaming:
    def test_query_stream_yields_all_rows(self, client):
        rows = list(client.query_stream("Vehicle where color = 'red'", batch=5))
        assert len(rows) == 12
        assert all(row["values"]["color"] == "red" for row in rows)

    def test_abandoned_stream_releases_server_state(self, served):
        db, server = served
        with Client(*server.address) as c:
            stream = c.query_stream("Vehicle", batch=4)
            next(stream)
            next(stream)
            stream.close()  # generator finally -> close_cursor round trip
            # The cursor is gone server-side and its read txn released.
            assert _wait_until(lambda: not db.txns.active_transactions())
            rows = db.select("SysSession")
            assert len(rows) == 1 and rows[0]["cursors"] == 0

    def test_fetch_unknown_cursor(self, client):
        with pytest.raises(ServerError) as err:
            client.call("fetch", cursor=999)
        assert err.value.code == "SESSION"

    def test_stream_under_session_txn_sees_own_writes(self, client):
        client.begin()
        oid = client.new("Vehicle", {"weight": 50000, "color": "cerise"})
        seen = [
            row
            for row in client.query_stream("Vehicle where color = 'cerise'")
            if row["oid"] == oid
        ]
        assert len(seen) == 1
        client.rollback()


class TestPerRequestWireErrors:
    """A response the wire cannot carry is a typed error for that request
    alone: the connection, the session and its transaction stay up."""

    def test_oversized_response_keeps_connection_and_transaction(
        self, served, monkeypatch
    ):
        db, server = served
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024)
        with Client(*server.address) as c:
            c.begin()
            (oid,) = c.query("Vehicle where weight = 1000")
            c.update(oid, {"color": "green"})
            with pytest.raises(ServerError) as err:
                c.query("Vehicle", values=True)  # 24 rows: well over 1 KiB
            assert err.value.code == "PROTOCOL"
            assert c.ping()
            # One fetch batch of kept rows, joined over the limit.
            cursor = c.call("query_stream", q="Vehicle")["cursor"]
            assert len(c.call("fetch", cursor=cursor, n=2)["rows"]) == 2
            with pytest.raises(ServerError) as err:
                c.call("fetch", cursor=cursor, n=30)
            assert err.value.code == "PROTOCOL"
            assert c.ping()
            assert c.get(oid)["values"]["color"] == "green"
            c.commit()
        assert db.get_state(oid).values["color"] == "green"

    def test_bytes_attribute_is_typed_error_on_every_read_path(self, served):
        db, server = served
        db.define_class("Blob", attributes=[AttributeDef("data", "Bytes")])
        oid = db.new("Blob", {"data": b"\x00\x01"}).oid
        reads = {
            "get": lambda c: c.get(oid),
            "fetch": lambda c: list(c.query_stream("Blob")),
            "values": lambda c: c.query("Blob", values=True),
        }
        with Client(*server.address) as c:
            for name, read in reads.items():
                with pytest.raises(ServerError) as err:
                    read(c)
                assert err.value.code == "PROTOCOL", name
                assert c.ping()
            assert c.query("Blob") == [oid]

    @pytest.mark.parametrize("marker", [{"$oid": -1}, {"$oid": "x"}])
    def test_malformed_oid_marker_is_typed_error(self, served, marker):
        db, server = served
        with Client(*server.address) as c:
            with pytest.raises(ServerError):
                c.call("get", oid=marker)
            (oid,) = c.query("Vehicle where weight = 1000")
            with pytest.raises(ServerError):
                c.update(oid, {"color": marker})
            assert c.ping()
        assert db.get_state(oid).values["color"] == "red"


class TestClientControlledParameters:
    """A malformed op or parameter is the client's error (``SESSION``),
    never ``INTERNAL`` and never silently rewritten into a valid one."""

    @pytest.mark.parametrize(
        "op, params",
        [
            ("fetch", {"n": 0}),
            ("fetch", {"n": -3}),
            ("fetch", {"n": 2.9}),
            ("fetch", {"n": True}),
            ("fetch", {"n": None}),
            ("fetch", {"n": "x"}),
            ("fetch", {"n": [1]}),
            ("fetch", {"cursor": [1]}),
            ("fetch", {"cursor": "1"}),
            ("fetch", {"cursor": True}),
            ("close_cursor", {"cursor": {}}),
            ("close_cursor", {"cursor": 1.0}),
            ([1], {}),
            ({"op": "ping"}, {}),
            (7, {}),
        ],
    )
    def test_malformed_parameter_is_session_error(self, client, op, params):
        cursor = client.call("query_stream", q="Vehicle")["cursor"]
        with pytest.raises(ServerError) as err:
            client.call(op, **{"cursor": cursor, **params})
        assert err.value.code == "SESSION"
        # Nothing was fetched or closed: the cursor still starts at row 1.
        reply = client.call("fetch", cursor=cursor, n=30)
        assert len(reply["rows"]) == 24 and reply["done"]


class TestWireLeavesSharedStatesAlone:
    """Serialising a row reads the engine's shared, read-only states; it
    must never write into them."""

    def _docs(self, db):
        """Thirty Docs with list values; returns {oid: values as written}."""
        db.define_class(
            "Doc",
            attributes=[
                AttributeDef("title", "String"),
                AttributeDef("tags", "String", multi=True),
                AttributeDef("grid"),
            ],
        )
        written = {}
        for i in range(30):
            values = {"title": "t%d" % i, "tags": ["a", "b"], "grid": [["g"], [i]]}
            written[db.new("Doc", copy.deepcopy(values)).oid] = values
        return written

    def test_fetch_drain_leaves_kept_page_states_unchanged(self, served):
        db, server = served
        written = self._docs(db)
        with Client(*server.address) as c:
            for _ in range(2):  # the second scan makes each page keep its states
                list(c.query_stream("Doc", batch=7))
            pages = list(db.storage.scan_pages("Doc"))
            assert pages and all(isinstance(page, tuple) for page in pages)
            kept = [state for page in pages for state in page]
            assert {state.oid: state.values for state in kept} == written
            before = copy.deepcopy(kept)
            rows = list(c.query_stream("Doc", batch=7))
        assert {row["oid"]: row["values"] for row in rows} == written
        assert all(a is b for a, b in zip(db.storage.scan_pages("Doc"), pages))
        assert kept == before

    def test_get_result_is_the_clients_own(self, served):
        db, server = served
        oid, values = next(iter(self._docs(db).items()))
        with Client(*server.address) as c:
            row = c.get(oid)
            assert row["values"] == values
            row["values"]["title"] = "edited"
            row["values"]["tags"].append("x")
            row["values"]["grid"][0].append("x")
            assert c.get(oid)["values"] == values
        assert db.get_state(oid).values == values


def _streamed(client, q="Vehicle", batch=5):
    return {row["oid"]: row["values"] for row in client.query_stream(q, batch=batch)}


class TestKeptRowsNeverGoStale:
    """A state's wire row is encoded once and kept with the state; a
    write installs a new state, so no stream ever sees a row that an
    update, its own transaction or a schema change has outdated."""

    def test_a_committed_update_shows_in_the_next_stream(self, served):
        db, server = served
        with Client(*server.address) as c1, Client(*server.address) as c2:
            first = _streamed(c1)
            target = next(iter(first))
            c2.begin()
            c2.update(target, {"weight": 77777, "color": "teal"})
            c2.commit()
            second = _streamed(c1)
        assert second[target] == {"weight": 77777, "color": "teal"}
        assert {oid: v for oid, v in second.items() if oid != target} == {
            oid: v for oid, v in first.items() if oid != target
        }

    def test_a_writers_stream_shows_its_own_uncommitted_update(self, served):
        db, server = served
        with Client(*server.address) as c:
            before = _streamed(c)
            target = next(iter(before))
            c.begin()
            c.update(target, {"weight": 4242})
            assert _streamed(c)[target]["weight"] == 4242
            c.rollback()
            assert _streamed(c) == before

    def test_rows_after_add_attribute_are_the_reference_bytes(self, served):
        db, server = served
        with Client(*server.address) as c:
            _streamed(c)  # every Vehicle state keeps its row
        SchemaEvolution(db).add_attribute(
            "Vehicle", AttributeDef("year", "Integer", default=1990)
        )
        with socket.create_connection(server.address) as sock:
            protocol.send_frame(sock, {"id": 1, "op": "query_stream", "params": {"q": "Vehicle"}})
            cursor = protocol.raise_on_error(protocol.recv_frame(sock)[0])["cursor"]
            protocol.send_frame(sock, {"id": 2, "op": "fetch", "params": {"cursor": cursor, "n": 100}})
            header = protocol._recv_exact(sock, 4)
            body = protocol._recv_exact(sock, protocol.frame_length(header))
        oids = [row["oid"] for row in protocol.decode_payload(body)["result"]["rows"]]
        assert len(oids) == 24
        rows = []
        for oid in oids:
            state = db.get_state(oid)  # a fresh copy: it keeps no row
            assert state.values["year"] == 1990
            rows.append({"oid": state.oid, "class": state.class_name, "values": state.values})
        reference = {"id": 2, "ok": True, "result": {"rows": rows, "done": True}}
        assert body == json.dumps(protocol.to_wire(reference), separators=(",", ":")).encode()

    def test_fetched_rows_are_a_committed_version_in_the_snapshot(self, served):
        """Three fetch threads stream beside a committing writer, filling
        the same states' rows at once: each stream matches, row for row,
        the database after some commit made while its query_stream
        request was in flight."""
        db, server = served
        oids = [handle.oid for handle in db.select("Vehicle")]
        base = {oid: db.get_state(oid).values for oid in oids}
        commits = []  # (oid, weight), in commit order
        counts = {"started": 0, "done": 0}
        stop = threading.Event()
        failures, streams = [], []

        def expected(k):
            image = {oid: dict(values) for oid, values in base.items()}
            for oid, weight in commits[:k]:
                image[oid]["weight"] = weight
            return image

        def reader():
            try:
                with Client(*server.address) as c:
                    first = True
                    while first or not stop.is_set():
                        first = False
                        low = counts["done"]
                        cursor = c.call("query_stream", q="Vehicle")["cursor"]
                        high = counts["started"]
                        rows, done = {}, False
                        while not done:
                            reply = c.call("fetch", cursor=cursor, n=3)
                            done = reply["done"]
                            rows.update((row["oid"], row["values"]) for row in reply["rows"])
                        if not any(rows == expected(k) for k in range(low, high + 1)):
                            failures.append((low, high, rows))
                        streams.append(low)
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            with Client(*server.address) as writer:
                for i in range(60):
                    oid = oids[(i * 7) % len(oids)]
                    commits.append((oid, 50000 + i))
                    counts["started"] += 1
                    writer.update(oid, {"weight": 50000 + i})
                    counts["done"] += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(20)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:1]
        assert len(streams) >= 3


class TestSysSession:
    def test_sessions_visible_while_connected(self, served):
        db, server = served
        with Client(*server.address) as c:
            assert c.ping()
            rows = db.select("SysSession")
            assert len(rows) == 1
            row = rows[0]
            assert row["state"] == "idle"
            assert row["requests"] >= 1
            c.begin()
            row = db.select("SysSession")[0]
            assert row["state"] == "in_txn"
            assert row["txn"] == db.txns.active_transactions()[0]
            c.rollback()
        assert _wait_until(lambda: db.select("SysSession") == [])

    def test_syssession_queryable_over_the_wire(self, served):
        _db, server = served
        with Client(*server.address) as c:
            rows = c.query("SysSession")
            assert len(rows) == 1
            assert rows[0]["client"].startswith("127.0.0.1:")


class TestIdleReaper:
    def test_idle_session_is_evicted_and_rolled_back(self):
        db = _make_db()
        target = db.select("Vehicle limit 1")[0].oid
        with Server(db, port=0, workers=2, idle_timeout=0.3) as server:
            c = Client(*server.address)
            c.begin()
            c.update(target, {"color": "sleepy"})
            assert _wait_until(lambda: len(server.sessions) == 0, timeout=10.0)
            assert not db.txns.active_transactions()
            assert db.select("SysLock") == []
            assert db.metrics.counter("server.idle_evictions").value >= 1
            with pytest.raises((ConnectionError, OSError)):
                c.ping()
            c.close()
        db.close()

    def test_request_blocked_on_a_lock_is_not_evicted(self):
        db = _make_db()
        target = db.select("Vehicle limit 1")[0].oid
        evictions = db.metrics.counter("server.idle_evictions")
        with Server(db, port=0, idle_timeout=0.2, lock_timeout=2.0) as server:
            with Client(*server.address) as holder, Client(*server.address) as waiter:
                holder.begin()
                holder.update(target, {"color": "held"})

                def hold_then_release():
                    # Pings keep the holder itself from going idle.
                    deadline = time.perf_counter() + 0.5
                    while time.perf_counter() < deadline:
                        holder.ping()
                        time.sleep(0.05)
                    holder.rollback()

                thread = threading.Thread(target=hold_then_release)
                started = time.perf_counter()
                thread.start()
                waiter.update(target, {"color": "waited"})
                waited = time.perf_counter() - started
                assert evictions.value == 0
                assert waiter.ping()
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert waited >= 0.4
        assert db.get_state(target).values["color"] == "waited"
        db.close()


class TestServerShutdown:
    def test_stop_with_an_idle_open_transaction_is_prompt(self):
        db = _make_db()
        target = db.select("Vehicle limit 1")[0].oid
        server = Server(db, port=0).start()
        c = Client(*server.address)
        c.begin()
        c.update(target, {"color": "abandoned"})
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 1.0
        assert db.txns.active_transactions() == []
        assert db.select("SysLock") == []
        assert db.get_state(target).values["color"] == "red"
        c.close()
        db.close()

    def test_second_server_on_a_bound_port_raises_from_start(self):
        db = _make_db()
        with Server(db, port=0) as first:
            second = Server(db, port=first.address[1])
            with pytest.raises(OSError):
                second.start()
            assert db.sessions is first.sessions
        db.close()

    def test_no_thread_or_session_outlives_its_connection(self):
        db = _make_db()
        oids = [state.oid for state in db.select("Vehicle")]
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # more thread switches, more races
        try:
            with Server(db, port=0, workers=2) as server:
                baseline = threading.active_count()
                for i in range(64):
                    c = Client(*server.address)
                    c.begin()
                    c.update(oids[i % len(oids)], {"weight": i})
                    c.close()

                def client_work(k):
                    try:
                        with Client(*server.address) as c:
                            with c.transaction():
                                c.update(oids[k], {"color": "c%d" % k})
                            c.query("Vehicle where weight > 0")
                    except Exception as exc:  # surfaced by the assert below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client_work, args=(k,)) for k in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert _wait_until(
                    lambda: threading.active_count() == baseline, timeout=2.0
                )
                assert db.select("SysSession") == []
                assert db.select("SysLock") == []
                assert db.txns.active_transactions() == []
        finally:
            sys.setswitchinterval(interval)
        assert len(db.select("Vehicle where color like 'c%'")) == 8
        db.close()


class TestConnectionPool:
    def test_pooled_connection_is_reused(self, served):
        _db, server = served
        with ConnectionPool(*server.address, size=2) as pool:
            c1 = pool.acquire()
            pool.release(c1)
            c2 = pool.acquire()
            assert c2 is c1
            pool.release(c2)

    def test_release_rolls_back_open_txn(self, served):
        db, server = served
        target = db.select("Vehicle limit 1")[0].oid
        with ConnectionPool(*server.address, size=2) as pool:
            c = pool.acquire()
            c.begin()
            c.update(target, {"color": "leaky"})
            pool.release(c)
            assert not c.in_txn
            assert not db.txns.active_transactions()

    def test_dead_pooled_connection_replaced(self, served):
        _db, server = served
        with ConnectionPool(*server.address, size=2) as pool:
            c = pool.acquire()
            pool.release(c)
            c._sock.close()  # the server side of the pool entry died
            fresh = pool.acquire()
            assert fresh.ping()
            pool.release(fresh)


class TestServerLifecycle:
    def test_stop_is_idempotent_and_detaches_registry(self):
        db = _make_db()
        server = Server(db, port=0)
        server.start()
        assert db.sessions is server.sessions
        server.stop()
        server.stop()
        assert db.sessions is None
        db.close()

    def test_database_close_is_idempotent(self, tmp_path):
        db = Database(str(tmp_path / "kimdb.pages"))
        db.define_class("Thing", attributes=[AttributeDef("n", "Integer")])
        db.new("Thing", {"n": 1})
        db.close()
        assert db.closed
        db.close()  # second close is a no-op, not a crash
        assert db.closed

    def test_in_memory_double_close(self):
        db = Database()
        db.close()
        db.close()
        assert db.closed


class TestSemanticErrorPayload:
    """Semantic/rewrite diagnostics must survive the wire with their
    source spans intact: the remote client gets the same line/column and
    caret snippet a local caller sees in the rendered message."""

    def test_semantic_error_keeps_span_over_the_wire(self, client):
        query = "SELECT v FROM Vehicle v WHERE v.bogus = 1"
        with pytest.raises(ServerError) as err:
            client.query(query)
        exc = err.value
        assert exc.code == "SEMANTIC"
        assert exc.diagnostics, "SEMANTIC error frame lost its diagnostics"
        diag = exc.diagnostics[0]
        assert diag["code"] == "ANA101"
        assert diag["severity"] == "error"
        # The span is the character range of `v.bogus` in the query text.
        start, end = diag["span"]
        assert query[start:end] == "v.bogus"
        assert diag["line"] == 1
        assert diag["column"] == start + 1
        caret_line, caret = diag["caret"].split("\n")
        assert caret_line == query
        assert caret.index("^") == start
        assert caret.count("^") == end - start

    def test_rewrite_info_diagnostics_do_not_fail_queries(self, client):
        # A provably-empty query is still a *successful* query: REW001 is
        # informational, the server returns an empty result, not an error.
        oids = client.query("Vehicle where weight > 10 and weight < 5")
        assert oids == []


class TestAggregateErrors:
    def test_an_aggregate_over_unorderable_values_is_a_query_error(self):
        db = Database()
        db.define_class("T", attributes=[AttributeDef("a", "Any")])
        db.new("T", {"a": 1})
        db.new("T", {"a": "x"})
        server = Server(db, port=0, workers=2)
        server.start()
        client = Client(*server.address)
        try:
            for text in ("SELECT MIN(t.a) FROM T t", "SELECT SUM(t.a) FROM T t"):
                with pytest.raises(ServerError) as err:
                    client.query(text)
                assert err.value.code == "QUERY", text
                assert "int and str" in str(err.value)
        finally:
            client.close()
            server.stop()
            db.close()
