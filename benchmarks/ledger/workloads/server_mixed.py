"""``server_mixed``: the wire protocol, sessions, readers beside writers.

An in-process ``Server(db, workers=2)`` over a durable file, two
``Client`` connections in two threads.  A round mixes 6 point queries
(3 repeated texts, 3 fresh literals), 2 ``get``, one drained 500-row
``query_stream`` and one write transaction on the client's own slice of
the Truck extent.  It is the only workload that pays JSON framing and
``Session.handle``, and the only one where lock-free snapshot readers
run beside committing writers — so it alone sees live version entries
and the index->scan snapshot downgrade.

The downgrade is exercised on purpose and only on purpose.  Five of the
six point queries range over the Automobile subtree, which no writer
touches, so they keep their index plans whatever the other client is
doing.  The sixth is a repeated text over Truck, planned to an index
probe during set-up, that runs *inside* the round's write transaction,
after its updates: the transaction's own version entries are live, so
the executor downgrades its cached plan to an extent scan every time —
exactly one downgrade a round.  Left to the race between one client's queries and the other's commits,
the same downgrade hit 0.1 to 0.7 queries a round and moved the round
between 94 ms and 300 ms from one run to the next.
"""

from __future__ import annotations

import bisect
import os
import random
import time
from typing import Any, Dict, List, Tuple

import repro
from repro.server import Client, Server
from repro.storage.serializer import encode_object

from ..harness import Workload, WrongResult
from .vehicles import WEIGHT_HIGH, WEIGHT_LOW, VehicleData

N_VEHICLES = 2000
STREAM_CLASS = "DomesticAutomobile"
STREAM_BATCH = 50
RANGE_WIDTH = 40
FRESH_PER_ROUND = 3
POOL_SIZE = 6
DRAIN_TIMEOUT = 5.0

#: Query target -> the classes its hierarchy scope covers.
SCOPES = {"Automobile": ("Automobile", "DomesticAutomobile"), "Truck": ("Truck",)}
#: The round's requests, in order; the third repeated text rides inside
#: the write transaction.  The two clients move in step, so client 1
#: starts half-way round: while one streams the other queries and writes.
ORDER = ("pooled", "get", "fresh", "stream", "fresh", "pooled", "write", "get", "fresh")
_EQ = "SELECT v FROM %s v WHERE v.weight = %d"
_RANGE = "SELECT v FROM %s v WHERE v.weight >= %d AND v.weight < %d"


def _query(target: str, literal: int) -> Tuple[str, str, int, int]:
    """Odd literals probe one key, even ones a narrow range:
    (text, target, low, high)."""
    if literal % 2:
        return _EQ % (target, literal), target, literal, literal + 1
    high = literal + RANGE_WIDTH
    return _RANGE % (target, literal, high), target, literal, high


class ServerMixed(Workload):
    name = "server_mixed"
    clients = 2
    #: ~70 ms per step of two rounds (reference speed) at this commit.
    rounds = 210
    #: Harness-level requests; the stream and the transaction fan out to
    #: 24 wire requests in all (``server.requests_per_round``).
    requests_per_round = 10

    def setup(self) -> None:
        self.data = VehicleData(self.seed, N_VEHICLES)
        self.db = repro.Database(os.path.join(self.workdir, "server.pages"))
        self.data.load(self.db)
        self.db.create_hierarchy_index("Vehicle", "weight")
        self.db.analyze()
        self.db.checkpoint()
        self.server = Server(self.db, port=0, workers=2, lock_timeout=10.0).start()
        self.conns = [Client(*self.server.address) for _ in range(self.clients)]

        oids = self.data.vehicle_oids
        #: Per query target: (weights, oids), both in weight order.
        self.by_weight = {}
        for target, scope in SCOPES.items():
            pairs = sorted(
                (row["weight"], oids[i])
                for i, row in enumerate(self.data.vehicles)
                if row["class"] in scope
            )
            self.by_weight[target] = ([p[0] for p in pairs], [p[1] for p in pairs])
        self.stream_oids = {oids[i] for i in self.data.indexes_of_class(STREAM_CLASS)}
        trucks = self.data.indexes_of_class("Truck")
        share = len(trucks) // self.clients
        self.truck_slices = [trucks[k * share : (k + 1) * share] for k in range(self.clients)]
        self.payloads = {i: self.data.vehicles[i]["payload"] for i in trucks}
        self.user_bytes = [0] * self.clients

        rng = random.Random(self.seed ^ 0x5E47)
        literals = list(range(WEIGHT_LOW, WEIGHT_HIGH + 1))
        rng.shuffle(literals)
        self.pool = [_query("Automobile", literal) for literal in literals[:POOL_SIZE]]
        self.truck_pool = [_query("Truck", literal) for literal in literals[POOL_SIZE : POOL_SIZE + 2]]
        self.fresh = literals[POOL_SIZE + 2 :]
        # Plan the Truck texts now, outside any transaction, so the plan
        # cache holds their index plans before a writer's entries exist.
        for query in self.truck_pool:
            self.db.execute(query[0])

    def plan_round(self, client: int, round_id: int) -> Any:
        rng = random.Random(self.seed * 1_000_003 + round_id)
        start = round_id * FRESH_PER_ROUND
        literals = self.fresh[start : start + FRESH_PER_ROUND]
        if len(literals) < FRESH_PER_ROUND:
            raise ValueError("round %d exhausts the fresh literals" % round_id)
        fresh = [_query("Automobile", literal) for literal in literals]
        in_txn = self.truck_pool[rng.randrange(len(self.truck_pool))]
        pooled = [self.pool[rng.randrange(POOL_SIZE)] for _ in range(2)]
        gets = [rng.randrange(N_VEHICLES) for _ in range(2)]
        mine = self.truck_slices[client]
        writes = [(mine[rng.randrange(len(mine))], 1000 + rng.randrange(20000)) for _ in range(2)]
        steps: List[Tuple[str, Any]] = []
        shift = client * (len(ORDER) // 2)
        for kind in ORDER[shift:] + ORDER[:shift]:
            if kind == "pooled":
                steps.append(("query", pooled.pop()))
            elif kind == "fresh":
                steps.append(("query", fresh.pop()))
            elif kind == "get":
                steps.append(("get", gets.pop()))
            else:
                steps.append((kind, (writes, in_txn) if kind == "write" else None))
        return client, round_id, steps

    def run_round(self, client: int, plan: Any, lat: Dict[str, List[float]]) -> Any:
        clock = time.perf_counter
        conn = self.conns[client]
        oids = self.data.vehicle_oids
        _client, round_id, steps = plan
        # The server-side spans of this round find it by the trace id.
        conn.trace_id = str(round_id)
        results = []
        for kind, arg in steps:
            t0 = clock()
            if kind == "query":
                out = conn.query(arg[0])
                name = "point_query"
            elif kind == "get":
                out = conn.get(oids[arg])
                name = "get"
            elif kind == "stream":
                out = [row["oid"] for row in conn.query_stream(STREAM_CLASS, batch=STREAM_BATCH)]
                name = "stream"
            else:
                writes, in_txn = arg
                with conn.transaction():
                    for index, payload in writes:
                        conn.update(oids[index], {"payload": payload})
                    out = conn.query(in_txn[0])
                name = "write_txn"
            lat.setdefault(name, []).append(clock() - t0)
            results.append(out)
        return results

    def _check_query(self, query: Tuple[str, str, int, int], out: List[Any]) -> None:
        text, target, low, high = query
        weights, oids = self.by_weight[target]
        expected = oids[bisect.bisect_left(weights, low) : bisect.bisect_left(weights, high)]
        if len(out) != len(expected) or set(out) != set(expected):
            raise WrongResult("%r returned %d rows, oracle has %d" % (text, len(out), len(expected)))

    def check_round(self, plan: Any, results: Any) -> None:
        client, _round_id, steps = plan
        oids = self.data.vehicle_oids
        for (kind, arg), out in zip(steps, results):
            if kind == "query":
                self._check_query(arg, out)
            elif kind == "get":
                row = self.data.vehicles[arg]
                values = out["values"]
                if out["class"] != row["class"] or values["weight"] != row["weight"] or values["price"] != row["price"]:
                    raise WrongResult("get(%r) returned %r" % (oids[arg], out))
            elif kind == "stream":
                if len(out) != len(self.stream_oids) or set(out) != self.stream_oids:
                    raise WrongResult("stream returned %d rows, not %d" % (len(out), len(self.stream_oids)))
            else:
                writes, in_txn = arg
                self._check_query(in_txn, out)
                for index, payload in writes:
                    self.payloads[index] = payload
                for index, _payload in writes:
                    state = self.db.get_state(oids[index])
                    if state.values["payload"] != self.payloads[index]:
                        raise WrongResult("committed update of %r not readable" % (oids[index],))
                    self.user_bytes[client] += len(encode_object(state))

    def recover(self, client: int) -> None:
        conn = self.conns[client]
        if conn.in_txn and not conn.closed:
            conn.rollback()

    def extra_counts(self) -> Dict[str, float]:
        return {"user_bytes_written": sum(self.user_bytes)}

    def final_checks(self) -> None:
        for conn in self.conns:
            conn.close()
        deadline = time.perf_counter() + DRAIN_TIMEOUT
        while len(self.server.sessions) and time.perf_counter() < deadline:
            time.sleep(0.01)
        sessions = self.db.select("SysSession")
        locks = self.db.select("SysLock")
        if sessions or locks:
            raise WrongResult("after disconnect: SysSession=%r SysLock=%r" % (sessions, locks))
        oids = self.data.vehicle_oids
        for index, payload in self.payloads.items():
            if self.db.get_state(oids[index]).values["payload"] != payload:
                raise WrongResult("truck %d differs from the oracle's model" % index)

    def close(self) -> None:
        for conn in getattr(self, "conns", ()):
            conn.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.server = None
        super().close()
