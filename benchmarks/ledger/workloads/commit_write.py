"""``commit_write``: two committing writers; the write side of every trade.

Embedded, durable file, ``sync_on_commit=True`` with group commit on
(the engine's defaults — the flush policy is part of the workload), a
hierarchy index on ``Vehicle.weight``.  Two writer threads work disjoint
halves of the vehicles; a round is 25 transactions, each updating an
indexed attribute, updating an unindexed one and inserting a Truck.
Every 25th round both writers meet at a barrier and writer 0 checkpoints
inside the round's clock, so the stall lands in the latency tail.  WAL
append/fsync/group commit, locks, index maintenance, ``encode_object``,
page-image logging and checkpoints carry the time: a read-side gain
bought with write-side cost shows here.

After the timed passes the run crashes the database on purpose (see
:meth:`CommitWrite._crash_check`): every acknowledged commit must be
fully readable after recovery and no unacknowledged one partly visible.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Any, Dict, List

import repro
from repro.faults import FaultPlan, InjectedCrash
from repro.storage.serializer import encode_object

from ..harness import Workload, WrongResult
from .vehicles import WEIGHT_HIGH, WEIGHT_LOW, VehicleData

N_VEHICLES = 2000
TXNS_PER_ROUND = 25
CHECKPOINT_EVERY = 25
BARRIER_TIMEOUT = 60.0
CRASH_TXNS = 200
#: Values the crash check writes; outside every generated range, so a
#: recovered object shows which transaction it belongs to.
CRASH_WEIGHT, CRASH_PRICE, CRASH_PAYLOAD = 20_000, 200_000, 5_000_000


class CommitWrite(Workload):
    name = "commit_write"
    clients = 2
    #: ~27 ms per step of two rounds (reference speed) at this commit.
    rounds = 500
    requests_per_round = TXNS_PER_ROUND

    def setup(self) -> None:
        self.path = os.path.join(self.workdir, "commit.pages")
        self.data = VehicleData(self.seed, N_VEHICLES)
        self.db = repro.Database(self.path)
        self.data.load(self.db)
        self.db.create_hierarchy_index("Vehicle", "weight")
        self.db.analyze()
        self.db.checkpoint()
        #: The oracle's copy of what the database must hold.
        self.model = [dict(weight=r["weight"], price=r["price"]) for r in self.data.vehicles]
        self.trucks: List[Any] = []  # (oid, payload) of every acknowledged insert
        self.barrier = threading.Barrier(self.clients)
        self.user_bytes = [0] * self.clients

    def plan_round(self, client: int, round_id: int) -> Any:
        rng = random.Random(self.seed * 1_000_003 + round_id)
        half = N_VEHICLES // self.clients
        low = client * half
        txns = [
            (
                low + rng.randrange(half),
                WEIGHT_LOW + rng.randrange(WEIGHT_HIGH - WEIGHT_LOW + 1),
                low + rng.randrange(half),
                5000 + rng.randrange(95000),
                1000 + rng.randrange(20000),
            )
            for _ in range(TXNS_PER_ROUND)
        ]
        checkpoint = (round_id // self.clients) % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1
        return client, txns, checkpoint

    def run_round(self, client: int, plan: Any, lat: Dict[str, List[float]]) -> Any:
        db = self.db
        oids = self.data.vehicle_oids
        _client, txns, checkpoint = plan
        created = []
        for a, weight, b, price, payload in txns:
            with db.transaction():
                db.update(oids[a], {"weight": weight})
                db.update(oids[b], {"price": price})
                created.append(db.new("Truck", {"weight": weight, "payload": payload}).oid)
        if checkpoint:
            self.barrier.wait(BARRIER_TIMEOUT)
            if client == 0:
                db.checkpoint()
            self.barrier.wait(BARRIER_TIMEOUT)
        return created

    def check_round(self, plan: Any, results: Any) -> None:
        client, txns, _checkpoint = plan
        for (a, weight, b, price, payload), truck in zip(txns, results):
            self.model[a]["weight"] = weight
            self.model[b]["price"] = price
            self.trucks.append((truck, payload))
        # Read the round's last transaction back; the whole model is
        # compared once, after the passes (final_checks).
        a, weight, b, price, payload = txns[-1]
        oids = self.data.vehicle_oids
        states = [
            self.db.get_state(oids[a]),
            self.db.get_state(oids[b]),
            self.db.get_state(results[-1]),
        ]
        if (
            states[0].values["weight"] != self.model[a]["weight"]
            or states[1].values["price"] != self.model[b]["price"]
            or states[2].values["payload"] != payload
        ):
            raise WrongResult("committed transaction not readable as written")
        # Every transaction of the round writes these three shapes.
        self.user_bytes[client] += TXNS_PER_ROUND * sum(
            len(encode_object(state)) for state in states
        )

    def recover(self, client: int) -> None:
        current = self.db.txns.current
        if current is not None:
            current.abort()
        if self.barrier.broken:
            self.barrier.reset()

    def extra_counts(self) -> Dict[str, float]:
        return {"user_bytes_written": sum(self.user_bytes)}

    # -- correctness outside the timed passes ------------------------------

    def final_checks(self) -> None:
        self._check_model(self.db)
        self.db.close()
        self.db = None
        self._crash_check()

    def _check_model(self, db: Any) -> None:
        for i, oid in enumerate(self.data.vehicle_oids):
            values = db.get_state(oid).values
            if values["weight"] != self.model[i]["weight"] or values["price"] != self.model[i]["price"]:
                raise WrongResult("vehicle %d differs from the oracle's model" % i)
        for oid, payload in self.trucks:
            if db.get_state(oid).values["payload"] != payload:
                raise WrongResult("inserted truck %r differs from the oracle" % (oid,))

    def _crash_check(self) -> None:
        """Crash mid-workload, recover, and hold the engine to its word.

        Killing a process leaves the OS cache intact, so the test itself
        must discard unflushed bytes: ``FaultyFile`` rewinds every write
        an honest fsync did not cover when the seeded crash point fires.
        """
        rng = random.Random(self.seed ^ 0xC4A5)
        targets = rng.sample(range(N_VEHICLES), 2 * CRASH_TXNS)
        oids = self.data.vehicle_oids
        # A transaction is five WAL writes and one fsync; crash somewhere
        # the 200 transactions are sure to reach.
        plan = FaultPlan(self.seed, crash_after=rng.randrange(30, 6 * CRASH_TXNS - 50))
        acknowledged = 0
        with plan:
            try:
                db = repro.Database(self.path)
                for i in range(CRASH_TXNS):
                    with db.transaction():
                        db.update(oids[targets[2 * i]], {"weight": CRASH_WEIGHT + i})
                        db.update(oids[targets[2 * i + 1]], {"price": CRASH_PRICE + i})
                        db.new("Truck", {"payload": CRASH_PAYLOAD + i})
                    acknowledged += 1
            except InjectedCrash:
                pass
        if not plan.crashed:
            raise WrongResult("crash point %r never fired" % plan.crash_after)

        recovered = repro.Database(self.path)
        try:
            inserted = {
                state.values["payload"] - CRASH_PAYLOAD
                for state in recovered.storage.scan_class("Truck")
                if (state.values.get("payload") or 0) >= CRASH_PAYLOAD
            }
            for i in range(CRASH_TXNS):
                seen = (
                    recovered.get_state(oids[targets[2 * i]]).values["weight"] == CRASH_WEIGHT + i,
                    recovered.get_state(oids[targets[2 * i + 1]]).values["price"] == CRASH_PRICE + i,
                    i in inserted,
                )
                if i < acknowledged and not all(seen):
                    raise WrongResult("acknowledged commit %d lost after recovery: %r" % (i, seen))
                if i >= acknowledged and any(seen) and not (i == acknowledged and all(seen)):
                    raise WrongResult("unacknowledged commit %d partly visible: %r" % (i, seen))
        finally:
            recovered.close()
        self.crash_report = {"crash_after": plan.crash_after, "acknowledged": acknowledged}
