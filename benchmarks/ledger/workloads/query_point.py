"""``query_point``: many short indexed queries; the front door does the work.

Embedded, in-memory, one thread.  Every query touches a handful of rows,
so parse, semantic check, rewrite, cost planning, the plan cache and the
``database.py`` glue around them dominate — the layers ``fig1_scan``
never enters after warm-up.  Half of each round's 20 queries repeat one
of 8 pooled texts (plan-cache hits); the other half carry literals no
earlier query used (miss: parse + analyze + rewrite + cost-plan).
"""

from __future__ import annotations

import bisect
import random
import time
from typing import Any, Dict, List, Tuple

import repro
from repro.query.planner import EmptyScan

from ..harness import Workload, WrongResult
from .vehicles import WEIGHT_HIGH, WEIGHT_LOW, VehicleData

N_VEHICLES = 2000
RANGE_WIDTH = 40
#: Fresh queries per round, by shape (sums to 10).
FRESH_MIX = (("eq", 4), ("range", 3), ("walk", 2), ("empty", 1))
POOLED_PER_ROUND = 10

_TEXT = {
    "eq": "SELECT v FROM Vehicle v WHERE v.weight = %d",
    "range": "SELECT v FROM Vehicle v WHERE v.weight >= %d AND v.weight < %d",
    "walk": "SELECT v FROM Vehicle v WHERE v.weight < %d ORDER BY v.weight LIMIT 10",
    "empty": "SELECT v FROM Vehicle v WHERE v.weight > %d AND v.weight < %d",
}
#: The walk's bound stays above every plausible 10th-lightest weight, so
#: the index walk always ends after ten matches.
WALK_LOW = 6000


def _args(shape: str, literal: int) -> Tuple[int, ...]:
    if shape == "range":
        return (literal, literal + RANGE_WIDTH)
    if shape == "empty":
        return (literal, literal - 1 - literal % 7)
    return (literal,)


class QueryPoint(Workload):
    name = "query_point"
    clients = 1
    #: ~35 ms per round (reference speed) at this commit.
    rounds = 150
    requests_per_round = 20

    def setup(self) -> None:
        self.data = VehicleData(self.seed, N_VEHICLES)
        self.db = repro.Database()
        self.data.load(self.db)
        self.db.create_hierarchy_index("Vehicle", "weight")
        self.db.create_class_index("Company", "name")
        self.db.analyze()
        self.db.checkpoint()
        oids = self.data.vehicle_oids
        #: (weight, oid value, oid) in the engine's ORDER BY order.
        self.by_weight = sorted(
            (row["weight"], oids[i].value, oids[i])
            for i, row in enumerate(self.data.vehicles)
        )
        self.weights = [entry[0] for entry in self.by_weight]

        # Literal supplies: one seed-shuffled sequence per shape, the
        # first two of each reserved for the pooled texts, the rest
        # handed out by round id — so a fresh literal is never reused
        # and never equals a pooled one.
        rng = random.Random(self.seed ^ 0x51AB)
        self.supply: Dict[str, List[int]] = {}
        for shape, low in (("eq", WEIGHT_LOW), ("range", WEIGHT_LOW),
                           ("walk", WALK_LOW), ("empty", WEIGHT_LOW + 8)):
            values = list(range(low, WEIGHT_HIGH + 1))
            rng.shuffle(values)
            self.supply[shape] = values
        self.pool: List[Tuple[str, str, Tuple[int, ...]]] = []
        for shape, _count in FRESH_MIX:
            for literal in self.supply[shape][:2]:
                args = _args(shape, literal)
                self.pool.append((shape, _TEXT[shape] % args, args))
        #: Position of each of the round's 20 queries: True = fresh.
        slots = [True] * 10 + [False] * POOLED_PER_ROUND
        rng.shuffle(slots)
        self.slots = slots

    def plan_round(self, client: int, round_id: int) -> Any:
        rng = random.Random(self.seed * 1_000_003 + round_id)
        fresh: List[Tuple[str, str, Tuple[int, ...]]] = []
        for shape, count in FRESH_MIX:
            start = 2 + round_id * count
            literals = self.supply[shape][start : start + count]
            if len(literals) < count:
                raise ValueError("round %d exhausts the %s literals" % (round_id, shape))
            for literal in literals:
                args = _args(shape, literal)
                fresh.append((shape, _TEXT[shape] % args, args))
        rng.shuffle(fresh)
        pooled = [self.pool[rng.randrange(len(self.pool))] for _ in range(POOLED_PER_ROUND)]
        plan = []
        for is_fresh in self.slots:
            plan.append((is_fresh,) + (fresh.pop() if is_fresh else pooled.pop()))
        return plan

    def run_round(self, client: int, plan: Any, lat: Dict[str, List[float]]) -> Any:
        clock = time.perf_counter
        execute = self.db.execute
        hit = lat.setdefault("cache_hit", [])
        miss = lat.setdefault("cache_miss", [])
        results = []
        for is_fresh, _shape, text, _args_ in plan:
            t0 = clock()
            result = execute(text)
            (miss if is_fresh else hit).append(clock() - t0)
            results.append(result)
        return results

    def _expected(self, shape: str, args: Tuple[int, ...]) -> List[Any]:
        weights = self.weights
        if shape == "eq":
            low, high = bisect.bisect_left(weights, args[0]), bisect.bisect_right(weights, args[0])
        elif shape == "range":
            low, high = bisect.bisect_left(weights, args[0]), bisect.bisect_left(weights, args[1])
        elif shape == "walk":
            low, high = 0, min(10, bisect.bisect_left(weights, args[0]))
        else:
            low = high = 0
        return [entry[2] for entry in self.by_weight[low:high]]

    def check_round(self, plan: Any, results: Any) -> None:
        for (_fresh, shape, text, args), result in zip(plan, results):
            expected = self._expected(shape, args)
            got = result.oids
            ok = got == expected if shape == "walk" else (
                len(got) == len(expected) and set(got) == set(expected)
            )
            if shape == "empty" and not isinstance(result.plan.access, EmptyScan):
                raise WrongResult("%r did not plan to EmptyScan" % text)
            if not ok:
                raise WrongResult(
                    "%r returned %d rows, oracle has %d" % (text, len(got), len(expected))
                )
