"""``fig1_scan``: the paper's own query, over data that fits the buffer.

Embedded, in-memory, one thread.  No index covers the filtered
attributes, so every query is an extent scan of the Vehicle hierarchy;
after warm-up all four texts hit the plan cache.  Time should go to the
operator pipeline, ``DerefOp``, serializer decode and snapshot
resolution — and WAL, locks, server and pager should read ~0.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import repro
from repro.bench.schemas import FIG1_QUERY

from ..harness import Workload, WrongResult
from .vehicles import COLORS, VehicleData

N_VEHICLES = 1000
N_COMPANIES = 20
PRICE_LOW, PRICE_HIGH = 30000, 60000

RANGE_QUERY = "SELECT v FROM Vehicle v WHERE v.price >= %d AND v.price < %d" % (
    PRICE_LOW,
    PRICE_HIGH,
)
GROUPBY_QUERY = "SELECT v.color, COUNT(v) FROM Vehicle v GROUP BY v.color"
TOPK_QUERY = "SELECT v FROM Vehicle v ORDER BY v.price LIMIT 10"


class Fig1Scan(Workload):
    name = "fig1_scan"
    clients = 1
    #: ~55 ms per round (reference speed) at this commit.
    rounds = 105
    requests_per_round = 4

    def setup(self) -> None:
        self.data = VehicleData(self.seed, N_VEHICLES, N_COMPANIES)
        self.db = repro.Database()
        self.data.load(self.db)
        self.db.analyze()
        self.db.checkpoint()
        rows, oids = self.data.vehicles, self.data.vehicle_oids
        detroit = {
            i for i, c in enumerate(self.data.companies) if c["location"] == "Detroit"
        }
        self.expect_fig1 = {
            oids[i]
            for i, row in enumerate(rows)
            if row["weight"] > 7500 and row["company"] in detroit
        }
        self.expect_range = {
            oids[i]
            for i, row in enumerate(rows)
            if PRICE_LOW <= row["price"] < PRICE_HIGH
        }
        self.expect_groups = {
            color: sum(1 for row in rows if row["color"] == color) for color in COLORS
        }
        by_price = sorted(range(len(rows)), key=lambda i: (rows[i]["price"], oids[i].value))
        self.expect_topk = [oids[i] for i in by_price[:10]]

    def plan_round(self, client: int, round_id: int) -> Any:
        return None

    def run_round(self, client: int, plan: Any, lat: Dict[str, List[float]]) -> Any:
        clock = time.perf_counter
        execute = self.db.execute
        t0 = clock()
        fig1 = execute(FIG1_QUERY)
        t1 = clock()
        ranged = execute(RANGE_QUERY)
        t2 = clock()
        grouped = execute(GROUPBY_QUERY)
        t3 = clock()
        topk = execute(TOPK_QUERY)
        t4 = clock()
        lat.setdefault("fig1", []).append(t1 - t0)
        lat.setdefault("groupby", []).append(t3 - t2)
        lat.setdefault("topk", []).append(t4 - t3)
        return fig1, ranged, grouped, topk

    def check_round(self, plan: Any, results: Any) -> None:
        fig1, ranged, grouped, topk = results
        if set(fig1.oids) != self.expect_fig1 or len(fig1.oids) != len(self.expect_fig1):
            raise WrongResult("FIG1_QUERY returned %d rows" % len(fig1.oids))
        if set(ranged.oids) != self.expect_range or len(ranged.oids) != len(self.expect_range):
            raise WrongResult("price range returned %d rows" % len(ranged.oids))
        groups = {row["color"]: row["count(*)"] for row in grouped.rows}
        if groups != self.expect_groups or len(grouped.rows) != len(groups):
            raise WrongResult("GROUP BY color returned %r" % (grouped.rows,))
        if topk.oids != self.expect_topk:
            raise WrongResult("ORDER BY price LIMIT 10 returned %r" % (topk.oids,))
