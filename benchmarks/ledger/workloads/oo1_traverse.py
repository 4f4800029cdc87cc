"""``oo1_traverse``: navigation over data much larger than the buffer pool.

Embedded, durable file, one thread, ``buffer_capacity=32`` against a few
hundred pages of OO1 parts and connections.  A round is OO1's lookup (50
parts by id through the hierarchy index) plus one depth-7 traversal
through a fresh lazy workspace.  It never enters the query front door:
swizzling, buffer faults and evictions, pager reads and decode dominate.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Dict, List

import repro
from repro.bench.oo1 import CONNECTIONS_PER_PART, TRAVERSAL_DEPTH, OO1Data, OO1KimDB
from repro.workspace.cache import ObjectWorkspace

from ..harness import Workload, WrongResult

N_PARTS = 1500
BUFFER_CAPACITY = 32
LOOKUPS = 50
#: Every part has exactly three connections, all to existing parts, so a
#: depth-7 closure always visits 1 + 3 + ... + 3^7 parts (with repeats).
VISITS = sum(CONNECTIONS_PER_PART ** level for level in range(TRAVERSAL_DEPTH + 1))


class OO1Traverse(Workload):
    name = "oo1_traverse"
    clients = 1
    #: ~28 ms per round (reference speed) at this commit.
    rounds = 150
    requests_per_round = LOOKUPS + 1

    def setup(self) -> None:
        self.db = repro.Database(
            os.path.join(self.workdir, "oo1.pages"), buffer_capacity=BUFFER_CAPACITY
        )
        self.oo1 = OO1KimDB(self.db, OO1Data(N_PARTS, seed=self.seed))
        self.db.analyze()
        self.db.checkpoint()
        self._ws_hits = 0
        self._ws_faults = 0

    def plan_round(self, client: int, round_id: int) -> Any:
        rng = random.Random(self.seed * 1_000_003 + round_id)
        ids = [rng.randrange(1, N_PARTS + 1) for _ in range(LOOKUPS)]
        return ids, rng.randrange(1, N_PARTS + 1)

    def run_round(self, client: int, plan: Any, lat: Dict[str, List[float]]) -> Any:
        clock = time.perf_counter
        ids, root = plan
        t0 = clock()
        found = self.oo1.lookup(ids)
        t1 = clock()
        workspace = ObjectWorkspace(self.db, policy="lazy")
        # An empty workspace is falsy (it has __len__), and traverse()
        # takes ``workspace or <a new one>``: load the root first, or the
        # traversal runs through a workspace whose counters nobody sees.
        workspace.load(self.oo1.part_oid(root))
        visited = self.oo1.traverse(root, workspace=workspace)
        t2 = clock()
        lat.setdefault("lookup_batch", []).append(t1 - t0)
        lat.setdefault("traverse", []).append(t2 - t1)
        self._ws_hits += workspace.stats.hits
        self._ws_faults += workspace.stats.faults
        return found, visited

    def check_round(self, plan: Any, results: Any) -> None:
        found, visited = results
        if found != LOOKUPS:
            raise WrongResult("lookup found %d of %d parts" % (found, LOOKUPS))
        if visited != VISITS:
            raise WrongResult("traversal visited %d parts, not %d" % (visited, VISITS))

    def extra_counts(self) -> Dict[str, float]:
        return {"workspace.hits": self._ws_hits, "workspace.faults": self._ws_faults}
