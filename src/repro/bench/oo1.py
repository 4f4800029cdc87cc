"""The OO1 ("Sun"/Cattell) benchmark — Section 5.6 realized.

The paper calls for "a meaningful and common benchmark for
object-oriented database systems which will improve on the preliminary
benchmarks [RUBE87]" and notes relational benchmarks like Wisconsin
don't exercise inheritance, navigation or nested objects.  OO1 — by the
same Cattell whose [RUBE87] measurements the paper cites — became that
benchmark; this module implements it for both engines:

* **kimdb**: Part objects with a set-valued ``to`` of Connection
  objects, traversed navigationally through a swizzling workspace;
* **relational baseline**: part/connection tables, traversal as
  repeated joins.

Workload (per the OO1 definition, scaled):

* N parts, each with type, x, y, build;
* 3 connections per part, 90% to "nearby" parts (the locality rule);
* **lookup**: fetch K random parts by id;
* **traversal**: 7-level closure over connections from a random part;
* **insert**: add K parts with connections, committing at the end.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..core.attribute import AttributeDef
from ..workspace.cache import ObjectWorkspace

if TYPE_CHECKING:  # pragma: no cover
    from ..core.oid import OID
    from ..database import Database
    from ..relational.engine import RelationalEngine

PART_TYPES = ("part-type0", "part-type1", "part-type2", "part-type3")
CONNECTION_TYPES = ("conn-type0", "conn-type1")

#: OO1 constants.
CONNECTIONS_PER_PART = 3
LOCALITY = 0.9  # fraction of connections to the nearest 1% of parts
TRAVERSAL_DEPTH = 7


class OO1Data:
    """Deterministic generated dataset, engine-independent."""

    def __init__(self, n_parts: int, seed: int = 1989) -> None:
        rng = random.Random(seed)
        self.n_parts = n_parts
        #: part id -> (type, x, y, build)
        self.parts: List[Tuple[str, int, int, int]] = []
        #: (from id, to id, type, length) — ids are 1-based.
        self.connections: List[Tuple[int, int, str, int]] = []
        window = max(1, n_parts // 100)
        for part_id in range(1, n_parts + 1):
            self.parts.append(
                (
                    PART_TYPES[part_id % len(PART_TYPES)],
                    rng.randrange(100000),
                    rng.randrange(100000),
                    rng.randrange(10000),
                )
            )
            for _ in range(CONNECTIONS_PER_PART):
                if rng.random() < LOCALITY:
                    low = max(1, part_id - window)
                    high = min(n_parts, part_id + window)
                    target = rng.randrange(low, high + 1)
                else:
                    target = rng.randrange(1, n_parts + 1)
                self.connections.append(
                    (
                        part_id,
                        target,
                        CONNECTION_TYPES[part_id % len(CONNECTION_TYPES)],
                        rng.randrange(1000),
                    )
                )

    def random_part_ids(self, count: int, seed: int = 7) -> List[int]:
        rng = random.Random(seed)
        return [rng.randrange(1, self.n_parts + 1) for _ in range(count)]


# ----------------------------------------------------------------------
# kimdb runner
# ----------------------------------------------------------------------


class OO1KimDB:
    """OO1 over kimdb with navigational traversal."""

    def __init__(self, db: "Database", data: OO1Data) -> None:
        self.db = db
        self.data = data
        self._part_oids: Dict[int, "OID"] = {}
        self._load()

    def _load(self) -> None:
        db = self.db
        if not db.schema.has_class("Part"):
            # Connection2 domain referenced before definition: declare the
            # classes in dependency-tolerant order by creating Connection2
            # first with an Any target, then Part.
            db.define_class(
                "Connection2",
                attributes=[
                    AttributeDef("ctype", "String"),
                    AttributeDef("length", "Integer"),
                    AttributeDef("target", "Any"),
                ],
            )
            db.define_class(
                "Part",
                attributes=[
                    AttributeDef("part_id", "Integer", required=True),
                    AttributeDef("ptype", "String"),
                    AttributeDef("x", "Integer"),
                    AttributeDef("y", "Integer"),
                    AttributeDef("build", "Integer"),
                    AttributeDef("to", "Connection2", multi=True),
                ],
            )
        with db.transaction():
            for part_id, (ptype, x, y, build) in enumerate(self.data.parts, start=1):
                handle = db.new(
                    "Part",
                    {
                        "part_id": part_id,
                        "ptype": ptype,
                        "x": x,
                        "y": y,
                        "build": build,
                        "to": [],
                    },
                )
                self._part_oids[part_id] = handle.oid
            for from_id, to_id, ctype, length in self.data.connections:
                connection = db.new(
                    "Connection2",
                    {
                        "ctype": ctype,
                        "length": length,
                        "target": self._part_oids[to_id],
                    },
                )
                state = db.get_state(self._part_oids[from_id])
                db.update(
                    self._part_oids[from_id],
                    {"to": state.values["to"] + [connection.oid]},
                )
        db.create_hierarchy_index("Part", "part_id")

    def part_oid(self, part_id: int) -> "OID":
        return self._part_oids[part_id]

    # -- the three OO1 operations -------------------------------------------

    def lookup(self, part_ids: List[int]) -> int:
        """Fetch parts by id through the index; returns hit count.

        Probes the class-hierarchy index and fetches each part's state —
        the OODB analogue of a primary-key probe (OO1's lookup measures
        the data path, not query-language parsing; see
        :meth:`lookup_oql` for the declarative path).
        """
        index = self.db.indexes.get("ch_Part_part_id")
        found = 0
        for part_id in part_ids:
            for oid in index.lookup_eq(part_id):
                self.db.get_state(oid)
                found += 1
        return found

    def lookup_oql(self, part_ids: List[int]) -> int:
        """Lookup through the full declarative pipeline (parse + plan)."""
        found = 0
        for part_id in part_ids:
            result = self.db.select(
                "SELECT p FROM Part p WHERE p.part_id = %d" % part_id
            )
            found += len(result)
        return found

    def traverse(self, root_part_id: int, depth: int = TRAVERSAL_DEPTH,
                 workspace: Optional[ObjectWorkspace] = None) -> int:
        """Navigational closure; returns parts visited (with repeats,
        as OO1 specifies hierarchy traversal counts)."""
        # "is None", not truthiness: an empty workspace is falsy (__len__).
        ws = workspace if workspace is not None else ObjectWorkspace(self.db, policy="lazy")
        visited = 0

        def walk(part, level: int) -> None:
            nonlocal visited
            visited += 1
            if level == 0:
                return
            for connection in part.refs("to"):
                target = connection.ref("target")
                if target is not None:
                    walk(target, level - 1)

        walk(ws.load(self._part_oids[root_part_id]), depth)
        return visited

    def insert(self, count: int, seed: int = 11) -> List["OID"]:
        """Insert new parts + connections in one transaction."""
        rng = random.Random(seed)
        created = []
        with self.db.transaction():
            for offset in range(count):
                part_id = self.data.n_parts + offset + 1
                handle = self.db.new(
                    "Part",
                    {
                        "part_id": part_id,
                        "ptype": PART_TYPES[part_id % len(PART_TYPES)],
                        "x": rng.randrange(100000),
                        "y": rng.randrange(100000),
                        "build": rng.randrange(10000),
                        "to": [],
                    },
                )
                connections = []
                for _ in range(CONNECTIONS_PER_PART):
                    target_id = rng.randrange(1, self.data.n_parts + 1)
                    connection = self.db.new(
                        "Connection2",
                        {
                            "ctype": CONNECTION_TYPES[0],
                            "length": rng.randrange(1000),
                            "target": self._part_oids[target_id],
                        },
                    )
                    connections.append(connection.oid)
                self.db.update(handle.oid, {"to": connections})
                self._part_oids[part_id] = handle.oid
                created.append(handle.oid)
        return created


# ----------------------------------------------------------------------
# relational runner
# ----------------------------------------------------------------------


class OO1Relational:
    """OO1 over the relational baseline: joins express traversal."""

    def __init__(self, engine: "RelationalEngine", data: OO1Data) -> None:
        self.engine = engine
        self.data = data
        self._load()

    def _load(self) -> None:
        engine = self.engine
        engine.create_table(
            "part",
            [("part_id", "int"), ("ptype", "str"), ("x", "int"), ("y", "int"), ("build", "int")],
            primary_key="part_id",
        )
        engine.create_table(
            "connection",
            [("from_id", "int"), ("to_id", "int"), ("ctype", "str"), ("length", "int")],
        )
        for part_id, (ptype, x, y, build) in enumerate(self.data.parts, start=1):
            engine.insert(
                "part",
                {"part_id": part_id, "ptype": ptype, "x": x, "y": y, "build": build},
            )
        for from_id, to_id, ctype, length in self.data.connections:
            engine.insert(
                "connection",
                {"from_id": from_id, "to_id": to_id, "ctype": ctype, "length": length},
            )
        engine.table("connection").create_index("from_id")

    def lookup(self, part_ids: List[int]) -> int:
        found = 0
        for part_id in part_ids:
            found += len(self.engine.select_eq("part", "part_id", part_id))
        return found

    def traverse(self, root_part_id: int, depth: int = TRAVERSAL_DEPTH) -> int:
        """Traversal expressed as repeated join rounds (the E4 shape)."""
        visited = 1
        frontier = [{"part_id": root_part_id}]
        for _level in range(depth):
            joined = self.engine.join(frontier, "part_id", "connection", "from_id")
            next_frontier = [{"part_id": row["to_id"]} for row in joined]
            # Each edge endpoint must be materialized as a part row.
            parts = self.engine.join(next_frontier, "part_id", "part", "part_id")
            visited += len(parts)
            frontier = next_frontier
            if not frontier:
                break
        return visited

    def insert(self, count: int, seed: int = 11) -> int:
        rng = random.Random(seed)
        for offset in range(count):
            part_id = self.data.n_parts + offset + 1
            self.engine.insert(
                "part",
                {
                    "part_id": part_id,
                    "ptype": PART_TYPES[part_id % len(PART_TYPES)],
                    "x": rng.randrange(100000),
                    "y": rng.randrange(100000),
                    "build": rng.randrange(10000),
                },
            )
            for _ in range(CONNECTIONS_PER_PART):
                self.engine.insert(
                    "connection",
                    {
                        "from_id": part_id,
                        "to_id": rng.randrange(1, self.data.n_parts + 1),
                        "ctype": CONNECTION_TYPES[0],
                        "length": rng.randrange(1000),
                    },
                )
        return count
