"""Rectangle ADT and spatial grid index for VLSI workloads.

"Much of the past research into efficient implementation of abstract
data types has been concerned with rectangular shapes in the context of
VLSI layouts" [STON83, BANE86].  Rectangles are stored as
``[x1, y1, x2, y2]`` lists (a storable value encoding); the grid index
buckets rectangles into uniform cells and serves as the access method
behind the ``overlaps`` predicate (experiment E14).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..core.schema import Schema
from ..errors import SchemaError
from ..index.base import Index
from .registry import AdtRegistry

RECTANGLE_TYPE = "Rectangle"


def make_rect(x1: float, y1: float, x2: float, y2: float) -> List[float]:
    """Normalized rectangle value (corners sorted)."""
    return [
        float(min(x1, x2)),
        float(min(y1, y2)),
        float(max(x1, x2)),
        float(max(y1, y2)),
    ]


def is_rect(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 4
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
        and value[0] <= value[2]
        and value[1] <= value[3]
    )


def rect_overlaps(rect: Sequence[float], x1: float, y1: float, x2: float, y2: float) -> bool:
    qx1, qy1, qx2, qy2 = min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)
    return not (rect[2] < qx1 or rect[0] > qx2 or rect[3] < qy1 or rect[1] > qy2)


def rect_contains_point(rect: Sequence[float], x: float, y: float) -> bool:
    return rect[0] <= x <= rect[2] and rect[1] <= y <= rect[3]


def rect_within(rect: Sequence[float], x1: float, y1: float, x2: float, y2: float) -> bool:
    qx1, qy1, qx2, qy2 = min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)
    return rect[0] >= qx1 and rect[1] >= qy1 and rect[2] <= qx2 and rect[3] <= qy2


def rect_area(rect: Sequence[float]) -> float:
    return max(0.0, rect[2] - rect[0]) * max(0.0, rect[3] - rect[1])


def register_rectangle_type(registry: AdtRegistry) -> None:
    """Install the Rectangle ADT with its operations (idempotent-free)."""
    registry.register_type(RECTANGLE_TYPE, is_rect)
    registry.register_operation(RECTANGLE_TYPE, "overlaps", rect_overlaps)
    registry.register_operation(RECTANGLE_TYPE, "contains_point", rect_contains_point)
    registry.register_operation(RECTANGLE_TYPE, "within", rect_within)


class SpatialGridIndex(Index):
    """Uniform grid over one rectangle-valued attribute of a class
    hierarchy: the access method behind ``overlaps``.

    An index like the B+-tree kinds — built over the coerced extent,
    maintained by the write path and selected by the index manager;
    it keeps no B+-tree entries, so ANALYZE skips it.  Each rectangle is
    registered in every grid cell it touches.  Queries collect the cells
    the search window touches and return the union of their buckets
    (candidates — the executor re-verifies exactly, as with every kimdb
    index).
    """

    kind = "spatial-grid"
    operation = "overlaps"

    def __init__(
        self, name: str, schema: Schema, class_name: str, attribute: str, cell_size: float = 16.0
    ) -> None:
        if cell_size <= 0:
            raise SchemaError("cell size must be positive")
        attr = schema.attribute(class_name, attribute)
        if attr.domain != RECTANGLE_TYPE:
            raise SchemaError(
                "attribute %s.%s has domain %s, expected %s"
                % (class_name, attribute, attr.domain, RECTANGLE_TYPE)
            )
        super().__init__(name, schema, class_name, (attribute,))
        self.attribute = attribute
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], Set[OID]] = {}
        self._rect_of: Dict[OID, List[float]] = {}

    # -- cell math ------------------------------------------------------------

    def _cells_for(self, rect: Sequence[float]):
        cx1 = int(rect[0] // self.cell_size)
        cy1 = int(rect[1] // self.cell_size)
        cx2 = int(rect[2] // self.cell_size)
        cy2 = int(rect[3] // self.cell_size)
        for cx in range(cx1, cx2 + 1):
            for cy in range(cy1, cy2 + 1):
                yield (cx, cy)

    # -- maintenance ---------------------------------------------------------------

    def _add(self, oid: OID, rect) -> None:
        if not is_rect(rect):
            return
        self._rect_of[oid] = list(rect)
        self._m_inserts.inc()
        for cell in self._cells_for(rect):
            self._cells.setdefault(cell, set()).add(oid)

    def _remove(self, oid: OID) -> None:
        rect = self._rect_of.pop(oid, None)
        if rect is None:
            return
        self._m_removes.inc()
        for cell in self._cells_for(rect):
            bucket = self._cells.get(cell)
            if bucket is not None:
                bucket.discard(oid)
                if not bucket:
                    del self._cells[cell]

    def on_insert(self, state: ObjectState) -> None:
        if self.maintains(state.class_name):
            self._add(state.oid, state.values.get(self.attribute))

    def on_delete(self, state: ObjectState) -> None:
        if self.maintains(state.class_name):
            self._remove(state.oid)

    def on_update(self, old: ObjectState, new: ObjectState) -> None:
        self.on_delete(old)
        self.on_insert(new)

    def clear(self) -> None:
        self._cells.clear()
        self._rect_of.clear()

    # -- probing ----------------------------------------------------------------------

    def candidates(self, x1: float, y1: float, x2: float, y2: float) -> List[OID]:
        self._m_probes.inc()
        window = make_rect(x1, y1, x2, y2)
        out: Set[OID] = set()
        for cell in self._cells_for(window):
            out |= self._cells.get(cell, set())
        return sorted(out)

    def estimate(self, x1: float, y1: float, x2: float, y2: float) -> int:
        window = make_rect(x1, y1, x2, y2)
        return sum(len(self._cells.get(cell, ())) for cell in self._cells_for(window))

    def __len__(self) -> int:
        return len(self._rect_of)


def register_spatial_index(
    registry: AdtRegistry,
    class_name: str,
    attribute: str,
    cell_size: float = 16.0,
) -> SpatialGridIndex:
    """Create a grid index on ``class_name.attribute`` in the database's
    index registry, where the planner finds it for ``overlaps``."""
    db = registry.db
    name = "grid_%s_%s" % (class_name, attribute)
    return db.indexes.register(
        SpatialGridIndex(name, db.schema, class_name, attribute, cell_size)
    )
