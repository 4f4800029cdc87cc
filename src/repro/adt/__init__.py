"""Abstract data types: registry, operations, spatial grid index."""

from .registry import AdtRegistry, AdtType, attach
from .spatial import (
    RECTANGLE_TYPE,
    SpatialGridIndex,
    is_rect,
    make_rect,
    rect_area,
    rect_contains_point,
    rect_overlaps,
    rect_within,
    register_rectangle_type,
    register_spatial_index,
)

__all__ = [
    "AdtRegistry",
    "AdtType",
    "attach",
    "RECTANGLE_TYPE",
    "SpatialGridIndex",
    "is_rect",
    "make_rect",
    "rect_area",
    "rect_contains_point",
    "rect_overlaps",
    "rect_within",
    "register_rectangle_type",
    "register_spatial_index",
]
