"""Memory-resident object management and checkout/checkin: one private copy."""

from .cache import CheckinConflict, CheckinReport, ObjectWorkspace, WorkspaceStats
from .swizzle import MemoryObject

__all__ = ["CheckinConflict", "CheckinReport", "ObjectWorkspace", "WorkspaceStats", "MemoryObject"]
