"""Memory-resident object management (pointer swizzling, object cache)."""

from .cache import ObjectWorkspace, WorkspaceStats
from .swizzle import MemoryObject

__all__ = ["ObjectWorkspace", "WorkspaceStats", "MemoryObject"]
