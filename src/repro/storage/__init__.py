"""Storage substrate: pages, buffer pool, heaps, object directory."""

from .buffer import BufferPool
from .clustering import (
    AttributeClustering,
    ClusteringPolicy,
    CompositeClustering,
    NoClustering,
)
from .directory import ObjectDirectory
from .heap import RID, HeapFile
from .manager import StorageManager
from .page import SlottedPage
from .pager import DEFAULT_PAGE_SIZE, FilePager, MemoryPager, open_pager
from .serializer import decode_object, encode_object

__all__ = [
    "BufferPool",
    "ClusteringPolicy",
    "NoClustering",
    "CompositeClustering",
    "AttributeClustering",
    "ObjectDirectory",
    "RID",
    "HeapFile",
    "StorageManager",
    "SlottedPage",
    "DEFAULT_PAGE_SIZE",
    "FilePager",
    "MemoryPager",
    "open_pager",
    "decode_object",
    "encode_object",
]
