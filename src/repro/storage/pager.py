"""Page stores.

The bottom of the storage stack: fixed-size pages addressed by page id.
Two implementations share one interface — :class:`MemoryPager` for
ephemeral databases and tests, :class:`FilePager` for durable databases.
Both count physical reads and writes so experiments can report
deterministic I/O costs alongside wall-clock times.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from ..errors import StorageError
from ..faults import fsync_file, wrap_file
from ..obs.metrics import MetricsRegistry
from ..obs.waits import WaitProfiler

#: Default page size.  4 KiB matches the historical systems the paper
#: discusses and keeps fault counts meaningful at laptop scale.
DEFAULT_PAGE_SIZE = 4096


class MemoryPager:
    """In-memory page store backing ephemeral databases."""

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if page_size < 128:
            raise StorageError("page size %d is too small" % page_size)
        self.page_size = page_size
        self._pages: Dict[int, bytes] = {}
        self._next_id = 0
        # A pager built standalone counts into a private registry; inside
        # a database it shares the database-wide one.
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._m_reads = self.metrics.counter("pager.reads")
        self._m_writes = self.metrics.counter("pager.writes")
        self._m_allocations = self.metrics.counter("pager.allocations")

    @property
    def page_count(self) -> int:
        return self._next_id

    def allocate(self) -> int:
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = bytes(self.page_size)
        self._m_allocations.inc()
        return page_id

    def read_page(self, page_id: int) -> bytes:
        try:
            data = self._pages[page_id]
        except KeyError:
            raise StorageError("page %d does not exist" % page_id) from None
        self._m_reads.inc()
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        if page_id not in self._pages:
            raise StorageError("page %d does not exist" % page_id)
        if len(data) != self.page_size:
            raise StorageError(
                "page write of %d bytes does not match page size %d"
                % (len(data), self.page_size)
            )
        self._pages[page_id] = bytes(data)
        self._m_writes.inc()

    def sync(self) -> None:
        """No durability for memory pagers; present for interface parity."""

    def close(self) -> None:
        self._pages.clear()


class FilePager:
    """File-backed page store.

    Pages live at ``page_id * page_size`` offsets in a single file.  The
    first 16 bytes of the file form a tiny superblock holding a magic
    string and the page size so a reopened file validates its geometry;
    page 0 therefore starts at offset ``page_size`` (page ids are still
    dense from 0).
    """

    MAGIC = b"KIMDB1\x00\x00"
    HEADER_SIZE = 16

    def __init__(
        self,
        path: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        registry: Optional[MetricsRegistry] = None,
        waits: Optional[WaitProfiler] = None,
    ) -> None:
        if page_size < 128:
            raise StorageError("page size %d is too small" % page_size)
        self.path = path
        self.page_size = page_size
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._m_reads = self.metrics.counter("pager.reads")
        self._m_writes = self.metrics.counter("pager.writes")
        self._m_allocations = self.metrics.counter("pager.allocations")
        self._waits = waits
        exists = os.path.exists(path) and os.path.getsize(path) >= self.HEADER_SIZE
        mode = "r+b" if exists else "w+b"
        # Routed through the fault-injection layer: a no-op passthrough
        # unless a FaultPlan is installed (torture tests).
        self._file = wrap_file(open(path, mode), "pager:%s" % path, self.metrics)
        if exists:
            self._validate_header()
            size = os.path.getsize(path)
            self._next_id = max(0, (size - self.HEADER_SIZE) // page_size)
        else:
            self._write_header()
            self._next_id = 0

    def _write_header(self) -> None:
        self._file.seek(0)
        header = self.MAGIC + self.page_size.to_bytes(8, "big")
        self._file.write(header)
        self._file.flush()

    def _validate_header(self) -> None:
        self._file.seek(0)
        header = self._file.read(self.HEADER_SIZE)
        if header[: len(self.MAGIC)] != self.MAGIC:
            raise StorageError("%s is not a kimdb page file" % self.path)
        stored_size = int.from_bytes(header[len(self.MAGIC) :], "big")
        if stored_size != self.page_size:
            raise StorageError(
                "%s was created with page size %d, opened with %d"
                % (self.path, stored_size, self.page_size)
            )

    @property
    def page_count(self) -> int:
        return self._next_id

    def _offset(self, page_id: int) -> int:
        return self.HEADER_SIZE + page_id * self.page_size

    def allocate(self) -> int:
        page_id = self._next_id
        self._next_id += 1
        self._file.seek(self._offset(page_id))
        self._file.write(bytes(self.page_size))
        self._m_allocations.inc()
        return page_id

    def read_page(self, page_id: int) -> bytes:
        if not 0 <= page_id < self._next_id:
            raise StorageError("page %d does not exist" % page_id)
        started = time.perf_counter() if self._waits is not None else 0.0
        self._file.seek(self._offset(page_id))
        data = self._file.read(self.page_size)
        if len(data) != self.page_size:
            raise StorageError("short read on page %d of %s" % (page_id, self.path))
        self._m_reads.inc()
        if self._waits is not None:
            self._waits.record(
                "PageRead",
                time.perf_counter() - started,
                target="page:%d" % page_id,
            )
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        if not 0 <= page_id < self._next_id:
            raise StorageError("page %d does not exist" % page_id)
        if len(data) != self.page_size:
            raise StorageError(
                "page write of %d bytes does not match page size %d"
                % (len(data), self.page_size)
            )
        started = time.perf_counter() if self._waits is not None else 0.0
        self._file.seek(self._offset(page_id))
        self._file.write(data)
        self._m_writes.inc()
        if self._waits is not None:
            self._waits.record(
                "PageWrite",
                time.perf_counter() - started,
                target="page:%d" % page_id,
            )

    def sync(self) -> None:
        self._file.flush()
        fsync_file(self._file)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def open_pager(
    path: Optional[str],
    page_size: int = DEFAULT_PAGE_SIZE,
    registry: Optional[MetricsRegistry] = None,
    waits: Optional[WaitProfiler] = None,
):
    """Factory: memory pager when ``path`` is None, file pager otherwise.

    Only the file pager reports ``PageRead``/``PageWrite`` wait events —
    a memory pager's dict lookup is not a wait.
    """
    if path is None:
        return MemoryPager(page_size, registry)
    return FilePager(path, page_size, registry, waits)
