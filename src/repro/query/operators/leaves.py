"""Leaf operators: where rows enter the pipeline.

``ExtentScanOp`` walks class extents a storage page per batch,
``IndexProbeOp`` produces the
candidate OIDs of one index probe (eq/in/range/ADT), ``IndexOrderScanOp``
walks a B+-tree in key order (ORDER BY without a sort — the LIMIT above
it stops the walk early), and ``VirtualScanOp`` wraps a federation
adapter's ``scan`` so multidatabase queries run through the same
pipeline.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Set, Tuple

from ...core.obj import ObjectState
from ...core.oid import OID
from ...index.btree import normalize_key
from .base import PhysicalOperator

#: One class extent's visible states, a storage page per sequence.
ScanPages = Callable[[str], Iterable[Sequence[ObjectState]]]

#: ``normalize_key(None)``'s rank: the missing-value group of a walk.
_NONE_RANK = normalize_key(None)[0]


def _key_then_oid(item: Tuple[Any, OID]) -> Tuple[Any, int]:
    return item[0], item[1].value


class ExtentScanOp(PhysicalOperator):
    """Yield every direct instance of the scanned classes, in heap order,
    one storage page's visible states per batch (fewer when the caller
    asks for fewer; the rest of the page waits for the next call)."""

    name = "extent-scan"

    def __init__(self, scan_pages: ScanPages, classes: Sequence[str]) -> None:
        super().__init__()
        self._scan_pages = scan_pages
        self.classes = tuple(classes)
        self.detail = "scan(%s)" % ", ".join(self.classes)
        self._iter: Optional[Iterator[Sequence[ObjectState]]] = None
        self._pending: Sequence[ObjectState] = []

    def _on_open(self) -> None:
        self._iter = self._pages()
        self._pending = []

    def _pages(self) -> Iterator[Sequence[ObjectState]]:
        for class_name in self.classes:
            yield from self._scan_pages(class_name)

    def _next_batch(self, n: int) -> Sequence[ObjectState]:
        page = self._pending
        while not page:
            if self._iter is None:
                return []
            page = next(self._iter, None)
            if page is None:
                self._iter = None
                return []
        if len(page) > n:
            self._pending = page[n:]
            return page[:n]
        self._pending = []
        return page

    def _on_close(self) -> None:
        self._iter = None
        self._pending = []


class EmptyScanOp(PhysicalOperator):
    """Produce nothing: the rewrite pass proved no object can match.

    The short-circuit leaf for provably-contradictory predicates — it
    never touches storage, probes no index and dereferences nothing, so
    a contradictory query's execution cost is exactly zero rows.
    """

    name = "empty-scan"

    def __init__(self, classes: Sequence[str], reason: str = "") -> None:
        super().__init__()
        self.classes = tuple(classes)
        self.reason = reason
        self.detail = "empty(%s)" % ", ".join(self.classes)

    def _next_batch(self, n: int) -> List[Any]:
        return []


class _IteratorLeaf(PhysicalOperator):
    """A leaf whose ``_on_open`` sets ``_iter``; batches are slices of it."""

    def __init__(self) -> None:
        super().__init__()
        self._iter: Optional[Iterator[Any]] = None

    def _next_batch(self, n: int) -> List[Any]:
        if self._iter is None:
            return []
        return [row for row in islice(self._iter, n)]

    def _on_close(self) -> None:
        self._iter = None


class IndexProbeOp(_IteratorLeaf):
    """One index probe; yields the candidate OIDs it returned.

    ``fetch`` runs the probe at ``open()`` (a B+-tree probe is a single
    bulk lookup, not an incremental walk); ``probes`` counts runs.
    """

    def __init__(self, kind: str, fetch: Callable[[], Sequence[OID]], detail: str = "") -> None:
        super().__init__()
        self.kind = kind
        self.name = "adt-index-probe" if kind == "adt" else "index-%s-probe" % kind
        self.detail = detail
        self._fetch = fetch
        self.probes = 0

    def _on_open(self) -> None:
        self.probes += 1
        self._iter = iter(self._fetch())


class IndexOrderScanOp(_IteratorLeaf):
    """Walk an index's B+-tree in key order, yielding in-scope OIDs.

    Produces exactly the executor's ORDER BY order for a direct
    single-valued attribute: key order (linked leaves), ties by OID, and
    objects with a None key — the index's representation of a missing
    value — deferred to the end regardless of direction.  Because rows
    are pulled lazily, a LIMIT above this leaf ends the walk after k
    matches: the early-termination path a sort can never offer.
    """

    name = "index-order-scan"

    def __init__(
        self,
        index,
        scope: Set[str],
        descending: bool,
        deref: Callable[[OID], Optional[ObjectState]],
        changed: Optional[Callable[[], Dict[OID, Set[str]]]],
    ) -> None:
        super().__init__()
        self.index = index
        self.scope = set(scope)
        self.descending = descending
        self.detail = "%s%s" % (index.name, " desc" if descending else "")
        self.probes = 0
        self._deref = deref
        self._changed = changed

    def _on_open(self) -> None:
        self.probes += 1
        self._iter = self._oids()

    def _oids(self) -> Iterator[OID]:
        """The walk, with the snapshot's changed objects (whose entries
        hold *current* keys) merged back in at their snapshot-time keys —
        read through ``deref``, the snapshot's; a lazy merge, so a LIMIT
        above still stops the walk early."""
        moved = self._changed() if self._changed is not None else {}
        attribute = self.index.path[0]
        late: List[Tuple[Any, OID]] = []
        missing = {
            oid
            for cls, oid in self.index.tree.search(None)
            if cls in self.scope and oid not in moved
        }
        for oid, classes in moved.items():
            state = None if classes.isdisjoint(self.scope) else self._deref(oid)
            if state is None or state.class_name not in self.scope:
                continue
            value = state.values.get(attribute)
            if value is None:
                missing.add(oid)
            else:
                late.append((normalize_key(value), oid))
        late.sort(key=_key_then_oid, reverse=self.descending)
        for _key, oid in heapq.merge(
            self._walk(moved), late, key=_key_then_oid, reverse=self.descending
        ):
            yield oid
        # A missing value is last whatever the direction.
        for oid in sorted(missing, reverse=self.descending):
            yield oid

    def _walk(self, moved: Dict[OID, Set[str]]) -> Iterator[Tuple[Any, OID]]:
        """(key, OID) of in-scope unchanged entries with a present key,
        in walk order (ties by OID)."""
        groups: Iterable[Tuple[Any, List[Tuple[str, OID]]]] = self.index.tree.walk()
        if self.descending:
            # Key groups must be emitted in reverse; only the (key, OID)
            # skeleton is materialized — states are still fetched lazily
            # above us, so a LIMIT keeps dereferences < extent size.
            groups = list(groups)  # lint: ignore[operator-materialization]
            groups.reverse()
        for key, entries in groups:
            if key[0] == _NONE_RANK:
                continue  # missing values: appended after every key
            oids = (oid for cls, oid in entries if cls in self.scope and oid not in moved)
            for oid in sorted(oids, reverse=self.descending):
                yield key, oid


class VirtualScanOp(_IteratorLeaf):
    """Yield the rows of one federated virtual class (adapter scan)."""

    name = "virtual-scan"

    def __init__(self, scan: Callable[[str], Iterator[Any]], class_name: str) -> None:
        super().__init__()
        self._scan = scan
        self.class_name = class_name
        self.detail = class_name

    def _on_open(self) -> None:
        self._iter = self._scan(self.class_name)
