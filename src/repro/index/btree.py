"""B+-tree substrate for all secondary indexes.

A textbook in-memory B+-tree with linked leaves: logarithmic point
lookups, ordered range scans, and duplicate keys carried as per-key entry
lists.  All kimdb index kinds (single-class, class-hierarchy, nested)
store ``(class_name, oid)`` pairs as their entries; class partitioning is
what makes one class-hierarchy index answer queries against any sub-scope
of the hierarchy (the structure of [KIM89b]).

Keys of mixed Python types are made totally ordered by
:func:`normalize_key`, which prefixes each value with a type rank.

The tree is *counted* (an order-statistic B+-tree): every internal node
keeps the entry count under each child, so :meth:`BTree.count_range` is
two root-to-leaf rank descents and the planner costs every decision on
exact cardinalities, never on an estimate.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

from ..core.oid import OID
from ..errors import KimDBError

#: Maximum number of keys per node before it splits.
DEFAULT_ORDER = 64


#: Every NaN's key.  A NaN equals no float, not even itself, so every NaN
#: is keyed by this one tuple, whose member is one object: a tuple
#: compares identical members equal, so each NaN key equals the next.
_NAN_KEY = (3, float("nan"))


def normalize_key(value: Any) -> Tuple[int, Any]:
    """Map an attribute value to a totally-ordered key.

    Ranks: None < booleans < numbers (ints and floats interleaved) <
    NaN < strings < bytes < OIDs.  Within the numeric rank, ``1`` and
    ``1.0`` compare equal — matching predicate semantics, where
    ``weight = 7500`` should find a float-valued 7500.0.  Every NaN is
    one key, equal to itself and after every number (PostgreSQL's rule):
    among the numbers it would break the order a search bisects on.
    """
    if value is None:
        return (0, False)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value) if value == value else _NAN_KEY
    if isinstance(value, str):
        return (4, value)
    if isinstance(value, bytes):
        return (5, value)
    if isinstance(value, OID):
        return (6, value.value)
    raise KimDBError("value %r cannot be used as an index key" % (value,))


Entry = Tuple[str, OID]  # (class name, object id)


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: List[Tuple[int, Any]] = []
        self.values: List[List[Entry]] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("keys", "children", "counts")

    def __init__(self) -> None:
        self.keys: List[Tuple[int, Any]] = []
        self.children: List[Any] = []
        #: Entries under each child, parallel to ``children``.
        self.counts: List[int] = []


def _total(node: Any) -> int:
    """Entries under one node."""
    if isinstance(node, _Internal):
        return sum(node.counts)
    return sum(map(len, node.values))


class BTree:
    """B+-tree mapping normalized keys to lists of (class, OID) entries."""

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        if order < 4:
            raise KimDBError("B+-tree order must be >= 4")
        self.order = order
        self._root: Any = _Leaf()
        self._size = 0  # number of (key, entry) pairs

    def __len__(self) -> int:
        return self._size

    # -- search ------------------------------------------------------------

    def _find_leaf(self, key: Tuple[int, Any]) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def search(self, raw_key: Any) -> List[Entry]:
        """All entries for one key (empty list when absent)."""
        key = normalize_key(raw_key)
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return list(leaf.values[idx])
        return []

    def count(self, raw_key: Any) -> int:
        """Entries under one key (no copy of the entry list)."""
        key = normalize_key(raw_key)
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return len(leaf.values[idx])
        return 0

    def count_range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> int:
        """Exact number of entries :meth:`range` would yield for the same
        bounds: two rank descents, ``None`` bounds open."""
        below = 0 if low is None else self._rank(normalize_key(low), not include_low)
        upto = self._size if high is None else self._rank(normalize_key(high), include_high)
        return max(0, upto - below)

    def _rank(self, key: Tuple[int, Any], inclusive: bool) -> int:
        """Entries whose key is < ``key`` (``<=`` when ``inclusive``)."""
        node, rank = self._root, 0
        while isinstance(node, _Internal):
            idx = bisect.bisect_right(node.keys, key)
            rank += sum(node.counts[:idx])
            node = node.children[idx]
        cut = (bisect.bisect_right if inclusive else bisect.bisect_left)(node.keys, key)
        return rank + sum(map(len, node.values[:cut]))

    def distinct_keys(self) -> int:
        """Number of distinct keys (a leaf walk)."""
        leaf: Optional[_Leaf] = self._leftmost_leaf()
        keys = 0
        while leaf is not None:
            keys += len(leaf.keys)
            leaf = leaf.next
        return keys

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Tuple[Any, List[Entry]]]:
        """Entries with low <= key <= high (bounds optional/exclusive).

        ``None`` bounds are open.  Keys come back in their original value
        form is not preserved — the normalized payload (rank stripped) is
        yielded, which equals the inserted value for all supported types
        except OIDs (yielded as integer values).
        """
        if low is None:
            leaf = self._leftmost_leaf()
            idx = 0
            low_key = None
        else:
            low_key = normalize_key(low)
            leaf = self._find_leaf(low_key)
            idx = bisect.bisect_left(leaf.keys, low_key)
        high_key = normalize_key(high) if high is not None else None
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if low_key is not None and not include_low and key == low_key:
                    idx += 1
                    continue
                if high_key is not None:
                    if key > high_key or (key == high_key and not include_high):
                        return
                yield key[1], list(leaf.values[idx])
                idx += 1
            leaf = leaf.next
            idx = 0

    def walk(self) -> Iterator[Tuple[Tuple[int, Any], List[Entry]]]:
        """Every (:func:`normalize_key` form, entries) pair in key order:
        the total order an ordered index walk merges on."""
        leaf: Optional[_Leaf] = self._leftmost_leaf()
        while leaf is not None:
            for key, entries in zip(leaf.keys, leaf.values):
                yield key, list(entries)
            leaf = leaf.next

    def iter_keys(self) -> Iterator[Any]:
        for key, _entries in self.range():
            yield key

    def iter_entries(self) -> Iterator[Tuple[Any, Entry]]:
        for key, entries in self.range():
            for entry in entries:
                yield key, entry

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    # -- mutation -----------------------------------------------------------

    def insert(self, raw_key: Any, class_name: str, oid: OID) -> None:
        """Add one entry under a key (duplicates per key allowed)."""
        key = normalize_key(raw_key)
        split = self._insert(self._root, key, (class_name, oid))
        self._size += 1
        if split is not None:
            sep, right, right_count = split
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            new_root.counts = [self._size - right_count, right_count]
            self._root = new_root

    def _insert(self, node: Any, key, entry: Entry):
        if isinstance(node, _Leaf):
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx].append(entry)
            else:
                node.keys.insert(idx, key)
                node.values.insert(idx, [entry])
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        idx = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[idx], key, entry)
        node.counts[idx] += 1
        if split is not None:
            sep, right, right_count = split
            node.keys.insert(idx, sep)
            node.children.insert(idx + 1, right)
            node.counts[idx] -= right_count
            node.counts.insert(idx + 1, right_count)
            if len(node.keys) > self.order:
                return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right, _total(right)

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        right.counts = node.counts[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        node.counts = node.counts[: mid + 1]
        return sep, right, _total(right)

    def remove(self, raw_key: Any, class_name: str, oid: OID) -> bool:
        """Remove one entry; returns False when it was not present.

        Underfull nodes are tolerated (no rebalancing): deletions leave
        the tree valid for search, and heavy churn is handled by periodic
        rebuild in the index manager.  Empty keys are dropped from leaves.
        """
        key = normalize_key(raw_key)
        node, path = self._root, []
        while isinstance(node, _Internal):
            idx = bisect.bisect_right(node.keys, key)
            path.append((node, idx))
            node = node.children[idx]
        idx = bisect.bisect_left(node.keys, key)
        if idx >= len(node.keys) or node.keys[idx] != key:
            return False
        entries = node.values[idx]
        try:
            entries.remove((class_name, oid))
        except ValueError:
            return False
        if not entries:
            node.keys.pop(idx)
            node.values.pop(idx)
        for parent, child in path:
            parent.counts[child] -= 1
        self._size -= 1
        return True

    def clear(self) -> None:
        self._root = _Leaf()
        self._size = 0

    # -- introspection ----------------------------------------------------------

    def depth(self) -> int:
        node, levels = self._root, 1
        while isinstance(node, _Internal):
            node = node.children[0]
            levels += 1
        return levels

    def check_invariants(self) -> None:
        """Validate ordering, linkage and every internal entry count;
        used by property-based tests."""
        self._check_counts(self._root)
        previous_key = None
        leaf: Optional[_Leaf] = self._leftmost_leaf()
        counted = 0
        while leaf is not None:
            for idx, key in enumerate(leaf.keys):
                if previous_key is not None and key <= previous_key:
                    raise KimDBError("B+-tree keys out of order")
                if not leaf.values[idx]:
                    raise KimDBError("B+-tree leaf holds an empty entry list")
                counted += len(leaf.values[idx])
                previous_key = key
            leaf = leaf.next
        if counted != self._size:
            raise KimDBError(
                "B+-tree size drift: counted %d, recorded %d" % (counted, self._size)
            )

    def _check_counts(self, node: Any) -> int:
        if not isinstance(node, _Internal):
            return _total(node)
        if len(node.counts) != len(node.children):
            raise KimDBError("B+-tree node counts misaligned with children")
        for child, recorded in zip(node.children, node.counts):
            counted = self._check_counts(child)
            if counted != recorded:
                raise KimDBError(
                    "B+-tree count drift: counted %d, recorded %d" % (counted, recorded)
                )
        return sum(node.counts)

    def __repr__(self) -> str:
        return "<BTree order=%d size=%d depth=%d>" % (
            self.order,
            self._size,
            self.depth(),
        )
