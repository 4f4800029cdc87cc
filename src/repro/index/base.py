"""Shared machinery for kimdb secondary indexes.

The paper's Section 3.2 derives two OODB-specific index kinds from the
two hierarchies of the data model: *class-hierarchy indexes* along the
generalization hierarchy and *nested-attribute indexes* along the
aggregation hierarchy.  Those kinds share the B+-tree substrate; every
kind — an ADT access method such as the spatial grid included — shares
the coverage/maintenance interface defined here, so the index manager
builds, maintains, selects and drops them all the same way.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..core.schema import Schema
from ..obs.metrics import MetricsRegistry
from .btree import BTree


class Index:
    """Base class for secondary indexes.

    An index *maintains* entries for the instances of its target class
    and all its (current and future) subclasses, and *answers* a
    predicate on its path over any scope inside that hierarchy; kinds
    that feed on fewer classes narrow :meth:`maintained_classes` and
    :meth:`maintains`.  Probes return OIDs sorted for determinism.
    """

    kind = "abstract"
    #: The ADT operation this index answers (``"overlaps"``); None for
    #: the B+-tree kinds, which answer comparisons.  An ADT index costs
    #: and runs a probe as ``estimate(*args)`` / ``candidates(*args)``
    #: over the predicate's arguments.
    operation: Optional[str] = None

    def __init__(
        self,
        name: str,
        schema: Schema,
        target_class: str,
        path: Sequence[str],
        order: int = 64,
    ) -> None:
        self.name = name
        self.schema = schema
        self.target_class = target_class
        self.path: Tuple[str, ...] = tuple(path)
        self.tree = BTree(order=order)
        self.bind_metrics(None)

    def bind_metrics(self, registry: Optional[MetricsRegistry]) -> None:
        """Home this index's ``index.<name>.*`` counters in ``registry``.

        Called by the index manager at registration time, before the
        initial build, so all of a database's indexes report into the
        database-wide registry; a standalone index keeps a private one.
        """
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._m_probes = self.metrics.counter("index.%s.probes" % self.name)
        self._m_inserts = self.metrics.counter("index.%s.inserts" % self.name)
        self._m_removes = self.metrics.counter("index.%s.removes" % self.name)
        self._m_recomputes = self.metrics.counter("index.%s.recomputes" % self.name)

    # -- coverage ------------------------------------------------------------

    def maintained_classes(self) -> List[str]:
        """Classes whose instances feed this index."""
        return self.schema.hierarchy_of(self.target_class)

    def maintains(self, class_name: str) -> bool:
        """Does an instance of ``class_name`` feed this index?"""
        return self.schema.is_subclass(class_name, self.target_class)

    def covers(self, target_class: str, path: Sequence[str], scope: Set[str]) -> bool:
        """Can this index answer a predicate on ``path`` over ``scope``?"""
        if tuple(path) != self.path:
            return False
        maintained = set(self.maintained_classes())
        return target_class in maintained and scope <= maintained

    # -- probes ---------------------------------------------------------------

    def _filter(self, entries: Iterable[Tuple[str, OID]], scope: Optional[Set[str]]) -> List[OID]:
        if scope is None:
            return [oid for _cls, oid in entries]
        return [oid for cls, oid in entries if cls in scope]

    def lookup_eq(self, value: Any, scope: Optional[Set[str]] = None) -> List[OID]:
        self._m_probes.inc()
        return sorted(self._filter(self.tree.search(value), scope))

    def lookup_range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
        scope: Optional[Set[str]] = None,
    ) -> List[OID]:
        self._m_probes.inc()
        out: List[OID] = []
        for _key, entries in self.tree.range(low, high, include_low, include_high):
            out.extend(self._filter(entries, scope))
        return sorted(set(out))

    def lookup_in(self, values: Iterable[Any], scope: Optional[Set[str]] = None) -> List[OID]:
        self._m_probes.inc()
        out: List[OID] = []
        for value in values:
            out.extend(self._filter(self.tree.search(value), scope))
        return sorted(set(out))

    def dependents(self, changed: Iterable[OID]) -> Set[OID]:
        """Targets whose keys were derived through a ``changed`` object
        other than the target itself (nested paths; none here)."""
        return set()

    # -- maintenance ---------------------------------------------------------

    def on_insert(self, state: ObjectState) -> None:
        raise NotImplementedError

    def on_delete(self, state: ObjectState) -> None:
        raise NotImplementedError

    def on_update(self, old: ObjectState, new: ObjectState) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        self.tree.clear()

    def __len__(self) -> int:
        return len(self.tree)

    def __repr__(self) -> str:
        return "<%s %s on %s.%s (%d entries)>" % (
            type(self).__name__,
            self.name,
            self.target_class,
            ".".join(self.path),
            len(self),
        )


def attribute_keys(state: ObjectState, attr_name: str) -> List[Any]:
    """Index keys contributed by one attribute of one object.

    A single-valued attribute contributes its value (including None so
    ``is null`` style probes work); a set-valued attribute contributes
    each element, and an empty set contributes nothing.
    """
    value = state.values.get(attr_name)
    if isinstance(value, list):
        return list(value)
    return [value]
