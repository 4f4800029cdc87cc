"""Nested-attribute indexes [BERT89].

"Just as an index on an attribute of a class is useful for evaluating a
query involving a predicate on the attribute, an index on a nested
attribute of a class should be useful for a query involving a predicate
on the attribute."

A nested-attribute index on ``Vehicle.manufacturer.location`` maps the
*terminal* key ("Detroit") directly to the OIDs of the *target* objects
(vehicles), skipping the aggregation walk at query time.  The cost moves
to maintenance: updating an intermediate object (a Company's location)
must fix the keys of every target whose path traverses it.  The index
keeps a dependency map (intermediate OID -> dependent target OIDs) to
make that incremental.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..core.schema import Schema
from ..errors import SchemaError
from .base import Index

#: Resolves an OID to the current stored state (or None if deleted).
Deref = Callable[[OID], Optional[ObjectState]]


class NestedAttributeIndex(Index):
    """Index on a path of attributes rooted at a target class hierarchy."""

    kind = "nested-attribute"

    def __init__(
        self,
        name: str,
        schema: Schema,
        target_class: str,
        path: Sequence[str],
        deref: Deref,
        order: int = 64,
    ) -> None:
        if len(path) < 2:
            raise SchemaError(
                "nested index path must have at least two attributes; "
                "use a class-hierarchy index for %r" % (path,)
            )
        self._validate_path(schema, target_class, path)
        super().__init__(name, schema, target_class, path, order=order)
        self._deref = deref
        #: target OID -> keys currently in the tree for it.
        self._keys_by_target: Dict[OID, List[Any]] = {}
        #: intermediate OID -> target OIDs whose path passes through it.
        self._deps: Dict[OID, Set[OID]] = {}
        #: target OID -> intermediates it currently depends on.
        self._deps_by_target: Dict[OID, Set[OID]] = {}

    @staticmethod
    def _validate_path(schema: Schema, target_class: str, path: Sequence[str]) -> None:
        """Check each path step exists and leads through class domains."""
        current = target_class
        for step_no, attr_name in enumerate(path):
            attr = schema.attribute(current, attr_name)  # raises if missing
            is_last = step_no == len(path) - 1
            if not is_last:
                if not schema.has_class(attr.domain):
                    raise SchemaError(
                        "path step %r: domain %r is not a class" % (attr_name, attr.domain)
                    )
                current = attr.domain

    # -- path walking ------------------------------------------------------

    def _walk(self, state: ObjectState) -> Tuple[List[Any], Set[OID]]:
        """Evaluate the path from one target: (terminal keys, intermediates).

        Set-valued steps fan out; a broken chain (None or dangling
        reference) contributes no key.  The terminal attribute's value(s)
        become keys even when None — the chain up to it resolved.  A
        dangling reference is still an intermediate: a snapshot older
        than the delete sees the object, so its targets are dependents.
        """
        keys: List[Any] = []
        intermediates: Set[OID] = set()
        frontier: List[ObjectState] = [state]
        for step_no, attr_name in enumerate(self.path):
            is_last = step_no == len(self.path) - 1
            next_frontier: List[ObjectState] = []
            for obj in frontier:
                value = obj.values.get(attr_name)
                elements = value if isinstance(value, list) else [value]
                for element in elements:
                    if is_last:
                        keys.append(element.value if isinstance(element, OID) else element)
                        continue
                    if not isinstance(element, OID):
                        continue  # broken chain
                    intermediates.add(element)
                    referenced = self._deref(element)
                    if referenced is not None:
                        next_frontier.append(referenced)
            frontier = next_frontier
            if is_last:
                break
        return keys, intermediates

    # -- incremental maintenance ------------------------------------------------

    def _remove_target(self, oid: OID, class_name: str) -> None:
        for key in self._keys_by_target.pop(oid, []):
            self.tree.remove(key, class_name, oid)
            self._m_removes.inc()
        for intermediate in self._deps_by_target.pop(oid, set()):
            dependents = self._deps.get(intermediate)
            if dependents is not None:
                dependents.discard(oid)
                if not dependents:
                    del self._deps[intermediate]

    def _index_target(self, state: ObjectState) -> None:
        keys, intermediates = self._walk(state)
        for key in keys:
            self.tree.insert(key, state.class_name, state.oid)
            self._m_inserts.inc()
        self._keys_by_target[state.oid] = keys
        self._deps_by_target[state.oid] = intermediates
        for intermediate in intermediates:
            self._deps.setdefault(intermediate, set()).add(state.oid)

    def recompute_target(self, oid: OID) -> None:
        """Re-derive keys for one target object from current stored state."""
        self._m_recomputes.inc()
        state = self._deref(oid)
        if state is None:
            return
        self._remove_target(oid, state.class_name)
        self._index_target(state)

    def on_insert(self, state: ObjectState) -> None:
        if self.maintains(state.class_name):
            self._index_target(state)

    def on_delete(self, state: ObjectState) -> None:
        if self.maintains(state.class_name):
            self._remove_target(state.oid, state.class_name)
        # The deleted object may be an intermediate for other targets.
        for target in list(self._deps.get(state.oid, ())):
            self.recompute_target(target)

    def on_update(self, old: ObjectState, new: ObjectState) -> None:
        if self.maintains(new.class_name):
            first_step = self.path[0]
            if (
                old.values.get(first_step) != new.values.get(first_step)
                or old.class_name != new.class_name
                or new.oid not in self._keys_by_target
            ):
                self._remove_target(old.oid, old.class_name)
                self._index_target(new)
        elif self.maintains(old.class_name):
            self._remove_target(old.oid, old.class_name)  # migrated out of scope
        # Intermediate change: any dependent target may have a new key.
        dependents = self._deps.get(new.oid)
        if dependents:
            for target in list(dependents):
                self.recompute_target(target)

    def dependents(self, changed: Iterable[OID]) -> Set[OID]:
        return {target for oid in changed for target in self._deps.get(oid, ())}

    def clear(self) -> None:
        super().clear()
        self._keys_by_target.clear()
        self._deps.clear()
        self._deps_by_target.clear()

    def dependency_count(self) -> int:
        return sum(len(targets) for targets in self._deps.values())
