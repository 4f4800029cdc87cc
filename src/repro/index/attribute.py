"""Attribute indexes: single-class and class-hierarchy [KIM89b, MAIE86b].

"In relational database systems, one index is maintained on an attribute
... of one relation.  This technique, if applied directly to an
object-oriented database, will mean that one index is needed for an
attribute of each class."  That *single-class* index is kept as the
baseline.  The paper's alternative: "Since the indexed attribute is
common to all classes in the class hierarchy rooted at the
user-specified target class, it makes sense to maintain one index on the
attribute for all the classes in the class hierarchy rooted at the
target class."

Both kinds are one B+-tree over one attribute whose entries are tagged
with their class; they differ only in which classes feed the tree.  A
*class-hierarchy* index holds the rooted class and every (current and
future) subclass, so a probe against any sub-scope filters the entry
lists instead of consulting several trees.  Experiment E2 compares a
forest of single-class indexes against one class-hierarchy index.
"""

from __future__ import annotations

from typing import List

from ..core.obj import ObjectState
from ..core.schema import Schema
from ..errors import SchemaError
from .base import Index, attribute_keys


class AttributeIndex(Index):
    """Index on one attribute of a class's direct instances
    (``single-class``) or of its whole hierarchy (``class-hierarchy``)."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        target_class: str,
        attribute: str,
        hierarchy: bool,
        order: int = 64,
    ) -> None:
        if not schema.has_attribute(target_class, attribute):
            raise SchemaError(
                "class %s has no attribute %r to index" % (target_class, attribute)
            )
        super().__init__(name, schema, target_class, (attribute,), order=order)
        self.hierarchy = hierarchy
        self.kind = "class-hierarchy" if hierarchy else "single-class"

    @property
    def attribute(self) -> str:
        return self.path[0]

    def maintained_classes(self) -> List[str]:
        if self.hierarchy:
            return super().maintained_classes()
        return [self.target_class]

    def maintains(self, class_name: str) -> bool:
        if self.hierarchy:
            return self.schema.is_subclass(class_name, self.target_class)
        return class_name == self.target_class

    def on_insert(self, state: ObjectState) -> None:
        if not self.maintains(state.class_name):
            return
        for key in attribute_keys(state, self.attribute):
            self.tree.insert(key, state.class_name, state.oid)
            self._m_inserts.inc()

    def on_delete(self, state: ObjectState) -> None:
        if not self.maintains(state.class_name):
            return
        for key in attribute_keys(state, self.attribute):
            self.tree.remove(key, state.class_name, state.oid)
            self._m_removes.inc()

    def on_update(self, old: ObjectState, new: ObjectState) -> None:
        if (
            old.values.get(self.attribute) == new.values.get(self.attribute)
            and old.class_name == new.class_name
        ):
            return
        self.on_delete(old)
        self.on_insert(new)

    def per_class_counts(self) -> dict:
        """Entry counts per class — the 'key directory' view of [KIM89b]."""
        counts: dict = {}
        for _key, (cls, _oid) in self.tree.iter_entries():
            counts[cls] = counts.get(cls, 0) + 1
        return counts
