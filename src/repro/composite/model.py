"""Composite objects [KIM89c].

A composite object is a rooted graph of *part-of* relationships declared
through composite attributes (``AttributeDef(composite=True)``).  The
revisited model distinguishes:

* **exclusive** parts — belong to at most one parent (ownership);
* **shared** parts — may be referenced by several composite parents;
* **dependent** parts — existence depends on the parent: deleting the
  parent cascades to them (unless another parent still holds them).

The manager enforces exclusivity on insert/update through database
pre-hooks, performs delete propagation through post-hooks, and offers
closure queries (``parts_of``) used by the clustering experiment E6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import CompositeError

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

#: (parent oid, attribute name) — one composite link endpoint.
Link = Tuple[OID, str]


class CompositeManager:
    """Tracks part-of links and enforces composite semantics."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        #: part oid -> set of (parent oid, attribute) links referencing it.
        self._parents: Dict[OID, Set[Link]] = {}
        db.add_pre_hook(self._pre_hook)
        db.add_post_hook(self._post_hook)
        #: Re-entrancy guard for cascade deletes.
        self._cascading: Set[OID] = set()

    # -- link extraction -----------------------------------------------------

    def _composite_links(self, state: ObjectState) -> List[Tuple[str, OID, bool, bool]]:
        """(attribute, part oid, exclusive, dependent) for each link."""
        links = []
        attrs = self.db.schema.attributes(state.class_name)
        for name, attr in attrs.items():
            if not attr.composite:
                continue
            value = state.values.get(name)
            elements = value if isinstance(value, list) else [value]
            for element in elements:
                if isinstance(element, OID):
                    links.append((name, element, attr.exclusive, attr.dependent))
        return links

    # -- hooks ------------------------------------------------------------------

    def _pre_hook(self, kind: str, old, new) -> None:
        if kind == "delete":
            return
        state = new
        old_links = set()
        if kind == "update" and old is not None:
            old_links = {(name, part) for name, part, _x, _d in self._composite_links(old)}
        for name, part, exclusive, _dependent in self._composite_links(state):
            if not exclusive or (name, part) in old_links:
                continue
            holders = self._parents.get(part, set())
            foreign = {(p, a) for p, a in holders if p != state.oid}
            if foreign:
                parent, attr = sorted(foreign, key=lambda l: l[0].value)[0]
                raise CompositeError(
                    "object %r is already an exclusive part of %r via %r"
                    % (part, parent, attr)
                )

    def _post_hook(self, kind: str, old, new) -> None:
        if kind == "insert":
            self._add_links(new)
        elif kind == "update":
            self._drop_links(old)
            self._add_links(new)
        elif kind == "delete":
            self._drop_links(old)
            self._cascade(old)

    def _add_links(self, state: ObjectState) -> None:
        for name, part, _exclusive, _dependent in self._composite_links(state):
            self._parents.setdefault(part, set()).add((state.oid, name))

    def _drop_links(self, state: ObjectState) -> None:
        for name, part, _exclusive, _dependent in self._composite_links(state):
            holders = self._parents.get(part)
            if holders is not None:
                holders.discard((state.oid, name))
                if not holders:
                    del self._parents[part]

    def _cascade(self, state: ObjectState) -> None:
        """Delete dependent parts that no longer have any parent."""
        if self.db.txns.rolling_back:
            # Rollback compensations replay each mutation individually;
            # cascading here would delete objects the rollback is about
            # to restore.
            return
        if state.oid in self._cascading:
            return
        for _name, part, _exclusive, dependent in self._composite_links(state):
            if not dependent:
                continue
            if self._parents.get(part):
                continue  # still held by another composite parent
            if not self.db.exists(part):
                continue
            self._cascading.add(state.oid)
            try:
                self.db.delete(part)
            finally:
                self._cascading.discard(state.oid)

    # -- queries -----------------------------------------------------------------

    def parents_of(self, part: OID) -> List[Link]:
        return sorted(self._parents.get(part, set()), key=lambda l: (l[0].value, l[1]))

    def is_part(self, oid: OID) -> bool:
        return bool(self._parents.get(oid))

    def parts_of(self, root: OID, transitive: bool = True) -> List[OID]:
        """Parts reachable from ``root`` through composite attributes."""
        out: List[OID] = []
        seen: Set[OID] = {root}
        frontier = [root]
        while frontier:
            current = frontier.pop()
            try:
                state = self.db.get_state(current)
            except Exception:
                continue
            for _name, part, _exclusive, _dependent in self._composite_links(state):
                if part in seen:
                    continue
                seen.add(part)
                out.append(part)
                if transitive:
                    frontier.append(part)
        return sorted(out)

    def composite_root_of(self, oid: OID) -> OID:
        """Walk parent links up to a root (ties broken by lowest OID)."""
        current = oid
        seen = {current}
        while True:
            parents = self.parents_of(current)
            parents = [link for link in parents if link[0] not in seen]
            if not parents:
                return current
            current = parents[0][0]
            seen.add(current)

    # -- the composite object as a unit [KIM89c] --------------------------

    def lock_composite(self, root: OID, write: bool = False) -> int:
        """Lock a whole composite object (root + transitive parts).

        [KIM89c] treats the composite object as a unit of locking: a
        designer working on an assembly locks the assembly, not each
        part.  Locks are taken in OID order to avoid deadlocks between
        two transactions locking overlapping composites.  Requires an
        active transaction; returns the number of objects locked.
        """
        txn = self.db.txns.current
        if txn is None:
            raise CompositeError(
                "composite locking requires an active transaction"
            )
        members = sorted([root] + self.parts_of(root))
        for oid in members:
            self.db._lock(txn, oid, self.db.class_of(oid), write=write)
        return len(members)

    def checkout_composite(self, workspace, root: OID):
        """Check a whole composite object out into a private workspace."""
        members = [root] + self.parts_of(root)
        return workspace.checkout(members)

    def delete_composite(self, root: OID) -> int:
        """Delete a composite object and every *exclusive* part.

        Unlike plain :meth:`Database.delete` (which cascades only along
        dependent attributes), this removes the full exclusive closure —
        the "delete the assembly" operation.  Shared parts survive.
        Returns the number of objects deleted.
        """
        exclusive: List[OID] = []
        seen = {root}
        frontier = [root]
        while frontier:
            current = frontier.pop()
            try:
                state = self.db.get_state(current)
            except Exception:
                continue
            for _name, part, is_exclusive, _dep in self._composite_links(state):
                if part in seen or not is_exclusive:
                    continue
                seen.add(part)
                exclusive.append(part)
                frontier.append(part)
        with self.db._auto_txn():
            # Plain delete already cascades along *dependent* composite
            # attributes; the explicit pass catches exclusive parts that
            # were not marked dependent.
            self.db.delete(root)
            for part in exclusive:
                if self.db.exists(part):
                    self.db.delete(part)
        return 1 + sum(1 for part in exclusive if not self.db.exists(part))

    def rebuild(self) -> None:
        """Re-derive all links from stored data (after bulk loads)."""
        self._parents.clear()
        for class_def in self.db.schema.user_classes():
            for state in self.db.storage.scan_class(class_def.name):
                self._add_links(state)


def attach(db: "Database") -> CompositeManager:
    manager = CompositeManager(db)
    manager.rebuild()
    db.composites = manager
    return manager
