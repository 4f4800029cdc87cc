"""Version mechanism — the *lower* layer of the paper's Section 5.5.

Maintains, per versionable object, a *generic object* (the version set)
and a derivation DAG of version instances.  All installation-specific
questions (who may update, what a generic reference binds to, what
deriving does to the parent) are delegated to a pluggable
:class:`~repro.versions.policies.VersionPolicy`.

The manager enforces version semantics through database hooks: updating
or deleting a frozen version raises :class:`~repro.errors.VersionError`
no matter which API path performed the mutation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..core.oid import OID
from ..errors import VersionError
from .policies import ChouKimPolicy, VersionPolicy, validate_status

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database


class VersionRecord:
    """Metadata for one version instance."""

    __slots__ = ("oid", "generic_id", "number", "parent", "status", "children")

    def __init__(
        self,
        oid: OID,
        generic_id: int,
        number: int,
        parent: Optional[OID],
        status: str,
    ) -> None:
        self.oid = oid
        self.generic_id = generic_id
        self.number = number
        self.parent = parent
        self.status = status
        self.children: List[OID] = []

    def __repr__(self) -> str:
        return "<VersionRecord %r v%d of generic %d (%s)>" % (
            self.oid,
            self.number,
            self.generic_id,
            self.status,
        )


class VersionManager:
    """Derivation-graph bookkeeping and policy enforcement."""

    def __init__(self, db: "Database", policy: Optional[VersionPolicy] = None) -> None:
        self.db = db
        self.policy = policy or ChouKimPolicy()
        self._records: Dict[OID, VersionRecord] = {}
        self._generics: Dict[int, List[OID]] = {}
        self._next_generic = 1
        db.add_pre_hook(self._pre_hook)

    # -- database hook: enforce version semantics everywhere --------------

    def _pre_hook(self, kind: str, old, new) -> None:
        if kind == "insert":
            return
        state = old
        record = self._records.get(state.oid)
        if record is None:
            return
        if kind == "update" and not self.policy.can_update(record.status):
            raise VersionError(
                "version %r is %s and not updatable under policy %s"
                % (state.oid, record.status, self.policy.name)
            )
        if kind == "delete":
            if not self.policy.can_delete(record.status):
                raise VersionError(
                    "version %r is %s and not deletable under policy %s"
                    % (state.oid, record.status, self.policy.name)
                )
            if record.children:
                raise VersionError(
                    "version %r has derived versions and cannot be deleted"
                    % (state.oid,)
                )
            self._forget(record)

    def _forget(self, record: VersionRecord) -> None:
        self._records.pop(record.oid, None)
        members = self._generics.get(record.generic_id)
        if members is not None:
            members.remove(record.oid)
            if not members:
                del self._generics[record.generic_id]
        if record.parent is not None:
            parent = self._records.get(record.parent)
            if parent is not None and record.oid in parent.children:
                parent.children.remove(record.oid)

    # -- creation / derivation ------------------------------------------------

    def create_versioned(
        self, class_name: str, values: Optional[Dict[str, Any]] = None
    ) -> OID:
        """Create the first version of a new generic object."""
        handle = self.db.new(class_name, values)
        generic_id = self._next_generic
        self._next_generic += 1
        record = VersionRecord(handle.oid, generic_id, 1, None, "transient")
        self._records[handle.oid] = record
        self._generics[generic_id] = [handle.oid]
        return handle.oid

    def derive(self, parent_oid: OID, changes: Optional[Dict[str, Any]] = None) -> OID:
        """Derive a new version from an existing one (copy + changes)."""
        parent = self.record_of(parent_oid)
        if not self.policy.can_derive(parent.status):
            raise VersionError(
                "cannot derive from %s version %r under policy %s"
                % (parent.status, parent_oid, self.policy.name)
            )
        state = self.db.get_state(parent_oid)
        values = state.values  # get_state returns a copy
        if changes:
            values.update(changes)
        handle = self.db.new(state.class_name, values)
        members = self._generics[parent.generic_id]
        number = max(self._records[m].number for m in members) + 1
        record = VersionRecord(
            handle.oid,
            parent.generic_id,
            number,
            parent_oid,
            self.policy.derived_status(parent.status),
        )
        self._records[handle.oid] = record
        members.append(handle.oid)
        parent.children.append(handle.oid)
        if self.db.notifications is not None:
            self.db.notifications.emit_derivation(parent_oid, handle.oid)
        return handle.oid

    def promote(self, oid: OID) -> str:
        """Advance a version to the next status in the policy's ladder."""
        record = self.record_of(oid)
        next_status = self.policy.promotion_of(record.status)
        if next_status is None:
            raise VersionError(
                "version %r is already %s (final)" % (oid, record.status)
            )
        validate_status(next_status)
        record.status = next_status
        return next_status

    # -- lookups --------------------------------------------------------------

    def record_of(self, oid: OID) -> VersionRecord:
        record = self._records.get(oid)
        if record is None:
            raise VersionError("object %r is not a registered version" % (oid,))
        return record

    def is_versioned(self, oid: OID) -> bool:
        return oid in self._records

    def generic_of(self, oid: OID) -> int:
        return self.record_of(oid).generic_id

    def versions_of_generic(self, generic_id: int) -> List[VersionRecord]:
        members = self._generics.get(generic_id)
        if not members:
            raise VersionError("no generic object %d" % (generic_id,))
        return sorted(
            (self._records[m] for m in members), key=lambda r: r.number
        )

    def resolve_generic(self, generic_id: int) -> OID:
        """Dynamic binding: the default version of a generic object."""
        candidates = [
            (record.status, record.number, record)
            for record in self.versions_of_generic(generic_id)
        ]
        _status, _number, chosen = self.policy.pick_default(candidates)
        return chosen.oid

    def history(self, oid: OID) -> List[OID]:
        """Derivation chain root -> ... -> oid."""
        chain: List[OID] = []
        current: Optional[OID] = oid
        while current is not None:
            chain.append(current)
            current = self.record_of(current).parent
        chain.reverse()
        return chain

    def __repr__(self) -> str:
        return "<VersionManager %d generics, %d versions, policy=%s>" % (
            len(self._generics),
            len(self._records),
            self.policy.name,
        )


def attach(db: "Database", policy: Optional[VersionPolicy] = None) -> VersionManager:
    """Enable versioning on a database (idempotent-ish: last wins)."""
    manager = VersionManager(db, policy)
    db.versions = manager
    return manager
