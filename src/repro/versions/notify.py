"""Change notification [CHOU88].

Two delivery modes, both from the ORION design:

* **message-based** — a callback fires immediately when a subscribed
  object (or any instance of a subscribed class) changes;
* **flag-based** — changes set a per-object flag; interested parties
  poll with :meth:`NotificationManager.changed_since_checked`.

Derivation events from the version manager are also routed here, so a
designer can learn that a vehicle they reference has a newer version.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..core.oid import OID

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

#: callback(event, oid, extra) where event is "update", "delete" or
#: "derive"; extra is the new version's OID for derivations, else None.
Callback = Callable[[str, OID, Optional[OID]], None]


class NotificationManager:
    """Flag- and message-based change notification."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self._object_subs: Dict[OID, List[Callback]] = {}
        self._class_subs: Dict[str, List[Callback]] = {}
        self._flags: Set[OID] = set()
        db.add_post_hook(self._post_hook)

    # -- subscription ---------------------------------------------------------

    def subscribe(self, oid: OID, callback: Callback) -> None:
        """Message-based subscription to one object."""
        self._object_subs.setdefault(oid, []).append(callback)

    def subscribe_class(self, class_name: str, callback: Callback) -> None:
        """Message-based subscription to all instances of a class
        (subclass instances included, per hierarchy semantics)."""
        self._class_subs.setdefault(class_name, []).append(callback)

    def unsubscribe(self, oid: OID) -> None:
        self._object_subs.pop(oid, None)

    # -- delivery ---------------------------------------------------------------

    def _post_hook(self, kind: str, old, new) -> None:
        if kind == "insert" or self.db.txns.rolling_back:
            return  # an abort's compensation is not a change
        state = new if kind == "update" else old
        self._flags.add(state.oid)
        self._deliver(kind, state.oid, state.class_name, None)

    def emit_derivation(self, parent: OID, child: OID) -> None:
        self._flags.add(parent)
        class_name = self.db.class_of(child)
        self._deliver("derive", parent, class_name, child)

    def _deliver(
        self, event: str, oid: OID, class_name: str, extra: Optional[OID]
    ) -> None:
        for callback in self._object_subs.get(oid, ()):
            callback(event, oid, extra)
        mro = self.db.schema.mro(class_name)
        for cls in mro:
            for callback in self._class_subs.get(cls, ()):
                callback(event, oid, extra)

    # -- flag-based polling ---------------------------------------------------------

    def is_flagged(self, oid: OID) -> bool:
        return oid in self._flags

    def changed_since_checked(self, oids: Optional[List[OID]] = None) -> List[OID]:
        """Flagged objects (optionally among ``oids``); clears the flags."""
        if oids is None:
            flagged = sorted(self._flags)
            self._flags.clear()
            return flagged
        flagged = sorted(oid for oid in oids if oid in self._flags)
        for oid in flagged:
            self._flags.discard(oid)
        return flagged


def attach(db: "Database") -> NotificationManager:
    manager = NotificationManager(db)
    db.notifications = manager
    return manager
