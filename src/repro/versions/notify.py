"""Change notification [CHOU88].

Two delivery modes, both from the ORION design:

* **message-based** — a callback fires immediately when a subscribed
  object (or any instance of a subscribed class) changes: at the write,
  not at commit, so a write that later aborts has been delivered;
* **flag-based** — changes set a per-object flag; interested parties
  poll with :meth:`NotificationManager.changed_since_checked`.  An
  abort takes back the flags its transaction set.

Derivation events from the version manager are also routed here, so a
designer can learn that a vehicle they reference has a newer version.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

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
        #: Flagged OID -> id of the transaction that set the flag (None
        #: for a derivation), so an abort takes back only its own flags.
        self._flags: Dict[OID, Optional[int]] = {}
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
        txns = self.db.txns
        if txns.rolling_back:
            # An abort's compensation is not a change: it takes back a
            # flag its transaction set.  Only that transaction can still
            # be active while holding the object's X lock, so a flag
            # from a committed change stays.
            oid = (new or old).oid
            if self._flags.get(oid) in txns.active_transactions():
                del self._flags[oid]
            return
        if kind == "insert":
            return
        state = new if kind == "update" else old
        self._flags.setdefault(state.oid, txns.current.txn_id)
        self._deliver(kind, state.oid, state.class_name, None)

    def emit_derivation(self, parent: OID, child: OID) -> None:
        self._flags.setdefault(parent, None)
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
            del self._flags[oid]
        return flagged


def attach(db: "Database") -> NotificationManager:
    manager = NotificationManager(db)
    db.notifications = manager
    return manager
