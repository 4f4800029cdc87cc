"""The temporal dimension of data (Section 2.2).

The paper lists "the concept of temporal evolution of data (i.e.,
temporal dimension of data, and versioning of data)" among the
post-relational requirements.  Versioning is covered by
:mod:`repro.versions`; this module adds *transaction-time* history:
every mutation appends a (tick, state) entry to the object's history, so
past states and past extents can be queried "as of" any point.  Abort
removes the entries of the writes it rolls back: history never shows an
aborted state.

Ticks are a monotonically increasing logical clock (one per mutation),
which keeps replays deterministic; callers map ticks to wall-clock time
at a higher layer if they need to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import KimDBError

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database


class HistoryEntry:
    """One temporal version: the state written at ``tick`` (None = deleted)."""

    __slots__ = ("tick", "state")

    def __init__(self, tick: int, state: Optional[ObjectState]) -> None:
        self.tick = tick
        self.state = state

    def __repr__(self) -> str:
        kind = "delete" if self.state is None else "write"
        return "<HistoryEntry t=%d %s>" % (self.tick, kind)


class TemporalManager:
    """Transaction-time history recorder and as-of reader."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self._clock = 0
        self._history: Dict[OID, List[HistoryEntry]] = {}
        #: class name -> OIDs that ever existed in it.
        self._ever: Dict[str, set] = {}
        db.add_post_hook(self._post_hook)

    # -- recording ----------------------------------------------------------

    def _post_hook(self, kind: str, old, new) -> None:
        if self.db.txns.rolling_back:
            # A compensation undoes this object's newest entry (rollback
            # runs newest-first under the writer's X lock): remove it, so
            # an aborted write never appears in the history.
            oid = (old if new is None else new).oid
            entries = self._history.get(oid)
            if entries:
                entries.pop()
                if not entries:
                    del self._history[oid]
            return
        self._clock += 1
        if kind == "delete":
            self._history.setdefault(old.oid, []).append(
                HistoryEntry(self._clock, None)
            )
            return
        state = new.copy()
        self._history.setdefault(state.oid, []).append(
            HistoryEntry(self._clock, state)
        )
        self._ever.setdefault(state.class_name, set()).add(state.oid)

    @property
    def now(self) -> int:
        """The current logical tick."""
        return self._clock

    # -- point queries -----------------------------------------------------------

    def history_of(self, oid: OID) -> List[HistoryEntry]:
        """Full history of one object, oldest first."""
        return list(self._history.get(oid, ()))

    def as_of(self, oid: OID, tick: int) -> Optional[ObjectState]:
        """The state of an object as of ``tick`` (None if not alive then)."""
        latest: Optional[ObjectState] = None
        for entry in self._history.get(oid, ()):
            if entry.tick > tick:
                break
            latest = entry.state
        return latest.copy() if latest is not None else None

    def value_as_of(self, oid: OID, attribute: str, tick: int) -> Any:
        state = self.as_of(oid, tick)
        if state is None:
            raise KimDBError("object %r was not alive at tick %d" % (oid, tick))
        return state.values.get(attribute)

    def lifetime_of(self, oid: OID) -> Tuple[Optional[int], Optional[int]]:
        """(birth tick, death tick) — death is None while alive."""
        entries = self._history.get(oid)
        if not entries:
            return None, None
        birth = entries[0].tick
        death = entries[-1].tick if entries[-1].state is None else None
        return birth, death

    # -- extent queries ------------------------------------------------------------

    def extent_as_of(self, class_name: str, tick: int, hierarchy: bool = True) -> List[OID]:
        """OIDs alive as direct/hierarchy instances of a class at ``tick``."""
        classes = (
            self.db.schema.hierarchy_of(class_name) if hierarchy else [class_name]
        )
        out = []
        for cls in classes:
            for oid in self._ever.get(cls, ()):
                state = self.as_of(oid, tick)
                if state is not None and state.class_name == cls:
                    out.append(oid)
        return sorted(out)

    def changed_between(self, low: int, high: int) -> List[OID]:
        """Objects written or deleted in the (low, high] tick interval."""
        out = set()
        for oid, entries in self._history.items():
            for entry in entries:
                if low < entry.tick <= high:
                    out.add(oid)
                    break
        return sorted(out)

    def snapshot_count(self) -> int:
        return sum(len(entries) for entries in self._history.values())


def attach_temporal(db: "Database") -> TemporalManager:
    manager = TemporalManager(db)
    db.temporal = manager
    return manager
