"""Long-duration transactions: checkout/checkin between shared and
private databases.

Section 3.3: CAx environments require "long-duration transactions,
checkout and checkin of objects between a shared database and private
databases, change notification".  A :class:`PrivateWorkspace` checks
objects out of the shared database (optionally taking persistent locks),
lets a designer edit them for arbitrarily long without holding short
locks, and checks them back in with optimistic conflict detection against
the checked-out baseline.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import TransactionError


class CheckinConflict:
    """One object that changed in the shared database since checkout."""

    __slots__ = ("oid", "baseline", "theirs", "mine")

    def __init__(
        self,
        oid: OID,
        baseline: Optional[ObjectState],
        theirs: Optional[ObjectState],
        mine: Optional[ObjectState],
    ) -> None:
        self.oid = oid
        self.baseline = baseline
        self.theirs = theirs
        self.mine = mine

    def __repr__(self) -> str:
        return "<CheckinConflict %r>" % (self.oid,)


class CheckinReport:
    def __init__(self) -> None:
        self.written: List[OID] = []
        self.deleted: List[OID] = []
        self.unchanged: List[OID] = []
        self.conflicts: List[CheckinConflict] = []

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def __repr__(self) -> str:
        return "<CheckinReport %d written, %d deleted, %d conflicts>" % (
            len(self.written),
            len(self.deleted),
            len(self.conflicts),
        )


class PrivateWorkspace:
    """A designer's private database of checked-out objects.

    Two modes:

    * ``pessimistic=True`` — checkout takes an exclusive persistent lock
      on each object; nobody else can touch them until checkin/release.
      No conflicts are possible.
    * ``pessimistic=False`` (default) — optimistic: checkin compares the
      shared database's current state with the checkout baseline and
      reports conflicts instead of overwriting concurrent work.
    """

    #: Transaction-id namespace for persistent workspace locks, far away
    #: from the short-transaction counter.
    _LOCK_ID_BASE = 1 << 40

    _next_workspace = 0

    def __init__(self, db, name: str = "", pessimistic: bool = False) -> None:
        self._db = db
        self.name = name or "workspace-%d" % PrivateWorkspace._next_workspace
        PrivateWorkspace._next_workspace += 1
        self.pessimistic = pessimistic
        self._lock_owner = self._LOCK_ID_BASE + PrivateWorkspace._next_workspace
        #: Checkout baselines (state as of checkout; None = did not exist).
        self._baseline: Dict[OID, Optional[ObjectState]] = {}
        #: Local edits (state or None = locally deleted).
        self._local: Dict[OID, Optional[ObjectState]] = {}
        self.closed = False

    # -- checkout ------------------------------------------------------------

    def checkout(self, oids: Iterable[OID]) -> List[OID]:
        """Copy objects from the shared database into the workspace."""
        self._require_open()
        taken = []
        for oid in oids:
            if oid in self._baseline:
                continue
            if self.pessimistic:
                from .locks import object_resource

                self._db.locks.acquire(self._lock_owner, object_resource(oid), "X")
            state = self._db.get_state(oid)  # already a copy
            self._baseline[oid] = state
            self._local[oid] = state.copy()
            taken.append(oid)
        return taken

    # -- private edits -----------------------------------------------------------

    def get(self, oid: OID) -> ObjectState:
        self._require_open()
        state = self._local.get(oid)
        if state is None:
            raise TransactionError(
                "object %r is not checked out (or locally deleted) in %s"
                % (oid, self.name)
            )
        return state

    def update(self, oid: OID, changes: Dict[str, Any]) -> None:
        state = self.get(oid)
        # Validate against the schema so the private copy stays well-typed.
        self._db.schema.validate_state(state.class_name, changes, partial=True)
        state.values.update(changes)

    def delete(self, oid: OID) -> None:
        self.get(oid)  # must be checked out and present
        self._local[oid] = None

    def edited(self) -> List[OID]:
        """OIDs whose local copy differs from the checkout baseline."""
        out = []
        for oid, local in self._local.items():
            baseline = self._baseline[oid]
            if local is None or baseline is None:
                if local is not baseline:
                    out.append(oid)
            elif local.values != baseline.values:
                out.append(oid)
        return sorted(out)

    # -- checkin -------------------------------------------------------------------

    def checkin(self, force: bool = False) -> CheckinReport:
        """Merge local edits back into the shared database.

        Returns a report; when conflicts exist and ``force`` is False,
        nothing is written (all-or-nothing checkin).  ``force=True``
        overwrites concurrent changes.
        """
        self._require_open()
        report = CheckinReport()

        # Phase 1: detect conflicts against current shared state.
        current: Dict[OID, Optional[ObjectState]] = {}
        for oid, baseline in self._baseline.items():
            try:
                shared = self._db.get_state(oid)
            except Exception:
                shared = None
            current[oid] = shared
            if self.pessimistic or force:
                continue
            baseline_values = baseline.values if baseline is not None else None
            shared_values = shared.values if shared is not None else None
            if baseline_values != shared_values:
                report.conflicts.append(
                    CheckinConflict(oid, baseline, shared, self._local.get(oid))
                )
        if report.conflicts and not force:
            return report

        # Phase 2: apply local edits in one shared transaction.  Under
        # pessimism the workspace's persistent locks are handed to the
        # checkin transaction so the write path cannot self-conflict.
        with self._db.transaction() as txn:
            if self.pessimistic:
                self._db.locks.transfer(self._lock_owner, txn.txn_id)
            for oid in sorted(self._baseline):
                local = self._local[oid]
                baseline = self._baseline[oid]
                if local is None:
                    if current[oid] is not None:
                        self._db.delete(oid)
                        report.deleted.append(oid)
                    continue
                if baseline is not None and local.values == baseline.values:
                    report.unchanged.append(oid)
                    continue
                self._db.put_state(local)
                report.written.append(oid)
        self.release()
        return report

    def release(self) -> None:
        """Drop the workspace and any persistent locks without writing."""
        if self.pessimistic:
            self._db.locks.release_all(self._lock_owner)
        self._baseline.clear()
        self._local.clear()
        self.closed = True

    def _require_open(self) -> None:
        if self.closed:
            raise TransactionError("workspace %s is closed" % (self.name,))

    def __repr__(self) -> str:
        return "<PrivateWorkspace %s: %d objects, %s>" % (
            self.name,
            len(self._baseline),
            "pessimistic" if self.pessimistic else "optimistic",
        )
