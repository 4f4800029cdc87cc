"""Mandatory (multilevel) security [THUR89].

Section 5's research list includes the "extension of authorization to
account for mandatory and context-based security".  This module layers a
Bell-LaPadula-style multilevel model *under* the discretionary role
model of :mod:`repro.authz.model`:

* a total order of security levels (default: unclassified <
  confidential < secret < top_secret);
* objects carry a classification — per instance, or defaulted from
  their class (subclass classifications dominate their superclasses');
* subjects carry a clearance;
* **simple security** (no read up): a subject reads an object only if
  clearance >= classification;
* **star property** (no write down): a subject writes/creates/deletes at
  a level only if the object's level >= the subject's level, preventing
  information flow from high to low;
* query results are *filtered* (polyinstantiation-free): objects above
  the subject's clearance silently vanish, which is also how the model
  avoids covert existence channels through errors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..core.oid import OID
from ..errors import AuthorizationError

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

DEFAULT_LEVELS = ("unclassified", "confidential", "secret", "top_secret")


class MandatorySecurityManager:
    """Multilevel security enforcement for one database."""

    def __init__(self, db: "Database", levels: Sequence[str] = DEFAULT_LEVELS) -> None:
        if len(levels) < 2 or len(set(levels)) != len(levels):
            raise AuthorizationError("need at least two distinct security levels")
        self.db = db
        self.levels = tuple(levels)
        self._rank = {name: position for position, name in enumerate(levels)}
        #: class name -> default classification of its instances.
        self._class_levels: Dict[str, str] = {}
        #: per-object overrides.
        self._object_levels: Dict[OID, str] = {}
        #: subject name -> clearance.
        self._clearances: Dict[str, str] = {}
        self._subject: Optional[str] = None
        self.denials = 0

    # -- configuration -----------------------------------------------------

    def _check_level(self, level: str) -> None:
        if level not in self._rank:
            raise AuthorizationError(
                "unknown security level %r (levels: %s)"
                % (level, ", ".join(self.levels))
            )

    def classify_class(self, class_name: str, level: str) -> None:
        """Default classification for instances of a class (and its
        subclasses, unless they declare their own)."""
        self.db.schema.get_class(class_name)
        self._check_level(level)
        self._class_levels[class_name] = level

    def classify_object(self, oid: OID, level: str) -> None:
        self._check_level(level)
        self._object_levels[oid] = level

    def clear_subject(self, subject: str, level: str) -> None:
        self._check_level(level)
        self._clearances[subject] = level

    def set_subject(self, subject: Optional[str]) -> None:
        if subject is not None and subject not in self._clearances:
            raise AuthorizationError("subject %r has no clearance" % (subject,))
        self._subject = subject

    class _SubjectContext:
        def __init__(self, manager: "MandatorySecurityManager", subject: str) -> None:
            self._manager = manager
            self._subject = subject
            self._previous: Optional[str] = None

        def __enter__(self):
            self._previous = self._manager._subject
            self._manager.set_subject(self._subject)
            return self._manager

        def __exit__(self, *exc_info):
            self._manager._subject = self._previous

    def as_subject(self, subject: str) -> "_SubjectContext":
        return self._SubjectContext(self, subject)

    # -- classification resolution ------------------------------------------

    def classification_of(self, class_name: str, oid: Optional[OID] = None) -> str:
        """Effective level: object override, else nearest class default
        along the MRO, else the lowest level."""
        if oid is not None:
            override = self._object_levels.get(oid)
            if override is not None:
                return override
        if self.db.schema.has_class(class_name):
            for cls in self.db.schema.mro(class_name):
                level = self._class_levels.get(cls)
                if level is not None:
                    return level
        return self.levels[0]

    def clearance_of(self, subject: str) -> str:
        level = self._clearances.get(subject)
        if level is None:
            raise AuthorizationError("subject %r has no clearance" % (subject,))
        return level

    # -- decisions --------------------------------------------------------------

    def allowed(self, action: str, class_name: str, oid: Optional[OID] = None) -> bool:
        if self._subject is None:
            return True  # MAC not activated for this session
        clearance = self._rank[self.clearance_of(self._subject)]
        classification = self._rank[self.classification_of(class_name, oid)]
        if action == "read":
            return clearance >= classification  # no read up
        # create/write/delete: no write down.
        return classification >= clearance

    def check(self, action: str, class_name: str, oid: Optional[OID] = None) -> None:
        if not self.allowed(action, class_name, oid):
            self.denials += 1
            raise AuthorizationError(
                "mandatory security: subject %r (clearance %s) may not %s "
                "%s%s at level %s"
                % (
                    self._subject,
                    self.clearance_of(self._subject),
                    action,
                    class_name,
                    " instance %r" % (oid,) if oid is not None else "",
                    self.classification_of(class_name, oid),
                )
            )

    def reader(self) -> Optional[Callable[[OID, str], bool]]:
        """The per-object no-read-up decision a query evaluates inside
        its pipeline, bound to the subject's clearance when the read opens.

        None while MAC is not activated for this session (no subject);
        otherwise ``(oid, class_name) -> bool`` on the row's own class:
        objects classified above that clearance silently vanish.
        """
        if self._subject is None:
            return None
        clearance = self._rank[self.clearance_of(self._subject)]
        return lambda oid, cls: clearance >= self._rank[self.classification_of(cls, oid)]


def attach_mandatory(
    db: "Database", levels: Sequence[str] = DEFAULT_LEVELS
) -> MandatorySecurityManager:
    manager = MandatorySecurityManager(db, levels)
    db.mac = manager
    return manager
