"""Authorization for object-oriented databases [RABI91, THUR89].

The model of *A Model of Authorization for Next-Generation Database
Systems*: authorizations are (role, action, resource) triples, positive
or negative, and most authorizations are **implicit** — derived along
three orthogonal hierarchies:

* the **role graph** (subject hierarchy): a role inherits the grants of
  the roles it extends;
* the **granularity hierarchy**: database -> class -> object (a grant on
  a class covers its instances);
* the **class hierarchy**: a grant with ``include_subclasses=True``
  covers subclass extents, matching hierarchy-scoped queries;

plus the **action lattice**: ``write`` implies ``read``; a negative
``read`` implies negative everything-on-that-resource (you cannot write
what you may not see).

Resolution: explicit beats implicit at the same distance is simplified to
the conservative classic rule — *a negative authorization anywhere in the
applicable set overrides positives*; no applicable authorization means
denial (closed world).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple, Union

from ..core.oid import OID
from ..errors import AuthorizationError

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

ACTIONS = ("read", "write", "create", "delete")

#: action -> actions whose grant implies it.
_IMPLIED_BY = {
    "read": ("read", "write"),
    "write": ("write",),
    "create": ("create",),
    "delete": ("delete",),
}

Resource = Union[str, Tuple[str, object]]

DATABASE_RESOURCE: Resource = ("database", None)


class AuthorizationManager:
    """Role-based authorization with implicit derivation."""

    #: Role that bypasses all checks (the DBA).
    SUPERUSER = "system"

    def __init__(self, db: "Database") -> None:
        self.db = db
        #: role -> roles it extends (inherits grants from).
        self._role_parents: Dict[str, List[str]] = {self.SUPERUSER: []}
        #: (role, action) -> set of (resource, include_subclasses)
        self._grants: Dict[Tuple[str, str], Set[Tuple[Resource, bool]]] = {}
        self._denials: Dict[Tuple[str, str], Set[Tuple[Resource, bool]]] = {}
        self._subject: Optional[str] = self.SUPERUSER
        self.checks = 0
        self.denied = 0

    # -- role graph -----------------------------------------------------------

    def add_role(self, name: str, extends: Optional[List[str]] = None) -> None:
        if name in self._role_parents:
            raise AuthorizationError("role %r already exists" % (name,))
        for parent in extends or []:
            if parent not in self._role_parents:
                raise AuthorizationError("unknown parent role %r" % (parent,))
        self._role_parents[name] = list(extends or [])

    def _role_closure(self, role: str) -> Set[str]:
        if role not in self._role_parents:
            raise AuthorizationError("unknown role %r" % (role,))
        closure: Set[str] = set()
        stack = [role]
        while stack:
            current = stack.pop()
            if current in closure:
                continue
            closure.add(current)
            stack.extend(self._role_parents[current])
        return closure

    # -- grants ----------------------------------------------------------------

    @staticmethod
    def _normalize_resource(resource) -> Resource:
        if resource == "database" or resource == DATABASE_RESOURCE:
            return DATABASE_RESOURCE
        if isinstance(resource, OID):
            return ("object", resource)
        if isinstance(resource, str):
            return ("class", resource)
        if isinstance(resource, tuple) and len(resource) == 2:
            return resource
        raise AuthorizationError("cannot interpret resource %r" % (resource,))

    def grant(
        self, role: str, action: str, resource, include_subclasses: bool = True
    ) -> None:
        self._record(self._grants, role, action, resource, include_subclasses)

    def deny(
        self, role: str, action: str, resource, include_subclasses: bool = True
    ) -> None:
        self._record(self._denials, role, action, resource, include_subclasses)

    def _record(self, table, role: str, action: str, resource, include_subclasses: bool) -> None:
        if action not in ACTIONS:
            raise AuthorizationError(
                "unknown action %r (expected one of %s)" % (action, ", ".join(ACTIONS))
            )
        if role not in self._role_parents:
            raise AuthorizationError("unknown role %r" % (role,))
        table.setdefault((role, action), set()).add(
            (self._normalize_resource(resource), include_subclasses)
        )

    # -- subject ------------------------------------------------------------------

    @property
    def subject(self) -> Optional[str]:
        return self._subject

    def set_subject(self, role: Optional[str]) -> None:
        if role is not None and role not in self._role_parents:
            raise AuthorizationError("unknown role %r" % (role,))
        self._subject = role

    class _SubjectContext:
        def __init__(self, manager: "AuthorizationManager", role: str) -> None:
            self._manager = manager
            self._role = role
            self._previous: Optional[str] = None

        def __enter__(self):
            self._previous = self._manager.subject
            self._manager.set_subject(self._role)
            return self._manager

        def __exit__(self, *exc_info):
            self._manager.set_subject(self._previous)

    def as_subject(self, role: str) -> "_SubjectContext":
        """Context manager switching the current subject temporarily."""
        return self._SubjectContext(self, role)

    # -- decision ---------------------------------------------------------------------

    def _applicable_resources(
        self, class_name: str, oid: Optional[OID]
    ) -> List[Resource]:
        resources: List[Resource] = [DATABASE_RESOURCE]
        if self.db.schema.has_class(class_name):
            for ancestor in self.db.schema.mro(class_name):
                resources.append(("class", ancestor))
        else:
            # View names (virtual classes) have no MRO; they authorize
            # by exact name — the content-based authorization path.
            resources.append(("class", class_name))
        if oid is not None:
            resources.append(("object", oid))
        return resources

    def _matches(
        self,
        entries: Set[Tuple[Resource, bool]],
        resources: List[Resource],
        class_name: str,
    ) -> bool:
        for resource, include_subclasses in entries:
            if resource == DATABASE_RESOURCE and DATABASE_RESOURCE in resources:
                return True
            if resource[0] == "object" and resource in resources:
                return True
            if resource[0] == "class":
                if ("class", class_name) == resource:
                    return True
                if include_subclasses and resource in resources:
                    return True
        return False

    def allowed(self, action: str, class_name: str, oid: Optional[OID] = None) -> bool:
        return self._allowed(self._subject, action, class_name, oid)

    def _allowed(
        self, subject: Optional[str], action: str, class_name: str, oid: Optional[OID]
    ) -> bool:
        if subject is None:
            return False
        roles = self._role_closure(subject)
        if self.SUPERUSER in roles:
            return True
        resources = self._applicable_resources(class_name, oid)
        # Negative authorizations override: denial of `read` poisons all.
        for role in roles:
            for denied_action in ACTIONS:
                entries = self._denials.get((role, denied_action))
                if not entries:
                    continue
                if denied_action == action or (
                    denied_action == "read" and action in ("read", "write")
                ):
                    if self._matches(entries, resources, class_name):
                        return False
        for role in roles:
            for granting_action in _IMPLIED_BY[action]:
                entries = self._grants.get((role, granting_action))
                if entries and self._matches(entries, resources, class_name):
                    return True
        return False

    def check(self, action: str, class_name: str, oid: Optional[OID] = None) -> None:
        self.checks += 1
        if not self.allowed(action, class_name, oid):
            self.denied += 1
            raise AuthorizationError(
                "subject %r may not %s %s%s"
                % (
                    self._subject,
                    action,
                    class_name,
                    " instance %r" % (oid,) if oid is not None else "",
                )
            )

    def reader(self) -> Optional[Callable[[OID, str], bool]]:
        """The per-object read decision a query evaluates inside its
        pipeline, bound to the subject current when the read opens.

        None when that subject holds the superuser role (no per-object
        predicate at all); otherwise ``(oid, class_name) -> bool`` — no
        subject means nothing is readable, else the grant/denial
        evaluation runs per object, on the row's own class.
        """
        subject = self._subject
        if subject is not None and self.SUPERUSER in self._role_closure(subject):
            return None
        return lambda oid, class_name: self._allowed(subject, "read", class_name, oid)


def attach(db: "Database") -> AuthorizationManager:
    manager = AuthorizationManager(db)
    db.authz = manager
    return manager
