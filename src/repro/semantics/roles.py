"""Objects with roles [PERN90].

Section 5.4 names role modeling "a worthy example" of semantic concepts
beyond the core model: the same real-world entity (a person) plays
several roles (employee, customer, club member) with role-specific
state, acquired and abandoned dynamically — which a single-class
instance (core concept 3) cannot express directly.

kimdb models a role as a system-managed *role object* linked to its
player: the player keeps its one class and identity, each role is an
instance of a role class holding the role's attributes plus a ``player``
reference.  The manager adds and drops roles at run time, dispatches
attribute access across the player and its roles, and answers
role-scoped queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..core.attribute import AttributeDef
from ..core.oid import OID
from ..errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

#: Suffix used for generated role classes.
ROLE_CLASS_SUFFIX = "Role"


class RoleManager:
    """Dynamic roles over stored objects."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        #: role name -> (role class name, player class name)
        self._roles: Dict[str, tuple] = {}
        db.add_post_hook(self._post_hook)

    # -- definition ---------------------------------------------------------

    def define_role(
        self,
        name: str,
        player_class: str,
        attributes: Sequence[AttributeDef] = (),
    ) -> str:
        """Declare a role playable by instances of ``player_class``.

        Creates the backing role class ``<name>Role`` with the given
        attributes plus the system ``player`` reference.  Returns the
        role class name.
        """
        if name in self._roles:
            raise SchemaError("role %r is already defined" % (name,))
        self.db.schema.get_class(player_class)
        role_class = name + ROLE_CLASS_SUFFIX
        self.db.define_class(
            role_class,
            attributes=list(attributes)
            + [AttributeDef("player", player_class, required=True)],
            doc="Role object for the %r role of %s." % (name, player_class),
        )
        self._roles[name] = (role_class, player_class)
        return role_class

    def role_names(self) -> List[str]:
        return sorted(self._roles)

    def _entry(self, name: str) -> tuple:
        entry = self._roles.get(name)
        if entry is None:
            raise SchemaError("no role named %r" % (name,))
        return entry

    # -- play / abandon ---------------------------------------------------------

    def add_role(self, player: OID, name: str, values: Optional[Dict[str, Any]] = None) -> OID:
        """Make ``player`` start playing a role; returns the role object."""
        role_class, player_class = self._entry(name)
        if not self.db.schema.is_subclass(self.db.class_of(player), player_class):
            raise SchemaError(
                "object %r is a %s and cannot play role %r (needs %s)"
                % (player, self.db.class_of(player), name, player_class)
            )
        if self.role_of(player, name) is not None:
            raise SchemaError("object %r already plays role %r" % (player, name))
        values = dict(values or {})
        values["player"] = player
        return self.db.new(role_class, values).oid

    def drop_role(self, player: OID, name: str) -> None:
        role_oid = self.role_of(player, name)
        if role_oid is None:
            raise SchemaError("object %r does not play role %r" % (player, name))
        self.db.delete(role_oid)

    def _post_hook(self, kind: str, old, new) -> None:
        """Deleting a player cascades to its role objects."""
        if kind != "delete":
            return
        if old.class_name.endswith(ROLE_CLASS_SUFFIX):
            return
        for name in list(self._roles):
            role_oid = self.role_of(old.oid, name)
            if role_oid is not None and self.db.exists(role_oid):
                self.db.delete(role_oid)

    # -- access ---------------------------------------------------------------------

    def role_of(self, player: OID, name: str) -> Optional[OID]:
        """The role object through which ``player`` plays ``name``."""
        role_class, _player_class = self._entry(name)
        for state in self.db._scan(role_class, hierarchy=False):
            if state.values.get("player") == player:
                return state.oid
        return None

    def roles_of(self, player: OID) -> List[str]:
        """All roles the object currently plays, sorted."""
        return [
            name for name in self.role_names() if self.role_of(player, name) is not None
        ]

    def plays(self, player: OID, name: str) -> bool:
        return self.role_of(player, name) is not None

    def get(self, player: OID, name: str, attribute: str) -> Any:
        """Read a role attribute of a player."""
        role_oid = self.role_of(player, name)
        if role_oid is None:
            raise SchemaError("object %r does not play role %r" % (player, name))
        return self.db.get(role_oid)[attribute]

    def set(self, player: OID, name: str, changes: Dict[str, Any]) -> None:
        """Update role attributes of a player."""
        role_oid = self.role_of(player, name)
        if role_oid is None:
            raise SchemaError("object %r does not play role %r" % (player, name))
        self.db.update(role_oid, changes)

    def players(self, name: str) -> List[OID]:
        """All objects currently playing a role, sorted by OID."""
        role_class, _player_class = self._entry(name)
        return sorted(
            state.values["player"]
            for state in self.db._scan(role_class, hierarchy=False)
            if isinstance(state.values.get("player"), OID)
        )

    def query_role(self, name: str, where: str = "") -> List[OID]:
        """Players whose role object satisfies an OQL predicate tail.

        ``where`` uses the variable ``r`` over the role class, e.g.
        ``"r.salary > 50000"``.  Returns player OIDs.
        """
        role_class, _player_class = self._entry(name)
        text = "SELECT r FROM %s r" % role_class
        if where:
            text += " WHERE " + where
        out = []
        for handle in self.db.select(text):
            player = handle["player"]
            if isinstance(player, OID):
                out.append(player)
        return sorted(out)


def attach_roles(db: "Database") -> RoleManager:
    manager = RoleManager(db)
    db.roles = manager
    return manager
