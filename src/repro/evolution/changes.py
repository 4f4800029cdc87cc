"""Schema change operations — the [BANE87] taxonomy.

Three groups of changes, all validated against the invariants of
:mod:`repro.evolution.invariants`:

1. changes to the contents of a class: add / drop / rename attributes
   and methods;
2. changes to hierarchy edges: add / drop a superclass;
3. changes to nodes: add / drop / rename a class, migrate instances.

Instance handling follows ORION's *lazy coercion* strategy: adding or
dropping an attribute is a metadata-only operation — stored records are
coerced to the current class definition when loaded (experiment E12).
Renames and class drops rewrite eagerly because the stored names would
otherwise be unrecoverable.  ``migrate_instance`` (and with it
``drop_class``) does it through ``Database._write`` like any other
writer, so the move is logged, undoable and snapshot-correct; the two
renames are the documented exception (see ``rename_attribute``).

Every change lands through ``Schema._bump``, which bumps the schema
version — cached plans and query statistics compare it when read, so a
plan compiled against the old class definition never runs against the
new one — and empties the storage manager's decoded states, which were
coerced to the old definition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..core.attribute import AttributeDef
from ..core.method import MethodDef
from ..core.obj import ObjectState
from ..errors import SchemaError, SchemaEvolutionError
from .invariants import check_all

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database


class SchemaEvolution:
    """Change-operation executor bound to one database."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.schema = db.schema
        #: Audit trail of applied operations (operation, arguments).
        self.log: List[str] = []

    # -- helpers ------------------------------------------------------------

    def _checked(self, description: str, apply: Callable[[], None], rollback: Callable[[], None]) -> None:
        """Apply a change, validate invariants, roll back on violation."""
        apply()
        try:
            check_all(self.schema)
        except SchemaEvolutionError:
            rollback()
            raise
        self.log.append(description)

    def _rebuild_indexes_on(self, class_name: str) -> None:
        for index in self.db.indexes.indexes_on(class_name):
            self.db.indexes.rebuild(index.name)

    # -- group 1: class contents ------------------------------------------------

    def add_attribute(self, class_name: str, attr: AttributeDef) -> None:
        """Metadata-only; instances gain the default lazily on load."""
        cls = self.schema.get_class(class_name)

        def apply() -> None:
            cls._add_own_attribute(attr)
            self.schema._bump(class_name)

        def rollback() -> None:
            cls._drop_own_attribute(attr.name)
            self.schema._bump(class_name)

        self._checked("add_attribute %s.%s" % (class_name, attr.name), apply, rollback)

    def drop_attribute(self, class_name: str, attr_name: str) -> None:
        """Metadata-only; stored values are dropped lazily on load."""
        cls = self.schema.get_class(class_name)
        dropped = cls.own_attribute(attr_name)
        if dropped is None:
            raise SchemaEvolutionError(
                "class %s does not define attribute %r (it may be inherited; "
                "drop it on the defining class)" % (class_name, attr_name)
            )
        # Refuse to break existing indexes silently.
        for index in self.db.indexes.all_indexes():
            if class_name in index.maintained_classes() and attr_name in index.path:
                raise SchemaEvolutionError(
                    "attribute %s.%s is used by index %r; drop the index first"
                    % (class_name, attr_name, index.name)
                )

        def apply() -> None:
            cls._drop_own_attribute(attr_name)
            self.schema._bump(class_name)

        def rollback() -> None:
            cls._add_own_attribute(dropped)
            self.schema._bump(class_name)

        self._checked("drop_attribute %s.%s" % (class_name, attr_name), apply, rollback)

    def rename_attribute(self, class_name: str, old_name: str, new_name: str) -> int:
        """Eager: renames the definition and rewrites stored instances.

        Like ``rename_class``, not a ``Database._write`` caller.  The
        catalog is persisted at checkpoint and is neither logged nor
        versioned, so a logged rewrite would be replayed after a crash
        against the pre-rename catalog, where coercion drops the new
        name and defaults the old one: committed values would read as
        absent.  Unlogged, the rename is lost or kept as a whole with
        the catalog — not undoable, durable at the next checkpoint; run
        it outside transactions, like any DDL.

        Returns the number of instances rewritten.
        """
        cls = self.schema.get_class(class_name)
        attr = cls.own_attribute(old_name)
        if attr is None:
            raise SchemaEvolutionError(
                "class %s does not define attribute %r" % (class_name, old_name)
            )
        renamed = attr.clone()
        renamed.name = new_name
        renamed.defined_in = attr.defined_in

        def apply() -> None:
            cls._drop_own_attribute(old_name)
            cls._add_own_attribute(renamed)
            self.schema._bump(class_name)

        def rollback() -> None:
            cls._drop_own_attribute(new_name)
            cls._add_own_attribute(attr)
            self.schema._bump(class_name)

        self._checked(
            "rename_attribute %s.%s -> %s" % (class_name, old_name, new_name),
            apply,
            rollback,
        )
        count = 0
        for sub in self.schema.hierarchy_of(class_name):
            # As stored: a coerced read would have dropped the old name.
            for state in list(self.db.storage.scan_stored(sub)):
                if old_name in state.values:
                    state = state.copy()
                    state.values[new_name] = state.values.pop(old_name)
                    self.db.storage.overwrite(state)  # lint: ignore[single-write-path]
                count += 1
        self._rebuild_indexes_on(class_name)
        return count

    def change_domain(
        self, class_name: str, attr_name: str, new_domain: str, validate: bool = True
    ) -> int:
        """Change an attribute's domain.

        With ``validate=True`` (default) every stored instance of the
        hierarchy is checked against the new domain first; the change is
        refused (nothing modified) if any value would become ill-typed —
        domain changes must not invalidate existing data silently.
        Returns the number of instances validated.
        """
        cls = self.schema.get_class(class_name)
        attr = cls.own_attribute(attr_name)
        if attr is None:
            raise SchemaEvolutionError(
                "class %s does not define attribute %r" % (class_name, attr_name)
            )
        if new_domain != "Any" and not self.schema.has_class(new_domain):
            raise SchemaEvolutionError("unknown domain class %r" % (new_domain,))
        trial = attr.clone()
        trial.domain = new_domain
        checked = 0
        if validate:
            for cls_name in self.schema.hierarchy_of(class_name):
                for state in self.db.storage.scan_class(cls_name):
                    value = state.values.get(attr_name)
                    if value is None or (isinstance(value, list) and not value):
                        continue
                    try:
                        self.schema.check_value(trial, value, self.db._deref_class)
                    except Exception as exc:
                        raise SchemaEvolutionError(
                            "instance %r violates new domain %s for %s.%s: %s"
                            % (state.oid, new_domain, class_name, attr_name, exc)
                        ) from exc
                    checked += 1
        old_domain = attr.domain

        def apply() -> None:
            attr.domain = new_domain
            self.schema._bump(class_name)

        def rollback() -> None:
            attr.domain = old_domain
            self.schema._bump(class_name)

        self._checked(
            "change_domain %s.%s: %s -> %s"
            % (class_name, attr_name, old_domain, new_domain),
            apply,
            rollback,
        )
        return checked

    def change_default(self, class_name: str, attr_name: str, default) -> None:
        cls = self.schema.get_class(class_name)
        attr = cls.own_attribute(attr_name)
        if attr is None:
            raise SchemaEvolutionError(
                "class %s does not define attribute %r" % (class_name, attr_name)
            )
        attr.default = default
        self.schema._bump(class_name)
        self.log.append("change_default %s.%s" % (class_name, attr_name))

    def add_method(self, class_name: str, meth: MethodDef) -> None:
        cls = self.schema.get_class(class_name)

        def apply() -> None:
            cls._add_own_method(meth)
            self.schema._bump(class_name)

        def rollback() -> None:
            cls._drop_own_method(meth.name)
            self.schema._bump(class_name)

        self._checked("add_method %s.%s" % (class_name, meth.name), apply, rollback)

    def drop_method(self, class_name: str, meth_name: str) -> None:
        cls = self.schema.get_class(class_name)
        dropped = cls.own_method(meth_name)
        if dropped is None:
            raise SchemaEvolutionError(
                "class %s does not define method %r" % (class_name, meth_name)
            )

        def apply() -> None:
            cls._drop_own_method(meth_name)
            self.schema._bump(class_name)

        def rollback() -> None:
            cls._add_own_method(dropped)
            self.schema._bump(class_name)

        self._checked("drop_method %s.%s" % (class_name, meth_name), apply, rollback)

    # -- group 2: hierarchy edges ---------------------------------------------

    def add_superclass(self, class_name: str, superclass: str) -> None:
        def apply() -> None:
            self.schema._add_superclass_edge(class_name, superclass)

        def rollback() -> None:
            self.schema._remove_superclass_edge(class_name, superclass)

        self._checked(
            "add_superclass %s -> %s" % (class_name, superclass), apply, rollback
        )
        self._rebuild_indexes_on(superclass)

    def drop_superclass(self, class_name: str, superclass: str) -> None:
        cls = self.schema.get_class(class_name)
        original_supers = list(cls.superclasses)

        def apply() -> None:
            self.schema._remove_superclass_edge(class_name, superclass)

        def rollback() -> None:
            cls.superclasses = list(original_supers)
            for sup in original_supers:
                self.schema._direct_subclasses[sup].add(class_name)
            self.schema._bump(class_name)

        self._checked(
            "drop_superclass %s -/-> %s" % (class_name, superclass), apply, rollback
        )
        self._rebuild_indexes_on(superclass)

    # -- group 3: nodes ------------------------------------------------------------

    def add_class(self, *args, **kwargs):
        """Alias of :meth:`Database.define_class` for taxonomy completeness."""
        cls = self.db.define_class(*args, **kwargs)
        self.log.append("add_class %s" % cls.name)
        return cls

    def drop_class(self, class_name: str, migrate_to: Optional[str] = None) -> int:
        """Drop a leaf class.

        Instances are migrated to ``migrate_to`` (keeping the attributes
        that class declares) or deleted when no target is given.  Returns
        the number of instances affected.
        """
        if self.schema.subclasses(class_name):
            raise SchemaEvolutionError(
                "class %s has subclasses and cannot be dropped" % (class_name,)
            )
        for index in self.db.indexes.all_indexes():
            if index.target_class == class_name:
                raise SchemaEvolutionError(
                    "class %s is the target of index %r; drop the index first"
                    % (class_name, index.name)
                )
        oids = list(self.db.storage.oids_of_class(class_name))
        count = 0
        if migrate_to is not None:
            for oid in oids:
                self.migrate_instance(oid, migrate_to)
                count += 1
        else:
            for oid in oids:
                self.db.delete(oid)
                count += 1
        self.schema._remove_class_entry(class_name)
        check_all(self.schema)
        self.log.append("drop_class %s" % class_name)
        return count

    def rename_class(self, old_name: str, new_name: str) -> int:
        """Rename a class, rewriting stored instances' class tags.

        Not a ``Database._write`` caller, for ``rename_attribute``'s
        reason — a logged record tagged ``new_name`` could not be
        replayed against the pre-rename catalog a crash before the next
        checkpoint reopens with — and one more: the primitive resolves
        both images' classes in the catalog (coercion, index scopes,
        hooks) and no catalog state knows both names.  Unlogged, not
        undoable, durable as a whole at the next checkpoint; an open
        snapshot reads its before-images under the new name.
        """
        self.schema.get_class(old_name)
        self.schema._rename_class_entry(old_name, new_name)
        count = 0
        # As stored: a coerced read would find no class to coerce to.
        for state in list(self.db.storage.scan_stored(old_name)):
            migrated = ObjectState(state.oid, new_name, state.values)
            self.db.storage.overwrite(migrated)  # lint: ignore[single-write-path]
            count += 1
        self.db.version_store.rename_class(old_name, new_name)
        for index in self.db.indexes.all_indexes():
            if index.target_class == old_name:
                index.target_class = new_name
            self.db.indexes.rebuild(index.name)
        check_all(self.schema)
        self.log.append("rename_class %s -> %s" % (old_name, new_name))
        return count

    def migrate_instance(self, oid, new_class: str) -> None:
        """Move one object to another class, coercing its state."""
        with self.db._auto_txn() as txn:
            state = self.db._load_for_write(txn, oid)
            migrated = self.schema.coerce(new_class, state)
            self.schema.validate_state(new_class, migrated.values, self.db._deref_class)
            self.db._write(txn, state, migrated)
        self.log.append("migrate_instance %r -> %s" % (oid, new_class))
