"""The schema: class registry, hierarchy, inheritance resolution, typing.

The schema owns the rooted DAG of classes (core concept 5), computes the
effective (inherited) attributes and methods of every class, enforces the
domain constraints of core concept 4 and supports dynamic extension: "the
class hierarchy must be dynamically extensible; that is, a new subclass
can be derived from one or more existing classes."

Structural schema *changes* beyond adding classes (the taxonomy of
[BANE87]) are implemented in :mod:`repro.evolution`; that module calls the
underscore-prefixed mutators here so cache invalidation stays in one
place.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from ..errors import (
    AttributeNotFoundError,
    ClassNotFoundError,
    DuplicateClassError,
    MethodNotFoundError,
    SchemaError,
    TypeCheckError,
)
from .attribute import AttributeDef
from .inheritance import c3_linearize, detect_cycle, resolve_by_precedence
from .klass import ClassDef
from .method import MethodDef
from .obj import ObjectState
from .oid import OID
from .primitives import (
    ANY_CLASS,
    BUILTIN_CLASSES,
    PRIMITIVE_TYPES,
    ROOT_CLASS,
    is_primitive_class,
    primitive_accepts,
)

#: Callback type used to look up the class of a referenced object when
#: type-checking OID-valued attributes.
DerefClass = Callable[[OID], Optional[str]]


class Schema:
    """Registry and resolver for the class hierarchy."""

    def __init__(self) -> None:
        self._classes: Dict[str, ClassDef] = {}
        self._direct_subclasses: Dict[str, Set[str]] = {}
        #: Monotonic counter bumped on every schema change; planners and
        #: caches compare it to detect staleness.
        self.version = 0
        self._mro_cache: Dict[str, List[str]] = {}
        self._attr_cache: Dict[str, Mapping[str, AttributeDef]] = {}
        self._method_cache: Dict[str, Dict[str, MethodDef]] = {}
        self._subclass_cache: Dict[str, List[str]] = {}
        #: Called by every change after the caches are cleared: the
        #: database empties the states its storage manager keeps there,
        #: each coerced to a class definition the change may have altered.
        self.on_change: Callable[[], None] = lambda: None
        #: Validators for user-defined *value* domains (abstract data
        #: types, Section 5.5): domain name -> predicate over raw values.
        #: An ADT class stores its instances inline (encoded as storable
        #: values) rather than as references.
        self._value_domains: Dict[str, Callable[[Any], bool]] = {}
        self._install_builtins()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _install_builtins(self) -> None:
        root = ClassDef(ROOT_CLASS, superclasses=(), doc="Root of the class hierarchy.")
        self._classes[ROOT_CLASS] = root
        self._direct_subclasses[ROOT_CLASS] = set()
        for name in BUILTIN_CLASSES:
            if name == ROOT_CLASS:
                continue
            doc = "Primitive domain class." if is_primitive_class(name) else "Wildcard domain."
            cls = ClassDef(name, superclasses=(ROOT_CLASS,), doc=doc)
            self._classes[name] = cls
            self._direct_subclasses[name] = set()
            self._direct_subclasses[ROOT_CLASS].add(name)

    def define_class(
        self,
        name: str,
        superclasses: Sequence[str] = (ROOT_CLASS,),
        attributes: Iterable[AttributeDef] = (),
        methods: Iterable[MethodDef] = (),
        abstract: bool = False,
        doc: str = "",
        versionable: bool = False,
    ) -> ClassDef:
        """Add a new class as a subclass of ``superclasses``.

        The superclasses must already exist, so adding a class can never
        create a cycle.  Attribute names may shadow inherited ones (that
        is redefinition, core concept 5); they may not collide within the
        new class itself.
        """
        if name in self._classes:
            raise DuplicateClassError("class %r is already defined" % (name,))
        if not superclasses:
            raise SchemaError("class %r must have at least one superclass" % (name,))
        supers = list(dict.fromkeys(superclasses))  # dedupe, keep order
        for sup in supers:
            existing = self._classes.get(sup)
            if existing is None:
                raise ClassNotFoundError(
                    "superclass %r of %r is not defined" % (sup, name)
                )
            if is_primitive_class(sup) or sup == ANY_CLASS:
                raise SchemaError(
                    "cannot subclass primitive/wildcard class %r" % (sup,)
                )
        cls = ClassDef(
            name,
            superclasses=supers,
            attributes=attributes,
            methods=methods,
            abstract=abstract,
            doc=doc,
            versionable=versionable,
        )
        self._classes[name] = cls
        self._direct_subclasses[name] = set()
        for sup in supers:
            self._direct_subclasses[sup].add(name)
        self._bump(name)
        # Validate linearizability immediately so a bad diamond fails at
        # definition time, not first use.
        try:
            self.mro(name)
        except SchemaError:
            self._remove_class_entry(name)
            raise
        return cls

    # Low-level hierarchy mutators used by schema evolution
    # (repro.evolution); they keep the subclass map and caches coherent
    # but do NOT validate invariants — callers must.

    def _add_superclass_edge(self, class_name: str, superclass: str) -> None:
        cls = self.get_class(class_name)
        self.get_class(superclass)
        if superclass in cls.superclasses:
            raise SchemaError(
                "%s is already a direct superclass of %s" % (superclass, class_name)
            )
        cls.superclasses.append(superclass)
        self._direct_subclasses[superclass].add(class_name)
        self._bump(class_name)

    def _remove_superclass_edge(self, class_name: str, superclass: str) -> None:
        cls = self.get_class(class_name)
        if superclass not in cls.superclasses:
            raise SchemaError(
                "%s is not a direct superclass of %s" % (superclass, class_name)
            )
        cls.superclasses.remove(superclass)
        self._direct_subclasses[superclass].discard(class_name)
        if not cls.superclasses:
            # Re-root orphaned classes at Object (hierarchy stays rooted).
            cls.superclasses.append(ROOT_CLASS)
            self._direct_subclasses[ROOT_CLASS].add(class_name)
        self._bump(class_name)

    def _rename_class_entry(self, old: str, new: str) -> None:
        if new in self._classes:
            raise DuplicateClassError("class %r is already defined" % (new,))
        cls = self._classes.pop(old)
        cls.name = new
        self._classes[new] = cls
        self._direct_subclasses[new] = self._direct_subclasses.pop(old)
        for other in self._classes.values():
            other.superclasses = [new if s == old else s for s in other.superclasses]
            for attr in other.own_attributes.values():
                if attr.domain == old:
                    attr.domain = new
                if attr.defined_in == old:
                    attr.defined_in = new
            for meth in other.own_methods.values():
                if meth.defined_in == old:
                    meth.defined_in = new
        for subs in self._direct_subclasses.values():
            if old in subs:
                subs.discard(old)
                subs.add(new)
        self._bump(new)

    def _remove_class_entry(self, name: str) -> None:
        cls = self._classes.pop(name)
        for sup in cls.superclasses:
            self._direct_subclasses.get(sup, set()).discard(name)
        self._direct_subclasses.pop(name, None)
        self._bump(name)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def get_class(self, name: str) -> ClassDef:
        try:
            return self._classes[name]
        except KeyError:
            raise ClassNotFoundError("class %r is not defined" % (name,)) from None

    def classes(self) -> Iterator[ClassDef]:
        """All classes, builtins included, in definition order."""
        return iter(list(self._classes.values()))

    def user_classes(self) -> Iterator[ClassDef]:
        """All classes except the builtin root/primitive/wildcard classes."""
        builtin = set(BUILTIN_CLASSES)
        return (c for c in self.classes() if c.name not in builtin)

    def mro(self, name: str) -> List[str]:
        """Linearized ancestors of ``name``, most specific first."""
        cached = self._mro_cache.get(name)
        if cached is None:
            self.get_class(name)  # raise ClassNotFoundError early
            cached = c3_linearize(name, lambda n: self.get_class(n).superclasses)
            self._mro_cache[name] = cached
        return list(cached)

    def is_subclass(self, name: str, ancestor: str) -> bool:
        """True when ``name`` equals ``ancestor`` or inherits from it."""
        if ancestor == ANY_CLASS:
            return True
        return ancestor in self.mro(name)

    def direct_subclasses(self, name: str) -> List[str]:
        self.get_class(name)
        return sorted(self._direct_subclasses.get(name, ()))

    def subclasses(self, name: str, transitive: bool = True) -> List[str]:
        """Subclasses of ``name`` (excluding ``name`` itself), sorted."""
        if not transitive:
            return self.direct_subclasses(name)
        cached = self._subclass_cache.get(name)
        if cached is None:
            seen: Set[str] = set()
            stack = list(self._direct_subclasses.get(name, ()))
            self.get_class(name)
            while stack:
                sub = stack.pop()
                if sub in seen:
                    continue
                seen.add(sub)
                stack.extend(self._direct_subclasses.get(sub, ()))
            cached = sorted(seen)
            self._subclass_cache[name] = cached
        return list(cached)

    def hierarchy_of(self, name: str) -> List[str]:
        """``name`` followed by all its transitive subclasses.

        This is the evaluation scope of a hierarchy-scoped query and the
        key range of a class-hierarchy index.
        """
        return [name] + self.subclasses(name)

    def superclasses(self, name: str, transitive: bool = True) -> List[str]:
        if not transitive:
            return list(self.get_class(name).superclasses)
        return [c for c in self.mro(name)[1:]]

    # ------------------------------------------------------------------
    # effective members (inheritance-resolved)
    # ------------------------------------------------------------------

    def attributes(self, name: str) -> Dict[str, AttributeDef]:
        """Effective attributes of ``name`` (own + inherited, resolved):
        a copy the caller owns."""
        return dict(self.attribute_map(name))

    def attribute_map(self, name: str) -> Mapping[str, AttributeDef]:
        """:meth:`attributes` without the copy: a read-only view of the
        cached resolution, for hot read paths.  Valid until the next
        schema change (which drops the cache); re-fetch, don't keep."""
        cached = self._attr_cache.get(name)
        if cached is None:
            mro = self.mro(name)
            cached = MappingProxyType(
                resolve_by_precedence(mro, lambda cls: self.get_class(cls).own_attributes)
            )
            self._attr_cache[name] = cached
        return cached

    def coerce(self, class_name: str, state: ObjectState) -> ObjectState:
        """``state`` as an instance of ``class_name``'s current definition:
        lazy schema-evolution coercion [BANE87].

        Values of attributes the class no longer declares disappear, and
        declared attributes the state lacks take their default.  Returns
        ``state`` itself when it already is such an instance.  The stored
        record is untouched (metadata-only evolution, experiment E12)."""
        declared = self.attribute_map(class_name)
        if state.values.keys() == declared.keys() and state.class_name == class_name:
            return state
        values = {
            name: value for name, value in state.values.items() if name in declared
        }
        for name, attr in declared.items():
            if name not in values:
                values[name] = attr.default_value()
        return ObjectState(state.oid, class_name, values)

    def attribute(self, class_name: str, attr_name: str) -> AttributeDef:
        attr = self.attribute_map(class_name).get(attr_name)
        if attr is None:
            raise AttributeNotFoundError(
                "class %s has no attribute %r" % (class_name, attr_name)
            )
        return attr

    def has_attribute(self, class_name: str, attr_name: str) -> bool:
        return attr_name in self.attribute_map(class_name)

    def methods(self, name: str) -> Dict[str, MethodDef]:
        """Effective methods of ``name`` (own + inherited, resolved)."""
        cached = self._method_cache.get(name)
        if cached is None:
            mro = self.mro(name)
            cached = resolve_by_precedence(
                mro, lambda cls: self.get_class(cls).own_methods
            )
            self._method_cache[name] = cached  # type: ignore[assignment]
        return dict(cached)

    def resolve_method(self, class_name: str, selector: str) -> MethodDef:
        """Late binding: find the method for ``selector`` along the MRO."""
        meth = self.methods(class_name).get(selector)
        if meth is None:
            raise MethodNotFoundError(
                "message %r not understood by class %s (searched %s)"
                % (selector, class_name, " -> ".join(self.mro(class_name)))
            )
        return meth

    def resolve_method_above(
        self, class_name: str, selector: str, above: str
    ) -> MethodDef:
        """Resolve ``selector`` starting strictly *after* class ``above``.

        This is the dispatch primitive behind ``super``-style sends from a
        redefined method to the implementation it shadows.
        """
        mro = self.mro(class_name)
        if above not in mro:
            raise MethodNotFoundError(
                "class %s is not an ancestor of %s" % (above, class_name)
            )
        for cls in mro[mro.index(above) + 1 :]:
            meth = self.get_class(cls).own_method(selector)
            if meth is not None:
                return meth
        raise MethodNotFoundError(
            "no implementation of %r above class %s in %s"
            % (selector, above, class_name)
        )

    def defines_or_inherits_method(self, class_name: str, selector: str) -> bool:
        return selector in self.methods(class_name)

    # ------------------------------------------------------------------
    # typing / instance validation
    # ------------------------------------------------------------------

    def check_value(
        self,
        attr: AttributeDef,
        value: Any,
        deref_class: Optional[DerefClass] = None,
    ) -> None:
        """Validate one value against an attribute's domain.

        ``deref_class`` resolves an OID to the class name of the object it
        identifies; when omitted, reference values are accepted as long as
        the domain is a non-primitive class (structural check only).
        """
        if attr.multi:
            if not isinstance(value, list):
                raise TypeCheckError(
                    "attribute %r is set-valued; expected a list, got %r"
                    % (attr.name, type(value).__name__)
                )
            for element in value:
                self._check_single(attr, element, deref_class)
            if attr.required and not value:
                raise TypeCheckError(
                    "attribute %r is required; empty list not allowed" % (attr.name,)
                )
            return
        if value is None:
            if attr.required:
                raise TypeCheckError("attribute %r is required" % (attr.name,))
            return
        self._check_single(attr, value, deref_class)

    def _check_single(
        self, attr: AttributeDef, value: Any, deref_class: Optional[DerefClass]
    ) -> None:
        domain = attr.domain
        if value is None:
            raise TypeCheckError(
                "attribute %r: None is not allowed inside a set value" % (attr.name,)
            )
        if domain == ANY_CLASS:
            return
        if isinstance(value, OID):
            if is_primitive_class(domain):
                raise TypeCheckError(
                    "attribute %r expects primitive %s, got reference %r"
                    % (attr.name, domain, value)
                )
            if deref_class is not None:
                ref_class = deref_class(value)
                if ref_class is None:
                    raise TypeCheckError(
                        "attribute %r references unknown object %r"
                        % (attr.name, value)
                    )
                if not self.is_subclass(ref_class, domain):
                    raise TypeCheckError(
                        "attribute %r expects an instance of %s (or subclass); "
                        "%r is a %s" % (attr.name, domain, value, ref_class)
                    )
            return
        # Non-reference value: must satisfy a primitive domain, or the
        # domain must itself be primitive-compatible.
        if is_primitive_class(domain):
            if not primitive_accepts(domain, value):
                raise TypeCheckError(
                    "attribute %r expects %s, got %r of type %s"
                    % (attr.name, domain, value, type(value).__name__)
                )
            return
        validator = self._value_domains.get(domain)
        if validator is not None:
            if not validator(value):
                raise TypeCheckError(
                    "attribute %r: %r is not a valid %s value"
                    % (attr.name, value, domain)
                )
            return
        if domain == ROOT_CLASS:
            # Object-typed attributes accept any primitive or reference.
            if isinstance(value, (bool, int, float, str, bytes)):
                return
            raise TypeCheckError(
                "attribute %r expects an object value, got %r" % (attr.name, value)
            )
        raise TypeCheckError(
            "attribute %r expects an instance of class %s; got primitive %r"
            % (attr.name, domain, value)
        )

    def default_state(self, class_name: str) -> Dict[str, Any]:
        """Fresh attribute dict populated with declared defaults."""
        return {
            name: attr.default_value()
            for name, attr in self.attribute_map(class_name).items()
        }

    def validate_state(
        self,
        class_name: str,
        values: Dict[str, Any],
        deref_class: Optional[DerefClass] = None,
        partial: bool = False,
    ) -> None:
        """Validate a full (or partial) attribute dict for ``class_name``.

        When ``partial`` is False every required attribute must be present
        and non-None; unknown attribute names are always rejected.
        """
        cls = self.get_class(class_name)
        if cls.abstract:
            raise TypeCheckError(
                "class %s is abstract and cannot be instantiated" % (class_name,)
            )
        declared = self.attribute_map(class_name)
        for name, value in values.items():
            attr = declared.get(name)
            if attr is None:
                raise AttributeNotFoundError(
                    "class %s has no attribute %r" % (class_name, name)
                )
            self.check_value(attr, value, deref_class)
        if not partial:
            for name, attr in declared.items():
                if attr.required and name not in values:
                    raise TypeCheckError(
                        "attribute %r of class %s is required" % (name, class_name)
                    )

    # ------------------------------------------------------------------
    # value domains, versioning & catalog persistence
    # ------------------------------------------------------------------

    def register_value_domain(
        self, name: str, validator: Callable[[Any], bool]
    ) -> None:
        """Declare a user-defined value domain (ADT).

        Creates the domain as a class (so it can appear in attribute
        declarations and the hierarchy) and installs ``validator`` to
        accept the encoded value representation.
        """
        if not self.has_class(name):
            self.define_class(name, superclasses=(ROOT_CLASS,), abstract=True,
                              doc="User-defined value domain (ADT).")
        self._value_domains[name] = validator

    def is_value_domain(self, name: str) -> bool:
        return name in self._value_domains

    def _bump(self, class_name: str) -> None:
        """Invalidate the resolution caches after any schema mutation,
        then every coerced state kept outside the schema (:attr:`on_change`).

        Other derived state (query templates, plan cache, query
        statistics) compares :attr:`version` when it is read.
        """
        self.version += 1
        self._mro_cache.clear()
        self._attr_cache.clear()
        self._method_cache.clear()
        self._subclass_cache.clear()
        self.on_change()

    def to_dict(self) -> Dict[str, Any]:
        """Serializable catalog (methods are recorded by name only).

        Method bodies are Python callables supplied by the application at
        open time (the ZODB model); :meth:`bind_methods` re-attaches them.
        """
        out: Dict[str, Any] = {"version": self.version, "classes": []}
        builtin = set(BUILTIN_CLASSES)
        for cls in self._classes.values():
            if cls.name in builtin:
                continue
            out["classes"].append(
                {
                    "name": cls.name,
                    "superclasses": list(cls.superclasses),
                    "abstract": cls.abstract,
                    "doc": cls.doc,
                    "versionable": cls.versionable,
                    "attributes": [
                        {
                            "name": a.name,
                            "domain": a.domain,
                            "multi": a.multi,
                            "default": a.default,
                            "required": a.required,
                            "composite": a.composite,
                            "exclusive": a.exclusive,
                            "dependent": a.dependent,
                        }
                        for a in cls.own_attributes.values()
                    ],
                    "methods": sorted(cls.own_methods),
                }
            )
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schema":
        """Rebuild a schema from :meth:`to_dict` output.

        Classes are defined in an order that satisfies superclass
        dependencies regardless of catalog order.
        """
        schema = cls()
        pending = {entry["name"]: entry for entry in data.get("classes", [])}
        progress = True
        while pending and progress:
            progress = False
            for name in list(pending):
                entry = pending[name]
                if all(schema.has_class(sup) for sup in entry["superclasses"]):
                    schema.define_class(
                        name,
                        superclasses=entry["superclasses"],
                        attributes=[
                            AttributeDef(
                                a["name"],
                                domain=a["domain"],
                                multi=a["multi"],
                                default=a["default"],
                                required=a["required"],
                                composite=a.get("composite", False),
                                exclusive=a.get("exclusive", False),
                                dependent=a.get("dependent", False),
                            )
                            for a in entry["attributes"]
                        ],
                        abstract=entry.get("abstract", False),
                        doc=entry.get("doc", ""),
                        versionable=entry.get("versionable", False),
                    )
                    del pending[name]
                    progress = True
        if pending:
            raise SchemaError(
                "catalog contains classes with unsatisfiable superclasses: %s"
                % sorted(pending)
            )
        return schema

    def bind_methods(self, class_name: str, methods: Iterable[MethodDef]) -> None:
        """Attach (or re-attach) method implementations to a class."""
        cls = self.get_class(class_name)
        for meth in methods:
            cls.own_methods.pop(meth.name, None)
            cls._add_own_method(meth)
        self._bump(class_name)

    def check_no_cycle(self) -> None:
        """Raise :class:`~repro.errors.CycleError` if the DAG is broken."""
        cycle = detect_cycle(
            self._classes, lambda n: self.get_class(n).superclasses
        )
        if cycle:
            from ..errors import CycleError

            raise CycleError("class graph cycle: %s" % " -> ".join(cycle))
