"""Multidatabase federation under a common object-oriented model.

Section 5.2: "It is highly desirable to allow the user to access a
heterogeneous mix of databases under the illusion of a single common
data model ... The richness of an object-oriented data model makes it
appropriate for use as the common data model."

Every participating database is wrapped in an adapter exposing *virtual
classes* — named row sources with attributes and optional cross-source
**references** (attribute ``x`` of virtual class A refers to the row of
virtual class B whose key attribute matches).  Federated OQL queries run
against virtual classes, with path predicates traversing references even
when the endpoints live in different engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import FederationError
from ..query.ast import Expr, Query
from ..query.compiler import FilterShapes, compile_filter
from ..query.operators import compile_plan
from ..query.parser import parse_query
from ..query.planner import Plan, SystemScan
from .hierarchical import HierarchicalDatabase

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database
    from ..relational.engine import RelationalEngine

Row = Dict[str, Any]


class VirtualClass:
    """One federated row source.

    ``references`` maps a local attribute to ``(virtual_class, key_attr)``:
    the attribute's value identifies the row of the target class whose
    ``key_attr`` equals it.
    """

    __slots__ = ("name", "attributes", "references")

    def __init__(
        self,
        name: str,
        attributes: List[str],
        references: Optional[Dict[str, Tuple[str, str]]] = None,
    ) -> None:
        self.name = name
        self.attributes = list(attributes)
        self.references = dict(references or {})

    def __repr__(self) -> str:
        return "<VirtualClass %s(%s)>" % (self.name, ", ".join(self.attributes))


class Adapter:
    """Interface every federated source implements."""

    def virtual_classes(self) -> List[VirtualClass]:
        raise NotImplementedError

    def scan(self, class_name: str) -> Iterator[Row]:
        raise NotImplementedError


class RelationalAdapter(Adapter):
    """Expose relational tables as virtual classes (1 table = 1 class)."""

    def __init__(
        self,
        engine: "RelationalEngine",
        references: Optional[Dict[str, Dict[str, Tuple[str, str]]]] = None,
    ) -> None:
        self.engine = engine
        self._references = references or {}

    def virtual_classes(self) -> List[VirtualClass]:
        out = []
        for name in self.engine.table_names():
            table = self.engine.table(name)
            out.append(
                VirtualClass(name, table.column_names(), self._references.get(name))
            )
        return out

    def scan(self, class_name: str) -> Iterator[Row]:
        yield from self.engine.scan(class_name)


class HierarchicalAdapter(Adapter):
    """Expose segments as virtual classes; the parent link becomes a
    synthetic ``parent_id`` reference attribute (navigation flattened
    into the common model)."""

    def __init__(self, hdb: HierarchicalDatabase) -> None:
        self.hdb = hdb

    def virtual_classes(self) -> List[VirtualClass]:
        out = []
        for name in self.hdb.segment_names():
            segment = self.hdb.segment(name)
            attributes = ["record_id"] + segment.fields
            references: Dict[str, Tuple[str, str]] = {}
            if segment.parent is not None:
                attributes.append("parent_id")
                references["parent_id"] = (segment.parent, "record_id")
            out.append(VirtualClass(name, attributes, references))
        return out

    def scan(self, class_name: str) -> Iterator[Row]:
        for record in self.hdb.scan(class_name):
            row: Row = {"record_id": record.record_id}
            row.update(record.fields)
            if record.parent_id is not None:
                row["parent_id"] = record.parent_id
            yield row


class ObjectAdapter(Adapter):
    """Expose kimdb classes as virtual classes.

    Reference attributes surface as OID values; they are declared as
    federation references keyed on the target's ``oid`` attribute.
    """

    def __init__(self, db: "Database", classes: Iterable[str]) -> None:
        self.db = db
        self.classes = list(classes)

    def virtual_classes(self) -> List[VirtualClass]:
        from ..core.primitives import is_primitive_class

        out = []
        for name in self.classes:
            attrs = self.db.schema.attributes(name)
            attributes = ["oid"] + sorted(attrs)
            references = {}
            for attr_name, attr in attrs.items():
                domain = attr.domain
                if (
                    not is_primitive_class(domain)
                    and domain not in ("Any", "Object")
                    and domain in self.classes
                ):
                    references[attr_name] = (domain, "oid")
            out.append(VirtualClass(name, attributes, references))
        return out

    def scan(self, class_name: str) -> Iterator[Row]:
        """The class's direct instances as an ``ONLY`` query shows them to
        the current subject (snapshot, authorization, coerced values)."""
        for state in self.db.execute(Query(class_name, hierarchy=False)).states:
            row: Row = {"oid": state.oid}
            row.update(state.values)
            yield row


class FederationKernel:
    """Row semantics for federated row dicts, for one execution.

    The physical operators (:mod:`repro.query.operators`) are row-type
    agnostic; this kernel compiles their expressions over plain dicts
    through the engine's own compilers, each over :meth:`path`: the
    WHERE clause (:func:`~repro.query.compiler.compile_filter`, every
    leaf a call, whose shapes ``shapes`` keeps), ORDER BY
    (:func:`~repro.query.algebra.rank` over
    :func:`~repro.query.algebra.order_key`, the engine's ranking; rows
    have no OID tiebreaker, so ties keep scan order) and projections.
    :meth:`path` navigates cross-source references via the catalog.
    """

    __slots__ = ("federation", "class_name", "shapes", "_tables")

    #: Row dicts have no OID tiebreaker: an unordered query keeps scan
    #: order, and ``compile_plan`` must not insert an implicit sort.
    has_default_order = False
    #: Rows are dicts, not object states: no WHERE leaf inlines.
    inlines = False

    def __init__(self, federation: "Federation", class_name: str, shapes: FilterShapes) -> None:
        self.federation = federation
        self.class_name = class_name
        self.shapes = shapes
        #: ``(target class, key attribute) -> {key: row}``, built the
        #: first time this execution follows a reference into the class.
        self._tables: Dict[Tuple[str, str], Dict[Any, Row]] = {}

    def row_class(self, row: Row) -> str:
        return self.class_name

    def path(self, steps: Tuple[str, ...]) -> Callable[[Row], List[Any]]:
        """Every terminal value of ``steps`` from one row, read as
        :func:`~repro.query.compiler.compile_path` reads an object state:
        a list value fans out, each element a reference followed (a step
        before the last) or a value of its own (the last step, where a
        reference is its raw value).  A step that is no reference, or a
        key no row of the target holds, reads nothing."""
        *walk, last = steps
        catalog, table = self.federation.virtual_class, self._table
        class_name = self.class_name

        def values(row: Row) -> List[Any]:
            frontier = [(class_name, row)]
            for step in walk:
                following = []
                for cls, current in frontier:
                    target = catalog(cls).references.get(step)
                    if target is None:
                        continue
                    value = current.get(step)
                    for element in value if isinstance(value, list) else (value,):
                        found = None if element is None else table(target).get(element)
                        if found is not None:
                            following.append((target[0], found))
                frontier = following
            out: List[Any] = []
            for _cls, current in frontier:
                value = current.get(last)
                if isinstance(value, list):
                    out.extend(value)
                else:
                    out.append(value)
            return out

        return values

    def _table(self, target: Tuple[str, str]) -> Dict[Any, Row]:
        """The target class's rows by key attribute, from one scan; on a
        duplicate key the first row wins."""
        table = self._tables.get(target)
        if table is None:
            target_class, key_attr = target
            table = self._tables[target] = {}
            for row in self.federation.scan(target_class):
                table.setdefault(row.get(key_attr), row)
        return table

    def refuse(self, leaf: Expr) -> FederationError:
        """Federated rows have no behaviour: a method or ADT leaf raises
        this when a row reaches it."""
        return FederationError("federated queries support comparisons and boolean operators only")

    def filter(self, expr: Expr) -> Callable[[List[Row]], List[Row]]:
        return compile_filter(expr, self, self.shapes)

    def aggregator(self, query: Query) -> Callable[[List[Row]], List[Row]]:
        raise FederationError("federated queries do not support aggregates")


class Federation:
    """The multidatabase: a registry of adapters + a federated executor."""

    def __init__(self) -> None:
        self._sources: Dict[str, Adapter] = {}
        self._classes: Dict[str, Tuple[str, VirtualClass]] = {}
        #: The generated WHERE filters of :meth:`query`.
        self.shapes = FilterShapes()

    def register(self, source_name: str, adapter: Adapter) -> None:
        if source_name in self._sources:
            raise FederationError("source %r already registered" % (source_name,))
        self._sources[source_name] = adapter
        for virtual in adapter.virtual_classes():
            if virtual.name in self._classes:
                raise FederationError(
                    "virtual class %r exported by both %r and %r"
                    % (virtual.name, self._classes[virtual.name][0], source_name)
                )
            self._classes[virtual.name] = (source_name, virtual)

    def refresh(self) -> None:
        """Re-pull virtual class catalogs (after source DDL)."""
        sources = dict(self._sources)
        self._sources.clear()
        self._classes.clear()
        for name, adapter in sources.items():
            self.register(name, adapter)

    # -- catalog ---------------------------------------------------------------

    def class_names(self) -> List[str]:
        return sorted(self._classes)

    def source_of(self, class_name: str) -> str:
        return self._entry(class_name)[0]

    def virtual_class(self, class_name: str) -> VirtualClass:
        return self._entry(class_name)[1]

    def _entry(self, class_name: str) -> Tuple[str, VirtualClass]:
        entry = self._classes.get(class_name)
        if entry is None:
            raise FederationError("no virtual class named %r" % (class_name,))
        return entry

    # -- execution ------------------------------------------------------------------

    def scan(self, class_name: str) -> Iterator[Row]:
        source, _virtual = self._entry(class_name)
        yield from self._sources[source].scan(class_name)

    def query(self, text_or_query) -> List[Row]:
        """Run a federated OQL query; returns row dicts.

        Compiled by the engine's one plan compiler
        (:func:`~repro.query.operators.compile_plan`) over a
        :class:`~repro.query.planner.SystemScan` of the virtual class —
        the leaf system views use — with :class:`FederationKernel` row
        semantics: filter, sort (ties in scan order), limit, projection;
        aggregates are refused.  Hierarchy scope is meaningless across
        sources and ignored.
        """
        query: Query = (
            parse_query(text_or_query)
            if isinstance(text_or_query, str)
            else text_or_query
        )
        target = query.target_class
        self._entry(target)  # unknown virtual class: FederationError
        plan = Plan(query, {target}, SystemScan(target), query.where, 0.0)
        pipeline = compile_plan(plan, FederationKernel(self, target, self.shapes), self.scan)
        pipeline.open()
        try:
            rows = [row for batch in pipeline.root.batches() for row in batch]
        finally:
            pipeline.close()
        if query.projections is not None:
            return [projected for _row, projected in rows]
        return rows

    def __repr__(self) -> str:
        return "<Federation %d sources, %d virtual classes>" % (
            len(self._sources),
            len(self._classes),
        )
