"""Database tools (Section 5.1): schema browsing.

"The complexity of the object-oriented database schema, with the class
hierarchy and aggregation hierarchies, significantly complicates the
problems of logical and physical database design.  Thus the need for
friendly and efficient design aids ... is significantly stronger than
that for relational databases."  The IRIS and O2 projects built
graphical browsers; kimdb's equivalent is textual: hierarchy trees,
per-class descriptions with inheritance provenance, aggregation-graph
rendering and a catalog report.  The per-class description is the DL's
``DESCRIBE`` text, so it lives below the tools, in :mod:`repro.lang`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..core.primitives import BUILTIN_CLASSES, is_primitive_class
from ..lang import describe_class

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

__all__ = ["aggregation_graph", "catalog_report", "class_tree", "describe_class"]


def class_tree(db: "Database", root: str = "Object", show_builtin: bool = False) -> str:
    """Render the class hierarchy under ``root`` as an indented tree.

    Classes with multiple superclasses appear under each parent, marked
    with ``*`` after their first occurrence (it is a DAG, not a tree).
    """
    builtin = set(BUILTIN_CLASSES)
    seen: Set[str] = set()
    lines: List[str] = []

    def render(name: str, depth: int) -> None:
        if not show_builtin and name in builtin and name != root:
            return
        marker = ""
        if name in seen:
            marker = " *"
        seen.add(name)
        extent = db.storage.count_class(name)
        extent_text = " (%d)" % extent if extent else ""
        lines.append("%s%s%s%s" % ("  " * depth, name, extent_text, marker))
        if marker:
            return
        for child in db.schema.direct_subclasses(name):
            render(child, depth + 1)

    render(root, 0)
    return "\n".join(lines)


def aggregation_graph(db: "Database", root: str, max_depth: int = 4) -> str:
    """Render the aggregation (attribute/domain) graph from ``root``.

    Cycles — which the paper notes the aggregation graph admits — are
    cut with a ``(cycle)`` marker.
    """
    lines: List[str] = []

    def render(name: str, depth: int, path: Set[str]) -> None:
        if depth > max_depth:
            return
        for attr_name, attr in sorted(db.schema.attributes(name).items()):
            domain = attr.domain
            if is_primitive_class(domain) or domain in ("Any", "Object"):
                continue
            if not db.schema.has_class(domain):
                continue
            suffix = ""
            if domain in path:
                suffix = " (cycle)"
            lines.append(
                "%s%s.%s -> %s%s"
                % ("  " * depth, name, attr_name, domain, suffix)
            )
            if not suffix:
                render(domain, depth + 1, path | {domain})

    lines.append(root)
    render(root, 0, {root})
    return "\n".join(lines)


def catalog_report(db: "Database") -> str:
    """One-page inventory: classes, extents, indexes, views, locks."""
    lines = ["=== kimdb catalog ==="]
    user_classes = sorted(c.name for c in db.schema.user_classes())
    lines.append("classes (%d):" % len(user_classes))
    for name in user_classes:
        lines.append(
            "  %-24s extent=%-6d subclasses=%s"
            % (
                name,
                db.storage.count_class(name),
                ",".join(db.schema.direct_subclasses(name)) or "-",
            )
        )
    indexes = db.indexes.describe()
    lines.append("indexes (%d):" % len(indexes))
    for entry in indexes:
        lines.append(
            "  %-28s %-18s on %s.%s (%d entries)"
            % (entry["name"], entry["kind"], entry["class"], entry["path"], entry["entries"])
        )
    if db.views is not None and db.views.names():
        lines.append("views (%d): %s" % (len(db.views.names()), ", ".join(db.views.names())))
    lines.append("objects: %d" % len(db.storage.directory))
    lines.append("buffer: %s" % db.metrics.snapshot("buffer."))
    return "\n".join(lines)
