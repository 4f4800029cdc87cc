"""Attribute-path resolution through the aggregation hierarchy.

The one implementation of "walk ``v.a.b.c`` against the schema" shared
by compile-time semantic analysis (:mod:`repro.analysis.semantic`) and
plan-time validation (:func:`repro.query.paths.validate_path` delegates
here), so the two can never drift apart.

Resolution follows the paper's reading of domains: each step must be an
attribute of the class reached so far (inherited attributes included);
non-terminal steps must have a class domain so the walk can continue;
``Any``-typed steps end static checking (dynamic dispatch takes over at
run time).
"""

from __future__ import annotations

import difflib
from typing import List, Optional, Sequence

from ..core.attribute import AttributeDef
from ..core.primitives import ANY_CLASS, is_primitive_class
from ..core.schema import Schema


class PathResolution:
    """Outcome of resolving one attribute path against one class.

    ``ok`` is False when resolution failed; then ``failed_step`` is the
    index of the offending step and ``failure`` the reason.  On success
    ``domain`` is the terminal attribute's domain class and ``attrs``
    the per-step attribute definitions (empty past an ``Any`` step).
    """

    __slots__ = (
        "root_class",
        "steps",
        "domain",
        "attrs",
        "multi",
        "failed_step",
        "failure",
        "suggestion",
    )

    def __init__(self, root_class: str, steps: Sequence[str]) -> None:
        self.root_class = root_class
        self.steps = tuple(steps)
        self.domain: Optional[str] = None
        self.attrs: List[AttributeDef] = []
        #: True when any step along the path is set-valued (fan-out).
        self.multi = False
        self.failed_step: Optional[int] = None
        self.failure: Optional[str] = None
        #: Closest declared attribute name when a step is unknown.
        self.suggestion: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def dotted(self) -> str:
        return ".".join(self.steps)

    def __repr__(self) -> str:
        status = self.domain if self.ok else "failed@%s" % (self.failed_step,)
        return "<PathResolution %s.%s -> %s>" % (self.root_class, self.dotted(), status)


def resolve_path(
    schema: Schema, root_class: str, steps: Sequence[str]
) -> PathResolution:
    """Resolve ``steps`` starting from ``root_class``; never raises.

    The caller inspects ``.ok`` / ``.failure``; plan-time validation
    turns a failure into :class:`~repro.errors.QueryError`, compile-time
    analysis into a :class:`~repro.analysis.diagnostics.Diagnostic`.
    """
    resolution = PathResolution(root_class, steps)
    if not schema.has_class(root_class):
        resolution.failed_step = -1
        resolution.failure = "class %r is not defined" % (root_class,)
        return resolution
    current = root_class
    for step_no, attr_name in enumerate(steps):
        if current == ANY_CLASS:
            # Static checking ends at a wildcard domain; the remaining
            # steps are resolved dynamically per object at run time.
            resolution.domain = ANY_CLASS
            return resolution
        if is_primitive_class(current):
            resolution.failed_step = step_no
            resolution.failure = (
                "cannot navigate into primitive domain %s (step %r of %r)"
                % (current, attr_name, resolution.dotted())
            )
            return resolution
        declared = schema.attribute_map(current)
        attr = declared.get(attr_name)
        if attr is None:
            resolution.failed_step = step_no
            resolution.failure = "class %s has no attribute %r" % (current, attr_name)
            close = difflib.get_close_matches(attr_name, declared, n=1, cutoff=0.6)
            resolution.suggestion = close[0] if close else None
            return resolution
        resolution.attrs.append(attr)
        resolution.multi = resolution.multi or attr.multi
        current = attr.domain
    resolution.domain = current
    return resolution
