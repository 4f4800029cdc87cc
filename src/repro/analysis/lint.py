"""Custom engine lints over Python source (``python -m repro.tools.lint``).

A database engine's worst bugs are concurrency and resource-lifetime
bugs — exactly the class static analysis catches cheapest.  This module
implements ``ast``-based lints tailored to this codebase, run in CI as a
hard gate over ``src/repro``:

``lock-order``
    Lock/latch acquisitions (``with self._mutex:`` on attributes bound
    to ``threading.Lock``/``RLock``/``Condition``) must respect a
    declared ordering lattice: a nested acquisition must have a strictly
    higher level than every lock already held in the enclosing ``with``
    stack.  Total order on levels -> no wait cycles -> no deadlocks.
``undeclared-lock``
    Every lock-like attribute created in the engine must appear in the
    declared lattice; an undeclared lock is an unreviewed ordering.
``unreleased-resource``
    Calls that open a scope (``tracer.span``, ``histogram.time``,
    ``context.timed``) must be used as ``with`` context expressions, and
    a ``begin()`` result bound to a local must be committed, aborted,
    or escape the function (returned, yielded, stored, passed on).
``private-access``
    No ``_underscore`` attribute or name may be reached across
    ``repro.*`` subpackage boundaries; each subpackage's privates are
    its own.  Some nested packages (see :data:`_NESTED_DOMAINS`, e.g.
    ``repro.query.operators``) are privacy domains of their own,
    distinct from their parent subpackage.
``mutable-default``
    No mutable display (list/dict/set literal or constructor call) as a
    parameter default.
``bare-except``
    No ``except:`` without an exception class.
``operator-materialization``
    Inside ``repro.query.operators`` no ``list(...)`` call may
    materialize a stream: physical operators are pull pipelines, and an
    eager ``list()`` defeats LIMIT early termination.  A bounded batch
    (at most the ``n`` rows asked for, built by a comprehension) is not
    a drain.  Intentional pipeline breakers carry the pragma.
``wall-clock-duration``
    No ``time.time()`` in engine code: wall clocks step (NTP, DST) and
    make terrible duration measurements.  Durations belong to
    ``time.perf_counter`` via the metrics/tracing instruments
    (``histogram.time()``, ``tracer.span()``, ``WaitProfiler.record``).
    A genuine wall-clock *timestamp* (export ``generated_at``,
    transaction start time) carries the pragma.
``single-write-path``
    ``storage.store_new`` / ``storage.overwrite`` / ``storage.remove``
    may be called only from ``database.py`` (``Database._write``, the
    one mutation primitive: locks, version store, indexes, WAL, undo)
    and ``txn/recovery.py`` (redo/undo below the engine).  A write that
    reaches the storage manager any other way is unlogged, cannot be
    rolled back and is visible to snapshots opened before it.
``literal-metric-name``
    The name passed to ``.counter()`` / ``.gauge()`` / ``.histogram()``
    / ``.derived()`` must be a string literal, or a literal format
    (``"index.%s.probes" % name``) for a per-instance family: every
    metric name is then greppable at its one registration site, which
    is what a declarative metric catalog will be generated against.
``tools-layering``
    No module outside ``repro.tools`` may import ``repro.tools``: the
    tools (CLIs, browser, advisor, benchgate) sit on top of the engine,
    so an engine module that imports one inverts the layering.
``dynamic-code``
    The builtins ``exec``, ``eval`` and ``compile`` may be called only
    in ``repro/query/compiler.py``, whose generated WHERE filters hold
    nothing but generated names and whitelisted operators.  Code built
    from text anywhere else is code no review has read.

A violation can be baselined in place with an inline pragma::

    something_flagged()  # lint: ignore[lock-order]

``# lint: ignore`` (no rule list) silences every rule for that line.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Rules known to the linter, in reporting order.
ALL_RULES = (
    "lock-order",
    "undeclared-lock",
    "unreleased-resource",
    "private-access",
    "mutable-default",
    "bare-except",
    "operator-materialization",
    "wall-clock-duration",
    "single-write-path",
    "literal-metric-name",
    "tools-layering",
    "dynamic-code",
)

#: The files allowed to call the storage manager's three write methods.
_WRITE_PATH_FILES = ("repro/database.py", "repro/txn/recovery.py")

#: The one file allowed to build code from text.
_DYNAMIC_CODE_FILES = ("repro/query/compiler.py",)
_DYNAMIC_CODE_CALLS = ("exec", "eval", "compile")

#: Nested packages that are privacy domains of their own: files under
#: them do not share privates with the parent subpackage.
_NESTED_DOMAINS = ("query.operators",)

_PRAGMA_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([a-z\-,\s]+)\])?")

#: threading factory names whose results count as locks/latches.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


class Violation:
    """One lint finding, pointing at file/line/column."""

    __slots__ = ("rule", "path", "line", "col", "message")

    def __init__(self, rule: str, path: str, line: int, col: int, message: str) -> None:
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def render(self) -> str:
        return "%s:%d:%d: [%s] %s" % (self.path, self.line, self.col, self.rule, self.message)

    def __repr__(self) -> str:
        return "<Violation %s %s:%d>" % (self.rule, self.path, self.line)


class LintConfig:
    """Tunable rule inputs.

    Parameters
    ----------
    lock_lattice:
        Lock attribute name -> level.  Nested acquisition must strictly
        increase the level; discovered locks missing from the lattice
        are ``undeclared-lock`` violations.
    with_required:
        Method names whose call must be a ``with`` context expression.
    acquire_pairs:
        Method name -> releasing method names; an acquire result bound
        to a local must see one of the releases (or escape).
    rules:
        Subset of :data:`ALL_RULES` to run (default: all).
    """

    def __init__(
        self,
        lock_lattice: Optional[Dict[str, int]] = None,
        with_required: Optional[Set[str]] = None,
        acquire_pairs: Optional[Dict[str, Tuple[str, ...]]] = None,
        rules: Optional[Sequence[str]] = None,
    ) -> None:
        self.lock_lattice = dict(lock_lattice or {})
        self.with_required = set(
            with_required if with_required is not None else ("span", "time", "timed")
        )
        self.acquire_pairs = dict(
            acquire_pairs
            if acquire_pairs is not None
            else {"begin": ("commit", "abort", "rollback"), "pin": ("unpin",)}
        )
        self.rules = tuple(rules if rules is not None else ALL_RULES)


#: The declared lattice for the kimdb engine itself.  Order chosen from
#: the call graph: transaction-id allocation is a leaf latch; the lock
#: table's mutex/condition (one underlying lock) sit above it and must
#: never be held while re-entering id allocation.
ENGINE_LOCK_LATTICE: Dict[str, int] = {
    # The server layer (its own privacy domain, like every top-level
    # subpackage) sits entirely below the engine.  A connection holds
    # one of the server's engine slots (a semaphore) across a whole
    # request, and a session's mutex across whole engine calls inside
    # it, so every engine latch must rank strictly above both.  The
    # connection-table mutex and the client pool mutex are leaves that
    # never nest with engine state at all.
    "_engine_slots": 1,
    "_session_mutex": 2,
    "_sessions_mutex": 4,
    "_conns_mutex": 5,
    "_pool_mutex": 6,
    # The plan cache's mutex is a planner-side leaf: nothing else is
    # ever acquired while holding it, and it nests inside no engine
    # latch (lookups happen before the read snapshot is opened).
    "_plan_cache_mutex": 8,
    # The query-statistics accumulator is likewise a leaf: taken only
    # after a query's pipeline has closed, never around engine calls.
    "_querystats_mutex": 9,
    "_id_mutex": 10,
    # WAL group commit: the serialization mutex around appends ranks
    # below the group-commit condition (the sync leader re-enters
    # _wal_mutex to flush while followers wait on _group_cond, never
    # holding both in the other order), and the MVCC version store's
    # mutex is a leaf taken inside commit after WAL durability.
    "_wal_mutex": 12,
    "_group_cond": 14,
    "_store_mutex": 16,
    "_mutex": 20,
    "_condition": 20,
    # The wait profiler's mutex sits above the lock table: the lock
    # manager records wait events while holding _condition, never the
    # reverse.
    "_waits_mutex": 30,
    # The fault injector's mutex is innermost of all: it guards the undo
    # log of a single proxied file handle and calls nothing that locks.
    "_fault_mutex": 40,
}


def engine_config() -> LintConfig:
    """The configuration CI runs against ``src/repro``."""
    return LintConfig(lock_lattice=ENGINE_LOCK_LATTICE)


def _pragmas(source: str) -> Dict[int, Optional[Set[str]]]:
    """line -> silenced rules (None means all rules) for inline pragmas."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        listed = match.group(1)
        if listed is None:
            out[lineno] = None
        else:
            out[lineno] = {rule.strip() for rule in listed.split(",") if rule.strip()}
    return out


class Linter:
    """Runs the configured rules over modules."""

    def __init__(self, config: Optional[LintConfig] = None) -> None:
        self.config = config or LintConfig()

    # -- entry points ----------------------------------------------------

    def lint_file(self, path: str, package_root: Optional[str] = None) -> List[Violation]:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        subpackage = _subpackage_of(path, package_root)
        return self.lint_source(source, path, subpackage)

    def lint_source(
        self, source: str, path: str = "<string>", subpackage: Optional[str] = None
    ) -> List[Violation]:
        tree = ast.parse(source, filename=path)
        pragmas = _pragmas(source)
        violations: List[Violation] = []
        run = set(self.config.rules)
        if "mutable-default" in run:
            self._check_mutable_defaults(tree, path, violations)
        if "bare-except" in run:
            self._check_bare_except(tree, path, violations)
        if run & {"lock-order", "undeclared-lock"}:
            self._check_lock_order(tree, path, violations, run)
        if "unreleased-resource" in run:
            self._check_resources(tree, path, violations)
        if "private-access" in run and subpackage is not None:
            self._check_privacy(tree, path, subpackage, violations)
        if "operator-materialization" in run and subpackage == "query.operators":
            self._check_operator_materialization(tree, path, violations)
        if "wall-clock-duration" in run:
            self._check_wall_clock(tree, path, violations)
        if "single-write-path" in run and not path.replace(os.sep, "/").endswith(
            _WRITE_PATH_FILES
        ):
            self._check_single_write_path(tree, path, violations)
        if "literal-metric-name" in run:
            self._check_metric_names(tree, path, violations)
        if "tools-layering" in run and subpackage not in (None, "tools"):
            self._check_tools_layering(tree, path, subpackage, violations)
        if "dynamic-code" in run and not path.replace(os.sep, "/").endswith(
            _DYNAMIC_CODE_FILES
        ):
            self._check_dynamic_code(tree, path, violations)
        return [v for v in violations if not _silenced(v, pragmas)]

    # -- simple rules ----------------------------------------------------

    def _check_mutable_defaults(self, tree, path, out) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")
                ):
                    out.append(
                        Violation(
                            "mutable-default",
                            path,
                            default.lineno,
                            default.col_offset,
                            "mutable default argument in %s(); use None and "
                            "fill in the body" % node.name,
                        )
                    )

    def _check_bare_except(self, tree, path, out) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                out.append(
                    Violation(
                        "bare-except",
                        path,
                        node.lineno,
                        node.col_offset,
                        "bare except: catches SystemExit/KeyboardInterrupt; "
                        "name an exception class",
                    )
                )

    # -- lock ordering ---------------------------------------------------

    def _check_lock_order(self, tree, path, out, run) -> None:
        lock_attrs = _discover_locks(tree)
        lattice = self.config.lock_lattice
        if "undeclared-lock" in run:
            for name, lineno in sorted(lock_attrs.items(), key=lambda kv: kv[1]):
                if name not in lattice:
                    out.append(
                        Violation(
                            "undeclared-lock",
                            path,
                            lineno,
                            0,
                            "lock attribute %r is not in the declared ordering "
                            "lattice; add it to repro.analysis.lint.ENGINE_LOCK_LATTICE"
                            % name,
                        )
                    )
        if "lock-order" not in run:
            return
        known = set(lattice) | set(lock_attrs)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_lock_scope(node.body, [], known, lattice, path, out)

    def _walk_lock_scope(self, body, held, known, lattice, path, out) -> None:
        """Recursive walk of one function body tracking held lock levels.

        ``held`` is a list of (name, level) acquired by enclosing withs.
        """
        for node in body:
            if isinstance(node, ast.With):
                acquired = []
                for item in node.items:
                    name = _lock_name(item.context_expr, known)
                    if name is None:
                        continue
                    level = lattice.get(name)
                    if level is None:
                        continue  # undeclared-lock already reported
                    for held_name, held_level in held + acquired:
                        if held_level >= level:
                            out.append(
                                Violation(
                                    "lock-order",
                                    path,
                                    item.context_expr.lineno,
                                    item.context_expr.col_offset,
                                    "acquires %r (level %d) while holding %r "
                                    "(level %d); the declared lattice requires "
                                    "strictly increasing levels"
                                    % (name, level, held_name, held_level),
                                )
                            )
                    acquired.append((name, level))
                self._walk_lock_scope(
                    node.body, held + acquired, known, lattice, path, out
                )
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested defs run later, with no locks held.
                self._walk_lock_scope(node.body, [], known, lattice, path, out)
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._walk_lock_scope([child], held, known, lattice, path, out)
                else:
                    for stmt_list in _stmt_lists(child):
                        self._walk_lock_scope(stmt_list, held, known, lattice, path, out)

    # -- resource balance ------------------------------------------------

    def _check_resources(self, tree, path, out) -> None:
        with_exprs = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.With):
                for item in node.items:
                    with_exprs.add(id(item.context_expr))
                    # ``with a.span() as s, b.time():`` — either shape.
                    if isinstance(item.context_expr, ast.Call):
                        with_exprs.add(id(item.context_expr))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in self.config.with_required:
                continue
            if isinstance(func.value, ast.Name) and func.value.id == "time":
                continue  # stdlib time.time(), not a histogram timer
            if id(node) not in with_exprs:
                out.append(
                    Violation(
                        "unreleased-resource",
                        path,
                        node.lineno,
                        node.col_offset,
                        ".%s() opens a scope; use it as a `with` context "
                        "so it always closes" % func.attr,
                    )
                )
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_acquire_pairs(node, path, out)

    def _check_acquire_pairs(self, fn, path, out) -> None:
        acquires: List[Tuple[str, ast.Call]] = []
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in self.config.acquire_pairs
            ):
                acquires.append((node.targets[0].id, node.value))
        for name, call in acquires:
            releases = self.config.acquire_pairs[call.func.attr]
            if not self._released_or_escapes(fn, name, releases):
                out.append(
                    Violation(
                        "unreleased-resource",
                        path,
                        call.lineno,
                        call.col_offset,
                        "%r acquired via .%s() is neither released (%s) nor "
                        "escapes this function"
                        % (name, call.func.attr, "/".join(releases)),
                    )
                )

    @staticmethod
    def _released_or_escapes(fn, name: str, releases: Tuple[str, ...]) -> bool:
        for node in ast.walk(fn):
            # txn.commit() / txn.abort()
            if (
                isinstance(node, ast.Attribute)
                and node.attr in releases
                and isinstance(node.value, ast.Name)
                and node.value.id == name
            ):
                return True
            # return txn / yield txn — ownership moves to the caller
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and name in _names_in(node.value):
                    return True
            # self.current = txn / txns.append(txn) / fn(txn) — escapes
            if isinstance(node, ast.Assign) and name in _names_in(node.value):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        return True
            if isinstance(node, ast.Call):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if name in _names_in(arg):
                        return True
        return False

    # -- operator streaming discipline -----------------------------------

    def _check_operator_materialization(self, tree, path, out) -> None:
        """Flag ``list(...)`` calls inside the physical-operator package.

        Operators are pull pipelines; an eager ``list()`` drains the
        upstream and defeats LIMIT early termination.  A deliberate
        pipeline breaker is annotated with
        ``# lint: ignore[operator-materialization]``.
        """
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "list"
            ):
                out.append(
                    Violation(
                        "operator-materialization",
                        path,
                        node.lineno,
                        node.col_offset,
                        "list(...) materializes the stream inside a physical "
                        "operator; pull rows lazily, or mark a deliberate "
                        "pipeline breaker with the pragma",
                    )
                )

    # -- clock discipline ------------------------------------------------

    def _check_wall_clock(self, tree, path, out) -> None:
        """Flag ``time.time()`` calls.

        The engine's duration convention is ``time.perf_counter`` (see
        :mod:`repro.obs.export`); wall clocks are only acceptable as
        human-facing timestamps, and those sites carry the pragma.
        """
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "time"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "time"
            ):
                out.append(
                    Violation(
                        "wall-clock-duration",
                        path,
                        node.lineno,
                        node.col_offset,
                        "time.time() is a wall clock; measure durations with "
                        "time.perf_counter via the obs instruments "
                        "(histogram.time(), tracer.span(), WaitProfiler), or "
                        "mark a genuine timestamp with the pragma",
                    )
                )

    # -- write-path discipline -------------------------------------------

    def _check_single_write_path(self, tree, path, out) -> None:
        """Flag ``<...>storage.store_new/overwrite/remove(...)`` calls."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            owner = node.func.value
            owner_name = getattr(owner, "attr", getattr(owner, "id", None))
            if owner_name == "storage" and node.func.attr in (
                "store_new",
                "overwrite",
                "remove",
            ):
                out.append(
                    Violation(
                        "single-write-path",
                        path,
                        node.lineno,
                        node.col_offset,
                        "storage.%s() outside the write path: go through "
                        "Database._write so the change is locked, versioned, "
                        "indexed, logged and undoable" % node.func.attr,
                    )
                )

    # -- metric naming ---------------------------------------------------

    def _check_metric_names(self, tree, path, out) -> None:
        """Flag instrument registrations whose name is computed."""
        for node in ast.walk(tree):
            if (
                not isinstance(node, ast.Call)
                or not isinstance(node.func, ast.Attribute)
                or node.func.attr not in ("counter", "gauge", "histogram", "derived")
                or not node.args
            ):
                continue
            name = node.args[0]
            if isinstance(name, ast.BinOp) and isinstance(name.op, ast.Mod):
                name = name.left
            if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
                out.append(
                    Violation(
                        "literal-metric-name",
                        path,
                        node.lineno,
                        node.col_offset,
                        ".%s() name is computed; pass a string literal (or a "
                        'literal format, "family.%%s.what" %% key) so the '
                        "metric is greppable where it is registered"
                        % node.func.attr,
                    )
                )

    # -- layering ----------------------------------------------------------

    def _check_tools_layering(self, tree, path, subpackage, out) -> None:
        """Flag imports of ``repro.tools`` from outside it."""
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                origin = _import_origin(node, subpackage)
                # ``from .. import tools`` names the package itself.
                hit = origin == "tools" or (
                    origin == "" and any(alias.name == "tools" for alias in node.names)
                )
            elif isinstance(node, ast.Import):
                hit = any(
                    alias.name.split(".")[:2] == ["repro", "tools"] for alias in node.names
                )
            else:
                continue
            if hit:
                out.append(
                    Violation(
                        "tools-layering",
                        path,
                        node.lineno,
                        node.col_offset,
                        "imports repro.tools from %r; tools sit on top of the "
                        "engine — move what is shared below them"
                        % (subpackage or "repro"),
                    )
                )

    # -- dynamic code ------------------------------------------------------

    def _check_dynamic_code(self, tree, path, out) -> None:
        """Flag calls of the ``exec`` / ``eval`` / ``compile`` builtins."""
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _DYNAMIC_CODE_CALLS
            ):
                out.append(
                    Violation(
                        "dynamic-code",
                        path,
                        node.lineno,
                        node.col_offset,
                        "%s() builds code from text; only repro/query/compiler.py "
                        "may (generated WHERE filters)" % node.func.id,
                    )
                )

    # -- cross-package privacy -------------------------------------------

    def _check_privacy(self, tree, path, subpackage, out) -> None:
        origins: Dict[str, str] = {}  # imported binding -> source subpackage
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                origin = _import_origin(node, subpackage)
                if origin is None:
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name
                    origins[bound] = origin
                    if origin != subpackage and alias.name.startswith("_"):
                        out.append(
                            Violation(
                                "private-access",
                                path,
                                node.lineno,
                                node.col_offset,
                                "imports private name %r from subpackage %r"
                                % (alias.name, origin),
                            )
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] != "repro":
                        continue
                    origin = parts[1] if len(parts) > 2 else ""
                    origins[alias.asname or parts[0]] = origin
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            if not isinstance(node.value, ast.Name):
                continue
            origin = origins.get(node.value.id)
            if origin is not None and origin != subpackage:
                out.append(
                    Violation(
                        "private-access",
                        path,
                        node.lineno,
                        node.col_offset,
                        "accesses private attribute %r of %r imported from "
                        "subpackage %r" % (attr, node.value.id, origin),
                    )
                )


# -- module helpers --------------------------------------------------------


def _silenced(violation: Violation, pragmas: Dict[int, Optional[Set[str]]]) -> bool:
    if violation.line not in pragmas:
        return False
    rules = pragmas[violation.line]
    return rules is None or violation.rule in rules


def _stmt_lists(node) -> Iterable[List[ast.stmt]]:
    for field in ("body", "orelse", "finalbody", "handlers"):
        value = getattr(node, field, None)
        if not value:
            continue
        if field == "handlers":
            for handler in value:
                yield handler.body
        elif isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            yield value


def _discover_locks(tree) -> Dict[str, int]:
    """Attribute/variable names bound to threading lock factories."""
    locks: Dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        factory = None
        if isinstance(func, ast.Attribute) and func.attr in _LOCK_FACTORIES:
            if isinstance(func.value, ast.Name) and func.value.id == "threading":
                factory = func.attr
        elif isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES:
            factory = func.id
        if factory is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                locks.setdefault(target.attr, node.lineno)
            elif isinstance(target, ast.Name):
                locks.setdefault(target.id, node.lineno)
    return locks


def _lock_name(expr, known: Set[str]) -> Optional[str]:
    """The lock attribute a ``with`` context expression acquires, if any."""
    if isinstance(expr, ast.Attribute) and expr.attr in known:
        return expr.attr
    if isinstance(expr, ast.Name) and expr.id in known:
        return expr.id
    return None


def _names_in(expr) -> Set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _domain_of(parts: Sequence[str]) -> str:
    """Privacy domain for a dotted module path (parts under ``repro``).

    The longest matching nested domain wins; otherwise the first
    component is the domain ('' for repro-root modules).
    """
    dotted = ".".join(parts)
    for domain in _NESTED_DOMAINS:
        if dotted == domain or dotted.startswith(domain + "."):
            return domain
    return parts[0] if parts else ""


def _import_origin(node: ast.ImportFrom, subpackage: str) -> Optional[str]:
    """Privacy domain a ``from ... import`` pulls from, or None if external.

    Relative imports resolve against the importing file's own domain:
    ``from .`` stays inside it, each extra leading dot climbs one
    package, and the resulting module path maps through
    :func:`_domain_of` (so ``from .operators`` inside ``repro.query``
    lands in the nested ``query.operators`` domain, not ``query``).
    """
    module = node.module or ""
    if node.level == 0:
        if module != "repro" and not module.startswith("repro."):
            return None
        return _domain_of(module.split(".")[1:])
    base = subpackage.split(".") if subpackage else []
    climb = node.level - 1
    if climb:
        base = base[:-climb] if climb < len(base) else []
    parts = base + (module.split(".") if module else [])
    return _domain_of(parts)


def _subpackage_of(path: str, package_root: Optional[str]) -> Optional[str]:
    """Privacy domain of a file under ``repro`` ('' for root modules).

    Normally the first path component; files inside a nested domain
    (:data:`_NESTED_DOMAINS`) get its dotted name instead.
    """
    normalized = path.replace(os.sep, "/")
    marker = "repro/"
    index = normalized.rfind(marker)
    if index == -1:
        return None
    rest = normalized[index + len(marker):]
    dirs = rest.split("/")[:-1]
    return _domain_of(dirs)


def lint_paths(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> List[Violation]:
    """Lint files and directories (recursively); returns all violations."""
    linter = Linter(config or engine_config())
    violations: List[Violation] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _dirnames, filenames in os.walk(path):
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        violations.extend(
                            linter.lint_file(os.path.join(dirpath, filename))
                        )
        else:
            violations.extend(linter.lint_file(path))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
