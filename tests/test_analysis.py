"""repro.analysis: OQL semantic analyzer and engine lint rules."""

import os

import pytest

from repro import (
    AttributeDef,
    Database,
    MethodDef,
    SemanticError,
)
from repro.analysis.diagnostics import ERROR, INFO, WARNING, DiagnosticReport, SourceSpan
from repro.analysis.lint import (
    ALL_RULES,
    LintConfig,
    Linter,
    engine_config,
    lint_paths,
)
from repro.analysis.resolve import resolve_path
from repro.errors import QueryError, QuerySyntaxError
from repro.tools.lint import main as lint_main

SRC_REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


# ---------------------------------------------------------------------------
# path resolver (shared by analyzer and plan-time validation)
# ---------------------------------------------------------------------------


class TestResolvePath:
    def test_resolves_nested_path(self, populated_db):
        res = resolve_path(populated_db.schema, "Vehicle", ("manufacturer", "location"))
        assert res.ok and res.domain == "String"
        assert [a.name for a in res.attrs] == ["manufacturer", "location"]

    def test_unknown_attribute_with_suggestion(self, populated_db):
        res = resolve_path(populated_db.schema, "Vehicle", ("wieght",))
        assert not res.ok
        assert res.failed_step == 0
        assert res.suggestion == "weight"

    def test_unknown_root_class(self, db):
        res = resolve_path(db.schema, "Nope", ("x",))
        assert not res.ok and res.failed_step == -1

    def test_primitive_navigation_fails(self, populated_db):
        res = resolve_path(populated_db.schema, "Vehicle", ("weight", "value"))
        assert not res.ok and "primitive" in res.failure

    def test_validate_path_delegates(self, populated_db):
        # the plan-time wrapper raises QueryError from the same resolver
        from repro.query.paths import validate_path

        with pytest.raises(QueryError, match="wieght"):
            validate_path(populated_db.schema, "Vehicle", ("wieght",))


# ---------------------------------------------------------------------------
# semantic analyzer diagnostics
# ---------------------------------------------------------------------------


class TestAnalyzerDiagnostics:
    def test_unknown_attribute_structured_diagnostic(self, populated_db):
        query = "SELECT v FROM Vehicle v WHERE v.wieght > 7500"
        report = populated_db.check(query)
        assert not report.ok
        [diag] = report.errors
        assert diag.code == "ANA101"
        assert "wieght" in diag.message and "weight" in diag.message
        assert diag.span == SourceSpan(30, 38)
        assert query[diag.span.start : diag.span.end] == "v.wieght"
        rendered = diag.render(query)
        assert "^" in rendered and "line 1" in rendered

    def test_unknown_target_class(self, populated_db):
        report = populated_db.check("SELECT v FROM Vehicel v WHERE v.weight > 1")
        assert report.codes() == ["ANA001"]
        assert "Vehicle" in report.errors[0].message  # did-you-mean

    def test_domain_mismatch_rejected_before_planning(self, populated_db):
        with pytest.raises(SemanticError) as excinfo:
            populated_db.plan("SELECT v FROM Vehicle v WHERE v.weight = 'heavy'")
        assert [d.code for d in excinfo.value.diagnostics] == ["ANA201"]
        # SemanticError is a QueryError so existing callers keep working
        assert isinstance(excinfo.value, QueryError)

    def test_execute_also_gated(self, populated_db):
        with pytest.raises(SemanticError):
            populated_db.execute("SELECT v FROM Vehicle v WHERE v.weight = 'heavy'")

    def test_numeric_widening_is_compatible(self, populated_db):
        assert populated_db.check(
            "SELECT v FROM Vehicle v WHERE v.weight > 7500.5"
        ).ok

    def test_check_does_not_execute(self, populated_db):
        before = populated_db.metrics.snapshot().get("query.executes", 0)
        populated_db.check("SELECT v FROM Vehicle v WHERE v.weight > 7500")
        after = populated_db.metrics.snapshot().get("query.executes", 0)
        assert before == after

    def test_ordered_comparison_on_reference_domain(self, populated_db):
        report = populated_db.check(
            "SELECT v FROM Vehicle v WHERE v.manufacturer > 3"
        )
        assert "ANA203" in report.codes()

    def test_like_on_integer_domain(self, populated_db):
        report = populated_db.check(
            "SELECT v FROM Vehicle v WHERE v.weight LIKE 'x%'"
        )
        assert "ANA204" in report.codes()

    def test_reference_vs_literal_warns(self, populated_db):
        report = populated_db.check(
            "SELECT v FROM Vehicle v WHERE v.manufacturer = 'GM'"
        )
        assert report.ok  # warning, not error
        assert "ANA205" in report.codes()

    def test_unknown_adt_operation(self, db):
        import repro.adt as adt_pkg

        adt_pkg.attach(db)
        db.define_class("Region", attributes=[AttributeDef("shape", "Any")])
        report = db.check("SELECT r FROM Region r WHERE overlapz(r.shape, [0, 0, 1, 1])")
        assert "ANA304" in report.codes()


class TestSetValuedPaths:
    @pytest.fixture
    def multi_db(self):
        database = Database()
        database.define_class("Tag", attributes=[AttributeDef("label", "String")])
        database.define_class(
            "Doc",
            attributes=[
                AttributeDef("title", "String"),
                AttributeDef("tags", "Tag", multi=True),
            ],
        )
        return database

    def test_contains_on_set_valued_is_clean(self, multi_db):
        tag = multi_db.new("Tag", {"label": "a"})
        multi_db.new("Doc", {"title": "t", "tags": [tag.oid]})
        report = multi_db.check("SELECT d FROM Doc d WHERE d.tags.label CONTAINS 'a'")
        assert report.ok and not report.warnings

    def test_contains_on_single_valued_warns(self, multi_db):
        report = multi_db.check("SELECT d FROM Doc d WHERE d.title CONTAINS 'a'")
        assert report.ok
        assert "ANA202" in report.codes()

    def test_order_by_set_valued_warns(self, multi_db):
        report = multi_db.check(
            "SELECT d FROM Doc d WHERE d.title = 't' ORDER BY d.tags.label"
        )
        assert "ANA402" in report.codes()


class TestMethodChecks:
    def test_unknown_method_with_suggestion(self, shape_db):
        report = shape_db.check("SELECT s FROM Shape s WHERE s.dispaly() = 'x'")
        [diag] = report.errors
        assert diag.code == "ANA301"
        assert "display" in diag.message

    def test_bad_arity(self, shape_db):
        report = shape_db.check("SELECT s FROM Shape s WHERE s.area(1, 2) > 0")
        assert "ANA302" in report.codes()

    def test_good_call_is_clean(self, shape_db):
        assert shape_db.check("SELECT s FROM Shape s WHERE s.area() > 0").ok

    @pytest.fixture
    def partial_db(self):
        """``diagonal`` exists only on the Disc subclass."""
        database = Database()
        database.define_class("Figure", attributes=[AttributeDef("name", "String")])

        def diagonal(receiver):
            return 1

        database.define_class(
            "Disc",
            superclasses=("Figure",),
            methods=[MethodDef("diagonal", diagonal)],
        )
        return database

    def test_partial_coverage_warns_in_hierarchy_scope(self, partial_db):
        report = partial_db.check("SELECT f FROM Figure f WHERE f.diagonal() > 0")
        assert report.ok
        assert "ANA303" in report.codes()

    def test_only_scope_turns_partial_into_error(self, partial_db):
        # ONLY Figure: Disc's method is out of scope entirely
        report = partial_db.check("SELECT f FROM ONLY Figure f WHERE f.diagonal() > 0")
        assert "ANA301" in report.codes()
        # ONLY Disc: fully covered, no diagnostics
        assert partial_db.check("SELECT f FROM ONLY Disc f WHERE f.diagonal() > 0").ok


class TestPruningFacts:
    @pytest.fixture
    def redefined_db(self):
        database = Database()
        database.define_class("Item", attributes=[AttributeDef("tag", "Integer")])
        database.define_class(
            "OddItem", superclasses=["Item"], attributes=[AttributeDef("tag", "String")]
        )
        database.new("Item", {"tag": 5})
        database.new("OddItem", {"tag": "x"})
        return database

    def test_incompatible_redefinition_prunes_subclass(self, redefined_db):
        report = redefined_db.check("SELECT i FROM Item i WHERE i.tag > 3")
        assert report.ok
        assert report.pruned_classes == ["OddItem"]
        assert "ANA501" in report.codes()

    def test_plan_scope_shrinks(self, redefined_db):
        plan = redefined_db.plan("SELECT i FROM Item i WHERE i.tag > 3")
        assert sorted(plan.scope) == ["Item"]
        assert any("pruned" in note for note in plan.notes)

    def test_results_unchanged_by_pruning(self, redefined_db):
        rows = redefined_db.execute("SELECT i FROM Item i WHERE i.tag > 3")
        assert len(rows) == 1

    def test_only_scope_never_prunes(self, redefined_db):
        report = redefined_db.check("SELECT i FROM ONLY OddItem i WHERE i.tag = 'x'")
        assert report.ok and not report.pruned_classes

    def test_explain_surfaces_analysis(self, redefined_db):
        rendered = redefined_db.explain("SELECT i FROM Item i WHERE i.tag > 3").render()
        assert "-- analysis --" in rendered and "ANA501" in rendered


class TestSyntaxErrorSpans:
    def test_caret_points_at_offender(self, populated_db):
        query = "SELECT v FROM Vehicle v WHERE v.weight >"
        with pytest.raises(QuerySyntaxError) as excinfo:
            populated_db.execute(query)
        message = str(excinfo.value)
        assert "position" in message
        assert "line 1, column 41" in message
        assert message.splitlines()[-1].strip() == "^"

    def test_error_carries_offsets(self):
        from repro.query.parser import parse_query

        with pytest.raises(QuerySyntaxError) as excinfo:
            parse_query("SELECT v FROM Vehicle v WHERE ?")
        assert excinfo.value.pos == 30
        assert excinfo.value.line == 1 and excinfo.value.column == 31


class TestDiagnosticReport:
    def test_truthiness_and_severities(self):
        report = DiagnosticReport("q")
        assert report.ok and bool(report)
        report.info("ANA501", "fyi")
        report.warning("ANA202", "hm")
        assert report.ok
        report.error("ANA101", "bad")
        assert not report.ok and not bool(report)
        assert [d.severity for d in report] == [INFO, WARNING, ERROR]

    def test_to_dict_round_trip(self):
        report = DiagnosticReport("q")
        report.error("ANA101", "bad", SourceSpan(2, 5))
        data = report.to_dict()
        assert data["ok"] is False
        assert data["diagnostics"][0]["span"] == [2, 5]


# ---------------------------------------------------------------------------
# engine lint rules
# ---------------------------------------------------------------------------


LATTICE = {"_low": 10, "_high": 20}


def lint(source, subpackage="txn", **config):
    config.setdefault("lock_lattice", LATTICE)
    return Linter(LintConfig(**config)).lint_source(source, "fixture.py", subpackage)


class TestLockOrderRule:
    BAD = """
import threading
class T:
    def __init__(self):
        self._low = threading.Lock()
        self._high = threading.Lock()
    def bad(self):
        with self._high:
            with self._low:
                pass
"""

    GOOD = """
import threading
class T:
    def __init__(self):
        self._low = threading.Lock()
        self._high = threading.Lock()
    def good(self):
        with self._low:
            with self._high:
                pass
"""

    def test_fires_on_decreasing_acquisition(self):
        violations = lint(self.BAD)
        assert [v.rule for v in violations] == ["lock-order"]
        assert "_low" in violations[0].message and "_high" in violations[0].message

    def test_quiet_on_increasing_acquisition(self):
        assert lint(self.GOOD) == []

    def test_same_level_nesting_fires(self):
        source = self.BAD.replace("with self._low:", "with self._high:")
        # re-acquiring the same level while held is also a violation
        assert [v.rule for v in lint(source)] == ["lock-order"]

    def test_undeclared_lock(self):
        source = """
import threading
class T:
    def __init__(self):
        self._mystery = threading.RLock()
"""
        assert [v.rule for v in lint(source)] == ["undeclared-lock"]

    def test_multi_item_with_statement(self):
        source = """
import threading
class T:
    def __init__(self):
        self._low = threading.Lock()
        self._high = threading.Lock()
    def bad(self):
        with self._high, self._low:
            pass
"""
        assert [v.rule for v in lint(source)] == ["lock-order"]


class TestResourceRule:
    def test_span_outside_with_fires(self):
        source = """
def f(tracer):
    s = tracer.span("x")
    return s
"""
        assert [v.rule for v in lint(source)] == ["unreleased-resource"]

    def test_span_inside_with_is_clean(self):
        source = """
def f(tracer):
    with tracer.span("x"):
        pass
"""
        assert lint(source) == []

    def test_stdlib_time_time_not_flagged_as_resource(self):
        # time.time() is not a histogram timer: the resource rule stays
        # quiet; only the wall-clock rule fires.
        source = """
import time
def f():
    return time.time()
"""
        assert [v.rule for v in lint(source)] == ["wall-clock-duration"]

    def test_begin_without_commit_fires(self):
        source = """
def f(mgr):
    txn = mgr.begin()
    txn.put("k", 1)
"""
        violations = lint(source)
        assert [v.rule for v in violations] == ["unreleased-resource"]
        assert "begin" in violations[0].message

    def test_begin_with_commit_or_abort_is_clean(self):
        source = """
def f(mgr):
    txn = mgr.begin()
    try:
        txn.commit()
    except ValueError:
        txn.abort()
"""
        assert lint(source) == []

    def test_begin_escaping_via_return_is_clean(self):
        source = """
def f(mgr):
    txn = mgr.begin()
    return txn
"""
        assert lint(source) == []


class TestPrivacyRule:
    def test_private_import_across_subpackages_fires(self):
        source = "from ..storage.pager import _page_bytes\n"
        violations = lint(source, subpackage="txn")
        assert [v.rule for v in violations] == ["private-access"]

    def test_private_attribute_across_subpackages_fires(self):
        source = """
from ..storage.buffer import pool

def f():
    return pool._frames
"""
        assert [v.rule for v in lint(source, subpackage="txn")] == ["private-access"]

    def test_same_subpackage_private_use_is_fine(self):
        source = """
from .locks import _order

def f():
    return _order
"""
        assert lint(source, subpackage="txn") == []

    def test_public_cross_package_import_is_fine(self):
        source = "from ..storage.buffer import BufferPool\n"
        assert lint(source, subpackage="txn") == []


class TestNestedPrivacyDomain:
    """repro.query.operators is a privacy domain of its own."""

    def test_subpackage_of_resolves_nested_domain(self):
        from repro.analysis.lint import _subpackage_of

        assert (
            _subpackage_of("src/repro/query/operators/base.py", None)
            == "query.operators"
        )
        assert _subpackage_of("src/repro/query/algebra.py", None) == "query"
        assert _subpackage_of("src/repro/database.py", None) == ""

    def test_parent_package_private_import_fires(self):
        source = "from ..algebra import _fold\n"
        violations = lint(source, subpackage="query.operators")
        assert [v.rule for v in violations] == ["private-access"]

    def test_nested_domain_internal_private_import_is_fine(self):
        source = "from .base import _chain\n"
        assert lint(source, subpackage="query.operators") == []

    def test_absolute_private_import_into_nested_domain_fires(self):
        source = "from repro.query.operators.base import _chain\n"
        violations = lint(source, subpackage="obs")
        assert [v.rule for v in violations] == ["private-access"]
        assert "query.operators" in violations[0].message

    def test_parent_reaching_into_nested_domain_privates_fires(self):
        source = "from .operators.base import _chain\n"
        violations = lint(source, subpackage="query")
        assert [v.rule for v in violations] == ["private-access"]


class TestOperatorMaterializationRule:
    def test_fires_inside_operators_package(self):
        source = "def drain(rows):\n    return list(rows)\n"
        violations = lint(source, subpackage="query.operators")
        assert [v.rule for v in violations] == ["operator-materialization"]
        assert "materializes" in violations[0].message

    def test_silent_outside_operators_package(self):
        source = "def drain(rows):\n    return list(rows)\n"
        assert lint(source, subpackage="query") == []

    def test_pragma_marks_deliberate_pipeline_breaker(self):
        source = (
            "def drain(rows):\n"
            "    return list(rows)  # lint: ignore[operator-materialization]\n"
        )
        assert lint(source, subpackage="query.operators") == []


class TestSimpleRules:
    def test_mutable_default(self):
        assert [v.rule for v in lint("def f(x=[]):\n    pass\n")] == ["mutable-default"]
        assert [v.rule for v in lint("def f(x=dict()):\n    pass\n")] == [
            "mutable-default"
        ]
        assert lint("def f(x=None):\n    pass\n") == []

    def test_bare_except(self):
        source = """
def f():
    try:
        pass
    except:
        pass
"""
        assert [v.rule for v in lint(source)] == ["bare-except"]
        assert lint(source.replace("except:", "except ValueError:")) == []

    def test_pragma_silences_one_rule(self):
        source = "def f(x=[]):  # lint: ignore[mutable-default]\n    pass\n"
        assert lint(source) == []

    def test_pragma_blanket(self):
        source = "def f(x=[]):  # lint: ignore\n    pass\n"
        assert lint(source) == []

    def test_pragma_for_other_rule_does_not_silence(self):
        source = "def f(x=[]):  # lint: ignore[bare-except]\n    pass\n"
        assert [v.rule for v in lint(source)] == ["mutable-default"]


class TestWallClockRule:
    def test_time_time_flagged(self):
        source = """
import time
def f():
    started = time.time()
    return time.time() - started
"""
        violations = lint(source)
        assert [v.rule for v in violations] == ["wall-clock-duration"] * 2
        assert "perf_counter" in violations[0].message

    def test_perf_counter_and_monotonic_clean(self):
        source = """
import time
def f():
    return time.perf_counter() + time.monotonic()
"""
        assert lint(source) == []

    def test_pragma_marks_genuine_timestamp(self):
        source = """
import time
def f():
    return {"generated_at": time.time()}  # lint: ignore[wall-clock-duration]
"""
        assert lint(source) == []

    def test_other_modules_time_attribute_not_flagged(self):
        # Only the stdlib wall clock is the hazard; foo.time() is not
        # (though the resource rule may still see an unentered timer).
        source = """
def f(stopwatch):
    return stopwatch.time()
"""
        assert "wall-clock-duration" not in [v.rule for v in lint(source)]


class TestSingleWritePathRule:
    SOURCE = """
def f(db, state):
    db.storage.overwrite(state)
    db.storage.remove(state.oid)
    db.storage.load(state.oid)
    db.tree.remove(state.oid)
"""

    def test_storage_writes_flagged_outside_the_write_path(self):
        violations = lint(self.SOURCE)
        assert [(v.rule, v.line) for v in violations] == [
            ("single-write-path", 3),
            ("single-write-path", 4),
        ]
        assert "Database._write" in violations[0].message

    @pytest.mark.parametrize(
        "path", ["src/repro/database.py", "src/repro/txn/recovery.py"]
    )
    def test_write_path_files_are_exempt(self, path):
        linter = Linter(LintConfig(lock_lattice=LATTICE))
        assert linter.lint_source(self.SOURCE, path, "txn") == []


class TestLiteralMetricNameRule:
    def test_computed_names_flagged(self):
        source = """
def f(registry, base, kind):
    registry.counter(base + ".count")
    registry.histogram(kind)
    registry.gauge("%s.live" % kind if kind else base)
    registry.derived(NAME, lambda: 0.0)
"""
        violations = lint(source)
        assert [(v.rule, v.line) for v in violations] == [
            ("literal-metric-name", line) for line in (3, 4, 5, 6)
        ]
        assert "greppable" in violations[0].message

    def test_literals_and_literal_formats_clean(self):
        source = """
def f(registry, name, bounds):
    registry.counter("buffer.hits")
    registry.histogram("query.seconds", bounds)
    registry.counter("index.%s.probes" % name)
    registry.derived("buffer.hit_rate", lambda: 0.0)
    registry.value(name)
"""
        assert lint(source) == []


class TestToolsLayeringRule:
    SOURCE = """
from ..tools.browser import class_tree
from .. import tools
from repro.tools import benchgate
import repro.tools.monitor
from ..lang import describe_class
from .tools import helper
import repro.toolsmith
"""

    def test_engine_imports_of_the_tools_flagged(self):
        violations = lint(self.SOURCE, subpackage="lang")
        assert [(v.rule, v.line) for v in violations] == [
            ("tools-layering", line) for line in (2, 3, 4, 5)
        ]
        assert "'lang'" in violations[0].message

    def test_root_modules_are_checked_too(self):
        assert [v.line for v in lint("from .tools import browser\n", subpackage="")] == [1]

    def test_the_tools_may_import_each_other(self):
        assert lint(self.SOURCE, subpackage="tools") == []


class TestDynamicCodeRule:
    SOURCE = """
import re

def f(text, namespace):
    exec(text, namespace)
    eval(text)
    code = compile(text, "<x>", "exec")
    re.compile(text)
    return namespace.exec(code)
"""

    def test_exec_eval_and_compile_flagged_outside_the_compiler(self):
        violations = lint(self.SOURCE)
        assert [(v.rule, v.line) for v in violations] == [
            ("dynamic-code", line) for line in (5, 6, 7)
        ]
        assert "exec()" in violations[0].message

    def test_the_expression_compiler_is_exempt(self):
        linter = Linter(LintConfig(lock_lattice=LATTICE))
        assert linter.lint_source(self.SOURCE, "src/repro/query/compiler.py", "query") == []


class TestLintGate:
    def test_engine_source_is_clean(self):
        assert lint_paths([SRC_REPRO], engine_config()) == []

    def test_engine_lattice_covers_discovered_locks(self):
        config = engine_config()
        assert {"_id_mutex", "_mutex", "_condition"} <= set(config.lock_lattice)

    def test_server_mutexes_rank_below_every_engine_latch(self):
        # The engine slots and the session mutex are held across whole
        # engine calls, so the lattice must place them (and their
        # registry/connection-table/pool cousins) below the engine's
        # own latches.
        lattice = engine_config().lock_lattice
        server_locks = {
            "_engine_slots",
            "_session_mutex",
            "_sessions_mutex",
            "_conns_mutex",
            "_pool_mutex",
        }
        assert server_locks <= set(lattice)
        ceiling = max(lattice[name] for name in server_locks)
        engine_floor = min(
            level for name, level in lattice.items() if name not in server_locks
        )
        assert ceiling < engine_floor

    def test_cli_strict_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x=None):\n    return x\n")
        assert lint_main([str(clean), "--strict"]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(x=[]):\n    return x\n")
        assert lint_main([str(dirty), "--strict"]) == 1
        assert lint_main([str(dirty)]) == 0  # non-strict reports but passes
        out = capsys.readouterr().out
        assert "mutable-default" in out

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules", "ignored"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in out

    def test_cli_single_rule_filter(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(x=[]):\n    pass\n")
        assert lint_main([str(dirty), "--strict", "--rule", "bare-except"]) == 0
        assert lint_main([str(dirty), "--strict", "--rule", "mutable-default"]) == 1
