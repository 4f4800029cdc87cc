"""The perf-regression gate: comparisons, tolerance, and CLI behaviour."""

import json
import os

from repro.tools import benchgate


def _write_artifact(directory, name, metrics, series=None):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "BENCH_%s.json" % name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"bench": name, "metrics": metrics, "series": series or []}, handle
        )
    return path


BASE_METRICS = {
    "pager.reads": 1000,
    "wal.appends": 5000,
    "locks.acquisitions": 12000,
    "buffer.hits": 99999,  # not a gated cost counter
    "query.seconds": {"count": 3, "sum": 0.1},  # histogram: skipped
    "buffer.hit_rate": 1.0,
}


class TestCompare:
    def test_identical_metrics_pass(self, tmp_path):
        _write_artifact(str(tmp_path / "base"), "e1", BASE_METRICS)
        _write_artifact(str(tmp_path / "fresh"), "e1", BASE_METRICS)
        findings = benchgate.compare_dirs(str(tmp_path / "base"), str(tmp_path / "fresh"))
        assert findings == []

    def test_artificial_regression_fails(self, tmp_path):
        _write_artifact(str(tmp_path / "base"), "e1", BASE_METRICS)
        fresh = dict(BASE_METRICS, **{"pager.reads": 2000})  # +100% > 25%
        _write_artifact(str(tmp_path / "fresh"), "e1", fresh)
        findings = benchgate.compare_dirs(str(tmp_path / "base"), str(tmp_path / "fresh"))
        assert [f.kind for f in findings] == ["regression"]
        assert findings[0].metric == "pager.reads"
        assert findings[0].delta_pct == 100.0

    def test_workspace_counts_are_gated(self, tmp_path):
        base = dict(BASE_METRICS, **{"workspace.hits.lazy.hot": 30})
        fresh = dict(BASE_METRICS, **{"workspace.hits.lazy.hot": 12000})  # no pointers
        _write_artifact(str(tmp_path / "base"), "e5", base)
        _write_artifact(str(tmp_path / "fresh"), "e5", fresh)
        findings = benchgate.compare_dirs(str(tmp_path / "base"), str(tmp_path / "fresh"))
        assert [(f.kind, f.metric) for f in findings] == [
            ("regression", "workspace.hits.lazy.hot")
        ]

    def test_within_tolerance_passes(self, tmp_path):
        _write_artifact(str(tmp_path / "base"), "e1", BASE_METRICS)
        fresh = dict(BASE_METRICS, **{"pager.reads": 1200})  # +20% < 25%
        _write_artifact(str(tmp_path / "fresh"), "e1", fresh)
        assert benchgate.compare_dirs(str(tmp_path / "base"), str(tmp_path / "fresh")) == []

    def test_improvement_reported_but_not_a_regression(self, tmp_path):
        _write_artifact(str(tmp_path / "base"), "e1", BASE_METRICS)
        fresh = dict(BASE_METRICS, **{"wal.appends": 2000})  # -60%
        _write_artifact(str(tmp_path / "fresh"), "e1", fresh)
        findings = benchgate.compare_dirs(str(tmp_path / "base"), str(tmp_path / "fresh"))
        assert [f.kind for f in findings] == ["improvement"]

    def test_min_base_floor_suppresses_small_count_noise(self, tmp_path):
        base = dict(BASE_METRICS, **{"pager.writes": 2})
        fresh = dict(BASE_METRICS, **{"pager.writes": 8})  # 4x, but tiny
        _write_artifact(str(tmp_path / "base"), "e1", base)
        _write_artifact(str(tmp_path / "fresh"), "e1", fresh)
        assert benchgate.compare_dirs(str(tmp_path / "base"), str(tmp_path / "fresh")) == []

    def test_non_cost_counters_are_ignored(self, tmp_path):
        _write_artifact(str(tmp_path / "base"), "e1", BASE_METRICS)
        fresh = dict(BASE_METRICS, **{"buffer.hits": 1})  # massive change, not gated
        _write_artifact(str(tmp_path / "fresh"), "e1", fresh)
        assert benchgate.compare_dirs(str(tmp_path / "base"), str(tmp_path / "fresh")) == []

    def test_missing_fresh_artifact_is_a_regression(self, tmp_path):
        _write_artifact(str(tmp_path / "base"), "e1", BASE_METRICS)
        os.makedirs(str(tmp_path / "fresh"))
        findings = benchgate.compare_dirs(str(tmp_path / "base"), str(tmp_path / "fresh"))
        assert [f.kind for f in findings] == ["missing"]

    def test_new_benchmark_without_baseline_passes(self, tmp_path):
        os.makedirs(str(tmp_path / "base"))
        _write_artifact(str(tmp_path / "fresh"), "new_bench", BASE_METRICS)
        assert benchgate.compare_dirs(str(tmp_path / "base"), str(tmp_path / "fresh")) == []

    def test_timings_gated_only_when_asked(self, tmp_path):
        series_base = [{"plan": "scan", "ms": 10.0}]
        series_slow = [{"plan": "scan", "ms": 100.0}]
        _write_artifact(str(tmp_path / "base"), "e1", BASE_METRICS, series_base)
        _write_artifact(str(tmp_path / "fresh"), "e1", BASE_METRICS, series_slow)
        quiet = benchgate.compare_dirs(str(tmp_path / "base"), str(tmp_path / "fresh"))
        assert quiet == []
        loud = benchgate.compare_dirs(
            str(tmp_path / "base"),
            str(tmp_path / "fresh"),
            include_timings=True,
            min_base=1.0,
        )
        assert [f.kind for f in loud] == ["regression"]
        assert loud[0].metric == "ms:scan"


class TestListDeltas:
    def test_list_rows_include_steady_counters(self, tmp_path):
        _write_artifact(str(tmp_path / "base"), "e1", BASE_METRICS)
        fresh = dict(BASE_METRICS, **{"pager.reads": 1100})
        _write_artifact(str(tmp_path / "fresh"), "e1", fresh)
        rows = benchgate.list_rows(str(tmp_path / "base"), str(tmp_path / "fresh"))
        # Steady counters appear too — drift under tolerance stays visible.
        assert ("e1", "wal.appends", 5000.0, 5000.0) in rows
        assert ("e1", "pager.reads", 1000.0, 1100.0) in rows
        # Non-gated counters (buffer.hits) stay out of the table.
        assert not any(metric == "buffer.hits" for _, metric, _, _ in rows)

    def test_list_rows_mark_one_sided_counters(self, tmp_path):
        _write_artifact(str(tmp_path / "base"), "e1", {"pager.reads": 10})
        _write_artifact(
            str(tmp_path / "fresh"), "e1", {"query.cost.candidates": 4}
        )
        rows = benchgate.list_rows(str(tmp_path / "base"), str(tmp_path / "fresh"))
        assert ("e1", "pager.reads", 10.0, None) in rows
        assert ("e1", "query.cost.candidates", None, 4.0) in rows

    def test_markdown_render_deltas(self):
        rows = [
            ("e1", "pager.reads", 1000.0, 1100.0),
            ("e1", "query.cost.candidates", None, 4.0),
            ("e1", "wal.appends", 0.0, 7.0),
        ]
        table = benchgate.render_markdown_deltas(rows)
        assert table.startswith("### benchgate counter deltas")
        assert "| e1 | pager.reads | 1000 | 1100 | +10.0% |" in table
        assert "| e1 | query.cost.candidates | — | 4 | n/a |" in table
        assert "| e1 | wal.appends | 0 | 7 | +inf |" in table

    def test_cli_list_prints_and_appends_step_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        base_dir = str(tmp_path / "base")
        fresh_dir = str(tmp_path / "fresh")
        _write_artifact(base_dir, "e1", BASE_METRICS)
        # A large regression must NOT fail --list: it reports, not gates.
        _write_artifact(fresh_dir, "e1", dict(BASE_METRICS, **{"pager.reads": 9000}))
        summary = tmp_path / "step-summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert (
            benchgate.main(["--baseline", base_dir, "--fresh", fresh_dir, "--list"])
            == 0
        )
        out = capsys.readouterr().out
        assert "benchgate counter deltas" in out
        assert "+800.0%" in out
        assert "benchgate counter deltas" in summary.read_text()

    def test_cli_list_without_step_summary_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        base_dir = str(tmp_path / "base")
        _write_artifact(base_dir, "e1", BASE_METRICS)
        _write_artifact(str(tmp_path / "fresh"), "e1", BASE_METRICS)
        assert (
            benchgate.main(
                ["--baseline", base_dir, "--fresh", str(tmp_path / "fresh"), "--list"]
            )
            == 0
        )
        assert "+0.0%" in capsys.readouterr().out


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        base_dir = str(tmp_path / "base")
        fresh_dir = str(tmp_path / "fresh")
        _write_artifact(base_dir, "e1", BASE_METRICS)
        _write_artifact(fresh_dir, "e1", dict(BASE_METRICS, **{"pager.reads": 9000}))
        assert benchgate.main(["--baseline", base_dir, "--fresh", fresh_dir]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "pager.reads" in out
        _write_artifact(fresh_dir, "e1", BASE_METRICS)
        assert benchgate.main(["--baseline", base_dir, "--fresh", fresh_dir]) == 0

    def test_missing_baseline_dir_is_not_fatal(self, tmp_path):
        assert (
            benchgate.main(
                ["--baseline", str(tmp_path / "nope"), "--fresh", str(tmp_path)]
            )
            == 0
        )

    def test_update_writes_baselines(self, tmp_path):
        base_dir = str(tmp_path / "base")
        fresh_dir = str(tmp_path / "fresh")
        _write_artifact(fresh_dir, "e1", BASE_METRICS)
        assert (
            benchgate.main(
                ["--baseline", base_dir, "--fresh", fresh_dir, "--update"]
            )
            == 0
        )
        assert os.path.exists(os.path.join(base_dir, "BENCH_e1.json"))
