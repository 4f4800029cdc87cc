"""The ledger checks itself (``pytest benchmarks``; not part of tier-1).

Each workload runs at 3 rounds per client with its oracle on.  The tests
hold the harness to what it promises: it emits exactly the declared
metric names, it puts every patched callable back, the self-time
partition adds up, and the bypass predictions hold as exact counts.
"""

import copy
import json
import os

import pytest

from ledger import check_manifest, harness, layers, trace
from repro.query.planner import Planner

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 7


@pytest.fixture(scope="module")
def manifest():
    return check_manifest.load(ROOT)


def _run(name, out_dir, traced):
    result = harness.run_workload(name, SEED, trace=traced, out_dir=str(out_dir), rounds=3)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("name", list(layers.WORKLOADS))
def test_workload_is_correct_and_emits_the_declared_names(name, tmp_path, manifest):
    original_plan = vars(Planner)["plan"]
    traced = _run(name, tmp_path, True)
    plain = _run(name, tmp_path, False)
    check_manifest.check_emitted(manifest, True, traced["metrics"])
    check_manifest.check_emitted(manifest, False, plain["metrics"])
    assert all(value > 0 for value in plain["metrics"].values())

    # Wrappers are gone: every target is the callable it was before.
    assert vars(Planner)["plan"] is original_plan
    for _span, owner_path, attr, _metric, _kind in trace.TARGETS:
        assert not hasattr(vars(trace._resolve(owner_path))[attr], "__wrapped__")
    import repro.server.protocol
    import repro.server.server

    assert repro.server.server.protocol is repro.server.protocol

    # The partition adds up to the traced round.
    m = traced["metrics"]
    explained = sum(m[n] for n in layers.SELF_TIME) + m["harness.unattributed_ms"]
    assert explained == pytest.approx(traced["ms_per_round"]["traced"], rel=1e-9)

    # Layers a workload never enters read exactly zero.
    for metric in layers.SELF_TIME:
        if metric.startswith("server.") and name != "server_mixed":
            assert m[metric] == 0
        if metric.startswith("workspace.") and name != "oo1_traverse":
            assert m[metric] == 0
    if name in layers.SINGLE_THREADED:
        assert m["versions.plan_downgrades_per_round"] == 0
    if name == "oo1_traverse":
        assert m["workspace.hit_ratio"] > 0

    # The trace file holds the kept rounds' spans, parents resolvable.
    with open(tmp_path / ("trace_%s.json" % name)) as handle:
        dumped = json.load(handle)
    ids = {span["id"] for span in dumped["spans"]}
    assert dumped["spans"] and all(
        span["parent"] is None or span["parent"] in ids for span in dumped["spans"]
    )
    assert {span["round"] for span in dumped["spans"]} - {None}


def test_fig1_scan_bypasses_locks_and_the_pager(tmp_path):
    m = _run("fig1_scan", tmp_path, True)["metrics"]
    assert m["txn.lock_acquisitions_per_round"] == 0
    assert m["storage.pager_reads_per_round"] == 0
    assert m["txn.wal_bytes_per_user_byte"] == 0
    assert m["analysis.plancache_hit_ratio"] == 1.0


def test_query_point_counts_repeat_exactly_for_one_seed(tmp_path):
    first = _run("query_point", tmp_path, True)["metrics"]
    second = _run("query_point", tmp_path, True)["metrics"]
    assert first["analysis.plancache_hit_ratio"] == second["analysis.plancache_hit_ratio"]
    assert 0 < first["analysis.plancache_hit_ratio"] < 1
    for metric in layers.PER_LAYER:
        if metric.unit in ("count", "ratio") and not metric.name.startswith("obs."):
            assert first[metric.name] == second[metric.name], metric.name
    assert first["txn.lock_acquisitions_per_round"] == 0


@pytest.mark.parametrize(
    "mutate, expect",
    [
        (lambda m: m["per_layer"][0].update(name="bad name"), "bad name"),
        (lambda m: m["end_to_end"].pop(0), "setup_s"),
        (lambda m: m["paths"].append("no/such/dir"), "does not exist"),
        (lambda m: m["workloads"].__delitem__(slice(1, None)), "2 to 8"),
        (lambda m: m["end_to_end"][1].update(bound=0.5), "bound"),
        (lambda m: m["per_layer"].append(dict(m["per_layer"][0])), "more than once"),
        (lambda m: m["command"].append("src/repro/database.py"), "outside paths"),
    ],
)
def test_check_manifest_names_what_is_wrong(manifest, mutate, expect):
    broken = copy.deepcopy(manifest)
    mutate(broken)
    problems = check_manifest.problems_in(broken, ROOT, 1000)
    assert any(expect in problem for problem in problems), problems


def test_check_emitted_rejects_a_missing_or_extra_name(manifest):
    names = {entry["name"] for entry in manifest["end_to_end"]}
    check_manifest.check_emitted(manifest, False, names)
    with pytest.raises(check_manifest.ManifestError):
        check_manifest.check_emitted(manifest, False, names - {"setup_s"})
    with pytest.raises(check_manifest.ManifestError):
        check_manifest.check_emitted(manifest, False, names | {"surprise"})
