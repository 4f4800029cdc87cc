"""Passes, timing and metric assembly shared by the five workloads.

A run is: set-up -> measured pass (no wrappers; end-to-end metrics,
counter deltas, request-class latencies) -> traced pass (same database,
half the rounds, :class:`~ledger.trace.LayerTracer` installed; span
self-times) -> obs-off pass (a quarter of the rounds with the engine's
own tracer and wait profiler switched off).  The timed unit is one
*round*: a fixed, seed-ordered sequence of requests.  A round's inputs
are generated before its clock starts and its outputs are checked after
it stops, so the latency is the engine's, not the oracle's.

Every reported time is scaled to a reference machine speed measured in
the run itself, round by round (:mod:`ledger.calibrate` says why).
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.storage.serializer import encode_object

from . import calibrate, layers
from .trace import KEEP_ROUNDS, LayerTracer

WARMUP_ROUNDS = 5


class WrongResult(Exception):
    """A request returned something the plain-Python oracle disagrees with."""


class Workload:
    """One workload: generated inputs, a database, rounds and their oracle.

    Subclasses set ``name``, ``clients``, ``rounds`` (measured pass, all
    clients together, sized once for ``layers.RUN_SECONDS``) and
    ``requests_per_round``, and implement :meth:`setup`,
    :meth:`plan_round`, :meth:`run_round` and :meth:`check_round`.
    """

    name = ""
    clients = 1
    rounds = 100
    requests_per_round = 0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.db: Any = None

    def setup(self) -> None:
        raise NotImplementedError

    def plan_round(self, client: int, round_id: int) -> Any:
        """The round's inputs, derived from (seed, round id) only."""
        raise NotImplementedError

    def run_round(self, client: int, plan: Any, lat: Dict[str, List[float]]) -> Any:
        """Issue the round's requests (timed); return what they returned."""
        raise NotImplementedError

    def check_round(self, plan: Any, results: Any) -> None:
        """Raise :class:`WrongResult` unless ``results`` match the oracle."""
        raise NotImplementedError

    def recover(self, client: int) -> None:
        """Undo what a failed round may have left open (untimed)."""

    def extra_counts(self) -> Dict[str, float]:
        """Harness-side counts no engine counter carries (cumulative)."""
        return {}

    def space(self) -> Dict[str, float]:
        """File bytes and encoded bytes of live objects, after the passes."""
        storage = self.db.storage
        user_bytes = 0
        for class_name in storage.heap_names():
            for state in storage.scan_class(class_name):
                user_bytes += len(encode_object(state))
        return {
            "file_bytes": storage.pager.page_count * storage.pager.page_size,
            "user_bytes": user_bytes,
        }

    def final_checks(self) -> None:
        """Correctness checks outside the timed passes; raise on violation."""

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None


#: Kernel samples either side of a round whose median scales it.
WINDOW = 3


class PassResult:
    """What one pass over ``rounds`` rounds produced (times as measured)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Per step (one round of every client, started together): the
        #: latencies of the correct rounds, the step's duration and the
        #: CPU seconds the whole process spent in it.
        self.steps: List[Tuple[List[float], float, float]] = []
        #: Calibration kernel seconds, one before each step and one after
        #: the last.
        self.kernels: List[float] = []
        #: Per step: the factor that takes its times to reference speed,
        #: and the pass-wide factor for sums that span the whole pass
        #: (both set by :meth:`finish`).
        self.step_scales: List[float] = []
        self.scale = 1.0
        self.classes: Dict[str, List[float]] = {}
        self.first_error: Optional[str] = None
        self.counters: Dict[str, float] = {}

    def finish(self) -> None:
        """Work out the scales once the steps and kernel samples are in."""
        for i, (_latencies, duration, cpu) in enumerate(self.steps):
            window = self.kernels[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]
            self.step_scales.append(
                calibrate.scale(statistics.median(window), cpu, duration)
            )
        self.scale = self.scaled_wall_s() / sum(step[1] for step in self.steps)

    def scaled_latencies(self) -> List[float]:
        """Every correct round's latency at reference speed, each scaled
        by the kernel samples taken around it."""
        return [
            scale * lat
            for scale, step in zip(self.step_scales, self.steps)
            for lat in step[0]
        ]

    def scaled_wall_s(self) -> float:
        """The steps' total duration at reference speed (kernel runs and
        the waits around them excluded)."""
        return sum(scale * step[1] for scale, step in zip(self.step_scales, self.steps))

    @property
    def ms_per_round(self) -> float:
        """Mean latency of the correct rounds, scaled pass-wide — the
        number the traced pass's self times add up to."""
        latencies = [lat for step in self.steps for lat in step[0]]
        if not latencies:
            return 0.0
        return 1000.0 * self.scale * sum(latencies) / len(latencies)

    @property
    def p50_ms(self) -> float:
        latencies = self.scaled_latencies()
        return 1000.0 * statistics.median(latencies) if latencies else 0.0


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile: with 100 samples, p90 has 10 beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _snapshot(db: Any) -> Dict[str, float]:
    """``db.metrics.snapshot()``: counters as they are, histograms as
    ``<name>.sum``.

    The registry iterates a plain dict, and a server thread that lazily
    registers a metric at that moment makes the iteration raise (seen
    once in ~400 ``server_mixed`` runs); the snapshot is simply retaken.
    """
    for _ in range(5):
        try:
            snapshot = db.metrics.snapshot()
            break
        except RuntimeError:
            time.sleep(0.01)
    else:
        snapshot = db.metrics.snapshot()
    out: Dict[str, float] = {}
    for name, value in snapshot.items():
        if isinstance(value, dict):
            out[name + ".sum"] = float(value.get("sum") or 0.0)
        elif isinstance(value, (int, float)):
            out[name] = value
    return out


BOUNDARY_TIMEOUT = 120.0


class _Pass:
    """State the client loops of one pass share."""

    def __init__(self, workload: Workload, first_round: int, per_client: int,
                 tracer: Optional[LayerTracer]) -> None:
        self.workload = workload
        self.first_round = first_round
        self.per_client = per_client
        self.tracer = tracer
        self.barrier = (
            threading.Barrier(workload.clients) if workload.clients > 1 else None
        )
        self.mutex = threading.Lock()
        self.kernels: List[float] = []
        #: (wall clock, process CPU clock) as each step ends and begins.
        self.ends: List[Tuple[float, float]] = []
        self.begins: List[Tuple[float, float]] = []
        #: client -> latency (None = failed round) per step.
        self.by_client: Dict[int, List[Optional[float]]] = {}
        self.classes: Dict[str, List[float]] = {}
        self.first_error: Optional[str] = None
        self.crash: Optional[str] = None

    def boundary(self, client: int) -> None:
        """Between rounds: every client stops and client 0, alone on the
        machine as far as this process goes, times the kernel once."""
        if self.barrier is not None:
            self.barrier.wait(BOUNDARY_TIMEOUT)
        if client == 0:
            self.ends.append((time.perf_counter(), time.process_time()))
            self.kernels.append(calibrate.kernel())
            self.begins.append((time.perf_counter(), time.process_time()))
        if self.barrier is not None:
            self.barrier.wait(BOUNDARY_TIMEOUT)

    def client_loop(self, client: int) -> None:
        try:
            self._client_loop(client)
        except BaseException:
            # Outside a round nothing is expected to fail; stop the other
            # clients at their next boundary instead of letting them wait.
            with self.mutex:
                self.crash = self.crash or traceback.format_exc()
            if self.barrier is not None:
                self.barrier.abort()

    def _client_loop(self, client: int) -> None:
        workload, tracer, clock = self.workload, self.tracer, time.perf_counter
        lat: Dict[str, List[float]] = {}
        steps: List[Optional[float]] = []
        first_error = None
        for i in range(self.per_client):
            self.boundary(client)
            round_id = self.first_round + i * workload.clients + client
            plan = workload.plan_round(client, round_id)
            if tracer is not None:
                tracer.begin_round(round_id, keep=i < KEEP_ROUNDS)
            latency: Optional[float] = None
            try:
                t0 = clock()
                results = workload.run_round(client, plan, lat)
                t1 = clock()
                if tracer is not None:
                    tracer.end_round()
                workload.check_round(plan, results)
                latency = t1 - t0
            except Exception:
                if tracer is not None:
                    tracer.end_round()
                first_error = first_error or traceback.format_exc()
                workload.recover(client)
            steps.append(latency)
        self.boundary(client)
        with self.mutex:
            self.first_error = self.first_error or first_error
            self.by_client[client] = steps
            for name, samples in lat.items():
                self.classes.setdefault(name, []).extend(samples)


def run_pass(
    workload: Workload,
    first_round: int,
    rounds: int,
    tracer: Optional[LayerTracer] = None,
) -> PassResult:
    """Run ``rounds`` rounds (all clients together), closed loop.

    The clients move in steps: each runs one round, all wait, the
    calibration kernel is timed once, the next step starts.  With one
    client that is a plain loop with a kernel run between rounds.
    """
    clients = workload.clients
    if rounds % clients:
        raise ValueError("rounds must divide evenly among clients")
    shared = _Pass(workload, first_round, rounds // clients, tracer)
    before = _snapshot(workload.db)
    extra_before = workload.extra_counts()
    if clients == 1:
        shared.client_loop(0)
    else:
        threads = [
            threading.Thread(target=shared.client_loop, args=(k,), name="ledger-client-%d" % k)
            for k in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if shared.crash is not None:
        raise RuntimeError("%s: a client loop died\n%s" % (workload.name, shared.crash))

    result = PassResult()
    result.attempted = rounds
    result.first_error = shared.first_error
    result.kernels = shared.kernels
    result.classes = shared.classes
    for i in range(shared.per_client):
        latencies = [shared.by_client[k][i] for k in range(clients)]
        began, ended = shared.begins[i], shared.ends[i + 1]
        result.steps.append(
            (
                [lat for lat in latencies if lat is not None],
                ended[0] - began[0],
                ended[1] - began[1],
            )
        )
    result.failed = rounds - sum(len(step[0]) for step in result.steps)
    result.finish()
    after = _snapshot(workload.db)
    result.counters = {
        name: value - before.get(name, 0) for name, value in after.items()
    }
    for name, value in workload.extra_counts().items():
        result.counters[name] = value - extra_before.get(name, 0)
    return result


def warm_up(workload: Workload) -> None:
    """The untimed rounds that end set-up; a wrong one fails the run."""
    result = run_pass(workload, 0, WARMUP_ROUNDS * workload.clients)
    if result.failed:
        raise RuntimeError(
            "%s: %d warm-up round(s) failed\n%s"
            % (workload.name, result.failed, result.first_error)
        )


# -- metric assembly -----------------------------------------------------------


def end_to_end(setup_s: float, measured: PassResult, peak_rss_mb: float) -> Dict[str, float]:
    latencies = measured.scaled_latencies()
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / measured.scaled_wall_s(),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_p90_ms": 1000.0 * percentile(latencies, 0.90),
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Request-class latency metric -> the class name workloads record under.
_CLASS_P50 = {
    "server.point_query_p50_ms": "point_query",
    "server.get_p50_ms": "get",
    "server.stream_p50_ms": "stream",
    "server.write_txn_p50_ms": "write_txn",
    "query.fig1_p50_ms": "fig1",
    "query.groupby_p50_ms": "groupby",
    "query.topk_p50_ms": "topk",
    "query.cache_hit_p50_ms": "cache_hit",
    "query.cache_miss_p50_ms": "cache_miss",
    "index.lookup_batch_p50_ms": "lookup_batch",
    "workspace.traverse_p50_ms": "traverse",
}


def per_layer(
    measured: PassResult,
    traced: PassResult,
    obs_off: PassResult,
    rollup: Dict[str, Dict[str, Any]],
    space: Dict[str, float],
) -> Dict[str, float]:
    """All ``layers.PER_LAYER`` metrics for one run (0 where no work).

    ``rollup`` is the traced pass's :meth:`LayerTracer.rollup`.
    """
    c = measured.counters
    rounds = measured.attempted
    out: Dict[str, float] = dict.fromkeys(layers.SELF_TIME, 0.0)

    # Span self-times: mean ms per traced round, all threads together,
    # at reference speed like every other time.
    per_round = 1000.0 * traced.scale / max(1, traced.attempted)
    for entry in rollup.values():
        out[entry["metric"]] += per_round * entry["self_s"]
    checkpoint = rollup.get("Database.checkpoint")
    out["txn.checkpoint_ms"] = per_round * checkpoint["total_s"] if checkpoint else 0.0
    out["harness.unattributed_ms"] = traced.ms_per_round - sum(
        out[n] for n in layers.SELF_TIME
    )

    # Request-class medians, timed at the harness's call site.
    for metric, class_name in _CLASS_P50.items():
        samples = measured.classes.get(class_name)
        out[metric] = (
            1000.0 * measured.scale * statistics.median(samples) if samples else 0.0
        )

    # Counter deltas over the measured pass.
    out["server.requests_per_round"] = c.get("server.requests", 0) / rounds
    out["server.bytes_per_round"] = (
        c.get("server.bytes_in", 0) + c.get("server.bytes_out", 0)
    ) / rounds
    out["query.rows_examined_per_row"] = _ratio(
        c.get("query.rows_examined", 0), c.get("query.rows", 0)
    )
    out["query.index_probes_per_round"] = c.get("query.index_probes", 0) / rounds
    hits = c.get("query.plan_cache.hits", 0)
    out["analysis.plancache_hit_ratio"] = _ratio(
        hits, hits + c.get("query.plan_cache.misses", 0)
    )
    ws_hits = c.get("workspace.hits", 0)
    out["workspace.hit_ratio"] = _ratio(ws_hits, ws_hits + c.get("workspace.faults", 0))
    buffer_hits = c.get("buffer.hits", 0)
    out["storage.buffer_hit_ratio"] = _ratio(
        buffer_hits, buffer_hits + c.get("buffer.faults", 0)
    )
    out["storage.buffer_evictions_per_round"] = c.get("buffer.evictions", 0) / rounds
    out["storage.pager_reads_per_round"] = c.get("pager.reads", 0) / rounds
    out["storage.pager_writes_per_round"] = c.get("pager.writes", 0) / rounds
    out["storage.file_bytes_per_user_byte"] = _ratio(
        space["file_bytes"], space["user_bytes"]
    )
    out["txn.wal_syncs_per_commit"] = _ratio(
        c.get("wal.syncs", 0), c.get("txn.commits", 0)
    )
    out["txn.wal_bytes_per_user_byte"] = _ratio(
        c.get("wal.append_bytes", 0) + c.get("wal.page_image_bytes", 0),
        c.get("user_bytes_written", 0),
    )
    out["txn.lock_wait_ms"] = (
        1000.0 * measured.scale * c.get("locks.wait_seconds.sum", 0.0) / rounds
    )
    out["txn.lock_acquisitions_per_round"] = c.get("locks.acquisitions", 0) / rounds
    out["versions.snapshots_per_round"] = c.get("txn.snapshot.opened", 0) / rounds
    out["versions.plan_downgrades_per_round"] = (
        c.get("txn.snapshot.plan_downgrades", 0) / rounds
    )
    out["versions.gc_reclaimed_per_round"] = (
        c.get("txn.snapshot.gc_reclaimed", 0) / rounds
    )

    # The observer's cost: the harness's wrappers, then the engine's own.
    out["obs.trace_overhead_ratio"] = _ratio(traced.p50_ms, measured.p50_ms)
    out["obs.engine_obs_cost_ratio"] = _ratio(measured.p50_ms, obs_off.p50_ms)
    return out


# -- one run -------------------------------------------------------------------

#: Floor on the measured pass, all clients together.
MIN_ROUNDS = 100
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(cls: Any, seed: int, tmp_root: str) -> Workload:
    workload = cls(seed, tempfile.mkdtemp(prefix="db-", dir=tmp_root))
    try:
        workload.setup()
        warm_up(workload)
    except BaseException:
        workload.close()
        raise
    return workload


def run_workload(
    name: str,
    seed: int,
    trace: bool,
    out_dir: str,
    seconds: float = layers.RUN_SECONDS,
    rounds: Optional[int] = None,
    preamble_s: float = 0.0,
) -> Dict[str, Any]:
    """One run of one workload; returns the result the entry point prints.

    ``trace=False`` reports the end-to-end metrics from the measured pass
    (set-up is repeated and its median taken); ``trace=True`` adds the
    traced and obs-off passes and reports the per-layer metrics.
    ``rounds`` (per client) overrides the workload's own count — tests
    only; the driver's ``--seconds`` scales it from ``layers.RUN_SECONDS``.
    ``preamble_s`` is the time from process entry to this call.
    """
    from .workloads import REGISTRY

    cls = REGISTRY[name]
    if rounds is None:
        scaled = round(cls.rounds * seconds / layers.RUN_SECONDS)
        rounds = max(MIN_ROUNDS, scaled) // cls.clients
    os.makedirs(out_dir, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="tmp-%d-" % os.getpid(), dir=out_dir)
    workload: Optional[Workload] = None
    try:
        # Set-up, timed between two calibration points of its own.
        setups: List[float] = []
        point = calibrate.point()
        preamble_s *= calibrate.scale(point, 1.0, 1.0)
        for _ in range(1 if trace else SETUP_REPEATS):
            if workload is not None:
                workload.close()
            started, cpu_started = time.perf_counter(), time.process_time()
            workload = _set_up(cls, seed, tmp_root)
            elapsed = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
            before, point = point, calibrate.point()
            setups.append(elapsed * calibrate.scale((before + point) / 2.0, cpu, elapsed))
        assert workload is not None
        setup_s = preamble_s + statistics.median(setups)

        first = WARMUP_ROUNDS * cls.clients
        measured = run_pass(workload, first, rounds * cls.clients)
        passes = {"measured": measured}
        detail: Dict[str, Any] = {}
        if trace:
            first += measured.attempted
            tracer = LayerTracer()
            with tracer:
                traced = run_pass(
                    workload, first, max(1, rounds // 2) * cls.clients, tracer
                )
            first += traced.attempted
            workload.db.configure_observability(tracing=False, wait_profiling=False)
            try:
                obs_off = run_pass(workload, first, max(1, rounds // 4) * cls.clients)
            finally:
                workload.db.configure_observability(tracing=True, wait_profiling=True)
            passes.update(traced=traced, obs_off=obs_off)
            detail["rollup"] = tracer.rollup()
            metrics = per_layer(
                measured, traced, obs_off, detail["rollup"], workload.space()
            )
            with open(os.path.join(out_dir, "trace_%s.json" % name), "w") as handle:
                json.dump(
                    {
                        "workload": name,
                        "seed": seed,
                        "traced_rounds": traced.attempted,
                        "reference_scale": traced.scale,
                        "rollup": detail["rollup"],
                        "spans": tracer.kept_spans(),
                    },
                    handle,
                )
        check_error = None
        try:
            workload.final_checks()
        except Exception:
            check_error = traceback.format_exc()
        workload.close()
        workload = None
        if not trace:
            metrics = end_to_end(setup_s, measured, peak_rss_mb())
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(tmp_root, ignore_errors=True)

    failed = sum(p.failed for p in passes.values())
    errors = [p.first_error for p in passes.values() if p.first_error]
    if check_error:
        errors.append(check_error)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0 and check_error is None,
        "attempted": sum(p.attempted for p in passes.values()),
        "failed": failed,
        "metrics": metrics,
        "samples": sum(len(step[0]) for step in measured.steps),
        "requests_per_round": cls.requests_per_round,
        "clients": cls.clients,
        "rounds": {k: p.attempted for k, p in passes.items()},
        "ms_per_round": {k: p.ms_per_round for k, p in passes.items()},
        #: Median kernel time per pass: the machine's speed during it.
        "kernel_ms": {k: 1000.0 * statistics.median(p.kernels) for k, p in passes.items()},
        #: The measured pass as measured, step by step, for re-analysis.
        "steps": {
            "latencies_s": [step[0] for step in measured.steps],
            "duration_s": [step[1] for step in measured.steps],
            "cpu_s": [step[2] for step in measured.steps],
            "kernel_s": measured.kernels,
        },
        "errors": errors,
        **detail,
    }
