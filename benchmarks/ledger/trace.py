"""The outside-in tracer: spans around each layer's public callables.

The engine is not edited.  Entering a :class:`LayerTracer` replaces the
callables listed in :data:`TARGETS` — at the binding their callers use —
with timing wrappers; leaving it puts the originals back.  Each wrapper
pushes a frame on a per-thread stack, so a span's *self time* (its
duration minus the part its child spans cover) is known when it ends and
is rolled up, per thread, onto the partition metric its target names
(``layers.SELF_TIME``).  Generators (``scan_class``, ``Pipeline.rows``,
``BTree.range``) are timed only inside ``next``: a scan that is pulled a
row at a time must not be charged for what its consumer does between
pulls.

Full spans (name, start, end, parent, round) are kept in memory for the
first :data:`KEEP_ROUNDS` rounds each client runs and written out after
the pass; the roll-up covers every round.  Keeping every span of a
scan-heavy pass would be a few million records — the trace file is for
reading one round's call tree, the roll-up is for the budget.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Rounds (per client) whose full span list is kept for the trace file.
KEEP_ROUNDS = 2

#: (span name, "module:Owner" or "module", attribute, partition metric, kind)
#: kind: "call" | "gen" (result is an iterator; time inside next only).
TARGETS = (
    # server — protocol.decode_payload/encode_frame are proxied at
    # repro.server.server's binding (see _install_server_proxy) so the
    # in-process clients' own framing is not charged to the server.
    ("protocol.to_wire", "repro.server.session", "to_wire", "server.encode_ms", "call"),
    ("protocol.from_wire", "repro.server.session", "from_wire", "server.decode_ms", "call"),
    ("Session.handle", "repro.server.session:Session", "handle", "server.session_self_ms", "session"),
    # database facade
    ("Database.execute", "repro.database:Database", "execute", "database.self_ms", "call"),
    ("Database.select_iter", "repro.database:Database", "select_iter", "database.self_ms", "call"),
    ("Database.new", "repro.database:Database", "new", "database.self_ms", "call"),
    ("Database.update", "repro.database:Database", "update", "database.self_ms", "call"),
    ("Database.get_state", "repro.database:Database", "get_state", "database.self_ms", "call"),
    ("Database.checkpoint", "repro.database:Database", "checkpoint", "database.self_ms", "call"),
    # query front door (parse/rewrite at the bindings database.py calls)
    ("parse_query", "repro.database", "parse_query", "query.parse_ms", "call"),
    ("SemanticAnalyzer.check", "repro.analysis.semantic:SemanticAnalyzer", "check", "analysis.check_ms", "call"),
    ("rewrite_query", "repro.database", "rewrite_query", "analysis.rewrite_ms", "call"),
    ("PlanCache.get_source", "repro.analysis.plancache:PlanCache", "get_source", "analysis.plancache_ms", "call"),
    ("PlanCache.get", "repro.analysis.plancache:PlanCache", "get", "analysis.plancache_ms", "call"),
    ("PlanCache.put", "repro.analysis.plancache:PlanCache", "put", "analysis.plancache_ms", "call"),
    ("Planner.plan", "repro.query.planner:Planner", "plan", "query.plan_ms", "call"),
    # query execution
    ("Executor.execute", "repro.query.executor:Executor", "execute", "query.exec_self_ms", "call"),
    ("Executor.execute_rows", "repro.query.executor:Executor", "execute_rows", "query.exec_self_ms", "call"),
    ("Pipeline.rows", "repro.query.operators.pipeline:Pipeline", "rows", "query.exec_self_ms", "gen"),
    # index
    ("Index.lookup_eq", "repro.index.base:Index", "lookup_eq", "index.lookup_ms", "call"),
    ("Index.lookup_range", "repro.index.base:Index", "lookup_range", "index.lookup_ms", "call"),
    ("Index.lookup_in", "repro.index.base:Index", "lookup_in", "index.lookup_ms", "call"),
    ("BTree.range", "repro.index.btree:BTree", "range", "index.lookup_ms", "gen"),
    ("IndexManager.notify_insert", "repro.index.manager:IndexManager", "notify_insert", "index.maintain_ms", "call"),
    ("IndexManager.notify_update", "repro.index.manager:IndexManager", "notify_update", "index.maintain_ms", "call"),
    ("IndexManager.notify_delete", "repro.index.manager:IndexManager", "notify_delete", "index.maintain_ms", "call"),
    # workspace
    ("ObjectWorkspace.load", "repro.workspace.cache:ObjectWorkspace", "load", "workspace.load_self_ms", "call"),
    # storage
    ("StorageManager.load", "repro.storage.manager:StorageManager", "load", "storage.load_self_ms", "call"),
    ("StorageManager.store_new", "repro.storage.manager:StorageManager", "store_new", "storage.load_self_ms", "call"),
    ("StorageManager.overwrite", "repro.storage.manager:StorageManager", "overwrite", "storage.load_self_ms", "call"),
    ("StorageManager.scan_class", "repro.storage.manager:StorageManager", "scan_class", "storage.load_self_ms", "gen"),
    ("decode_object", "repro.storage.manager", "decode_object", "storage.decode_ms", "call"),
    ("encode_object", "repro.storage.manager", "encode_object", "storage.encode_ms", "call"),
    ("BufferPool.get_page", "repro.storage.buffer:BufferPool", "get_page", "storage.buffer_self_ms", "call"),
    ("BufferPool.flush_page", "repro.storage.buffer:BufferPool", "flush_page", "storage.buffer_self_ms", "call"),
    ("MemoryPager.read_page", "repro.storage.pager:MemoryPager", "read_page", "storage.pager_read_ms", "call"),
    ("MemoryPager.write_page", "repro.storage.pager:MemoryPager", "write_page", "storage.pager_write_ms", "call"),
    ("FilePager.read_page", "repro.storage.pager:FilePager", "read_page", "storage.pager_read_ms", "call"),
    ("FilePager.write_page", "repro.storage.pager:FilePager", "write_page", "storage.pager_write_ms", "call"),
    # txn — the commit fsync runs inside WriteAheadLog.append (group
    # commit), so fsync_file is timed at the binding wal.py calls.
    ("LockManager.acquire", "repro.txn.locks:LockManager", "acquire", "txn.lock_acquire_ms", "call"),
    ("WriteAheadLog.append", "repro.txn.wal:WriteAheadLog", "append", "txn.wal_append_ms", "call"),
    ("WriteAheadLog.sync", "repro.txn.wal:WriteAheadLog", "sync", "txn.wal_sync_ms", "call"),
    ("fsync_file", "repro.txn.wal", "fsync_file", "txn.wal_sync_ms", "call"),
    ("TransactionManager.commit", "repro.txn.transaction:TransactionManager", "commit", "txn.commit_self_ms", "call"),
    # versions
    ("VersionStore.resolve", "repro.versions.store:VersionStore", "resolve", "versions.resolve_ms", "call"),
    ("VersionStore.record_before", "repro.versions.store:VersionStore", "record_before", "versions.resolve_ms", "call"),
    ("VersionStore.open_snapshot", "repro.versions.store:VersionStore", "open_snapshot", "versions.resolve_ms", "call"),
    ("VersionStore.close_snapshot", "repro.versions.store:VersionStore", "close_snapshot", "versions.resolve_ms", "call"),
)

#: The two server-side framing calls, proxied rather than patched.
_PROXIED = (
    ("protocol.decode_payload", "decode_payload", "server.decode_ms"),
    ("protocol.encode_frame", "encode_frame", "server.encode_ms"),
)


def _resolve(owner_path: str) -> Any:
    module_name, _, attr = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class _ThreadState:
    """One thread's span stack, kept spans and self-time roll-up."""

    def __init__(self, thread_name: str, n_names: int) -> None:
        self.thread = thread_name
        #: Open frames, innermost last: [child seconds, kept-span position].
        self.stack: List[List[Any]] = []
        self.round: Optional[int] = None
        self.keep = False
        self.calls = [0] * n_names
        self.self_s = [0.0] * n_names
        self.total_s = [0.0] * n_names
        #: Kept spans: [name index, start, end, parent position, round].
        self.spans: List[List[Any]] = []


class _ModuleProxy:
    """Stands in for a module at one importer's binding."""

    def __init__(self, module: Any, overrides: Dict[str, Callable]) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class _TracedIter:
    """An iterator whose every ``next`` is one span of its creator."""

    def __init__(self, inner: Any, step: Callable[[Any], Any]) -> None:
        self._inner = inner
        self._step = step

    def __iter__(self) -> "_TracedIter":
        return self

    def __next__(self) -> Any:
        return self._step(self._inner)

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


def _round_of_payload(payload: Any) -> Optional[int]:
    """The round id a harness client stamped into a request's trace id."""
    try:
        return int(payload["trace"]["id"])
    except (KeyError, TypeError, ValueError):
        return None


class LayerTracer:
    """Install on ``__enter__``, restore on ``__exit__``; roll up after."""

    def __init__(self, keep_rounds: int = KEEP_ROUNDS) -> None:
        self.keep_rounds = keep_rounds
        self.names: List[str] = [t[0] for t in TARGETS] + [p[0] for p in _PROXIED]
        self.metric_of: List[str] = [t[3] for t in TARGETS] + [p[2] for p in _PROXIED]
        self._tls = threading.local()
        self._states: List[_ThreadState] = []
        self._states_mutex = threading.Lock()
        #: (owner, attribute, original) for every patched binding.
        self._patched: List[Any] = []
        #: Rounds whose spans are kept (filled by begin_round).
        self._kept_rounds: set = set()
        #: id(response dict) -> round, handed from Session.handle on a
        #: worker thread to encode_frame on the loop thread.
        self._response_round: Dict[int, Optional[int]] = {}
        self.origin = 0.0

    # -- per-thread state ------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name, len(self.names))
            self._tls.state = state
            with self._states_mutex:
                self._states.append(state)
            return state

    def begin_round(self, round_id: int, keep: bool) -> None:
        """Mark the calling (client) thread as inside ``round_id``."""
        if keep:
            self._kept_rounds.add(round_id)
        self._set_round(self._state(), round_id)

    def end_round(self) -> None:
        self._set_round(self._state(), None)

    # -- wrappers --------------------------------------------------------

    def _enter(self, state: _ThreadState, idx: int) -> List[Any]:
        stack = state.stack
        frame = [0.0, -1]
        if state.keep:
            parent = stack[-1][1] if stack else -1
            frame[1] = len(state.spans)
            state.spans.append([idx, 0.0, 0.0, parent, state.round])
        stack.append(frame)
        return frame

    def _leave(self, state: _ThreadState, idx: int, frame: List[Any], t0: float, t1: float) -> None:
        stack = state.stack
        stack.pop()
        duration = t1 - t0
        if stack:
            stack[-1][0] += duration
        state.calls[idx] += 1
        state.self_s[idx] += duration - frame[0]
        state.total_s[idx] += duration
        if frame[1] >= 0:
            span = state.spans[frame[1]]
            span[1] = t0
            span[2] = t1

    def _wrap_call(self, fn: Callable, idx: int) -> Callable:
        get_state, enter, leave, clock = self._state, self._enter, self._leave, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            frame = enter(state, idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(state, idx, frame, t0, clock())

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _wrap_gen(self, fn: Callable, idx: int) -> Callable:
        get_state, enter, leave, clock = self._state, self._enter, self._leave, time.perf_counter

        def step(inner: Any) -> Any:
            state = get_state()
            frame = enter(state, idx)
            t0 = clock()
            try:
                return next(inner)
            finally:
                leave(state, idx, frame, t0, clock())

        def traced(*args: Any, **kwargs: Any) -> Any:
            return _TracedIter(fn(*args, **kwargs), step)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _set_round(self, state: _ThreadState, round_id: Optional[int]) -> None:
        state.round = round_id
        state.keep = round_id in self._kept_rounds

    def _wrap_session(self, fn: Callable, idx: int) -> Callable:
        """``Session.handle``: the request's round comes from its trace id
        and covers every span nested under it on this worker thread."""
        inner = self._wrap_call(fn, idx)
        get_state = self._state

        def traced(session: Any, payload: Any) -> Any:
            state = get_state()
            round_id = _round_of_payload(payload)
            self._set_round(state, round_id)
            try:
                response = inner(session, payload)
            finally:
                self._set_round(state, None)
            self._response_round[id(response)] = round_id
            return response

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _wrap_decode(self, fn: Callable, idx: int) -> Callable:
        """Loop-thread ``decode_payload``: the round is only known once
        the payload is decoded, so the span is kept after the fact."""
        get_state, enter, leave, clock = self._state, self._enter, self._leave, time.perf_counter

        def traced(body: bytes) -> Any:
            state = get_state()
            frame = enter(state, idx)
            payload = None
            t0 = clock()
            try:
                payload = fn(body)
                return payload
            finally:
                t1 = clock()
                round_id = _round_of_payload(payload)
                if round_id in self._kept_rounds:
                    frame[1] = len(state.spans)
                    state.spans.append([idx, 0.0, 0.0, -1, round_id])
                leave(state, idx, frame, t0, t1)

        return traced

    def _wrap_encode(self, fn: Callable, idx: int) -> Callable:
        """Loop-thread ``encode_frame``: the round is the one remembered
        for the response dict ``Session.handle`` built."""
        inner = self._wrap_call(fn, idx)
        get_state = self._state

        def traced(response: Any) -> bytes:
            state = get_state()
            self._set_round(state, self._response_round.pop(id(response), None))
            try:
                return inner(response)
            finally:
                self._set_round(state, None)

        return traced

    # -- install / restore -----------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self.origin = time.perf_counter()
        wrappers = {
            "call": self._wrap_call,
            "gen": self._wrap_gen,
            "session": self._wrap_session,
        }
        try:
            for idx, (_name, owner_path, attr, _metric, kind) in enumerate(TARGETS):
                owner = _resolve(owner_path)
                original = vars(owner)[attr]
                setattr(owner, attr, wrappers[kind](original, idx))
                self._patched.append((owner, attr, original))
            self._install_server_proxy()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install_server_proxy(self) -> None:
        server_module = importlib.import_module("repro.server.server")
        protocol = server_module.protocol
        wrappers = {"decode_payload": self._wrap_decode, "encode_frame": self._wrap_encode}
        overrides = {}
        for offset, (_name, attr, _metric) in enumerate(_PROXIED):
            overrides[attr] = wrappers[attr](getattr(protocol, attr), len(TARGETS) + offset)
        server_module.protocol = _ModuleProxy(protocol, overrides)
        self._patched.append((server_module, "protocol", protocol))

    def __exit__(self, *exc_info: Any) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds, total seconds, all threads."""
        out: Dict[str, Dict[str, float]] = {}
        with self._states_mutex:
            states = list(self._states)
        for idx, name in enumerate(self.names):
            calls = sum(s.calls[idx] for s in states)
            if calls:
                out[name] = {
                    "metric": self.metric_of[idx],
                    "calls": calls,
                    "self_s": sum(s.self_s[idx] for s in states),
                    "total_s": sum(s.total_s[idx] for s in states),
                }
        return out

    def kept_spans(self) -> List[Dict[str, Any]]:
        """The kept spans as dicts; ids are unique across threads."""
        out: List[Dict[str, Any]] = []
        with self._states_mutex:
            states = list(self._states)
        for state in states:
            base = len(out)
            for position, (idx, start, end, parent, round_id) in enumerate(state.spans):
                out.append(
                    {
                        "id": base + position,
                        "name": self.names[idx],
                        "thread": state.thread,
                        "round": round_id,
                        "parent": base + parent if parent >= 0 else None,
                        "start_us": round((start - self.origin) * 1e6, 3),
                        "end_us": round((end - self.origin) * 1e6, 3),
                    }
                )
        return out
