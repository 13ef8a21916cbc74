"""Span recording for the traced run.

:class:`Tracer` replaces public entry points of the program's layers with
wrappers that record one span per call: ``(id, name, start_ns, end_ns,
parent_id, request_id, n)``. Spans stay in memory (a list append per
call) and are written out once, at the end of the run. ``n`` carries a
count where the boundary has one (bytes sent, records written, frames
flushed).

Parent and request ids follow the execution context (contextvars), so
they are right per thread and per asyncio task. A request crosses a
thread only inside a GIOP message; the wrapper of the client's probe 1
maps the FTL bytes the request carries to the client's request id and
stub span, and the server-side wrappers look that mapping up from the
request they receive. Server spans therefore join the client request as
cross-thread children of the stub span.

Nothing under ``src/`` changes: :meth:`Tracer.install` patches attributes
and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import statistics
import time
from contextvars import ContextVar
from typing import Any, Callable

from rules import self_time_ns

_PARENT: ContextVar[int | None] = ContextVar("perfbench_parent", default=None)
_REQUEST: ContextVar[int | None] = ContextVar("perfbench_request", default=None)
_QUEUED_AT: ContextVar[int | None] = ContextVar("perfbench_queued_at", default=None)

#: Probe entry points of ``MonitoringRuntime`` and their span names.
PROBES = {
    "stub_start": "core.stub_start",
    "skel_start": "core.skel_start",
    "skel_end": "core.skel_end",
    "stub_end": "core.stub_end",
}

#: Top-level stages of the capture→CCSG pipeline, in order. Together with
#: ``pipeline.unattributed`` they add up to ``pipeline.time_to_ccsg``.
LEDGER_STAGES = (
    "collector.collect",
    "store.compact",
    "analysis.reconstruct",
    "analysis.ccsg",
    "analysis.xml",
)

#: Spans kept per run; later ones are counted in ``Tracer.dropped``.
MAX_SPANS = 400_000

_clock = time.perf_counter_ns


class Tracer:
    """Records spans around patched entry points; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._by_ftl: dict[bytes, tuple[int | None, int | None]] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording

    def _record(self, sid, name, start, end, parent, rid, n) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent, rid, n))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str, n: int = 0):
        """Record a span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = _PARENT.get()
        token = _PARENT.set(sid)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            _PARENT.reset(token)
            self._record(sid, name, start, end, parent, _REQUEST.get(), n)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        root: bool = False,
        enter: Callable | None = None,
        count: Callable | None = None,
        on_result: Callable | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``root`` starts a new request id when the context has none.
        ``enter(args)`` may return ``(parent, request)`` to join a request
        that arrived from another thread. ``count(args)``, read before
        the call, gives the span's ``n``. ``on_result(result, parent,
        request)`` sees the return value. A coroutine result is timed
        until it completes.
        """
        ids = self._ids
        record = self._record

        async def timed(coro, parent, rid, n):
            sid = next(ids)
            if parent is None:
                parent = _PARENT.get()
            if rid is None:
                rid = _REQUEST.get()
            tokens = (_PARENT.set(sid), _REQUEST.set(rid))
            start = _clock()
            try:
                return await coro
            finally:
                end = _clock()
                _REQUEST.reset(tokens[1])
                _PARENT.reset(tokens[0])
                record(sid, name, start, end, parent, rid, n)

        if inspect.iscoroutinefunction(fn):

            async def async_wrapper(*args, **kwargs):
                return await timed(fn(*args, **kwargs), None,
                                   _REQUEST.get() or (next(ids) if root else None),
                                   0)

            async_wrapper.__wrapped__ = fn
            return async_wrapper

        def wrapper(*args, **kwargs):
            joined = enter(args) if enter is not None else None
            if joined is not None:
                parent, rid = joined
            else:
                parent, rid = _PARENT.get(), _REQUEST.get()
                if rid is None and root:
                    rid = next(ids)
            queued_at = _QUEUED_AT.get()
            if queued_at is not None and joined is not None:
                # The dispatch closure was queued by a patched submit():
                # the wait ends here, where the skeleton starts.
                now = _clock()
                record(next(ids), "orb.queue_wait", queued_at, now, parent, rid, 0)
            n = count(args) if count is not None else 0
            sid = next(ids)
            tokens = (_PARENT.set(sid), _REQUEST.set(rid))
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                _REQUEST.reset(tokens[1])
                _PARENT.reset(tokens[0])
            if inspect.iscoroutine(result):
                return timed(result, parent, rid, n)
            record(sid, name, start, end, parent, rid, n)
            if on_result is not None:
                on_result(result, parent, rid)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Patching

    def patch(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a span wrapper (undone by uninstall)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **options))

    def _submit_wrapper(self, original: Callable) -> Callable:
        def submit(policy, dispatch, connection_id):
            queued_at = _clock()

            def queued():
                token = _QUEUED_AT.set(queued_at)
                try:
                    dispatch()
                finally:
                    _QUEUED_AT.reset(token)

            return original(policy, queued, connection_id)

        return submit

    def _join_request(self, args) -> tuple[int | None, int | None] | None:
        request = args[1]
        return self._by_ftl.get(request.ftl) if request.ftl else None

    def _remember_request(self, ctx, parent, rid) -> None:
        if ctx is not None and len(self._by_ftl) < MAX_SPANS:
            self._by_ftl[ctx.request_ftl_payload] = (parent, rid)

    def install(self, stub_classes=(), servant_methods=()) -> None:
        """Patch every layer's entry points.

        ``stub_classes`` are the generated stub classes whose operation
        methods become ``orb.stub`` spans (one request each);
        ``servant_methods`` are ``(class, method)`` pairs whose calls are
        the application's own work (``app.servant``).
        """
        import repro.analysis as analysis
        import repro.store as store_pkg
        from repro.analysis.streaming import StreamingReconstructor
        from repro.collector import LogCollector
        from repro.core import MonitoringRuntime
        from repro.orb import AsyncioDispatch, Orb, ThreadPool
        from repro.orb.aio.channel import AsyncMuxChannel
        from repro.orb.runtime import SkeletonBase
        from repro.platform.network import Connection
        from repro.store import SegmentStore

        for attr, name in PROBES.items():
            self.patch(
                MonitoringRuntime, attr, name,
                on_result=self._remember_request if attr == "stub_start" else None,
            )
        for cls in stub_classes:
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and callable(value):
                    self.patch(cls, attr, "orb.stub", root=True)
        for cls, attr in servant_methods:
            self.patch(cls, attr, "app.servant")
        self.patch(Orb, "send_request", "orb.send_request")
        self.patch(Orb, "send_request_async", "orb.send_request")
        self.patch(SkeletonBase, "dispatch", "orb.dispatch", enter=self._join_request)
        for policy in (ThreadPool, AsyncioDispatch):
            original = policy.__dict__["submit"]
            self._patches.append((policy, "submit", original))
            policy.submit = self._submit_wrapper(original)
        self.patch(Connection, "send", "platform.send",
                   count=lambda args: len(args[1]))
        self.patch(AsyncMuxChannel, "_flush", "aio.flush",
                   count=lambda args: len(args[0]._write_buf))
        self.patch(LogCollector, "collect", "collector.collect")
        self.patch(SegmentStore, "insert_records", "store.insert",
                   count=lambda args: len(args[2]))
        self.patch(SegmentStore, "compact", "store.compact")
        self.patch(store_pkg, "run_query", "store.query")
        self.patch(analysis, "reconstruct", "analysis.reconstruct")
        self.patch(analysis, "build_ccsg", "analysis.ccsg")
        self.patch(analysis, "render_ccsg_xml", "analysis.xml")
        self.patch(StreamingReconstructor, "ingest_many", "analysis.stream_ingest")
        self.patch(StreamingReconstructor, "finalize", "analysis.stream_finalize")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output

    def dump(self, path: str) -> None:
        """Write every span as one JSON document."""
        fields = ("id", "name", "start_ns", "end_ns", "parent", "request", "n")
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


def children_index(spans: list[tuple]) -> dict[int, list[tuple[int, int]]]:
    """Map span id → intervals of its child spans (any thread)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _sid, _name, start, end, parent, _rid, _n in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return children


def self_times(spans: list[tuple], name: str,
               children: dict[int, list[tuple[int, int]]]) -> list[int]:
    return [
        self_time_ns(start, end, children.get(sid, ()))
        for sid, span_name, start, end, _p, _r, _n in spans
        if span_name == name
    ]


def durations(spans: list[tuple], name: str) -> list[int]:
    return [end - start for _s, span_name, start, end, _p, _r, _n in spans
            if span_name == name]


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
