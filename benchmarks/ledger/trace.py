"""Outside-in tracing: spans recorded around the public calls into each layer.

The benchmark never edits the program. For a traced run it replaces the
methods listed in :data:`LAYERS` on their classes with wrappers that open
a span around the original call, and restores them afterwards. Spans live
in memory and are written out once, at exit, as a Chrome trace and a
folded per-layer table.

Every span has a name, start, end, parent, thread and trace id. The
benchmark opens one root span per cell (``cell``) and per checkout
(``checkout``); each starts a new trace. Commits that go through the
service's write-ahead queue get a trace of their own (``queue.commit``:
``queue.wait``, then the writer's ``storage.write``, then ``queue.fsync``),
built from timestamps the :class:`TimedStore` takes on the writer thread
and linked to the ``queue.enqueue`` span of the cell that produced it by
(session, node).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.crossval import CrossValidator
from repro.analysis.summaries import NotebookSummaries
from repro.analysis.typetrack import StubContext
from repro.core.delta import DeltaDetector
from repro.core.planner import CheckoutPlanner
from repro.core.replay import ReplayEngine
from repro.core.restore import DataRestorer
from repro.core.serialization import SerializerChain
from repro.core.session import KishuSession
from repro.core.vargraph import VarGraphBuilder
from repro.service.queue import CommitQueue, QueuedStore

clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "trace", "args")

    def __init__(self, sid, name, start, parent, thread, trace) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.thread = thread
        self.trace = trace
        self.args: Dict[str, Any] = {}


class Tracer:
    """Thread-aware span recorder. Each thread keeps its own stack; the
    root of the stack decides which kind of trace (``cell``,
    ``checkout``) a nested span belongs to."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def kind(self) -> Optional[str]:
        """Name of the root span this thread is currently inside."""
        stack = self._stack()
        return stack[0].name if stack else None

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        span = Span(
            sid,
            name,
            clock(),
            parent.sid if parent else None,
            threading.get_ident(),
            parent.trace if parent else sid,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = clock()
        stack = self._stack()
        # Spans close in LIFO order except when a wrapped call raised past
        # an unclosed child; drop everything above the closing span.
        while stack and stack.pop() is not span:
            pass
        with self._lock:
            self.spans.append(span)

    def add(
        self, name: str, start: float, end: float, *, trace: int, parent: Optional[int]
    ) -> Span:
        """Record a finished span built from timestamps (writer thread)."""
        with self._lock:
            span = Span(next(self._ids), name, start, parent, threading.get_ident(), trace)
            span.end = end
            self.spans.append(span)
        return span

    def new_trace_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON: complete events, µs from the first span."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": 1,
                "tid": span.thread,
                "args": {"trace": span.trace, "span": span.sid, "parent": span.parent, **span.args},
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _wrap(tracer: Tracer, name: str, scope: Optional[str], original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        kind = tracer.kind()
        if kind is None or (scope is not None and kind != scope):
            return original(*args, **kwargs)
        span = tracer.begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(span)

    return traced


#: (class, method, span name, trace kind the span is recorded in, None for
#: any). A call outside its kind is not recorded, so its time stays in the
#: enclosing span's self time: the replay engine and the summary resync
#: re-run the analysis layers internally, and that cost belongs to
#: checkout, not to the commit-side ``analysis.*`` rows.
LAYERS: Tuple[Tuple[type, str, str, Optional[str]], ...] = (
    (KishuSession, "_analyze_cell", "analysis.pre_run", "cell"),
    (NotebookSummaries, "view_for_cell", "analysis.summaries_view", "cell"),
    (NotebookSummaries, "observe_cell", "analysis.post_run", "cell"),
    (StubContext, "observe_cell", "analysis.post_run", "cell"),
    (CrossValidator, "validate", "analysis.crossval", "cell"),
    (DeltaDetector, "detect", "delta.detect", "cell"),
    (SerializerChain, "serialize", "serialize", "cell"),
    (SerializerChain, "deserialize", "deserialize", None),
    (QueuedStore, "drain", "checkout.drain", "checkout"),
    (CheckoutPlanner, "plan", "checkout.plan", "checkout"),
    (DataRestorer, "materialize", "checkout.materialize", "checkout"),
    (ReplayEngine, "try_materialize", "checkout.replay", "checkout"),
    (VarGraphBuilder, "build_many", "checkout.resync_pool", "checkout"),
    (NotebookSummaries, "from_sources", "checkout.resync_summaries", "checkout"),
)


class Patches:
    """Replaces class attributes for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []

    def replace(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[attr]
        self._saved.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for cls, attr, raw in reversed(self._saved):
            setattr(cls, attr, raw)
        self._saved.clear()


def install_layer_spans(patches: Patches, tracer: Tracer) -> None:
    for cls, attr, name, scope in LAYERS:
        patches.replace(cls, attr, functools.partial(_wrap, tracer, name, scope))


class CommitClock:
    """Per-commit timestamps on the durability path, keyed by
    (session, node): hand-off to the store (queue enqueue, or
    ``begin_checkpoint`` on the synchronous path), writer begin, commit
    return and fsync return. Untraced runs use only the first and the
    last; traced runs turn all of them into ``queue.commit`` traces."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.durable_s: List[float] = []
        self._lock = threading.Lock()
        self._open: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self._committed: List[Tuple[str, str]] = []
        self._done: List[Dict[str, Any]] = []

    def enqueue_started(self, key: Tuple[str, str], span: Optional[Span]) -> Dict[str, Any]:
        stamp = {"enqueue": clock(), "span": span}
        with self._lock:
            self._open[key] = stamp
        return stamp

    def durable(self, start: float, end: float) -> None:
        """Synchronous path: durable when ``commit_checkpoint`` returns."""
        with self._lock:
            self.durable_s.append(end - start)

    def writer_begin(self, key: Tuple[str, str]) -> None:
        with self._lock:
            self._open[key]["begin"] = clock()

    def writer_commit(self, key: Tuple[str, str]) -> None:
        with self._lock:
            self._open[key]["commit"] = clock()
            self._committed.append(key)

    def writer_synced(self, sync_start: float, sync_end: float) -> None:
        with self._lock:
            keys, self._committed = self._committed, []
            for key in keys:
                stamp = self._open.pop(key)
                stamp["sync"] = (sync_start, sync_end)
                self.durable_s.append(sync_end - stamp["enqueue"])
                self._done.append(stamp)

    def emit_traces(self) -> None:
        """Turn finished queued commits into ``queue.commit`` traces. Run
        after the queue drained, so every enqueue call has returned."""
        if self.tracer is None:
            return
        for stamp in self._done:
            sync_start, sync_end = stamp["sync"]
            enqueue_span = stamp["span"]
            trace = self.tracer.new_trace_id()
            root = self.tracer.add(
                "queue.commit",
                stamp["enqueue"],
                sync_end,
                trace=trace,
                parent=enqueue_span.sid if enqueue_span is not None else None,
            )
            for name, start, end in (
                ("queue.wait", stamp["enqueued"], stamp["begin"]),
                ("storage.write", stamp["begin"], stamp["commit"]),
                ("queue.fsync", sync_start, sync_end),
            ):
                self.tracer.add(name, start, end, trace=trace, parent=root.sid)
        self._done.clear()


def install_enqueue_clock(patches: Patches, commits: CommitClock) -> None:
    """Stamp every ``CommitQueue.enqueue`` call for enqueue-to-durable,
    inside a ``queue.enqueue`` span when tracing."""
    tracer = commits.tracer

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def stamped(queue, session_id, node, payloads):
            span = None
            if tracer is not None and tracer.kind() == "cell":
                span = tracer.begin("queue.enqueue")
            stamp = commits.enqueue_started((session_id, node.node_id), span)
            try:
                return original(queue, session_id, node, payloads)
            finally:
                stamp["enqueued"] = clock()
                if span is not None:
                    tracer.end(span)

        return stamped

    patches.replace(CommitQueue, "enqueue", make)


class TimedStore:
    """Delegating checkpoint-store wrapper owned by the benchmark.

    On the synchronous path it times ``begin_checkpoint`` →
    ``commit_checkpoint`` (``storage.write``); under a ``SessionManager``
    it is installed at the root, so the queue writer's per-session views
    (``for_session``) and its ``sync()`` calls go through it and feed the
    :class:`CommitClock`. Reads are timed as ``storage.read``. Everything
    else passes straight through.
    """

    def __init__(self, inner: Any, commits: CommitClock, *, queued: bool) -> None:
        self.__dict__.update(_inner=inner, _commits=commits, _queued=queued, _begun=None)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._inner, name, value)

    @property
    def _tracer(self) -> Optional[Tracer]:
        return self._commits.tracer

    def for_session(self, session_id: str, **kwargs: Any) -> "TimedStore":
        return TimedStore(
            self._inner.for_session(session_id, **kwargs), self._commits, queued=self._queued
        )

    def begin_checkpoint(self, node_id: str) -> None:
        if self._queued:
            self._commits.writer_begin((self._inner.session_id, node_id))
        else:
            span = None
            if self._tracer is not None and self._tracer.kind() == "cell":
                span = self._tracer.begin("storage.write")
            self.__dict__["_begun"] = (clock(), span)
        self._inner.begin_checkpoint(node_id)

    def commit_checkpoint(self, node_id: str) -> None:
        self._inner.commit_checkpoint(node_id)
        if self._queued:
            self._commits.writer_commit((self._inner.session_id, node_id))
            return
        start, span = self._begun
        self.__dict__["_begun"] = None
        self._commits.durable(start, clock())
        if span is not None:
            self._tracer.end(span)

    def rollback_checkpoint(self, node_id: str) -> None:
        self._inner.rollback_checkpoint(node_id)
        if not self._queued and self._begun is not None:
            span = self._begun[1]
            self.__dict__["_begun"] = None
            if span is not None:
                self._tracer.end(span)

    def sync(self) -> None:
        start = clock()
        self._inner.sync()
        if self._queued:
            self._commits.writer_synced(start, clock())

    def _traced(self, name: str, scope: Optional[str], method: Callable, *args: Any) -> Any:
        if self._tracer is None:
            return method(*args)
        return _wrap(self._tracer, name, scope, method)(*args)

    def read_payload(self, node_id: str, key: Any) -> Any:
        return self._traced("storage.read", None, self._inner.read_payload, node_id, key)

    def drain(self) -> None:
        self._traced("checkout.drain", "checkout", self._inner.drain)


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.chrome_trace(), handle)
