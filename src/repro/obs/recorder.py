"""The tracer: nested wall-time spans plus the active-recorder switch.

The process-wide recorder defaults to :data:`NOOP`, whose ``span``
returns a shared null context manager and whose metric methods are
empty — instrumented hot paths cost a single attribute lookup and call
when observability is off (guarded by ``benchmarks/bench_obs_overhead``).
Activating observability swaps in a :class:`TraceRecorder`, usually via
the :func:`recording` context manager::

    from repro import obs
    from repro.obs import JsonlSink

    with obs.recording(JsonlSink("run.trace.jsonl")) as rec:
        with obs.span("experiment.run", algorithm="ppi"):
            ...
        print(rec.metrics.snapshot())

Span names are dotted lowercase paths (``taml.train``, ``ppi.stage2``);
attributes are small JSON-able values.  Span stacks are thread-local
(each thread nests its own spans; ids stay globally unique and sink
emission is serialised), but processes never share a recorder: a
sharded runner creates one recorder per worker process, spooled and
merged by :mod:`repro.obs.dist`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Iterator

from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry


class NullSpan:
    """The do-nothing span handed out while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()


class NoopRecorder:
    """The default recorder: every operation is free and records nothing."""

    enabled = False

    def span(self, name: str, **attrs) -> NullSpan:
        return NULL_SPAN

    def counter(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def histogram(self, name: str, value: float) -> None:
        pass


NOOP = NoopRecorder()


class MetricsRecorder:
    """A metrics-only recorder: a live registry, no span tracing.

    The streaming monitor needs counters/gauges/histograms to sample
    even when nobody asked for a span trace; installing this instead of
    a full :class:`TraceRecorder` keeps spans free (the shared
    ``NULL_SPAN``) while metric updates land in :attr:`metrics`.
    """

    enabled = True

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def span(self, name: str, **attrs) -> NullSpan:
        return NULL_SPAN

    def counter(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).add(amount)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def histogram(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)


class Span:
    """One nested wall-time measurement; use as a context manager.

    ``set(**attrs)`` merges attributes at any point before exit, so a
    stage can record its outcome (e.g. how many pairs it assigned) on
    the span that timed it.
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "depth",
        "start_unix",
        "duration_s",
        "error",
        "_recorder",
        "_started",
    )

    def __init__(self, recorder: "TraceRecorder", name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self._recorder = recorder
        self.span_id = 0
        self.parent_id: int | None = None
        self.depth = 0
        self.start_unix = 0.0
        self.duration_s = 0.0
        self.error: str | None = None
        self._started = 0.0

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._recorder._open(self)
        self.start_unix = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._started
        if exc_type is not None:
            self.error = exc_type.__name__
        self._recorder._close(self)
        return False

    def to_record(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
            "error": self.error,
        }


def new_trace_id() -> str:
    """A compact process-unique trace id (hex, no external deps)."""
    return f"{os.getpid():x}-{os.urandom(6).hex()}"


class TraceRecorder:
    """An active recorder: span stacks, metric registry, and sinks.

    Span stacks are *thread-local*: the engine thread, the OpenMetrics
    ``http.server`` thread, and shard-server feeder threads each nest
    their own spans without racing one another, while span ids stay
    globally unique (a shared atomic counter) and record emission is
    serialised through one lock so sink lines never interleave.

    ``trace_id`` names the trace this recorder contributes to; worker
    processes spooling telemetry for a coordinator are constructed with
    the coordinator's trace id (propagated via
    :func:`repro.obs.dist.current_context`) so merged timelines share
    one identity.
    """

    enabled = True

    def __init__(self, *sinks, trace_id: str | None = None) -> None:
        self.sinks = list(sinks)
        self.metrics = MetricsRegistry()
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._open_count = 0
        self._emit_lock = threading.Lock()
        self._finished = False

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _open(self, span: Span) -> None:
        span.span_id = next(self._ids)
        stack = self._stack
        if stack:
            span.parent_id = stack[-1].span_id
            span.depth = stack[-1].depth + 1
        stack.append(span)
        with self._emit_lock:
            self._open_count += 1

    def _close(self, span: Span) -> None:
        stack = self._stack
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"span '{span.name}' closed out of order; "
                "spans must nest like context managers"
            )
        stack.pop()
        with self._emit_lock:
            self._open_count -= 1
            for sink in self.sinks:
                sink.emit(span.to_record())

    @property
    def current_span(self) -> Span | None:
        """The innermost open span *of the calling thread* (or None)."""
        stack = self._stack
        return stack[-1] if stack else None

    # -- metrics -------------------------------------------------------
    def counter(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).add(amount)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def histogram(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    # -- lifecycle -----------------------------------------------------
    def _emit(self, record: dict) -> None:
        with self._emit_lock:
            for sink in self.sinks:
                sink.emit(record)

    def flush(self) -> None:
        """Push buffered sink output to the OS without closing anything."""
        with self._emit_lock:
            for sink in self.sinks:
                flush = getattr(sink, "flush", None)
                if flush is not None:
                    flush()

    def finish(self, strict: bool = True) -> None:
        """Flush the final metrics snapshot and close the sinks.

        Open spans at finish time are an instrumentation bug; with
        ``strict`` they raise (counting spans across *all* threads),
        otherwise (the unwinding-an-exception path) the calling
        thread's spans are force-closed innermost-first so the trace
        file stays parseable.  Spans left open by other threads cannot
        be safely closed from here and are simply never emitted.
        """
        if self._finished:
            return
        if self._open_count and strict:
            where = f"(innermost here: '{self._stack[-1].name}')" if self._stack else "(in another thread)"
            raise RuntimeError(
                f"finish() with {self._open_count} span(s) still open {where}"
            )
        while self._stack:
            open_span = self._stack[-1]
            open_span.duration_s = time.perf_counter() - open_span._started
            open_span.error = open_span.error or "unclosed"
            self._close(open_span)
        self._finished = True
        self._emit({"type": "metrics", **self.metrics.snapshot()})
        for sink in self.sinks:
            sink.close()


# ---------------------------------------------------------------------
# The process-wide recorder switch.
# ---------------------------------------------------------------------
_recorder = NOOP


def get_recorder():
    """The active recorder (the no-op singleton by default)."""
    return _recorder


def set_recorder(recorder) -> object:
    """Install ``recorder`` (``None`` restores the no-op); returns the
    previously active recorder so callers can restore it."""
    global _recorder
    previous = _recorder
    _recorder = recorder if recorder is not None else NOOP
    return previous


def enabled() -> bool:
    """Whether an active (non-no-op) recorder is installed."""
    return _recorder.enabled


def span(name: str, **attrs):
    """Open a span on the active recorder (free when observability is off)."""
    return _recorder.span(name, **attrs)


def counter(name: str, amount: float = 1.0) -> None:
    _recorder.counter(name, amount)


def gauge(name: str, value: float) -> None:
    _recorder.gauge(name, value)


def histogram(name: str, value: float) -> None:
    _recorder.histogram(name, value)


@contextmanager
def recording(*sinks) -> Iterator[TraceRecorder]:
    """Run a block under a fresh :class:`TraceRecorder`.

    The sinks first receive a ``trace_start`` header naming the trace
    id, which :func:`repro.obs.dist.merge_spools` matches against each
    shard spool's own header.  Installs the recorder for the duration
    of the block, then finishes it (flushing the metrics snapshot and
    closing the sinks) and restores whatever recorder was active before.
    """
    recorder = TraceRecorder(*sinks)
    recorder._emit(
        {"type": "trace_start", "trace_id": recorder.trace_id, "start_unix": time.time()}
    )
    previous = set_recorder(recorder)
    try:
        yield recorder
    except BaseException:
        set_recorder(previous)
        recorder.finish(strict=False)
        raise
    else:
        set_recorder(previous)
        recorder.finish()
