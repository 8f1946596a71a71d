"""Zero-dependency runtime telemetry: spans, counters, events, sinks.

Instrumentation sites call the module-level fast path::

    from repro import telemetry

    with telemetry.span("engine.dag.propagate", batch=n) as sp:
        ...
        sp.set(n_levels=levels)
    telemetry.count("dag.cache.hits")
    telemetry.emit("task.done", index=spec.index)

which is a no-op (shared null span, no clock reads) unless an observed
CLI run (:func:`repro.obs.observe_run`) — or a test — has called
:func:`enable`.  The :func:`profiled` context manager is the
``--profile`` wiring used by ``scenario run|sweep`` and ``report run``:
open a root span, and on exit snapshot, write sinks, and print the
summary.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from .recorder import (
    EVENT_VERSION,
    KNOWN_EVENTS,
    Recorder,
    Span,
    count,
    current_recorder,
    disable,
    emit,
    enable,
    enabled,
    gauge,
    in_run,
    merge_snapshot,
    observe,
    span,
    timed_span,
)
from .sinks import read_jsonl, render_summary, summarize, write_jsonl
from .trace_export import export_chrome_trace, validate_trace, \
    write_chrome_trace

__all__ = [
    "EVENT_VERSION",
    "KNOWN_EVENTS",
    "Recorder",
    "Span",
    "count",
    "current_recorder",
    "disable",
    "emit",
    "enable",
    "enabled",
    "export_chrome_trace",
    "gauge",
    "in_run",
    "merge_snapshot",
    "observe",
    "profiled",
    "read_jsonl",
    "render_summary",
    "span",
    "summarize",
    "timed_span",
    "validate_trace",
    "write_chrome_trace",
    "write_jsonl",
]


@contextmanager
def profiled(label: str, out=None, cache_dir=None, echo=print,
             on_write=None):
    """Record one profiled run and flush it to sinks on exit.

    Reuses the live recorder when there is one (the CLI nests
    ``profiled`` inside ``observe_run``, which enabled it), else enables
    a fresh one and disables it again on exit.  Opens a root span named
    ``label`` and yields the recorder.  On exit (even via an exception)
    the recorder is snapshotted — spans, counters, and the lifecycle
    events recorded so far, on one timeline — the JSONL export is
    written to ``out`` (``--telemetry-out``) and/or persisted under
    ``<cache_dir>/telemetry/<label>-<unix>.jsonl`` next to the store
    artifacts, and the summary table is printed through ``echo`` (pass
    ``echo=None`` to silence it).  ``on_write`` is called with each
    written path — the run ledger uses it to record where a run's
    telemetry landed.
    """
    rec = current_recorder()
    owns = rec is None
    if owns:
        rec = enable()
    try:
        with rec.span(label):
            yield rec
    finally:
        snap = rec.snapshot()
        if owns:
            disable()
        paths = []
        if out:
            paths.append(write_jsonl(snap, out, label=label))
        if cache_dir:
            stamp = int(snap.get("wall0") or time.time())
            paths.append(write_jsonl(
                snap, Path(cache_dir) / "telemetry" / f"{label}-{stamp}.jsonl",
                label=label))
        if on_write is not None:
            for p in paths:
                on_write(p)
        if echo is not None:
            echo(render_summary(snap))
            for p in paths:
                echo(f"[telemetry written to {p}]")
