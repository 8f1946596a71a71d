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
:func:`enable`.  The :func:`profiled` context manager
(:mod:`repro.telemetry.sinks`) is the ``--profile`` wiring used by
``scenario run|sweep`` and ``report run``: open a root span, and on exit
snapshot, write sinks, and print the summary.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".recorder": ("EVENT_VERSION", "KNOWN_EVENTS", "Recorder", "Span",
                  "count", "current_recorder", "disable", "emit", "enable",
                  "enabled", "gauge", "in_run", "merge_snapshot", "observe",
                  "span", "timed_span"),
    ".sinks": ("profiled", "read_jsonl", "render_summary", "summarize",
               "write_jsonl"),
    ".trace_export": ("export_chrome_trace", "validate_trace",
                      "write_chrome_trace"),
})
