"""Live run observability: progress rendering, run ledger, worker health.

Three cooperating pieces, layered over (not into) the simulation code
and driven by the lifecycle events of the telemetry recorder
(:mod:`repro.telemetry.recorder`).  Emission sites in the executor and
runners publish typed events (``run.start``, ``task.done``,
``block.fallback``, …) through ``telemetry.emit``, which costs one
``None`` check when nothing is recording:

- :mod:`repro.obs.progress` — a TTY-aware single-line renderer
  (throughput, cache-hit rate, EWMA-based ETA) subscribed to the
  recorder.
- :mod:`repro.obs.ledger` / :mod:`repro.obs.session` — per-run
  provenance records under ``<cache-dir>/runs/`` and the
  :func:`observe_run` context manager that wires a whole CLI run
  together.  ``repro-experiment runs ls|show|tail`` queries the ledger.
- :mod:`repro.obs.health` — worker resource samples and the pool's
  stall watchdog.

Observability is pure: enabling it never changes engine outputs or the
bytes the store persists (enforced by ``tests/scenarios/test_batch.py``
and ``benchmarks/bench_obs.py``).
"""

from repro.obs.ledger import (
    RUN_RECORD_VERSION,
    RunLedger,
    RunTracker,
    render_run_summary,
)
from repro.obs.progress import ProgressRenderer
from repro.obs.session import observe_run
from repro.telemetry.recorder import EVENT_VERSION, KNOWN_EVENTS

__all__ = [
    "EVENT_VERSION",
    "KNOWN_EVENTS",
    "ProgressRenderer",
    "RUN_RECORD_VERSION",
    "RunLedger",
    "RunTracker",
    "observe_run",
    "render_run_summary",
]
