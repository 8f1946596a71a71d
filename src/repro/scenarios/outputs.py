"""Scenario output requests: what a run reports back.

Each output kind maps a finished run (a :class:`~repro.core.timing.RunTiming`
plus its compiled scenario) to a JSON-able data dict — the form that the
campaign runtime's result store persists — and optionally a rendered text
section for the CLI report.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.desync import desync_onset, overlap_efficiency, skew_spread
from repro.core.speed import silent_speed_for
from repro.core.timing import RunTiming

__all__ = ["compute_outputs"]


def _runtime_output(compiled, timing: RunTiming, run) -> "tuple[dict, str | None]":
    data = {
        "total_runtime": timing.total_runtime(),
        "total_idle": timing.total_idle(),
        "mean_idle_per_rank": float(np.mean(timing.idle_by_rank())),
    }
    text = (
        f"total runtime : {data['total_runtime'] * 1e3:10.3f} ms\n"
        f"total idle    : {data['total_idle'] * 1e3:10.3f} rank-ms\n"
        f"idle per rank : {data['mean_idle_per_rank'] * 1e3:10.3f} ms (mean)"
    )
    return data, text


def _timeline_output(compiled, timing: RunTiming, run) -> "tuple[dict, str | None]":
    from repro.viz.ascii_timeline import render_timeline

    text = render_timeline(timing, width=90, base_exec=compiled.t_exec)
    return {"n_ranks": timing.n_ranks, "n_steps": timing.n_steps}, text


def _histogram_output(compiled, timing: RunTiming, run) -> "tuple[dict, str | None]":
    idle = timing.idle[timing.idle > 0]
    if idle.size == 0:
        return {"n_idle_periods": 0, "mean_idle": 0.0, "max_idle": 0.0}, \
            "(no idle periods — the run stayed in lockstep)"
    from repro.analysis.histogram import NoiseHistogram
    from repro.viz.ascii_histogram import render_histogram

    hist = NoiseHistogram.from_samples(idle, bin_width=max(float(idle.max()) / 40, 1e-9))
    data = {
        "n_idle_periods": int(idle.size),
        "mean_idle": float(idle.mean()),
        "max_idle": float(idle.max()),
        "p95_idle": float(np.percentile(idle, 95)),
    }
    return data, render_histogram(hist, unit=1e-3, unit_label="ms")


def _desync_output(compiled, timing: RunTiming, run) -> "tuple[dict, str | None]":
    spread = skew_spread(timing)
    onset = desync_onset(timing)
    data = {
        "final_skew": float(spread[-1]),
        "max_skew": float(spread.max()),
        "mean_skew": float(spread.mean()),
        "desync_onset_step": onset if onset is None else int(onset),
        "overlap_efficiency": float(overlap_efficiency(timing)),
    }
    text = (
        f"skew spread   : final {data['final_skew'] * 1e3:.3f} ms, "
        f"max {data['max_skew'] * 1e3:.3f} ms\n"
        f"desync onset  : "
        + ("never (stayed within T_exec/2)" if onset is None else f"step {onset}")
        + f"\noverlap eff.  : {data['overlap_efficiency']:+.2%}"
    )
    return data, text


def _wave_speed_output(compiled, timing: RunTiming, run) -> "tuple[dict, str | None]":
    from repro.core.speed import measure_speed

    source = compiled.cfg.delays[0].rank  # compile guarantees >= 1 delay
    prediction = silent_speed_for(
        compiled.cfg.pattern, compiled.resolved_protocol,
        compiled.t_exec, compiled.t_comm,
    )
    try:
        measured = measure_speed(timing, source=source)
    except ValueError as exc:
        return {
            "source": source,
            "measured_speed": None,
            "predicted_speed": prediction,
            "note": str(exc),
        }, f"wave speed: not measurable ({exc})"
    data = {
        "source": source,
        "measured_speed": measured.speed,
        "predicted_speed": prediction,
        "relative_error": abs(measured.speed - prediction) / prediction,
        "hops": measured.hops,
    }
    text = (
        f"measured wave speed : {measured.speed:10.1f} ranks/s "
        f"({measured.hops} hops)\n"
        f"Eq. 2 prediction    : {prediction:10.1f} ranks/s\n"
        f"relative error      : {data['relative_error']:10.2%}"
    )
    return data, text


_COMPUTERS = {
    "runtime": _runtime_output,
    "timeline": _timeline_output,
    "histogram": _histogram_output,
    "desync": _desync_output,
    "wave_speed": _wave_speed_output,
}


def compute_outputs(compiled, run) -> "tuple[dict, dict]":
    """Evaluate the scenario's requested outputs against a finished run.

    Returns ``(data, tables)``: ``data`` maps output kind to a JSON-able
    dict (store/persistence form); ``tables`` maps output kind to
    rendered text for the CLI report.
    """
    timing = RunTiming.of(run)
    data: dict = {}
    tables: dict = {}
    for kind in compiled.spec.outputs:
        values, text = _COMPUTERS[kind](compiled, timing, run)
        data[kind] = values
        if text is not None:
            tables[kind] = text
    return data, tables
