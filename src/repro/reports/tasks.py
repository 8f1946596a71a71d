"""Campaign task functions for report metric extraction.

Reports separate *simulation* from *analysis*: the campaign task persists
a run's dense timing matrices (the :class:`~repro.core.timing.RunTiming`
triple, stored as NPZ side-cars by the content-addressed result store),
and the metric kernels re-derive every reported quantity from those
matrices at report time.  Changing a report's metrics, grouping, or
artifacts therefore never invalidates the cache — a new report over an
already-run sweep touches the engine zero times.

:class:`ReportTaskBatcher` runs contiguous blocks of timing tasks that
differ only in their seed as one engine call, through the same
:class:`~repro.scenarios.batch.SeedBlockBatcher` as scenario tasks, with
per-task values bit-identical to per-task execution.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.timing import RunTiming
from repro.scenarios.batch import SeedBlockBatcher
from repro.scenarios.tasks import resolve_task_scenario

__all__ = ["TIMING_TASK_FN", "ReportTaskBatcher", "scenario_timing_task"]

TIMING_TASK_FN = "repro.reports.tasks:scenario_timing_task"


def scenario_timing_task(
    scenario: Mapping,
    overrides: "Mapping[str, Any] | None" = None,
    replicate: int = 0,
    engine: str = "auto",
    seed: int = 0,
) -> dict:
    """Run one scenario grid point; returns its dense timing matrices.

    Parameters mirror :func:`repro.scenarios.tasks.scenario_task` — same
    document/override resolution, same compile, same per-seed randomness
    — but the value is the run's raw ``[n_ranks, n_steps]`` timing
    (``exec_end`` / ``completion`` / ``idle``) instead of the scenario's
    evaluated outputs, which is what the report kernels consume.
    """
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.runner import prepare_scenario_run, simulate_prepared

    spec = resolve_task_scenario(scenario, overrides)
    compiled = compile_scenario(spec, engine=engine)
    prepared = prepare_scenario_run(compiled, seed)
    [timing] = simulate_prepared(compiled, [prepared])
    return _timing_value(timing)


def _timing_value(timing: RunTiming) -> dict:
    return {
        "exec_end": np.asarray(timing.exec_end, dtype=float),
        "completion": np.asarray(timing.completion, dtype=float),
        "idle": np.asarray(timing.idle, dtype=float),
    }


class ReportTaskBatcher(SeedBlockBatcher):
    """Seed blocks of :func:`scenario_timing_task`."""

    task_fn = TIMING_TASK_FN

    def task_value(self, task, compiled, prepared, timing):
        return _timing_value(timing)
