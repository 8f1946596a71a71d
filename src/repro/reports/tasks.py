"""Campaign task functions for report metric extraction.

Reports separate *simulation* from *analysis*: the campaign task persists
a run's dense timing matrices (the :class:`~repro.core.timing.RunTiming`
triple, stored as NPZ side-cars by the content-addressed result store),
and the metric kernels re-derive every reported quantity from those
matrices at report time.  Changing a report's metrics, grouping, or
artifacts therefore never invalidates the cache — a new report over an
already-run sweep touches the engine zero times.

:class:`ReportTaskBatcher` mirrors
:class:`repro.scenarios.batch.ScenarioTaskBatcher`: contiguous blocks of
tasks that differ only in their seed execute as one batched lockstep
invocation, with per-task values bit-identical to unbatched execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.timing import RunTiming
from repro.runtime.executor import TaskBatcher, contiguous_blocks
from repro.runtime.spec import RunSpec, hashable
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
    from repro.scenarios.runner import _execute_prepared, prepare_scenario_run

    spec = resolve_task_scenario(scenario, overrides)
    compiled = compile_scenario(spec, engine=engine)
    prepared = prepare_scenario_run(compiled, seed)
    timing = _execute_prepared(compiled, prepared)
    return _timing_value(timing)


def _timing_value(timing: RunTiming) -> dict:
    return {
        "exec_end": np.asarray(timing.exec_end, dtype=float),
        "completion": np.asarray(timing.completion, dtype=float),
        "idle": np.asarray(timing.idle, dtype=float),
    }


def _task_seed(spec: RunSpec) -> int:
    """A timing task's effective seed: derived, or the explicit parameter."""
    if spec.seed is not None:
        return spec.seed
    return int(spec.kwargs.get("seed", 0))


@dataclass(frozen=True)
class ReportTaskBatcher(TaskBatcher):
    """Group contiguous same-grid-point timing tasks into engine batches.

    Tasks are batchable when they share everything but their seed — either
    the derived per-task seed of a replicate block, or an explicit
    ``seed`` axis value (reports with a ``seeds = [...]`` list).  Each
    block compiles the scenario once and runs all its draws as a single
    ``[B, n_ranks, n_steps]`` batched invocation — the lockstep
    recurrence, or one batched propagation through a cached
    :class:`~repro.sim.engine.StaticDag` for forced-DAG blocks.

    Parameters
    ----------
    max_block:
        Upper bound on tasks per batch, limiting the peak size of the
        stacked timing arrays.
    """

    max_block: int = 64

    def plan(self, specs: "Sequence[RunSpec]") -> "list[list[int]]":
        return contiguous_blocks(map(self._signature, specs), self.max_block)

    @staticmethod
    def _signature(spec: RunSpec) -> "tuple | None":
        """Batch-compatibility key: everything but the seed and replicate."""
        if spec.fn != TIMING_TASK_FN:
            return None
        return tuple((k, hashable(v)) for k, v in spec.params
                     if k not in ("replicate", "seed"))

    def execute(self, specs: "Sequence[RunSpec]") -> "list[Mapping]":
        """Run one seed block through the batched engine path.

        Mirrors :func:`scenario_timing_task` exactly — same resolution,
        same compile, same per-seed randomness — so each returned value
        is bit-identical to the corresponding unbatched task call (the
        batched recurrence is elementwise along the batch axis).
        """
        from repro.scenarios.compiler import compile_scenario
        from repro.scenarios.runner import prepare_scenario_run
        from repro.sim.engine import simulate_dag_batch
        from repro.sim.lockstep import simulate_lockstep_batch

        first = specs[0].kwargs
        spec = resolve_task_scenario(first["scenario"], first.get("overrides"))
        compiled = compile_scenario(spec, engine=first.get("engine", "auto"))
        prepared = [prepare_scenario_run(compiled, _task_seed(s)) for s in specs]

        stacked = np.stack([p.exec_times for p in prepared])
        if compiled.engine == "lockstep":
            batch = simulate_lockstep_batch(
                compiled.cfg, stacked,
                network=compiled.network, domain=compiled.domain,
                protocol=compiled.protocol, eager_limit=compiled.eager_limit,
                mapping=compiled.mapping,
            )
            timings = (RunTiming.from_lockstep(batch[b])
                       for b in range(len(specs)))
        else:
            dag_batch = simulate_dag_batch(compiled.cfg, stacked,
                                           compiled.sim_config())
            timings = (RunTiming.from_dag(dag_batch[b])
                       for b in range(len(specs)))
        return [_timing_value(t) for t in timings]
