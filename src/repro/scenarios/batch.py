"""Batched execution of scenario and report campaign tasks.

A scenario sweep (or a report's timing campaign) expands into grid tasks
whose replicates of one grid point differ *only* in their seed (the
campaign's delay draw and the noise matrix follow from it).  Simulating
each replicate with its own engine invocation wastes most of the wall
clock on fixed per-run overhead — compilation, program setup, and the
Python-level per-step loop over small per-rank arrays.

:class:`SeedBlockBatcher` plugs into
:func:`repro.runtime.executor.run_campaign` and collapses each contiguous
seed block into **one** engine call: the scenario is compiled once, each
task's randomness is drawn from its own seed exactly as in per-task
execution, and the B draws run through
:func:`repro.scenarios.runner.simulate_prepared` — the same function a
single run takes, with B = 1.  Every task's value — and therefore its
content-addressed cache record — is bit-identical to per-task execution
(guarded by ``tests/scenarios/test_batch.py`` and
``tests/runtime/test_store_keys.py``).  Its two subclasses differ only
in the value they build from a finished draw: :class:`ScenarioTaskBatcher`
evaluates the scenario's outputs,
:class:`repro.reports.tasks.ReportTaskBatcher` keeps the dense timing
matrices.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.runtime.executor import TaskBatcher, contiguous_blocks
from repro.runtime.spec import RunSpec, hashable
# Every block runs through these modules: loaded here, pool workers
# forked after this import inherit them instead of each importing them
# again.  Runner functions are looked up at call time.
from repro.scenarios import runner
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.tasks import outputs_value, resolve_task_scenario

__all__ = ["MAX_BLOCK", "SCENARIO_TASK_FN", "ScenarioTaskBatcher",
           "SeedBlockBatcher"]

SCENARIO_TASK_FN = "repro.scenarios.tasks:scenario_task"

#: Upper bound on tasks per block, limiting the peak size of the stacked
#: ``[B, n_ranks, n_steps]`` timing arrays.
MAX_BLOCK = 64


def _task_seed(spec: RunSpec) -> "int | None":
    """A task's seed: derived, or else its explicit ``seed`` parameter."""
    if spec.seed is not None:
        return spec.seed
    return dict(spec.params).get("seed")


class SeedBlockBatcher(TaskBatcher):
    """Group contiguous tasks that differ only in their seed into blocks.

    Tasks are batchable when they call :attr:`task_fn` with the same
    parameters but for their seed — either the derived per-task seed of
    a replicate block, or an explicit ``seed`` axis value (reports with a
    ``seeds = [...]`` list).  Subclasses name the task function and build
    each task's value in :meth:`task_value`.
    """

    #: Import path of the task function whose blocks this batcher runs.
    task_fn: str = ""

    def plan(self, specs: "Sequence[RunSpec]") -> "list[list[int]]":
        return contiguous_blocks(map(self._signature, specs), MAX_BLOCK)

    @classmethod
    def _signature(cls, spec: RunSpec) -> "tuple | None":
        """Batch-compatibility key: everything but the replicate and seed.

        ``None`` marks a task that must never join a block (another task
        function, or no seed at all).  Two tasks with equal signatures
        describe the same compiled scenario; only their seeds — and hence
        their random draws — differ.  ``RunSpec.params`` is already a
        canonically sorted tuple, so the filtered tuple itself is the key.
        """
        if spec.fn != cls.task_fn or _task_seed(spec) is None:
            return None
        return tuple((k, hashable(v)) for k, v in spec.params
                     if k not in ("replicate", "seed"))

    def execute(self, specs: "Sequence[RunSpec]") -> "list[Mapping]":
        """Run one seed block as a single engine call.

        Same document/override resolution, same compile and same per-seed
        randomness as the task function, so each returned value is
        bit-identical to the corresponding per-task call.
        """
        first = specs[0].kwargs
        spec = resolve_task_scenario(first["scenario"], first.get("overrides"))
        compiled = compile_scenario(spec, engine=first.get("engine", "auto"))
        prepared = [runner.prepare_scenario_run(compiled, _task_seed(s))
                    for s in specs]
        timings = runner.simulate_prepared(compiled, prepared)
        return [self.task_value(task, compiled, p, t)
                for task, p, t in zip(specs, prepared, timings)]

    def task_value(self, task: RunSpec, compiled, prepared, timing) -> Mapping:
        """The value ``task``'s function returns for this finished draw."""
        raise NotImplementedError


class ScenarioTaskBatcher(SeedBlockBatcher):
    """Seed blocks of :func:`repro.scenarios.tasks.scenario_task`."""

    task_fn = SCENARIO_TASK_FN

    def task_value(self, task, compiled, prepared, timing):
        run = runner.finish_scenario_run(compiled, prepared, timing)
        return outputs_value(run, task.kwargs.get("replicate", 0))
