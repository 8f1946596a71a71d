"""Scenario execution: compiled spec → engine run → outputs.

Every run of a compiled scenario takes the same three steps:

1. :func:`prepare_scenario_run` draws the delay campaign's schedule (if
   any) and the noise matrix from a single :class:`numpy.random.Generator`
   seeded by the run seed, so a scenario + seed is bit-reproducible
   across processes;
2. :func:`simulate_prepared` executes B >= 1 such draws as one
   ``[B, n_ranks, n_steps]`` call of the engine the compiler chose — the
   lockstep recurrence, or the DAG engine's build-once/propagate-many
   :class:`~repro.sim.engine.StaticDag` sweep.  Both consume the *same*
   execution-time matrices, which is what makes cross-engine results
   agree to machine precision, and both are elementwise along the batch
   axis, so a run's timing does not depend on the block it ran in;
3. :func:`finish_scenario_run` evaluates the requested outputs.

:func:`run_scenario_batch` runs those steps for the seeds of one
replicate block; :func:`run_scenario` is its one-seed case.  The
campaign task functions and batchers (:mod:`repro.scenarios.tasks`,
:mod:`repro.scenarios.batch`, :mod:`repro.reports.tasks`) are built on
the same steps, which is the bit-identity contract the campaign
runtime's content-addressed cache relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.core.timing import RunTiming
from repro.scenarios.compiler import CompiledScenario, compile_scenario
from repro.scenarios.outputs import compute_outputs
from repro.scenarios.spec import ScenarioSpec
from repro.sim.lockstep import simulate_lockstep_batch

__all__ = ["PreparedRun", "ScenarioRun", "run_scenario", "run_scenario_batch",
           "simulate_prepared"]


@dataclass
class ScenarioRun:
    """Everything one scenario execution produced."""

    compiled: CompiledScenario
    seed: int
    timing: RunTiming
    n_campaign_delays: int
    data: dict
    tables: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.compiled.spec.name

    def render(self) -> str:
        """Printable report (same shape as the experiment drivers')."""
        spec = self.compiled.spec
        header = f"=== scenario {self.name}"
        if spec.description:
            header += f": {spec.description}"
        header += " ==="
        parts = [header,
                 f"[engine={self.compiled.engine} seed={self.seed} "
                 f"ranks={spec.n_ranks} steps={spec.n_steps} "
                 f"protocol={self.compiled.resolved_protocol.value}"
                 + (f" campaign_delays={self.n_campaign_delays}"
                    if self.compiled.campaign is not None else "")
                 + "]"]
        for kind, text in self.tables.items():
            parts.append(f"\n--- {kind} ---")
            parts.append(text)
        return "\n".join(parts)


@dataclass
class PreparedRun:
    """One scenario run's fully drawn inputs, ready for an engine.

    ``cfg`` carries the merged delays (explicit + campaign draw) and the
    run seed; ``exec_times`` is the complete ``[n_ranks, n_steps]``
    execution-time matrix — the only thing either engine consumes besides
    the static pattern/network parameters.
    """

    cfg: "object"  # LockstepConfig
    exec_times: np.ndarray
    seed: int
    n_campaign_delays: int


def prepare_scenario_run(
    compiled: CompiledScenario, seed: "int | None" = None
) -> PreparedRun:
    """Draw all randomness for one run of a compiled scenario.

    Deterministic per ``(compiled, seed)``: the campaign schedule and the
    noise matrix both derive from one generator seeded by the run seed,
    exactly as the serial pipeline has always done.
    """
    spec = compiled.spec
    run_seed = spec.seed if seed is None else int(seed)
    with telemetry.span("scenario.prepare", scenario=spec.name,
                        seed=run_seed):
        return _prepare_scenario_run_inner(compiled, run_seed)


def _prepare_scenario_run_inner(
    compiled: CompiledScenario, run_seed: int
) -> PreparedRun:
    spec = compiled.spec
    rng = np.random.default_rng(run_seed)

    cfg = compiled.cfg
    campaign_delays: tuple = ()
    if compiled.campaign is not None:
        campaign_delays = compiled.campaign.draw(cfg.n_ranks, cfg.n_steps, rng)
        cfg = replace(cfg, delays=cfg.delays + campaign_delays)
    if run_seed != cfg.seed:
        cfg = replace(cfg, seed=run_seed)

    if compiled.threads > 1:
        from repro.sim.hybrid import HybridConfig, hybrid_exec_times

        hybrid = HybridConfig(
            n_processes=cfg.n_ranks, threads=compiled.threads,
            n_steps=cfg.n_steps, t_exec=cfg.t_exec, msg_size=cfg.msg_size,
            pattern=cfg.pattern, noise=compiled.noise, delays=cfg.delays,
            seed=run_seed,
        )
        exec_times = hybrid_exec_times(hybrid, rng)
    else:
        from repro.sim.program import build_exec_times

        exec_times = build_exec_times(cfg, rng)

    return PreparedRun(
        cfg=cfg, exec_times=exec_times, seed=run_seed,
        n_campaign_delays=len(campaign_delays),
    )


def simulate_prepared(
    compiled: CompiledScenario, prepared: "Sequence[PreparedRun]"
) -> "list[RunTiming]":
    """Run B >= 1 prepared draws of one compiled scenario as one engine call.

    The single step from drawn inputs to timing matrices: every scenario
    and report run goes through here, a single run being the B = 1 case.
    The draws' execution-time matrices are stacked into one
    ``[B, n_ranks, n_steps]`` invocation of the compiled engine — the
    lockstep recurrence, or one batched propagation through a cached
    :class:`~repro.sim.engine.StaticDag`.  Both are elementwise along the
    batch axis, so each run's timing is bit-identical whatever block it
    ran in.  Each timing's ``delays``/``seed`` meta names its own draw.
    """
    stacked = np.stack([p.exec_times for p in prepared])
    with telemetry.span("scenario.execute", engine=compiled.engine,
                        batch=len(prepared)):
        if compiled.engine == "lockstep":
            batch = simulate_lockstep_batch(
                compiled.cfg, stacked,
                network=compiled.network, domain=compiled.domain,
                protocol=compiled.protocol, eager_limit=compiled.eager_limit,
                mapping=compiled.mapping,
            )
            from_result = RunTiming.from_lockstep
        else:
            from repro.sim.engine import simulate_dag_batch

            batch = simulate_dag_batch(compiled.cfg, stacked,
                                       compiled.sim_config())
            from_result = RunTiming.from_dag
    timings = []
    for b, p in enumerate(prepared):
        result = batch[b]
        result.meta.pop("n_batch")
        result.meta.update({"delays": p.cfg.delays, "seed": p.seed})
        timings.append(from_result(result))
    return timings


def finish_scenario_run(
    compiled: CompiledScenario, prepared: PreparedRun, timing: RunTiming
) -> ScenarioRun:
    """Evaluate the scenario's requested outputs against a finished run."""
    with telemetry.span("scenario.finish"):
        data, tables = compute_outputs(compiled, timing)
    return ScenarioRun(
        compiled=compiled, seed=prepared.seed, timing=timing,
        n_campaign_delays=prepared.n_campaign_delays, data=data, tables=tables,
    )


def _compiled(scenario: "ScenarioSpec | CompiledScenario",
              engine: str) -> CompiledScenario:
    if isinstance(scenario, CompiledScenario):
        return scenario
    with telemetry.span("scenario.compile"):
        return compile_scenario(scenario, engine=engine)


def run_scenario(
    scenario: "ScenarioSpec | CompiledScenario",
    seed: "int | None" = None,
    engine: str = "auto",
) -> ScenarioRun:
    """Execute one scenario and evaluate its outputs.

    The one-draw case of :func:`run_scenario_batch`.

    Parameters
    ----------
    scenario:
        A spec (compiled here) or an already compiled scenario.  A
        ``sweep`` block is ignored — this runs the base point; use
        :mod:`repro.scenarios.sweep` for grids.
    seed:
        Run seed; defaults to the spec's own ``seed``.  All randomness
        (campaign schedule, noise) derives from it.
    engine:
        Engine override, forwarded to the compiler when ``scenario`` is a
        spec.  Ignored for pre-compiled scenarios.
    """
    compiled = _compiled(scenario, engine)
    # Own the run lifecycle only at top level: as one task of a sweep or
    # report campaign this stays silent (the campaign emits per-task
    # events; worker-local run.* events are dropped on merge).
    owns_run = telemetry.enabled() and not telemetry.in_run()
    if owns_run:
        run_seed = compiled.spec.seed if seed is None else int(seed)
        telemetry.emit("run.start", kind="scenario.run",
                       name=compiled.spec.name, n_tasks=1,
                       engine=compiled.engine, seed_root=run_seed, jobs=1)
        telemetry.emit("task.start", index=0)
    [run] = run_scenario_batch(compiled, [seed])
    if owns_run:
        telemetry.emit("task.done", index=0)
        telemetry.emit("run.finish", status="ok", n_tasks=1, n_failed=0)
    return run


def run_scenario_batch(
    scenario: "ScenarioSpec | CompiledScenario",
    seeds: "Sequence[int | None]",
    engine: str = "auto",
) -> "list[ScenarioRun]":
    """Execute one scenario for many seeds as a single batched engine call.

    The runs share everything but their seed (campaign schedule, noise
    draw), which is the shape of a delay-campaign replicate block; a
    ``None`` seed is the spec's own.  Each run's randomness is drawn by
    :func:`prepare_scenario_run` and all B draws execute in one
    :func:`simulate_prepared` call, so each returned
    :class:`ScenarioRun` is bit-identical to
    ``run_scenario(scenario, seed=s)`` for its seed.
    """
    compiled = _compiled(scenario, engine)
    if not seeds:
        return []
    prepared = [prepare_scenario_run(compiled, s) for s in seeds]
    timings = simulate_prepared(compiled, prepared)
    return [finish_scenario_run(compiled, p, t)
            for p, t in zip(prepared, timings)]
