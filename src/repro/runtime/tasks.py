"""Reference campaign task functions.

Campaign tasks must be *importable top-level functions* (referenced by
``"module:function"`` path in a :class:`~repro.runtime.spec.RunSpec`) so
that worker processes can resolve them under any multiprocessing start
method.  This module collects the stock tasks used by the benchmarks
and the test-suite; they double as templates for new campaign
workloads.

Contract for any campaign task:

- accept only plain-data keyword arguments (scalars / lists / dicts);
- accept a ``seed`` keyword when randomness is involved and derive
  *all* randomness from it (``numpy.random.default_rng(seed)``);
- return a mapping of named result fields (JSON-able scalars/lists or
  numpy arrays) — that mapping is what the result store persists.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.core.timing import RunTiming
from repro.sim import CommPattern, Direction, LockstepConfig, simulate_lockstep
from repro.sim.campaign import DelayCampaign

__all__ = [
    "campaign_draw_task",
    "failing_task",
    "flaky_exit_task",
    "hard_exit_task",
    "lockstep_delay_task",
    "ring_runtime",
    "rng_probe_task",
    "sleeping_task",
]


def ring_runtime(n_ranks, n_steps, t_exec, msg_size, delays, sim_seed) -> float:
    """Total runtime of one lockstep run on the canonical campaign ring.

    The shared geometry of the delay-campaign studies — a periodic
    bidirectional distance-1 ring — lives here so that the in-process
    ``ext_campaign`` driver and :func:`lockstep_delay_task`, the task the
    runtime benchmarks shard and cache, exercise one and the same
    configuration.
    """
    cfg = LockstepConfig(
        n_ranks=n_ranks, n_steps=n_steps, t_exec=t_exec, msg_size=msg_size,
        pattern=CommPattern(direction=Direction.BIDIRECTIONAL, distance=1,
                            periodic=True),
        delays=tuple(delays),
        seed=sim_seed,
    )
    return RunTiming.of(simulate_lockstep(cfg)).total_runtime()


def lockstep_delay_task(
    n_ranks: int,
    n_steps: int,
    t_exec: float,
    msg_size: int,
    rate: float,
    duration_low: float,
    duration_high: float,
    replicate: int = 0,
    reps: int = 1,
    seed: int = 0,
) -> dict:
    """Simulate ``reps`` lockstep runs under a random delay campaign.

    The canonical compute-bound campaign unit: draw a Poisson delay
    schedule (:class:`~repro.sim.campaign.DelayCampaign`), run the
    vectorized lockstep engine on a periodic bidirectional ring, and
    report runtime plus injected-delay accounting.  ``replicate`` only
    distinguishes otherwise-identical grid points (the seed varies with
    it through the sweep's task index); ``reps`` repeats the
    draw+simulate cycle in-process to fatten the task for benchmarking.
    """
    rng = np.random.default_rng(seed)
    campaign = DelayCampaign(rate=rate, duration_low=duration_low,
                             duration_high=duration_high)
    runtimes, injected_totals, n_delays = [], [], 0
    for _ in range(max(int(reps), 1)):
        delays = campaign.draw(n_ranks, n_steps, rng)
        runtimes.append(ring_runtime(n_ranks, n_steps, t_exec, msg_size,
                                     delays, seed))
        injected_totals.append(float(sum(d.duration for d in delays)))
        n_delays += len(delays)
    return {
        "runtime": float(np.mean(runtimes)),
        "runtimes": [float(r) for r in runtimes],
        "injected": float(np.mean(injected_totals)),
        "n_delays": n_delays,
        "replicate": int(replicate),
    }


def campaign_draw_task(
    rate: float,
    duration_low: float,
    duration_high: float,
    n_ranks: int,
    n_steps: int,
    seed: int = 0,
) -> dict:
    """Draw one :class:`~repro.sim.campaign.DelayCampaign` schedule.

    Used to validate that integer-seeded draws are bit-identical across
    process boundaries (`tests/sim/test_campaign.py`).
    """
    campaign = DelayCampaign(rate=rate, duration_low=duration_low,
                             duration_high=duration_high)
    specs = campaign.draw(n_ranks, n_steps, seed)
    return {
        "ranks": [s.rank for s in specs],
        "steps": [s.step for s in specs],
        "durations": [s.duration for s in specs],
    }


def rng_probe_task(n: int = 4, replicate: int = 0, seed: int = 0) -> dict:
    """Return the first ``n`` uniform draws of the task's seed stream.

    A pure diagnostic: campaigns over this task expose exactly which
    random stream each task received, which the tests use to prove that
    per-task streams are deterministic and pairwise distinct.
    """
    rng = np.random.default_rng(seed)
    return {"seed": int(seed), "draws": [float(x) for x in rng.random(int(n))]}


def failing_task(message: str = "synthetic task failure", replicate: int = 0,
                 seed: int = 0) -> dict:
    """Raise — the stock task for exercising campaign failure isolation."""
    raise RuntimeError(f"{message} (seed={seed})")


def sleeping_task(duration_s: float = 0.1, replicate: int = 0,
                  seed: int = 0) -> dict:
    """Sleep for ``duration_s`` wall-clock seconds, then return it.

    The stock slow-but-healthy task: the watchdog tests mix one long
    sleeper into a pool of fast tasks to provoke a ``task.stall``
    warning without faking clocks or killing workers.
    """
    time.sleep(float(duration_s))
    return {"slept_s": float(duration_s), "replicate": int(replicate),
            "seed": int(seed)}


def hard_exit_task(code: int = 1, replicate: int = 0, seed: int = 0) -> dict:
    """Kill the hosting process outright (``os._exit`` — no cleanup).

    Simulates a worker dying mid-task (segfault, OOM kill) to exercise
    the executor's broken-pool handling.  Never run this serially: in
    the serial backend the hosting process is *your* process.
    """
    os._exit(int(code))


def flaky_exit_task(sentinel: str = "", fail_times: int = 1,
                    replicate: int = 0, seed: int = 0) -> dict:
    """Kill the hosting process the first ``fail_times`` attempts, then
    succeed.

    ``sentinel`` names a directory used to count attempts across worker
    processes (one marker file per death), so the task models a
    *transient* worker crash — an OOM kill under memory pressure that a
    respawned pool survives.  The recovery tests use it to prove that a
    crashed-but-recoverable task is re-dispatched and completes instead
    of being quarantined.  Same serial caveat as :func:`hard_exit_task`.
    """
    root = Path(sentinel)
    root.mkdir(parents=True, exist_ok=True)
    attempts = len(list(root.glob(f"attempt-{replicate}-*")))
    if attempts < int(fail_times):
        (root / f"attempt-{replicate}-{attempts}").touch()
        os._exit(13)
    return {"attempts": attempts, "replicate": int(replicate),
            "seed": int(seed)}
