"""Extension experiment: sustained random delay campaigns.

Generalizes Fig. 6(c) ("random delay injected at sixth process of each
socket") to a Poisson climate of delays over the whole run, and measures
the marginal runtime cost per injected delay-second as a function of the
injection rate.

Expected shape: interacting waves cancel (Sec. IV-B), so the runtime cost
of the campaign grows *sublinearly* with the injected delay budget — each
additional delay is partly absorbed by the wave field of the others.  The
cost ratio (runtime excess / injected delay-seconds) therefore falls as
the rate rises, dropping well below the single-delay reference of 1.

The rate scan is a campaign of independent ``rate x replicate`` runs,
declared as a :class:`~repro.runtime.spec.SweepSpec` whose per-run seeds
are derived deterministically from the experiment's base seed; the runs
execute in-process, serially and uncached (the whole scan takes a fraction
of a second).  The sharded, cached form of the same study is the bundled
``campaign_rate_sweep`` scenario (``scenario sweep --jobs N --cache-dir``).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.runtime import SweepSpec, group_by_param, run_campaign
from repro.runtime.tasks import ring_runtime
from repro.sim.campaign import DelayCampaign
from repro.viz.tables import format_table

__all__ = ["run", "campaign_cost_task"]

T_EXEC = 3e-3
N_RANKS = 50
N_STEPS = 40
MSG_SIZE = 8192
DUR_LO, DUR_HI = 2 * T_EXEC, 8 * T_EXEC


def campaign_cost_task(
    rate: float,
    replicate: int,
    n_ranks: int,
    n_steps: int,
    t_exec: float,
    msg_size: int,
    duration_low: float,
    duration_high: float,
    baseline: float,
    sim_seed: int,
    seed: int = 0,
) -> dict:
    """One campaign run: draw a delay schedule, simulate, account the cost.

    ``seed`` is the task's derived per-run seed (disjoint stream per
    ``(rate, replicate)`` grid point); ``sim_seed`` is the experiment's
    base seed threaded into the engine config, and ``baseline`` the
    delay-free runtime it implies.
    """
    campaign = DelayCampaign(rate=rate, duration_low=duration_low,
                             duration_high=duration_high)
    delays = campaign.draw(n_ranks, n_steps, seed)
    injected = float(sum(d.duration for d in delays))
    if injected <= 0.0:
        return {"n_delays": 0, "injected": 0.0, "excess": 0.0,
                "replicate": int(replicate)}
    excess = ring_runtime(n_ranks, n_steps, t_exec, msg_size, delays,
                          sim_seed) - baseline
    return {
        "n_delays": len(delays),
        "injected": injected,
        "excess": float(excess),
        "replicate": int(replicate),
    }


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Scan the injection rate and report the marginal delay cost."""
    rates = (0.001, 0.01, 0.03, 0.08) if fast else (0.001, 0.002, 0.005, 0.01,
                                                    0.02, 0.04, 0.08, 0.15)
    n_runs = 4 if fast else 10
    baseline = ring_runtime(N_RANKS, N_STEPS, T_EXEC, MSG_SIZE, (), seed)

    sweep = SweepSpec(
        fn="repro.experiments.ext_campaign:campaign_cost_task",
        base={
            "n_ranks": N_RANKS, "n_steps": N_STEPS, "t_exec": T_EXEC,
            "msg_size": MSG_SIZE, "duration_low": DUR_LO,
            "duration_high": DUR_HI, "baseline": baseline, "sim_seed": seed,
        },
        axes=(("rate", rates), ("replicate", tuple(range(n_runs)))),
        base_seed=seed,
    )
    campaign = run_campaign(sweep.tasks()).raise_failures()

    rows = []
    data = {}
    for rate, values in group_by_param(campaign, "rate").items():
        hits = [v for v in values if v["injected"] > 0]
        if not hits:
            continue
        ratios = [v["excess"] / v["injected"] for v in hits]
        counts = [v["n_delays"] for v in hits]
        model = DelayCampaign(rate=rate, duration_low=DUR_LO, duration_high=DUR_HI)
        rows.append(
            (
                rate,
                float(np.mean(counts)),
                model.expected_injected_time(N_RANKS, N_STEPS) * 1e3,
                float(np.median(ratios)),
            )
        )
        data[rate] = {"cost_ratio": float(np.median(ratios)),
                      "mean_delays": float(np.mean(counts))}

    table = format_table(
        ["rate [delays/rank/step]", "mean #delays", "E[injected] [ms]",
         "excess / injected (marginal cost)"],
        rows,
    )

    ratios_by_rate = [data[r]["cost_ratio"] for r in sorted(data)]
    notes = [
        "A single delay on a quiet ring costs its full duration "
        "(cost ratio 1, cf. Fig. 9 at E=0).",
        "Under a sustained campaign the waves cancel pairwise, so the "
        "marginal cost falls with the rate: "
        f"{' -> '.join(f'{x:.2f}' for x in ratios_by_rate)}.",
        "This is the system-level consequence of the nonlinearity of "
        "Sec. IV-B: delay climates are cheaper than the sum of their delays.",
    ]
    return ExperimentResult(
        name="ext_campaign",
        title="Extension: marginal cost of sustained random delay campaigns",
        tables={"rate scan": table},
        data=data,
        notes=notes,
    )
