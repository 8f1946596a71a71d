"""Random delay campaigns: sustained stochastic injection.

Fig. 6(c) injects one round of random delays; Sec. IV-B notes that "delays
of different duration might be injected in random ways across the whole
communicator".  A :class:`DelayCampaign` generalizes that to a sustained
stochastic process — delays arriving over the whole run as a Poisson
process in (rank, step) space with random durations — which is the regime
of a production system suffering recurring long disturbances (cron storms,
GC pauses, page-fault bursts).

The ``ext_campaign`` experiment driver measures the
steady-state cost of such a delay climate and how background noise changes
it: with many interacting waves, cancellations destroy part of each
delay's idle budget, so the marginal cost of a delay *decreases* with the
injection rate.

Campaigns of many independent draws are declared as a
:class:`repro.runtime.spec.SweepSpec` grid and executed with
:func:`repro.runtime.executor.run_campaign`: in-process by the
``ext_campaign`` driver, sharded and cached by the bundled
``campaign_rate_sweep`` scenario (``scenario sweep --jobs N --cache-dir
DIR``).  Each task passes its derived integer seed straight to
:meth:`DelayCampaign.draw` — integer seeds make draws bit-reproducible
across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.delay import DelaySpec

__all__ = ["DelayCampaign"]


@dataclass(frozen=True)
class DelayCampaign:
    """A stochastic schedule of one-off delays.

    Parameters
    ----------
    rate:
        Expected number of delays per rank per step (Poisson intensity).
        E.g. ``rate=0.01`` on 100 ranks × 20 steps yields ~20 delays.
    duration_low / duration_high:
        Uniform bounds of each delay's duration in seconds.
    """

    rate: float
    duration_low: float
    duration_high: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.duration_low < 0 or self.duration_high < self.duration_low:
            raise ValueError(
                f"need 0 <= duration_low <= duration_high, got "
                f"{self.duration_low}, {self.duration_high}"
            )

    def expected_count(self, n_ranks: int, n_steps: int) -> float:
        """Expected number of injected delays over a run."""
        return self.rate * n_ranks * n_steps

    def expected_injected_time(self, n_ranks: int, n_steps: int) -> float:
        """Expected total injected delay seconds over a run."""
        mean_duration = 0.5 * (self.duration_low + self.duration_high)
        return self.expected_count(n_ranks, n_steps) * mean_duration

    def draw(
        self,
        n_ranks: int,
        n_steps: int,
        rng: "np.random.Generator | int",
    ) -> tuple[DelaySpec, ...]:
        """Sample a concrete delay schedule for one run.

        ``rng`` is either a live :class:`numpy.random.Generator` or an
        integer seed, in which case the campaign constructs its own
        generator — the form campaign-runtime tasks use, since an integer
        travels across process boundaries while producing bit-identical
        schedules (see :mod:`repro.runtime`).

        At most one delay lands on any (rank, step) cell; multiple arrivals
        on one cell are merged by summing their durations (the cell's
        execution is extended either way).
        """
        if n_ranks < 1 or n_steps < 1:
            raise ValueError("n_ranks and n_steps must be >= 1")
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        elif not isinstance(rng, np.random.Generator):
            raise TypeError(
                f"rng must be a numpy Generator or an integer seed, "
                f"got {type(rng).__name__}"
            )
        counts = rng.poisson(self.rate, size=(n_ranks, n_steps))
        specs: list[DelaySpec] = []
        for rank, step in zip(*np.nonzero(counts)):
            n = int(counts[rank, step])
            duration = float(
                rng.uniform(self.duration_low, self.duration_high, size=n).sum()
            )
            if duration > 0:
                specs.append(DelaySpec(rank=int(rank), step=int(step), duration=duration))
        return tuple(specs)
