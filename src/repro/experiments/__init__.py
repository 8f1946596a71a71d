"""Experiment drivers — paper figures without a bundled spec, plus the
Eq. 2 sweep and the extensions.

Each module exposes ``run(fast=True, seed=0) -> ExperimentResult``.  The
registry maps experiment ids to those entry points; the CLI and the
benchmark harness both resolve through it.  Fig. 4 and Fig. 7 have no
driver: their bundled specs reproduce them (``repro.cli.FIGURE_ALIASES``).
"""

import inspect
from typing import Callable

from repro.experiments import (
    eq2_speed_model,
    ext_campaign,
    ext_collectives,
    ext_hybrid,
    ext_membound,
    fig1_stream_scaling,
    fig2_lbm_timeline,
    fig3_noise_histograms,
    fig5_flavors,
    fig6_interaction,
    fig8_decay_rate,
    fig9_elimination,
)
from repro.experiments.base import ExperimentResult

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "experiment_descriptions",
    "run_experiment",
]

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1_stream_scaling.run,
    "fig2": fig2_lbm_timeline.run,
    "fig3": fig3_noise_histograms.run,
    "fig5": fig5_flavors.run,
    "fig6": fig6_interaction.run,
    "eq2": eq2_speed_model.run,
    "fig8": fig8_decay_rate.run,
    "fig9": fig9_elimination.run,
    # Extensions: the paper's Sec. VII future-work directions.
    "ext_campaign": ext_campaign.run,
    "ext_collectives": ext_collectives.run,
    "ext_hybrid": ext_hybrid.run,
    "ext_membound": ext_membound.run,
}


def experiment_descriptions() -> "dict[str, str]":
    """One-line description per experiment id (driver-module docstrings).

    Feeds ``repro-experiment list``; insertion order follows the registry.
    """
    out: dict[str, str] = {}
    for name, driver in EXPERIMENTS.items():
        doc = inspect.getdoc(inspect.getmodule(driver)) or ""
        out[name] = doc.splitlines()[0].strip() if doc else ""
    return out


def run_experiment(name: str, fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Run one experiment driver by id ("fig1", "eq2", "ext_campaign", ...)."""
    key = name.strip().lower()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[key](fast=fast, seed=seed)
