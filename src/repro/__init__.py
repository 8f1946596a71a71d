"""repro — idle-wave propagation and decay on clusters.

A production-quality reproduction of Afzal, Hager, Wellein:
*"Propagation and Decay of Injected One-Off Delays on Clusters: A Case
Study"* (IEEE CLUSTER 2019, arXiv:1905.10603).

The package has five layers:

1. :mod:`repro.sim` — a discrete-event simulator of MPI point-to-point
   message passing on hierarchical clusters (the substrate; the paper used
   two real clusters plus LogGOPSim).
2. :mod:`repro.core` — the idle-wave analysis toolkit: detection, speed
   (Eq. 2), decay (Fig. 8), interaction (Fig. 6), elimination (Fig. 9).
3. :mod:`repro.models`, :mod:`repro.cluster`, :mod:`repro.workloads` —
   analytic performance models, machine presets (Emmy/Meggie), and the
   paper's workloads (STREAM triad, LBM, vdivpd).
4. :mod:`repro.experiments` — one driver per paper figure, runnable via
   ``python -m repro`` or the ``repro-experiment`` script.
5. :mod:`repro.scenarios` — declarative scenarios: TOML/JSON specs
   compiled onto the simulator (``repro-experiment scenario run ...``),
   with sweeps executing through the campaign runtime
   (:mod:`repro.runtime`).

Quickstart::

    import repro

    cfg = repro.LockstepConfig(
        n_ranks=18, n_steps=20,
        delays=(repro.DelaySpec(rank=5, step=0, duration=4.5 * 3e-3),),
    )
    res = repro.simulate_lockstep(cfg)
    v = repro.measure_speed(res, source=5).speed
    print(f"idle wave speed: {v:.1f} ranks/s")

Every package resolves its re-exported names on first use
(:mod:`repro._lazy`), so ``import repro`` loads no simulator, analysis or
experiment module until one of its names is touched.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".sim": (
        "BimodalNoise", "CommDomain", "CommPattern", "DelaySpec", "Direction",
        "ExponentialNoise", "GammaNoise", "HockneyModel", "LockstepConfig",
        "LockstepResult", "LogGPModel", "MachineTopology", "NetworkModel",
        "NoNoise", "NoiseModel", "OpRecord", "ProcessMapping", "Program",
        "Protocol", "SaturationConfig", "SimConfig", "Trace", "TraceNoise",
        "UniformNetwork", "UniformNoise", "build_exec_times",
        "build_lockstep_program", "delays_at_local_rank", "random_delays",
        "select_protocol", "simulate", "simulate_lockstep",
        "simulate_saturation",
    ),
    ".core": (
        "DecayMeasurement", "DecayStatistics", "EliminationPoint",
        "IdlePeriod", "RunTiming", "SpeedMeasurement", "Wave", "WaveFront",
        "decay_statistics", "default_threshold", "elimination_scan",
        "excess_runtime", "find_waves", "idle_periods", "measure_decay",
        "measure_speed", "meeting_ranks", "resync_step", "runtime_spread",
        "sigma_factor", "silent_speed", "silent_speed_for",
        "superposition_defect", "wave_front",
    ),
})
__all__ = ["__version__", *__all__]
