"""Idle-wave analysis — the paper's primary contribution.

Given a simulated (or, in principle, measured) run of a bulk-synchronous
message-passing program, this package detects idle waves, measures their
propagation speed against the analytic model (Eq. 2), quantifies their
decay under noise (Fig. 8), analyzes wave interaction/cancellation
(Fig. 6), and evaluates when noise eliminates the runtime impact of a delay
entirely (Fig. 9).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".decay": ("DecayMeasurement", "DecayStatistics", "decay_statistics",
               "measure_decay"),
    ".elimination": ("EliminationPoint", "elimination_scan",
                     "excess_runtime", "runtime_spread"),
    ".idle_wave": ("IdlePeriod", "WaveFront", "default_threshold",
                   "idle_periods", "wave_front"),
    ".interaction": ("Wave", "find_waves", "meeting_ranks", "resync_step",
                     "superposition_defect"),
    ".speed": ("SpeedMeasurement", "measure_speed", "sigma_factor",
               "silent_speed", "silent_speed_for"),
    ".timing": ("RunTiming",),
    ".tracking": ("WaveSnapshot", "WaveTrack", "track_wave"),
})
