"""Analysis utilities shared by the experiments: histograms, statistics,
Fourier spectra of desync patterns, and timeline extraction."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".desync": ("desync_onset", "overlap_efficiency", "skew_spread"),
    ".fourier": ("SkewSpectrum", "dominant_wavelength", "skew_profile",
                 "skew_spectrum"),
    ".histogram": ("NoiseHistogram", "collect_noise_samples"),
    ".statistics": ("RunStatistics", "summarize", "sweep_statistics"),
    ".timeline": ("IntervalKind", "TimelineInterval", "full_timeline",
                  "rank_timeline", "snapshot_positions"),
})
