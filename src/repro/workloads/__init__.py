"""Workloads: the paper's benchmarks as runnable kernels + traffic models."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".divide": ("DivideWorkload", "measure_host_noise"),
    ".lbm": ("D3Q19", "LbmKernel", "LbmWorkload", "lbm_saturation_config"),
    ".stream": ("TriadWorkload", "triad_kernel", "triad_saturation_config"),
    ".synthetic": ("SyntheticWorkload", "constant_times", "imbalanced_times",
                   "ramp_times"),
})
