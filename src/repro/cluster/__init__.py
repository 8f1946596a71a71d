"""Cluster descriptions: the paper's testbeds as calibrated machine specs."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".machine": ("CpuSpec", "MachineSpec"),
    ".presets": ("EMMY", "MACHINES", "MEGGIE", "SIMULATED", "get_machine",
                 "noise_for_smt"),
})
