"""Terminal visualization: ASCII timelines, histograms, and text tables."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".ascii_histogram": ("render_histogram",),
    ".ascii_timeline": ("render_idle_heatmap", "render_timeline"),
    ".tables": ("format_series", "format_table"),
})
