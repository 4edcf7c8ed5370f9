"""Metric computation and result presentation."""

from .lineage import frame_accounting, render_frame_lineage, render_lineage
from .stats import flow_summary, improvement, interarrival_stats
from .tables import fmt, render_comparison, render_table
from .timeseries import ascii_chart, bin_series

__all__ = [
    "flow_summary", "improvement", "interarrival_stats",
    "fmt", "render_comparison", "render_table",
    "ascii_chart", "bin_series",
    "frame_accounting", "render_lineage", "render_frame_lineage",
]
