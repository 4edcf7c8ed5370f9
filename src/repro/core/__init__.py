"""The paper's primary contribution: quality attributes, threshold
callbacks, metric export, and the coordination engine."""

from .attributes import (ADAPT_COND, ADAPT_FREQ, ADAPT_MARK, ADAPT_PKTSIZE,
                         ADAPT_WHEN, NET_CWND, NET_ERROR_RATIO, NET_RATE,
                         NET_RTT, RELIABILITY_TOLERANCE, AttributeService,
                         AttributeSet)
from .callbacks import CallbackRegistry, ThresholdCallback
from .coordination import LAWS, RULES, Coordinator
from .metrics_export import MetricsWindow, PeriodMetrics

__all__ = [
    "ADAPT_COND", "ADAPT_FREQ", "ADAPT_MARK", "ADAPT_PKTSIZE", "ADAPT_WHEN",
    "NET_CWND", "NET_ERROR_RATIO", "NET_RATE", "NET_RTT",
    "RELIABILITY_TOLERANCE", "AttributeService", "AttributeSet",
    "CallbackRegistry", "ThresholdCallback",
    "Coordinator", "LAWS", "RULES",
    "MetricsWindow", "PeriodMetrics",
]
