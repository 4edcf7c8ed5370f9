"""Runtime invariant checking (``repro.invariants``).

Cheap, read-only correctness checks armed per scenario via
``ScenarioConfig(invariants=True)`` (part of the cache key, like every
field).  Armed runs execute on a :class:`CheckedSimulator`
and carry an :class:`InvariantChecker` sweeping conservation laws,
sequence monotonicity, window bounds and delivery-log consistency every
simulated quarter second; any breach raises a structured
:class:`InvariantViolation` that the resilient runner captures as a
``FailedResult`` row instead of a dead batch.

Disarmed runs are byte-identical to the stock engine (the checks live in a
subclass, not a branch), so the feature costs nothing unless requested --
asserted by ``benchmarks/bench_obs_overhead.py``.
"""

from .checks import CHECK_PRIORITY, InvariantChecker
from .engine import CheckedSimulator
from .violation import InvariantViolation

__all__ = ["InvariantViolation", "InvariantChecker", "CheckedSimulator",
           "CHECK_PRIORITY"]
