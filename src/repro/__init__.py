"""repro -- reproduction of IQ-RUDP (He & Schwan, HPDC 2002).

Coordinating application adaptation with network transport: a reliable-UDP
transport (RUDP) whose IQ extension exchanges *quality attributes* with the
application so that transport- and application-level adaptations reinforce
instead of fighting each other.

Layering (bottom-up):

* :mod:`repro.sim` -- deterministic discrete-event network simulator
  (the Emulab testbed substitute).
* :mod:`repro.transport` -- TCP (Reno) baseline, RUDP, IQ-RUDP, UDP.
* :mod:`repro.core` -- quality attributes, callbacks, metric export, and
  the coordination engine (the paper's contribution).
* :mod:`repro.middleware` -- IQ-ECho event channels, adaptive application
  sources, delivery metrics.
* :mod:`repro.traffic` -- MBone trace synthesis and cross-traffic sources.
* :mod:`repro.experiments` / :mod:`repro.analysis` -- the evaluation
  harness regenerating every table and figure.
* :mod:`repro.runner` -- resilient process-pool batch execution of
  independent scenarios (crash isolation, timeouts, retries) with a
  persistent, code-version-salted results cache.
* :mod:`repro.invariants` -- runtime correctness checks (conservation,
  monotonicity, bounds) armed per scenario; :mod:`repro.fuzz` drives them
  over seeded random configs with differential oracles (``repro fuzz``).

Quickstart (the stable public surface is :mod:`repro.api`)::

    from repro.api import Scenario, run
    from repro.middleware.adaptation import ResolutionAdaptation

    res = run(Scenario(
        transport="iq", workload="greedy", cbr_bps=16e6,
        adaptation=ResolutionAdaptation))
    print(res.summary)
"""

from . import analysis, api, core, middleware, sim, traffic, transport
from .api import (BatchExecutionError, FailedResult, InvariantViolation,
                  Scenario, load_campaign, load_result, run, run_campaign,
                  sweep)
from .campaign import Campaign

__version__ = "1.0.0"

__all__ = ["analysis", "api", "core", "middleware", "sim", "traffic",
           "transport", "Scenario", "run", "sweep", "load_result",
           "FailedResult", "BatchExecutionError", "InvariantViolation",
           "Campaign", "run_campaign", "load_campaign",
           "__version__"]
