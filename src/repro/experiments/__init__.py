"""Evaluation harness: one module per paper section, shared scenario runner.

Every table and sweep is one :class:`~repro.experiments.grid.Experiment`
declaration -- workload, arms, groups, columns, paper numbers -- that
``configs()`` expands, ``run()`` executes and ``render()`` prints;
``run_tableN`` / ``run_dynamics`` / ``run_reliability`` are bindings of
its ``run``.  Index (see DESIGN.md for the full mapping):

===========  ====================  ==========================================
Artifact     Module                Declaration / entry point
===========  ====================  ==========================================
Table 1      :mod:`.baseline`      :data:`.baseline.TABLE1`
Table 2      :mod:`.baseline`      :data:`.baseline.TABLE2`
Table 3      :mod:`.conflict`      :data:`.conflict.TABLE3`
Table 4      :mod:`.conflict`      :data:`.conflict.TABLE4`
Figs 2/3     :mod:`.conflict`      :func:`.conflict.run_figure23`
Table 5      :mod:`.overreaction`  :data:`.overreaction.TABLE5`
Table 6      :mod:`.overreaction`  :data:`.overreaction.TABLE6`
Fig 4        :mod:`.overreaction`  :func:`.overreaction.figure4_improvements`
Table 7      :mod:`.granularity`   :data:`.granularity.TABLE7`
Table 8      :mod:`.granularity`   :data:`.granularity.TABLE8`
Dynamics     :mod:`.dynamics`      :data:`.dynamics.DYNAMICS`
Reliability  :mod:`.reliability`   :data:`.reliability.RELIABILITY`
--           :mod:`.population`    :func:`.population.run_population`
===========  ====================  ==========================================

The dynamics and reliability sweeps and the population scenario family
are extensions beyond the paper's tables (mid-flow network changes; the
FEC repair tier; 1k+ concurrent flows over a fluid background aggregate
-- see EXPERIMENTS.md).
"""

from .common import TRANSPORTS, ScenarioConfig, ScenarioResult, run_scenario
from .population import PopulationResult, run_population

__all__ = ["TRANSPORTS", "ScenarioConfig", "ScenarioResult", "run_scenario",
           "PopulationResult", "run_population"]
