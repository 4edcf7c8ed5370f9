"""Evaluation harness: one module per paper section, shared scenario runner.

Experiment index (see DESIGN.md for the full mapping):

========  ==========================  ==============================
Artifact  Module                      Entry point
========  ==========================  ==============================
Table 1   :mod:`.baseline`            :func:`.baseline.run_table1`
Table 2   :mod:`.baseline`            :func:`.baseline.run_table2`
Table 3   :mod:`.conflict`            :func:`.conflict.run_table3`
Table 4   :mod:`.conflict`            :func:`.conflict.run_table4`
Figs 2/3  :mod:`.conflict`            :func:`.conflict.run_figure23`
Table 5   :mod:`.overreaction`        :func:`.overreaction.run_table5`
Table 6   :mod:`.overreaction`        :func:`.overreaction.run_table6`
Fig 4     :mod:`.overreaction`        :func:`.overreaction.figure4_improvements`
Table 7   :mod:`.granularity`         :func:`.granularity.run_table7`
Table 8   :mod:`.granularity`         :func:`.granularity.run_table8`
--        :mod:`.population`          :func:`.population.run_population`
========  ==========================  ==============================

The population scenario family is an extension beyond the paper's tables:
1k+ concurrent flows over a fluid background aggregate (see
EXPERIMENTS.md, "Scale tiers").
"""

from .common import TRANSPORTS, ScenarioConfig, ScenarioResult, run_scenario
from .population import PopulationResult, run_population

__all__ = ["TRANSPORTS", "ScenarioConfig", "ScenarioResult", "run_scenario",
           "PopulationResult", "run_population"]
