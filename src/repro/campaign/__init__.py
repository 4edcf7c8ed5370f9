"""Declarative experiment campaigns with work-stealing scale-out.

The layer every future study runs through (ROADMAP item 1): a campaign is
a scenario template crossed with named parameter axes and seed replicates
(:mod:`.spec`, a TOML file or its mapping), run through its campaign
directory by N worker processes/hosts coordinating solely through it
(:mod:`.exec`, :mod:`.store`), and reduced to per-axis summary stats with
failure rollups (:mod:`.aggregate`); :mod:`repro.api` re-exports them::

    from repro import Campaign, run_campaign, load_campaign

    run = run_campaign("spec.toml", dir="camp/", workers=4)
    print(run.report().render())
"""

from .aggregate import (DEFAULT_METRICS, Aggregator, CampaignReport,
                        aggregate)
from .exec import CampaignRun, run_campaign, run_rows, worker_loop
from .spec import Campaign, CampaignCell, load_campaign
from .store import CampaignStore

__all__ = ["Aggregator", "Campaign", "CampaignCell", "CampaignReport",
           "CampaignRun", "CampaignStore", "DEFAULT_METRICS", "aggregate",
           "load_campaign", "run_campaign", "run_rows", "worker_loop"]
