#!/usr/bin/env python
"""Declarative campaign in ~40 lines: spec -> expansion -> fleet -> report.

A campaign is "one scenario template x named parameter axes x seed
replicates".  This demo declares a small coordinated-vs-uncoordinated
grid as a plain dict (the same shape a ``.toml`` spec file takes), runs
it through a shared campaign directory with two cells in flight, each in
a worker process, and prints the per-axis aggregate report.

Everything here scales to thousands of cells and multiple hosts: point
more ``repro campaign run`` invocations at the same directory and they
join the fleet; interrupt any of them and ``repro campaign resume``
finishes the remainder without re-executing a single finished cell.

Run:  python examples/campaign_demo.py
"""

import tempfile

from repro import load_campaign, run_campaign

SPEC = {
    "name": "demo",
    "template": {
        # Greedy bulk transfer, small enough that each cell is fast.
        "workload": "greedy",
        "n_frames": 200,
        "time_cap": 60.0,
    },
    "axes": {
        # Coordinated (iq) vs uncoordinated (rudp) vs TCP baseline...
        "transport": ["iq", "rudp", "tcp"],
        # ...under three cross-traffic loads.
        "cbr_bps": [0.0, 8e6, 16e6],
    },
    "seeds": 3,  # three replicates per grid point
    "metrics": ["throughput_kBps", "duration_s"],
}


def main() -> None:
    campaign = load_campaign(SPEC)
    print(campaign.describe())  # demo: transport[3] x cbr_bps[3] x ... cells

    with tempfile.TemporaryDirectory() as camp_dir:
        run = run_campaign(campaign, dir=camp_dir, workers=2, cache=False)

    report = run.report()
    assert run.complete and report.failed == 0
    print()
    print(report.render())


if __name__ == "__main__":
    main()
