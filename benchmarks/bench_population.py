"""Population-scale wall-clock budget: 1,000 concurrent flows under 60 s.

Population studies (ROADMAP: thousands of concurrent adaptive sessions)
have to run on a laptop: every foreground flow is a real windowed transport
on per-packet single-event links (:mod:`repro.sim.link`), the background
aggregate is a tick-coupled :class:`~repro.sim.fluid.FluidSource`.  This
bench runs the default
:func:`~repro.experiments.population.run_population` scenario -- 1,000
flows, mixed iq/rudp/tcp, 50 Mbps fluid cross traffic on a 200 Mbps
bottleneck -- and gates:

* the wall-clock budget, ``wall_s`` < 60 on a 1-core host;
* scenario sanity: every flow completes, and the summary is a pure
  function of the seed (two runs, identical summaries).

It prints the wall and the rates; ``population_1k`` in ``benchmarks/e2e/``
is the same scenario per packet, scaled to a reference host.
"""

import time

from repro.experiments.population import run_population

#: Hard wall-clock budget for the default 1,000-flow run (seconds).
WALL_BUDGET_S = 60.0


def bench_population_scale(benchmark):
    """1,000-flow population run: wall budget + determinism."""
    t0 = time.perf_counter()
    res = run_population()
    wall_s = time.perf_counter() - t0

    s = res.summary
    assert s["completion_ratio"] == 1.0, (
        f"only {s['completed']:.0f}/{s['flows']:.0f} flows completed "
        f"within the {s['duration_s']:.0f}s time cap")
    assert wall_s < WALL_BUDGET_S, (
        f"1k-flow population took {wall_s:.1f}s wall "
        f"(budget {WALL_BUDGET_S:.0f}s)")

    # Determinism: the summary must be a pure function of the arguments.
    res2 = run_population()
    assert res2.summary == s, "population summary is not deterministic"

    print(f"\npopulation: {s['flows']:.0f} flows in {wall_s:.2f} s wall "
          f"(budget {WALL_BUDGET_S:.0f}), {s['flows'] / wall_s:.0f} flows/s, "
          f"{s['datagrams'] / wall_s:,.0f} datagrams/s, "
          f"{s['events']:.0f} events, fairness {s['fairness']:.4f}")
    benchmark.pedantic(run_population, rounds=1, iterations=1)
