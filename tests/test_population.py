"""Population scenario family (repro.experiments.population), small n.

The 1,000-flow default is the bench's job (benchmarks/bench_population.py);
tier-1 keeps a fast smoke: determinism, completion accounting, burst-tier
identity (everything but the engine's event count), and input validation.
"""

import pytest

from repro.experiments.population import (DEFAULT_MIX, PopulationResult,
                                          run_population)

_SMALL = dict(n_flows=40, frames_per_flow=10, time_cap=30.0,
              bottleneck_bps=50e6, fluid_bps=10e6, arrival_window_s=0.5)


def test_small_population_completes():
    res = run_population(**_SMALL)
    assert isinstance(res, PopulationResult)
    s = res.summary
    assert s["flows"] == 40
    assert s["completed"] == 40
    assert s["completion_ratio"] == 1.0
    assert len(res.fcts) == len(res.transports) == 40
    assert all(fct is not None and fct > 0 for fct in res.fcts)
    assert set(res.transports) <= {name for name, _ in DEFAULT_MIX}
    assert 0.0 < s["fairness"] <= 1.0
    assert s["fct_p50_s"] <= s["fct_p95_s"]
    assert s["datagrams"] == 40 * 10
    assert res.fluid is not None
    assert s["fluid_served_bytes"] > 0


def test_population_deterministic():
    assert run_population(**_SMALL).summary == run_population(**_SMALL).summary


def test_population_seed_changes_outcome():
    a = run_population(**_SMALL, seed=1)
    b = run_population(**_SMALL, seed=2)
    assert a.transports != b.transports or a.fcts != b.fcts


def test_burst_tier_identical_modulo_event_count():
    """Burst batching schedules engine events differently but must not
    move a single packet: every summary metric except ``events`` matches
    per-packet.  (Which tier fires fewer events is not a contract: since
    the per-packet link's single-event transit it is the per-packet one.)"""
    fast = run_population(**_SMALL, burst=True).summary
    slow = run_population(**_SMALL, burst=False).summary
    assert {k: v for k, v in fast.items() if k != "events"} == \
           {k: v for k, v in slow.items() if k != "events"}


def test_mix_validation():
    with pytest.raises(ValueError):
        run_population(n_flows=0)
    with pytest.raises(ValueError):
        run_population(n_flows=4, transport_mix=[("warp", 1.0)])
    with pytest.raises(ValueError):
        run_population(n_flows=4, transport_mix=[("iq", 0.0)])
