"""Population scenario family (repro.experiments.population), small n.

The 1,000-flow default is the bench's job (benchmarks/bench_population.py);
tier-1 keeps a fast smoke: determinism, completion accounting, a pinned
summary, and input validation.
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


#: ``_SMALL`` summaries (less the engine's event count, then a key and now
#: ``PopulationResult.events``), recorded at commit 6a8d8e6 with
#: its default ``burst=True`` (``BatchLink`` + ``submit_burst``), the last
#: commit that had a burst tier: the witness that removing the tier, and
#: submitting frame by frame, moved no packet.  Keys shared by both seeds
#: first, then what the seed changes.  ``bottleneck_util`` alone has moved
#: since: it counts the fluid's served bytes beside the packets' (0.09216
#: before).
_GOLDEN_COMMON = {
    "flows": 40.0, "completed": 40.0, "completion_ratio": 1.0,
    "duration_s": 1.0, "datagrams": 400.0, "retransmissions": 0.0,
    "timeouts": 0.0, "bottleneck_drops": 0.0, "bottleneck_util": 0.29016,
    "fluid_served_bytes": 1237500.0, "fluid_dropped_bytes": 0.0}
_GOLDEN = {
    1: {"fct_mean_s": 0.14307939560476465,
        "fct_p50_s": 0.15187840000000125,
        "fct_p95_s": 0.15286271687271796,
        "goodput_mean_kBps": 101.05853045733794,
        "fairness": 0.9569563873747593},
    2: {"fct_mean_s": 0.14746767758023469,
        "fct_p50_s": 0.15187840000000102,
        "fct_p95_s": 0.15247652561134617,
        "goodput_mean_kBps": 96.63924385615654,
        "fairness": 0.973745912535836},
}


@pytest.mark.parametrize("seed", sorted(_GOLDEN))
def test_summary_matches_golden_recorded_before_burst_tier_removal(seed):
    summary = run_population(**_SMALL, seed=seed).summary
    assert summary == {**_GOLDEN_COMMON, **_GOLDEN[seed]}


def test_the_engine_event_count_stands_beside_the_summary():
    """What the engine fired is a cost of the simulator: it is counted,
    but not among the simulated statistics a digest is taken of."""
    res = run_population(**_SMALL, seed=1)
    assert "events" not in res.summary
    assert isinstance(res.events, int) and res.events > 0


def test_bottleneck_util_counts_the_fluid_as_well_as_the_packets():
    """The fluid serves its bytes on the forward bottleneck: 1 237 500 B
    over 1 s on 50 Mb/s are 0.198 of it, beside the packets' 0.09216."""
    res = run_population(**_SMALL, seed=1)
    served = res.net.forward.bytes_sent + res.fluid.served_bytes
    assert res.fluid.served_bytes > 0
    assert res.summary["bottleneck_util"] == pytest.approx(
        served * 8.0 / (_SMALL["bottleneck_bps"] * res.summary["duration_s"]))


def test_mix_validation():
    with pytest.raises(ValueError):
        run_population(n_flows=0)
    with pytest.raises(ValueError):
        run_population(n_flows=4, transport_mix=[("warp", 1.0)])
    with pytest.raises(ValueError):
        run_population(n_flows=4, transport_mix=[("iq", 0.0)])
    with pytest.raises(ValueError, match="frames_per_flow"):
        run_population(n_flows=4, frames_per_flow=0)
    with pytest.raises(ValueError, match="frame_bytes"):
        run_population(n_flows=4, frame_bytes=0)
