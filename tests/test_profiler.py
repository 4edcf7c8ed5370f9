"""Self-profiler tests: deterministic event counts, no perturbation of
results, mutual exclusion with armed invariants, and rendering."""

import pytest

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.obs.profiler import (EngineProfile, ProfiledSimulator,
                                profile_scenario, render_profile)
from repro.sim.engine import Simulator, callback_label


def _cfg(**kw):
    defaults = dict(transport="iq", workload="greedy", n_frames=300,
                    base_frame_size=700, cbr_bps=17.5e6, metric_period=0.1,
                    time_cap=60.0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestCallbackLabel:
    def test_bound_method_qualname(self):
        sim = Simulator()
        assert callback_label(sim.pending) == "Simulator.pending"

    def test_callable_object_type_name(self):
        class Ticker:
            def __call__(self):
                pass
        assert callback_label(Ticker()) == "Ticker"


class TestProfiledSimulator:
    def test_same_event_sequence_as_stock(self):
        fired = []
        for sim_cls in (Simulator, ProfiledSimulator):
            sim = sim_cls()
            order = []
            sim.schedule(1.0, order.append, "a")
            sim.schedule(0.5, order.append, "b")
            ev = sim.schedule(0.7, order.append, "dead")
            ev.cancel()
            sim.schedule(1.0, order.append, "c", priority=-1)
            sim.run()
            fired.append((order, sim.now))
        assert fired[0] == fired[1]

    def test_counts_and_wall_recorded(self):
        sim = ProfiledSimulator()
        sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, sim.pending)
        sim.run()
        prof = sim.profile
        assert prof.events_fired == 2
        assert sum(prof.event_counts.values()) == 2
        assert "Simulator.pending" in prof.event_counts
        assert all(w >= 0.0 for w in prof.event_wall_s.values())

    def test_run_until_leaves_clock_at_until(self):
        sim = ProfiledSimulator()
        sim.schedule(0.25, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0


class TestProfileScenario:
    def test_counts_deterministic_and_result_unperturbed(self):
        plain = run_scenario(_cfg())
        res1, prof1 = profile_scenario(_cfg())
        res2, prof2 = profile_scenario(_cfg())
        assert prof1.counts() == prof2.counts()
        assert prof1.events_fired == prof2.events_fired
        assert res1.summary == plain.summary == res2.summary

    def test_phase_timers_recorded(self):
        _, prof = profile_scenario(_cfg(n_frames=50))
        assert set(prof.phase_s) == {"setup", "run", "collect"}
        assert all(v >= 0.0 for v in prof.phase_s.values())

    def test_mutually_exclusive_with_armed_invariants(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_scenario(_cfg(invariants=True), profile=EngineProfile())

    def test_render_marks_wall_columns_advisory(self):
        _, prof = profile_scenario(_cfg(n_frames=50))
        text = render_profile(prof, top=5)
        assert "advisory" in text
        assert "config-deterministic" in text
        # What fires on a plain path: arrivals at routers and hosts.  No
        # link completion is among them since transit is planned.
        assert "Router.receive" in text and "Host.receive" in text
        assert "Link._tx_done" not in prof.counts()


class TestProfileCli:
    def test_profile_command_smoke(self, capsys):
        from repro.cli import main
        rc = main(["profile", "--frames", "50", "--frame-size", "700",
                   "--cbr", "17.5e6", "--time-cap", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Engine profile:" in out
        assert "Phases" in out

    def test_profile_command_json(self, capsys):
        import json
        from repro.cli import main
        rc = main(["profile", "--frames", "50", "--frame-size", "700",
                   "--time-cap", "30", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["profile"]["events_fired"] > 0
        assert "event_counts" in data["profile"]
        assert "summary" in data
