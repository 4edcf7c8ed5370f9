"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.5]
    assert sim.now == 1.5


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == list(range(10))


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "late", priority=1)
    sim.schedule(1.0, seen.append, "early", priority=-1)
    sim.run()
    assert seen == ["early", "late"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_scheduling_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_run_until_stops_and_leaves_clock_at_until():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.schedule(10.0, seen.append, 2)
    fired = sim.run(until=5.0)
    assert fired == 1 and seen == [1]
    assert sim.now == 5.0
    sim.run()
    assert seen == [1, 2]


def test_run_until_composes():
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0):
        sim.at(t, seen.append, t)
    sim.run(until=1.5)
    sim.run(until=2.5)
    sim.run(until=3.5)
    assert seen == [1.0, 2.0, 3.0]


def test_cancel_prevents_firing():
    sim = Simulator()
    seen = []
    ev = sim.schedule(1.0, seen.append, "x")
    ev.cancel()
    sim.run()
    assert seen == [] and not ev.alive


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_event_not_alive_after_firing():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    assert ev.alive
    sim.run()
    assert not ev.alive


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(1.0, seen.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["second"] and sim.now == 2.0


def test_step_fires_one_event():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.schedule(2.0, seen.append, 2)
    assert sim.step() and seen == [1]
    assert sim.step() and seen == [1, 2]
    assert not sim.step()


def test_stop_halts_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
    sim.schedule(2.0, seen.append, 2)
    sim.run()
    assert seen == [1]
    sim.run()
    assert seen == [1, 2]


def test_run_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_max_events_bound():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(float(i + 1), seen.append, i)
    assert sim.run(max_events=3) == 3
    assert seen == [0, 1, 2]


def test_pending_and_peek():
    sim = Simulator()
    assert sim.pending() == 0
    ev = sim.schedule(2.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    assert sim.pending() == 2
    ev.cancel()
    assert sim.pending() == 1
    assert sim.run() == 1 and sim.now == 1.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_events_always_fire_in_time_order(delays):
    """Property: regardless of scheduling order, callbacks observe a
    non-decreasing clock."""
    sim = Simulator()
    observed = []
    for d in delays:
        sim.schedule(d, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.integers(min_value=-3, max_value=3)),
                min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_priority_respected_within_instant(items):
    sim = Simulator()
    fired = []
    for t, prio in items:
        sim.at(t, fired.append, (t, prio), priority=prio)
    sim.run()
    # Within each distinct time, priorities must be non-decreasing.
    for a, b in zip(fired, fired[1:]):
        if a[0] == b[0]:
            assert a[1] <= b[1] or items.index(a) < items.index(b) \
                if a[1] == b[1] else a[1] <= b[1]


# ----------------------------------------------------------------------
# Lazy-deletion compaction and O(1) pending accounting
# ----------------------------------------------------------------------
def test_cancel_churn_keeps_heap_bounded():
    """100k schedule+cancel cycles (the retransmission-timer pattern) must
    not accumulate dead entries: the heap stays near the live count."""
    sim = Simulator()
    peak = 0
    for _ in range(100_000):
        ev = sim.schedule(10.0, lambda: None)
        ev.cancel()
        peak = max(peak, len(sim._heap))
    assert peak < 1024
    assert sim.pending() == 0


def test_survivors_fire_in_order_after_mass_cancel():
    sim = Simulator()
    fired = []
    events = [sim.schedule(float(i + 1), fired.append, i)
              for i in range(2000)]
    # Cancel everything except every 7th event, forcing compactions.
    survivors = []
    for i, ev in enumerate(events):
        if i % 7 == 0:
            survivors.append(i)
        else:
            ev.cancel()
    assert len(sim._heap) < 2000  # compaction actually ran
    sim.run()
    assert fired == survivors


def test_pending_counter_tracks_schedule_cancel_fire():
    sim = Simulator()
    evs = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending() == 10
    evs[0].cancel()
    evs[3].cancel()
    assert sim.pending() == 8
    evs[0].cancel()  # idempotent: must not double-decrement
    assert sim.pending() == 8
    sim.run(until=2.5)  # fires events at t=2 (t=1 was cancelled)
    assert sim.pending() == 7
    sim.run()
    assert sim.pending() == 0


def test_cancel_during_run_updates_pending():
    sim = Simulator()
    later = sim.schedule(5.0, lambda: None)
    sim.schedule(1.0, later.cancel)
    sim.run()
    assert sim.pending() == 0


def test_compaction_preserves_peek_and_priorities():
    sim = Simulator()
    doomed = [sim.schedule(1.0, lambda: None) for _ in range(500)]
    keep_late = sim.schedule(2.0, lambda: None, priority=1)
    keep_early = sim.schedule(2.0, lambda: None, priority=-1)
    for ev in doomed:
        ev.cancel()
    assert sim.pending() == 2
    fired = []
    sim.schedule(2.0, lambda: None)  # priority 0, scheduled last
    order = []
    keep_late.fn, keep_late.args = order.append, ("late",)
    keep_early.fn, keep_early.args = order.append, ("early",)
    sim.run()
    assert order == ["early", "late"] and sim.now == 2.0
    assert fired == []


def test_drain_empties_heap_and_counters():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    ev = sim.schedule(2.0, lambda: None)
    ev.cancel()
    sim.drain()
    assert sim.pending() == 0
    assert sim.run() == 0
