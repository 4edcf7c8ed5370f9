"""Unit tests for the IQ-RUDP coordination engine."""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.attributes import (ADAPT_COND, ADAPT_FEC, ADAPT_FREQ,
                                   ADAPT_MARK, ADAPT_PKTSIZE, ADAPT_WHEN,
                                   AttributeSet)
from repro.core.coordination import LAWS, Coordinator
from repro.core.metrics_export import PeriodMetrics
from repro.obs.bus import NULL_BUS, TraceBus
from repro.obs.events import ATTR_RECEIVED, COORD_ACTION
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import coordination_counts
from repro.obs.sinks import RingBufferSink
from repro.obs.spans import SpanRecorder
from repro.sim.engine import Simulator
from repro.transport.fec import FecConfig, FecState
from repro.transport.lda import LdaCC


class FakeSender:
    """Just enough sender surface for the coordinator."""

    def __init__(self, *, cwnd=20.0, frame_size=700, error_ratio=0.0):
        self.sim = Simulator()
        self.cc = LdaCC(initial_cwnd=cwnd, initial_ssthresh=4)
        self.mss = 1400
        self.last_frame_size = frame_size
        self.discard_unmarked = False
        self._eratio = error_ratio

    def current_error_ratio(self):
        return self._eratio


def bind(coord, **kw):
    snd = FakeSender(**kw)
    snd.coordinator = coord
    coord.bind(snd)
    return snd


class TestEmptyLaw:
    def test_ignores_everything(self):
        coord = Coordinator("rudp")
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.5,
                                               ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == 20.0
        assert not snd.discard_unmarked


class TestMarking:
    def test_positive_unmark_probability_enables_discard(self):
        coord = Coordinator("iq")
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.4}))
        assert snd.discard_unmarked
        assert coord.count("discard", changed=True) == 1

    def test_zero_probability_disables_discard(self):
        coord = Coordinator("iq")
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.4}))
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.0}))
        assert not snd.discard_unmarked
        assert coord.count("discard", changed=True) == 2

    def test_repeated_same_state_not_counted_as_switch(self):
        coord = Coordinator("iq")
        bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.4}))
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.3}))
        assert coord.count("discard", changed=True) == 1

    def test_ablation_switch(self):
        coord = Coordinator("iq_nodiscard")
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.4}))
        assert not snd.discard_unmarked


class TestResolution:
    def test_reinflates_window_for_sub_mss_frames(self):
        coord = Coordinator("iq")
        snd = bind(coord, cwnd=20.0, frame_size=700)
        coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == pytest.approx(40.0)
        assert coord.count("window_rescale") == 1

    def test_no_reinflation_for_large_frames(self):
        """Paper: only "if the current application frame is smaller than
        the maximum RUDP segment size"."""
        coord = Coordinator("iq")
        snd = bind(coord, cwnd=20.0, frame_size=2800)
        coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == 20.0

    def test_size_increase_deflates(self):
        coord = Coordinator("iq")
        snd = bind(coord, cwnd=22.0, frame_size=770)
        coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: -0.10}))
        assert snd.cc.cwnd == pytest.approx(20.0)

    def test_rate_chg_of_one_rejected(self):
        coord = Coordinator("iq")
        bind(coord)
        with pytest.raises(ValueError):
            coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 1.0}))

    def test_ablation_switch(self):
        coord = Coordinator("iq_noreinflate")
        snd = bind(coord)
        coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == 20.0


class TestAdaptCond:
    def test_drift_correction_applies_eq1(self):
        """w <- w * 1/(1-rate_chg) * (1-e_new)/(1-e_old)."""
        coord = Coordinator("iq")
        snd = bind(coord, cwnd=20.0, frame_size=700, error_ratio=0.2)
        attrs = AttributeSet({ADAPT_PKTSIZE: 0.5,
                              ADAPT_COND: {"error_ratio": 0.1}})
        coord.on_send_attrs(attrs)
        expected = 20.0 * (1 / 0.5) * (0.8 / 0.9)
        assert snd.cc.cwnd == pytest.approx(expected)
        assert coord.count("window_rescale", cond=True) == 1

    def test_without_cond_attribute_no_correction(self):
        coord = Coordinator("iq")
        snd = bind(coord, cwnd=20.0, frame_size=700, error_ratio=0.2)
        coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == pytest.approx(40.0)
        assert coord.count("window_rescale", cond=True) == 0

    def test_nocond_law_ignores_cond(self):
        coord = Coordinator("iq_nocond")
        snd = bind(coord, cwnd=20.0, frame_size=700, error_ratio=0.2)
        attrs = AttributeSet({ADAPT_PKTSIZE: 0.5,
                              ADAPT_COND: {"error_ratio": 0.1}})
        coord.on_send_attrs(attrs)
        assert snd.cc.cwnd == pytest.approx(40.0)

    def test_degenerate_eold_guarded(self):
        coord = Coordinator("iq")
        snd = bind(coord, cwnd=20.0, frame_size=700)
        attrs = AttributeSet({ADAPT_PKTSIZE: 0.5,
                              ADAPT_COND: {"error_ratio": 1.0}})
        coord.on_send_attrs(attrs)  # must not divide by zero
        assert snd.cc.cwnd == pytest.approx(40.0)


class TestWhenAndFreq:
    def test_pending_defers_everything(self):
        coord = Coordinator("iq")
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_WHEN: "pending",
                                               ADAPT_PKTSIZE: 0.5}))
        assert snd.cc.cwnd == 20.0
        assert coord.count("pending") == 1

    def test_frequency_adaptation_never_rescales(self):
        """Paper: "for a frequency adaptation, IQ-RUDP does not have to
        increase the window size"."""
        coord = Coordinator("iq")
        snd = bind(coord)
        coord.on_callback_result(AttributeSet({ADAPT_FREQ: 0.5}))
        assert snd.cc.cwnd == 20.0
        assert coord.count("freq_no_window_change") == 1

    def test_unbound_coordinator_raises(self):
        coord = Coordinator("iq")
        with pytest.raises(RuntimeError):
            coord.on_callback_result(AttributeSet({ADAPT_MARK: 0.4}))


class Coder:
    """The sender's ``fec_tx`` as the coordinator sees it: the state."""

    def __init__(self):
        self.state = FecState(FecConfig(k=8, r=1, r_max=3, adaptive=True))


#: Every action the law can report, in the order ``drive`` fires them
#: (``fec_redundancy`` twice: attribute-driven, then period-driven).
ACTIONS = ["pending", "discard", "freq_no_window_change", "fec_redundancy",
           "window_rescale", "rescale_skipped_large_frame", "fec_boost",
           "stall_degrade", "fec_relax", "stall_recover", "fec_redundancy",
           "fec_unavailable"]


def drive(*, traced, law="iq", bus=True):
    """Fire all eleven actions (those ``law`` allows) on a sender whose
    bus carries the ring and (when ``traced``) a sink; with ``bus=False``
    the sender has none.  As in ``WindowedSender.__init__``, the
    coordinator is bound before the sender has its bus.  Returns the
    sender's bus, the sink and the coordinator."""
    coord = Coordinator(law)
    snd = bind(coord, frame_size=700)
    sim = snd.sim
    sink = RingBufferSink()
    snd.flow_id = 7
    snd.MIN_PERIOD_SAMPLES = 8
    snd.fec_tx = Coder()
    if bus:
        snd.trace = TraceBus(sim, [sink] if traced else [],
                             ring=FlightRecorder(capacity=64))
    coord.on_callback_result(AttributeSet({ADAPT_WHEN: "pending"}))
    coord.on_callback_result(AttributeSet({
        ADAPT_MARK: 0.4, ADAPT_FREQ: 0.5, ADAPT_FEC: 2, ADAPT_PKTSIZE: 0.5,
        ADAPT_COND: {"error_ratio": 0.2}}))
    snd.last_frame_size = 2800
    coord.on_send_attrs(AttributeSet({ADAPT_PKTSIZE: 0.5}))
    sim._now = 1.0
    coord.on_stall(1.0)
    coord.on_resume(1.0)
    snd.fec_tx.state.recovered += 1
    coord.on_period(PeriodMetrics(1.0, 20, 0, 0, 0.5, 0.03, 10.0))
    del snd.fec_tx
    coord.on_send_attrs(AttributeSet({ADAPT_FEC: 2}))
    return getattr(snd, "trace", NULL_BUS), sink, coord


def lineage(coord):
    """The lineage's copy of ``coord``'s record."""
    conn = SimpleNamespace(sender=coord.sender, receiver=SimpleNamespace())
    spans = SpanRecorder(coord.sender.sim)
    spans.watch_flow(conn)
    return spans.finalize()


def described(records, *own):
    """``(action, what the record says about it)`` per record, without
    the keys that are the surface's own."""
    drop = {"action", "kind", *own}
    return [(r.get("action", r.get("kind")),
             {k: v for k, v in r.items() if k not in drop}) for r in records]


#: The keys a ring record adds to what the decision record says.
RING_KEYS = ("id", "t", "layer", "event", "flow", "attr_seq")


class TestReporting:
    @pytest.mark.parametrize("traced", [True, False])
    def test_each_action_lands_once_on_every_surface_with_equal_fields(
            self, traced):
        bus, sink, coord = drive(traced=traced)
        ring = bus.ring.dump()["events"]
        noted = described([e for e in ring if e["event"] == COORD_ACTION],
                          *RING_KEYS)
        assert [name for name, _ in noted] == ACTIONS
        assert len(set(ACTIONS)) == 11
        assert described(coord.actions, "t", "episode") == noted
        assert [a["t"] for a in coord.actions] == [
            e["t"] for e in ring if e["event"] == COORD_ACTION]
        spans = lineage(coord)
        assert spans["actions"] == coord.actions
        assert spans["episodes"] == coord.exchanges
        # A record is written down once: the ring's copy *is* the trace's.
        if traced:
            events = [ev.as_obj() for ev in sink.events]
            for ev, rec in zip(events, ring, strict=True):
                del ev["seq"], rec["id"]
            assert events == ring
        else:
            assert bus.events_emitted == 0

    @pytest.mark.parametrize("traced", [True, False])
    def test_actions_pair_with_the_exchange_that_caused_them(self, traced):
        bus, sink, coord = drive(traced=traced)
        ring = bus.ring.dump()["events"]
        assert len(coord.exchanges) == 4 == sum(
            e["event"] == ATTR_RECEIVED for e in ring)
        assert [ex["id"] for ex in coord.exchanges] == [0, 1, 2, 3]
        assert [ex["attrs"] for ex in coord.exchanges] == [
            e["attrs"] for e in ring if e["event"] == ATTR_RECEIVED]
        paired = [a["episode"] for a in coord.actions]
        assert paired == [0, 1, 1, 1, 1, 2, None, None, None, None, None, 3]
        # The trace pairs by value; its value is -1 when nothing numbers
        # the exchange.
        seqs = [e["attr_seq"] for e in ring if "attr_seq" in e]
        if traced:
            by_seq = [ev.seq for ev in sink.events
                      if ev.etype == ATTR_RECEIVED]
            assert seqs == [by_seq[ep] for ep in paired if ep is not None]
        else:
            assert set(seqs) == {-1}

    def test_the_record_needs_no_bus(self):
        """A sender without a bus still gets the record, equal to the one
        written beside a ring and a sink."""
        bus, _, coord = drive(traced=False, bus=False)
        _, _, reported = drive(traced=True)
        assert bus is NULL_BUS
        assert coord.exchanges == reported.exchanges
        assert coord.actions == reported.actions

    def test_attribute_driven_fec_change_is_annotated(self):
        """An ``ADAPT_FEC`` exchange moves the coding rate like the period
        controller does, and is recorded like it, on the series' clock."""
        coord = drive(traced=False)[2]
        fec = [a for a in coord.actions if a["action"] == "fec_redundancy"]
        assert [("requested" in a, a["t"], a["r_before"], a["r_after"])
                for a in fec] == [(True, 0.0, 1, 2), (False, 1.0, 2, 3)]
        assert coordination_counts(coord)["coord_fec_adaptations"] == 2


#: The rule that owns each action (``None``: every non-empty law reports
#: it).  Written out here, not read from ``RULES``, so a row that moves an
#: action to the wrong rule fails.
OWNER = {"pending": None, "discard": "discard",
         "freq_no_window_change": "freq", "fec_redundancy": "fec",
         "window_rescale": "reinflate",
         "rescale_skipped_large_frame": "reinflate", "fec_boost": "fec",
         "stall_degrade": "discard", "fec_relax": "fec",
         "stall_recover": "discard", "fec_unavailable": "fec"}


class TestLawTable:
    @staticmethod
    def emitted(law):
        bus, _, _ = drive(traced=False, law=law)
        return [e for e in bus.ring.dump()["events"]
                if e["event"] == COORD_ACTION]

    @pytest.mark.parametrize("law", list(LAWS))
    def test_each_row_emits_exactly_what_its_rules_allow(self, law):
        rules = LAWS[law]
        want = [a for a in ACTIONS
                if rules and (OWNER[a] is None or OWNER[a] in rules)]
        assert [e["action"] for e in self.emitted(law)] == want

    def test_rudp_reports_nothing_not_even_the_exchange(self):
        bus, sink, coord = drive(traced=True, law="rudp")
        assert bus.ring.dump()["events"] == []
        assert sink.events == []
        assert coord.exchanges == [] and coord.actions == []

    def test_nodiscard_still_boosts_fec_around_a_stall(self):
        names = [e["action"] for e in self.emitted("iq_nodiscard")]
        assert {"fec_boost", "fec_relax"} <= set(names)
        assert not {"discard", "stall_degrade", "stall_recover"} & set(names)

    def test_noreinflate_never_rescales(self):
        names = [e["action"] for e in self.emitted("iq_noreinflate")]
        assert "window_rescale" not in names
        assert "rescale_skipped_large_frame" not in names

    def test_nocond_rescales_without_drift(self):
        def drift(law):
            [rescale] = [e for e in self.emitted(law)
                         if e["action"] == "window_rescale"]
            return rescale["drift"]
        assert drift("iq_nocond") == 1.0
        assert drift("iq") == pytest.approx(1 / 0.8)

    @pytest.mark.parametrize("law", ["IQ", "iq_nofec", "tcp", ""])
    def test_unknown_law_is_refused_at_construction(self, law):
        with pytest.raises(ValueError, match="unknown coordination law"):
            Coordinator(law)


# -- The coordination identities, read from the record -----------------------
#: An error ratio, often one of a few shared values: a sender's ratio then
#: often equals the one ``ADAPT_COND`` carried, so Eq. 1 applies a drift
#: of exactly 1.0.
_eratio = st.one_of(st.sampled_from([0.0, 0.25]), st.floats(0.0, 0.99))

#: One step a sender puts the coordinator through: an attribute exchange
#: (with the sender state it meets) or a transport-initiated event.
_exchange = st.fixed_dictionaries({
    "cwnd": st.floats(2.0, 2000.0),
    "frame_size": st.integers(1, 3000),
    "error_ratio": _eratio,
    "attrs": st.fixed_dictionaries({}, optional={
        ADAPT_MARK: st.floats(0.0, 1.0),
        ADAPT_FREQ: st.floats(-0.5, 0.9),
        ADAPT_FEC: st.integers(0, 5),
        ADAPT_PKTSIZE: st.floats(-1.0, 0.95),
        ADAPT_COND: st.fixed_dictionaries(
            {"error_ratio": st.one_of(_eratio, st.just(1.0))}),
        ADAPT_WHEN: st.sampled_from(["now", "pending", "never"]),
    }),
})
_step = st.one_of(_exchange, st.sampled_from(["stall", "resume", "period"]))


class TestIdentities:
    """What each action says follows from the exchange that caused it and
    the state it met, and the ``obs_coord_*`` counters are counts over the
    record."""

    @given(law=st.sampled_from(list(LAWS)), fec=st.booleans(),
           steps=st.lists(_step, max_size=12))
    @example(law="iq", fec=False, steps=[{
        "cwnd": 20.0, "frame_size": 700, "error_ratio": 0.25,
        "attrs": {ADAPT_PKTSIZE: 0.5, ADAPT_COND: {"error_ratio": 0.25}}}])
    @settings(max_examples=150, deadline=None)
    def test_the_record_obeys_the_coordination_identities(self, law, fec,
                                                          steps):
        coord = Coordinator(law)
        snd = bind(coord)
        snd.flow_id = 1
        snd.MIN_PERIOD_SAMPLES = 8
        if fec:
            snd.fec_tx = Coder()
        for step in steps:
            taken = len(coord.actions)
            if step == "stall":
                coord.on_stall(snd.sim._now)
            elif step == "resume":
                coord.on_resume(snd.sim._now)
            elif step == "period":
                if fec:
                    snd.fec_tx.state.recovered += 1
                coord.on_period(PeriodMetrics(0.0, 20, 1, 0, 0.5, 0.03, 10.0))
            else:
                self.exchange(coord, snd, step, taken)
                continue
            assert all(a["episode"] is None
                       for a in coord.actions[taken:])
            snd.sim._now += 0.5

        def count(action, **where):
            return sum(a["action"] == action
                       and all(a[k] == v for k, v in where.items())
                       for a in coord.actions)

        fec_moves = sum(a["action"] == "fec_redundancy"
                        and a["r_after"] != a["r_before"]
                        for a in coord.actions)
        assert coordination_counts(coord) == {
            "coord_window_rescales": count("window_rescale"),
            "coord_discard_switches": count("discard", changed=True),
            "coord_pending": count("pending"),
            "coord_cond_corrections": count("window_rescale", cond=True),
            "coord_freq_adaptations": count("freq_no_window_change"),
            "coord_fec_adaptations": fec_moves,
            "coord_fec_boosts": count("fec_boost")}

    @staticmethod
    def exchange(coord, snd, step, taken):
        """One attribute exchange; check what it recorded."""
        attrs = AttributeSet(step["attrs"])
        snd.cc.cwnd = step["cwnd"]
        snd.last_frame_size = step["frame_size"]
        snd._eratio = step["error_ratio"]
        coord.on_send_attrs(attrs)
        rules = LAWS[coord.law]
        if not rules:
            assert coord.exchanges == [] and coord.actions == []
            return
        episode = len(coord.exchanges) - 1
        assert coord.exchanges[episode] == {
            "id": episode, "t": snd.sim._now, "attrs": attrs.as_dict()}
        new = coord.actions[taken:]
        assert all(a["episode"] == episode for a in new)
        for act in new:
            if act["action"] != "window_rescale":
                continue
            rate_chg = attrs[ADAPT_PKTSIZE]
            assert act["rate_chg"] == rate_chg
            assert act["base_factor"] == 1.0 / (1.0 - rate_chg)
            cond = attrs.get(ADAPT_COND)
            applied = (cond is not None and "cond" in rules
                       and cond["error_ratio"] < 1.0)
            assert act["cond"] is applied
            if applied:
                assert act["drift"] == ((1.0 - step["error_ratio"])
                                        / (1.0 - cond["error_ratio"]))
            else:
                assert act["drift"] == 1.0
            assert act["factor"] == act["base_factor"] * act["drift"]
            assert act["cwnd_before"] == step["cwnd"]
            clamped = min(max(act["factor"], 0.25), 4.0)
            assert act["cwnd_after"] == min(
                max(step["cwnd"] * clamped, snd.cc.min_cwnd),
                snd.cc.max_cwnd)

