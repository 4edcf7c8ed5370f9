"""Report tests: the coordination audit on the paper's three coordination
cases (conflict discard, over-reaction re-inflation, limited-granularity
drift correction), the same audit from a result and from its trace, plus
timeline/report rendering."""

import pytest

from repro.core.attributes import (ADAPT_COND, ADAPT_MARK, ADAPT_PKTSIZE,
                                   ADAPT_WHEN, AttributeSet)
from repro.core.coordination import Coordinator
from repro.obs.bus import TraceBus
from repro.obs.events import (ATTR_RECEIVED, COORD_ACTION, CWND_CHANGE,
                              PACKET_SEND)
from repro.obs.report import (TIMELINE_EVENTS, decision_chain,
                              load_artifact, render_artifact,
                              render_decisions, render_report,
                              render_timeline, report_json)
from repro.obs.sinks import RingBufferSink
from repro.sim.engine import Simulator
from repro.transport.lda import LdaCC


class TracedSender:
    """Minimal sender surface for the coordinator, with a live bus."""

    def __init__(self, *, cwnd=20.0, frame_size=700, error_ratio=0.0):
        self.cc = LdaCC(initial_cwnd=cwnd, initial_ssthresh=4)
        self.mss = 1400
        self.last_frame_size = frame_size
        self.discard_unmarked = False
        self.flow_id = 1
        self._eratio = error_ratio
        self.sim = Simulator()
        self.sink = RingBufferSink()
        self.trace = TraceBus(self.sim, sinks=[self.sink])

    def current_error_ratio(self):
        return self._eratio

    @property
    def events(self):
        return [ev.as_obj() for ev in self.sink.events]


def drive(snd, *attr_sets):
    coord = Coordinator("iq")
    coord.bind(snd)
    for attrs in attr_sets:
        coord.on_callback_result(attrs)
    return coord


def action_events(events, action):
    return [ev for ev in events
            if ev["event"] == COORD_ACTION and ev["action"] == action]


def trace_chain(events):
    """The decision chain of a trace's events."""
    return decision_chain(
        [ev for ev in events if ev["event"] == ATTR_RECEIVED],
        [ev for ev in events if ev["event"] == COORD_ACTION])


def assert_record_renders_like_trace(coord, events):
    """The coordinator's record and the trace pair and render alike."""
    assert render_decisions(decision_chain(coord.exchanges, coord.actions)
                            ) == render_decisions(trace_chain(events))


class TestAuditPaperCases:
    def test_conflict_marking_pairs_with_discard(self):
        """Section 3.3: an ADAPT_MARK exchange must pair with the discard
        switch it caused."""
        snd = TracedSender()
        coord = drive(snd, AttributeSet({ADAPT_MARK: 0.4}))
        events = snd.events
        (act,) = action_events(events, "discard")
        assert act["enabled"] is True and act["changed"] is True
        assert act["unmark_p"] == pytest.approx(0.4)
        chain = trace_chain(events)
        assert len(chain["pairs"]) == 1
        assert chain["unmatched_exchanges"] == []
        assert chain["unmatched_actions"] == []
        pair = chain["pairs"][0]
        assert pair["exchange"]["event"] == ATTR_RECEIVED
        assert pair["actions"][0]["episode"] == pair["exchange"]["episode"]
        assert_record_renders_like_trace(coord, events)

    def test_overreaction_reinflates_by_paper_factor(self):
        """Section 3.4: rate_chg = 0.5 with a sub-MSS frame re-inflates the
        window by exactly 1/(1-rate_chg) = 2x."""
        snd = TracedSender(cwnd=20.0, frame_size=700)
        coord = drive(snd, AttributeSet({ADAPT_PKTSIZE: 0.5}))
        (act,) = action_events(snd.events, "window_rescale")
        assert act["base_factor"] == pytest.approx(1.0 / (1.0 - 0.5))
        assert act["drift"] == pytest.approx(1.0)
        assert act["factor"] == pytest.approx(2.0)
        assert act["cwnd_after"] == pytest.approx(act["cwnd_before"] * 2.0)
        assert snd.cc.cwnd == pytest.approx(40.0)
        assert_record_renders_like_trace(coord, snd.events)

    def test_overreaction_skipped_for_large_frames(self):
        """The paper only re-inflates when the frame is smaller than the
        MSS; the audit still records why nothing changed."""
        snd = TracedSender(cwnd=20.0, frame_size=1400)
        drive(snd, AttributeSet({ADAPT_PKTSIZE: 0.5}))
        (act,) = action_events(snd.events, "rescale_skipped_large_frame")
        assert act["last_frame_size"] == 1400 and act["mss"] == 1400
        assert snd.cc.cwnd == pytest.approx(20.0)
        assert len(trace_chain(snd.events)["pairs"]) == 1

    def test_granularity_pending_then_drift_corrected_rescale(self):
        """Section 3.5: a pending adaptation followed by the executed change
        with ADAPT_COND applies the Eq. 1 drift (1-e_new)/(1-e_old)."""
        snd = TracedSender(cwnd=20.0, frame_size=700, error_ratio=0.05)
        coord = drive(
            snd,
            AttributeSet({ADAPT_WHEN: "pending"}),
            AttributeSet({ADAPT_PKTSIZE: 0.2,
                          ADAPT_COND: {"error_ratio": 0.1}}))
        events = snd.events
        assert len(action_events(events, "pending")) == 1
        (act,) = action_events(events, "window_rescale")
        drift = (1.0 - 0.05) / (1.0 - 0.1)
        assert act["drift"] == pytest.approx(drift)
        assert act["factor"] == pytest.approx(1.0 / (1.0 - 0.2) * drift)
        assert coord.count("pending") == 1
        assert coord.count("window_rescale", cond=True) == 1
        chain = trace_chain(events)
        assert len(chain["pairs"]) == 2  # both exchanges acted on
        assert chain["unmatched_actions"] == []
        assert_record_renders_like_trace(coord, events)
        text = render_decisions(chain)
        assert "ADAPT_COND={error_ratio=0.1}" in text


class TestAuditEdges:
    def test_unmatched_attr_and_action(self):
        exchanges = [{"seq": 0, "t": 0.0, "layer": "coord",
                      "event": ATTR_RECEIVED, "flow": 1, "episode": 0,
                      "attrs": {}}]
        actions = [
            {"seq": 5, "t": 0.1, "layer": "coord", "event": COORD_ACTION,
             "flow": 1, "episode": 99, "action": "discard"},
            {"seq": 6, "t": 0.2, "layer": "coord", "event": COORD_ACTION,
             "flow": 1, "episode": None, "action": "stall_degrade"}]
        chain = decision_chain(exchanges, actions)
        assert chain["pairs"] == []
        assert chain["unmatched_exchanges"] == exchanges
        assert chain["unmatched_actions"] == actions[:1]
        assert chain["spontaneous"] == actions[1:]
        text = render_decisions(chain)
        assert "(no action)" in text and "(missing exchange)" in text
        assert "(transport-initiated)" in text
        assert "1 transport-initiated" in text

    def test_pairs_within_a_flow(self):
        """Two flows each number their exchanges from 0: an action pairs
        with its own flow's exchange only."""
        exchanges = [{"t": 0.0, "flow": f, "episode": 0, "attrs": {}}
                     for f in (1, 2)]
        actions = [{"t": 0.1, "flow": 2, "episode": 0, "action": "pending"}]
        chain = decision_chain(exchanges, actions)
        assert chain["pairs"] == [{"exchange": exchanges[1],
                                   "actions": actions}]
        assert chain["unmatched_exchanges"] == exchanges[:1]

    def test_render_audit_empty(self):
        assert "no attribute exchanges" in render_decisions(
            decision_chain([], []))


class TestTimeline:
    EVENTS = [
        {"seq": 0, "t": 0.0, "layer": "transport", "event": PACKET_SEND,
         "size": 1400},
        {"seq": 1, "t": 0.1, "layer": "transport", "event": CWND_CHANGE,
         "reason": "timeout", "old": 8.0, "new": 1.0},
        {"seq": 2, "t": 0.2, "layer": "coord", "event": COORD_ACTION,
         "flow": 1, "episode": 1, "action": "pending"},
    ]

    def test_default_filter_hides_packet_firehose(self):
        text = render_timeline(self.EVENTS)
        assert PACKET_SEND not in TIMELINE_EVENTS
        assert "PACKET_SEND" not in text
        assert "CWND_CHANGE" in text and "COORD_ACTION" in text

    def test_explicit_types_and_all(self):
        only = render_timeline(self.EVENTS, types=[PACKET_SEND])
        assert "PACKET_SEND" in only and "CWND_CHANGE" not in only
        everything = render_timeline(self.EVENTS, types=())
        assert "PACKET_SEND" in everything and "CWND_CHANGE" in everything

    def test_limit_keeps_last_rows(self):
        text = render_timeline(self.EVENTS, types=(), limit=1)
        assert "COORD_ACTION" in text and "PACKET_SEND" not in text
        assert "(1/3 events shown)" in text

    def test_limit_zero_shows_no_row(self):
        text = render_timeline(self.EVENTS, types=(), limit=0)
        assert "(0/3 events shown)" in text
        assert "COORD_ACTION" not in text and "PACKET_SEND" not in text

    def trace(self):
        return {"kind": "trace", "path": "t.jsonl", "header": {},
                "runs": [{"run": "0", "cached": False, "meta": {},
                          "events": self.EVENTS}]}

    def test_json_limit_zero_keeps_no_timeline_row(self):
        (run,) = report_json(self.trace(), limit=0, types=())["runs"]
        assert run["timeline"] == [] and run["events_total"] == 3

    def test_a_negative_limit_is_refused(self):
        with pytest.raises(ValueError, match="--limit -2 is negative"):
            render_artifact(self.trace(), limit=-2)

    def test_no_matches(self):
        assert "no matching events" in render_timeline(
            self.EVENTS, types=["QUEUE_DEPTH"])


def test_render_report_end_to_end(tmp_path):
    """Full chain: congested IQ run with resolution adaptation -> trace file
    -> report with a timeline and an audit pairing every exchange."""
    from repro.experiments.common import ScenarioConfig
    from repro.middleware.adaptation import ResolutionAdaptation
    from repro.runner import run_batch

    path = tmp_path / "run.jsonl"
    cfg = ScenarioConfig(
        transport="iq", workload="greedy", n_frames=2000,
        base_frame_size=700, cbr_bps=17.5e6, vbr_mean_bps=1e6,
        metric_period=0.1,
        adaptation=lambda: ResolutionAdaptation(upper=0.05, lower=0.005),
        seed=2, time_cap=120.0)
    run_batch({"iq-run": cfg}, cache=False, trace=str(path))
    trace = load_artifact(path)
    text = render_report(trace)
    assert "== run iq-run" in text
    assert "Timeline" in text and "Coordination audit" in text
    assert "exchanges acted on" in text
    # Every recorded exchange must resolve to a transport action or be
    # explicitly listed as consumed-without-action; none may dangle.
    from repro.obs.sinks import read_trace
    _, runs = read_trace(path)
    chain = trace_chain(runs[0]["events"])
    assert chain["pairs"], "IQ run produced no attribute->action pairs"
    assert chain["unmatched_actions"] == []

    with pytest.raises(ValueError):
        render_report(trace, run="nope")


def test_report_cli(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "cli.jsonl"
    rc = main(["scenario", "--transport", "iq", "--workload", "greedy",
               "--frames", "2000", "--frame-size", "700", "--cbr", "17.5e6",
               "--vbr", "1e6", "--adaptation", "resolution", "--seed", "2",
               "--time-cap", "120", "--trace", str(path)])
    assert rc == 0
    assert path.exists()
    rc = main(["report", str(path), "--limit", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Trace report" in out and "Coordination audit" in out


def test_report_json_matches_render_selection(tmp_path):
    import json
    from repro.experiments.common import ScenarioConfig
    from repro.middleware.adaptation import ResolutionAdaptation
    from repro.obs.report import report_json
    from repro.runner import run_batch

    path = tmp_path / "rep.jsonl"
    cfg = ScenarioConfig(transport="iq", workload="greedy", n_frames=2000,
                         base_frame_size=700, cbr_bps=17.5e6,
                         vbr_mean_bps=1e6, metric_period=0.1,
                         adaptation=lambda: ResolutionAdaptation(
                             upper=0.05, lower=0.005),
                         seed=2, time_cap=120.0)
    run_batch({"a": cfg}, cache=False, trace=str(path))
    trace = load_artifact(path)
    data = report_json(trace)
    json.dumps(data)  # must be JSON-clean
    assert data["format"] == "repro-trace"
    (run,) = data["runs"]
    assert run["run"] == "a"
    assert run["events_total"] > len(run["timeline"])  # firehose filtered
    assert {"pairs", "unmatched_exchanges", "spontaneous",
            "unmatched_actions"} == set(run["audit"])
    # limit keeps the tail, types widens the filter
    limited = report_json(trace, limit=3)
    assert len(limited["runs"][0]["timeline"]) == 3
    assert limited["runs"][0]["timeline"] == run["timeline"][-3:]
    everything = report_json(trace, types=())
    assert len(everything["runs"][0]["timeline"]) == run["events_total"]
    with pytest.raises(ValueError):
        report_json(trace, run="nope")


def test_report_cli_json(tmp_path, capsys):
    import json
    from repro.cli import main

    path = tmp_path / "cli.jsonl"
    rc = main(["scenario", "--transport", "iq", "--workload", "greedy",
               "--frames", "300", "--frame-size", "700", "--cbr", "17.5e6",
               "--time-cap", "60", "--trace", str(path)])
    assert rc == 0
    capsys.readouterr()  # drop the scenario table
    rc = main(["report", str(path), "--json", "--limit", "5"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format"] == "repro-trace"
    assert len(data["runs"][0]["timeline"]) <= 5


def _tiny_trace(tmp_path):
    from repro.obs.sinks import write_trace
    path = tmp_path / "ok.jsonl"
    write_trace(path, [{"run": "0", "events": []}])
    return path


def _wrong_artifact(tmp_path, kind):
    from repro.runner.cache import write_pickle
    path = tmp_path / {"dict": "d.pkl", "json": "plain.json",
                       "text": "notes.txt", "missing": "gone.pkl"}[kind]
    if kind == "dict":
        write_pickle(path, {"not": "a result"})
    elif kind == "json":
        path.write_text('{"not": "fuzz forensics"}')
    elif kind == "text":
        path.write_text("just some notes\n")
    return path


@pytest.mark.parametrize("command", ["report", "compare"])
@pytest.mark.parametrize("kind", ["dict", "json", "text", "missing"])
def test_wrong_artifact_is_a_user_error(tmp_path, capsys, command, kind):
    """Every reader of a run artifact goes through one loader: a file that
    is none of the three kinds exits 2 with one ``error:`` line naming it,
    never a traceback."""
    from repro.cli import main
    bad = _wrong_artifact(tmp_path, kind)
    argv = (["report", str(bad)] if command == "report"
            else ["compare", str(_tiny_trace(tmp_path)), str(bad)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and bad.name in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags", [["--frame", "0"], ["--prom"]])
def test_report_trace_rejects_result_flags(tmp_path, capsys, flags):
    from repro.cli import main
    assert main(["report", str(_tiny_trace(tmp_path)), *flags]) == 2
    assert "does not apply" in capsys.readouterr().err


def audit_block(text):
    """The coordination audit's lines of a report: its title to the next
    blank line."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("Coordination audit"))
    end = next((i for i in range(start, len(lines)) if not lines[i]),
               len(lines))
    return lines[start:end]


def test_result_and_trace_print_the_same_audit(tmp_path, capsys):
    """One adapting run: ``report RESULT`` renders the coordinator's record
    and ``report TRACE`` the trace's events, and both print the same audit,
    without spans armed."""
    import json
    from repro.cli import main

    pkl, trace = tmp_path / "a.pkl", tmp_path / "a.jsonl"
    assert main(["scenario", "--adaptation", "resolution", "--cbr",
                 "17.5e6", "--vbr", "1e6", "--frame-size", "700", "--seed",
                 "2", "--save", str(pkl), "--trace", str(trace)]) == 0
    capsys.readouterr()
    blocks = []
    for path in (pkl, trace):
        assert main(["report", str(path)]) == 0
        blocks.append(audit_block(capsys.readouterr().out))
    assert blocks[0] == blocks[1]
    assert not blocks[0][0].startswith("Coordination audit (0 exchanges")
    assert main(["report", str(pkl), "--json"]) == 0
    audit = json.loads(capsys.readouterr().out)["audit"]
    assert audit["pairs"] and audit["unmatched_actions"] == []


@pytest.mark.parametrize("version", [1, 9])
@pytest.mark.parametrize("command", ["report", "compare"])
def test_a_trace_of_another_version_is_refused_by_name(tmp_path, capsys,
                                                       version, command):
    """A version-1 trace named an exchange by another key and would pair
    nothing: every reader refuses it, and any other version, in one line
    naming both versions."""
    from repro.cli import main
    ok = _tiny_trace(tmp_path)
    old = tmp_path / "old.jsonl"
    lines = ok.read_text().splitlines(keepends=True)
    lines[0] = lines[0].replace('"version":2', f'"version":{version}')
    old.write_text("".join(lines))
    argv = (["report", str(old)] if command == "report"
            else ["compare", str(ok), str(old)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "old.jsonl" in err
    assert f"version {version};" in err and "reads version 2" in err
