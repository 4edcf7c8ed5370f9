"""IQ-RUDP coordination engine (the paper's core contribution).

The engine sits inside the sender and consumes the application -> transport
attribute flow from two sources:

* return values of threshold callbacks (immediate adaptations), and
* attribute lists piggybacked on ``cmwritev_attr`` send calls (delayed
  adaptations, section 3.5's limited-granularity case).

It implements the three coordination schemes evaluated in the paper:

**Conflicting interests (section 3.3).**  When the application reports a
reliability adaptation (:data:`ADAPT_MARK` = current unmark probability), the
transport "starts to discard unmarked datagrams before sending them onto the
network", so tagged/marked data stops queueing behind droppable data.
Plain RUDP keeps sending everything, which is what the paper contrasts
against.

**Over-reaction (section 3.4).**  When the application reports a resolution
adaptation (:data:`ADAPT_PKTSIZE` = ``rate_chg``, the fractional frame-size
reduction), the transport window (in packets) no longer carries the same bit
rate; to keep the flow at its fair share, the engine re-inflates the window
to ``1/(1 - rate_chg)`` of its value -- but only "if the current application
frame is smaller than the maximum RUDP segment size" (larger frames still
segment into MSS packets, so the packet window's bit rate is unchanged).
A *frequency* adaptation (:data:`ADAPT_FREQ`) deliberately triggers no window
change: "for a frequency adaptation, IQ-RUDP does not have to increase the
window size since the reduction of application frame frequency has the same
effect".

**Limited granularity / obsolete information (section 3.5).**  A callback may
return :data:`ADAPT_WHEN` = ``"pending"``; the transport then adapts on its
own until the application's next send carries the executed adaptation.  If
the send also carries :data:`ADAPT_COND` (the error ratio the application's
decision was based on), the engine corrects for network drift during the
delay.  The paper's Eq. 1 as typeset reads
``((1-eratio_new)/(1-eratio)) / (1/(1-rate_chg))``, which *shrinks* the
window for a size reduction and contradicts both the surrounding prose and
the measured Table 8 ordering; we implement the evident intent::

    w <- w * (1 / (1 - rate_chg)) * ((1 - eratio_new) / (1 - eratio))

i.e. compensate the frame-size reduction, then scale by how the loss ratio
drifted while the adaptation was pending.

Each scheme is a rule of :data:`RULES`; a transport names its law, the row
of :data:`LAWS` it applies (plain RUDP is the empty law).
"""

from __future__ import annotations

from ..obs.bus import NULL_BUS
from ..obs.events import ATTR_RECEIVED, COORD_ACTION
from .attributes import (ADAPT_COND, ADAPT_FEC, ADAPT_FREQ, ADAPT_MARK,
                         ADAPT_PKTSIZE, ADAPT_WHEN, AttributeSet)

__all__ = ["Coordinator", "RULES", "LAWS"]


class Coordinator:
    """The coordination engine the sender drives, under one law.

    ``law`` names a row of :data:`LAWS`, the :data:`RULES` it applies.
    ``"rudp"`` is the empty law: plain RUDP still adapts its window to
    congestion but hears nothing the application says, so it reports
    nothing and changes nothing.  ``"iq"`` is full IQ-RUDP; each
    ``iq_no*`` row drops one scheme (Table 8's "w/o ADAPT_COND" is
    ``"iq_nocond"``).  A rule that reacts to an attribute also owns that
    concern's transport-initiated half: ``discard`` sheds unmarked backlog
    through a stall, ``fec`` boosts redundancy around one and runs the
    per-period redundancy controller.

    It writes down what it decided, on every run: ``exchanges`` holds
    ``{"episode", "t", "attrs"}`` per attribute set the law heard,
    ``episode`` being its index in ``exchanges``; ``actions`` holds
    ``{"t", "action", "episode", **fields}`` per action, ``episode`` being
    that of the exchange that caused it (None: transport-initiated).  The
    trace and the flight ring name an exchange by the same ``episode``.
    The record is the only account of coordination: :meth:`count` counts
    over it, and the ``obs_coord_*`` summary keys are such counts.
    """

    def __init__(self, law: str = "rudp"):
        if law not in LAWS:
            raise ValueError(f"unknown coordination law {law!r} "
                             f"(one of {', '.join(LAWS)})")
        self.law = law
        self.rules = LAWS[law]
        self.sender = None
        self.exchanges: list[dict] = []
        self.actions: list[dict] = []
        self._discard_before_stall: bool | None = None
        # Redundancy-controller state (inert unless the sender's FEC tier
        # is armed and adaptive).
        self._fec_r_before_stall: int | None = None
        self._fec_last_recovered = 0
        self._fec_last_unrecoverable = 0
        self._fec_clean_periods = 0
        self._fec_min_rtt: float | None = None

    def bind(self, sender) -> None:
        """Attach to a sender (called from the sender's constructor)."""
        self.sender = sender

    def count(self, action: str, **where) -> int:
        """How many recorded actions are named ``action`` and carry
        ``where``'s fields with those values."""
        return sum(a["action"] == action
                   and all(k in a and a[k] == v for k, v in where.items())
                   for a in self.actions)

    # ------------------------------------------------------------------
    def on_callback_result(self, attrs: AttributeSet) -> None:
        """Attributes returned by a threshold callback."""
        self._apply(attrs)

    def on_send_attrs(self, attrs: AttributeSet) -> None:
        """Attributes piggybacked on a data submit (``cmwritev_attr``)."""
        self._apply(attrs)

    @property
    def _trace(self):
        """The sender's bus, looked up when reporting: ``bind()`` runs
        before the sender has one (and a test double may have none)."""
        return getattr(self.sender, "trace", NULL_BUS)

    def _act(self, action: str, episode: int | None = None,
             **fields) -> None:
        """Record one coordination action and report it.  ``episode`` is
        the index in :attr:`exchanges` of the exchange that caused it;
        transport-initiated actions have none."""
        self.actions.append({"t": self.sender.sim._now, "action": action,
                             "episode": episode, **fields})
        tr = self._trace
        if tr.recording:
            tr.cold("coord", COORD_ACTION, flow=self.sender.flow_id,
                    action=action, episode=episode, **fields)

    # ------------------------------------------------------------------
    # Transport-initiated actions: the sender's stall detector declared
    # the path dead (see ``stall_threshold`` in :class:`~repro.transport
    # .base.WindowedSender`), or forward progress resumed.  While the path
    # is believed dead the ``discard`` rule sheds unmarked backlog --
    # there is no point queueing droppable data behind an outage -- so the
    # data the application cares about goes first the moment the link
    # returns; the pre-stall discard policy is restored on resume.  These
    # actions have no cause because no application attribute exchange
    # caused them (the report shows them as transport-initiated).
    # ------------------------------------------------------------------
    def on_stall(self, now: float) -> None:
        snd = self.sender
        if snd is None:
            return
        if "fec" in self.rules:
            self._fec_stall_boost(snd)
        if "discard" not in self.rules:
            return
        if self._discard_before_stall is None:
            self._discard_before_stall = snd.discard_unmarked
        snd.discard_unmarked = True
        self._act("stall_degrade",
                  restored_policy=self._discard_before_stall)

    def on_resume(self, now: float) -> None:
        # Only a rule's own ``on_stall`` half leaves state to undo here.
        snd = self.sender
        if snd is None:
            return
        self._fec_stall_relax(snd)
        if self._discard_before_stall is None:
            return
        snd.discard_unmarked = self._discard_before_stall
        self._discard_before_stall = None
        self._act("stall_recover", discard_unmarked=snd.discard_unmarked)

    # ------------------------------------------------------------------
    # FEC redundancy coordination.  The coding rate is a quality attribute
    # like any other: the application can set it (ADAPT_FEC below), and
    # the coordinator re-adapts it from observed loss/stall telemetry --
    # more repair segments inside loss bursts and around blackouts, shed
    # back to the configured base once the loss estimator clears.  All of
    # it is inert unless the connection armed a FEC tier.
    # ------------------------------------------------------------------
    def _fec_stall_boost(self, snd) -> None:
        fx = getattr(snd, "fec_tx", None)
        if fx is None or not fx.state.cfg.adaptive:
            return
        state = fx.state
        if self._fec_r_before_stall is None:
            self._fec_r_before_stall = state.r
        r_before = state.r
        r_after = state.set_redundancy(state.cfg.r_max)
        if r_after != r_before:
            self._act("fec_boost", r_before=r_before, r_after=r_after)

    def _fec_stall_relax(self, snd) -> None:
        if self._fec_r_before_stall is None:
            return
        fx = getattr(snd, "fec_tx", None)
        restore = self._fec_r_before_stall
        self._fec_r_before_stall = None
        if fx is None:
            return
        state = fx.state
        r_before = state.r
        # Generations flushed around the resume already went out at
        # ``r_max`` (the boost covered the settle's first moments);
        # restore the pre-stall rate and let the period controller
        # re-raise only if the decoder shows the tail is still lossy --
        # holding extra redundancy through the post-blackout backlog
        # drain would steal bandwidth exactly when it is scarcest.
        r_after = state.set_redundancy(restore)
        if r_after != r_before:
            self._act("fec_relax", r_before=r_before, r_after=r_after)

    def on_period(self, pm) -> None:
        """One metric period rolled (the sender's measuring-period tick);
        ``pm`` is the :class:`~repro.core.metrics_export.PeriodMetrics`
        snapshot.  The ``fec`` rule's redundancy controller runs here."""
        snd = self.sender
        if snd is None or "fec" not in self.rules:
            return
        fx = getattr(snd, "fec_tx", None)
        if fx is None or not fx.state.cfg.adaptive:
            return
        state = fx.state
        recovered_delta = state.recovered - self._fec_last_recovered
        self._fec_last_recovered = state.recovered
        short_delta = state.unrecoverable - self._fec_last_unrecoverable
        self._fec_last_unrecoverable = state.unrecoverable
        if pm.blackout or self._fec_r_before_stall is not None:
            # A dead link's ~100% loss says nothing about the coding rate
            # the live path needs; the stall boost owns redundancy here.
            return
        meaningful = pm.sent >= snd.MIN_PERIOD_SAMPLES
        eratio = pm.error_ratio if meaningful else 0.0
        # Congestion discriminator: queue drops inflate the measured RTT
        # (standing queue) while wire loss does not.  Redundancy must
        # track *wire* loss only -- repair segments displace data at a
        # saturated bottleneck, so raising ``r`` on congestion loss feeds
        # the very drops it reacts to.
        if pm.rtt > 0:
            self._fec_min_rtt = (pm.rtt if self._fec_min_rtt is None
                                 else min(self._fec_min_rtt, pm.rtt))
        congested = (self._fec_min_rtt is not None
                     and pm.rtt > 1.5 * self._fec_min_rtt)
        r_before = state.r
        if congested:
            # Self-inflicted loss regime: shed straight toward the base
            # rate; ARQ inside the recovered window is the cheaper tool.
            self._fec_clean_periods = 0
            r_after = (state.set_redundancy(r_before - 1)
                       if r_before > state.cfg.r else r_before)
        elif recovered_delta > 0 or short_delta > 0:
            # The decoder is earning its keep (or arriving one repair
            # short): the live path is bursty, add a repair segment.
            self._fec_clean_periods = 0
            r_after = state.set_redundancy(r_before + 1)
        elif meaningful and eratio <= 0.005:
            # Clean period; shed redundancy after a few in a row.
            self._fec_clean_periods += 1
            if self._fec_clean_periods >= 4 and r_before > state.cfg.r:
                self._fec_clean_periods = 0
                r_after = state.set_redundancy(r_before - 1)
            else:
                r_after = r_before
        else:
            r_after = r_before
        if r_after != r_before:
            self._act("fec_redundancy", r_before=r_before, r_after=r_after,
                      error_ratio=eratio, recovered=recovered_delta,
                      congested=congested)

    # ------------------------------------------------------------------
    def _apply(self, attrs: AttributeSet) -> None:
        if not self.rules:
            return
        snd = self.sender
        if snd is None:
            raise RuntimeError("coordinator not bound to a sender")

        # Record and report the exchange; every action below cites its
        # episode, its index in the record.
        episode = len(self.exchanges)
        heard = attrs.as_dict()
        self.exchanges.append({"episode": episode, "t": snd.sim._now,
                               "attrs": heard})
        tr = self._trace
        if tr.recording:
            tr.cold("coord", ATTR_RECEIVED, flow=snd.flow_id,
                    episode=episode, attrs=heard)

        when = attrs.get(ADAPT_WHEN)
        if when == "pending":
            # The application will adapt later (limited granularity).  The
            # transport keeps adapting on its own; nothing to change now.
            self._act("pending", episode)
            return

        for attr, rule in _BOUND[self.law]:
            if attr in attrs:
                rule(self, snd, attrs[attr], attrs, episode)

    # ------------------------------------------------------------------
    # The rules' attribute-driven halves, one method each; ``value`` is
    # ``attrs[RULES[rule]]`` and ``episode`` the exchange's, for ``_act``.
    # ------------------------------------------------------------------
    def _discard(self, snd, value, attrs, episode) -> None:
        p = float(value)
        want = p > 1e-9
        changed = want != snd.discard_unmarked
        snd.discard_unmarked = want
        self._act("discard", episode, enabled=want, changed=changed,
                  unmark_p=p)

    def _freq(self, snd, value, attrs, episode) -> None:
        # Deliberately no window change (see module docstring).
        self._act("freq_no_window_change", episode, freq_chg=float(value))

    def _fec(self, snd, value, attrs, episode) -> None:
        requested = int(value)
        fx = getattr(snd, "fec_tx", None)
        if fx is None:
            # The application asked for coding on a connection with no
            # FEC tier: record the mismatch, change nothing.
            self._act("fec_unavailable", episode, requested=requested)
            return
        state = fx.state
        r_before = state.r
        r_after = state.set_redundancy(requested)
        changed = r_after != r_before
        if changed:
            self._fec_clean_periods = 0
        self._act("fec_redundancy", episode, requested=requested,
                  r_before=r_before, r_after=r_after, changed=changed)

    def _reinflate(self, snd, value, attrs, episode) -> None:
        rate_chg = float(value)
        if rate_chg >= 1.0:
            raise ValueError(f"ADAPT_PKTSIZE rate_chg {rate_chg} >= 1")
        if snd.last_frame_size >= snd.mss:
            self._act("rescale_skipped_large_frame", episode,
                      rate_chg=rate_chg, last_frame_size=snd.last_frame_size,
                      mss=snd.mss)
            return
        base_factor = 1.0 / (1.0 - rate_chg)
        factor = base_factor
        drift = 1.0
        applied = False  # ADAPT_COND's drift applied (it may be 1.0)
        cond = attrs.get(ADAPT_COND)
        if cond is not None and "cond" in self.rules:
            e_old = float(cond.get("error_ratio", 0.0))
            e_new = snd.current_error_ratio()
            if e_old < 1.0:
                drift = (1.0 - e_new) / (1.0 - e_old)
                factor *= drift
                applied = True
        cwnd_before = snd.cc.cwnd
        snd.cc.scale_window(factor)
        self._act("window_rescale", episode, rate_chg=rate_chg,
                  base_factor=base_factor, drift=drift, cond=applied,
                  factor=factor, cwnd_before=cwnd_before,
                  cwnd_after=snd.cc.cwnd)


#: The coordination rules in evaluation order: rule -> the attribute it
#: reacts to.  ``cond`` (section 3.5) reacts to none of its own: it
#: qualifies ``reinflate`` with Eq. 1's drift.
RULES = {"discard": ADAPT_MARK, "freq": ADAPT_FREQ, "fec": ADAPT_FEC,
         "reinflate": ADAPT_PKTSIZE, "cond": None}

#: Coordination law -> the rules it applies.  Plain RUDP is the empty
#: law; each ``iq_no*`` row is one of the paper's ablations.
LAWS = {
    "rudp": frozenset(),
    "iq": frozenset(RULES),
    "iq_nocond": frozenset(RULES) - {"cond"},
    "iq_nodiscard": frozenset(RULES) - {"discard"},
    "iq_noreinflate": frozenset(RULES) - {"reinflate"},
}

#: Law -> ``(attribute, rule body)`` in evaluation order, what ``_apply``
#: walks (a module table, so a pickled coordinator holds names only).
_BOUND = {law: tuple((attr, getattr(Coordinator, "_" + rule))
                     for rule, attr in RULES.items()
                     if rule in rules and attr is not None)
          for law, rules in LAWS.items()}
