"""Fluid background traffic: aggregate cross traffic at tick cost.

Population scenarios (1k+ concurrent foreground flows) cannot afford
per-packet cross traffic: a 16 Mbps CBR source alone is ~1.4k datagrams,
one engine event each (four or five when a datagram walked the access
links), per simulated second.  Following the
fluid/analytic rate-model tradition (Hága et al., PAPERS.md), background
aggregate traffic does not need per-packet fidelity to exert correct
congestion *pressure* on the foreground; it needs the right mean rate,
the right buffer occupancy, and the right residual capacity.

:class:`FluidSource` models the aggregate as a piecewise-constant arrival
rate feeding a fluid backlog, coupled to its bottleneck link once per
engine tick:

* arrivals: ``rate_bps * dt`` bits join the backlog each tick;
* service: the fluid drains at up to ``share_cap`` of the nominal link
  rate (FIFO approximation: an aggregate below capacity is served at its
  arrival rate; an overloaded aggregate saturates its share);
* residual capacity: the packet-level link is re-rated to
  ``nominal - served_rate`` -- exactly the residual a CBR aggregate at the
  same rate leaves once its queue saturates;
* buffer occupancy: the backlog (capped at ``queue_share`` of the buffer)
  shrinks the drop-tail budget foreground packets see, so fluid floods
  produce foreground drops just as packet floods do.

In the under-load steady state this reduces to ``link bandwidth =
nominal - rate_bps`` and an untouched queue: the classic residual-capacity
fluid limit.  Determinism: the coupling is a pure function of tick times
and the rate profile -- no RNG -- so summaries remain a pure function of
the scenario config.

The model is an *approximation by construction* (that is the point); it is
exercised by `tests/test_fluid.py` against its packet-level counterpart
:class:`~repro.traffic.cbr.CbrSource` for pressure equivalence, not for
bit-identity.
"""

from __future__ import annotations

from ..sim.engine import Simulator
from ..sim.link import Link

__all__ = ["FluidSource"]


class FluidSource:
    """Aggregate background traffic as a rate-coupled fluid on ``link``.

    Parameters
    ----------
    rate_bps : initial aggregate wire rate in bits per second.
    tick_s : coupling period; smaller tracks queue dynamics tighter at
        linear event cost (default 10 ms ~ a third of the paper RTT).
    profile : optional ``[(time_s, rate_bps), ...]`` piecewise-constant
        schedule applied as virtual time passes (sorted, absolute times).
    share_cap : largest fraction of the link the fluid may occupy; the
        remainder is guaranteed to packet traffic so foreground flows are
        squeezed, never bricked.
    queue_share : largest fraction of the drop-tail buffer the backlog may
        occupy; backlog beyond it is dropped (fluid loss).
    """

    def __init__(self, sim: Simulator, link: Link, *, rate_bps: float,
                 tick_s: float = 0.010, start: float = 0.0,
                 stop: float | None = None,
                 profile: list[tuple[float, float]] | None = None,
                 share_cap: float = 0.95, queue_share: float = 0.5):
        if rate_bps < 0:
            raise ValueError("rate must be non-negative")
        if tick_s <= 0:
            raise ValueError("tick period must be positive")
        if not 0.0 < share_cap < 1.0:
            raise ValueError("share_cap must be in (0,1)")
        if not 0.0 < queue_share <= 1.0:
            raise ValueError("queue_share must be in (0,1]")
        self.sim = sim
        self.link = link
        self.rate_bps = float(rate_bps)
        self.tick_s = tick_s
        self.stop_time = stop
        self.profile = sorted(profile) if profile else []
        self._profile_pos = 0
        self.share_cap = share_cap
        self.queue_share = queue_share
        # Frozen nominal operating point the coupling modulates around.
        self.nominal_bps = link.bandwidth_bps
        self.base_queue_bytes = link.queue.capacity_bytes
        self.min_queue_bytes = min(2 * 1440, self.base_queue_bytes)
        # Fluid state/accounting (bits for rate math, reported as bytes).
        self.backlog_bits = 0.0
        self.offered_bytes = 0.0
        self.served_bytes = 0.0
        self.dropped_bytes = 0.0
        self.ticks = 0
        self._running = False
        self._event = None      # the one pending tick
        self._last_t = start
        sim.at(start, self.start)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self._running:
            self._running = True
            self._last_t = self.sim.now
            self._event = self.sim.schedule(self.tick_s, self._tick)

    def stop(self) -> None:
        """Stop the source and release the link back to its nominal
        operating point (pending backlog is discarded as drops)."""
        if not self._running:
            return
        self._running = False
        self._event.cancel()
        self.dropped_bytes += self.backlog_bits / 8.0
        self.backlog_bits = 0.0
        self.link.set_bandwidth(self.nominal_bps)
        self.link.queue.set_capacity(self.base_queue_bytes)

    def set_rate(self, rate_bps: float) -> None:
        """Change the aggregate rate mid-run (handover ramps, step loads)."""
        if rate_bps < 0:
            raise ValueError("rate must be non-negative")
        self.rate_bps = float(rate_bps)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        if self.stop_time is not None and now >= self.stop_time:
            self.stop()
            return
        profile = self.profile
        pos = self._profile_pos
        while pos < len(profile) and profile[pos][0] <= now:
            self.rate_bps = float(profile[pos][1])
            pos += 1
        self._profile_pos = pos
        dt = now - self._last_t
        self._last_t = now
        self.ticks += 1
        nominal = self.nominal_bps
        # Arrivals, then service at up to the fluid's capacity share.
        offered = self.rate_bps * dt
        backlog = self.backlog_bits + offered
        fluid_cap = self.share_cap * nominal * dt
        served = backlog if backlog <= fluid_cap else fluid_cap
        backlog -= served
        # Backlog beyond the fluid's buffer share is dropped (fluid loss).
        buf_bits = self.queue_share * self.base_queue_bytes * 8.0
        if backlog > buf_bits:
            self.dropped_bytes += (backlog - buf_bits) / 8.0
            backlog = buf_bits
        self.backlog_bits = backlog
        self.offered_bytes += offered / 8.0
        self.served_bytes += served / 8.0
        # Couple to the packet level: residual capacity + buffer occupancy.
        served_rate = served / dt if dt > 0 else 0.0
        residual = nominal - served_rate
        floor = (1.0 - self.share_cap) * nominal
        self.link.set_bandwidth(residual if residual > floor else floor)
        occupied = int(backlog / 8.0)
        cap = self.base_queue_bytes - occupied
        if cap < self.min_queue_bytes:
            cap = self.min_queue_bytes
        self.link.queue.set_capacity(cap)
        self._event = self.sim.schedule(self.tick_s, self._tick)

    # ------------------------------------------------------------------
    @property
    def backlog_bytes(self) -> float:
        return self.backlog_bits / 8.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FluidSource {self.rate_bps/1e6:.1f}Mbps "
                f"backlog={self.backlog_bits/8.0:.0f}B "
                f"on {self.link.name}>")
