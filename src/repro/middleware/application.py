"""Adaptive application sources (the IQ-ECho data producers).

One class covers the paper's three workload shapes:

* **clocked trace source** (changing-application setting): frames whose
  sizes follow the MBone trace x 3000 B, emitted at a fixed frame rate; the
  transport queues what the network cannot carry, so the run outlasts the
  nominal trace duration under congestion.
* **greedy source** (changing-network setting): fixed-size datagrams "as
  fast as allowed by RUDP", paced purely by transport backpressure.
* **clocked fixed-size source** (Table 8's rate-based application on the
  long-RTT path).

The source owns a workload of ``n_frames`` messages; ``finish()`` semantics
give every experiment a well-defined duration (time until the last message
is delivered, skipped or locally discarded).
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.attributes import AttributeSet
from ..obs.events import ADAPT_ACTION
from ..sim.engine import Simulator
from .adaptation import AdaptationStrategy, NullAdaptation

__all__ = ["AdaptiveSource"]


class AdaptiveSource:
    """Feeds an adaptive workload into a transport connection.

    Parameters
    ----------
    conn : connection exposing ``submit``/``finish`` (and
        ``register_callbacks`` unless the strategy is Null).
    frame_sizes : per-frame base sizes in bytes (trace mode), or None with
        ``base_frame_size`` set (fixed-size mode).
    frame_rate : frames per second for clocked mode; ``None`` selects greedy
        mode (requires wiring ``on_space=source.pump`` on the sender).
    strategy : the adaptation state machine; scale/marking/frequency changes
        all come from it.
    mss : datagram size used when the strategy marks per datagram.
    frame_deadline_s : per-frame delivery budget; each frame's segments
        carry an absolute deadline of submit-time + this, and the transport
        abandons whatever is still untransmitted once it passes (stale
        media should not block fresher frames).  0.0 (default) disables
        deadline scheduling entirely.
    """

    def __init__(self, sim: Simulator, conn, *,
                 strategy: AdaptationStrategy | None = None,
                 frame_sizes: Sequence[int] | None = None,
                 base_frame_size: int | None = None,
                 n_frames: int | None = None,
                 frame_rate: float | None = None,
                 mss: int = 1400,
                 rng: random.Random | None = None,
                 frame_deadline_s: float = 0.0):
        if frame_sizes is None and base_frame_size is None:
            raise ValueError("need frame_sizes or base_frame_size")
        if frame_sizes is not None and n_frames is None:
            n_frames = len(frame_sizes)
        if n_frames is None or n_frames <= 0:
            raise ValueError("n_frames must be positive")
        if frame_rate is not None and frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        if frame_deadline_s < 0:
            raise ValueError("frame_deadline_s cannot be negative")
        self.sim = sim
        self.conn = conn
        self.strategy = strategy or NullAdaptation()
        self.frame_sizes = (list(int(s) for s in frame_sizes)
                            if frame_sizes is not None else None)
        self.base_frame_size = base_frame_size
        self.n_frames = n_frames
        self.frame_rate = frame_rate
        self.mss = mss
        self.frame_deadline_s = frame_deadline_s
        self.rng = rng or random.Random(0)
        self.trace = sim.bus
        self.strategy.bind(conn, self.rng)

        self._idx = 0
        self._pumping = False
        self._datagram_counter = 0
        self.submitted_frames = 0
        self.submitted_datagrams = 0
        self.submitted_bytes = 0
        self._started = False
        self._done = False

    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        if self._started:
            raise RuntimeError("source already started")
        self._started = True
        if self.frame_rate is not None:
            self.sim.at(at, self._tick)
        else:
            self.sim.at(at, self.pump)

    @property
    def done(self) -> bool:
        return self._done

    # ------------------------------------------------------------------
    def _emit_frame(self, index: int) -> None:
        strategy = self.strategy
        attrs = strategy.frame_attrs(index)
        if attrs is not None:
            # A deferred adaptation executing at this frame boundary.
            tr = self.trace
            if tr.enabled:
                tr.emit("app", ADAPT_ACTION, trigger="frame_boundary",
                        frame=index, applied=True,
                        scale=self.strategy.scale,
                        freq_scale=self.strategy.freq_scale,
                        attrs=attrs.as_dict())
        # The frame's base size scaled by the strategy, at least one byte.
        base = (self.frame_sizes[index % len(self.frame_sizes)]
                if self.frame_sizes is not None else self.base_frame_size)
        size = int(base * strategy.scale)
        if size < 1:
            size = 1
        # Only mention deadlines to the connection when armed: disarmed
        # sources keep working against any conn exposing the plain
        # ``submit(size, **kw)`` shape (test doubles included).
        ddl = ({"deadline": self.sim.now + self.frame_deadline_s}
               if self.frame_deadline_s > 0 else {})
        if self.strategy.per_datagram_marking:
            self._emit_marked_datagrams(index, size, attrs, ddl)
        else:
            self.conn.submit(size, frame_id=index, attrs=attrs, **ddl)
            self.submitted_datagrams += 1
        self.submitted_frames += 1
        self.submitted_bytes += size

    def _emit_marked_datagrams(self, index: int, size: int,
                               attrs: AttributeSet | None,
                               ddl: dict) -> None:
        """Conflict-experiment shape: the frame is sent as individually
        marked/tagged datagrams of at most one MSS."""
        remaining = size
        first = True
        while remaining > 0:
            seg = min(self.mss, remaining)
            remaining -= seg
            marked, tagged = self.strategy.datagram_flags(
                self._datagram_counter)
            self._datagram_counter += 1
            self.conn.submit(seg, marked=marked, tagged=tagged,
                             frame_id=index, attrs=attrs if first else None,
                             **ddl)
            self.submitted_datagrams += 1
            first = False

    # ------------------------------------------------------------------
    # Clocked mode
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._idx >= self.n_frames:
            self._finish()
            return
        self._emit_frame(self._idx)
        self._idx += 1
        if self._idx >= self.n_frames:
            self._finish()
            return
        interval = (1.0 / self.frame_rate) / max(self.strategy.freq_scale,
                                                 1e-9)
        self.sim.schedule(interval, self._tick)

    # ------------------------------------------------------------------
    # Greedy mode (wired as the sender's on_space callback)
    # ------------------------------------------------------------------
    def pump(self) -> None:
        if (not self._started or self._done or self._pumping
                or self.frame_rate is not None):
            return
        # Submitting can re-trigger on_space -> pump; guard against nesting.
        self._pumping = True
        try:
            for _ in range(16):
                if self._idx >= self.n_frames:
                    break
                self._emit_frame(self._idx)
                self._idx += 1
        finally:
            self._pumping = False
        if self._idx >= self.n_frames:
            self._finish()

    def _finish(self) -> None:
        if not self._done:
            self._done = True
            self.conn.finish()
