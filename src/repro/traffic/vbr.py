"""Variable-bit-rate UDP source driven by a frame-size trace.

Paper section 3.1, changing-network setting: "a variable bit rate UDP source
is used as cross traffic ... The UDP source also has a fixed frame rate
(500 frames/sec) and the frame size fluctuation follows the same MBone
trace.  The frame size is the group size multiplied by 2000."
"""

from __future__ import annotations

from typing import Sequence

from ..sim.engine import Simulator
from ..transport.udp import UdpSender

__all__ = ["VbrSource"]


class VbrSource:
    """Emits one trace-sized frame every ``1/frame_rate`` seconds.

    The trace wraps around when exhausted so the source can outlive the
    trace length (cross traffic must persist for the whole experiment).
    """

    def __init__(self, sim: Simulator, sender: UdpSender, *,
                 frame_sizes: Sequence[int], frame_rate: float,
                 trace_step_s: float = 1.0,
                 start: float = 0.0, stop: float | None = None):
        if frame_rate <= 0:
            raise ValueError("frame rate must be positive")
        if trace_step_s <= 0:
            raise ValueError("trace step must be positive")
        if len(frame_sizes) == 0:
            raise ValueError("empty frame-size trace")
        self.sim = sim
        self.sender = sender
        self.frame_sizes = list(int(s) for s in frame_sizes)
        if any(s <= 0 for s in self.frame_sizes):
            raise ValueError("frame sizes must be positive")
        self.interval = 1.0 / frame_rate
        # Membership dynamics evolve on a seconds timescale (Figure 1), far
        # slower than the frame clock: the trace index advances once per
        # ``trace_step_s``, so congestion swings persist long enough for
        # transports and applications to react -- the regime the paper's
        # coordination schemes are designed for.
        self.trace_step_s = trace_step_s
        self.stop_time = stop
        self.frames_sent = 0
        self._start_time = start
        self._running = False
        self._event = None      # the one pending tick
        sim.at(start, self.start)

    def start(self) -> None:
        if not self._running:
            self._running = True
            self._start_time = self.sim.now
            self._tick()

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()

    def current_size(self) -> int:
        """Frame size for the current trace step (wraps around)."""
        # The epsilon absorbs float accumulation from the frame clock so a
        # frame nominally at a step boundary lands in the new step.
        elapsed = self.sim.now - self._start_time
        step = int(elapsed / self.trace_step_s + 1e-9)
        return self.frame_sizes[step % len(self.frame_sizes)]

    def _tick(self) -> None:
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            self._running = False
            return
        self.sender.send(self.current_size(), frame_id=self.frames_sent)
        self.frames_sent += 1
        self._event = self.sim.schedule(self.interval, self._tick)
