"""Declarative network-dynamics schedules.

A :class:`FaultSchedule` is an immutable list of timed impairment *phases*
applied to a scenario's bottleneck links.  It lives inside
:class:`~repro.experiments.common.ScenarioConfig`, so it must behave like
every other config field:

* **hashable / stable repr** -- the results cache fingerprints configs with
  ``repr(value)`` (see :mod:`repro.runner.hashing`); every phase is a frozen
  dataclass whose auto-generated repr lists all parameters, and the schedule
  reproduces itself from its repr.
* **picklable** -- schedules ride to worker processes with the config.
* **declarative** -- phases say *what* the network does and *when*; the
  :class:`~repro.faults.injector.FaultInjector` translates them into
  simulator events, so two runs of the same schedule are deterministic for
  any ``--jobs N``.

Phase vocabulary (all times in simulation seconds from t=0):

===================  ====================================================
:class:`Blackout`    link(s) administratively down for a window
:class:`LinkFlap`    periodic down/up cycles inside a window (handover
                     storms, flaky last-mile)
:class:`BurstyLoss`  Gilbert--Elliott two-state wire loss inside a window
:class:`BandwidthRamp`  linear capacity change (cliff with ``steps=1``)
:class:`DelayRamp`   linear propagation-delay change
:class:`Jitter`      random per-packet extra delay (causes reordering)
===================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterator, Tuple, Union

__all__ = ["Blackout", "LinkFlap", "BurstyLoss", "BandwidthRamp",
           "DelayRamp", "Jitter", "FaultSchedule", "DIRECTIONS"]

#: Which bottleneck link(s) a phase applies to: the data path, the ACK
#: path, or both (a real outage usually takes both).
DIRECTIONS = ("fwd", "bwd", "both")


def _check_window(start: float, stop: float) -> None:
    """A finite ``start >= 0`` and a ``stop`` after it; ``stop`` may be
    ``inf`` (a permanent fault).  NaN fails every comparison, so each
    check is written as a condition NaN does not meet."""
    if not (isfinite(start) and start >= 0):
        raise ValueError(f"phase start must be finite and >= 0, got {start}")
    if not stop > start:
        raise ValueError(f"phase stop {stop} must exceed start {start}")


def _check_positive(name: str, value: float) -> None:
    if not (isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, "
                         f"got {direction!r}")


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0,1], got {p}")


@dataclass(frozen=True)
class Blackout:
    """Link(s) hard down over ``[start, stop)`` -- the handover gap."""

    start: float
    stop: float
    direction: str = "both"

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_direction(self.direction)


@dataclass(frozen=True)
class LinkFlap:
    """Repeating ``down_s`` outages separated by ``up_s`` of service,
    starting at ``start`` and ceasing (link restored) at ``stop``."""

    start: float
    stop: float
    down_s: float
    up_s: float
    direction: str = "both"

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_direction(self.direction)
        _check_positive("down_s", self.down_s)
        _check_positive("up_s", self.up_s)


@dataclass(frozen=True)
class BurstyLoss:
    """Gilbert--Elliott two-state wire loss over ``[start, stop)``.

    Per packet the chain moves good->bad with probability ``p_gb`` and
    bad->good with ``p_bg``; the stationary fraction of time spent bad is
    ``p_gb / (p_gb + p_bg)``.  With the default ``loss_good=0`` /
    ``loss_bad=1`` the stationary loss rate equals that fraction.
    """

    start: float
    stop: float
    p_gb: float
    p_bg: float
    loss_good: float = 0.0
    loss_bad: float = 1.0
    direction: str = "fwd"

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_direction(self.direction)
        for name in ("p_gb", "p_bg", "loss_good", "loss_bad"):
            _check_prob(name, getattr(self, name))
        if self.p_gb + self.p_bg <= 0:
            raise ValueError("p_gb + p_bg must be positive (the chain "
                             "must be able to move)")


@dataclass(frozen=True)
class BandwidthRamp:
    """Linear capacity change from the link's current rate to ``to_bps``
    over ``[start, stop]`` in ``steps`` discrete updates; the link *holds*
    ``to_bps`` afterwards (a capacity cliff is ``steps=1``)."""

    start: float
    stop: float
    to_bps: float
    steps: int = 10
    direction: str = "fwd"

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_direction(self.direction)
        _check_positive("to_bps", self.to_bps)
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class DelayRamp:
    """Linear propagation-delay change to ``to_s`` over ``[start, stop]``
    in ``steps`` updates; holds ``to_s`` afterwards."""

    start: float
    stop: float
    to_s: float
    steps: int = 10
    direction: str = "both"

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_direction(self.direction)
        if not (isfinite(self.to_s) and self.to_s >= 0):
            raise ValueError(f"to_s must be finite and >= 0, got {self.to_s}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class Jitter:
    """Random extra propagation delay over ``[start, stop)``: each packet
    independently gains ``U(0, max_extra_s)`` with probability ``p``.
    Because delayed packets can land *after* later undelayed ones, this is
    also the reordering primitive."""

    start: float
    stop: float
    max_extra_s: float
    p: float = 1.0
    direction: str = "fwd"

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_direction(self.direction)
        _check_positive("max_extra_s", self.max_extra_s)
        _check_prob("p", self.p)


Phase = Union[Blackout, LinkFlap, BurstyLoss, BandwidthRamp, DelayRamp,
              Jitter]

_PHASE_TYPES: Tuple[type, ...] = (Blackout, LinkFlap, BurstyLoss,
                                  BandwidthRamp, DelayRamp, Jitter)


class FaultSchedule:
    """Immutable, hashable sequence of impairment phases.

    Phases keep their construction order (the injector sorts nothing;
    overlapping phases compose -- e.g. a delay ramp under bursty loss).
    """

    __slots__ = ("phases",)

    def __init__(self, *phases: Phase):
        if not phases:
            raise ValueError("a FaultSchedule needs at least one phase")
        for ph in phases:
            if not isinstance(ph, _PHASE_TYPES):
                raise TypeError(f"not a fault phase: {ph!r}")
        object.__setattr__(self, "phases", tuple(phases))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("FaultSchedule is immutable")

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FaultSchedule):
            return self.phases == other.phases
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.phases)

    def __repr__(self) -> str:
        inner = ", ".join(repr(ph) for ph in self.phases)
        return f"FaultSchedule({inner})"

    # -- pickling (``__slots__`` + blocked ``__setattr__``) ----------------
    def __getstate__(self):
        return self.phases

    def __setstate__(self, state):
        object.__setattr__(self, "phases", tuple(state))

    def __reduce__(self):
        return (self.__class__, tuple(self.phases))

    @property
    def horizon(self) -> float:
        """Time of the last phase boundary."""
        return max(ph.stop for ph in self.phases)

    def describe(self) -> str:
        """Compact one-line summary for trace headers and reports."""
        kinds = [type(ph).__name__ for ph in self.phases]
        return f"{len(kinds)} phase(s): " + ", ".join(kinds)
