"""ECho quality attributes: the application <-> transport information channel.

Paper section 2.2: "Each attribute is in the form of a <name, value> tuple.
The registration, update and query of ECho attributes are implemented via a
distributed service."  Attributes flow in both directions:

* transport -> application: exported network performance metrics
  (:data:`NET_ERROR_RATIO`, :data:`NET_RATE`, ...);
* application -> transport: descriptions of application adaptations
  (:data:`ADAPT_FREQ`, :data:`ADAPT_MARK`, :data:`ADAPT_PKTSIZE`,
  :data:`ADAPT_WHEN`, :data:`ADAPT_COND`), carried either as parameters to
  the send call (``cmwritev_attr``) or as connection state.

:class:`AttributeSet` is the lightweight tuple-set used on individual calls;
:class:`AttributeService` is the registration/update/query service (the
"distributed service" collapsed to one process, which is also how the
paper's library-based implementation behaves).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

__all__ = [
    "ADAPT_FREQ", "ADAPT_MARK", "ADAPT_PKTSIZE", "ADAPT_WHEN", "ADAPT_COND",
    "ADAPT_FEC",
    "NET_ERROR_RATIO", "NET_RATE", "NET_RTT", "NET_CWND", "RELIABILITY_TOLERANCE",
    "AttributeSet", "AttributeService",
]

# -- Application-adaptation attributes (paper section 2.3.2) ---------------
#: Degree of a frequency adaptation: fractional change in message frequency.
ADAPT_FREQ = "ADAPT_FREQ"
#: Degree of a reliability adaptation: current unmark probability in [0, 1].
ADAPT_MARK = "ADAPT_MARK"
#: Degree of a resolution adaptation: fractional reduction of message size
#: (``rate_chg``; negative values denote an increase).
ADAPT_PKTSIZE = "ADAPT_PKTSIZE"
#: Whether/when the application will adapt: "now", "pending", or "never".
ADAPT_WHEN = "ADAPT_WHEN"
#: Network conditions the adaptation was based on: mapping with keys
#: ``error_ratio`` and ``rate`` (paper: "including the error ratio and the
#: average data rate").
ADAPT_COND = "ADAPT_COND"
#: Requested FEC repair redundancy: repair segments per generation the
#: application wants the transport to emit (clamped by the transport to its
#: configured ``[r, r_max]`` band; ignored when FEC is disarmed).
ADAPT_FEC = "ADAPT_FEC"

# -- Transport-exported metrics ---------------------------------------------
NET_ERROR_RATIO = "NET_ERROR_RATIO"
NET_RATE = "NET_RATE"
NET_RTT = "NET_RTT"
NET_CWND = "NET_CWND"

#: Receiver loss tolerance registered as connection state (section 3.3 sets
#: it to 40%).
RELIABILITY_TOLERANCE = "RELIABILITY_TOLERANCE"


class AttributeSet:
    """An immutable-ish bag of ``<name, value>`` tuples.

    Cheap enough to build per send call; supports dict-style access.
    ``None`` values are treated as absent.
    """

    __slots__ = ("_d",)

    def __init__(self, mapping: Mapping[str, Any] | None = None, **kw: Any):
        d: dict[str, Any] = {}
        if mapping:
            d.update(mapping)
        d.update(kw)
        self._d = {k: v for k, v in d.items() if v is not None}

    def get(self, name: str, default: Any = None) -> Any:
        return self._d.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._d

    def __getitem__(self, name: str) -> Any:
        return self._d[name]

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        return iter(self._d.items())

    def __len__(self) -> int:
        return len(self._d)

    def __bool__(self) -> bool:
        return bool(self._d)

    def as_dict(self) -> dict[str, Any]:
        return dict(self._d)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self._d.items())
        return f"AttributeSet({inner})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AttributeSet):
            return self._d == other._d
        return NotImplemented

    def __hash__(self):
        return None  # type: ignore[return-value]  # mutable-adjacent: unhashable


class AttributeService:
    """Registration/update/query service.

    The transport publishes its exported metrics here; applications can
    query "anytime during a connection's lifetime" (section 2.1).  Updating
    and querying are plain dict operations -- matching the paper's
    observation that for the library-based implementation "the costs of
    updating and querying attributes are negligible even when done
    frequently".
    """

    def __init__(self) -> None:
        self._values: dict[str, Any] = {}
        self.updates = 0
        self.queries = 0

    def register(self, name: str, value: Any = None) -> None:
        """Declare an attribute (idempotent)."""
        self._values.setdefault(name, value)

    def update(self, name: str, value: Any) -> None:
        self._values[name] = value
        self.updates += 1

    def query(self, name: str, default: Any = None) -> Any:
        self.queries += 1
        return self._values.get(name, default)
