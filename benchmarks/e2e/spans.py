"""Spans recorded from outside the program: timing wrappers on each layer's
entry points, installed for one traced pass and removed afterwards.

A span is one call into a wrapped function: name, start, end, the span that
was open when it started (its parent) and the operation it belongs to.  A
traced pass makes millions of them, so they are folded as they close into
one row per (operation, parent name, name) holding calls, total time and
self time -- a span's self time is its duration minus the time its child
spans cover -- and only the first :data:`SAMPLE_SPANS` are also kept whole,
to show what the rows were folded from.  Everything stays in memory until
the pass ends.

Which functions are wrapped:

* the public entry points listed in :data:`ENTRY_POINTS`, together with
  every override of them in a subclass;
* the methods the engine fires as events.  These are private, so they are
  not listed here: :func:`discover_callbacks` watches ``Simulator.schedule``
  and ``Simulator.at`` while a few small scenarios run and returns whatever
  bound methods of ``repro`` classes were scheduled.  Closures scheduled as
  events cannot be wrapped and stay in the engine's own self time.

A span's layer is the package under ``repro`` whose module defines the
function (an override takes the layer of the entry point it overrides), with
two exceptions in :func:`layer_of`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

__all__ = ["ENTRY_POINTS", "Recorder", "discover_callbacks", "layer_of",
           "tracing", "wrapper_cost"]

#: Public entry points, as ``(module, qualified name)``.  A name that no
#: longer resolves is skipped and listed under ``missing`` in the trace
#: file, so that a later refactor shows up there instead of breaking the
#: benchmark.
ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator.run"),
    ("repro.sim.link", "Link.send"),
    ("repro.sim.link", "Link.send_burst"),
    ("repro.sim.node", "Host.send"),
    ("repro.sim.node", "Host.receive"),
    ("repro.sim.node", "Router.receive"),
    ("repro.sim.queues", "DropTailQueue.push"),
    ("repro.sim.queues", "DropTailQueue.push_all"),
    ("repro.sim.queues", "DropTailQueue.pop"),
    ("repro.sim.queues", "DropTailQueue.pop_all"),
    ("repro.transport.base", "WindowedSender.submit"),
    ("repro.transport.base", "WindowedSender.submit_burst"),
    ("repro.transport.base", "WindowedSender.receive"),
    ("repro.transport.base", "WindowedReceiver.receive"),
    ("repro.transport.fec", "FecSender.on_data"),
    ("repro.transport.fec", "FecReceiver.on_repair"),
    ("repro.transport.udp", "UdpSender.send"),
    ("repro.transport.udp", "UdpSink.receive"),
    ("repro.transport.udp", "UdpSink.receive_burst"),
    ("repro.experiments.common", "make_transport"),
    ("repro.core.coordination", "Coordinator.on_period"),
    ("repro.core.coordination", "Coordinator.on_send_attrs"),
    ("repro.core.coordination", "Coordinator.on_callback_result"),
    ("repro.core.callbacks", "CallbackRegistry.evaluate"),
    ("repro.middleware.application", "AdaptiveSource.start"),
    ("repro.middleware.application", "AdaptiveSource.pump"),
    ("repro.middleware.receiver", "DeliveryLog.on_deliver"),
    ("repro.analysis.stats", "flow_summary"),
    ("repro.campaign.aggregate", "aggregate"),
    ("repro.obs.metrics", "collect_scenario_metrics"),
    ("repro.obs.flight", "FlightRecorder.note"),
    ("repro.obs.flight", "FlightRecorder.dump"),
    ("repro.obs.spans", "SpanRecorder.on_segment"),
    ("repro.obs.spans", "SpanRecorder.on_transmit"),
    ("repro.obs.spans", "SpanRecorder.on_drop"),
    ("repro.obs.spans", "SpanRecorder.on_deliver"),
    ("repro.obs.spans", "SpanRecorder.on_recover"),
    ("repro.obs.spans", "SpanRecorder.finalize"),
    ("repro.faults.injector", "FaultInjector.install"),
    ("repro.invariants.checks", "InvariantChecker.check_all"),
    ("repro.invariants.checks", "InvariantChecker.final"),
    ("repro.experiments.common", "run_scenario"),
    ("repro.experiments.population", "run_population"),
    ("repro.runner.pool", "run_batch"),
    ("repro.runner.hashing", "config_key"),
    ("repro.runner.cache", "ResultsCache.get"),
    ("repro.runner.cache", "ResultsCache.put"),
    ("repro.runner.checkpoint", "SweepJournal.append"),
    ("repro.campaign.exec", "run_campaign"),
    ("repro.campaign.exec", "worker_loop"),
    ("repro.campaign.spec", "Campaign.cells"),
    ("repro.campaign.store", "CampaignStore.init"),
    ("repro.campaign.store", "CampaignStore.done_keys"),
    ("repro.campaign.store", "CampaignStore.try_claim"),
    ("repro.campaign.store", "CampaignStore.release_claim"),
    ("repro.campaign.store", "CampaignStore.store_cell"),
    ("repro.campaign.store", "CampaignStore.load_cell"),
)

#: Whole spans kept beside the folded rows.
SAMPLE_SPANS = 400

#: Layer of time spent in no wrapped function (the benchmark's own loop and
#: the unwrapped glue between an operation and its first entry point).
UNATTRIBUTED = "bench"


def layer_of(module: str) -> str:
    """Layer of a function defined in ``module``: the package under
    ``repro``, except that the UDP endpoints carry only cross traffic here
    and so count as ``traffic``, and the campaign report is ``analysis``."""
    if module == "repro.transport.udp":
        return "traffic"
    if module == "repro.campaign.aggregate":
        return "analysis"
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else UNATTRIBUTED


class Recorder:
    """Folded spans of one traced pass (see the module docstring).

    ``names[i]`` is the qualified name of span kind ``i``, ``layers[i]`` its
    layer and ``entries[i]`` the entry point it overrides (its own name when
    it overrides none), so that ``CheckedSimulator.run`` can be summed with
    ``Simulator.run``.  ``rows`` maps ``(operation, parent kind, kind)`` to
    ``[calls, total seconds, self seconds]``.  An operation's root span has
    kind 0 and parent -1.
    """

    def __init__(self):
        self.names = ["<root>"]
        self.layers = [UNATTRIBUTED]
        self.entries = ["<root>"]
        self.rows: dict[tuple[int, int, int], list] = {}
        self.stack: list[list] = []
        self.op = -1
        self.op_names: list[str] = []
        self.sample: list[tuple] = []
        self.sampling = True
        self.missing: list[str] = []
        #: Sums of values the wrapped functions returned (``hooks`` of
        #: :func:`tracing`), by hook name.
        self.tallies: dict[str, float] = {}
        #: Seconds of all root spans.
        self.process_seconds = 0.0
        #: Seconds one wrapper adds to its own span and to its parent's.
        self.cost_self = self.cost_parent = 0.0

    # -- recording ---------------------------------------------------------
    def kind(self, name: str, layer: str, entry: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.entries.append(entry)
        return len(self.names) - 1

    def _fold(self, key: tuple, dt: float, self_s: float) -> None:
        row = self.rows.get(key)
        if row is None:
            self.rows[key] = [1, dt, self_s]
        else:
            row[0] += 1
            row[1] += dt
            row[2] += self_s

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span of one operation; every span inside carries its id."""
        self.op_names.append(name)
        self.op = len(self.op_names) - 1
        del self.stack[:]
        self.stack.append([0, 0.0])
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self._fold((self.op, -1, 0), dt, dt - self.stack.pop()[1])
            self.process_seconds += dt

    # -- reading -----------------------------------------------------------
    def raw_self_s(self) -> list[float]:
        """Self seconds as measured, by span kind; they sum to
        ``process_seconds``."""
        out = [0.0] * len(self.names)
        for (_, _, kind), row in self.rows.items():
            out[kind] += row[2]
        return out

    def net_self_s(self) -> list[float]:
        """Self seconds by span kind with the wrappers' own cost taken out:
        every span spent ``cost_self`` inside its own interval and put
        ``cost_parent`` into its parent's (see :func:`wrapper_cost`)."""
        out = self.raw_self_s()
        for (_, parent, kind), row in self.rows.items():
            out[kind] -= row[0] * self.cost_self
            if parent >= 0:
                out[parent] -= row[0] * self.cost_parent
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Net self seconds by layer."""
        out: dict[str, float] = {}
        for kind, self_s in enumerate(self.net_self_s()):
            out[self.layers[kind]] = out.get(self.layers[kind], 0.0) + self_s
        return out

    def span(self, entry: str, *, under: str | None = None
             ) -> tuple[int, float, float]:
        """``(calls, total s, net self s)`` of every span whose entry point
        is ``entry``.  With ``under``, only the spans opened directly by
        that entry point are counted, and no self time is given.  Totals
        include the wrappers' cost in the spans beneath them."""
        calls, total = 0, 0.0
        for (_, parent, kind), row in self.rows.items():
            if self.entries[kind] != entry:
                continue
            if under is not None and (parent < 0
                                      or self.entries[parent] != under):
                continue
            calls += row[0]
            total += row[1]
        if under is not None:
            return calls, total, 0.0
        net = self.net_self_s()
        return calls, total, sum(s for kind, s in enumerate(net)
                                 if self.entries[kind] == entry)

    def as_dict(self) -> dict:
        """The trace file's content (see README, "Reading a trace")."""
        raw, net = self.raw_self_s(), self.net_self_s()
        total = self.process_seconds or 1.0
        net_total = sum(net) or 1.0
        layers: dict[str, dict] = {}
        calls = [0] * len(self.names)
        totals = [0.0] * len(self.names)
        for (_, _, kind), row in self.rows.items():
            calls[kind] += row[0]
            totals[kind] += row[1]
        for kind, layer in enumerate(self.layers):
            agg = layers.setdefault(layer, {"self_s": 0.0, "raw_self_s": 0.0})
            agg["self_s"] += net[kind]
            agg["raw_self_s"] += raw[kind]
        for agg in layers.values():
            agg["share_pct"] = 100.0 * agg["self_s"] / net_total
            agg["raw_share_pct"] = 100.0 * agg["raw_self_s"] / total
        t_first = self.sample[0][3] if self.sample else 0.0
        return {
            "process_seconds": self.process_seconds,
            "wrapper_cost_ns": {"self": 1e9 * self.cost_self,
                                "parent": 1e9 * self.cost_parent},
            "layers": dict(sorted(layers.items(),
                                  key=lambda kv: -kv[1]["self_s"])),
            "spans": {self.names[kind]: {
                "layer": self.layers[kind], "calls": calls[kind],
                "total_s": totals[kind], "self_s": net[kind],
                "raw_self_s": raw[kind]}
                for kind in sorted(range(len(self.names)),
                                   key=lambda k: -net[k]) if calls[kind]},
            "rows": [{"op": self.op_names[op],
                      "parent": self.names[parent] if parent >= 0 else None,
                      "name": self.names[kind], "calls": c, "total_s": t,
                      "raw_self_s": s}
                     for (op, parent, kind), (c, t, s) in sorted(
                         self.rows.items())],
            "sample": [{"id": i, "name": self.names[kind],
                        "parent": parent, "op": self.op_names[op],
                        "start_s": start - t_first, "end_s": end - t_first}
                       for i, (kind, parent, op, start, end)
                       in enumerate(self.sample)],
            "tallies": self.tallies,
            "missing": self.missing,
        }


def wrapper_cost(calls: int = 5000, repeats: int = 5) -> tuple[float, float]:
    """What one wrapper costs, measured on this host now: the seconds a
    wrapped call to an empty two-argument function shows as its own self
    time, and the seconds it adds to the self time of the span that made
    the call."""
    def empty(self, pkt):
        pass

    def caller(fn):
        for _ in range(calls):
            fn(rec, None)

    own, added = [], []
    for _ in range(repeats):
        rec = Recorder()
        inner_kind = rec.kind("empty", UNATTRIBUTED, "empty")
        outer_kind = rec.kind("caller", UNATTRIBUTED, "caller")
        wrapped = _wrap(empty, inner_kind, rec)
        outer = _wrap(caller, outer_kind, rec)
        with rec.operation("bare"):
            outer(empty)
        with rec.operation("wrapped"):
            outer(wrapped)
        own.append(rec.rows[(1, outer_kind, inner_kind)][2] / calls)
        added.append((rec.rows[(1, 0, outer_kind)][2]
                      - rec.rows[(0, 0, outer_kind)][2]) / calls)
    return sorted(own)[repeats // 2], max(sorted(added)[repeats // 2], 0.0)


def _wrap(fn, kind: int, rec: Recorder, hook=None):
    """The timing wrapper.  ``hook(tallies, result)`` sees what ``fn``
    returned; it must not keep the result."""
    stack = rec.stack
    clock = perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not stack:       # outside any operation: not part of the pass
            return fn(*args, **kwargs)
        frame = [kind, 0.0]
        sampled = rec.sampling
        if sampled:
            # Reserve the slot now so that ids follow start order and a
            # child span can name its parent's id.
            frame.append(len(rec.sample))
            rec.sample.append(None)
            rec.sampling = len(rec.sample) < SAMPLE_SPANS
        stack.append(frame)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(rec.tallies, result)
            return result
        finally:
            t1 = clock()
            dt = t1 - t0
            stack.pop()
            parent = stack[-1]
            parent[1] += dt
            rec._fold((rec.op, parent[0], kind), dt, dt - frame[1])
            if sampled:
                rec.sample[frame[2]] = (
                    kind, parent[2] if len(parent) > 2 else None,
                    rec.op, t0, t1)

    wrapper.__bench_original__ = fn
    return wrapper


def _overrides(cls, name):
    """``cls`` and every loaded subclass that defines ``name`` itself."""
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c in seen:
            continue
        seen.append(c)
        todo.extend(c.__subclasses__())
    return [c for c in seen if inspect.isfunction(c.__dict__.get(name))]


def _repro_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


@contextlib.contextmanager
def tracing(rec: Recorder, callbacks=(), hooks=None):
    """Install the wrappers for the ``with`` body; always remove them.

    ``callbacks`` is what :func:`discover_callbacks` returned.  ``hooks``
    maps an entry point's qualified name to ``hook(tallies, result)``.
    """
    hooks = hooks or {}
    undo: list[tuple] = []      # (object, attribute, original)
    wrapped: set = set()

    def wrap_attr(owner, attr, fn, name, layer, entry):
        if fn in wrapped or hasattr(fn, "__bench_original__"):
            return
        wrapped.add(fn)
        kind = rec.kind(name, layer, entry)
        new = _wrap(fn, kind, rec, hooks.get(entry))
        undo.append((owner, attr, fn))
        setattr(owner, attr, new)
        return new

    try:
        for module, qual in ENTRY_POINTS:
            try:
                mod = importlib.import_module(module)
                obj = mod
                parts = qual.split(".")
                for part in parts[:-1]:
                    obj = getattr(obj, part)
                target = obj.__dict__[parts[-1]]
            except (ImportError, AttributeError, KeyError):
                rec.missing.append(f"{module}:{qual}")
                continue
            layer = layer_of(module)
            if inspect.isclass(obj):
                for cls in _overrides(obj, parts[-1]):
                    fn = cls.__dict__[parts[-1]]
                    wrap_attr(cls, parts[-1], fn, fn.__qualname__, layer,
                              qual)
            elif inspect.isfunction(target):
                # A module-level function is imported by name elsewhere, so
                # every ``repro`` module holding it gets the wrapper.
                holders = [(m, a) for m in _repro_modules()
                           for a, v in list(vars(m).items()) if v is target]
                new = None
                for m, a in holders:
                    if new is None:
                        new = wrap_attr(m, a, target, qual, layer, qual)
                    else:
                        undo.append((m, a, target))
                        setattr(m, a, new)
        for cls, attr in callbacks:
            fn = cls.__dict__.get(attr)
            if inspect.isfunction(fn):
                wrap_attr(cls, attr, fn, fn.__qualname__,
                          layer_of(fn.__module__), fn.__qualname__)
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


@contextlib.contextmanager
def discover_callbacks():
    """Yields a list that, while the body runs, collects the ``(class,
    attribute)`` of every ``repro`` bound method handed to the engine as an
    event."""
    from repro.sim.engine import Simulator
    found: list = []
    seen: set = set()
    schedule, at = Simulator.schedule, Simulator.at

    def note(fn):
        func = getattr(fn, "__func__", None)
        if func is None or func in seen:
            return
        seen.add(func)
        if not getattr(func, "__module__", "").startswith("repro."):
            return
        for cls in type(fn.__self__).__mro__:
            if cls.__dict__.get(func.__name__) is func:
                found.append((cls, func.__name__))
                return

    @functools.wraps(schedule)
    def noting_schedule(self, delay, fn, *args, **kwargs):
        note(fn)
        return schedule(self, delay, fn, *args, **kwargs)

    @functools.wraps(at)
    def noting_at(self, when, fn, *args, **kwargs):
        note(fn)
        return at(self, when, fn, *args, **kwargs)

    Simulator.schedule, Simulator.at = noting_schedule, noting_at
    try:
        yield found
    finally:
        Simulator.schedule, Simulator.at = schedule, at
