"""Cost of the live-observability tier on a campaign worker's hot path.

A campaign worker with heartbeats armed pays, per cell: two throttled
``beat`` calls (claim + complete -- between actual writes each is one
monotonic-clock read and a compare) and at most one atomic heartbeat file
write (tmp + rename; the 1s throttle caps the write rate for sub-second
cells, and for slower cells one write disappears into >= 1s of real
work).  Disarmed (``REPRO_HEARTBEAT=0``) the writer is never built: the
cost is one env lookup per worker, bounded by the second bench.

The estimate is compositional -- worst-case per-cell live cost over the
measured cost of a deliberately small reference cell -- because an
end-to-end A/B of a multi-process campaign is too noisy to gate at single
percents.  The heartbeat *write* term is modelled at the throttle's actual
cap of one write per second of work (``write_ns / 1e9``): for sub-second
cells the 1s throttle, not the per-cell verbs, bounds the write rate, and
for slower cells one write per cell is even less.  The estimate is gated
at :data:`BUDGET_PCT`.
"""

import time

from repro.experiments.common import ScenarioConfig, run_scenario
from repro.obs.live import HeartbeatWriter

#: Throttled (non-writing) ``beat`` entries per cell: one from ``claim``
#: before the run, one from ``complete`` after, plus the per-pass keepalive
#: -- rounded up to be generous.
BEATS_PER_CELL = 4

#: Ceiling on the armed tier, in per cent of a cell's work.
BUDGET_PCT = 3.0


def _best_s(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_live_overhead(benchmark, tmp_path):
    """Heartbeat cost as a fraction of real per-cell work."""
    # -- throttled beat: the no-write fast path ----------------------------
    n = 100_000
    hb = HeartbeatWriter(tmp_path / "hb", "bench", min_interval_s=3600.0)

    def beat_loop():
        for _ in range(n):
            hb.beat()

    beat_ns = _best_s(beat_loop) / n * 1e9

    # -- forced write: payload build + tmp + atomic rename -----------------
    n_writes = 200

    def write_loop():
        for _ in range(n_writes):
            hb.beat(force=True)

    write_ns = _best_s(write_loop, repeats=3) / n_writes * 1e9

    # -- reference cell: small even by test-suite standards (200 frames;
    # real campaign cells run thousands), so the ratio is pessimistic ------
    cfg = ScenarioConfig(workload="greedy", n_frames=200, time_cap=60.0)

    def cell():
        return run_scenario(cfg).detach()

    cell_ns = _best_s(cell) * 1e9
    # Writes are throttle-capped at one per second of work, independent of
    # how many cells fit in that second.
    live_overhead_pct = 100.0 * (BEATS_PER_CELL * beat_ns / cell_ns
                                 + write_ns / 1e9)

    print(f"\nlive tier: {BEATS_PER_CELL} beats x {beat_ns:.0f} ns per "
          f"{cell_ns / 1e6:.2f} ms cell + a {write_ns / 1e3:.0f} us write "
          f"per second = {live_overhead_pct:.3f}%")
    assert live_overhead_pct < BUDGET_PCT, (
        f"live-tier overhead {live_overhead_pct:.2f}% of per-cell work "
        f"exceeds the {BUDGET_PCT:g}% budget")
    assert benchmark(cell).summary["completed"] == 1.0


def bench_live_disarmed_noop(benchmark, monkeypatch):
    """The disarmed check stays negligible: ``REPRO_HEARTBEAT=0`` makes
    every writer construction a no-op behind one env lookup."""
    from repro.obs.live import heartbeat_enabled
    monkeypatch.setenv("REPRO_HEARTBEAT", "0")

    n = 100_000

    def disarmed_loop():
        for _ in range(n):
            heartbeat_enabled()

    disarmed_ns = _best_s(disarmed_loop) / n * 1e9
    print(f"\nlive tier disarmed: {disarmed_ns:.0f} ns per check")
    assert disarmed_ns < 5_000, (
        f"disarmed live-tier check costs {disarmed_ns:.0f}ns; expected "
        "sub-microsecond env lookups")
    assert benchmark(heartbeat_enabled) is False
