"""One pool of supervised, reusable workers: timeouts, retries, SIGINT.

Every scenario that runs outside this process runs here, the only module
that starts one.  :func:`run_supervised` keeps up to ``jobs`` children,
started on demand and alive for one call, each looping over its pipe:
receive a config, run the worker, send the outcome.

* a scenario that **raises** reports a classified failure (crash
  isolation), and its child takes the next task;
* a scenario that **hangs** past its wall-clock budget is sent SIGTERM
  (which the child converts to :class:`TimeoutKilled`, giving
  ``run_scenario`` a moment to send its flight-recorder dump), then
  killed and classified ``"timeout"``; a fresh child takes the slot;
* a child that **dies silently** (OOM kill, ``kill -9``) is detected by
  pipe EOF and classified ``"worker-lost"``;
* transient kinds are **retried** with exponential backoff, bounded by
  ``retries`` (a backoff is a ready-time in a heap, not a sleep);
* **SIGINT** belongs to this process: children ignore it (a terminal
  Ctrl-C signals the whole process group), and the pool kills them and
  re-raises ``KeyboardInterrupt``, landing nothing for unfinished tasks.

With ``jobs=1`` and no timeout there is no worker to lose or kill, so each
task runs in this process.  Children are forked after the caller may have
opened files (a campaign's journal): they never write an inherited handle
and exit through ``os._exit``, which flushes no inherited buffer.
Scheduling (completion order, retries) never changes a result.
"""

from __future__ import annotations

import heapq
import itertools
import math
import multiprocessing as mp
import pickle
import signal
import time as _time
import traceback
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable

from ..invariants import InvariantViolation
from .failures import BatchExecutionError, FailedResult, TRANSIENT_KINDS

__all__ = ["run_supervised", "describe_config", "classify_exception",
           "TimeoutKilled"]

#: Grace period between SIGTERM and SIGKILL on a timed-out worker: long
#: enough for the child to unwind through ``run_scenario`` and send its
#: flight dump, short enough not to stall the batch.
_TERM_GRACE_S = 1.0


class TimeoutKilled(BaseException):
    """Raised inside a timed-out worker by its SIGTERM handler.

    A ``BaseException`` (like ``KeyboardInterrupt``) so ordinary
    ``except Exception`` recovery blocks in scenario code cannot swallow
    the kill; ``run_scenario``'s forensics wrapper still sees it pass by
    and attaches the flight dump for the failure report.
    """


def describe_config(cfg) -> str:
    """Short triage label for failure rows."""
    return f"{cfg.transport}/{cfg.workload}/seed={cfg.seed}"


def classify_exception(exc: BaseException) -> str:
    """Failure kind for a raised exception (see :mod:`.failures`)."""
    if isinstance(exc, TimeoutKilled):
        return "timeout"
    return "invariant" if isinstance(exc, InvariantViolation) else "error"


def _fields(exc: BaseException) -> tuple:
    """The exception being handled as failure fields: kind, type name,
    message, traceback and the flight dump ``run_scenario`` attached."""
    return (classify_exception(exc), type(exc).__name__, str(exc),
            traceback.format_exc(), getattr(exc, "flight_dump", None))


def _failed(cfg, fields: tuple, **kw) -> FailedResult:
    kind, error_type, message, tb, flight = fields
    return FailedResult(kind=kind, error_type=error_type, message=message,
                        traceback=tb, scenario=describe_config(cfg),
                        flight=flight, **kw)


def _failure(kind: str, message: str, flight=None) -> tuple:
    """The outcome message of a failure no exception reported."""
    return ("fail", (kind, "", message, "", flight), None)


def _child_main(conn, parent_end, worker: Callable) -> None:
    """Pool-child loop: receive a config, run ``worker``, send the outcome
    -- ``("ok", result)`` or ``("fail", fields, pickled exception)`` --
    until the parent closes its end of the pipe (or dies)."""

    def _on_term(signum, frame):
        raise TimeoutKilled("killed at wall-clock timeout")

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _on_term)
    parent_end.close()  # else this copy would keep EOF from ever arriving
    while True:
        try:
            cfg = conn.recv()
        except EOFError:
            return
        try:
            msg = ("ok", worker(cfg))
        except BaseException as exc:
            try:
                exc_pickle = pickle.dumps(exc)
            except Exception:
                exc_pickle = None
            msg = ("fail", _fields(exc), exc_pickle)
        try:
            conn.send(msg)
        except Exception as exc:
            # Result not picklable: report as a deterministic error rather
            # than dying silently (which would read as worker-lost).
            conn.send(_failure("error", f"result not transferable: {exc}",
                               getattr(msg[1], "flight", None)))


def _start_child(worker: Callable):
    """Start one pool child; returns it and the parent's end of its pipe."""
    ctx = mp.get_context()
    ours, theirs = ctx.Pipe()
    proc = ctx.Process(target=_child_main, args=(theirs, ours, worker),
                       daemon=True)
    proc.start()
    theirs.close()  # the child holds the only copy of its end now
    return proc, ours


def _kill(proc, conn) -> None:
    try:
        proc.kill()
    except Exception:
        pass
    proc.join()
    conn.close()


def _terminate_collect(proc, conn):
    """SIGTERM a timed-out worker, give it a grace period to unwind and
    report its flight dump, then hard-kill regardless.  Returns the dump
    or None."""
    flight = None
    try:
        proc.terminate()
        if conn.poll(_TERM_GRACE_S):
            msg = conn.recv()
            if msg[0] == "fail":
                flight = msg[1][4]
    except Exception:
        pass  # a worker too wedged to report still gets killed
    _kill(proc, conn)
    return flight


def run_supervised(tasks, worker: Callable, *, jobs: int = 1,
                   timeout: float | None = None, retries: int = 0,
                   retry_backoff_s: float = 0.05, capture: bool = True,
                   on_result: Callable[[int, Any], None]) -> None:
    """Run ``tasks`` (an iterable of ``(index, cfg)``, pulled only when a
    slot is free) and hand each final (non-retried) outcome to
    ``on_result(index, value)`` as it lands.

    With ``capture`` every failure lands as a :class:`FailedResult`.
    Without, the first failure stops dispatch, the running tasks land, and
    the worker's own exception is raised -- :class:`BatchExecutionError`
    when it cannot cross the pipe, or for a timeout or a lost worker.
    ``KeyboardInterrupt`` kills the children and propagates; unfinished
    tasks land nothing.  A ``timeout`` that is not positive and finite, a
    negative ``retries`` or a ``retry_backoff_s`` that is not
    non-negative and finite raises ``ValueError`` before any task is
    pulled.
    """
    if timeout is not None and not 0 < timeout < math.inf:  # refuses NaN
        raise ValueError(
            f"timeout must be positive and finite, got {timeout!r}")
    if retries < 0:
        raise ValueError(f"retries cannot be negative, got {retries!r}")
    if not 0 <= retry_backoff_s < math.inf:
        raise ValueError(f"retry_backoff_s must be non-negative and finite, "
                         f"got {retry_backoff_s!r}")
    tasks = iter(tasks)
    if jobs == 1 and timeout is None:
        for index, cfg in tasks:
            try:
                value = worker(cfg)
            except Exception as exc:
                if not capture:
                    raise
                value = _failed(cfg, _fields(exc))
            on_result(index, value)
        return

    idle: list = []  # (process, conn) waiting for a task
    running: dict = {}  # conn -> (process, task, deadline, started_at)
    backoff: list = []  # retries waiting: (ready_at, tiebreak, task)
    attempts: dict[int, int] = {}
    order = itertools.count()
    error = None  # first failure without capture: (FailedResult, pickle)

    def _land(task, msg, elapsed: float) -> None:
        nonlocal error
        index, cfg = task
        if msg[0] == "ok":
            on_result(index, msg[1])
            return
        _, fields, exc_pickle = msg
        if fields[0] in TRANSIENT_KINDS and attempts[index] <= retries:
            delay = retry_backoff_s * (2 ** (attempts[index] - 1))
            heapq.heappush(backoff, (_time.monotonic() + delay,
                                     next(order), task))
            return
        failed = _failed(cfg, fields, attempts=attempts[index],
                         elapsed_s=elapsed)
        if capture:
            on_result(index, failed)
        elif error is None:
            error = (failed, exc_pickle)

    def _dispatch() -> None:
        """Fill the free slots: retries whose backoff is over first."""
        while error is None and len(running) < jobs:
            if backoff and backoff[0][0] <= _time.monotonic():
                task = heapq.heappop(backoff)[2]
            elif (task := next(tasks, None)) is None:
                return
            proc, conn = idle.pop() if idle else _start_child(worker)
            attempts[task[0]] = attempts.get(task[0], 0) + 1
            try:
                conn.send(task[1])
            except OSError:
                pass  # the child died idle: its EOF reads as lost
            except Exception as exc:  # the config does not pickle
                idle.append((proc, conn))
                _land(task, ("fail", _fields(exc), None), 0.0)
                continue
            now = _time.monotonic()
            running[conn] = (proc, task, None if timeout is None
                             else now + timeout, now)

    try:
        while True:
            _dispatch()
            if not running:
                if error is None and backoff:
                    # Everything left is backing off; sleep to the nearest.
                    _time.sleep(max(backoff[0][0] - _time.monotonic(), 0.0))
                    continue
                break

            # Wake at the nearest deadline or backoff expiry, whichever
            # comes first; None blocks until some worker reports.
            wake = [dl for _, _, dl, _ in running.values() if dl is not None]
            if backoff and len(running) < jobs:
                wake.append(backoff[0][0])
            done = _conn_wait(list(running), timeout=(
                max(min(wake) - _time.monotonic(), 0.0) if wake else None))

            now = _time.monotonic()
            for conn in done:
                proc, task, _, started = running.pop(conn)
                try:
                    outcome = conn.recv_bytes()
                except Exception:  # pipe EOF: the worker died on us
                    _kill(proc, conn)
                    msg = _failure("worker-lost", "worker process died "
                                   f"without reporting (exit code "
                                   f"{proc.exitcode})")
                else:
                    idle.append((proc, conn))
                    _dispatch()  # the child works on while this one lands
                    try:
                        msg = pickle.loads(outcome)
                    except Exception as exc:
                        msg = ("fail", _fields(exc), None)
                _land(task, msg, now - started)

            for conn in [c for c, (_, _, dl, _) in running.items()
                         if dl is not None and now >= dl]:
                proc, task, _, started = running[conn]
                flight = _terminate_collect(proc, conn)
                del running[conn]
                _land(task, _failure("timeout", f"exceeded {timeout:g}s "
                                     "wall-clock budget", flight),
                      now - started)
    finally:
        for conn, (proc, _, _, _) in running.items():
            _kill(proc, conn)
        # Close every pipe before joining any child: a child forked later
        # holds a copy of an earlier child's parent end, so the earlier
        # one sees EOF only once the later one has exited.
        for _, conn in idle:
            conn.close()
        for proc, _ in idle:
            proc.join()

    if error is not None:
        failed, exc_pickle = error
        try:
            exc = pickle.loads(exc_pickle)
        except Exception:
            raise BatchExecutionError(failed) from None
        raise exc from BatchExecutionError(failed)

