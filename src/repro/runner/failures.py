"""Typed failure results for resilient batch execution.

A sweep of hundreds of scenarios must survive one insane config: instead
of aborting the batch, the resilient :func:`~repro.runner.run_batch` path
captures each failed scenario as a :class:`FailedResult` row -- same slot
in the returned list/dict a :class:`ScenarioResult` would occupy, carrying
the classified failure kind, the worker traceback and the retry count.

Failure kinds
-------------
``"error"``
    The scenario raised a Python exception (deterministic -- never
    retried; rerunning the same config reproduces it).
``"invariant"``
    A :class:`~repro.invariants.InvariantViolation`: the run broke a
    simulation correctness law.  Deterministic, never retried.
``"timeout"``
    The per-scenario wall-clock budget expired and the worker was killed.
    Transient (host load can cause it) -- eligible for retry.
``"worker-lost"``
    The worker process died without reporting (OOM kill, ``kill -9``,
    interpreter abort).  Transient -- eligible for retry.

Ctrl-C is no scenario's failure: it propagates as ``KeyboardInterrupt``.
"""

from __future__ import annotations

__all__ = ["FailedResult", "BatchExecutionError", "TRANSIENT_KINDS"]

#: Failure kinds worth retrying: caused by the host, not the config.
TRANSIENT_KINDS = frozenset({"timeout", "worker-lost"})


class FailedResult:
    """Placeholder result for a scenario that did not produce one.

    Mirrors the :class:`~repro.experiments.common.ScenarioResult` surface
    just enough for batch plumbing (``failed``/``completed``/``trace``
    attributes, ``detach()``), but accessing ``summary`` -- the one thing
    every metric consumer reads -- raises immediately with the original
    worker traceback, so a failure can never silently contribute zeros to
    a table.
    """

    failed = True
    completed = False
    trace = None
    invariant_checks = 0
    #: Flight-recorder dump (:mod:`repro.obs.flight`) captured at the
    #: moment of failure -- the last N causal events before the crash,
    #: violation or timeout kill.  ``repro report`` renders it.
    flight = None

    def __init__(self, *, kind: str, error_type: str = "", message: str = "",
                 traceback: str = "", attempts: int = 1,
                 elapsed_s: float = 0.0, scenario: str = "",
                 flight: dict | None = None):
        self.kind = kind
        self.error_type = error_type
        self.message = message
        self.traceback = traceback
        self.attempts = attempts
        self.elapsed_s = elapsed_s
        self.scenario = scenario
        if flight is not None:
            self.flight = flight

    @property
    def transient(self) -> bool:
        """True when the failure kind is retry-eligible."""
        return self.kind in TRANSIENT_KINDS

    @property
    def summary(self) -> dict:
        raise BatchExecutionError(self)

    def __getitem__(self, key: str) -> float:
        raise BatchExecutionError(self)

    def detach(self) -> "FailedResult":
        return self

    def describe(self) -> str:
        """One-line triage string for reports and logs."""
        head = f"{self.kind}"
        if self.error_type:
            head += f" ({self.error_type})"
        if self.attempts > 1:
            head += f" after {self.attempts} attempts"
        body = self.message.strip().splitlines()
        return f"{head}: {body[0]}" if body else head

    def __repr__(self) -> str:
        return f"<FailedResult {self.describe()}>"


class BatchExecutionError(RuntimeError):
    """Raised when a batch running with ``on_error="raise"`` fails, or when
    a :class:`FailedResult`'s metrics are accessed.

    Carries the first failure (``.failure``) with its full worker
    traceback embedded in the message.
    """

    def __init__(self, failure: FailedResult):
        self.failure = failure
        msg = (f"scenario failed [{failure.kind}]"
               + (f" ({failure.error_type})" if failure.error_type else "")
               + (f" after {failure.attempts} attempts"
                  if failure.attempts > 1 else "")
               + (f": {failure.message}" if failure.message else ""))
        if failure.scenario:
            msg += f" | scenario: {failure.scenario}"
        if failure.traceback:
            msg += "\n--- worker traceback ---\n" + failure.traceback.rstrip()
        super().__init__(msg)
