"""The one key of a scenario configuration.

A key must be (a) identical across processes and sessions for the same
parameters -- so it cannot use ``hash()`` or object identity -- and (b)
different whenever the parameters differ.  :func:`config_key` hashes the
full :class:`ScenarioConfig` field set and names a result everywhere it is
stored: a campaign's ``cells/KEY.pkl`` and a results cache's ``KEY.pkl``.

The simulator code is the other input a result depends on.  It is not in
the key: :func:`code_salt`, a digest over every ``repro`` source file,
names the default cache's directory instead
(:func:`repro.runner.cache.default_cache`), so any code edit misses the
whole default cache rather than serving results from a stale
implementation, while a campaign directory stays tied to its spec.
"""

from __future__ import annotations

import hashlib
import pathlib
from typing import Any

__all__ = ["code_salt", "callable_token", "field_text", "config_fingerprint",
           "config_key"]

_SALT_CACHE: str | None = None


def code_salt() -> str:
    """Digest of all ``repro`` package sources (memoised per process)."""
    global _SALT_CACHE
    if _SALT_CACHE is None:
        pkg_root = pathlib.Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _SALT_CACHE = h.hexdigest()
    return _SALT_CACHE


def callable_token(fn: Any) -> str | None:
    """Stable identity for a config's callable field (adaptation factory).

    Module-level functions and classes are identified by dotted name.
    Lambdas and local closures have no stable cross-process identity, so
    they yield ``None`` -- the config is then *uncacheable* (it still runs,
    just never through the persistent cache).
    """
    if fn is None:
        return "none"
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not qualname or not module:
        return None
    if "<lambda>" in qualname or "<locals>" in qualname:
        return None
    return f"{module}.{qualname}"


def field_text(value: Any) -> str:
    """The one stable text rendering of a config field value: fingerprints,
    campaign cell labels, per-axis report keys and ``repr(Scenario(...))``.

    ``repr`` everywhere except callables, which render by dotted name
    (:func:`callable_token`) so the text never embeds a memory address --
    two processes must print the same scenario identically.
    ``FaultSchedule``, ``TelemetryConfig`` and ``FecConfig`` define stable
    parameter-complete reprs.  A lambda has no stable name and keeps its
    ``repr``; :func:`config_fingerprint` refuses such a config.
    """
    if callable(value):
        token = callable_token(value)
        if token is not None:
            return token
    return repr(value)


def config_fingerprint(cfg: Any) -> str | None:
    """Canonical text form of a ``ScenarioConfig``, or None if uncacheable.

    Iterates the instance ``__dict__`` so new config fields are picked up
    automatically (a new field changes the fingerprint, which is the safe
    direction: old cache entries stop matching).
    """
    parts = []
    for name, value in sorted(vars(cfg).items()):
        if callable(value) and callable_token(value) is None:
            return None
        parts.append(f"{name}={field_text(value)}")
    return ";".join(parts)


def config_key(cfg: Any) -> str | None:
    """Stable, filesystem-safe key of a config, or None when it cannot be
    fingerprinted (a lambda adaptation factory)."""
    fp = config_fingerprint(cfg)
    if fp is None:
        return None
    return hashlib.sha256(fp.encode()).hexdigest()[:20]
