"""Persistent on-disk results cache.

Entries are pickles written atomically (tmp file + rename) under a content
key from :mod:`.hashing`, so concurrent workers and interrupted runs can
never leave a torn entry.  Any unreadable entry is treated as a miss and
overwritten -- the cache is always safe to delete wholesale.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import tempfile
import warnings
from typing import Any, Callable

from .hashing import code_salt

__all__ = ["ResultsCache", "atomic_write", "read_pickle", "cache_enabled",
           "default_cache", "memo", "detach_tree"]

#: Environment variable naming the cache directory.
ENV_DIR = "REPRO_CACHE_DIR"
#: Set to ``1`` (any non-empty value) to disable the persistent cache.
ENV_OFF = "REPRO_NO_CACHE"


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set to a non-empty value."""
    return not os.environ.get(ENV_OFF)


def _default_root() -> pathlib.Path:
    env = os.environ.get(ENV_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-iq-rudp"


#: What unpickling a missing, torn or foreign file raises.
_UNREADABLE = (OSError, pickle.UnpicklingError, EOFError, AttributeError,
               ImportError, IndexError)


def atomic_write(path: str | os.PathLike, payload: bytes) -> None:
    """Replace ``path`` with ``payload`` so a reader sees the old bytes or
    the new, never a part: a tmp file in the target directory (made if
    missing), then ``os.replace``.  On any failure the tmp file is removed,
    ``path`` is left as it was and the exception propagates."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_pickle(path: str | os.PathLike,
                expect: type | tuple[type, ...] | None = None) -> Any | None:
    """The object pickled at ``path``, or None when the file is missing,
    torn, foreign or holds something that is not an ``expect`` -- a stale
    or hostile file that happens to unpickle is never returned."""
    try:
        with open(path, "rb") as fh:
            value = pickle.load(fh)
    except _UNREADABLE:
        return None
    if expect is not None and not isinstance(value, expect):
        return None
    return value


class ResultsCache:
    """Keyed pickle store with hit/miss accounting.

    ``root`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-iq-rudp``.
    The directory is created lazily on first write.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = pathlib.Path(root) if root is not None else _default_root()
        self.hits = 0
        self.misses = 0
        self._write_disabled = False

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str, expect: type | tuple[type, ...] | None = None
            ) -> Any | None:
        """Stored value for ``key``, or None on miss/corruption/wrong type
        (see :func:`read_pickle`)."""
        value = read_pickle(self.path_for(key), expect)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic replace).

        Storage-level failures (read-only directory, disk full -- any
        ``OSError``) must not kill the sweep that was merely trying to
        memoise: the first one degrades this cache to read-only with a
        single warning and every later ``put`` is a silent no-op.
        Serialisation errors (unpicklable payloads) still raise -- they
        are a caller bug, not an environment condition.
        """
        if self._write_disabled:
            return
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            atomic_write(self.path_for(key), payload)
        except OSError as exc:
            self._write_disabled = True
            warnings.warn(
                f"results cache at {self.root} is not writable ({exc}); "
                "continuing without caching", RuntimeWarning, stacklevel=3)


def default_cache() -> ResultsCache:
    """A cache on the default (environment-configured) directory."""
    return ResultsCache()


def detach_tree(obj: Any) -> Any:
    """Recursively ``detach()`` every scenario result in a container.

    Experiment helpers return results nested in dicts/lists/tuples
    (e.g. Table 6's ``{rate: {row: result}}``); this walks those shapes so
    an arbitrary experiment payload can be pickled.  Returns ``obj``.
    """
    detach = getattr(obj, "detach", None)
    if callable(detach):
        detach()
    elif isinstance(obj, dict):
        for v in obj.values():
            detach_tree(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            detach_tree(v)
    return obj


def memo(key: str, fn: Callable[[], Any], *,
         cache: ResultsCache | None = None) -> Any:
    """Persistent memoisation of a named experiment run.

    The effective key mixes the caller's name with the code salt, so cached
    artifacts survive across sessions but never across code edits.  With
    the cache disabled (``REPRO_NO_CACHE``) this is just ``fn()``.
    """
    if not cache_enabled():
        return fn()
    if cache is None:
        cache = default_cache()
    digest = hashlib.sha256(
        (code_salt() + "\0" + key).encode()).hexdigest()[:40]
    value = cache.get(digest)
    if value is None:
        value = detach_tree(fn())
        try:
            cache.put(digest, value)
        except (pickle.PicklingError, TypeError, AttributeError):
            # Unpicklable payloads simply skip persistence.
            pass
    return value
