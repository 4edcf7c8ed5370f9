"""The one keyed pickle store: the results cache and a campaign's cells.

Entries are pickles written atomically (tmp file + rename) under the
config's key from :mod:`.hashing`, so concurrent workers and interrupted
runs can never leave a torn entry.  Any unreadable entry is treated as a
miss and overwritten -- the cache is always safe to delete wholesale.  A
:class:`ResultsCache` is exactly the directory it is given:
:func:`default_cache` puts the code salt in that directory's name, and a
campaign directory's ``cells/`` is one (:mod:`repro.campaign.store`).

The store decides no policy: a write that fails raises.  Memoising is
best effort, and that is the caller's rule (:mod:`.pool`'s
``_cache_put``); a campaign cell that cannot be stored fails its run.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import tempfile
from typing import Any

from .hashing import code_salt

__all__ = ["ResultsCache", "atomic_write", "read_pickle", "cache_enabled",
           "default_cache"]

#: Environment variable naming the cache directory.
ENV_DIR = "REPRO_CACHE_DIR"
#: Set to ``1`` (any non-empty value) to disable the persistent cache.
ENV_OFF = "REPRO_NO_CACHE"


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set to a non-empty value."""
    return not os.environ.get(ENV_OFF)


#: What unpickling a missing, torn or foreign file raises (malformed
#: opcodes raise ``ValueError``, ``UnicodeDecodeError`` or ``TypeError``).
_UNREADABLE = (OSError, pickle.UnpicklingError, EOFError, AttributeError,
               ImportError, IndexError, ValueError, TypeError)


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
    """Keyed pickle store with hit/miss accounting: ``root/KEY.pkl``.

    The directory is created lazily on first write.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.pkl"

    def keys(self) -> set[str]:
        """Keys with an entry file (one ``listdir``, no unpickling: cheap
        enough to poll; a torn entry is caught when it is read)."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return set()
        return {n[:-4] for n in names if n.endswith(".pkl")}

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

    def put(self, key: str, value: Any, payload: bytes | None = None
            ) -> None:
        """Store ``value`` under ``key`` (atomic replace).  ``payload`` is
        ``value`` already pickled, when the caller has it.  Raises what
        pickling or writing raises: nothing is stored then."""
        if payload is None:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write(self.path_for(key), payload)


def default_cache() -> ResultsCache:
    """The cache in ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-iq-rudp``),
    in the subdirectory named by the code salt's first 16 characters: a
    code edit opens an empty directory, so no entry outlives the sources
    that computed it."""
    env = os.environ.get(ENV_DIR)
    base = (pathlib.Path(env) if env
            else pathlib.Path.home() / ".cache" / "repro-iq-rudp")
    return ResultsCache(base / code_salt()[:16])
