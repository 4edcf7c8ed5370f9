"""The one keyed pickle store: the results cache and a campaign's cells.

Entries are pickles written atomically (tmp file + rename) under the
config's key from :mod:`.hashing`, so concurrent workers and interrupted
runs can never leave a torn entry; each starts with :data:`HEADER`.  Any
unreadable entry, one of another :data:`FORMAT` too, is treated as a miss
and overwritten -- the cache is always safe to delete wholesale.  A
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

__all__ = ["ResultsCache", "FORMAT", "FormatError", "atomic_write",
           "write_pickle", "load_pickle", "read_pickle", "cache_enabled",
           "default_cache"]

#: The on-disk format of every stored pickle (its header), campaign manifest
#: (``"version"``) and journal frame (its tag).  Changing what a stored
#: result holds bumps it and adds no shim (DESIGN.md, "On-disk format").
FORMAT = 5
_MAGIC = b"repro-iq-rudp format "
HEADER = _MAGIC + b"%d\n" % FORMAT    # the first bytes of a stored pickle

#: Environment variable naming the cache directory.
ENV_DIR = "REPRO_CACHE_DIR"
#: Set to ``1`` (any non-empty value) to disable the persistent cache.
ENV_OFF = "REPRO_NO_CACHE"


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set to a non-empty value."""
    return not os.environ.get(ENV_OFF)


#: What reading a missing, torn, foreign or older file raises (malformed
#: opcodes raise ``ValueError``, ``UnicodeDecodeError`` or ``TypeError``).
_UNREADABLE = (OSError, pickle.UnpicklingError, EOFError, AttributeError,
               ImportError, IndexError, ValueError, TypeError)


class FormatError(ValueError):
    """A stored file of another on-disk format, refused by name."""


#: How a pickle stored bare -- format 1, before the header -- starts.
_BARE = {b"\x80%c" % p for p in range(2, pickle.HIGHEST_PROTOCOL + 1)}


def atomic_write(path: str | os.PathLike, *chunks: bytes) -> None:
    """Replace ``path`` with ``chunks`` so a reader sees the old bytes or
    the new, never a part: a tmp file in the target directory (made if
    missing), then ``os.replace``.  On any failure the tmp file is removed,
    ``path`` is left as it was and the exception propagates."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_pickle(path: str | os.PathLike, value: Any,
                 payload: bytes | None = None) -> None:
    """Store ``value`` at ``path``: :data:`HEADER`, then its pickle
    (``payload``, when the caller has it), written atomically."""
    if payload is None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write(path, HEADER, payload)


def load_pickle(path: str | os.PathLike) -> Any:
    """The object :func:`write_pickle` stored at ``path``; a file without
    :data:`HEADER` raises :class:`FormatError` or, foreign, ``ValueError``."""
    with open(path, "rb") as fh:
        head = fh.read(len(HEADER))
        if head == HEADER:
            return pickle.load(fh)
    stamped = head.startswith(_MAGIC)
    if not stamped and head[:2] not in _BARE:
        raise ValueError("no on-disk format header")
    found = (head[len(_MAGIC):].split(b"\n")[0].decode("ascii", "replace")
             if stamped else "1")
    raise FormatError(f"{os.fspath(path)} is in on-disk format {found}; "
                      f"this repro reads format {FORMAT} only (re-run to "
                      f"rewrite it)")


def read_pickle(path: str | os.PathLike,
                expect: type | tuple[type, ...] | None = None) -> Any | None:
    """The object stored at ``path``, or None when the file is missing,
    torn, of another format, foreign or holds something that is not an
    ``expect`` -- a stale or hostile file is never returned."""
    try:
        value = load_pickle(path)
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
        """Store ``value`` under ``key`` (:func:`write_pickle`).
        ``payload`` is ``value`` already pickled, when the caller has it.
        Raises what pickling or writing raises: nothing is stored then."""
        write_pickle(self.path_for(key), value, payload)


def default_cache() -> ResultsCache:
    """The cache in ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-iq-rudp``),
    in the subdirectory named by the code salt's first 16 characters: a
    code edit opens an empty directory, so no entry outlives the sources
    that computed it."""
    env = os.environ.get(ENV_DIR)
    base = (pathlib.Path(env) if env
            else pathlib.Path.home() / ".cache" / "repro-iq-rudp")
    return ResultsCache(base / code_salt()[:16])
