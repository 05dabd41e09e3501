"""Object-store-style array put/get with end-to-end integrity checking.

The service's inputs and results round-trip through an
:class:`ArrayStore` — the laptop-scale stand-in for the S3 bucket a
serverless imaging pipeline would use (cf. Witte et al.'s
``array_put``/``array_get``).  Each entry ``<key>.arr`` is one array
sealed under its key (:mod:`repro.ioutil`) and published atomically, so
concurrent readers always see a complete previous or complete new
version.  Every ``get`` re-verifies the seal: a torn write from a
crashed non-atomic writer, a truncation, a flipped byte or another
key's file copied over this one raises :class:`StoreCorruptionError`
naming the key instead of silently returning the wrong array.
"""

from __future__ import annotations

import os
import re

from ..ioutil import SealError, read_sealed_arrays, write_sealed_arrays

__all__ = ['ArrayStore', 'StoreError', 'StoreCorruptionError']

_PART = re.compile(r'^[A-Za-z0-9][A-Za-z0-9._-]*$')


class StoreError(RuntimeError):
    """Base class of array-store failures."""


class StoreCorruptionError(StoreError):
    """An entry exists but its bytes fail validation (torn write,
    truncation, bit flip, another key's file)."""


class ArrayStore:
    """A directory of sealed array entries addressed by string keys.

    Keys are ``/``-separated paths of ``[A-Za-z0-9._-]`` segments (e.g.
    ``job-1f3a/wavefield``); segments map to subdirectories, so all of a
    job's arrays live under one prefix and can be listed or deleted
    together.
    """

    def __init__(self, directory):
        self.directory = os.path.abspath(os.fspath(directory))

    # -- keys --------------------------------------------------------------------

    def _path(self, key):
        parts = str(key).split('/')
        if not parts or not all(_PART.match(p) for p in parts):
            raise ValueError(
                "invalid store key %r: expected /-separated segments of "
                "[A-Za-z0-9._-] not starting with a dot" % (key,))
        return os.path.join(self.directory, *parts[:-1],
                            '%s.arr' % parts[-1])

    # -- put / get ---------------------------------------------------------------

    def put(self, key, array):
        """Atomically persist ``array`` under ``key``; returns ``key``.

        The dtype, shape and byte payload are preserved exactly: a
        subsequent :meth:`get` returns a bit-identical array.
        """
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_sealed_arrays(path, str(key), {'array': array})
        return key

    def get(self, key):
        """Load the array stored under ``key``.

        Raises :class:`KeyError` when absent and
        :class:`StoreCorruptionError` when present but invalid — a bad
        entry is never silently returned.
        """
        path = self._path(key)
        try:
            return read_sealed_arrays(path, str(key))['array']
        except FileNotFoundError:
            raise KeyError(key) from None
        except SealError as exc:
            raise StoreCorruptionError(
                "entry %r: %s" % (key, exc.reason)) from None
        except OSError as exc:
            raise StoreError("cannot read %r: %s" % (key, exc)) from None

    # -- namespace ---------------------------------------------------------------

    def exists(self, key):
        return os.path.exists(self._path(key))

    def keys(self, prefix=None):
        """Sorted keys, optionally restricted to a ``/``-prefix."""
        out = []
        root = self.directory
        for dirpath, _, names in os.walk(root):
            for name in names:
                if not name.endswith('.arr'):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                key = rel[:-len('.arr')].replace(os.sep, '/')
                if prefix is None or key == prefix or \
                        key.startswith(prefix.rstrip('/') + '/'):
                    out.append(key)
        return sorted(out)

    def delete(self, key):
        """Remove one entry; returns True when something was deleted."""
        path = self._path(key)
        try:
            os.unlink(path)
        except FileNotFoundError:
            return False
        self._prune_empty_dirs(os.path.dirname(path))
        return True

    def clear(self):
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in self.keys():
            removed += bool(self.delete(key))
        return removed

    def nbytes(self, key=None):
        """On-disk bytes of one entry (or of the whole store)."""
        if key is not None:
            try:
                return os.path.getsize(self._path(key))
            except OSError:
                return 0
        return sum(self.nbytes(k) for k in self.keys())

    def prune(self, max_entries=None, max_bytes=None, prefix=None):
        """Retention sweep: drop oldest entries until the store fits.

        Entries are ranked by modification time (newest kept).  Returns
        the list of deleted keys.  With both limits ``None`` this is a
        no-op.
        """
        if max_entries is None and max_bytes is None:
            return []
        entries = []
        for key in self.keys(prefix):
            path = self._path(key)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, key, st.st_size))
        entries.sort(reverse=True)  # newest first
        kept_bytes = 0
        deleted = []
        for i, (_, key, size) in enumerate(entries):
            over_count = max_entries is not None and i >= max_entries
            over_bytes = max_bytes is not None and \
                kept_bytes + size > max_bytes
            if over_count or over_bytes:
                if self.delete(key):
                    deleted.append(key)
            else:
                kept_bytes += size
        return deleted

    def _prune_empty_dirs(self, dirname):
        root = self.directory
        while os.path.abspath(dirname) != root:
            try:
                os.rmdir(dirname)
            except OSError:
                return
            dirname = os.path.dirname(dirname)

    def __contains__(self, key):
        return self.exists(key)

    def __repr__(self):
        return 'ArrayStore(%r, %d entries)' % (self.directory,
                                               len(self.keys()))
