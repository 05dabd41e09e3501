"""The two-tier content-addressed build cache.

Tier 1 is an in-process memo (fingerprint -> :class:`KernelArtifact`,
shared by every Operator of the process — including the thread-per-rank
SPMD runs, hence the lock).  Tier 2 is an on-disk store of entries,
each the artifact payload as JSON sealed under its fingerprint
(:mod:`repro.ioutil`), published atomically so concurrent writers and
killed processes can never leave a torn entry behind.

On-disk layout (under ``configuration['cache_dir']``)::

    <dir>/
      <fp[:2]>/<fp>.json   # one sealed entry per fingerprint
      so/k_<key>.so        # compiled objects, one per set of equations
                           # and toolchain, shared by the entries above
      stats.json           # cumulative hit/miss counters across processes

*Any* problem reading an entry back — a seal that fails (truncation,
bit flip, an entry copied over another, an old format), artifact
version drift, unresolvable rebinding — demotes the lookup to a miss
and the operator builds cold.  A bad cache entry can therefore cost
time, never correctness.

Per-process counters are merged into ``stats.json`` at interpreter exit
(and on :meth:`BuildCache.flush_stats`).  The merge is read-modify-write
without a lock: concurrent exits may drop each other's deltas, which is
acceptable for what the file is — a monitoring signal (the CI warm-run
gate only asserts *non-zero* hits), not an accounting ledger.
"""

from __future__ import annotations

import atexit
import json
import os
import threading

from ..codegen.artifact import KernelArtifact
from ..ioutil import (atomic_write_bytes, atomic_write_json, file_digest,
                      read_sealed_json, write_sealed_json)
from ..parameters import configuration

__all__ = ['BuildCache', 'get_cache', 'reset_process_cache',
           'read_disk_stats', 'disk_usage', 'disk_objects', 'clear_disk']

#: statistics fields (all monotonic counters except saved_seconds)
_STAT_KEYS = ('hits', 'memory_hits', 'disk_hits', 'misses', 'stores',
              'errors', 'saved_seconds', 'hit_bytes')


def _zero_stats():
    return {k: 0.0 if k == 'saved_seconds' else 0 for k in _STAT_KEYS}


class BuildCache:
    """One cache instance: a mode, a directory, a memo and counters
    (``None`` for either: ``configuration['build_cache']`` /
    ``['cache_dir']``)."""

    def __init__(self, mode=None, directory=None):
        self.mode = configuration.resolve('build_cache', mode)
        self.directory = os.fspath(configuration.resolve('cache_dir',
                                                         directory))
        self._memo = {}
        self._lock = threading.Lock()
        self.stats = _zero_stats()
        self._flushed = _zero_stats()
        self._atexit_registered = False

    # -- tiers ---------------------------------------------------------------------

    @property
    def enabled(self):
        return self.mode != 'off'

    @property
    def memory_enabled(self):
        return self.mode in ('on', 'memory')

    @property
    def disk_enabled(self):
        return self.mode in ('on', 'disk')

    def _entry_path(self, key):
        return os.path.join(self.directory, key[:2], '%s.json' % key)

    # -- lookup / store -------------------------------------------------------------

    def lookup(self, key):
        """Return ``(artifact, tier)`` or ``(None, None)``.

        Never raises: disk problems count as ``errors`` and miss.  A
        disk hit is promoted into the memory tier (when enabled) so the
        compile()d code object gets reused by later builds.
        """
        if self.memory_enabled:
            with self._lock:
                artifact = self._memo.get(key)
            if artifact is not None:
                return artifact, 'memory'
        if self.disk_enabled:
            artifact = self._disk_lookup(key)
            if artifact is not None:
                if self.memory_enabled:
                    with self._lock:
                        self._memo.setdefault(key, artifact)
                return artifact, 'disk'
        return None, None

    def _disk_lookup(self, key):
        try:
            return KernelArtifact.from_payload(
                read_sealed_json(self._entry_path(key), key))
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - any defect means cold build
            with self._lock:
                self.stats['errors'] += 1
            return None

    def store(self, key, artifact):
        """Populate both enabled tiers after a cold build.

        Counts a *store* only — the caller records the miss (exactly
        once, whether or not the artifact turned out to be storable).
        """
        with self._lock:
            self.stats['stores'] += 1
            if self.memory_enabled:
                self._memo[key] = artifact
        if self.disk_enabled:
            try:
                payload = artifact.to_payload()
                self._persist_shared_object(payload)
                path = self._entry_path(key)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                write_sealed_json(path, key, payload)
            except OSError:
                with self._lock:
                    self.stats['errors'] += 1
        self._ensure_atexit()

    def _persist_shared_object(self, payload):
        """Publish a compiled backend's .so into ``<dir>/so/``.

        The cold build leaves the object in a per-process scratch
        directory that dies with the process; a disk entry must point at
        something durable.  Objects keep their content name
        (:func:`repro.codegen.jit.object_names`), so every entry built
        from the same equations — each rank, each decomposition —
        points at one file.  A file already there is kept only if it
        *is* the fresh build, byte for byte: a torn or tampered copy is
        replaced, or no later start could ever hit.  The payload's
        ``so_path`` and ``so_checksum`` are rewritten *in place*
        (before the entry is sealed) to the file actually published,
        so the shared memory-tier artifact also outlives the scratch
        directory.
        """
        src = payload.get('so_path')
        if payload.get('backend') != 'c' or not src:
            return
        dst = os.path.join(self.directory, 'so', os.path.basename(src))
        if src != dst and not (os.path.isfile(dst) and file_digest(dst)
                               == payload['so_checksum']):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(src, 'rb') as f:
                atomic_write_bytes(dst, f.read())
            payload['so_checksum'] = file_digest(dst)
        payload['so_path'] = dst

    # -- accounting ------------------------------------------------------------------

    def note_hit(self, artifact, tier, saved_seconds=0.0):
        """Record one successful warm build (rehydration succeeded)."""
        with self._lock:
            self.stats['hits'] += 1
            self.stats['%s_hits' % tier] += 1
            self.stats['saved_seconds'] += max(float(saved_seconds), 0.0)
            self.stats['hit_bytes'] += artifact.nbytes
        self._ensure_atexit()

    def note_miss(self, nerrors=0):
        """Record one cold build that could not be (re)used."""
        with self._lock:
            self.stats['misses'] += 1
            self.stats['errors'] += int(nerrors)

    # -- persistent statistics ----------------------------------------------------

    def _ensure_atexit(self):
        if self._atexit_registered or not self.disk_enabled:
            return
        self._atexit_registered = True
        atexit.register(self.flush_stats)

    def flush_stats(self):
        """Merge this process' counter deltas into ``<dir>/stats.json``."""
        if not self.disk_enabled:
            return None
        with self._lock:
            delta = {k: self.stats[k] - self._flushed[k]
                     for k in _STAT_KEYS}
            self._flushed = dict(self.stats)
        if not any(delta.values()):
            return None
        path = os.path.join(self.directory, 'stats.json')
        merged = read_disk_stats(self.directory)
        for k in _STAT_KEYS:
            merged[k] = merged.get(k, 0) + delta[k]
        try:
            os.makedirs(self.directory, exist_ok=True)
            atomic_write_json(path, merged)
        except OSError:
            return None
        return path

    def clear(self):
        """Drop the memo and (when disk-enabled) every disk entry."""
        with self._lock:
            self._memo.clear()
        if self.disk_enabled:
            clear_disk(self.directory)

    def __repr__(self):
        return ('BuildCache(%s, dir=%r, %d memoized, hits=%d, misses=%d)'
                % (self.mode, self.directory, len(self._memo),
                   self.stats['hits'], self.stats['misses']))


# -- module-level registry -------------------------------------------------------------

_caches = {}
_caches_lock = threading.Lock()


def get_cache(cache=None):
    """Resolve the ``cache=`` Operator kwarg into a cache, or None.

    A :class:`BuildCache` instance is used as-is; anything else is a
    ``configuration['build_cache']`` value (``None``: the configured
    mode; ``True``/``False``: 'on'/'off'; a mode string) resolved
    against ``configuration['cache_dir']``.  Returns ``None`` when
    caching is off.  Instances are process-wide singletons per
    (mode, directory) so the memory tier is shared across Operators.
    """
    if isinstance(cache, BuildCache):
        return cache if cache.enabled else None
    mode = configuration.resolve('build_cache', cache)
    if mode == 'off':
        return None
    directory = os.path.abspath(configuration['cache_dir'])
    ckey = (mode, directory)
    with _caches_lock:
        obj = _caches.get(ckey)
        if obj is None:
            obj = _caches[ckey] = BuildCache(mode, directory)
    return obj


def reset_process_cache():
    """Drop every in-process cache instance (test isolation helper)."""
    with _caches_lock:
        for obj in _caches.values():
            obj.flush_stats()
        _caches.clear()


# -- disk introspection (shared with the CLI) --------------------------------------------


def read_disk_stats(directory):
    """The cumulative ``stats.json`` counters (zeros when absent)."""
    path = os.path.join(os.fspath(directory), 'stats.json')
    try:
        with open(path, encoding='utf-8') as f:
            data = json.load(f)
    except (OSError, ValueError):
        return _zero_stats()
    out = _zero_stats()
    for k in _STAT_KEYS:
        if isinstance(data.get(k), (int, float)):
            out[k] = data[k]
    return out


def _iter_entries(directory):
    directory = os.fspath(directory)
    try:
        shards = sorted(os.listdir(directory))
    except OSError:
        return
    for shard in shards:
        sub = os.path.join(directory, shard)
        if len(shard) != 2 or not os.path.isdir(sub):
            continue
        for name in sorted(os.listdir(sub)):
            if name.endswith('.json'):
                yield os.path.join(sub, name)


def disk_usage(directory):
    """``(nentries, nbytes)`` of the on-disk tier."""
    nentries = nbytes = 0
    for path in _iter_entries(directory):
        try:
            nbytes += os.path.getsize(path)
        except OSError:
            continue
        nentries += 1
    return nentries, nbytes


def disk_objects(directory):
    """Number of compiled objects in the on-disk tier (one per set of
    equations and toolchain, however many entries point at it)."""
    try:
        names = os.listdir(os.path.join(os.fspath(directory), 'so'))
    except OSError:
        return 0
    return sum(1 for name in names if name.endswith('.so'))


def clear_disk(directory):
    """Delete every entry (and the stats file); returns entries removed."""
    removed = 0
    for path in _iter_entries(directory):
        try:
            os.unlink(path)
            removed += 1
        except OSError:
            pass
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass  # not empty / already gone
    so_dir = os.path.join(os.fspath(directory), 'so')
    try:
        names = os.listdir(so_dir)
    except OSError:
        names = []
    for name in names:
        try:
            os.unlink(os.path.join(so_dir, name))
        except OSError:
            pass
    try:
        os.rmdir(so_dir)
    except OSError:
        pass
    try:
        os.unlink(os.path.join(os.fspath(directory), 'stats.json'))
    except OSError:
        pass
    return removed
