"""Content-addressed operator build cache (Devito-style JIT caching).

The key is a canonical structural fingerprint of the build inputs
(:mod:`.fingerprint` on top of :mod:`repro.symbolics.hashing`); the
value is a :class:`~repro.codegen.artifact.KernelArtifact` — everything
a cold build produced, as plain data, rehydrated into a ready kernel
without re-running lowering, optimization, scheduling or verification.

Two tiers (:mod:`.cache`): an in-process memo and an atomically-written
on-disk store, selected by ``configuration['build_cache']``
('on' / 'memory' / 'disk' / 'off'; env ``REPRO_CACHE``, directory
``REPRO_CACHE_DIR``).  Every failure path — corrupt entry, version
drift, unresolvable rebinding — silently falls back to a cold build.
"""

from .cache import (BuildCache, clear_disk, disk_objects, disk_usage,
                    get_cache, read_disk_stats, reset_process_cache)
from .fingerprint import fingerprint_build

__all__ = ['BuildCache', 'clear_disk', 'disk_objects', 'disk_usage',
           'get_cache', 'read_disk_stats', 'reset_process_cache',
           'fingerprint_build']
