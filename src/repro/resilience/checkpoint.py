"""Distributed, versioned, CRC-checked snapshots of solver state.

A checkpoint of step ``t`` captures the state *at the top of timestep
``t``* (i.e. after steps ``< t`` completed): every discrete function's
full local allocation (all time buffers, halo included) plus — on the
coordinator rank only — the replicated sparse-function arrays (source
wavelets, receiver rows written so far).  Because the timestep loop is
deterministic, resuming at ``t`` from a checkpoint replays the remaining
steps bit-identically.

Layout (per :class:`Checkpointer` directory)::

    <dir>/step-000012/rank0.npz      one npz per rank, written by that
    <dir>/step-000012/rank1.npz      rank only (no gather to rank 0)
    <dir>/step-000012/manifest.json  written *last*, atomically, by the
                                     coordinator — its presence marks
                                     the checkpoint complete

Rank files are keyed by **original** rank (``world.orig_of``) and the
manifest names every block by its global ranges, so a checkpoint
restores onto any decomposition and rank count: restart, resume and
shrink all land it through the one block mover,
:func:`repro.resilience.elastic.repartition`.
Every file lands via tmp + ``os.replace`` (:mod:`repro.ioutil`), and the
manifest records a CRC32 per rank file: a writer killed mid-checkpoint
leaves either a complete older version or no manifest at all — never a
truncated snapshot.  The last ``keep`` checkpoints are retained.
"""

from __future__ import annotations

import io
import os
import re
import shutil
import zlib

import numpy as np

from ..ioutil import atomic_write_bytes, atomic_write_json

__all__ = ['Checkpointer', 'CheckpointError']

MANIFEST_VERSION = 1

_STEP_DIR_RE = re.compile(r'^step-(\d+)$')


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or validated."""


def _crc32(data):
    return zlib.crc32(data) & 0xFFFFFFFF


class Checkpointer:
    """Writes/reads the snapshots of one operator's state.

    One instance per rank (like the Operator itself); all ranks point at
    the same ``directory``.  ``save`` is a collective over the
    communicator passed in; reading back goes through
    :func:`~repro.resilience.elastic.restore_checkpoint`.

    Parameters
    ----------
    directory : str
        Checkpoint root (shared by all ranks).
    keep : int
        Number of most-recent checkpoints retained (older step
        directories are pruned by the coordinator after each save).
    """

    def __init__(self, directory, keep=2):
        self.directory = os.fspath(directory)
        self.keep = max(int(keep), 1)

    # -- layout -----------------------------------------------------------

    def step_dir(self, step):
        return os.path.join(self.directory, 'step-%06d' % step)

    def manifest_path(self, step):
        return os.path.join(self.step_dir(step), 'manifest.json')

    def rank_file(self, step, orig_rank):
        return os.path.join(self.step_dir(step), 'rank%d.npz' % orig_rank)

    def steps_on_disk(self):
        """Steps that have a (not-yet-validated) manifest, ascending."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        steps = []
        for name in names:
            m = _STEP_DIR_RE.match(name)
            if m and os.path.exists(self.manifest_path(int(m.group(1)))):
                steps.append(int(m.group(1)))
        return sorted(steps)

    # -- writing ----------------------------------------------------------

    def save(self, step, comm, world, functions, sparse_functions,
             distributor):
        """Snapshot the current state as checkpoint ``step`` (collective).

        Each rank writes its own npz; per-file CRC32s are gathered on
        the coordinator (communicator rank 0), which then atomically
        writes the manifest — the completion marker — and prunes old
        checkpoints.  Returns the number of bytes this rank wrote.
        """
        orig = world.orig_of[comm.rank]
        sdir = self.step_dir(step)
        os.makedirs(sdir, exist_ok=True)

        payload = {}
        for f in functions:
            payload['f:%s' % f.name] = f.data.with_halo
        if comm.rank == 0:
            for s in sparse_functions:
                payload['s:%s' % s.name] = s.data
        buf = io.BytesIO()
        np.savez(buf, **payload)
        data = buf.getvalue()
        fname = 'rank%d.npz' % orig
        atomic_write_bytes(os.path.join(sdir, fname), data)

        ranges = [[int(a), int(b)] for a, b in distributor.local_ranges()]
        entry = {'rank': int(orig),
                 'coords': [int(c) for c in distributor.mycoords],
                 'ranges': ranges, 'file': fname,
                 'crc32': _crc32(data), 'nbytes': len(data)}
        entries = comm.gather(entry, root=0)
        if comm.rank == 0:
            fmeta = {}
            for f in functions:
                fmeta[f.name] = {
                    'nbuffers': int(getattr(f, 'nbuffers', 0)) or None,
                    'halo': [[int(l), int(r)] for l, r in f.halo],
                    'dtype': str(f.dtype)}
            smeta = {s.name: {'file': fname, 'rank': int(orig),
                              'shape': [int(n) for n in s.data.shape],
                              'dtype': str(s.data.dtype)}
                     for s in sparse_functions}
            manifest = {'version': MANIFEST_VERSION, 'step': int(step),
                        'world_size': int(comm.size),
                        'topology': [int(d) for d in distributor.topology],
                        'grid_shape': [int(n) for n in distributor.shape],
                        'functions': fmeta, 'sparse': smeta,
                        'ranks': sorted(entries, key=lambda e: e['rank'])}
            atomic_write_json(self.manifest_path(step), manifest)
            world.recovery_stats['checkpoints_written'] += 1
            world.recovery_stats['checkpoint_bytes'] += sum(
                e['nbytes'] for e in entries)
            self.prune(keep_step=step)
        return len(data)

    def prune(self, keep_step=None):
        """Drop all but the ``keep`` newest checkpoints (coordinator)."""
        steps = self.steps_on_disk()
        if keep_step is not None and keep_step not in steps:
            steps.append(keep_step)
            steps.sort()
        for step in steps[:-self.keep] if len(steps) > self.keep else []:
            shutil.rmtree(self.step_dir(step), ignore_errors=True)

    # -- validation -------------------------------------------------------

    def load_manifest(self, step):
        import json
        try:
            with open(self.manifest_path(step)) as f:
                return json.load(f)
        except (OSError, ValueError) as err:
            raise CheckpointError("unreadable manifest for checkpoint "
                                  "step %d: %s" % (step, err)) from None

    def validate(self, step):
        """Full validation of checkpoint ``step``; the manifest on
        success, None when invalid (missing/corrupt rank files)."""
        try:
            manifest = self.load_manifest(step)
        except CheckpointError:
            return None
        if manifest.get('version') != MANIFEST_VERSION:
            return None
        for entry in manifest.get('ranks', ()):
            path = os.path.join(self.step_dir(step), entry['file'])
            try:
                with open(path, 'rb') as f:
                    data = f.read()
            except OSError:
                return None
            if len(data) != entry['nbytes'] or \
                    _crc32(data) != entry['crc32']:
                return None
        return manifest

    def latest_valid(self):
        """(step, manifest) of the newest checkpoint that validates.

        Raises :class:`CheckpointError` when none exists — recovery has
        nothing to resume from.
        """
        for step in reversed(self.steps_on_disk()):
            manifest = self.validate(step)
            if manifest is not None:
                return step, manifest
        raise CheckpointError(
            "no valid checkpoint found under %r" % self.directory)

    # -- reading ----------------------------------------------------------

    def read_rank_blob(self, step, manifest, orig_rank):
        """CRC-verified npz contents of one rank's file as a dict."""
        entry = next((e for e in manifest['ranks']
                      if e['rank'] == orig_rank), None)
        if entry is None:
            raise CheckpointError(
                "checkpoint step %d has no data for original rank %d"
                % (step, orig_rank))
        path = os.path.join(self.step_dir(step), entry['file'])
        with open(path, 'rb') as f:
            data = f.read()
        if _crc32(data) != entry['crc32']:
            raise CheckpointError(
                "CRC mismatch in %s (checkpoint step %d)" % (path, step))
        with np.load(io.BytesIO(data)) as z:
            return {k: z[k] for k in z.files}
