"""Distributed, versioned, sealed snapshots of solver state.

A checkpoint of step ``t`` captures the state *at the top of timestep
``t``* (i.e. after steps ``< t`` completed): every discrete function's
full local allocation (all time buffers, halo included) plus — on the
coordinator rank only — the replicated sparse-function arrays (source
wavelets, receiver rows written so far).  Because the timestep loop is
deterministic, resuming at ``t`` from a checkpoint replays the remaining
steps bit-identically.

Layout (per :class:`Checkpointer` directory)::

    <dir>/step-000012/rank0.arr      one sealed array file per rank,
    <dir>/step-000012/rank1.arr      written by that rank only (no
                                     gather to rank 0)
    <dir>/step-000012/manifest.json  sealed JSON, written *last* by the
                                     coordinator — its presence marks
                                     the checkpoint complete

Rank files are keyed by **original** rank (``world.orig_of``) and the
manifest names every block by its global ranges, so a checkpoint
restores onto any decomposition and rank count: restart, resume and
shrink all land it through the one block mover,
:func:`repro.resilience.elastic.repartition`.
Every file is sealed under its place in the checkpoint
(``step-000012/rank1``, ``step-000012/manifest``; see
:mod:`repro.ioutil`) and lands atomically: a writer killed
mid-checkpoint leaves either a complete older version or no manifest at
all, and a torn, flipped, stale or misplaced file fails its seal, which
makes the whole step invalid.  The last ``keep`` checkpoints are
retained.
"""

from __future__ import annotations

import os
import re
import shutil

from ..ioutil import (SealError, read_sealed, read_sealed_arrays,
                      read_sealed_json, write_sealed_arrays,
                      write_sealed_json)
from ..parameters import configuration

__all__ = ['Checkpointer', 'CheckpointError']

#: 2: rank files and the manifest became sealed files
MANIFEST_VERSION = 2

_STEP_DIR_RE = re.compile(r'^step-(\d+)$')


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or validated."""


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
    keep : int, optional
        Number of most-recent checkpoints retained (older step
        directories are pruned by the coordinator after each save;
        default ``configuration['checkpoint_keep']``).
    """

    def __init__(self, directory, keep=None):
        self.directory = os.fspath(directory)
        self.keep = configuration.resolve('checkpoint_keep', keep)

    # -- layout -----------------------------------------------------------

    def step_dir(self, step):
        return os.path.join(self.directory, 'step-%06d' % step)

    def manifest_path(self, step):
        return os.path.join(self.step_dir(step), 'manifest.json')

    def rank_file(self, step, orig_rank):
        return os.path.join(self.step_dir(step), 'rank%d.arr' % orig_rank)

    @staticmethod
    def _ident(step, name):
        """What a file of checkpoint ``step`` is sealed under."""
        return 'step-%06d/%s' % (step, name)

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

        Each rank writes its own sealed array file; their sizes are
        gathered on the coordinator (communicator rank 0), which then
        writes the manifest — the completion marker — and prunes old
        checkpoints.  Returns the number of bytes this rank wrote.
        """
        orig = world.orig_of[comm.rank]
        os.makedirs(self.step_dir(step), exist_ok=True)

        arrays = {'f:%s' % f.name: f.data.with_halo for f in functions}
        if comm.rank == 0:
            for s in sparse_functions:
                arrays['s:%s' % s.name] = s.data
        nbytes = write_sealed_arrays(self.rank_file(step, orig),
                                     self._ident(step, 'rank%d' % orig),
                                     arrays)

        ranges = [[int(a), int(b)] for a, b in distributor.local_ranges()]
        entry = {'rank': int(orig),
                 'coords': [int(c) for c in distributor.mycoords],
                 'ranges': ranges, 'nbytes': nbytes}
        entries = comm.gather(entry, root=0)
        if comm.rank == 0:
            fmeta = {}
            for f in functions:
                fmeta[f.name] = {
                    'nbuffers': int(getattr(f, 'nbuffers', 0)) or None,
                    'halo': [[int(l), int(r)] for l, r in f.halo],
                    'dtype': str(f.dtype)}
            smeta = {s.name: {'rank': int(orig),
                              'shape': [int(n) for n in s.data.shape],
                              'dtype': str(s.data.dtype)}
                     for s in sparse_functions}
            manifest = {'version': MANIFEST_VERSION, 'step': int(step),
                        'world_size': int(comm.size),
                        'topology': [int(d) for d in distributor.topology],
                        'grid_shape': [int(n) for n in distributor.shape],
                        'functions': fmeta, 'sparse': smeta,
                        'ranks': sorted(entries, key=lambda e: e['rank'])}
            write_sealed_json(self.manifest_path(step),
                              self._ident(step, 'manifest'), manifest)
            world.recovery_stats['checkpoints_written'] += 1
            world.recovery_stats['checkpoint_bytes'] += sum(
                e['nbytes'] for e in entries)
            self.prune(keep_step=step)
        return nbytes

    def prune(self, keep_step=None):
        """Drop all but the ``keep`` newest checkpoints (coordinator)."""
        steps = self.steps_on_disk()
        if keep_step is not None and keep_step not in steps:
            steps.append(keep_step)
            steps.sort()
        for step in steps[:-self.keep] if len(steps) > self.keep else []:
            shutil.rmtree(self.step_dir(step), ignore_errors=True)

    # -- validation -------------------------------------------------------

    def validate(self, step):
        """Full validation of checkpoint ``step``; the manifest on
        success, None when invalid (a missing or failing file)."""
        try:
            manifest = read_sealed_json(self.manifest_path(step),
                                        self._ident(step, 'manifest'))
            if manifest.get('version') != MANIFEST_VERSION:
                return None
            for entry in manifest['ranks']:
                read_sealed(self.rank_file(step, entry['rank']),
                            self._ident(step, 'rank%d' % entry['rank']))
        except (OSError, SealError):
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

    def read_rank_blob(self, step, orig_rank):
        """The arrays of one rank's file, as a dict."""
        try:
            return read_sealed_arrays(self.rank_file(step, orig_rank),
                                      self._ident(step, 'rank%d' % orig_rank))
        except (OSError, SealError) as err:
            raise CheckpointError("checkpoint step %d: %s"
                                  % (step, err)) from None
