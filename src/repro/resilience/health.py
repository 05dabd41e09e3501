"""Numerical health guards: catch NaN/Inf/blowup near its origin.

A fault plan a user mistakenly marks non-lethal — or an unstable
discretization — can silently corrupt the solution and only be noticed
at the end of a long run.  The health guard scans every time-varying
field's domain region every ``health_check_every`` steps: a cheap local
reduction per rank, then one allgather so *all* ranks agree on the
verdict and raise the same, diagnosable :class:`NumericalHealthError`
naming the rank, field, first bad global index and value.
"""

from __future__ import annotations

import numpy as np

from ..parameters import configuration

__all__ = ['HealthGuard', 'NumericalHealthError']


class NumericalHealthError(RuntimeError):
    """A field contains NaN/Inf or exceeds the amplitude bound.

    Deliberately *not* a :class:`~repro.mpi.sim.RemoteRankError`: the
    recovery driver never auto-restarts from it (a checkpoint taken
    after the corruption began would just replay the blowup).  All
    ranks raise it collectively, so teardown stays symmetric.
    """

    def __init__(self, rank, field, index, value, timestep):
        self.rank = int(rank)
        self.field = str(field)
        self.index = tuple(int(i) for i in index)
        self.value = float(value)
        self.timestep = int(timestep)
        super().__init__(
            "numerical health check failed at timestep %d: field %r on "
            "rank %d has value %r at global index %s"
            % (timestep, field, rank, value, self.index))


class HealthGuard:
    """Periodic NaN/Inf/amplitude scans of the time-varying fields.

    Parameters
    ----------
    every : int
        Check cadence in timesteps (0 disables).
    max_amplitude : float, optional
        Absolute values above this are flagged as blowup (default
        ``configuration['health_max']``).
    """

    def __init__(self, every, max_amplitude=None):
        self.every = int(every)
        self.max_amplitude = configuration.resolve('health_max',
                                                   max_amplitude)

    def due(self, timestep, t0):
        return self.every > 0 and (timestep - t0) % self.every == 0

    def _first_bad(self, rank, functions):
        """This rank's first offending (field, global_index, value)."""
        for f in functions:
            data = f.data
            local = data.local
            bad = ~np.isfinite(local)
            np.logical_or(bad, np.abs(local) > self.max_amplitude,
                          out=bad)
            if not bad.any():
                continue
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            # local -> global: shift distributed axes by the rank offset
            glb = []
            for spec, i in zip(data.specs, idx):
                if spec.dist_index is None:
                    glb.append(i)
                else:
                    dec = data.distributor.decompositions[spec.dist_index]
                    coord = data.distributor.mycoords[spec.dist_index]
                    glb.append(i + dec.offset(coord))
            return (rank, f.name, tuple(glb), float(local[idx]))
        return None

    def check(self, comm, world, functions, timestep):
        """Scan + collective verdict; raises on *every* rank if any rank
        found corruption (lowest offending rank wins the report)."""
        rank = comm.rank if comm is not None else 0
        orig = world.orig_of[rank] if world is not None else rank
        verdict = self._first_bad(orig, functions)
        if comm is not None and comm.size > 1:
            verdicts = [v for v in comm.allgather(verdict) if v is not None]
        else:
            verdicts = [verdict] if verdict is not None else []
        if verdicts:
            bad_rank, field, index, value = min(verdicts)
            raise NumericalHealthError(bad_rank, field, index, value,
                                       timestep)
