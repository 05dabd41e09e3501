"""Isotropic acoustic wave propagator (paper Section IV-B1).

Second order in time, single scalar PDE with a Laplacian — the classic
memory-bound "star" stencil benchmark.  Working set: 5 fields
(3 time buffers of u + m + damp).
"""

from __future__ import annotations

import numpy as np

from ...dsl import Eq, Operator, TimeFunction, solve
from .geometry import Receiver, RickerSource, TimeAxis

__all__ = ['AcousticWaveSolver', 'acoustic_setup']


class AcousticWaveSolver:
    """Forward modeling for the isotropic acoustic wave equation.

    Implements the paper's Listing 9:
    ``eq = m * u.dt2 - u.laplace + damp * u.dt`` solved for ``u.forward``.
    """

    def __init__(self, model, geometry_src, geometry_rec=None,
                 space_order=None, mpi=None, opt=True, cache=None):
        self.model = model
        self.space_order = space_order or model.space_order
        self.src = geometry_src
        self.rec = geometry_rec
        self.mpi = mpi
        self.opt = opt
        self.cache = cache
        self._op = None
        self.u = TimeFunction(name='u', grid=model.grid,
                              space_order=self.space_order, time_order=2)

    def _equations(self):
        m, damp, u = self.model.m, self.model.damp, self.u
        pde = m * u.dt2 - u.laplace + damp * u.dt
        return [Eq(u.forward, solve(pde, u.forward))]

    @property
    def op(self):
        if self._op is None:
            u = self.u
            m = self.model.m
            dt = self.model.grid.time_dim.spacing
            exprs = list(self._equations())
            if self.src is not None:
                exprs.append(self.src.inject(field=u.forward,
                                             expr=self.src * dt ** 2 / m))
            if self.rec is not None:
                exprs.append(self.rec.interpolate(expr=u))
            self._op = Operator(exprs, name='ForwardAcoustic',
                                mpi=self.mpi, opt=self.opt,
                                cache=self.cache)
        return self._op

    def forward(self, time_M=None, dt=None, **apply_kwargs):
        """Run forward modeling; returns (receiver data, u, summary)."""
        dt = dt if dt is not None else self.model.critical_dt
        kwargs = dict(apply_kwargs)
        kwargs['dt'] = dt
        if time_M is not None:
            kwargs['time_M'] = time_M
        summary = self.op.apply(**kwargs)
        rec_data = self.rec.data if self.rec is not None else None
        return rec_data, self.u, summary


def acoustic_setup(shape=(50, 50), spacing=None, nbl=10, tn=250.0,
                   space_order=4, vp=1.5, f0=0.025, comm=None,
                   topology=None, weights=None, mpi=None, nrec=None,
                   opt=True, cache=None):
    """Build a ready-to-run acoustic solver on a layered model.

    Mirrors ``examples/seismic/acoustic/acoustic_example.py`` of the
    paper's artifact: source at the top-center, a line of receivers near
    the surface, Ricker wavelet, CFL-stable dt.
    """
    from .model import SeismicModel

    ndim = len(shape)
    spacing = (10.,) * ndim if spacing is None else spacing
    if np.isscalar(vp):
        # two-layer model: slower on top, faster at depth; a broadcast
        # view of one depth profile, so no rank holds a global array
        depth = np.full(shape[-1], vp, dtype=np.float32)
        depth[shape[-1] // 2:] = vp * 1.5
        v = np.broadcast_to(depth, shape)
    else:
        v = vp
    model = SeismicModel(shape=shape, spacing=spacing, vp=v, nbl=nbl,
                         space_order=space_order, comm=comm,
                         topology=topology, weights=weights)
    dt = model.critical_dt
    time_range = TimeAxis(start=0.0, stop=tn, step=dt)

    domain_size = np.array(model.domain_size)
    src_coords = np.empty((1, ndim))
    src_coords[0, :] = domain_size * 0.5
    src_coords[0, -1] = model.spacing[-1]  # near-surface source
    src = RickerSource(name='src', grid=model.grid, f0=f0,
                       time_range=time_range, coordinates=src_coords)

    rec = None
    if nrec is None:
        nrec = shape[0]
    if nrec:
        rec_coords = np.empty((nrec, ndim))
        rec_coords[:, 0] = np.linspace(0.0, domain_size[0], nrec)
        for d in range(1, ndim - 1):
            rec_coords[:, d] = domain_size[d] * 0.5
        rec_coords[:, -1] = 2 * model.spacing[-1]
        rec = Receiver(name='rec', grid=model.grid, npoint=nrec,
                       nt=time_range.num, coordinates=rec_coords)

    solver = AcousticWaveSolver(model, src, rec, space_order=space_order,
                                mpi=mpi, opt=opt, cache=cache)
    return solver, time_range
