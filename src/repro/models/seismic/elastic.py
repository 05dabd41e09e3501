"""Isotropic elastic wave propagator (paper Section IV-B3).

Virieux velocity-stress formulation on a staggered grid: a coupled
system of a vectorial (particle velocity) and a tensorial (stress) PDE,
first order in time (2 time buffers), 9 wavefield parameters — heavily
memory-bound with ~4.4x the communication volume of the acoustic model
(22 fields total working set in 3D).
"""

from __future__ import annotations

import numpy as np

from ...dsl import (Eq, Operator, TensorTimeFunction, VectorTimeFunction,
                    div)
from ...symbolics import Derivative
from .geometry import Receiver, RickerSource, TimeAxis

__all__ = ['ElasticWaveSolver', 'elastic_setup']


class ElasticWaveSolver:
    """Forward modeling for the isotropic elastic wave equation.

    Updates (with s = dt, multiplicative sponge ``mask``):

    * ``v'   = mask * (v + s * b * div(tau))``
    * ``tau' = mask * (tau + s * (lam * div(v') * I
      + mu * (grad(v') + grad(v')^T)))``

    The stress update reads the *fresh* velocities, which under DMP
    forces a halo exchange of ``v`` in the middle of every timestep —
    the inter-cluster exchange the compiler must detect.
    """

    def __init__(self, model, geometry_src=None, geometry_rec=None,
                 space_order=None, mpi=None, opt=True, cache=None):
        self.model = model
        self.space_order = space_order or model.space_order
        self.src = geometry_src
        self.rec = geometry_rec
        self.mpi = mpi
        self.opt = opt
        self.cache = cache
        self._op = None
        grid = model.grid
        self.v = VectorTimeFunction(name='v', grid=grid,
                                    space_order=self.space_order,
                                    time_order=1)
        self.tau = TensorTimeFunction(name='tau', grid=grid,
                                      space_order=self.space_order,
                                      time_order=1)

    def _equations(self):
        model = self.model
        grid = model.grid
        dims = grid.dimensions
        v, tau = self.v, self.tau
        b, lam, mu, mask = model.b, model.lam, model.mu, model.mask
        s = grid.time_dim.spacing
        so = self.space_order

        # velocity update: v' = mask * (v + s*b*div(tau))
        eq_v = Eq(v.forward, mask * (v + s * b * div(tau, fd_order=so)))

        # stress update reads the fresh velocities v.forward
        vf = v.forward
        div_vf = div(vf, fd_order=so)
        eq_tau = []
        for i in range(grid.dim):
            for j in range(i, grid.dim):
                dij = (Derivative(vf[i], (dims[j], 1), fd_order=so)
                       + Derivative(vf[j], (dims[i], 1), fd_order=so))
                rhs = tau[i, j] + s * (mu * dij)
                if i == j:
                    rhs = rhs + s * lam * div_vf
                eq_tau.append(Eq(tau[i, j].forward, mask * rhs))
        return list(eq_v) + eq_tau

    @property
    def op(self):
        if self._op is None:
            exprs = list(self._equations())
            dt = self.model.grid.time_dim.spacing
            if self.src is not None:
                # explosive source: inject into the normal stresses
                for i in range(self.model.grid.dim):
                    exprs.append(self.src.inject(
                        field=self.tau[i, i].forward,
                        expr=self.src * dt))
            if self.rec is not None:
                # record the trace of the stress tensor (pressure-like)
                from ...dsl.tensor import tr
                exprs.append(self.rec.interpolate(expr=tr(self.tau)))
            self._op = Operator(exprs, name='ForwardElastic',
                                mpi=self.mpi, opt=self.opt,
                                cache=self.cache)
        return self._op

    def forward(self, time_M=None, dt=None, **apply_kwargs):
        dt = dt if dt is not None else self.model.critical_dt
        kwargs = dict(apply_kwargs)
        kwargs['dt'] = dt
        if time_M is not None:
            kwargs['time_M'] = time_M
        summary = self.op.apply(**kwargs)
        rec_data = self.rec.data if self.rec is not None else None
        return rec_data, self.v, self.tau, summary


def elastic_setup(shape=(50, 50), spacing=None, nbl=10, tn=250.0,
                  space_order=4, vp=2.0, vs=1.0, rho=1.8, f0=0.015,
                  comm=None, topology=None, weights=None, mpi=None,
                  nrec=None, opt=True, cache=None):
    """Build a ready-to-run elastic solver (layered medium, Ricker src)."""
    from .model import SeismicModel

    ndim = len(shape)
    spacing = (10.,) * ndim if spacing is None else spacing
    model = SeismicModel(shape=shape, spacing=spacing, vp=vp, vs=vs,
                         rho=rho, nbl=nbl, space_order=space_order,
                         comm=comm, topology=topology, weights=weights)
    dt = model.critical_dt
    time_range = TimeAxis(start=0.0, stop=tn, step=dt)

    domain_size = np.array(model.domain_size)
    src_coords = np.empty((1, ndim))
    src_coords[0, :] = domain_size * 0.5
    src_coords[0, -1] = domain_size[-1] * 0.5
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

    solver = ElasticWaveSolver(model, src, rec, space_order=space_order,
                               mpi=mpi, opt=opt, cache=cache)
    return solver, time_range
