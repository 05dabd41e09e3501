"""Viscoelastic wave propagator (paper Section IV-B4, Appendix Eq. 4).

Robertsson-Blanch-Symes viscoelastic modeling with a single standard
linear solid relaxation mechanism: particle velocities ``v``, stresses
``sig`` and memory variables ``r`` on a staggered grid.  15 stencil
updates per timestep in 3D (3 + 6 + 6), the largest memory footprint of
the four kernels (36 fields) and the highest communication cost.
"""

from __future__ import annotations

import numpy as np

from ...dsl import (Constant, Eq, Operator, TensorTimeFunction,
                    VectorTimeFunction, div)
from ...symbolics import Derivative
from .geometry import Receiver, RickerSource, TimeAxis

__all__ = ['ViscoelasticWaveSolver', 'viscoelastic_setup']


class ViscoelasticWaveSolver:
    """Forward modeling for the viscoelastic system (Appendix Eq. 4).

    With ``pi = rho vp^2``, ``mu = rho vs^2``, stress relaxation ``t_s``
    and strain relaxations ``t_ep`` (P) / ``t_es`` (S):

    * ``v'_i   = mask (v_i + s b dj sig_ij)``                       (4a)
    * ``sig'_ii = mask (sig_ii + s (pi t_ep/t_s div v'
      - 2 mu t_es/t_s (div v' - di v'_i) + r'_ii))``                (4b)
    * ``sig'_ij = mask (sig_ij + s (mu t_es/t_s (di v'_j + dj v'_i)
      + r'_ij))``                                                   (4c)
    * ``r'_ii  = r_ii - s/t_s (r_ii + (pi t_ep/t_s - 2 mu t_es/t_s)
      div v' + 2 mu t_es/t_s di v'_i - ...)``                       (4d)
    * ``r'_ij  = r_ij - s/t_s (r_ij + mu t_es/t_s
      (di v'_j + dj v'_i))``                                        (4e)
    """

    def __init__(self, model, geometry_src=None, geometry_rec=None,
                 space_order=None, f0=0.01, mpi=None, opt=True,
                 cache=None):
        self.model = model
        self.space_order = space_order or model.space_order
        self.src = geometry_src
        self.rec = geometry_rec
        self.f0 = f0
        self.mpi = mpi
        self.opt = opt
        self.cache = cache
        self._op = None
        grid = model.grid
        self.v = VectorTimeFunction(name='v', grid=grid,
                                    space_order=self.space_order,
                                    time_order=1)
        self.sig = TensorTimeFunction(name='sig', grid=grid,
                                      space_order=self.space_order,
                                      time_order=1)
        self.r = TensorTimeFunction(name='r', grid=grid,
                                    space_order=self.space_order,
                                    time_order=1)

    def _equations(self):
        model = self.model
        grid = model.grid
        dims = grid.dimensions
        so = self.space_order
        v, sig, r = self.v, self.sig, self.r
        b, pi, mu, mask = model.b, model.pi, model.mu, model.mask
        s = grid.time_dim.spacing
        t_s, t_ep, t_es = model.relaxation_times(self.f0)
        c_ts = Constant('t_s', t_s)
        c_ep = Constant('t_ep', t_ep)
        c_es = Constant('t_es', t_es)

        # (4a) velocity updates
        eq_v = Eq(v.forward, mask * (v + s * b * div(sig, fd_order=so)))

        vf = v.forward
        div_vf = div(vf, fd_order=so)
        p_mod = pi * c_ep / c_ts      # pi * t_ep / t_s
        s_mod = mu * c_es / c_ts      # mu * t_es / t_s

        eq_r, eq_sig = [], []
        for i in range(grid.dim):
            for j in range(i, grid.dim):
                if i == j:
                    dii = Derivative(vf[i], (dims[i], 1), fd_order=so)
                    # (4d) memory variable, diagonal
                    rhs_r = r[i, i] - s / c_ts * (
                        r[i, i] + (p_mod - 2 * s_mod) * div_vf
                        + 2 * s_mod * dii)
                    eq_r.append(Eq(r[i, i].forward, mask * rhs_r))
                    # (4b) normal stress
                    rhs_s = sig[i, i] + s * (
                        p_mod * div_vf
                        - 2 * s_mod * (div_vf - dii)
                        + r[i, i].forward)
                    eq_sig.append(Eq(sig[i, i].forward, mask * rhs_s))
                else:
                    dij = (Derivative(vf[i], (dims[j], 1), fd_order=so)
                           + Derivative(vf[j], (dims[i], 1), fd_order=so))
                    # (4e) memory variable, off-diagonal
                    rhs_r = r[i, j] - s / c_ts * (r[i, j] + s_mod * dij)
                    eq_r.append(Eq(r[i, j].forward, mask * rhs_r))
                    # (4c) shear stress
                    rhs_s = sig[i, j] + s * (s_mod * dij
                                             + r[i, j].forward)
                    eq_sig.append(Eq(sig[i, j].forward, mask * rhs_s))
        return list(eq_v) + eq_r + eq_sig

    @property
    def op(self):
        if self._op is None:
            exprs = list(self._equations())
            dt = self.model.grid.time_dim.spacing
            if self.src is not None:
                for i in range(self.model.grid.dim):
                    exprs.append(self.src.inject(
                        field=self.sig[i, i].forward, expr=self.src * dt))
            if self.rec is not None:
                from ...dsl.tensor import tr
                exprs.append(self.rec.interpolate(expr=tr(self.sig)))
            self._op = Operator(exprs, name='ForwardViscoelastic',
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
        return rec_data, self.v, self.sig, summary


def viscoelastic_setup(shape=(50, 50), spacing=None, nbl=10,
                       tn=250.0, space_order=4, vp=2.2, vs=1.2, rho=2.0,
                       qp=100.0, qs=70.0, f0=0.01, comm=None, topology=None,
                       weights=None, mpi=None, nrec=None, opt=True,
                       cache=None):
    """Build a ready-to-run viscoelastic solver."""
    from .model import SeismicModel

    ndim = len(shape)
    spacing = (10.,) * ndim if spacing is None else spacing
    model = SeismicModel(shape=shape, spacing=spacing, vp=vp, vs=vs,
                         rho=rho, qp=qp, qs=qs, nbl=nbl,
                         space_order=space_order, comm=comm,
                         topology=topology, weights=weights)
    dt = model.critical_dt
    time_range = TimeAxis(start=0.0, stop=tn, step=dt)

    domain_size = np.array(model.domain_size)
    src_coords = np.empty((1, ndim))
    src_coords[0, :] = domain_size * 0.5
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

    solver = ViscoelasticWaveSolver(model, src, rec,
                                    space_order=space_order, f0=f0,
                                    mpi=mpi, opt=opt, cache=cache)
    return solver, time_range
