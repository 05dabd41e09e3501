"""Anisotropic acoustic (TTI) wave propagator (paper Section IV-B2).

The pseudo-acoustic tilted-transversely-isotropic system (Zhang/Duveneck
style): two coupled scalar fields ``p`` and ``q`` propagated with a
*rotated* anisotropic Laplacian whose axes follow spatially varying tilt
(theta) and azimuth (phi) angles.  The rotation is expressed through
nested first derivatives with trigonometric coefficient fields, yielding
the paper's Figure 6b stencil: memory reads spanning three 2-D planes and
the highest operational intensity of the four kernels (12 fields) — by
far the highest when expanded as written; with the inner directional
derivative stored once per point (cross-iteration redundancy
elimination, ``opt=True``) its flop count drops about sixfold.
"""

from __future__ import annotations

import numpy as np

from ...dsl import Eq, Operator, TimeFunction, solve
from ...symbolics import Derivative, cos, sin, sqrt
from .geometry import Receiver, RickerSource, TimeAxis

__all__ = ['TTIWaveSolver', 'tti_setup', 'rotated_second_derivative']


def rotated_second_derivative(field, angles, fd_order):
    """``Gzz(f) = D_z~(D_z~(f))``: second derivative along the rotated
    symmetry axis.

    ``angles`` is (theta,) in 2D or (theta, phi) in 3D (Functions).  The
    directional derivative is

    * 2D:  ``D = sin(theta) d/dx + cos(theta) d/dz``
    * 3D:  ``D = sin(theta)cos(phi) d/dx + sin(theta)sin(phi) d/dy
      + cos(theta) d/dz``

    matching the paper's Appendix Equation (2) (up to the axis naming).
    """
    grid = field.grid
    dims = grid.dimensions

    def directional(expr):
        if grid.dim == 2:
            theta, = angles
            return (sin(theta) * Derivative(expr, (dims[0], 1),
                                            fd_order=fd_order)
                    + cos(theta) * Derivative(expr, (dims[1], 1),
                                              fd_order=fd_order))
        theta, phi = angles
        return (sin(theta) * cos(phi) * Derivative(expr, (dims[0], 1),
                                                   fd_order=fd_order)
                + sin(theta) * sin(phi) * Derivative(expr, (dims[1], 1),
                                                     fd_order=fd_order)
                + cos(theta) * Derivative(expr, (dims[2], 1),
                                          fd_order=fd_order))

    return directional(directional(field))


class TTIWaveSolver:
    """Forward modeling for the pseudo-acoustic TTI system.

    * ``m p.dt2 + damp p.dt = (1+2*eps) H_perp(p) + sqrt(1+2*dlt) Gzz(q)``
    * ``m q.dt2 + damp q.dt = sqrt(1+2*dlt) H_perp(p) + Gzz(q)``

    with ``H_perp = laplace - Gzz`` the rotated horizontal operator.
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
        self.p = TimeFunction(name='p', grid=grid,
                              space_order=self.space_order, time_order=2)
        self.q = TimeFunction(name='q', grid=grid,
                              space_order=self.space_order, time_order=2)

    def _equations(self):
        model = self.model
        grid = model.grid
        p, q = self.p, self.q
        so = self.space_order
        m, damp = model.m, model.damp
        eps, dlt = model.epsilon, model.delta
        if grid.dim == 2:
            angles = (model.theta,)
        else:
            angles = (model.theta, model.phi)

        gzz_p = rotated_second_derivative(p, angles, so)
        gzz_q = rotated_second_derivative(q, angles, so)
        hperp_p = p.laplace - gzz_p

        pde_p = (m * p.dt2 + damp * p.dt
                 - (1 + 2 * eps) * hperp_p - sqrt(1 + 2 * dlt) * gzz_q)
        pde_q = (m * q.dt2 + damp * q.dt
                 - sqrt(1 + 2 * dlt) * hperp_p - gzz_q)
        return [Eq(p.forward, solve(pde_p, p.forward)),
                Eq(q.forward, solve(pde_q, q.forward))]

    @property
    def op(self):
        if self._op is None:
            exprs = list(self._equations())
            dt = self.model.grid.time_dim.spacing
            m = self.model.m
            if self.src is not None:
                exprs.append(self.src.inject(field=self.p.forward,
                                             expr=self.src * dt ** 2 / m))
                exprs.append(self.src.inject(field=self.q.forward,
                                             expr=self.src * dt ** 2 / m))
            if self.rec is not None:
                exprs.append(self.rec.interpolate(expr=self.p + self.q))
            self._op = Operator(exprs, name='ForwardTTI', mpi=self.mpi,
                                opt=self.opt, cache=self.cache)
        return self._op

    def forward(self, time_M=None, dt=None, **apply_kwargs):
        dt = dt if dt is not None else self.model.critical_dt
        kwargs = dict(apply_kwargs)
        kwargs['dt'] = dt
        if time_M is not None:
            kwargs['time_M'] = time_M
        summary = self.op.apply(**kwargs)
        rec_data = self.rec.data if self.rec is not None else None
        return rec_data, self.p, self.q, summary


def tti_setup(shape=(50, 50), spacing=None, nbl=10, tn=250.0,
              space_order=4, vp=1.5, epsilon=0.15, delta=0.1,
              theta=np.pi / 12, phi=np.pi / 10, f0=0.02, comm=None,
              topology=None, weights=None, mpi=None, nrec=None, opt=True,
              cache=None):
    """Build a ready-to-run TTI solver with constant Thomsen parameters."""
    from .model import SeismicModel

    ndim = len(shape)
    spacing = (10.,) * ndim if spacing is None else spacing
    kwargs = dict(epsilon=epsilon, delta=delta, theta=theta)
    if ndim == 3:
        kwargs['phi'] = phi
    model = SeismicModel(shape=shape, spacing=spacing, vp=vp, nbl=nbl,
                         space_order=space_order, comm=comm,
                         topology=topology, weights=weights, **kwargs)
    # anisotropy speeds up the fastest phase: shrink dt accordingly
    dt = model.critical_dt / np.sqrt(1.0 + 2.0 * np.max(
        np.atleast_1d(epsilon)))
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

    solver = TTIWaveSolver(model, src, rec, space_order=space_order,
                           mpi=mpi, opt=opt, cache=cache)
    return solver, time_range
