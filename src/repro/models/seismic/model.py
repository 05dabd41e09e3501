"""Seismic model container: physical parameters + absorbing boundaries.

Mirrors Devito's ``SeismicModel``: a velocity (and optionally density,
anisotropy, attenuation) model on a grid extended by ``nbl`` absorbing
boundary points per side (the paper's 40-point ABC layer), material
parameter ``Function``s, damping profiles, and the CFL-stable timestep.
"""

from __future__ import annotations

import numpy as np

from ...dsl import Function, Grid

__all__ = ['SeismicModel', 'damping_profile']


def _identity(block):
    return block


def damping_profile(shape, nbl, spacing, vmax, dtype=np.float32,
                    ranges=None):
    """Cosine-taper absorbing damping coefficient (Sochacki-style sponge).

    Zero in the physical domain, growing towards the outer edge of the
    absorbing layer.  Scaled so that ``damp*u.dt`` critically damps the
    fastest wave over the layer.

    ``ranges`` gives, per axis, the global ``[start, stop)`` interval of
    the block to build (default: the whole grid); the result has that
    block's shape.  Each axis profile is computed in float64 over its
    interval only, rounded to ``dtype`` and combined by broadcasting
    ``np.maximum``, so no array of the global shape is allocated.
    Rounding before the maximum gives the same bits as rounding the
    float64 maximum, because rounding is monotone.
    """
    ndim = len(shape)
    if ranges is None:
        ranges = tuple((0, n) for n in shape)
    damp = np.zeros(tuple(b - a for a, b in ranges), dtype=dtype)
    if nbl == 0:
        return damp
    # log(1/R) * 3 v / (2 L) with reflection coefficient R = 1e-3
    for d, (n, (start, stop)) in enumerate(zip(shape, ranges)):
        coeff = 3.0 * vmax * np.log(1000.0) / (2.0 * nbl * spacing[d])
        pos = np.zeros(stop - start)
        for i in range(start, stop):
            dist = 0
            if i < nbl:
                dist = (nbl - i) / nbl
            elif i >= n - nbl:
                dist = (i - (n - nbl - 1)) / nbl
            pos[i - start] = coeff * (dist - np.sin(2 * np.pi * dist) /
                                      (2 * np.pi))
        expand = [1] * ndim
        expand[d] = stop - start
        np.maximum(damp, pos.astype(dtype).reshape(expand), out=damp)
    return damp


class SeismicModel:
    """Physical model on an ABC-extended grid.

    Model set-up is rank-local: the model keeps the raw, unpadded
    inputs (a scalar, or an array of the interior shape, referenced and
    not copied), and each parameter ``Function`` is built on first use
    from this rank's block of the edge-padded input only, so set-up
    memory per rank scales with the subdomain, not the global grid.

    Parameters
    ----------
    shape : tuple
        Physical (interior) grid shape.
    spacing : tuple of float
        Grid spacing in meters, one entry per dimension.
    origin : tuple of float
        Physical origin of the *interior* domain, one entry per
        dimension.
    vp : float or ndarray
        P-wave velocity in km/s (Devito convention).
    nbl : int
        Absorbing layer width in points (paper uses 40).
    vs, rho : float or ndarray, optional
        S-wave velocity and density (elastic/viscoelastic models).
    epsilon, delta, theta, phi : float or ndarray, optional
        Thomsen parameters and tilt/azimuth angles (TTI).
    qp, qs : float, optional
        P/S quality factors (viscoelastic).
    comm : SimComm, optional
        Communicator for distributed runs.
    """

    def __init__(self, shape, spacing, origin=None, vp=1.5, nbl=40,
                 space_order=8, vs=None, rho=None, epsilon=None, delta=None,
                 theta=None, phi=None, qp=None, qs=None, dtype=np.float32,
                 comm=None, topology=None, weights=None):
        self.shape = tuple(int(s) for s in shape)
        ndim = len(self.shape)
        if origin is None:
            origin = (0.0,) * ndim
        for name, value in (('spacing', spacing), ('origin', origin)):
            if len(value) != ndim:
                raise ValueError("%s has %d entries but shape %s has %d"
                                 % (name, len(value), self.shape, ndim))
        self.spacing = tuple(float(h) for h in spacing)
        self.nbl = int(nbl)
        self.space_order = int(space_order)
        self.origin_interior = tuple(float(o) for o in origin)

        shape_pml = tuple(s + 2 * self.nbl for s in self.shape)
        origin_pml = tuple(o - self.nbl * h for o, h in
                           zip(self.origin_interior, self.spacing))
        extent = tuple(h * (s - 1) for h, s in zip(self.spacing, shape_pml))
        self.grid = Grid(shape=shape_pml, extent=extent, origin=origin_pml,
                         dtype=dtype, comm=comm, topology=topology,
                         weights=weights)

        self._vp = self._raw(vp)
        self._vs = self._raw(vs) if vs is not None else None
        self._rho = self._raw(1.0 if rho is None else rho)
        self._epsilon = self._raw(0.0 if epsilon is None else epsilon)
        self._delta = self._raw(0.0 if delta is None else delta)
        self._theta = self._raw(0.0 if theta is None else theta)
        self._phi = self._raw(0.0 if phi is None else phi)
        self.vmax = float(np.max(self._vp))
        self.qp = qp
        self.qs = qs
        self._functions = {}

    # -- raw parameter handling -------------------------------------------------

    def _raw(self, value):
        if np.isscalar(value):
            return np.float32(value)
        value = np.asarray(value, dtype=np.float32)
        if value.shape != self.shape:
            raise ValueError("parameter shape %s != model shape %s"
                             % (value.shape, self.shape))
        return value

    def _block(self, value, ranges=None):
        """The block ``ranges`` (per-axis global ``[start, stop)`` on the
        padded grid; default: this rank's subdomain) of ``value``
        edge-padded into the absorbing layer.  Padded index ``i`` reads
        raw index ``clip(i - nbl, 0, n - 1)``: ``np.pad(mode='edge')``
        restricted to the block."""
        if ranges is None:
            ranges = self.grid.distributor.local_ranges()
        if np.ndim(value) == 0:
            return np.full(tuple(b - a for a, b in ranges), value,
                           dtype=np.float32)
        index = [np.clip(np.arange(a, b) - self.nbl, 0, n - 1)
                 for (a, b), n in zip(ranges, self.shape)]
        return value[np.ix_(*index)]

    @property
    def vp(self):
        """The global edge-padded velocity, built on demand.

        An array of the whole padded grid on every rank: for inspection
        only.  The parameter ``Function``s never read it; each rank
        builds them from its own block of the raw input.
        """
        return self._block(self._vp, tuple((0, n) for n in self.grid.shape))

    @property
    def critical_dt(self):
        """CFL-stable timestep in ms (velocities are km/s, spacing m)."""
        ndim = self.grid.dim
        coeff = 0.38 if ndim == 3 else 0.42
        return float(coeff * min(self.spacing) / self.vmax)

    # -- symbolic parameter functions -----------------------------------------------

    def _function(self, name, formula, *params):
        """The parameter ``Function`` ``name``, built on first use by
        evaluating the elementwise ``formula`` on this rank's blocks of
        the raw ``params`` and writing the rank's DOMAIN region."""
        f = self._functions.get(name)
        if f is None:
            f = Function(name=name, grid=self.grid,
                         space_order=self.space_order)
            f.data.local[...] = formula(*(self._block(p) for p in params))
            self._functions[name] = f
        return f

    def _damping(self, dtype):
        return damping_profile(self.grid.shape, self.nbl, self.spacing,
                               self.vmax, dtype=dtype,
                               ranges=self.grid.distributor.local_ranges())

    @property
    def m(self):
        """Squared slowness 1/vp**2."""
        return self._function('m', lambda vp: 1.0 / vp ** 2, self._vp)

    @property
    def damp(self):
        """Additive damping coefficient (for ``damp * u.dt`` terms)."""
        return self._function('damp', lambda: self._damping(np.float32))

    @property
    def mask(self):
        """Multiplicative sponge mask (1 interior, decaying in the ABC)."""
        def decay():
            # per-step multiplicative decay 1 / (1 + dt * profile), in
            # float64 (then rounded on the write), in place
            profile = self._damping(np.float64)
            profile *= self.critical_dt
            profile += 1.0
            return np.divide(1.0, profile, out=profile)
        return self._function('mask', decay)

    @property
    def b(self):
        """Buoyancy 1/rho."""
        return self._function('b', lambda rho: 1.0 / rho, self._rho)

    @property
    def lam(self):
        """First Lame parameter rho*(vp^2 - 2 vs^2)."""
        if self._vs is None:
            raise ValueError("lam requires vs")
        return self._function(
            'lam', lambda rho, vp, vs: rho * (vp ** 2 - 2 * vs ** 2),
            self._rho, self._vp, self._vs)

    @property
    def mu(self):
        """Shear modulus rho*vs^2."""
        if self._vs is None:
            raise ValueError("mu requires vs")
        return self._function('mu', lambda rho, vs: rho * vs ** 2,
                              self._rho, self._vs)

    @property
    def pi(self):
        """P-wave modulus rho*vp^2 (viscoelastic)."""
        return self._function('pi', lambda rho, vp: rho * vp ** 2,
                              self._rho, self._vp)

    @property
    def epsilon(self):
        return self._function('epsilon', _identity, self._epsilon)

    @property
    def delta(self):
        return self._function('delta', _identity, self._delta)

    @property
    def theta(self):
        return self._function('theta', _identity, self._theta)

    @property
    def phi(self):
        return self._function('phi', _identity, self._phi)

    # -- viscoelastic relaxation times (single SLS mechanism) -------------------------

    def relaxation_times(self, f0):
        """(t_s, t_ep, t_es): stress and strain relaxation times for a
        single standard-linear-solid mechanism at reference frequency f0.
        """
        qp = self.qp if self.qp is not None else 100.0
        qs = self.qs if self.qs is not None else 70.0
        w0 = 2.0 * np.pi * f0
        t_s = (np.sqrt(1.0 + 1.0 / qp ** 2) - 1.0 / qp) / w0
        t_ep = 1.0 / (w0 ** 2 * t_s)
        t_es = (1.0 + w0 * qs * t_s) / (w0 * qs - w0 ** 2 * t_s)
        return float(t_s), float(t_ep), float(t_es)

    @property
    def domain_size(self):
        return tuple(h * (s - 1) for h, s in zip(self.spacing, self.shape))

    def __repr__(self):
        return ('SeismicModel(shape=%s, nbl=%d, so=%d, vmax=%.2f)'
                % (self.shape, self.nbl, self.space_order, self.vmax))
