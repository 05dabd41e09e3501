"""Sparse ("off-the-grid") point routing across ranks.

Implements the paper's Figure 3 semantics: each sparse point has physical
coordinates; its interpolation/injection support (the surrounding grid
cell, widened by the interpolation radius) may straddle rank boundaries.
Every rank whose subdomain intersects a point's support participates in
operations on that point: injection touches only locally-owned grid
points (so nothing is double-counted), while interpolation produces
partial sums over the local corners.  Generated kernels accumulate those
with ``np.bincount`` into a rank-local float64 row per step and sum the
rows of a whole block of steps across the sharing ranks in one
``allreduce`` (:mod:`repro.codegen.pybackend`) — the same element-wise,
rank-order sum a per-step reduction would compute, without a collective
inside every step.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ['PointRouting', 'block_intersections', 'support_points',
           'bilinear_coefficients']


def block_intersections(space_ranges, distributor):
    """Route a global block to the ranks of a (possibly new) decomposition.

    ``space_ranges`` is a per-grid-dimension list of global ``(start,
    stop)`` intervals describing a block of grid points — e.g. the
    domain region one rank of an *old* decomposition wrote into a
    checkpoint.  Returns ``[(rank, ranges), ...]`` listing every rank of
    ``distributor`` whose owned subdomain intersects the block, with the
    per-dimension global ranges of the (non-empty) intersection.

    This is the dense-block counterpart of :class:`PointRouting`: the
    repartitioner (:mod:`repro.resilience.elastic`) uses it to scatter
    live or checkpointed blocks rank-to-rank onto a new decomposition.
    """
    out = []
    for rank in range(distributor.nprocs):
        coords = distributor.comm.Get_coords(rank)
        isect = []
        for d, (start, stop) in enumerate(space_ranges):
            lo, hi = distributor.decompositions[d].intersection(
                coords[d], start, stop)
            if lo >= hi:
                break
            isect.append((lo, hi))
        else:
            out.append((rank, tuple(isect)))
    return out


def support_points(coords, origin, spacing, radius=1):
    """Global grid indices of the interpolation support of one point.

    ``radius=1`` yields the 2**ndim cell corners (multi-linear
    interpolation).  Returns (lows, highs) inclusive per dimension.
    """
    lows, highs = [], []
    for c, o, h in zip(coords, origin, spacing):
        pos = (c - o) / h
        lo = int(np.floor(pos)) - (radius - 1)
        hi = int(np.floor(pos)) + radius
        lows.append(lo)
        highs.append(hi)
    return tuple(lows), tuple(highs)


def bilinear_coefficients(coords, origin, spacing):
    """Per-dimension (low_index, low_weight, high_weight) of multilinear
    interpolation for one point."""
    out = []
    for c, o, h in zip(coords, origin, spacing):
        pos = (c - o) / h
        lo = int(np.floor(pos))
        frac = pos - lo
        out.append((lo, 1.0 - frac, frac))
    return out


class PointRouting:
    """Ownership and local index plans for a set of sparse points.

    Parameters
    ----------
    coordinates : (npoints, ndim) array
        Physical coordinates.
    distributor : Distributor
    origin, spacing : tuples
        Grid geometry.
    radius : int
        Interpolation radius (1 = multilinear).

    Attributes
    ----------
    local_points : list of int
        Indices of points whose support intersects this rank.
    owned_points : list of int
        Points whose *primary owner* (owner of the low corner, clamped
        into the domain) is this rank — used when a single responsible
        rank is needed (e.g. writing receiver output).
    """

    def __init__(self, coordinates, distributor, origin, spacing, radius=1):
        self.coordinates = np.asarray(coordinates, dtype=np.float64)
        if self.coordinates.ndim != 2:
            raise ValueError("coordinates must be (npoints, ndim)")
        self.distributor = distributor
        self.origin = tuple(origin)
        self.spacing = tuple(spacing)
        self.radius = int(radius)
        self.shape = distributor.shape
        self._build()

    def _build(self):
        """All points at once, as (npoints, 2**ndim) corner tables.

        The arithmetic is :func:`bilinear_coefficients`' per point, and
        the order is the one the plan has always had — it *is* the
        accumulation order of every interpolated value: points ascending;
        per point the support corners in C order (last dimension
        fastest), each clamped into the domain, a corner that clamping
        repeats merged into its first occurrence (weights summed in
        corner order), zero-weight corners dropped.
        """
        npts, ndim = self.coordinates.shape
        pos = (self.coordinates - np.asarray(self.origin)) \
            / np.asarray(self.spacing)
        if not np.isfinite(pos).all():
            raise ValueError("sparse point coordinates must be finite")
        lo = np.floor(pos).astype(np.int64)
        frac = pos - lo
        bits = np.array(list(itertools.product((0, 1), repeat=ndim)))
        ncorner = len(bits)
        corners = np.clip(lo[:, None, :] + bits[None, :, :], 0,
                          np.asarray(self.shape) - 1)
        weights = np.ones((npts, ncorner))
        for d in range(ndim):
            weights = weights * np.where(bits[:, d], frac[:, d, None],
                                         1.0 - frac[:, d, None])
        keep = np.ones((npts, ncorner), dtype=bool)
        for k in range(1, ncorner):
            for j in range(k):
                dup = keep[:, j] & keep[:, k] & \
                    (corners[:, j] == corners[:, k]).all(axis=1)
                weights[dup, j] += weights[dup, k]
                keep[dup, k] = False
        keep &= weights != 0.0
        start, stop = np.array(self.distributor.local_ranges()).T
        inside = ((corners >= start) & (corners < stop)).all(axis=2)
        local = keep & inside
        pids, kids = np.nonzero(local)
        #: the flattened plan (see :meth:`gather_plan`)
        self._plan = (pids,
                      tuple(corners[pids, kids, d] - start[d]
                            for d in range(ndim)),
                      weights[pids, kids])
        self.local_points = np.flatnonzero(local.any(axis=1)).tolist()
        # primary owner: the rank owning the clamped low corner
        self.owned_points = np.flatnonzero(inside[:, 0]).tolist()

    # -- vectorized plan assembly (consumed by generated kernels) -------------------

    def gather_plan(self):
        """The flattened plan for vectorized injection/interpolation.

        Returns (point_ids, index_arrays, weights): parallel 1-D arrays
        where entry k says "point point_ids[k] touches local grid point
        (index_arrays[0][k], ...) with weight weights[k]".
        """
        return self._plan

    def stats(self):
        """Routing instrumentation for the profiling subsystem.

        ``ncontribs`` is the number of (point, grid-cell) contribution
        pairs this rank evaluates per sparse operation — the work metric
        that load-imbalance in sparse sections is measured against.
        """
        return {'npoints': len(self.coordinates),
                'nlocal': len(self.local_points),
                'nowned': len(self.owned_points),
                'ncontribs': len(self._plan[0])}

    def __repr__(self):
        return ('PointRouting(%d points, %d local, %d owned, rank=%d)'
                % (len(self.coordinates), len(self.local_points),
                   len(self.owned_points), self.distributor.myrank))
