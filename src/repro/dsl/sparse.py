"""Sparse ("off-the-grid") functions: sources and receivers.

``SparseFunction`` represents a set of points with physical coordinates
that need not align with the grid (paper Section III-c).  They support
the two operations real seismic workloads need:

* ``inject`` — scatter a point value into the surrounding grid cell with
  multilinear weights (source excitation);
* ``interpolate`` — gather a grid expression at the point position
  (receiver sampling).

Under DMP, each point is routed to the rank(s) whose subdomain intersects
its support (Figure 3): injection only touches locally-owned grid points,
interpolation reduces partial sums across the sharing ranks.
"""

from __future__ import annotations

import numpy as np

from ..mpi import PointRouting
from ..symbolics import Atom, S

__all__ = ['SparseFunction', 'SparseTimeFunction', 'Injection',
           'Interpolation', 'PrecomputedSparseData', 'PENDING_ROWS_BYTES']

#: memory budget of the partial interpolation rows a rank keeps between
#: two reductions: a distributed kernel sums a block of
#: ``max(1, PENDING_ROWS_BYTES // (8 * npoint))`` steps in one allreduce
#: (read when an operator binds its sparse plans)
PENDING_ROWS_BYTES = 1 << 20


class SparseFunction(Atom):
    """A set of sparse points carrying one value per point."""

    __slots__ = ('name', 'grid', 'npoint', 'coordinates', '_data',
                 '_routing')
    _class_rank = 16
    is_DiscreteFunction = False
    is_SparseFunction = True
    is_SparseTimeFunction = False

    def __init__(self, name, grid, npoint, coordinates=None):
        super().__init__()
        self.name = name
        self.grid = grid
        self.npoint = int(npoint)
        if coordinates is None:
            coordinates = np.zeros((self.npoint, grid.dim))
        self.coordinates = np.asarray(coordinates, dtype=np.float64)
        if self.coordinates.shape != (self.npoint, grid.dim):
            raise ValueError("coordinates must have shape (npoint, ndim)")
        self._data = None
        self._routing = None

    def _hashable(self):
        return ('SparseFunction', self.name)

    def _key_payload(self):
        return self.name

    def _sstr(self):
        return self.name

    @property
    def data(self):
        """Point values, replicated on all ranks (logically global)."""
        if self._data is None:
            self._data = np.zeros(self._data_shape(), dtype=self.grid.dtype)
        return self._data

    def _data_shape(self):
        return (self.npoint,)

    @property
    def routing(self):
        """Rank-ownership plan for the current decomposition (cached)."""
        if self._routing is None:
            self._routing = PointRouting(self.coordinates,
                                         self.grid.distributor,
                                         self.grid.origin,
                                         self.grid.spacing)
        return self._routing

    # -- operations -----------------------------------------------------------------

    def inject(self, field, expr):
        """Scatter ``expr`` (per point) into ``field`` around each point."""
        return Injection(self, field, S(expr))

    def interpolate(self, expr):
        """Gather ``expr`` at the point positions into this function."""
        return Interpolation(self, S(expr))


class SparseTimeFunction(SparseFunction):
    """Sparse points with a time series per point (sources/receivers)."""

    __slots__ = ('nt',)
    is_SparseTimeFunction = True

    def __init__(self, name, grid, npoint, nt, coordinates=None):
        super().__init__(name, grid, npoint, coordinates=coordinates)
        self.nt = int(nt)

    def _data_shape(self):
        return (self.nt, self.npoint)


class PrecomputedSparseData:
    """Vectorized contribution plan bound at Operator build time.

    Flattens the per-point multilinear supports into parallel arrays so
    generated kernels inject with ``np.add.at`` and interpolate with
    ``np.bincount`` instead of point loops.  On distributed grids a
    kernel keeps each step's partial interpolation row in a rank-local
    float64 buffer of ``block`` rows and reduces the whole block in one
    ``allreduce`` (:data:`PENDING_ROWS_BYTES`).
    """

    def __init__(self, sparse):
        self.sparse = sparse
        routing = sparse.routing
        self.point_ids, self.indices, self.weights = routing.gather_plan()
        self.weights = self.weights.astype(sparse.grid.dtype)
        self.block = max(1, PENDING_ROWS_BYTES // (8 * max(sparse.npoint,
                                                            1)))

    @property
    def nlocal(self):
        return len(self.point_ids)

    def binding(self):
        """The ``__SP[step]`` entry a generated kernel unpacks."""
        return {'pids': self.point_ids, 'w': self.weights,
                'idx': self.indices, 'data': self.sparse.data,
                'block': self.block}


class Injection:
    """A pending scatter of ``expr`` into ``field`` (consumed by Operator)."""

    def __init__(self, sparse, field, expr):
        self.sparse = sparse
        self.field = field
        self.expr = expr

    def __repr__(self):
        return 'Injection(%s -> %s)' % (self.sparse.name, self.field)


class Interpolation:
    """A pending gather of ``expr`` into ``sparse`` (consumed by Operator)."""

    def __init__(self, sparse, expr):
        self.sparse = sparse
        self.expr = expr

    def __repr__(self):
        return 'Interpolation(%s <- %s)' % (self.sparse.name, self.expr)
