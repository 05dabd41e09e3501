"""Grid-level domain decomposition (the paper's Section III-a).

A :class:`Distributor` binds a grid shape to a communicator: it chooses
(or accepts) a Cartesian process topology, builds one per-dimension
:class:`Decomposition`, and answers all locality questions the compiler
and the distributed data container need (local shapes, neighbor ranks,
boundary-ness, global/local conversion per dimension).
"""

from __future__ import annotations

from .cart import CartComm, compute_dims, create_cart
from .decomposition import Decomposition
from .sim import serial_comm

__all__ = ['Distributor']


class Distributor:
    """Decomposition of an n-dimensional grid over a communicator.

    Parameters
    ----------
    shape : tuple of int
        Global grid shape.
    comm : SimComm, optional
        The communicator; ``None`` means a serial 1-rank world.
    topology : tuple of int, optional
        User-specified process grid (``Grid(..., topology=...)``); zero
        entries are filled in by ``compute_dims``.
    weights : tuple, optional
        Per-dimension split weights: one entry per grid dimension, each
        either ``None`` (balanced split) or a sequence of
        ``topology[d]`` non-negative floats steering a proportional
        split along that dimension (elastic rebalancing).
    """

    def __init__(self, shape, comm=None, topology=None, weights=None):
        self.shape = tuple(int(s) for s in shape)
        self.ndim = len(self.shape)
        if comm is None:
            comm = serial_comm()
        if isinstance(comm, CartComm):
            if len(comm.dims) != self.ndim:
                raise ValueError("cartesian communicator dimensionality "
                                 "mismatch")
            self.comm = comm
        else:
            dims = compute_dims(comm.size, self.ndim, given=topology)
            self.comm = create_cart(comm, dims)
        self.topology = self.comm.dims
        if weights is None:
            weights = (None,) * self.ndim
        if len(weights) != self.ndim:
            raise ValueError("weights must have one entry per grid "
                             "dimension (%d), got %d"
                             % (self.ndim, len(weights)))
        self.weights = tuple(tuple(float(x) for x in w)
                             if w is not None else None for w in weights)
        self.decompositions = tuple(
            Decomposition(n, p, weights=w)
            for n, p, w in zip(self.shape, self.topology, self.weights))

    # -- identity ----------------------------------------------------------------

    @property
    def myrank(self):
        return self.comm.rank

    @property
    def mycoords(self):
        return self.comm.coords

    @property
    def nprocs(self):
        return self.comm.size

    @property
    def is_parallel(self):
        return self.nprocs > 1

    # -- local geometry ------------------------------------------------------------

    @property
    def shape_local(self):
        """Shape of this rank's subdomain."""
        return tuple(d.size(c) for d, c in zip(self.decompositions,
                                               self.mycoords))

    @property
    def offsets_global(self):
        """Global index of this rank's first point, per dimension."""
        return tuple(d.offset(c) for d, c in zip(self.decompositions,
                                                 self.mycoords))

    def local_ranges(self):
        """Per-dimension global ``[start, stop)`` owned by this rank."""
        return tuple(d.local_range(c) for d, c in zip(self.decompositions,
                                                      self.mycoords))

    def is_distributed(self, dim_index):
        """True if the grid is actually split along ``dim_index``."""
        return self.topology[dim_index] > 1

    def is_boundary_rank(self, dim_index, side):
        """True if this rank touches the global domain boundary.

        ``side`` is ``-1`` (left/low) or ``+1`` (right/high).
        """
        c = self.mycoords[dim_index]
        if side < 0:
            return c == 0
        return c == self.topology[dim_index] - 1

    # -- neighbors ---------------------------------------------------------------------

    def neighbor(self, offset):
        return self.comm.neighbor(offset)

    def neighborhood(self, diagonals=True):
        return self.comm.neighborhood(diagonals=diagonals)

    def shift(self, dim_index, disp=1):
        return self.comm.Shift(dim_index, disp)

    # -- ownership of points (used for sparse routing) -----------------------------------

    def owner_of(self, glb_indices):
        """Rank owning the grid point at global indices ``glb_indices``."""
        coords = tuple(d.owner(i) for d, i in zip(self.decompositions,
                                                  glb_indices))
        return self.comm.Get_cart_rank(coords)

    def owns(self, glb_indices):
        """True if this rank owns the grid point ``glb_indices``."""
        for d, c, i in zip(self.decompositions, self.mycoords, glb_indices):
            if d.glb_to_loc(c, i) is None:
                return False
        return True

    def glb_to_loc_point(self, glb_indices):
        """Convert a global point to local coordinates; None if not owned."""
        out = []
        for d, c, i in zip(self.decompositions, self.mycoords, glb_indices):
            loc = d.glb_to_loc(c, i)
            if loc is None:
                return None
            out.append(loc)
        return tuple(out)

    def __repr__(self):
        return ('Distributor(shape=%s, topology=%s, rank=%d/%d)'
                % (self.shape, self.topology, self.myrank, self.nprocs))
