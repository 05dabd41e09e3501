"""Discrete functions: symbolic fields carrying distributed data.

``Function`` (time-independent) and ``TimeFunction`` (time-varying, with
modulo buffering) are the DSL's primary objects.  They are symbolic atoms
— usable directly inside expressions — *and* data containers whose
storage is laid out as the paper's Figure 4 regions: DOMAIN surrounded by
HALO (plus optional PADDING), physically distributed across ranks but
indexed globally (Section III-b/d).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..mpi import Data, DimSpec
from ..symbolics import Add, Atom, Derivative, Indexed, Symbol
from .dimensions import Dimension

__all__ = ['Constant', 'DiscreteFunction', 'Function', 'ScratchArray',
           'TimeFunction']


class Constant(Symbol):
    """A named scalar runtime parameter."""

    __slots__ = ('value', 'dtype')

    def __init__(self, name, value=0.0, dtype=np.float32):
        super().__init__(name)
        self.value = value
        self.dtype = np.dtype(dtype)


class DiscreteFunction(Atom):
    """Base class of grid-backed symbolic functions."""

    __slots__ = ('name', 'grid', 'space_order', 'dtype', 'staggered',
                 'stagger_map', 'padding', '_data')
    _class_rank = 15
    is_DiscreteFunction = True
    is_TimeFunction = False
    is_SparseFunction = False
    is_Scratch = False

    def __init__(self, name, grid, space_order=1, dtype=None, staggered=None,
                 padding=0):
        super().__init__()
        self.name = name
        self.grid = grid
        self.space_order = int(space_order)
        if self.space_order < 0:
            raise ValueError("space_order must be >= 0")
        self.dtype = np.dtype(dtype) if dtype is not None else grid.dtype
        if staggered is None:
            staggered = ()
        elif isinstance(staggered, Dimension):
            staggered = (staggered,)
        self.staggered = tuple(staggered)
        self.stagger_map = {d: Fraction(1, 2) for d in self.staggered}
        self.padding = int(padding)
        self._data = None

    # -- identity -------------------------------------------------------------

    def _hashable(self):
        return ('DiscreteFunction', self.name)

    def _key_payload(self):
        return self.name

    def _sstr(self):
        return self.name

    @property
    def dimensions(self):
        """The dimensions indexing the data (space only here)."""
        return self.grid.dimensions

    @property
    def space_dimensions(self):
        return self.grid.dimensions

    # -- storage layout (Figure 4) ------------------------------------------------

    @property
    def halo(self):
        """Allocated (left, right) ghost extents per space dimension.

        Following the paper ("an SDO of 2 [...] halo of size 2"), the
        allocated halo equals the space order; the *exchanged* widths are
        derived from the actual stencil accesses by the compiler.
        """
        h = self.space_order + self.padding
        return tuple((h, h) for _ in self.space_dimensions)

    def _dim_specs(self):
        return [DimSpec(n, dist_index=i, halo=h)
                for i, (n, h) in enumerate(zip(self.grid.shape, self.halo))]

    def _allocate(self):
        if self._data is None:
            # lazily allocated and zero-initialized on first access,
            # as noted under the paper's Listing 2
            self._data = Data(self._dim_specs(), self.grid.distributor,
                              dtype=self.dtype)
        return self._data

    @property
    def data(self):
        """Global-indexing view of the DOMAIN region (distributed)."""
        return self._allocate()

    @property
    def data_with_halo(self):
        """This rank's raw local array, ghost regions included."""
        return self._allocate().with_halo

    @property
    def data_local(self):
        """This rank's DOMAIN block as a plain ndarray view."""
        return self._allocate().local

    @property
    def is_allocated(self):
        return self._data is not None

    # -- symbolic access -------------------------------------------------------------

    @property
    def access_indices(self):
        return tuple(self.dimensions)

    def indexify(self):
        """The default array access (dimension symbols as indices)."""
        return Indexed(self, *self.access_indices)

    def indexed(self, *indices):
        """An explicit array access."""
        return Indexed(self, *indices)

    def shifted(self, dim, offset):
        """Access shifted by ``offset`` along ``dim``."""
        indices = [Add.make(i, offset) if i == dim else i
                   for i in self.access_indices]
        return Indexed(self, *indices)

    # -- derivative shortcuts -----------------------------------------------------------

    def d(self, dim, deriv_order=1, fd_order=None, x0=None):
        """Derivative along ``dim`` (FD accuracy defaults to space_order)."""
        fd_order = fd_order if fd_order is not None else self.space_order
        x0_map = {dim: x0} if x0 is not None else None
        return Derivative(self, (dim, deriv_order), fd_order=fd_order,
                          x0=x0_map)

    @property
    def laplace(self):
        """Sum of unmixed second derivatives over all space dimensions."""
        terms = [self.d(dim, 2) for dim in self.space_dimensions]
        return Add.make(*terms)

    def __getattr__(self, attr):
        # derivative sugar: .dx, .dy2, .dz, ...
        if attr.startswith('d') and len(attr) in (2, 3) \
                and not attr.startswith('__'):
            name = attr[1]
            order = 1
            if len(attr) == 3:
                if not attr[2].isdigit():
                    raise AttributeError(attr)
                order = int(attr[2])
            for dim in self.grid.dimensions:
                if dim.name == name:
                    return self.d(dim, order)
        raise AttributeError(attr)


class Function(DiscreteFunction):
    """A time-independent field (material parameters, damping masks...)."""

    __slots__ = ()


class ScratchArray(DiscreteFunction):
    """A compiler-owned, per-rank temporary array (never a user field).

    Cross-iteration redundancy elimination (:mod:`repro.ir.clusters`)
    stores a subexpression the stencils read at several translations
    in one: a cluster of its own writes it once per timestep over the
    DOMAIN grown by ``halo`` (the readers' offsets, set by the rewrite
    once it has seen them all), and each reader loads it at an offset.
    It has no ``Data``: every binding of a kernel allocates its storage
    (local shape plus ``halo``); it is never exchanged, checkpointed or
    moved, and it is absent from ``Operator.functions``.
    """

    __slots__ = ('_halo',)
    is_Scratch = True

    def __init__(self, name, grid, halo=None, dtype=None):
        super().__init__(name, grid, space_order=0, dtype=dtype)
        self.halo = halo or [(0, 0)] * len(grid.dimensions)

    @property
    def halo(self):
        return self._halo

    @halo.setter
    def halo(self, value):
        self._halo = tuple((int(l), int(r)) for l, r in value)

    def _allocate(self):
        raise TypeError("scratch array %s has no user data: its storage "
                        "belongs to each kernel binding" % self.name)


class TimeFunction(DiscreteFunction):
    """A time-varying field with modulo-buffered time storage.

    ``time_order`` controls the number of buffers (``time_order + 1``):
    first-order-in-time systems (elastic, viscoelastic) need 2, second
    order (acoustic, TTI) need 3 — the data-movement trade-off the paper
    discusses for the elastic model.
    """

    __slots__ = ('time_order',)
    is_TimeFunction = True

    def __init__(self, name, grid, space_order=1, time_order=1, dtype=None,
                 staggered=None, padding=0):
        super().__init__(name, grid, space_order=space_order, dtype=dtype,
                         staggered=staggered, padding=padding)
        self.time_order = int(time_order)
        if self.time_order < 1:
            raise ValueError("time_order must be >= 1")

    @property
    def nbuffers(self):
        return self.time_order + 1

    @property
    def time_dim(self):
        return self.grid.stepping_dim

    @property
    def dimensions(self):
        return (self.time_dim,) + self.grid.dimensions

    def _dim_specs(self):
        return [DimSpec(self.nbuffers)] + super()._dim_specs()

    # -- time accesses -----------------------------------------------------------

    @property
    def forward(self):
        """Access at ``t + 1`` (the usual update target)."""
        return self.shifted(self.time_dim, 1)

    @property
    def backward(self):
        """Access at ``t - 1``."""
        return self.shifted(self.time_dim, -1)

    # -- time derivatives ----------------------------------------------------------

    @property
    def dt(self):
        """First time derivative.

        Forward two-point difference for first-order-in-time systems,
        centered otherwise (matching Devito's defaults for the wave
        propagators benchmarked in the paper).
        """
        t = self.time_dim
        if self.time_order == 1:
            return Derivative(self, (t, 1), fd_order=1,
                              offsets={t: (0, 1)})
        return Derivative(self, (t, 1), fd_order=2,
                          offsets={t: (-1, 0, 1)})

    @property
    def dtr(self):
        """Forward (right) first time derivative."""
        t = self.time_dim
        return Derivative(self, (t, 1), fd_order=1, offsets={t: (0, 1)})

    @property
    def dtl(self):
        """Backward (left) first time derivative."""
        t = self.time_dim
        return Derivative(self, (t, 1), fd_order=1, offsets={t: (-1, 0)})

    @property
    def dt2(self):
        """Second time derivative (centered, three buffers)."""
        t = self.time_dim
        if self.time_order < 2:
            raise ValueError("dt2 requires time_order >= 2")
        return Derivative(self, (t, 2), fd_order=2,
                          offsets={t: (-1, 0, 1)})
