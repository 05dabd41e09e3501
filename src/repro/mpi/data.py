"""Distributed data container: physically distributed, logically global.

This is the paper's "distributed NumPy arrays" contribution (Section
III-b): each rank stores only its subdomain (plus halo), but indexing and
slicing use *global* coordinates — every rank transparently converts the
global selection to its local intersection, so user code is unchanged
between serial and MPI execution (Listings 1-3).
"""

from __future__ import annotations

import numpy as np

__all__ = ['Data', 'DimSpec']


class DimSpec:
    """Layout of one array dimension of a :class:`Data` container.

    ``dist_index`` is the grid-dimension index when the dimension is
    decomposed over ranks (None for rank-local dimensions like time
    buffers).  ``halo`` is the (left, right) ghost width.
    """

    __slots__ = ('size', 'dist_index', 'halo')

    def __init__(self, size, dist_index=None, halo=(0, 0)):
        self.size = int(size)
        self.dist_index = dist_index
        self.halo = tuple(halo)

    def __repr__(self):
        return 'DimSpec(size=%d, dist=%s, halo=%s)' % (
            self.size, self.dist_index, self.halo)


class Data:
    """A logically global array stored as per-rank local blocks.

    Parameters
    ----------
    specs : list of DimSpec
        Per-dimension layout (sizes are *global*).
    distributor : Distributor
        The grid decomposition (also used in serial mode with 1 rank).
    dtype : numpy dtype
    """

    def __init__(self, specs, distributor, dtype=np.float32):
        self.specs = list(specs)
        self.distributor = distributor
        self.dtype = np.dtype(dtype)
        shape = []
        self._domain_slices = []
        for spec in self.specs:
            if spec.dist_index is None:
                local = spec.size
            else:
                dec = distributor.decompositions[spec.dist_index]
                coord = distributor.mycoords[spec.dist_index]
                local = dec.size(coord)
            left, right = spec.halo
            shape.append(local + left + right)
            self._domain_slices.append(slice(left, left + local))
        self._array = np.zeros(tuple(shape), dtype=self.dtype)

    # -- views ------------------------------------------------------------------

    @property
    def with_halo(self):
        """The full local allocation, halo included."""
        return self._array

    @property
    def local(self):
        """This rank's domain region (halo excluded), writable view."""
        return self._array[tuple(self._domain_slices)]

    @property
    def shape_global(self):
        return tuple(spec.size for spec in self.specs)

    @property
    def shape_local(self):
        return self.local.shape

    @property
    def halo(self):
        return tuple(spec.halo for spec in self.specs)

    # -- global indexing ----------------------------------------------------------

    def _normalize_key(self, key):
        if not isinstance(key, tuple):
            key = (key,)
        if any(k is Ellipsis for k in key):
            n_missing = len(self.specs) - sum(1 for k in key
                                              if k is not Ellipsis)
            expanded = []
            for k in key:
                if k is Ellipsis:
                    expanded.extend([slice(None)] * n_missing)
                else:
                    expanded.append(k)
            key = tuple(expanded)
        key = key + (slice(None),) * (len(self.specs) - len(key))
        if len(key) != len(self.specs):
            raise IndexError("too many indices")
        return key

    def _resolve(self, key):
        """Map a global key to (local_key, value_key, squeeze_axes, count).

        ``local_key`` selects into the local domain view; ``value_key``
        selects the matching part of a global right-hand-side array;
        ``count`` is 0 when this rank holds none of the selection.
        """
        key = self._normalize_key(key)
        local_key, value_key, squeeze = [], [], []
        nonempty = True
        for axis, (spec, k) in enumerate(zip(self.specs, key)):
            if spec.dist_index is None:
                # rank-local dimension: plain numpy semantics
                if isinstance(k, (int, np.integer)):
                    idx = int(k)
                    if idx < 0:
                        idx += spec.size
                    if not 0 <= idx < spec.size:
                        raise IndexError("index %d out of range" % k)
                    local_key.append(idx)
                    squeeze.append(axis)
                elif isinstance(k, slice):
                    local_key.append(k)
                    value_key.append(slice(None))
                else:
                    raise TypeError("unsupported index %r" % (k,))
                continue
            dec = self.distributor.decompositions[spec.dist_index]
            coord = self.distributor.mycoords[spec.dist_index]
            if isinstance(k, (int, np.integer)):
                loc = dec.index_glb_to_loc(coord, int(k))
                if loc is None:
                    nonempty = False
                    local_key.append(slice(0, 0))
                else:
                    local_key.append(loc)
                squeeze.append(axis)
            elif isinstance(k, slice):
                loc_slice, voff, count = dec.slice_glb_to_loc(coord, k)
                if count == 0:
                    nonempty = False
                local_key.append(loc_slice)
                value_key.append(slice(voff, voff + count))
            else:
                raise TypeError("unsupported index %r on a distributed "
                                "dimension" % (k,))
        return tuple(local_key), tuple(value_key), squeeze, nonempty

    def __getitem__(self, key):
        """Return this rank's portion of the global selection.

        Matches the paper's rank-local views (Listing 2): ranks not
        intersecting the selection get an empty array; integer indices on
        distributed dimensions yield empty arrays off-owner.
        """
        local_key, _, squeeze, nonempty = self._resolve(key)
        view = self.local
        if not nonempty:
            # build an empty result of the correct dimensionality
            empty_key = []
            for axis, k in enumerate(local_key):
                if axis in squeeze:
                    empty_key.append(slice(0, 0))
                else:
                    empty_key.append(slice(0, 0) if isinstance(k, slice)
                                     else k)
            return view[tuple(empty_key)]
        out = view[local_key]
        return out

    def __setitem__(self, key, value):
        local_key, value_key, _, nonempty = self._resolve(key)
        if not nonempty:
            return
        if np.isscalar(value) or (isinstance(value, np.ndarray)
                                  and value.ndim == 0):
            self.local[local_key] = value
            return
        value = np.asarray(value)
        # global-shaped value: every rank takes its slab
        self.local[local_key] = value[value_key]

    def fill(self, value):
        self._array.fill(value)

    def scatter_block(self, space_ranges, block):
        """Write a global-coordinate block into this rank's DOMAIN region.

        ``space_ranges`` gives, per *grid* dimension (indexed by
        ``dist_index``), the global ``(start, stop)`` interval the block
        covers; rank-local dimensions (e.g. time buffers) must be
        covered in full.  Only the intersection with this rank's owned
        subdomain is written (the halo is left untouched — it is
        reconstructed by the next exchange).  Returns the number of
        bytes written locally.

        This is the receive side of the repartitioner: live or
        checkpointed blocks expressed in the *old* decomposition's
        global ranges land here under the *new* decomposition.
        """
        block = np.asarray(block)
        local_key, block_key = [], []
        for spec, dom in zip(self.specs, self._domain_slices):
            if spec.dist_index is None:
                local_key.append(dom)
                block_key.append(slice(None))
                continue
            start, stop = space_ranges[spec.dist_index]
            dec = self.distributor.decompositions[spec.dist_index]
            coord = self.distributor.mycoords[spec.dist_index]
            lo, hi = dec.intersection(coord, start, stop)
            if lo >= hi:
                return 0
            own_lo = dec.offset(coord)
            left = spec.halo[0]
            local_key.append(slice(left + lo - own_lo, left + hi - own_lo))
            block_key.append(slice(lo - start, hi - start))
        target = self._array[tuple(local_key)]
        target[...] = block[tuple(block_key)]
        return int(target.nbytes)

    # -- global assembly (for verification / post-processing) ----------------------

    def gather(self):
        """Assemble the full global array on every rank (collective).

        Intended for testing and post-processing at laptop scale; a real
        run would use parallel I/O instead.
        """
        comm = self.distributor.comm
        payload = (self.distributor.mycoords, np.ascontiguousarray(self.local))
        pieces = comm.allgather(payload)
        out = np.zeros(self.shape_global, dtype=self.dtype)
        for coords, block in pieces:
            key = []
            for spec, c_axis in zip(self.specs, range(len(self.specs))):
                if spec.dist_index is None:
                    key.append(slice(None))
                else:
                    dec = self.distributor.decompositions[spec.dist_index]
                    start, stop = dec.local_range(coords[spec.dist_index])
                    key.append(slice(start, stop))
            out[tuple(key)] = block
        return out

    # -- numpy conveniences -----------------------------------------------------------

    def __array__(self, dtype=None, copy=None):
        """This rank's DOMAIN block for NumPy (the NumPy 2 protocol):
        a view unless ``dtype`` differs or ``copy=True`` asks for a
        copy; ``copy=False`` raises when a copy cannot be avoided."""
        arr = self.local
        if dtype is not None and np.dtype(dtype) != arr.dtype:
            if copy is False:
                raise ValueError("a %s view of %s data needs a copy"
                                 % (np.dtype(dtype), arr.dtype))
            return arr.astype(dtype)
        return arr.copy() if copy else arr

    @property
    def shape(self):
        return self.shape_local

    def __repr__(self):
        return ('Data(global=%s, local=%s, rank=%d)'
                % (self.shape_global, self.shape_local,
                   self.distributor.myrank))
