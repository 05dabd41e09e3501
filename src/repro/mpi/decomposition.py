"""Per-dimension block decomposition and global<->local index algebra.

A :class:`Decomposition` describes how one grid dimension of ``N`` points
is partitioned over ``P`` process slots (MPI block distribution: the first
``N % P`` parts get one extra point).  With per-part ``weights`` the
split is proportional instead (largest-remainder apportionment), which
is how elastic repartitioning rebalances work across heterogeneous
ranks.  It provides the robust global-to-local conversion routines that
make distributed arrays look logically centralized (paper Section
III-b).
"""

from __future__ import annotations

import math

__all__ = ['Decomposition']


def _weighted_sizes(npoints, nparts, weights):
    """Largest-remainder apportionment of ``npoints`` over ``nparts``.

    Invariants (asserted by the constructor): the sizes sum exactly to
    ``npoints``, and no part is empty when ``npoints >= nparts`` — a
    zero (or tiny) weight is floored to one point so every rank keeps a
    valid subdomain.
    """
    weights = [float(w) for w in weights]
    if len(weights) != nparts:
        raise ValueError("expected %d weights, got %d"
                         % (nparts, len(weights)))
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must not all be zero")
    quotas = [npoints * w / total for w in weights]
    sizes = [int(math.floor(q)) for q in quotas]
    # distribute the remainder by largest fractional part (ties by
    # index, so equal weights reproduce the unweighted divmod split)
    remainder = npoints - sum(sizes)
    order = sorted(range(nparts), key=lambda i: (sizes[i] - quotas[i], i))
    for i in order[:remainder]:
        sizes[i] += 1
    # exact-coverage floor: steal from the largest parts until no part
    # is empty (always possible when npoints >= nparts)
    while 0 in sizes:
        taker = sizes.index(0)
        giver = max(range(nparts), key=lambda i: sizes[i])
        if sizes[giver] <= 1:
            break
        sizes[giver] -= 1
        sizes[taker] += 1
    return tuple(sizes)


class Decomposition:
    """Block decomposition of ``npoints`` over ``nparts`` slots.

    ``weights`` (optional, one non-negative float per part, not all
    zero) switches from the balanced MPI block split to a proportional
    split — part ``i`` gets ``~npoints * weights[i] / sum(weights)``
    points, never zero while ``npoints >= nparts``.
    """

    def __init__(self, npoints, nparts, weights=None):
        if npoints < 0:
            raise ValueError("npoints must be >= 0")
        if nparts < 1:
            raise ValueError("nparts must be >= 1")
        if nparts > npoints > 0:
            raise ValueError("cannot split %d points over %d parts"
                             % (npoints, nparts))
        self.npoints = int(npoints)
        self.nparts = int(nparts)
        if weights is None:
            base, extra = divmod(self.npoints, self.nparts)
            self._sizes = tuple(base + (1 if i < extra else 0)
                                for i in range(self.nparts))
        else:
            self._sizes = _weighted_sizes(self.npoints, self.nparts,
                                          weights)
        assert sum(self._sizes) == self.npoints
        assert self.npoints < self.nparts or 0 not in self._sizes
        self.weights = tuple(float(w) for w in weights) \
            if weights is not None else None
        offsets = [0]
        for s in self._sizes[:-1]:
            offsets.append(offsets[-1] + s)
        self._offsets = tuple(offsets)

    # -- queries -------------------------------------------------------------

    def size(self, part):
        """Number of points owned by ``part``."""
        return self._sizes[part]

    def offset(self, part):
        """Global index of the first point of ``part``."""
        return self._offsets[part]

    def local_range(self, part):
        """Global half-open interval ``[start, stop)`` owned by ``part``."""
        start = self._offsets[part]
        return start, start + self._sizes[part]

    @property
    def sizes(self):
        return self._sizes

    def intersection(self, part, start, stop):
        """Intersect the global interval ``[start, stop)`` with ``part``'s
        owned range.  Returns ``(lo, hi)``; empty when ``lo >= hi``.

        Used by the repartitioner to route blocks (expressed in the
        *old* decomposition's global ranges) to the ranks of a *new*
        decomposition.
        """
        lo, hi = self.local_range(part)
        return max(int(start), lo), min(int(stop), hi)

    def owner(self, glb_index):
        """The part owning global index ``glb_index``."""
        if not 0 <= glb_index < self.npoints:
            raise IndexError("global index %d out of range [0, %d)"
                             % (glb_index, self.npoints))
        # binary search over offsets
        lo, hi = 0, self.nparts - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._offsets[mid] <= glb_index:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # -- conversions -----------------------------------------------------------

    def glb_to_loc(self, part, glb_index):
        """Local index of ``glb_index`` on ``part``; None if not owned."""
        start, stop = self.local_range(part)
        if start <= glb_index < stop:
            return glb_index - start
        return None

    def loc_to_glb(self, part, loc_index):
        """Global index of local index ``loc_index`` on ``part``."""
        if not 0 <= loc_index < self._sizes[part]:
            raise IndexError("local index %d out of range on part %d"
                             % (loc_index, part))
        return self._offsets[part] + loc_index

    def slice_glb_to_loc(self, part, sl):
        """Intersect a *global* slice with ``part``'s range.

        Returns ``(local_slice, value_offset, count)`` where
        ``local_slice`` selects the owned points in local coordinates,
        ``value_offset`` is the index into the (global) right-hand-side
        selection where this part's data starts, and ``count`` the number
        of selected points.  ``count`` is 0 when the slice misses the
        part entirely.
        """
        start, stop, step = sl.indices(self.npoints)
        if step <= 0:
            raise NotImplementedError("negative slice steps are not "
                                      "supported on distributed dimensions")
        lo, hi = self.local_range(part)
        eff_start = max(start, lo)
        # first selected global index >= eff_start
        if eff_start > start:
            k0 = start + math.ceil((eff_start - start) / step) * step
        else:
            k0 = start
        eff_stop = min(stop, hi)
        if k0 >= eff_stop:
            return slice(0, 0, 1), 0, 0
        count = (eff_stop - k0 + step - 1) // step
        local = slice(k0 - lo, eff_stop - lo, step)
        value_offset = (k0 - start) // step
        return local, value_offset, count

    def index_glb_to_loc(self, part, index):
        """Normalize+convert a global int index; None if not owned here."""
        if index < 0:
            index += self.npoints
        if not 0 <= index < self.npoints:
            raise IndexError("global index out of range")
        return self.glb_to_loc(part, index)

    def __repr__(self):
        return 'Decomposition(%d points, %d parts, sizes=%s)' % (
            self.npoints, self.nparts, list(self._sizes))
