"""The poisoned-halo sanitizer: the *dynamic* complement of the verifier.

Static analysis proves coverage for the schedules the compiler builds —
but it reasons about the schedule, not about the bytes the transport
actually moves.  The sanitizer closes that gap at runtime: in sanitizer
mode the generated kernel

1. fills every *neighbor-owned* ghost cell with a NaN sentinel — once
   before the hoisted preamble exchanges (time-invariant functions), and
   again at the top of every time iteration (the rotating time buffers
   invalidate all time-shifted halos, exactly as the static model in
   :mod:`.halo_coverage` assumes);
2. lets the scheduled halo exchanges overwrite the poison at their
   exchanged depths;
3. after every compute and injection step, scans the DOMAIN region of
   each written buffer for NaN and raises :class:`HaloPoisonError`
   (naming the section, the buffer and the first poisoned local index)
   the moment a stencil consumed a ghost cell no exchange refreshed.

Poison is applied per *neighbor box* — the ghost region owned by each
actually-existing neighbor (``rank != PROC_NULL``), at the full
allocated halo depth.  Ghost cells at physical boundaries (no neighbor)
are left untouched: they legitimately hold boundary values that stencils
at domain edges may read.  Since correct schedules only ever read ghost
cells at depths their exchanges refresh, a sanitizer run is bit-identical
to a plain run whenever no error fires — which the test suite asserts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = ['HaloPoisonError', 'HaloSanitizer', 'poison_boxes']

Box = Tuple[slice, ...]


class HaloPoisonError(RuntimeError):
    """A stencil read a halo cell no exchange had refreshed.

    The dynamic analogue of ``REPRO-E101``/``REPRO-E103``: raised by the
    sanitizer-mode kernel when poison (NaN) propagates into the DOMAIN
    region of a written buffer.
    """

    def __init__(self, section: str, function: str, time: Optional[int],
                 rank: int, index: Tuple[int, ...]) -> None:
        self.section = section
        self.function = function
        self.time = time
        self.rank = rank
        self.index = index
        at = '' if time is None else ' at timestep %d' % time
        super().__init__(
            'poisoned-halo read detected in %s%s: %s picked up a NaN '
            'sentinel on rank %d (first bad local domain index %s) — a '
            'stencil consumed a ghost cell no halo exchange refreshed '
            '(runtime REPRO-E101/E103)'
            % (section, at, function, rank, index))


def poison_boxes(func: Any, dist: Any) -> List[Box]:
    """The ghost boxes of ``func`` owned by actually-existing neighbors.

    Each box is a space-dimension slice tuple into the halo-inclusive
    local array: the full allocated halo depth toward the neighbor along
    every nonzero offset, the DOMAIN extent along zero offsets (so
    corners adjacent to physical boundaries are *not* poisoned — nothing
    ever refreshes those, yet edge stencils may legitimately read them).
    """
    from ..mpi.sim import PROC_NULL
    halo = func.halo
    shape = dist.shape_local
    boxes: List[Box] = []
    for offsets, rank in dist.neighborhood(diagonals=True).items():
        if rank == PROC_NULL or not any(offsets):
            continue
        key: List[slice] = []
        for d, off in enumerate(offsets):
            hl, hr = halo[d]
            n = shape[d]
            if off == 0:
                key.append(slice(hl, hl + n))
            elif off > 0:
                key.append(slice(hl + n, hl + n + hr))
            else:
                key.append(slice(0, hl))
        boxes.append(tuple(key))
    return boxes


class HaloSanitizer:
    """Runtime state of one sanitizer-mode kernel.

    Built once per operator from the schedule; the generated kernel calls
    :meth:`poison_invariants` before the preamble, :meth:`poison` at the
    top of every iteration, and :meth:`check` after every writing step.
    """

    def __init__(self, schedule: Any) -> None:
        self.grid = schedule.grid
        dist = self.grid.distributor
        self.dist = dist
        self.enabled = bool(dist.is_parallel and schedule.mpi_mode)
        #: (name, nbuffers or None, poison boxes, domain box)
        self._fields: Dict[str, Tuple[Optional[int], List[Box], Box]] = {}
        #: per-section write keys: [(name, time_shift), ...]
        self._writes: Dict[str, List[Tuple[str, Optional[int]]]] = {}
        if not self.enabled:
            return
        for f in schedule.functions:
            if getattr(f, 'is_SparseFunction', False):
                continue
            nb = (f.nbuffers if getattr(f, 'is_TimeFunction', False)
                  else None)
            domain = tuple(slice(hl, hl + n) for (hl, _), n
                           in zip(f.halo, dist.shape_local))
            self._fields[f.name] = (nb, poison_boxes(f, dist), domain)

    # -- codegen registration ------------------------------------------------------

    def register_writes(self, section: str,
                        keys: List[Tuple[str, Optional[int]]]) -> None:
        """Record which (function, time buffer) a section writes."""
        entry = self._writes.setdefault(section, [])
        for key in keys:
            if key not in entry and key[0] in self._fields:
                entry.append(key)

    # -- runtime hooks -------------------------------------------------------------

    def poison_invariants(self, arrays: Dict[str, np.ndarray]) -> None:
        """Poison every ghost box once, before the preamble exchanges."""
        if not self.enabled:
            return
        for name, (nb, boxes, _) in self._fields.items():
            arr = arrays[name]
            views = [arr] if nb is None else [arr[b] for b in range(nb)]
            for view in views:
                for box in boxes:
                    view[box] = np.nan

    def poison(self, arrays: Dict[str, np.ndarray]) -> None:
        """Poison the time-buffered ghost boxes (top of each iteration:
        buffer rotation has invalidated every time-shifted halo)."""
        if not self.enabled:
            return
        for name, (nb, boxes, _) in self._fields.items():
            if nb is None:
                continue  # time-invariant: preamble-refreshed, stays valid
            arr = arrays[name]
            for b in range(nb):
                view = arr[b]
                for box in boxes:
                    view[box] = np.nan

    def check(self, section: str, arrays: Dict[str, np.ndarray],
              time: Optional[int] = None) -> None:
        """Scan the DOMAIN of the section's written buffers for NaN."""
        if not self.enabled:
            return
        for name, tshift in self._writes.get(section, ()):
            nb, _, domain = self._fields[name]
            arr = arrays[name]
            if nb is None:
                view = arr[domain]
            else:
                view = arr[(int(time or 0) + (tshift or 0)) % nb][domain]
            bad = np.isnan(view)
            if bad.any():
                index = tuple(int(i) for i in
                              np.unravel_index(int(np.argmax(bad)),
                                               view.shape))
                raise HaloPoisonError(section, name, time,
                                      self.dist.myrank, index)
