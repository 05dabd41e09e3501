"""Independent re-derivation of stencil read/write footprints.

The verification-first rule of this package: never trust the artifact
under test.  :meth:`Cluster.halo_requirements` is what *produced* the
``HaloStep``s, so the checker recomputes every footprint here, straight
from the raw :class:`~repro.ir.lowered.Access` offsets returned by
:func:`~repro.ir.lowered.accesses_of` — sharing only the lowest-level
access parser with the compiler, not its dependence analysis.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..ir.lowered import Access, accesses_of

__all__ = ['Key', 'Widths', 'cluster_reads', 'cluster_writes',
           'read_footprints', 'step_footprints', 'step_reach',
           'union_widths', 'covers', 'widths_max']

#: (function name, time shift) — which buffer of which function
Key = Tuple[str, Optional[int]]
#: per-space-dimension (left depth, right depth)
Widths = Tuple[Tuple[int, int], ...]


def cluster_reads(cluster: Any) -> List[Access]:
    """Every read access of a cluster: equation right-hand sides *and*
    the CSE temporaries attached to it (temps read arrays too)."""
    reads: List[Access] = []
    for eq in cluster.eqs:
        reads.extend(eq.reads)
    for _, rhs in cluster.temps:
        reads.extend(accesses_of(rhs))
    return reads


def cluster_writes(cluster: Any) -> List[Access]:
    """Every write access of a cluster, in equation order."""
    return [eq.write for eq in cluster.eqs]


def _zero_widths(ndim: int) -> List[List[int]]:
    return [[0, 0] for _ in range(ndim)]


def read_footprints(cluster: Any, dist: Any,
                    grow: Optional[Widths] = None) -> Dict[Key, Widths]:
    """Per-(function, time buffer) halo depths the cluster's reads need.

    Only dimensions ``dist`` actually decomposes contribute: a nonzero
    offset along a serial dimension stays on-rank.  ``grow`` is how far
    the iteration region reaches beyond DOMAIN on each side (a scratch
    cluster's grown region): every read reaches that much further.
    Scratch arrays are never exchanged — whether the region their
    writer computed covers a read is the in-bounds proof's question —
    so their reads are left out.  Keys whose footprint is all-zero
    (purely on-rank reads) are omitted.
    """
    needs: Dict[Key, List[List[int]]] = {}
    for acc in cluster_reads(cluster):
        if acc.function.is_Scratch:
            continue
        key: Key = (acc.function.name, acc.time_shift)
        widths = needs.setdefault(key, _zero_widths(len(acc.offsets)))
        for d, off in enumerate(acc.offsets):
            if not dist.is_distributed(d):
                continue
            gl, gr = grow[d] if grow is not None else (0, 0)
            widths[d][0] = max(widths[d][0], gl - off)
            widths[d][1] = max(widths[d][1], gr + off)
    return {key: tuple((l, r) for l, r in widths)
            for key, widths in needs.items()
            if any(l or r for l, r in widths)}


def step_reach(step: Any) -> Optional[Widths]:
    """How far a compute step's region reaches beyond DOMAIN toward a
    neighbor: a scratch cluster's growth, except in its CORE."""
    grow = None if step.region == 'core' else step.cluster.grow
    return None if grow is None else tuple(grow)


def step_footprints(step: Any, dist: Any) -> Dict[Key, Widths]:
    """:func:`read_footprints` of a compute step's region
    (:func:`step_reach`)."""
    return read_footprints(step.cluster, dist, step_reach(step))


def union_widths(a: Optional[Widths], b: Widths) -> Widths:
    """Elementwise max of two width tuples (``a`` may be None)."""
    if a is None:
        return tuple((int(l), int(r)) for l, r in b)
    return tuple((max(al, bl), max(ar, br))
                 for (al, ar), (bl, br) in zip(a, b))


def covers(have: Optional[Widths], need: Widths) -> bool:
    """Does the exchanged depth ``have`` satisfy the read depth ``need``?"""
    if have is None:
        return not any(l or r for l, r in need)
    return all(hl >= nl and hr >= nr
               for (hl, hr), (nl, nr) in zip(have, need))


def widths_max(widths: Widths) -> int:
    """The deepest single-dimension depth of a width tuple."""
    return max((max(l, r) for l, r in widths), default=0)
