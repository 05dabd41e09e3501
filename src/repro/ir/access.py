"""The access map: which buffers a cluster reads and writes, and where.

Every offset question the compiler and the verifier ask of a cluster —
how deep its halo exchanges must be, how far CORE shrinks, how far a
scratch array's region grows, whether a parallel sweep races, which
slices the in-bounds proof must bound — is answered from one
:class:`AccessMap` of the cluster's final equations and CSE
temporaries (paper Section III-f's data-dependence analysis, over one
access representation).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from .lowered import Access, accesses_of

__all__ = ['AccessMap', 'Key', 'Widths', 'covers', 'union_widths']

#: (function name, time shift) — which buffer of which function
Key = Tuple[str, Optional[int]]
#: per-space-dimension (left depth, right depth)
Widths = Tuple[Tuple[int, int], ...]


def _distinct(accesses: Iterable[Access]) -> List[Access]:
    """One access per (buffer, offsets), in first-access order."""
    seen: Dict[Tuple[Key, Tuple[int, ...]], Access] = {}
    for acc in accesses:
        seen.setdefault((acc.key, acc.offsets), acc)
    return list(seen.values())


class AccessMap:
    """The distinct read and write accesses of one cluster.

    ``reads`` covers the equations' right-hand sides, then the CSE
    temporaries; ``writes`` the equations' left-hand sides.  Both keep
    first-access order, which fixes the order of everything derived
    from them (exchanges, tags, generated code).
    """

    __slots__ = ('reads', 'writes', 'functions')

    def __init__(self, eqs: Iterable[Any],
                 temps: Iterable[Tuple[Any, Any]] = ()) -> None:
        eqs = list(eqs)
        reads: List[Access] = [acc for eq in eqs for acc in eq.reads]
        for _, rhs in temps:
            reads.extend(accesses_of(rhs))
        self.reads = _distinct(reads)
        self.writes = _distinct(eq.write for eq in eqs)
        #: function name -> function, for every buffer accessed
        self.functions: Dict[str, Any] = {
            acc.function.name: acc.function
            for acc in self.writes + self.reads}

    def reach(self, dist: Any = None, grow: Optional[Any] = None,
              scratch: bool = False) -> Dict[Key, Widths]:
        """How deep the reads land beyond the iteration region, per
        (function, time buffer), in first-read order.

        The region is DOMAIN grown by ``grow`` (per dimension
        ``(left, right)``; None: DOMAIN itself), so a read at offset
        ``o`` reaches ``left - o`` below it and ``right + o`` above.
        Only the dimensions ``dist`` decomposes count (every dimension
        when ``dist`` is None): along a serial one a read stays
        on-rank.  ``scratch`` selects scratch arrays instead of the
        functions halo exchanges serve.  Keys reaching nowhere are
        left out.
        """
        out: Dict[Key, List[List[int]]] = {}
        for acc in self.reads:
            if bool(acc.function.is_Scratch) != scratch:
                continue
            widths = out.setdefault(acc.key,
                                    [[0, 0] for _ in acc.offsets])
            for d, off in enumerate(acc.offsets):
                if dist is not None and not dist.is_distributed(d):
                    continue
                gl, gr = grow[d] if grow is not None else (0, 0)
                widths[d][0] = max(widths[d][0], gl - off)
                widths[d][1] = max(widths[d][1], gr + off)
        return {key: tuple((l, r) for l, r in widths)
                for key, widths in out.items()
                if any(l or r for l, r in widths)}


def union_widths(a: Optional[Widths], b: Iterable[Tuple[int, int]]
                 ) -> Widths:
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
