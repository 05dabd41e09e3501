"""The loop race detector (pass 2 of the static verifier).

Both backends execute every compute step as an embarrassingly parallel
sweep over the space iteration space — the NumPy backend through
whole-array expressions, the C printer through an OpenMP-style collapsed
loop nest.  That is only sound when the step carries no dependence
*across* space iterations.  This pass compares the read and write
offsets of every :class:`~repro.ir.schedule.ComputeStep` marked
``parallel`` (its cluster's :class:`~repro.ir.access.AccessMap`) and
flags:

* ``REPRO-E111`` — a loop-carried read/write dependence: some equation
  of the cluster reads a (function, time buffer) also written by the
  cluster, at a different spatial offset, so iteration ``x`` consumes a
  value produced by iteration ``x - d`` (Gauss-Seidel-style recurrences,
  which must run sequentially);
* ``REPRO-E112`` — a write/write race: two equations write the same
  buffer at different spatial offsets, so distinct iterations store to
  the same cell in an undefined order.

Distance-zero conflicts (read and write of the same point) stay inside
one iteration and are fine — the in-cluster equation order serializes
them.  The CORE/REMAINDER split of the full mpi mode reuses the same
cluster, so both regions are checked independently (same result, but a
diagnostic then points at the step that actually executes).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..ir.access import Key
from .diagnostics import Diagnostic
from .render import describe_key

__all__ = ['check_races']


def _fmt_offsets(offsets: Tuple[int, ...]) -> str:
    return '(%s)' % ', '.join('%+d' % o for o in offsets)


def check_races(schedule: Any) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for si, step in enumerate(schedule.steps):
        if not step.is_compute or not getattr(step, 'parallel', True):
            continue
        amap = step.cluster.access_map

        # -- write/write: same buffer, different offset vectors --------------
        writes: Dict[Key, List[Tuple[int, ...]]] = {}
        for acc in amap.writes:
            writes.setdefault(acc.key, []).append(acc.offsets)
        for key, offs in sorted(writes.items()):
            if len(offs) > 1:
                out.append(Diagnostic(
                    'REPRO-E112',
                    'parallel step writes %s at distinct offsets %s: '
                    'different space iterations store to the same cell '
                    'in an undefined order'
                    % (describe_key(key),
                       ' and '.join(_fmt_offsets(o) for o in sorted(offs))),
                    step_index=si))

        # -- loop-carried read/write: read a written buffer at distance != 0 -
        flagged = set()
        for acc in amap.reads:
            if acc.key not in writes or acc.key in flagged:
                continue
            if any(acc.offsets != w for w in writes[acc.key]):
                # a read whose offset vector differs from some write of
                # the same buffer: nonzero dependence distance
                woff = writes[acc.key][0]
                if acc.offsets == woff:
                    continue  # distance 0 against every matching write
                flagged.add(acc.key)
                out.append(Diagnostic(
                    'REPRO-E111',
                    'parallel step reads %s at offset %s while writing '
                    'it at offset %s: the loop-carried dependence '
                    '(distance %s) requires sequential execution'
                    % (describe_key(acc.key), _fmt_offsets(acc.offsets),
                       _fmt_offsets(woff),
                       _fmt_offsets(tuple(a - b for a, b in
                                          zip(acc.offsets, woff)))),
                    step_index=si))
    return out
