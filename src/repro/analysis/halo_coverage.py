"""The halo-coverage checker (pass 1 of the static verifier).

Re-derives every cluster's off-rank read footprint from first principles
(:mod:`.footprint`) and *simulates* the :class:`~repro.ir.schedule.Schedule`
through one loop iteration, tracking which (function, time buffer) halos
are up to date at each step.  The model mirrors the semantics of the
generated code exactly:

* at the top of every iteration the rotating time buffers invalidate all
  time-shifted halos (the buffer read as ``u[t]`` now is the one written
  as ``u[t+1]`` one iteration ago);
* a blocking ``update`` makes a halo clean at its exchanged depth; a
  ``begin`` puts it *in flight*, the matching ``wait`` lands it;
* a write to a buffer — by a compute step or a sparse injection —
  dirties its halo;
* time-invariant functions (``time_shift is None``) are refreshed once,
  by the hoisted preamble exchanges, and stay clean unless written.

Because the per-iteration state is identical every iteration (the top-
of-loop invalidation resets it), a single simulated iteration proves the
steady state.  Cross-check diagnostics:

* ``REPRO-E101`` — read needs a halo never exchanged this iteration;
* ``REPRO-E102`` — exchanged, but at a smaller depth than the read;
* ``REPRO-E103`` — exchanged, then dirtied, then read (a "data not
  dirty" drop fired while the data *was* dirty);
* ``REPRO-E104`` — full-mode violations: read of in-flight data before
  the ``wait``, ``wait`` without ``begin``, or a CORE region that is
  not shrunk enough for the independently recomputed footprint;
* ``REPRO-W201``/``REPRO-W202`` — redundant / over-wide exchanges.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from .diagnostics import Diagnostic
from .footprint import (Key, Widths, covers, read_footprints, union_widths)
from .render import describe_key, format_widths

__all__ = ['check_halo_coverage']


class _Event:
    """One emitted exchange, tracked for redundancy analysis."""

    __slots__ = ('step_index', 'key', 'widths', 'consumed', 'dirtied',
                 'kind')

    def __init__(self, step_index: Optional[int], key: Key, widths: Widths,
                 kind: str) -> None:
        self.step_index = step_index
        self.key = key
        self.widths = widths
        #: union of read footprints served while the data stayed clean
        self.consumed: Optional[Widths] = None
        self.dirtied = False
        self.kind = kind


def check_halo_coverage(schedule: Any) -> List[Diagnostic]:
    dist = schedule.grid.distributor
    if not (dist.is_parallel and schedule.mpi_mode):
        return []
    dims = schedule.grid.dimensions
    out: List[Diagnostic] = []

    #: halo state, per (function, time buffer)
    pre: Dict[Key, Widths] = {}         # hoisted, time-invariant
    clean: Dict[Key, Widths] = {}       # exchanged and not since written
    inflight: Dict[Key, Widths] = {}    # begun, not yet waited
    exchanged: Set[Key] = set()         # ever exchanged this iteration
    dirty_pre: Set[Key] = set()         # hoisted halos invalidated by writes
    events: List[_Event] = []

    for req in schedule.preamble_halo:
        key: Key = (req.function.name, req.time_shift)
        widths: Widths = tuple((l, r) for l, r in req.widths)
        pre[key] = union_widths(pre.get(key), widths)
        events.append(_Event(None, key, widths, 'preamble'))

    def consume(key: Key, need: Widths) -> None:
        for ev in events:
            if ev.key == key and not ev.dirtied:
                ev.consumed = union_widths(ev.consumed, need)

    def dirty(key: Key, si: int) -> None:
        clean.pop(key, None)
        if key[1] is None and (key in pre or key in dirty_pre):
            pre.pop(key, None)
            dirty_pre.add(key)
        for ev in events:
            if ev.key == key:
                ev.dirtied = True

    def check_reads(si: int, step: Any) -> None:
        fp = read_footprints(step.cluster, dist)
        for key, need in sorted(fp.items()):
            desc = describe_key(key)
            depth = format_widths(need, dims)
            if key[1] is None:
                have = pre.get(key)
                if covers(have, need):
                    consume(key, need)
                elif have is not None:
                    out.append(Diagnostic(
                        'REPRO-E102',
                        'hoisted exchange of %s covers depth %s but the '
                        'stencil reads depth %s'
                        % (desc, format_widths(have, dims), depth),
                        step_index=si))
                elif key in dirty_pre:
                    out.append(Diagnostic(
                        'REPRO-E103',
                        '%s was written inside the time loop, so its '
                        'hoisted (preamble-only) exchange is stale for '
                        'the read at depth %s' % (desc, depth),
                        step_index=si))
                else:
                    out.append(Diagnostic(
                        'REPRO-E101',
                        'time-invariant %s is read at depth %s but never '
                        'exchanged in the preamble' % (desc, depth),
                        step_index=si))
                continue
            have = clean.get(key)
            if covers(have, need):
                consume(key, need)
            elif have is not None:
                out.append(Diagnostic(
                    'REPRO-E102',
                    'halo of %s was exchanged at depth %s but the stencil '
                    'reads depth %s'
                    % (desc, format_widths(have, dims), depth),
                    step_index=si))
            elif key in inflight:
                out.append(Diagnostic(
                    'REPRO-E104',
                    '%s is read at depth %s while its exchange is still '
                    'in flight (the matching wait has not executed)'
                    % (desc, depth), step_index=si))
            elif key in exchanged:
                out.append(Diagnostic(
                    'REPRO-E103',
                    'halo of %s is stale: it was exchanged earlier this '
                    'timestep, then written, then read at depth %s with '
                    'no refreshing exchange' % (desc, depth),
                    step_index=si))
            else:
                out.append(Diagnostic(
                    'REPRO-E101',
                    'no halo exchange covers the read of %s at depth %s'
                    % (desc, depth), step_index=si))

    def check_core(si: int, step: Any) -> None:
        # The emitted CORE box shrinks by the compiler's own union widths
        # (ir.schedule.cluster_union_widths); prove that shrink covers
        # the independently recomputed footprint of every halo the step
        # cannot already rely on.
        from ..ir.schedule import cluster_union_widths
        shrink: Widths = tuple(
            (l, r) for l, r in cluster_union_widths(step.cluster))
        need: Optional[Widths] = None
        fp = read_footprints(step.cluster, dist)
        for key, w in fp.items():
            if key[1] is None and covers(pre.get(key), w):
                consume(key, w)
                continue
            if covers(clean.get(key), w):
                consume(key, w)
                continue
            need = union_widths(need, w)
        if need is not None and not covers(shrink, need):
            out.append(Diagnostic(
                'REPRO-E104',
                'CORE region shrinks by %s but the recomputed stencil '
                'footprint of the in-flight halos is %s — the core would '
                'read halo data that has not arrived'
                % (format_widths(shrink, dims),
                   format_widths(need, dims)), step_index=si))

    for si, step in enumerate(schedule.steps):
        if step.is_halo:
            for req in step.exchanges:
                key = (req.function.name, req.time_shift)
                widths = tuple((l, r) for l, r in req.widths)
                if step.kind in ('update', 'begin'):
                    ev = _Event(si, key, widths, step.kind)
                    if covers(clean.get(key), widths):
                        out.append(Diagnostic(
                            'REPRO-W201',
                            'exchange of %s at depth %s is redundant: the '
                            'data is not dirty (already clean at a '
                            'covering depth)'
                            % (describe_key(key),
                               format_widths(widths, dims)),
                            step_index=si))
                        ev.consumed = widths  # suppress the unread check
                    events.append(ev)
                    if step.kind == 'update':
                        clean[key] = union_widths(clean.get(key), widths)
                        exchanged.add(key)
                    else:
                        inflight[key] = union_widths(inflight.get(key),
                                                     widths)
                else:  # wait
                    got = inflight.pop(key, None)
                    if got is None:
                        out.append(Diagnostic(
                            'REPRO-E104',
                            'wait for %s has no matching begin (nothing '
                            'is in flight for this buffer)'
                            % describe_key(key), step_index=si))
                    else:
                        clean[key] = union_widths(clean.get(key), got)
                        exchanged.add(key)
        elif step.is_compute:
            if step.region == 'core':
                check_core(si, step)
            else:
                check_reads(si, step)
            # CORE writes the same buffers REMAINDER does; dirtying is
            # idempotent, so process writes for every region uniformly
            for wkey in sorted(step.cluster.write_keys):
                dirty(wkey, si)
        else:  # sparse
            if step.field_access is not None:
                dirty(step.field_access.key, si)
            # interpolation/injection grid reads are routed to the ranks
            # owning each support cell (PointRouting), so they never
            # touch halo data — no coverage requirement

    # begun but never waited: anything still in flight at iteration end
    for key in sorted(inflight):
        out.append(Diagnostic(
            'REPRO-E104',
            'begin for %s is never completed by a wait before the '
            'iteration ends' % describe_key(key), where='loop end'))

    # redundancy: exchanges nothing ever read (at the exchanged depth)
    for ev in events:
        where = 'preamble' if ev.step_index is None else None
        if ev.consumed is None:
            out.append(Diagnostic(
                'REPRO-W201',
                'exchange of %s at depth %s is never read before the '
                'data is dirtied or the iteration ends'
                % (describe_key(ev.key), format_widths(ev.widths, dims)),
                step_index=ev.step_index, where=where))
        elif not covers(ev.consumed, ev.widths):
            out.append(Diagnostic(
                'REPRO-W202',
                'exchange of %s at depth %s is wider than every '
                'subsequent read (deepest read: %s)'
                % (describe_key(ev.key), format_widths(ev.widths, dims),
                   format_widths(ev.consumed, dims)),
                step_index=ev.step_index, where=where))
    return out
