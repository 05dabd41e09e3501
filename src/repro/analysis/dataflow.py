"""Minimal-halo inference and the in-bounds proof.

Both read the clusters' access maps (:class:`~repro.ir.access.AccessMap`):

* :func:`infer_min_widths` — the *schedule-independent* minimal halo:
  the smallest per-dimension exchange depth sufficient for every read
  any step performs, derived without looking at a single ``HaloStep``
  (what ``repro analyze --format json`` reports as
  ``inferred_widths``).
* :func:`check_inbounds` — pass 4 of the verifier: interval analysis
  over one rank's iteration boxes (DOMAIN/CORE/REMAINDER, grown) and
  affine offsets proving every array access of the generated kernel —
  compute slices, sparse injection/interpolation fancy indices, and
  sanitizer poison writes — within the allocated (halo-padded)
  extents; ``REPRO-E123`` when a proof fails.  This is the gate a
  compiled C backend requires before executing unchecked pointer
  arithmetic.  It is the one pass that depends on the decomposition,
  so it runs per binding (:func:`prove_inbounds` over the
  rank-agnostic :func:`access_table`); every other pass runs once per
  structure.

Time indices are modular (``(time + s) % nb``) and therefore always
in-bounds by construction; the interval analysis covers space
dimensions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from ..ir.access import Key, Widths, union_widths
from .diagnostics import Diagnostic

__all__ = ['access_table', 'check_inbounds', 'infer_min_widths',
           'prove_inbounds']


def infer_min_widths(schedule: Any) -> Dict[Key, Widths]:
    """The schedule-independent minimal halo per (function, time buffer).

    The union, over every compute step, of how far its reads reach
    beyond its region along decomposed dimensions
    (:meth:`~repro.ir.access.AccessMap.reach`, from the edge of a grown
    region).  Narrower loses data some read needs; deeper moves bytes
    no read ever touches.  Scratch arrays (never exchanged) and
    all-zero keys are omitted.
    """
    dist = schedule.grid.distributor
    out: Dict[Key, Widths] = {}
    for step in schedule.steps:
        if step.is_compute:
            for key, need in step.cluster.access_map.reach(
                    dist, step.grow).items():
                out[key] = union_widths(out.get(key), need)
    return out


def _allocated_extents(func: Any, shape: Tuple[int, ...]
                       ) -> List[Tuple[int, int, int]]:
    """Per space dimension: (left halo, owned points, right halo)."""
    return [(int(hl), int(n), int(hr))
            for (hl, hr), n in zip(func.halo, shape)]


def _rows(accesses: Any) -> List[List[Any]]:
    """``[name, offsets]`` per distinct (function, offsets)."""
    out: List[List[Any]] = []
    seen: Set[Tuple[str, Tuple[int, ...]]] = set()
    for acc in accesses:
        sig = (acc.function.name, tuple(int(o) for o in acc.offsets))
        if sig not in seen:
            seen.add(sig)
            out.append([sig[0], list(sig[1])])
    return out


def access_table(schedule: Any) -> List[Dict[str, Any]]:
    """The rank-agnostic per-step table the in-bounds proof binds.

    One JSON-able record per schedule step: a compute step's region and
    carving widths (its boxes on a rank are
    :func:`~repro.ir.schedule.region_boxes` of them) and its distinct
    read and write offsets per function (from its
    :class:`~repro.ir.access.AccessMap`); a sparse step's grid accesses
    ``[name, offsets, is_write]``; a halo step's kind.  The table is
    built once per structure; :func:`prove_inbounds` runs per binding,
    against the binding rank's own allocations and boxes.
    """
    from ..ir.lowered import accesses_of
    table: List[Dict[str, Any]] = []
    for step in schedule.steps:
        if step.is_compute:
            widths = step.widths
            grow = step.grow
            table.append({
                'kind': 'compute', 'region': step.region,
                'widths': None if widths is None
                else [[int(l), int(r)] for l, r in widths],
                'grow': None if grow is None
                else [[int(l), int(r)] for l, r in grow],
                'reads': _rows(step.cluster.access_map.reads),
                'writes': _rows(step.cluster.access_map.writes)})
        elif step.is_sparse:
            accs = list(accesses_of(step.expr))
            if step.field_access is not None:
                accs.append(step.field_access)
            table.append({'kind': 'sparse', 'accesses': [
                [acc.function.name, [int(o) for o in acc.offsets],
                 bool(getattr(acc, 'is_write', False))] for acc in accs]})
        else:
            table.append({'kind': 'halo'})
    return table


def check_inbounds(schedule: Any) -> List[Diagnostic]:
    """Pass 4: prove every generated array access in-bounds (E123), on
    the schedule's own rank (:func:`prove_inbounds` of
    :func:`access_table`)."""
    functions = {f.name: f for f in schedule.functions}
    return prove_inbounds(access_table(schedule), functions,
                          schedule.grid.distributor,
                          schedule.grid.dimensions,
                          bool(schedule.mpi_mode))


def prove_inbounds(table: List[Dict[str, Any]], functions: Dict[str, Any],
                   dist: Any, dims: Any, exchanging: bool
                   ) -> List[Diagnostic]:
    """Prove one rank's generated array accesses in-bounds (E123).

    The generated kernel translates an access ``u[t+s, x+a, ...]`` over
    an iteration box ``[lo, hi)`` into the slice
    ``a + hl + lo : a + hl + hi`` of an array allocated ``hl + n + hr``
    wide; a sparse access adds its offset to routed index arrays valued
    in ``[0, n-1]`` shifted by ``hl``; a sanitizer poison write fills
    precomputed ghost boxes.  For each, interval arithmetic over this
    rank's boxes, its local shape and its *own* ``functions``'
    allocations proves
    ``0 <= start`` and ``stop <= extent`` — or emits ``REPRO-E123``.
    Nothing here is taken from another rank: the table only says which
    offsets the kernel reads and writes.  ``exchanging`` says whether
    the build exchanges halos at all (a distributed comm mode).

    A scratch array is computed afresh every timestep, so a read of one
    must also fall inside the boxes its writers covered earlier in the
    same timestep; ``REPRO-E105`` names the first cell that does not.
    """
    from ..ir.schedule import region_boxes
    from ..mpi import box_difference
    shape = tuple(int(n) for n in dist.shape_local)
    out: List[Diagnostic] = []

    def prove(func: Any, offsets: Tuple[int, ...], box: Any, si: int,
              what: str, seen: Set[Tuple[str, Tuple[int, ...], int]]) -> None:
        for d, ((lo, hi), (hl, n, hr), off) in enumerate(
                zip(box, _allocated_extents(func, shape), offsets)):
            start = int(off) + hl + int(lo)
            stop = int(off) + hl + int(hi)
            if start >= 0 and stop <= hl + n + hr:
                continue
            sig = (func.name, tuple(offsets), d)
            if sig in seen:
                continue
            seen.add(sig)
            out.append(Diagnostic(
                'REPRO-E123',
                'cannot prove the %s of %s with offset %+d along %s '
                'in-bounds: the iteration box [%d, %d) maps to array '
                'indices [%d, %d) but only [0, %d) is allocated '
                '(halo %d+%d around %d owned points)'
                % (what, func.name, int(off), dims[d].name, int(lo),
                   int(hi), start, stop, hl + n + hr, hl, hr, n),
                step_index=si))

    def shift(box: Any, offsets: Any) -> Any:
        return tuple((lo + int(o), hi + int(o))
                     for (lo, hi), o in zip(box, offsets))

    #: scratch array -> boxes written so far this timestep
    computed: Dict[str, List[Any]] = {}

    def prove_computed(name: str, offsets: Any, boxes: Any,
                       si: int) -> None:
        for box in boxes:
            missing = [shift(box, offsets)]
            for have in computed.get(name, ()):
                missing = [rest for m in missing
                           for rest in box_difference(m, have)]
            if missing:
                cell = tuple(lo for lo, _ in missing[0])
                out.append(Diagnostic(
                    'REPRO-E105',
                    'the read of scratch array %s at offset %s over the '
                    'box %s reaches cell %s, which no earlier step of '
                    'the timestep computed'
                    % (name, tuple(int(o) for o in offsets),
                       ' x '.join('[%d, %d)' % b for b in box), cell),
                    step_index=si))
                return

    # -- compute steps: slice accesses over DOMAIN/CORE/REMAINDER boxes -------------
    for si, rec in enumerate(table):
        if rec['kind'] == 'compute':
            seen: Set[Tuple[str, Tuple[int, ...], int]] = set()
            boxes = region_boxes(rec['region'], rec['widths'], dist,
                                 rec['grow'])
            for box in boxes:
                for name, offsets in rec['reads']:
                    prove(functions[name], tuple(offsets), box, si, 'read',
                          seen)
                for name, offsets in rec['writes']:
                    prove(functions[name], tuple(offsets), box, si,
                          'write', seen)
            for name, offsets in rec['reads']:
                if functions[name].is_Scratch:
                    prove_computed(name, offsets, boxes, si)
            for name, offsets in rec['writes']:
                if functions[name].is_Scratch:
                    computed.setdefault(name, []).extend(
                        shift(box, offsets) for box in boxes)
        elif rec['kind'] == 'sparse':
            # routed index arrays are valued in [0, n-1] (owned cells,
            # clamped at the physical boundary), shifted by hl in the
            # kernel preamble; an expression offset rides on top
            seen = set()
            for name, offsets, is_write in rec['accesses']:
                func = functions[name]
                what = 'write' if is_write else 'read'
                for d, ((hl, n, hr), off) in enumerate(
                        zip(_allocated_extents(func, shape), offsets)):
                    if -hl <= int(off) <= hr:
                        continue
                    sig = (func.name, tuple(offsets), d)
                    if sig in seen:
                        continue
                    seen.add(sig)
                    out.append(Diagnostic(
                        'REPRO-E123',
                        'cannot prove the sparse %s of %s with offset %+d '
                        'along %s in-bounds: routed indices span '
                        '[%d, %d] after the +%d halo shift, exceeding the '
                        'allocated extent [0, %d)'
                        % (what, func.name, int(off), dims[d].name,
                           hl + int(off), hl + n - 1 + int(off), hl,
                           hl + n + hr),
                        step_index=si))

    # -- sanitizer poison writes ----------------------------------------------------
    if dist.is_parallel and exchanging:
        from .sanitizer import poison_boxes
        for func in functions.values():
            if getattr(func, 'is_SparseFunction', False) or func.is_Scratch:
                continue
            extents = _allocated_extents(func, shape)
            for pbox in poison_boxes(func, dist):
                for d, (sl, (hl, n, hr)) in enumerate(zip(pbox, extents)):
                    start, stop = int(sl.start), int(sl.stop)
                    if 0 <= start and stop <= hl + n + hr:
                        continue
                    out.append(Diagnostic(
                        'REPRO-E123',
                        'cannot prove the sanitizer poison write of %s '
                        'in-bounds: ghost box slice [%d, %d) along %s '
                        'exceeds the allocated extent [0, %d)'
                        % (func.name, start, stop, dims[d].name,
                           hl + n + hr),
                        where='sanitizer'))
    return out
