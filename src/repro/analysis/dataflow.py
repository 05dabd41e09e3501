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
  rank-agnostic step record, :func:`~repro.ir.program.step_program`);
  every other pass runs once per structure.

Time indices are modular (``(time + s) % nb``) and therefore always
in-bounds by construction; the interval analysis covers space
dimensions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from ..ir.access import Key, Widths, union_widths
from .diagnostics import Diagnostic

__all__ = ['check_inbounds', 'infer_min_widths', 'prove_inbounds']


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


def check_inbounds(schedule: Any) -> List[Diagnostic]:
    """Pass 4: prove every generated array access in-bounds (E123), on
    the schedule's own rank (:func:`prove_inbounds` of its step
    record)."""
    from ..ir.program import step_program
    functions = {f.name: f for f in schedule.functions}
    return prove_inbounds(step_program(schedule), functions,
                          schedule.grid.distributor,
                          schedule.grid.dimensions)


def prove_inbounds(program: Dict[str, Any], functions: Dict[str, Any],
                   dist: Any, dims: Any) -> List[Diagnostic]:
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
    Nothing here is taken from another rank: the step record
    ``program`` (:func:`~repro.ir.program.step_program`) only says which
    regions a section iterates and which offsets it reads and writes.

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
    for sec in program['loop']:
        si = sec['step']
        if sec['kind'] == 'compute':
            seen: Set[Tuple[str, Tuple[int, ...], int]] = set()
            boxes = region_boxes(sec['region'], sec['widths'], dist,
                                 sec['grow'])
            for box in boxes:
                for name, offsets, is_write in sec['accesses']:
                    prove(functions[name], tuple(offsets), box, si,
                          'write' if is_write else 'read', seen)
            # reads precede writes in the record: a section's scratch
            # reads need what earlier sections computed
            for name, offsets, is_write in sec['accesses']:
                if functions[name].is_Scratch and not is_write:
                    prove_computed(name, offsets, boxes, si)
                elif functions[name].is_Scratch:
                    computed.setdefault(name, []).extend(
                        shift(box, offsets) for box in boxes)
        elif sec['kind'] == 'sparse':
            # routed index arrays are valued in [0, n-1] (owned cells,
            # clamped at the physical boundary), shifted by hl in the
            # kernel preamble; an expression offset rides on top
            seen = set()
            for name, offsets, is_write in sec['accesses']:
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
    if dist.is_parallel and program['mode']:
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
