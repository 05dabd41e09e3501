"""The affine dataflow engine (tentpole of the static verifier).

Everything the verifier previously checked was *relative*: the lattice
pass (:mod:`.halo_coverage`) proves the scheduled exchanges cover the
reads the schedule performs, but it cannot say whether the schedule
itself communicates more than the stencils strictly require, and it
proves nothing about the memory safety of the generated kernel.  This
module closes both gaps with one primitive: the **affine access map** —
per (function, time buffer) x schedule step x dimension, the exact box
hull of every read and write offset, straight from the raw
:class:`~repro.ir.lowered.Access` offsets of the hash-consed expression
DAG (sharing only the access parser with the compiler, per the
verification-first rule of this package).

On top of the access maps:

* :func:`infer_min_widths` — the *schedule-independent* minimal halo:
  the smallest per-dimension exchange depth sufficient for every read
  any step performs, derived without looking at a single ``HaloStep``.
* :func:`dependence_distances` — flow (write -> read) dependence
  distance vectors per function, ``(time distance, space offsets...)``,
  the classical dataflow summary downstream passes consume.
* :func:`check_dataflow` — pass 4 of the verifier: ``REPRO-W203`` when
  a scheduled exchange is deeper than the inferred minimum (with the
  wasted bytes/step across a grid cut quantified), and ``REPRO-E122``
  when the lattice verifier and the inference *disagree* (the
  inference derives a need the declared exchanges do not cover, yet
  the lattice simulation reports the schedule clean — an
  internal-consistency cross-check between two independent oracles).
* :func:`check_inbounds` — pass 5: interval analysis over one rank's
  iteration boxes (DOMAIN/CORE/REMAINDER) and affine
  offsets proving every array access of the generated kernel — compute
  slices, sparse injection/interpolation fancy indices, and sanitizer
  poison writes — within the allocated (halo-padded) extents;
  ``REPRO-E123`` when a proof fails.  This is the gate a compiled C
  backend requires before executing unchecked pointer arithmetic.  It
  is the one pass that depends on the decomposition, so it runs per
  binding (:func:`prove_inbounds` over the rank-agnostic
  :func:`access_table`); every other pass runs once per structure.

Time indices are modular (``(time + s) % nb``) and therefore always
in-bounds by construction; the interval analysis covers space
dimensions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from .diagnostics import Diagnostic
from .footprint import (Key, Widths, cluster_reads, cluster_writes, covers,
                        step_reach, union_widths)
from .render import describe_key, format_widths

__all__ = ['AccessMap', 'Box', 'access_maps', 'access_table',
           'dependence_distances', 'infer_min_widths', 'declared_widths',
           'wasted_bytes_per_step', 'check_dataflow', 'check_inbounds',
           'prove_inbounds']

#: per-space-dimension closed offset interval [lo, hi]
Box = Tuple[Tuple[int, int], ...]


class AccessMap:
    """The affine access summary of one compute step for one buffer.

    ``reads``/``writes`` are the box hulls of the step's access offsets
    (closed intervals, in stencil-offset coordinates: 0 = the iteration
    point), or None when the step does not read/write the buffer.
    """

    __slots__ = ('step_index', 'key', 'reads', 'writes')

    def __init__(self, step_index: int, key: Key, reads: Optional[Box],
                 writes: Optional[Box]) -> None:
        self.step_index = step_index
        self.key = key
        self.reads = reads
        self.writes = writes

    def __repr__(self) -> str:
        return ('AccessMap(step %d, %s, reads=%s, writes=%s)'
                % (self.step_index, self.key, self.reads, self.writes))


def _hull(box: Optional[Box], offsets: Tuple[int, ...]) -> Box:
    if box is None:
        return tuple((int(o), int(o)) for o in offsets)
    return tuple((min(lo, int(o)), max(hi, int(o)))
                 for (lo, hi), o in zip(box, offsets))


def access_maps(schedule: Any) -> List[AccessMap]:
    """Per compute step x (function, time buffer): read/write box hulls.

    Sparse steps are excluded: their grid accesses go through routed
    per-point index arrays, not the affine iteration space (they are
    handled by :func:`check_inbounds` separately and generate no halo
    requirement — point routing sends each contribution to the rank
    owning its support cell).
    """
    out: List[AccessMap] = []
    for si, step in enumerate(schedule.steps):
        if not step.is_compute:
            continue
        reads: Dict[Key, Box] = {}
        writes: Dict[Key, Box] = {}
        for acc in cluster_reads(step.cluster):
            key: Key = (acc.function.name, acc.time_shift)
            reads[key] = _hull(reads.get(key), acc.offsets)
        for acc in cluster_writes(step.cluster):
            key = (acc.function.name, acc.time_shift)
            writes[key] = _hull(writes.get(key), acc.offsets)
        for key in sorted(set(reads) | set(writes),
                          key=lambda k: (k[0], k[1] is not None, k[1] or 0)):
            out.append(AccessMap(si, key, reads.get(key), writes.get(key)))
    return out


def dependence_distances(schedule: Any) -> Dict[str, List[Tuple[int, ...]]]:
    """Flow (write -> read) dependence distance vectors per function.

    Each vector is ``(time distance, space offset deltas...)`` for one
    (write access, read access) pair on the same function anywhere in
    the schedule — the read's coordinates minus the write's.  Buffers
    with ``time_shift is None`` (time-invariant) use time distance 0.
    """
    reads_of: Dict[str, Set[Tuple[int, Tuple[int, ...]]]] = {}
    writes_of: Dict[str, Set[Tuple[int, Tuple[int, ...]]]] = {}
    for step in schedule.steps:
        if not step.is_compute:
            continue
        for acc in cluster_reads(step.cluster):
            reads_of.setdefault(acc.function.name, set()).add(
                (int(acc.time_shift or 0), tuple(acc.offsets)))
        for acc in cluster_writes(step.cluster):
            writes_of.setdefault(acc.function.name, set()).add(
                (int(acc.time_shift or 0), tuple(acc.offsets)))
    out: Dict[str, List[Tuple[int, ...]]] = {}
    for name in sorted(set(reads_of) & set(writes_of)):
        vectors: Set[Tuple[int, ...]] = set()
        for wt, woffs in writes_of[name]:
            for rt, roffs in reads_of[name]:
                vectors.add((rt - wt,)
                            + tuple(r - w for r, w in zip(roffs, woffs)))
        out[name] = sorted(vectors)
    return out


def _zero(ndim: int) -> Widths:
    return tuple((0, 0) for _ in range(ndim))


def infer_min_widths(schedule: Any) -> Dict[Key, Widths]:
    """The schedule-independent minimal halo per (function, time buffer).

    For every read hull, the left depth is how far the stencil reaches
    below the iteration point and the right depth how far above — along
    decomposed dimensions only (serial-dimension offsets stay on-rank),
    and from the edge of a grown region where a step's region reaches
    beyond DOMAIN.  The union over every compute step is the smallest
    exchange that can possibly be sufficient; narrower loses data some
    read needs, deeper moves bytes no read ever touches.  Scratch
    arrays (never exchanged) and all-zero keys are omitted.
    """
    dist = schedule.grid.distributor
    scratch = {f.name for f in schedule.functions if f.is_Scratch}
    out: Dict[Key, Widths] = {}
    for amap in access_maps(schedule):
        if amap.reads is None or amap.key[0] in scratch:
            continue
        grow = step_reach(schedule.steps[amap.step_index]) \
            or _zero(len(amap.reads))
        need = tuple(
            (max(0, gl - lo), max(0, gr + hi)) if dist.is_distributed(d)
            else (0, 0)
            for d, ((lo, hi), (gl, gr)) in enumerate(zip(amap.reads, grow)))
        if not any(l or r for l, r in need):
            continue
        out[amap.key] = union_widths(out.get(amap.key), need)
    return out


def declared_widths(schedule: Any) -> Dict[Key, Widths]:
    """Per-buffer union of every scheduled exchange depth (preamble
    hoists plus ``update``/``begin`` steps; ``wait`` halves repeat their
    ``begin``'s requirements and are skipped)."""
    out: Dict[Key, Widths] = {}
    for req in schedule.preamble_halo:
        key: Key = (req.function.name, req.time_shift)
        out[key] = union_widths(out.get(key),
                                tuple((l, r) for l, r in req.widths))
    for step in schedule.steps:
        if step.is_halo and step.kind in ('update', 'begin'):
            for req in step.exchanges:
                key = (req.function.name, req.time_shift)
                out[key] = union_widths(out.get(key),
                                        tuple((l, r) for l, r in req.widths))
    return out


def wasted_bytes_per_step(schedule: Any, declared: Widths,
                          needed: Widths) -> int:
    """Bytes per timestep an over-deep exchange moves beyond the need,
    across one cut of the grid per dimension.

    Counted as face slabs: for every dimension, the excess depth on each
    side times the perpendicular *global* extent, times the grid
    itemsize — what the basic-mode pattern ships for nothing across a
    whole cut plane, summed over every rank pair the cut separates.  A
    property of the structure, not of one rank's share of it.
    """
    shape = tuple(int(n) for n in schedule.grid.shape)
    itemsize = int(schedule.grid.dtype.itemsize)
    waste = 0
    for d, ((dl, dr), (nl, nr)) in enumerate(zip(declared, needed)):
        excess = max(0, dl - nl) + max(0, dr - nr)
        if not excess:
            continue
        perp = 1
        for i, n in enumerate(shape):
            if i != d:
                perp *= n
        waste += excess * perp
    return waste * itemsize


def check_dataflow(schedule: Any) -> List[Diagnostic]:
    """Pass 4: minimal-halo inference vs the scheduled exchanges.

    * ``REPRO-W203`` — an exchange is deeper than the inferred minimal
      width in some dimension (correct but wasteful; the message
      quantifies the wasted bytes per timestep across a grid cut).
    * ``REPRO-E122`` — the inference derives a minimal width the union
      of declared exchanges does not cover, yet the lattice verifier
      reports the schedule clean: two independent oracles disagree,
      which means the *analyzer* (not the schedule) is wrong somewhere.
    """
    dist = schedule.grid.distributor
    if not (dist.is_parallel and schedule.mpi_mode):
        return []
    dims = schedule.grid.dimensions
    ndim = len(dims)
    out: List[Diagnostic] = []
    inferred = infer_min_widths(schedule)

    def check_site(req: Any, si: Optional[int], where: Optional[str]) -> None:
        key: Key = (req.function.name, req.time_shift)
        widths: Widths = tuple((l, r) for l, r in req.widths)
        need = inferred.get(key, _zero(ndim))
        if covers(need, widths):
            return
        out.append(Diagnostic(
            'REPRO-W203',
            'exchange of %s at depth %s is wider than any read requires '
            '(inferred minimal halo: %s) — %d wasted byte(s)/step per cut '
            'of the grid' % (describe_key(key), format_widths(widths, dims),
                      format_widths(need, dims),
                      wasted_bytes_per_step(schedule, widths, need)),
            step_index=si, where=where))

    for req in schedule.preamble_halo:
        check_site(req, None, 'preamble')
    for si, step in enumerate(schedule.steps):
        if step.is_halo and step.kind in ('update', 'begin'):
            for req in step.exchanges:
                check_site(req, si, None)

    # -- cross-check: the inference against the lattice simulation ------------------
    # Both passes must agree on schedule sufficiency.  The lattice is
    # strictly finer (it sees ordering and staleness), so the check is
    # one-directional: an under-coverage only the inference sees while
    # the lattice calls the schedule clean is a contradiction.
    from .halo_coverage import check_halo_coverage
    lattice_clean = not any(d.is_error for d in check_halo_coverage(schedule))
    if lattice_clean:
        declared = declared_widths(schedule)
        for key in sorted(inferred,
                          key=lambda k: (k[0], k[1] is not None, k[1] or 0)):
            need = inferred[key]
            have = declared.get(key)
            if not covers(have, need):
                out.append(Diagnostic(
                    'REPRO-E122',
                    'dataflow inference derives a minimal halo of %s for '
                    '%s but the scheduled exchanges only cover %s, while '
                    'the lattice verifier reports the schedule clean — '
                    'the two verification oracles contradict each other '
                    '(analyzer self-check failure)'
                    % (format_widths(need, dims), describe_key(key),
                       'nothing' if have is None
                       else format_widths(have, dims)),
                    where='cross-check'))
    return out


def _allocated_extents(func: Any, shape: Tuple[int, ...]
                       ) -> List[Tuple[int, int, int]]:
    """Per space dimension: (left halo, owned points, right halo)."""
    return [(int(hl), int(n), int(hr))
            for (hl, hr), n in zip(func.halo, shape)]


def _distinct(accesses: Any) -> List[List[Any]]:
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
    read and write offsets per function; a sparse step's grid accesses
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
                'reads': _distinct(cluster_reads(step.cluster)),
                'writes': _distinct(cluster_writes(step.cluster))})
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
    """Pass 5: prove every generated array access in-bounds (E123), on
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
