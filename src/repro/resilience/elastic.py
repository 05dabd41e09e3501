"""Repartitioning: every change of decomposition through one primitive.

A run changes where its state lives in six ways — ``restart`` after a
kill, ``--resume`` from disk, ``shrink`` onto the survivors, ``grow``
onto announced ranks, weighted ``rebalance``, and the joiner's
``rejoin`` — and all six go through :func:`repartition`:

1. **rebuild** — unless the decomposition is unchanged (restart,
   resume): swap in a new :class:`~repro.mpi.distributor.Distributor`,
   reallocate every distributed array (zeroed), drop the sparse routing,
   and rebuild the kernel through the operator's own build path
   (``Operator._build``: build cache, certificate, verifier).  The
   schedule is kept unless the *set* of split dimensions changed.  An
   unchanged decomposition instead zeroes the arrays in place.
2. **move** — one ``alltoall`` lands DOMAIN blocks on the new owners,
   routed by :func:`~repro.mpi.routing.block_intersections` and written
   by :meth:`~repro.mpi.data.Data.scatter_block`.  Blocks come from one
   of two sources: the **live** arrays (grow, rebalance) or the
   **checkpoint files** (restart, resume, shrink; a rank reads its own
   file, files of ranks absent from the world are spread round-robin).
   Halo cells outside the global domain are zero by construction and
   interior halos are rebuilt by each timestep's exchange before any
   read, so DOMAIN is all that moves.

The plans that decide *what* to repartition onto run under
:meth:`~repro.mpi.sim.SimWorld.coordinate` (an out-of-band rendezvous
that still works after the transport failed) and build the successor
world with :func:`_successor_world`:

``perform_recovery``
    restart: reset the world, disarm the fired kill, restore the newest
    valid checkpoint in place; shrink (ULFM-style): the victim left, the
    survivors restore it onto a new world and a shrunk topology.
``perform_grow`` / ``rejoin``
    extend a running world onto every rank announced on the lineage
    (healed kill victims under ``recovery='grow'``, or reserve ranks
    parked by an autoscaling scheduler); the joiners park until the
    grant covers them and join the alltoall receive-only.
``perform_rebalance``
    re-split the same world with per-rank weights (explicit, or
    measured from the profiler's per-rank compute time).

Live transitions land at a *top-of-step* boundary: the resilience tick
raises :class:`RepartitionRequest` before any communication of the
step.  Checkpoint restores resume at the checkpoint step.  Results are
invariant to the decomposition, so either way the completed run is
bit-identical to one that never repartitioned, and every rebuilt kernel
has passed the static verifier before a single step runs on it.
"""

from __future__ import annotations

import threading
import time as _time

import numpy as np

from ..mpi.cart import shrink_dims
from ..mpi.data import Data
from ..mpi.distributor import Distributor
from ..mpi.routing import block_intersections
from ..mpi.sim import RemoteRankError, SimComm, SimWorld, new_lineage
from .checkpoint import CheckpointError

__all__ = ['RepartitionRequest', 'announce_rejoin', 'awaiting_origs',
           'measured_rank_weights', 'new_lineage', 'perform_grow',
           'perform_rebalance', 'rank_weights_to_dim_weights',
           'rejoin', 'repartition_operator', 'run_elastic']


class RepartitionRequest(RemoteRankError):
    """Raised collectively by the resilience tick to leave the kernel at
    a step boundary for a repartition.

    The decision is a pure function of SPMD-uniform controller state,
    so *every* rank raises it at the same top-of-step point — nothing
    is in flight and no peer needs waking.  Subclassing
    :class:`~repro.mpi.sim.RemoteRankError` keeps
    ``Operator._abort_run`` from failing the world on the way out.
    """

    def __init__(self, kind, step):
        self.kind = kind            # 'grow' | 'balance'
        self.step = int(step)
        super().__init__('repartition(%s) requested at step %d'
                         % (kind, step))


# -- lineage bookkeeping ------------------------------------------------------

def announce_rejoin(lineage, orig):
    """Register original rank ``orig`` as ready to (re)join a grow."""
    with lineage['cond']:
        lineage['awaiting'][int(orig)] = True
        lineage['cond'].notify_all()


def awaiting_origs(comm):
    """Coordinated snapshot of the announced joiners (collective).

    Runs through :meth:`SimWorld.coordinate` so every rank sees the
    *same* set — a racy per-rank read could make ranks disagree on
    whether a grow is due, which would deadlock the step.
    """
    world = comm.world
    lineage = world.lineage

    def snap():
        with lineage['cond']:
            return tuple(sorted(lineage['awaiting']))

    return world.coordinate(comm.rank, snap)


# -- weights ------------------------------------------------------------------

def rank_weights_to_dim_weights(weights, topology):
    """Per-rank weights -> per-dimension :class:`Decomposition` weights.

    Dimension ``d``, part ``i`` gets the mean weight of the ranks whose
    Cartesian coordinate along ``d`` is ``i`` (C-order rank layout,
    matching :meth:`CartComm.Get_coords`).  A 1-D weighted split per
    dimension cannot express arbitrary per-rank imbalance exactly, but
    it preserves the tensor-product decomposition the generated
    schedules assume.
    """
    weights = [float(w) for w in weights]
    nranks = int(np.prod(topology))
    if len(weights) != nranks:
        raise ValueError("need one weight per rank (%d), got %d"
                         % (nranks, len(weights)))
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if sum(weights) <= 0:
        raise ValueError("weights must not all be zero")
    coords = [np.unravel_index(r, tuple(topology)) for r in range(nranks)]
    out = []
    for d, parts in enumerate(topology):
        per = []
        for i in range(parts):
            sel = [w for r, w in enumerate(weights)
                   if int(coords[r][d]) == i]
            per.append(sum(sel) / len(sel))
        out.append(tuple(per))
    return tuple(out)


def measured_rank_weights(op, comm):
    """Per-rank capacity weights from the profiler (collective).

    Capacity is the inverse of the rank's measured compute seconds
    (sections of kind ``'compute'``) — a rank that took twice as long
    should own half the points.  Falls back to equal weights when no
    timings are available (profiling off, or nothing measured yet).
    """
    prof = op.profiler
    local = 0.0
    if prof.enabled and prof.timer is not None:
        local = sum(prof.timer.total(name)
                    for name, meta in prof.sections.items()
                    if meta.kind == 'compute')
    times = comm.allgather(float(local))
    if min(times) <= 0.0:
        return (1.0,) * comm.size
    return tuple(1.0 / t for t in times)


# -- the repartition primitive ------------------------------------------------

def _window(f, lows, ranges):
    """Index of the global grid ``ranges`` in a DOMAIN-layout array of
    ``f`` whose grid dimensions start at global ``lows`` (rank-local
    dimensions, e.g. time buffers, are taken whole)."""
    return tuple(slice(None) if s.dist_index is None else
                 slice(ranges[s.dist_index][0] - lows[s.dist_index],
                       ranges[s.dist_index][1] - lows[s.dist_index])
                 for s in f.data.specs)


def _live_blocks(op):
    """Source 1: this rank's DOMAIN blocks under the *current*
    decomposition (the rebuild allocates new arrays, so these views stay
    intact)."""
    dist = op.grid.distributor
    ranges = tuple(tuple(int(v) for v in r) for r in dist.local_ranges())
    return [(ranges, {f.name: f.data.local for f in op.functions})]


def _checkpoint_blocks(op, checkpointer, step, manifest, comm):
    """Source 2: the DOMAIN blocks and replicated sparse arrays this rank
    of ``comm`` reads from checkpoint ``step``.

    A rank whose original rank wrote a file reads it; files of original
    ranks absent from ``comm``'s world (dead, or a different rank count)
    are spread round-robin — no gather to one rank.
    """
    if tuple(manifest['grid_shape']) != tuple(op.grid.shape):
        raise CheckpointError(
            "checkpoint step %d holds a %s grid, the operator's is %s"
            % (step, tuple(manifest['grid_shape']), tuple(op.grid.shape)))
    names = [f.name for f in op.functions]
    snames = [s.name for s in op.sparse_functions]
    missing = [n for n in names if n not in manifest['functions']] + \
        [n for n in snames if n not in manifest['sparse']]
    if missing:
        raise CheckpointError("checkpoint step %d is missing %s"
                              % (step, ', '.join(map(repr, missing))))
    origs = list(comm.world.orig_of)
    absent = [e['rank'] for e in manifest['ranks'] if e['rank'] not in origs]
    blocks, sparse = [], {}
    for entry in manifest['ranks']:
        orig = entry['rank']
        reader = origs.index(orig) if orig in origs \
            else absent.index(orig) % comm.size
        if reader != comm.rank:
            continue
        blobs = checkpointer.read_rank_blob(step, orig)
        ranges = tuple(tuple(int(v) for v in r) for r in entry['ranges'])
        arrays = {}
        for f in op.functions:
            halo = manifest['functions'][f.name]['halo']
            lows = [lo - h[0] for (lo, _), h in zip(ranges, halo)]
            arrays[f.name] = blobs['f:%s' % f.name][_window(f, lows, ranges)]
        blocks.append((ranges, arrays))
        sparse.update((n, blobs['s:%s' % n]) for n in snames
                      if manifest['sparse'][n]['rank'] == orig)
    return blocks, sparse


def _rebuild_decomposition(op, comm, topology=None, weights=None):
    """Re-decompose the operator's grid over ``comm`` and rebuild its
    kernel (iteration boxes, exchangers and the certificate depend on
    the decomposition).  Freshly allocated arrays are zeroed."""
    grid = op.grid
    old_split = tuple(p > 1 for p in grid.distributor.topology)
    new_dist = Distributor(grid.shape, comm=comm, topology=topology,
                           weights=weights)
    grid.distributor = new_dist
    for f in op.functions:
        f._data = Data(f._dim_specs(), new_dist, dtype=f.dtype)
    for s in op.sparse_functions:
        s._routing = None   # point-ownership plans depend on the topology
    if tuple(p > 1 for p in new_dist.topology) != old_split:
        # the *set* of distributed dimensions changed (e.g. a 2->4 grow
        # turning (2,1) into (2,2)): the old schedule has no exchange
        # steps for the newly split dimension.  Discard it — the lazy
        # ``op.schedule`` property rebuilds deterministically against
        # the swapped-in distributor
        op.schedule = None
    op._build(verify=True)


def repartition(op, blocks, sparse=None, comm=None, topology=None,
                weights=None, counters=('repartitions',
                                        'repartition_bytes')):
    """Land DOMAIN ``blocks`` on the operator's (possibly new)
    decomposition (collective).

    ``blocks`` is ``[(global ranges, {function name: DOMAIN array})]``
    from either source (:func:`_live_blocks`, :func:`_checkpoint_blocks`;
    joiners pass none); ``sparse`` maps sparse-function names to the
    replicated arrays this rank ships to everyone.  With ``comm``
    (optionally ``topology``/per-dimension ``weights``) the grid is
    re-decomposed and the kernel rebuilt first; without, the
    decomposition is unchanged and the arrays are zeroed in place.  The
    world's ``counters`` (a count and a bytes key of
    ``recovery_stats``) record the move.  Returns the payload bytes this
    rank received.
    """
    if comm is None:
        for f in op.functions:
            f.data.with_halo.fill(0)
    else:
        _rebuild_decomposition(op, comm, topology, weights)
    dist = op.grid.distributor
    comm = dist.comm
    outgoing = [[] for _ in range(comm.size)]
    for ranges, arrays in blocks:
        lows = [lo for lo, _ in ranges]
        for dest, isect in block_intersections(ranges, dist):
            for f in op.functions:
                piece = arrays[f.name][_window(f, lows, isect)]
                outgoing[dest].append(('f', f.name, isect,
                                       np.ascontiguousarray(piece)))
    for name, arr in (sparse or {}).items():
        arr = np.ascontiguousarray(arr)
        for dest in outgoing:
            dest.append(('s', name, None, arr))
    by_name = {f.name: f for f in op.functions}
    sparse_by_name = {s.name: s for s in op.sparse_functions}
    nbytes = 0
    for pieces in comm.alltoall(outgoing):
        for kind, name, isect, arr in pieces:
            if kind == 'f':
                nbytes += by_name[name].data.scatter_block(isect, arr)
            else:
                sparse_by_name[name].data[...] = arr
                nbytes += arr.nbytes
    total = comm.allreduce(int(nbytes))
    if comm.rank == 0:
        count, nbytes_key = counters
        comm.world.recovery_stats[count] += 1
        comm.world.recovery_stats[nbytes_key] += int(total)
    return nbytes


def restore_checkpoint(op, checkpointer, step, manifest, comm=None,
                       topology=None):
    """Restore checkpoint ``step`` — written under any decomposition —
    in place, or onto ``comm`` with ``topology`` (collective).  Returns
    the payload bytes this rank received."""
    blocks, sparse = _checkpoint_blocks(
        op, checkpointer, step, manifest,
        comm if comm is not None else op.grid.distributor.comm)
    return repartition(op, blocks, sparse, comm, topology,
                       counters=('checkpoints_restored', 'restored_bytes'))


def _successor_world(old_world, origs):
    """The next world generation over original ranks ``origs``
    (collective plans only, after ``old_world.reset()``): same fault
    plan, transport settings and lineage, recovery counters carried
    over, and fired kills banked by original rank so a kill that fired
    before the transition never re-fires after it."""
    new_world = SimWorld(
        len(origs),
        faults=old_world.faults if old_world.faults is not None else False,
        recv_timeout=old_world.recv_timeout,
        max_retries=old_world.max_retries,
        check_interval=old_world.check_interval,
        orig_of=tuple(origs),
        lineage=old_world.lineage)
    new_world.disarmed_kills = old_world.disarmed_kills | \
        old_world.pending_kills
    new_world.recovery_stats = dict(old_world.recovery_stats)
    return new_world


# -- checkpoint recovery ------------------------------------------------------

def perform_recovery(op, comm, checkpointer, shrink=False):
    """Checkpoint recovery after a kill (collective over the survivors).

    ``restart`` (``shrink=False``): every rank survived; reset the
    world, disarm the fired kill and restore the newest valid
    checkpoint in place.  ``shrink``: the victim marked itself dead and
    left; the survivors restore the checkpoint onto a new world and a
    shrunk topology.  Returns ``(resume_step, bytes_received_locally)``;
    the operator's communicator is the one to continue on.
    """
    world = comm.world

    def plan():
        world.reset()
        step, manifest = checkpointer.latest_valid()
        world.recovery_stats['recoveries'] += 1
        if not shrink:
            world.disarmed_kills |= world.pending_kills
            world.pending_kills.clear()
            return step, manifest, None
        alive = world.alive_ranks()
        world.recovery_stats['ranks_lost'] += world.size - len(alive)
        lineage = world.lineage
        with lineage['cond']:
            if lineage['topology0'] is None:
                # remember the pre-shrink process grid so a later grow
                # back to full size restores it exactly
                lineage['topology0'] = tuple(op.grid.distributor.topology)
        return step, manifest, _successor_world(
            world, [world.orig_of[r] for r in alive])

    step, manifest, new_world = world.coordinate(comm.rank, plan)
    if new_world is None:
        return step, restore_checkpoint(op, checkpointer, step, manifest)
    new_comm = SimComm(new_world,
                       new_world.orig_of.index(world.orig_of[comm.rank]))
    topology = shrink_dims(op.grid.distributor.topology, new_world.size)
    return step, restore_checkpoint(op, checkpointer, step, manifest,
                                    new_comm, topology)


# -- grow ---------------------------------------------------------------------

def _enter_grant(op, grant, orig, blocks):
    """Both cohorts of a grow: rebuild on the granted world as original
    rank ``orig`` and take part in the block alltoall."""
    world = grant['world']
    comm = SimComm(world, world.orig_of.index(orig))
    sparse = None
    if comm.rank == grant['sparse_sender']:
        # joiners carry stale sparse state: one survivor ships it
        sparse = {s.name: s.data for s in op.sparse_functions}
    return repartition(op, blocks, sparse, comm, grant['topology'],
                       grant['weights'])


def perform_grow(op, comm, step, weights=None):
    """Grow the live operator onto every announced joiner (collective
    over the *current* world's ranks; the joiners meet us through the
    lineage and participate in the block alltoall on the new comm).

    Returns ``(new_comm, nbytes_received_locally)``; as a side effect
    the operator's grid, data, sparse routing and kernel are rebuilt
    for the extended topology and the run can resume at ``step``.
    """
    old_world = comm.world
    lineage = old_world.lineage

    def plan():
        with lineage['cond']:
            healed = tuple(sorted(lineage['awaiting']))
            lineage['awaiting'].clear()
        old_world.reset()
        survivors = tuple(old_world.orig_of)
        new_world = _successor_world(
            old_world, sorted(set(survivors) | set(healed)))
        new_world.recovery_stats['grown_ranks'] += len(healed)
        new_origs = new_world.orig_of
        top0 = lineage['topology0']
        if top0 is not None and int(np.prod(top0)) == len(new_origs):
            topology = tuple(top0)  # restore the pre-shrink process grid
        else:
            topology = shrink_dims(op.grid.distributor.topology,
                                   len(new_origs))
        dim_weights = None
        if weights is not None:
            dim_weights = rank_weights_to_dim_weights(weights, topology)
        grant = {'world': new_world, 'step': int(step),
                 'topology': topology, 'weights': dim_weights,
                 'joiners': healed,
                 'sparse_sender': new_origs.index(min(survivors)),
                 'epoch': lineage['epoch'] + 1}
        with lineage['cond']:
            lineage['epoch'] = grant['epoch']
            lineage['grant'] = grant
            lineage['cond'].notify_all()
        return grant

    grant = old_world.coordinate(comm.rank, plan)
    if not grant['joiners']:
        raise RemoteRankError("grow requested with no announced joiners")
    nbytes = _enter_grant(op, grant, old_world.orig_of[comm.rank],
                          _live_blocks(op))
    return op.grid.distributor.comm, nbytes


def rejoin(op, lineage, orig, timeout=120.0):
    """The joiner's half of a grow: park until granted, rebuild, receive.

    Blocks until a grant covers original rank ``orig`` (announce first
    with :func:`announce_rejoin`), rebuilds this rank's substrate
    against the granted world and joins the block alltoall receive-only.
    Returns ``(new_comm, resume_step, nbytes_received)``.
    """
    cond = lineage['cond']
    deadline = _time.monotonic() + float(timeout)
    with cond:
        while True:
            grant = lineage['grant']
            if grant is not None and int(orig) in grant['joiners']:
                break
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise RemoteRankError(
                    "original rank %d waited %.0fs for a grow grant "
                    "that never came" % (orig, timeout))
            cond.wait(remaining)
    nbytes = _enter_grant(op, grant, int(orig), [])
    return op.grid.distributor.comm, int(grant['step']), nbytes


# -- rebalance ----------------------------------------------------------------

def perform_rebalance(op, comm, weights=None):
    """Re-split the same world proportionally to ``weights`` (one
    non-negative float per rank; ``None`` measures capacities from the
    profiler).  Collective.  Returns ``(comm, nbytes_received)``.
    """
    if weights is None:
        weights = measured_rank_weights(op, comm)
    weights = tuple(float(w) for w in weights)
    if len(weights) != comm.size:
        raise ValueError("need one weight per rank (%d), got %d"
                         % (comm.size, len(weights)))
    dist = op.grid.distributor
    dim_weights = rank_weights_to_dim_weights(weights, dist.topology)
    # the existing Cartesian comm is reused (Distributor passthrough):
    # same world, same neighbors, new split boundaries
    nbytes = repartition(op, _live_blocks(op), comm=dist.comm,
                         weights=dim_weights)
    return op.grid.distributor.comm, nbytes


# -- the public Operator entry point ------------------------------------------

def repartition_operator(op, new_ranks=None, weights=None, timeout=120.0):
    """Backend of ``Operator.repartition`` — SPMD, between applies.

    ``new_ranks == comm.size`` (or ``None``) rebalances in place;
    ``new_ranks > comm.size`` grows onto reserve ranks that announced
    themselves on the world's lineage (:func:`announce_rejoin` +
    :func:`rejoin`).  Shrinking a healthy world is refused — losing
    ranks is the *recovery* path, not an adaptation policy.
    """
    comm = op.grid.distributor.comm
    size = comm.size
    new_ranks = size if new_ranks is None else int(new_ranks)
    if new_ranks < size:
        raise ValueError(
            "repartition cannot shrink a healthy world (%d -> %d "
            "ranks); rank loss is handled by the recovery policies"
            % (size, new_ranks))
    if new_ranks == size:
        new_comm, _ = perform_rebalance(op, comm, weights=weights)
        return new_comm
    world = comm.world
    lineage = world.lineage
    need = new_ranks - size
    deadline = _time.monotonic() + float(timeout)
    with lineage['cond']:
        while len(lineage['awaiting']) < need:
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise RemoteRankError(
                    "repartition to %d ranks: only %d of %d reserve "
                    "ranks announced within %.0fs"
                    % (new_ranks, len(lineage['awaiting']), need,
                       timeout))
            lineage['cond'].wait(remaining)
    new_comm, _ = perform_grow(op, comm, 0, weights=weights)
    return new_comm


# -- test/service harness -----------------------------------------------------

def run_elastic(active_fn, nactive, reserve_fn=None, nreserve=0,
                faults=None, disarmed=(), timeout=600.0):
    """SPMD launcher with parked reserve ranks sharing one lineage.

    ``active_fn(comm)`` runs on ranks ``0..nactive-1`` of a fresh
    world; ``reserve_fn(lineage, orig)`` runs on parked original ranks
    ``nactive..nactive+nreserve-1``.  Reserve origs are announced on
    the lineage *before* any active starts, so a reserve-grow policy's
    prepare-time snapshot sees them deterministically.  ``faults`` and
    ``disarmed`` mirror :class:`SimWorld` (``None`` reads the global
    configuration; pass a plan for a private one, plus the already
    fired kills to skip on a retry).  Returns ``(active_results,
    reserve_results)``; the first exception raised by any thread is
    re-raised here.
    """
    lineage = new_lineage()
    world = SimWorld(nactive, faults=faults, lineage=lineage)
    world.disarmed_kills = set(disarmed)
    for i in range(nreserve):
        announce_rejoin(lineage, nactive + i)
    results = [None] * (nactive + nreserve)
    errors = []
    lock = threading.Lock()

    def active(rank):
        comm = SimComm(world, rank)
        try:
            results[rank] = active_fn(comm)
        except BaseException as exc:  # noqa: BLE001 - propagate to caller
            with lock:
                errors.append((rank, exc))
            world.fail()

    def reserve(orig):
        try:
            results[orig] = reserve_fn(lineage, orig)
        except BaseException as exc:  # noqa: BLE001 - propagate to caller
            with lock:
                errors.append((orig, exc))
            world.fail()

    threads = [threading.Thread(target=active, args=(r,), daemon=True,
                                name='elastic-rank-%d' % r)
               for r in range(nactive)]
    threads += [threading.Thread(target=reserve, args=(nactive + i,),
                                 daemon=True,
                                 name='elastic-reserve-%d' % i)
                for i in range(nreserve)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        if t.is_alive():
            world.fail()
            raise RemoteRankError("elastic thread did not terminate "
                                  "(deadlock?)")
    if errors:
        errors.sort(key=lambda e: e[0])
        primary = [e for e in errors
                   if not isinstance(e[1], RemoteRankError)] or errors
        raise primary[0][1]
    return results[:nactive], results[nactive:]
