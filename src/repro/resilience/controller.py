"""The ResilienceController: one object supervising one ``apply``.

It owns the :class:`~repro.resilience.checkpoint.Checkpointer` and the
:class:`~repro.resilience.health.HealthGuard`, decides *when* inside the
timestep loop to snapshot or scan (the generated kernel calls
:meth:`tick` once per step, before the fault hook — so a checkpoint due
at the kill step completes before the kill fires), and implements the
recovery policy consulted by the supervised ``Operator.apply`` loop:

``abort``
    never recover (today's behaviour — the exception propagates);
``restart``
    same-world restore from the newest valid checkpoint;
``shrink``
    drop the dead rank, rebuild the world on the survivors and restore
    the checkpoint onto the new decomposition;
``grow``
    shrink first, then — once the healed rank announces itself on the
    world's lineage — repartition the live run back onto the full rank
    set (:mod:`repro.resilience.elastic`).  The victim stays inside its
    ``apply`` and rejoins instead of leaving.

Orthogonally to recovery, the controller drives the *adaptation* policy
(``repartition='grow'|'balance'``): the per-step tick raises a
collective :class:`~repro.resilience.elastic.RepartitionRequest` at a
quiescent top-of-step boundary — to grow onto announced reserve ranks,
or to rebalance the split with per-rank weights.  Oscillation is
bounded by ``min_steps_between_repartitions`` (hysteresis) and
``max_repartitions``.

When profiling is on, checkpoint/restore/healthcheck/repartition appear
as named sections of kind ``resilience`` in the
:class:`PerformanceSummary`, with both time and payload bytes.
"""

from __future__ import annotations

import time as _time

from ..mpi.faults import RankKilledError
from ..mpi.sim import RemoteRankError
from ..parameters import configuration
from ..profiling import SectionMeta
from .checkpoint import Checkpointer
from .health import HealthGuard

__all__ = ['RECOVERY_POLICIES', 'REPARTITION_POLICIES',
           'ResilienceController']

#: the accepted values of ``configuration['recovery']`` / ``['repartition']``
RECOVERY_POLICIES = configuration.accepted('recovery')
REPARTITION_POLICIES = configuration.accepted('repartition')


class ResilienceController:
    """Checkpoint cadence + health scans + the recovery policy.

    One instance per rank per ``apply`` (like the kernel invocation it
    supervises).  All parameters must agree across ranks — saves,
    restores and health verdicts are collectives.  Every parameter
    named like a ``configuration`` key takes a value already resolved
    and validated through it (``Operator.apply`` does that); the
    defaults and accepted values live in :mod:`repro.parameters` only.

    Parameters
    ----------
    op : Operator
        The operator being supervised (gives access to the schedule,
        grid, profiler and kernel for rebuilds).
    recovery : str
        'abort' | 'restart' | 'shrink' | 'grow'.
    checkpoint_every : int
        Snapshot cadence in timesteps (0: only the initial baseline
        checkpoint is taken, and only if a recovery policy or ``resume``
        needs one).
    checkpoint_dir : str
        Snapshot directory shared by all ranks.
    checkpoint_keep : int
        Retained checkpoint versions.
    max_recoveries : int
        Upper bound on recovery attempts per ``apply``.
    health_check_every : int
        NaN/Inf/blowup scan cadence (0 disables).
    health_max : float
        Amplitude bound for the blowup check.
    resume : bool
        Start from the newest valid checkpoint in ``checkpoint_dir``
        instead of the caller's ``time_m``.
    repartition : str
        Adaptation policy: 'off' (default) | 'grow' (extend onto
        announced reserve ranks) | 'balance' (weighted re-split of the
        same world).
    repartition_every : int
        Cadence of the adaptation check in timesteps; 0 means
        "repartition once, at the earliest legal step".
    min_steps_between_repartitions : int
        Hysteresis: minimum timesteps between consecutive
        repartitions (also the delay of the grow-back after a shrink
        under ``policy='grow'``).
    max_repartitions : int
        Upper bound on cadence-driven repartitions per ``apply``.
    repartition_weights : tuple of float, optional
        Per-rank split weights for 'balance' (and for the new world of
        a grow); ``None`` measures per-rank capacity from the
        profiler's compute time.
    elastic_join : dict, optional
        Joiner mode (internal; set via ``apply(_elastic_join=...)``):
        ``{'lineage': ..., 'orig': ...}`` parks this rank on the
        lineage until a grow grants it in, instead of running from
        ``time_m``.
    rejoin_timeout : float
        Seconds a parked joiner (or a healed victim) waits for a grow
        grant before giving up with ``RemoteRankError``.
    """

    def __init__(self, op, recovery, checkpoint_every, checkpoint_dir,
                 checkpoint_keep, max_recoveries, health_check_every,
                 health_max, repartition, repartition_every,
                 min_steps_between_repartitions, max_repartitions,
                 repartition_weights, resume=False, elastic_join=None,
                 rejoin_timeout=120.0):
        self.op = op
        self.policy = recovery
        self.every = checkpoint_every
        self.max_recoveries = max_recoveries
        self.resume = resume
        self.nrecoveries = 0
        self.repartition = repartition
        self.repartition_every = repartition_every
        self.min_steps = min_steps_between_repartitions
        self.max_repartitions = max_repartitions
        self.repartition_weights = repartition_weights
        self.elastic_join = elastic_join
        self.rejoin_timeout = float(rejoin_timeout)
        self.nrepartitions = 0
        self._last_repartition = None   # step of the latest repartition
        self._grow_due = None           # step of the pending grow-back
        self._reserves_waiting = False  # prepare()-time lineage snapshot
        self._rejoining = False         # this rank is a healed victim
        self._rejoin_orig = None
        self.checkpointing = (self.every > 0 or self.resume
                              or recovery in ('restart', 'shrink', 'grow'))
        self.checkpointer = Checkpointer(checkpoint_dir,
                                         keep=checkpoint_keep) \
            if self.checkpointing else None
        self.health = HealthGuard(health_check_every, health_max) \
            if health_check_every > 0 else None

        prof = op.profiler
        if prof.enabled:
            # every rank registers the same section set (summarize is a
            # collective over a shared section list)
            if self.checkpointing:
                prof.register(SectionMeta('checkpoint', 'resilience'))
            if self.policy in ('restart', 'shrink', 'grow') or self.resume:
                prof.register(SectionMeta('restore', 'resilience'))
            if self.health is not None:
                prof.register(SectionMeta('healthcheck', 'resilience'))
            if self.policy == 'grow' or self.repartition != 'off' \
                    or self.elastic_join is not None:
                prof.register(SectionMeta('repartition', 'resilience'))

        # bound by bind()
        self.comm = None
        self.t0 = 0
        self.time_M = 0

    # -- run wiring -------------------------------------------------------

    @property
    def world(self):
        return getattr(self.comm, 'world', None)

    def bind(self, comm, t0, time_M):
        """Attach the communicator and time bounds of this attempt."""
        self.comm = comm
        self.t0 = int(t0)
        self.time_M = int(time_M)

    def prepare(self):
        """Pre-loop work: resume from disk, or write the baseline
        checkpoint every recovery policy needs.  A joiner
        (``elastic_join``) instead parks on the lineage until a grow
        grants it in.  Returns the first timestep to execute
        (collective)."""
        if self.elastic_join is not None:
            return self._join()
        if self.resume:
            from .elastic import restore_checkpoint
            step, manifest = self.checkpointer.latest_valid()
            tic = _time.perf_counter()
            nbytes = restore_checkpoint(self.op, self.checkpointer, step,
                                        manifest)
            self._charge('restore', tic, nbytes, step)
            self.t0 = step
            return step
        if self.checkpointing:
            self._save(self.t0)
        if self.repartition == 'grow' and self.world is not None:
            # one coordinated snapshot of the announced reserves: the
            # per-step due-check must be pure arithmetic on state every
            # rank agrees on, or ranks would diverge on when to leave
            from .elastic import awaiting_origs
            self._reserves_waiting = bool(awaiting_origs(self.comm))
        return self.t0

    def _join(self):
        """Joiner mode: park on the lineage, enter through the grant."""
        from .elastic import rejoin

        tic = _time.perf_counter()
        new_comm, step, nbytes = rejoin(self.op,
                                        self.elastic_join['lineage'],
                                        self.elastic_join['orig'],
                                        timeout=self.rejoin_timeout)
        self.comm = new_comm
        self._charge('repartition', tic, nbytes, step)
        self._last_repartition = step
        self.t0 = step
        return step

    # -- in-loop hook (called by the generated kernel) --------------------

    def tick(self, time, flush=None):
        """Per-timestep duties: the elastic due-check first (it leaves
        the kernel at this quiescent boundary), then the health scan
        (catch corruption before snapshotting it), then the periodic
        checkpoint.

        ``flush`` (collective) reduces the kernel's pending receiver
        rows into the replicated sparse data; it runs before a
        repartition moves that data or a checkpoint writes it.  Rows
        pending when a rank dies are simply lost with the attempt: the
        replay from the checkpoint recomputes them.
        """
        kind = self._repartition_due(time)
        if kind is not None:
            from .elastic import RepartitionRequest
            if flush is not None:
                flush()
            raise RepartitionRequest(kind, time)
        if self.health is not None and self.health.due(time, self.t0):
            tic = _time.perf_counter()
            self.health.check(self.comm, self.world, self._health_fields(),
                              time)
            self._charge('healthcheck', tic, 0, time)
        if self.every > 0 and time > self.t0 \
                and (time - self.t0) % self.every == 0:
            if flush is not None:
                flush()
            self._save(time)

    def _repartition_due(self, time):
        """Kind of repartition due at ``time``, or None.

        Pure arithmetic on SPMD-uniform state (``t0``, counters, the
        prepare-time reserve snapshot), so every rank reaches the same
        verdict and the raised request is collective by construction.
        """
        if self._grow_due is not None and time == self._grow_due:
            return 'grow'   # the post-shrink grow-back, always honored
        if self.repartition == 'off':
            return None
        if self.nrepartitions >= self.max_repartitions:
            return None
        if self.repartition == 'grow' and not self._reserves_waiting:
            return None
        if self.repartition_every > 0:
            if not (time > self.t0
                    and (time - self.t0) % self.repartition_every == 0):
                return None
        elif self.nrepartitions > 0 or time <= self.t0:
            return None     # cadence 0: once, at the earliest legal step
        if self._last_repartition is not None \
                and time - self._last_repartition < self.min_steps:
            return None     # hysteresis
        return self.repartition

    def _health_fields(self):
        fields = [f for f in self.op.functions
                  if getattr(f, 'is_TimeFunction', False)]
        return fields or list(self.op.functions)

    def _save(self, step):
        tic = _time.perf_counter()
        nbytes = self.checkpointer.save(
            step, self.comm, self.world, self.op.functions,
            self.op.sparse_functions, self.op.grid.distributor)
        self._charge('checkpoint', tic, nbytes, step)

    def _charge(self, section, tic, nbytes, step):
        prof = self.op.profiler
        if prof.enabled:
            prof.timer.add(section, tic, step)
            if nbytes:
                prof.record_bytes(section, nbytes)

    # -- recovery ---------------------------------------------------------

    def should_recover(self, exc):
        """Policy decision for an exception that escaped the kernel.

        Called on *every* rank.  Under ``shrink`` the killed rank itself
        returns False after marking itself dead — it leaves the job and
        re-raises while the survivors recover without it.  Under
        ``grow`` the victim instead announces itself on the lineage and
        *stays*: its ``recover`` parks until the survivors grow back.
        A :class:`RepartitionRequest` is always recovered — it is not a
        failure, and it does not count against ``max_recoveries``.
        """
        from .elastic import RepartitionRequest

        if isinstance(exc, RepartitionRequest):
            return True
        if self.policy not in ('restart', 'shrink', 'grow'):
            return False
        if not isinstance(exc, RemoteRankError):
            return False  # e.g. NumericalHealthError: never auto-replayed
        if self.policy in ('shrink', 'grow') \
                and isinstance(exc, RankKilledError):
            world = self.world
            if world is not None and \
                    exc.rank == world.orig_of[self.comm.rank]:
                if self.policy == 'shrink':
                    world.mark_dead(self.comm.rank)
                    return False
                # grow: leave the shrinking world but stay in apply —
                # announce *before* mark_dead so the survivors' shrink
                # rendezvous (unblocked by the death) already sees us
                from .elastic import announce_rejoin
                announce_rejoin(world.lineage, exc.rank)
                world.mark_dead(self.comm.rank)
                self._rejoining = True
                self._rejoin_orig = int(exc.rank)
                return True
        return self.nrecoveries < self.max_recoveries

    def recover(self, exc):
        """Rebuild state for the next kernel attempt (collective over
        the participating ranks).  Returns ``(resume_step, arrays,
        comm)``.

        Three shapes: checkpoint recovery (restart / shrink — and the
        shrink half of ``grow``), a live repartition
        (:class:`RepartitionRequest`: rebalance, or grow onto announced
        ranks), and the healed victim's rejoin (parks on the lineage
        until granted back in).
        """
        from .elastic import RepartitionRequest

        if self._rejoining:
            return self._recover_rejoin()
        if isinstance(exc, RepartitionRequest):
            return self._recover_repartition(exc)

        from .elastic import perform_recovery

        self.nrecoveries += 1
        _time.sleep(min(0.05 * self.nrecoveries, 0.5))  # backoff
        tic = _time.perf_counter()
        step, nbytes = perform_recovery(self.op, self.comm,
                                        self.checkpointer,
                                        shrink=self.policy != 'restart')
        self.comm = self.op.grid.distributor.comm
        if self.policy == 'grow':
            # schedule the grow-back: one hysteresis window after the
            # restored step, clamped so it still fires when the run is
            # nearly over (the victim is parked waiting)
            self._grow_due = min(step + max(self.min_steps, 1),
                                 self.time_M)
        elapsed = _time.perf_counter() - tic
        self._charge('restore', tic, nbytes, step)
        world = self.world
        if world is not None and self.comm.rank == 0:
            world.recovery_stats['recovery_time'] += elapsed
        self.t0 = step
        arrays = {f.name: f.data.with_halo
                  for f in self.op.functions}
        return step, arrays, self.comm

    def _recover_repartition(self, exc):
        """A due repartition: rebalance in place or grow onto the
        announced ranks, resuming at the very step that raised."""
        from .elastic import perform_grow, perform_rebalance

        tic = _time.perf_counter()
        step = exc.step
        if exc.kind == 'balance':
            self.nrepartitions += 1
            new_comm, nbytes = perform_rebalance(
                self.op, self.comm, weights=self.repartition_weights)
        else:
            if self._grow_due is None:
                self.nrepartitions += 1   # cadence-driven, bounded
            new_comm, nbytes = perform_grow(
                self.op, self.comm, step,
                weights=self.repartition_weights)
            self._grow_due = None
            self._reserves_waiting = False
        self.comm = new_comm
        self._charge('repartition', tic, nbytes, step)
        self._last_repartition = step
        self.t0 = step
        arrays = {f.name: f.data.with_halo
                  for f in self.op.functions}
        return step, arrays, self.comm

    def _recover_rejoin(self):
        """The healed victim's side: park on the lineage until the
        survivors grow back, then resume as a rank of the new world."""
        from .elastic import rejoin

        self._rejoining = False
        tic = _time.perf_counter()
        new_comm, step, nbytes = rejoin(self.op, self.world.lineage,
                                        self._rejoin_orig,
                                        timeout=self.rejoin_timeout)
        self.comm = new_comm
        self._charge('repartition', tic, nbytes, step)
        self._last_repartition = step
        self.t0 = step
        arrays = {f.name: f.data.with_halo
                  for f in self.op.functions}
        return step, arrays, self.comm
