"""The shot-level batch scheduler: a queue of simulations over the pool.

``SurveyScheduler`` accepts independent :class:`~repro.service.spec.
ShotSpec` jobs, orders them by priority (ties FIFO), executes them over
a bounded worker pool of warm :class:`~repro.service.pool.
OperatorPool` instances, persists results through an
:class:`~repro.service.store.ArrayStore`, and rolls per-job profiling
summaries into a :class:`~repro.service.report.BatchReport`.

Crash containment: a job that dies — an injected kill, a numerical
blowup, any exception — fails alone.  Its pooled instance (and the
private ``SimWorld`` that carried the crash) is discarded; transport
and fault errors are retried within the job's budget with the fired
kill disarmed (the PR 2/3 machinery: ``SimWorld.disarmed_kills`` is
exactly what checkpoint-restart uses so a replayed timestep doesn't
re-die); anything else, or an exhausted budget, marks the job failed
while the rest of the batch runs to completion.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time as _time

from .. import configuration
from ..ioutil import atomic_write_json
from .pool import OperatorPool
from .report import BatchReport
from .spec import ShotSpec, kernel_setup, new_job_id
from .store import ArrayStore

__all__ = ['JobRecord', 'JobState', 'SurveyScheduler', 'run_shot_solo']


class JobState:
    """Job lifecycle states (plain strings, JSON-friendly)."""
    PENDING = 'pending'
    RUNNING = 'running'
    DONE = 'done'
    FAILED = 'failed'


def _gather_results(result):
    """Distill a solver ``forward()`` return into plain arrays.

    Every solver returns ``(rec_data, field(s)..., summary)``; the
    primary wavefield is the second element (a TimeFunction, or an
    indexable vector of them).
    """
    rec_data = result[0]
    wf = result[1]
    field = wf.data.gather() if hasattr(wf, 'data') \
        else wf[0].data.gather()
    return {'wavefield': field,
            'rec': None if rec_data is None else rec_data.copy()}


def _summary_perf(summary):
    """The per-job profiling distillate carried by the batch report."""
    perf = {'elapsed': summary.elapsed, 'timesteps': summary.timesteps,
            'points': summary.points, 'gpointss': summary.gpointss,
            'gflopss': summary.gflopss,
            'build_status': summary.build.get('status'),
            'sections': {}, 'section_kinds': {}}
    for name, entry in summary.items():
        perf['sections'][name] = entry.time
        perf['section_kinds'][entry.kind] = \
            perf['section_kinds'].get(entry.kind, 0.0) + entry.time
    return perf


def run_shot_solo(spec):
    """The oracle: run ``spec`` alone, cold, on a fresh private world.

    No pool, no cache, no scheduler — exactly what a lone
    ``Operator.apply`` of the same shot computes.  Returns
    ``{'wavefield': ndarray, 'rec': ndarray | None, 'summary': ...}``.
    The batch path must reproduce these arrays bit-for-bit.
    """
    from ..mpi.sim import SimComm, SimWorld
    comm = SimComm(SimWorld(1, faults=False), 0)
    solver, _ = kernel_setup(spec.kernel)(
        shape=spec.shape, spacing=spec.spacing, tn=spec.tn,
        space_order=spec.space_order, nbl=spec.nbl, comm=comm,
        nrec=spec.nrec, cache=False)
    kwargs = {}
    if spec.dt is not None:
        kwargs['dt'] = spec.dt
    result = solver.forward(**kwargs)
    out = _gather_results(result)
    out['summary'] = result[-1]
    return out


class JobRecord:
    """The mutable lifecycle record of one submitted job."""

    def __init__(self, job_id, spec, priority, seq, max_retries):
        self.job_id = job_id
        self.spec = spec
        self.priority = int(priority)
        self.seq = seq                      # submission order (FIFO tie-break)
        self.max_retries = int(max_retries)
        self.state = JobState.PENDING
        self.attempts = 0
        self.completions = 0                # exactly-once guard, tested
        self.error = None
        self.retry_errors = []
        self.disarmed = set()               # (rank, timestep) kills fired
        self.submitted_at = _time.time()
        self.started_at = None
        self.finished_at = None
        self.latency_seconds = None
        self.start_orders = []              # global start sequence numbers
        self.cache_statuses = []            # per-attempt pool build status
        self.result_keys = []
        self.perf = None

    @property
    def started_order(self):
        """Global start index of the first attempt (ordering tests)."""
        return self.start_orders[0] if self.start_orders else None

    def to_dict(self):
        return {
            'job_id': self.job_id,
            'spec': self.spec.to_dict(),
            'priority': self.priority,
            'state': self.state,
            'attempts': self.attempts,
            'completions': self.completions,
            'max_retries': self.max_retries,
            'error': self.error,
            'retry_errors': list(self.retry_errors),
            'disarmed_kills': sorted(list(k) for k in self.disarmed),
            'submitted_at': self.submitted_at,
            'started_at': self.started_at,
            'finished_at': self.finished_at,
            'latency_seconds': self.latency_seconds,
            'cache_statuses': list(self.cache_statuses),
            'result_keys': list(self.result_keys),
            'perf': self.perf,
        }


class SurveyScheduler:
    """Batched multi-shot execution over a warm operator pool.

    Parameters
    ----------
    workers : int, optional
        Bounded concurrency: at most this many jobs run at once
        (default ``configuration['service_workers']``).
    store : ArrayStore, str or None
        Result store.  A path builds an :class:`ArrayStore` there;
        ``None`` keeps results in memory (``result()`` serves both).
    pool : OperatorPool, optional
        The warm pool; built fresh (with ``cache``) when omitted.
    cache : None, BuildCache, bool or str
        Build-cache selector for an auto-built pool (``Operator``
        ``cache=`` semantics).
    max_retries : int, optional
        Default per-job retry budget for transport/fault failures
        (default ``configuration['service_retries']``).
    record_dir : str, optional
        When set, every job-state change is persisted as
        ``<record_dir>/<job_id>.json`` (the ``repro status`` surface).
    autoscale : bool, optional
        Elastic autoscaling of distributed jobs (``spec.ranks > 1``):
        at launch, idle pooled instances donate their ranks
        (:meth:`OperatorPool.donate_idle`) and the job grows onto them
        mid-run through the elastic repartitioner.  Results are
        bit-identical to the same job run solo — growth changes only
        where the bits are computed, never what they are.
    autoscale_max : int, optional
        Cap on donated ranks per job (default: ``spec.ranks``, i.e. a
        job can at most double).
    """

    def __init__(self, workers=None, store=None, pool=None, cache=None,
                 max_retries=None, record_dir=None, autoscale=False,
                 autoscale_max=None):
        self.workers = configuration.resolve('service_workers', workers)
        if store is None or isinstance(store, ArrayStore):
            self.store = store
        else:
            self.store = ArrayStore(store)
        self.pool = pool if pool is not None else OperatorPool(cache=cache)
        self.max_retries = configuration.resolve('service_retries',
                                                 max_retries)
        self.record_dir = None if record_dir is None \
            else os.fspath(record_dir)
        self.autoscale = bool(autoscale)
        self.autoscale_max = None if autoscale_max is None \
            else int(autoscale_max)
        self._jobs = {}
        self._queue = []                    # heap of (-priority, seq, id)
        self._seq = itertools.count()
        self._start_seq = itertools.count()
        self._memory_results = {}
        self._running = 0
        self._cv = threading.Condition()

    # -- submission ----------------------------------------------------------------

    def submit(self, spec, priority=None):
        """Enqueue one shot; returns its job id.

        ``priority`` overrides ``spec.priority``; higher runs earlier,
        equal priorities run in submission order (FIFO fairness).
        """
        if not isinstance(spec, ShotSpec):
            raise TypeError("submit() expects a ShotSpec, got %r"
                            % (spec,))
        prio = int(priority if priority is not None else spec.priority)
        job_id = spec.job_id or new_job_id()
        with self._cv:
            if job_id in self._jobs:
                raise ValueError("duplicate job id %r" % (job_id,))
            seq = next(self._seq)
            retries = spec.max_retries if spec.max_retries is not None \
                else self.max_retries
            record = JobRecord(job_id, spec, prio, seq, retries)
            self._jobs[job_id] = record
            heapq.heappush(self._queue, (-prio, seq, job_id))
            self._cv.notify()
        self._persist(record)
        return job_id

    def submit_batch(self, specs, priority=None):
        return [self.submit(s, priority=priority) for s in specs]

    # -- the drain loop ------------------------------------------------------------

    def run(self):
        """Drain the queue with ``workers`` threads; returns the report.

        Returns when every submitted job reached a terminal state
        (``done`` or ``failed``) — a crashed job never takes the batch
        down with it.
        """
        tic = _time.perf_counter()
        threads = [threading.Thread(target=self._worker, daemon=True,
                                    name='survey-worker-%d' % i)
                   for i in range(self.workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = _time.perf_counter() - tic
        report = BatchReport(sorted(self._jobs.values(),
                                    key=lambda r: r.seq),
                             wall, self.pool.snapshot_stats())
        if self.record_dir is not None:
            report.save(os.path.join(self.record_dir, 'report.json'))
        return report

    def _worker(self):
        while True:
            with self._cv:
                while not self._queue and self._running:
                    self._cv.wait(timeout=0.05)
                if not self._queue:
                    if not self._running:
                        return
                    continue
                _, _, job_id = heapq.heappop(self._queue)
                record = self._jobs[job_id]
                record.state = JobState.RUNNING
                record.attempts += 1
                record.start_orders.append(next(self._start_seq))
                if record.started_at is None:
                    record.started_at = _time.time()
                self._running += 1
            try:
                self._execute(record)
            finally:
                with self._cv:
                    self._running -= 1
                    self._cv.notify_all()

    # -- job execution -------------------------------------------------------------

    def _execute(self, record):
        from ..mpi.faults import FaultPlan, RankKilledError
        from ..mpi.sim import RemoteRankError
        spec = record.spec
        if spec.ranks > 1:
            self._execute_distributed(record)
            return
        plan = FaultPlan.parse(spec.faults) if spec.faults else None
        tic = _time.perf_counter()
        try:
            inst = self.pool.checkout(spec, faults=plan,
                                      disarmed=record.disarmed)
        except Exception as exc:  # noqa: BLE001 - a bad spec fails alone
            self._finish_failed(record, exc, retryable=False)
            return
        record.cache_statuses.append(
            'reused' if inst.jobs_served > 1 else inst.build_status)
        healthy = True
        try:
            kwargs = {'job_id': record.job_id}
            if spec.dt is not None:
                kwargs['dt'] = spec.dt
            result = inst.solver.forward(**kwargs)
            # gather while the lease is held: checkin() resets the
            # instance's fields back to the initial snapshot
            arrays = _gather_results(result)
        except Exception as exc:  # noqa: BLE001 - contain, classify, retry
            healthy = False
            record.disarmed |= set(inst.world.pending_kills)
            from ..resilience.health import NumericalHealthError
            retryable = isinstance(exc, (RankKilledError, RemoteRankError,
                                         NumericalHealthError))
            self._finish_failed(record, exc, retryable=retryable)
            return
        finally:
            self.pool.checkin(inst, healthy=healthy)
        summary = result[-1]
        keys = []
        for name, array in arrays.items():
            if array is None:
                continue
            key = '%s/%s' % (record.job_id, name)
            if self.store is not None:
                self.store.put(key, array)
            else:
                self._memory_results[key] = array
            keys.append(key)
        latency = _time.perf_counter() - tic
        with self._cv:
            record.perf = _summary_perf(summary)
            record.result_keys = keys
            record.state = JobState.DONE
            record.completions += 1
            record.finished_at = _time.time()
            record.latency_seconds = latency
        self._persist(record)

    def _execute_distributed(self, record):
        """Run a ``ranks > 1`` job on its own multi-rank world; with
        autoscaling, grow mid-run onto ranks donated by idle pooled
        instances.

        The bit-identity contract of the batch path extends unchanged:
        a grown job computes exactly the arrays its solo run computes —
        the elastic repartitioner only moves where blocks live, and the
        post-grow schedule re-passes the static verifier before a
        single further step runs.
        """
        from ..mpi.faults import FaultPlan, RankKilledError
        from ..mpi.sim import RemoteRankError, SimComm, SimWorld
        from ..resilience.elastic import run_elastic
        from ..resilience.health import NumericalHealthError

        spec = record.spec
        plan = FaultPlan.parse(spec.faults) if spec.faults else None
        tic = _time.perf_counter()
        extra = 0
        if self.autoscale:
            cap = spec.ranks if self.autoscale_max is None \
                else self.autoscale_max
            extra = self.pool.donate_idle(cap)
        target = spec.ranks + extra
        cache = self.pool.cache if self.pool.cache is not None else False
        worlds = []

        def build(comm):
            solver, _ = kernel_setup(spec.kernel)(
                shape=spec.shape, spacing=spec.spacing, tn=spec.tn,
                space_order=spec.space_order, nbl=spec.nbl, comm=comm,
                nrec=spec.nrec, cache=cache)
            return solver

        def run_kwargs():
            kwargs = {'job_id': record.job_id}
            if spec.dt is not None:
                kwargs['dt'] = spec.dt
            return kwargs

        def active(comm):
            worlds.append(comm.world)
            solver = build(comm)
            kwargs = run_kwargs()
            if extra:
                kwargs['repartition'] = 'grow'
            result = solver.forward(**kwargs)
            # gather on the (possibly grown) communicator: collective,
            # so reserves must mirror this call in their epilogue
            arrays = _gather_results(result)
            return arrays, result[-1], solver.op.cache_info()['status']

        def reserve(lineage, orig):
            # build against a throwaway world of the *target* size so
            # the compiled schedule carries every halo exchange the
            # grown decomposition needs
            solver = build(SimComm(SimWorld(target, faults=False), 0))
            kwargs = run_kwargs()
            kwargs['_elastic_join'] = {'lineage': lineage, 'orig': orig}
            result = solver.forward(**kwargs)
            _gather_results(result)
            return None

        try:
            act, _ = run_elastic(active, spec.ranks,
                                 reserve_fn=reserve if extra else None,
                                 nreserve=extra,
                                 faults=plan if plan is not None else False,
                                 disarmed=record.disarmed)
        except Exception as exc:  # noqa: BLE001 - contain, classify, retry
            for w in worlds:
                record.disarmed |= set(w.pending_kills)
            retryable = isinstance(exc, (RankKilledError, RemoteRankError,
                                         NumericalHealthError))
            self._finish_failed(record, exc, retryable=retryable)
            return
        arrays, summary, build_status = act[0]
        record.cache_statuses.append(build_status)
        keys = []
        for name, array in arrays.items():
            if array is None:
                continue
            key = '%s/%s' % (record.job_id, name)
            if self.store is not None:
                self.store.put(key, array)
            else:
                self._memory_results[key] = array
            keys.append(key)
        latency = _time.perf_counter() - tic
        with self._cv:
            record.perf = _summary_perf(summary)
            record.perf['ranks'] = spec.ranks
            record.perf['grown_ranks'] = extra
            record.result_keys = keys
            record.state = JobState.DONE
            record.completions += 1
            record.finished_at = _time.time()
            record.latency_seconds = latency
        self._persist(record)

    def _finish_failed(self, record, exc, retryable):
        """Retry within budget (transport/fault errors only) or mark
        the job failed; either way the batch continues."""
        message = '%s: %s' % (type(exc).__name__, exc)
        with self._cv:
            if retryable and record.attempts <= record.max_retries:
                record.retry_errors.append(message)
                record.state = JobState.PENDING
                heapq.heappush(self._queue, (-record.priority,
                                             next(self._seq),
                                             record.job_id))
                self._cv.notify()
            else:
                record.state = JobState.FAILED
                record.error = message
                record.finished_at = _time.time()
        self._persist(record)

    # -- results / introspection ----------------------------------------------------

    def result(self, job_id):
        """The stored arrays of a completed job, keyed by short name."""
        record = self._jobs[job_id]
        if record.state != JobState.DONE:
            raise ValueError("job %s is %s, not done"
                             % (job_id, record.state))
        out = {}
        for key in record.result_keys:
            name = key.split('/', 1)[1]
            if self.store is not None:
                out[name] = self.store.get(key)
            else:
                out[name] = self._memory_results[key]
        return out

    def status(self, job_id=None):
        """One job's record dict, or {job_id: state} for the batch."""
        if job_id is not None:
            return self._jobs[job_id].to_dict()
        return {jid: r.state for jid, r in self._jobs.items()}

    @property
    def jobs(self):
        """Records in submission order."""
        return sorted(self._jobs.values(), key=lambda r: r.seq)

    def _persist(self, record):
        if self.record_dir is None:
            return
        os.makedirs(self.record_dir, exist_ok=True)
        atomic_write_json(os.path.join(self.record_dir,
                                       '%s.json' % record.job_id),
                          record.to_dict())

    def __repr__(self):
        states = {}
        for r in self._jobs.values():
            states[r.state] = states.get(r.state, 0) + 1
        return 'SurveyScheduler(workers=%d, jobs=%s)' % (
            self.workers, states or '{}')
