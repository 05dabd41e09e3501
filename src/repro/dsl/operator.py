"""The Operator: from symbolic equations to an executable kernel.

``Operator([eqs...])`` runs the full compilation pipeline of the paper's
Figure 1 — equations lowering, Cluster IR construction + data-dependence
analysis, flop-reducing rewrites, halo-exchange detection and placement,
schedule/IET construction — then JIT-compiles the vectorized NumPy kernel
(and can print the equivalent C, cf. Listing 11).  ``apply`` runs it and
returns a performance summary (GPts/s, GFlops/s, operational intensity —
the metrics of Section IV).
"""

from __future__ import annotations

import time as _time

import numpy as np

from .. import configuration
from ..codegen.pybackend import generate_kernel
from ..ir.schedule import build_schedule
from ..dsl.function import Constant
from ..dsl.sparse import PrecomputedSparseData
from ..mpi.faults import RankKilledError
from ..mpi.sim import RemoteRankError
from ..profiling import PerformanceSummary, Profiler
from ..symbolics import unique_nodes

__all__ = ['Operator', 'PerformanceSummary', 'RESILIENCE_KWARGS',
           'SERVICE_KWARGS']

#: keyword arguments of ``apply`` consumed by the resilience machinery:
#: the configuration keys of the same names, plus ``resume`` (everything
#: else must name a grid spacing, a Constant or a time bound)
RESILIENCE_KWARGS = ('recovery', 'checkpoint_every', 'checkpoint_dir',
                     'checkpoint_keep', 'max_recoveries',
                     'health_check_every', 'health_max', 'resume',
                     'repartition', 'repartition_every',
                     'min_steps_between_repartitions', 'max_repartitions',
                     'repartition_weights')

#: keyword arguments of ``apply`` consumed by the survey service
#: (job attribution on the returned summary; never reach the kernel)
SERVICE_KWARGS = ('job_id',)


class Operator:
    """Compile symbolic expressions into an executable stencil kernel.

    Parameters
    ----------
    expressions : Eq / Injection / Interpolation, or (nested) lists thereof
        Executed in order, once per timestep.
    name : str
        Kernel name (cosmetic).
    opt : bool or 'verify'
        Enable the flop-reducing pipeline (CSE, factorization, hoisting).
        The special value ``'verify'`` keeps the pipeline enabled and
        additionally gates the build behind the static verifier
        (:mod:`repro.analysis`): any error-severity diagnostic —
        missing/undersized/stale halo exchange, loop race, out-of-bounds
        access — raises :class:`~repro.analysis.AnalysisError` at
        compile time.  Setting ``REPRO_OPT=verify`` turns the gate on
        globally, for every Operator.
    mpi : str or None
        Communication pattern: 'basic', 'diagonal' or 'full'.  Defaults
        to ``configuration['mpi']``; ignored on non-distributed grids.
    progress : bool
        In 'full' mode, run the progress-prodding thread (the sacrificed
        OpenMP worker calling MPI_Test).
    profiling : str or None
        Instrumentation level: 'off', 'basic' or 'advanced'.  Defaults
        to ``configuration['profiling']``.  At 'off' the generated source
        contains no timing calls (compiled out, not branched at runtime).
    sanitizer : bool, str or None
        Runtime sanitizer mode.  ``True`` or ``'poison'`` compiles the
        poisoned-halo sanitizer hooks into the kernel
        (:mod:`repro.analysis.sanitizer`): NaN sentinels are planted in
        every neighbor-owned ghost cell each iteration and every written
        DOMAIN region is scanned, so a read of an unrefreshed halo cell
        raises :class:`~repro.analysis.HaloPoisonError` at runtime —
        the dynamic complement of the static verifier.  ``'reconcile'``
        leaves the kernel untouched but, after every successful
        ``apply``, compares the per-run commlog send ledger against the
        operator's static :class:`~repro.analysis.CommCertificate` and
        raises :class:`~repro.analysis.ReconcileError` on any message
        count or byte mismatch (a static-vs-dynamic oracle).  Defaults
        to ``configuration['sanitizer']`` (env ``REPRO_SANITIZER``).
    cache : None, bool, str or BuildCache
        Build-cache control for this operator: ``None`` (default)
        follows ``configuration['build_cache']``; ``True``/``False``
        force 'on'/'off'; a mode string ('on'/'memory'/'disk'/'off')
        selects a tier combination; a
        :class:`~repro.buildcache.BuildCache` instance is used as-is.
        On a hit the whole pipeline (lowering, Cluster IR, rewrites,
        scheduling, codegen and — when gated — verification) is skipped
        and the kernel is rehydrated from the cached artifact; the
        result is bitwise-identical to a cold build.
    backend : str or None
        Execution backend: ``'numpy'`` (default, vectorized whole-array
        expressions) or ``'c'`` (generate C, compile it with the system
        toolchain and run each timestep — cache-blocked compute, halo
        exchanges over in-process channels, sparse operations, timers —
        as one GIL-free ctypes call).  Defaults to
        ``configuration['backend']`` (env ``REPRO_BACKEND``).  When no
        C compiler is available the build degrades to NumPy with a
        :class:`~repro.codegen.jit.ToolchainWarning`; when the world
        has an armed fault plan the compiled build runs its NumPy
        driver on the Python transport, so faults inject as before.
    """

    def __init__(self, expressions, name='Kernel', opt=True, mpi=None,
                 progress=False, profiling=None, sanitizer=None,
                 cache=None, backend=None):
        self.name = name
        self._expressions = expressions
        self._opt = opt
        self._mpi_requested = configuration.resolve('mpi', mpi)
        self.profiler = Profiler(configuration.resolve('profiling',
                                                       profiling))
        self._progress = bool(progress)
        #: False (off), True (poisoned-halo hooks) or 'reconcile'
        #: (certificate-vs-ledger check after every apply)
        self._sanitize = configuration.resolve('sanitizer', sanitizer)
        #: the static CommCertificate of this rank's kernel (predicted
        #: per-neighbor message counts/bytes; None until built)
        self.certificate = None
        #: the verify gate is on for opt='verify', or globally via
        #: REPRO_OPT=verify — with explicit ``opt=False`` as the
        #: debugging escape hatch that opts out of the global gate too
        self._verify = opt == 'verify' or (opt is not False
                                           and configuration['opt']
                                           == 'verify')
        #: the Schedule (None after a cache hit; the :attr:`schedule`
        #: property rebuilds it on demand)
        self._schedule = None
        #: the AnalysisReport of the verify gate (None when the gate was
        #: off and no repartition has run; call :meth:`analyze` for an
        #: on-demand run)
        self.analysis = None
        self._cache = cache
        #: the *effective* execution backend ('numpy' or 'c') — resolved
        #: before fingerprinting so a toolchain-less host never keys
        #: into (or stores) compiled artifacts
        from ..codegen import jit
        self.backend = jit.resolve_backend(
            configuration.resolve('backend', backend))
        self._build(verify=self._verify)

    # -- build-time plumbing ----------------------------------------------------

    def _build(self, verify):
        """The one build path: this rank's kernel for the grid's
        *current* decomposition.

        Used by the constructor and, after the distributor was swapped,
        by every repartition (:mod:`repro.resilience.elastic`).  The
        build is fingerprinted; a build-cache hit rehydrates the cached
        artifact, a miss generates the kernel from :attr:`schedule` and
        stores it once its certificate and (when ``verify``) the
        verifier's report exist — so an entry always carries the
        analysis of the decomposition it is keyed on.  ``verify`` is the
        ``opt='verify'`` gate at construction and always on for a
        repartition; a hit whose entry carries no report is verified
        here too.
        """
        from ..buildcache import fingerprint_build, get_cache
        # the replaced kernel's sections go; the resilience controller's
        # stay registered for the apply that is repartitioning
        self.profiler.sections = {
            name: meta for name, meta in self.profiler.sections.items()
            if meta.kind == 'resilience'}
        bcache = get_cache(self._cache)
        self._cache_info = {'status': 'off', 'key': None, 'tier': None,
                            'saved_seconds': 0.0, 'nbytes': 0}
        key = symtab = None
        if bcache is not None:
            try:
                key, symtab = fingerprint_build(
                    self._expressions, mpi_mode=self._mpi_requested,
                    opt=self._opt, verify=self._verify,
                    sanitizer=self._sanitize,
                    instrument=self.profiler.enabled,
                    progress=self._progress,
                    backend='py' if self.backend == 'numpy' else
                    self.backend)
            except TypeError:
                # inputs outside the token grammar: build cold, always
                self._cache_info['status'] = 'uncacheable'
        if key is not None:
            self._cache_info['key'] = key
            if self._warm_build(bcache, key, symtab):
                if verify and self.analysis is None:
                    self._run_verifier()
                return

        tic = _time.perf_counter()
        self._cold_build(verify)
        build_seconds = _time.perf_counter() - tic
        self.profiler.record_build_time('build', build_seconds)
        if key is not None:
            self._cache_info['status'] = 'miss'
            bcache.note_miss()
            try:
                from ..codegen.artifact import KernelArtifact
                bcache.store(key, KernelArtifact.extract(
                    self, build_seconds=build_seconds))
            except Exception:  # noqa: BLE001 - caching is best-effort
                pass

    def _cold_build(self, verify):
        """The full pipeline: lower (unless a schedule is kept across a
        repartition), codegen, certify, (verify), bind."""
        schedule = self.schedule
        self.grid = schedule.grid
        self.mpi_mode = schedule.mpi_mode
        self.kernel = generate_kernel(schedule,
                                      progress=self._progress,
                                      profiler=self.profiler,
                                      sanitizer=self._sanitize is True,
                                      backend=self.backend)
        # generate_kernel may itself degrade (e.g. unsupported dtype);
        # reflect what actually runs.  dtype is in the fingerprint, so
        # the demotion is deterministic per cache key.
        self.backend = self.kernel.backend
        from ..analysis.certificate import build_certificate
        self.certificate = build_certificate(schedule)
        self.analysis = None
        if verify:
            self._run_verifier()
        self._bind_sparse_plans()
        self._flops_per_point = schedule.flops_per_point()
        self._traffic_per_point = schedule.traffic_per_point(
            self.grid.dtype.itemsize)

    def _run_verifier(self):
        """The static verifier as a gate: raises
        :class:`~repro.analysis.AnalysisError` on any error."""
        from ..analysis import verify_schedule
        self.analysis = verify_schedule(self.schedule, kernel=self.kernel,
                                        profiler=self.profiler)

    def _warm_build(self, bcache, key, symtab):
        """Rehydrate a cached artifact; False (-> cold build) on any
        problem.  A warm kernel is bitwise-identical to a cold one: the
        cached source was generated from identical inputs (that is what
        the fingerprint asserts) and everything runtime-dependent —
        sparse routing, exchanger transports, constants — is rebuilt
        against the live objects."""
        artifact, tier = bcache.lookup(key)
        if artifact is None:
            return False
        tic = _time.perf_counter()
        try:
            kernel = artifact.rehydrate(symtab, progress=self._progress,
                                        profiler=self.profiler)
            p = artifact.payload
            functions = [symtab.functions[n] for n in p['functions']]
            sparse = [symtab.sparse[n] for n in p['sparse_functions']]
            constants = [symtab.constants[n] for n in p['constants']]
        except Exception:  # noqa: BLE001 - any defect means cold build
            bcache.note_miss(nerrors=1)
            return False
        self.kernel = kernel
        self.backend = getattr(kernel, 'backend', 'numpy')
        self.grid = functions[0].grid
        self.mpi_mode = p['mpi_mode']
        self._warm_functions = functions
        self._warm_sparse = sparse
        self._warm_constants = constants
        self._warm_uses_dt = bool(p['uses_dt'])
        self._flops_per_point = p['flops_per_point']
        self._traffic_per_point = p['traffic_per_point']
        self.analysis = artifact.rehydrate_analysis(kernel=kernel)
        self.certificate = artifact.rehydrate_certificate()
        if self.analysis is not None:
            # the verify gate was satisfied by the cached cold build;
            # this build paid (essentially) nothing for it
            self.profiler.record_build_time('analysis', 0.0)
        elapsed = _time.perf_counter() - tic
        self.profiler.record_build_time('build', elapsed)
        saved = max(artifact.build_seconds - elapsed, 0.0)
        bcache.note_hit(artifact, tier, saved_seconds=saved)
        self._cache_info.update(status='hit', tier=tier,
                                saved_seconds=saved,
                                nbytes=artifact.nbytes)
        return True

    def _bind_sparse_plans(self):
        for sid, step in enumerate(self.schedule.steps):
            if step.is_sparse:
                self.kernel.sparse_plans[sid] = PrecomputedSparseData(
                    step.op.sparse).binding()

    # -- introspection -------------------------------------------------------------

    @property
    def schedule(self):
        """The operator's :class:`~repro.ir.schedule.Schedule`.

        After a cache hit no schedule exists (that is the point of the
        cache); the rare consumers that genuinely need one — ``ccode``,
        :meth:`analyze`, schedule-mutating tests, a repartition that
        misses the cache — trigger a lazy rebuild here.  The pipeline is
        deterministic, so the rebuilt schedule matches the cached kernel.
        """
        if self._schedule is None:
            self._schedule = build_schedule(self._expressions,
                                            mpi_mode=self._mpi_requested,
                                            opt=self._opt)
        return self._schedule

    @schedule.setter
    def schedule(self, value):
        self._schedule = value

    @property
    def functions(self):
        """The discrete functions this operator reads/writes (without
        forcing a schedule rebuild after a cache hit)."""
        if self._schedule is None:
            return list(self._warm_functions)
        return self._schedule.functions

    @property
    def sparse_functions(self):
        """The sparse functions of this operator (schedule-rebuild-free,
        like :attr:`functions`)."""
        if self._schedule is None:
            return list(self._warm_sparse)
        return self._schedule.sparse_functions

    def cache_info(self):
        """How this operator was built.

        Returns a dict with ``status`` ('hit' / 'miss' / 'off' /
        'uncacheable'), the fingerprint ``key``, the serving ``tier``
        ('memory' / 'disk' / None), ``saved_seconds`` (cold build cost
        minus rehydration cost, on a hit) and the artifact ``nbytes``.
        """
        return dict(self._cache_info)

    @property
    def pycode(self):
        """The generated (executable) Python source."""
        return self.kernel.source

    @property
    def ccode(self):
        """The equivalent C code (paper's Listing 11 style)."""
        from ..codegen.cgen import generate_c
        return generate_c(self.schedule, name=self.name,
                          profiling=self.profiler.level,
                          sanitizer=self._sanitize is True)

    def analyze(self):
        """Run the static verifier over this operator's schedule.

        Returns an :class:`~repro.analysis.AnalysisReport` — truthy when
        clean, so ``assert op.analyze()`` reads naturally in tests.
        Unlike the ``opt='verify'`` gate this never raises on findings.
        """
        from ..analysis import analyze_schedule
        return analyze_schedule(self.schedule, kernel=self.kernel,
                                profiler=self.profiler)

    def repartition(self, new_ranks=None, weights=None, timeout=120.0):
        """Elastically repartition this live operator (collective).

        Call SPMD-style *between* applies.  ``new_ranks == comm.size``
        (or ``None``) rebalances the current world with per-rank
        ``weights`` (``None``: capacities measured from the profiler's
        per-rank compute time); ``new_ranks > comm.size`` grows onto
        reserve ranks that announced themselves on the world's lineage
        (see :mod:`repro.resilience.elastic`).  The grid, distributed
        data and sparse routing are rebuilt in place, the kernel comes
        from this operator's own build path (cache, certificate,
        verifier), and DOMAIN blocks move rank-to-rank through one
        alltoall.  Returns the (possibly new) communicator.
        """
        from ..resilience.elastic import repartition_operator
        return repartition_operator(self, new_ranks=new_ranks,
                                    weights=weights, timeout=timeout)

    @property
    def flops_per_point(self):
        return self._flops_per_point

    @property
    def traffic_per_point(self):
        return self._traffic_per_point

    @property
    def oi(self):
        if self._traffic_per_point == 0:
            return float('inf')
        return self._flops_per_point / self._traffic_per_point

    @property
    def exchangers(self):
        return self.kernel.exchangers

    # -- execution -----------------------------------------------------------------

    def arguments(self, **kwargs):
        """Resolve runtime arguments (arrays, scalars, time bounds).

        Unknown keyword arguments raise a :class:`ValueError` listing
        every accepted name — a typo like ``chekpoint_every`` fails
        loudly instead of being silently coerced and ignored.
        """
        params = {}
        for sym, val in self.grid.spacing_map.items():
            params[sym.name] = float(val)
        for const in self._constants():
            params[const.name] = float(const.value)
        if 'dt' not in params:
            params['dt'] = None
        accepted = set(params) | {'dt', 'time_m', 'time_M'}
        unknown = sorted(k for k in kwargs if k not in accepted)
        if unknown:
            raise ValueError(
                "unknown argument(s) %s to apply(); accepted arguments: "
                "%s; resilience/service options: %s"
                % (', '.join(map(repr, unknown)),
                   ', '.join(sorted(accepted)),
                   ', '.join(sorted(RESILIENCE_KWARGS + SERVICE_KWARGS))))
        for key, val in kwargs.items():
            if key in ('time_m', 'time_M'):
                continue
            params[key] = float(val)
        if params.get('dt') is None and self._uses_dt():
            raise ValueError("this Operator needs a 'dt' argument")

        arrays = {}
        for f in self.functions:
            arrays[f.name] = f.data.with_halo

        time_m = int(kwargs.get('time_m', 0))
        time_M = kwargs.get('time_M')
        if time_M is None:
            nts = [s.nt for s in self.sparse_functions
                   if getattr(s, 'is_SparseTimeFunction', False)]
            if nts:
                time_M = min(nts) - 1
            else:
                raise ValueError("this Operator needs a 'time_M' argument")
        return time_m, int(time_M), arrays, params

    def apply(self, **kwargs):
        """Run the kernel; returns a :class:`PerformanceSummary`.

        The summary maps section names (``section0..N``,
        ``haloupdate0..N``, ``halowait0..N``, ``sparse0..N``) to
        :class:`~repro.profiling.PerfEntry` objects; on distributed grids
        each entry carries min/max/avg statistics across ranks.  The
        exchanger counters are snapshotted before and after the run, so
        repeated applies report per-invocation (not cumulative) message
        and byte counts.

        Robustness: if the run aborts — e.g. a peer rank was killed by
        an injected fault — the teardown is collective: every rank's
        ``apply`` joins its progress threads, discards pending exchange
        state and raises a (subclass of)
        :class:`~repro.mpi.sim.RemoteRankError`; nothing hangs and no
        daemon thread leaks.  On success, the commlog validator checks
        message matching (no unmatched sends) and the summary carries
        the transport's robustness counters as ``comm_health``.

        Resilience: the kwargs in :data:`RESILIENCE_KWARGS` (validated
        as, and defaulting to, the ``configuration`` keys of the same
        names; ``resume`` is ``apply``-only) turn ``apply``
        into a supervised loop — periodic sealed checkpoints, NaN/
        Inf health scans, and on a rank death either a same-world
        ``restart`` or a ``shrink`` onto the survivors, resuming from
        the newest valid checkpoint.  ``recovery='abort'`` (the
        default) preserves the plain behaviour above.
        """
        job_id = kwargs.pop('job_id', None)
        controller = self._make_controller(kwargs)
        time_m, time_M, arrays, params = self.arguments(**kwargs)
        comm = self.grid.comm
        prof = self.profiler
        prof.reset()
        start = time_m
        stash = {}  # exchanger deltas accumulated over failed attempts
        prepared = False
        tic = _time.perf_counter()
        reconcile = self._sanitize == 'reconcile' and controller is None
        ledger_before = None
        while True:
            before = {key: ex.counters()
                      for key, ex in self.kernel.exchangers.items()}
            if reconcile:
                w = getattr(comm, 'world', None)
                if w is not None and w.commlog.enabled:
                    ledger_before = w.commlog.sends_snapshot(src=comm.rank)
            try:
                if controller is not None:
                    controller.bind(comm, start, time_M)
                    if not prepared:
                        start = controller.prepare()
                        prepared = True
                        if controller.comm is not comm:
                            # an elastic joiner entered through a grow
                            # grant: the substrate was rebuilt against
                            # the granted world mid-prepare
                            comm = controller.comm
                            arrays = {f.name: f.data.with_halo
                                      for f in self.functions}
                            controller.bind(comm, start, time_M)
                self.kernel(start, time_M, arrays, params, comm,
                            prof.timer, resilience=controller)
            except BaseException as exc:
                self._abort_run(comm, exc)
                if controller is None or not controller.should_recover(exc):
                    raise
                self._accumulate_deltas(stash, before)
                start, arrays, comm = controller.recover(exc)
                continue
            break
        elapsed = _time.perf_counter() - tic
        world = getattr(comm, 'world', None)
        if world is not None and world.commlog.enabled:
            # message-matching validation: at this quiescent point (all
            # halo waits drained, profiling collective not yet started)
            # a user-tagged leftover in our mailbox is an unmatched send
            world.commlog.validate(world, comm.rank)
        if reconcile and ledger_before is not None \
                and self.certificate is not None:
            # reconcile sanitizer mode: the per-run send-ledger delta
            # must match the static certificate message for message
            after_snap = world.commlog.sends_snapshot(src=comm.rank)
            delta = world.commlog.sends_delta(ledger_before, after_snap)
            actual = {(dst, tag): v for (_, dst, tag), v in delta.items()}
            self.certificate.reconcile(actual,
                                       max(time_M - time_m + 1, 0))
        deltas = self._accumulate_deltas(stash, before)
        points = int(np.prod(self.grid.shape))
        timesteps = max(time_M - time_m + 1, 0)
        nmsg = sum(d['nmessages'] for d in deltas.values())

        sections = {}
        nranks = 1
        traces = ()
        if prof.enabled:
            # distributed runs aggregate per-rank stats (a collective —
            # every rank calls apply SPMD-style, as with any exchange)
            agg_comm = comm if self.grid.distributor.is_parallel else None
            sections = prof.summarize(deltas, agg_comm, timesteps)
            nranks = comm.size if agg_comm is not None else 1
            if prof.advanced:
                traces = tuple(prof.timer.traces)
        comm_health = world.comm_health() if world is not None else {}
        return PerformanceSummary(points, timesteps, elapsed,
                                  self._flops_per_point,
                                  self._traffic_per_point, nmessages=nmsg,
                                  sections=sections, nranks=nranks,
                                  level=prof.level, traces=traces,
                                  comm_health=comm_health,
                                  build=self._build_summary(),
                                  job_id=job_id)

    def _build_summary(self):
        """The compile-phase record carried by every summary: per-stage
        build wall times plus the build-cache outcome of this op."""
        out = dict(self._cache_info)
        out['times'] = dict(self.profiler.build_times)
        return out

    def _make_controller(self, kwargs):
        """Pop the resilience kwargs, each resolved through
        ``configuration`` (an explicit value is validated like
        ``configuration[key] = value``; an absent one is the configured
        value), and build the per-apply supervisor, or None for plain
        runs."""
        join = kwargs.pop('_elastic_join', None)
        resume = bool(kwargs.pop('resume', False))
        opts = {key: configuration.resolve(key, kwargs.pop(key, None))
                for key in RESILIENCE_KWARGS if key != 'resume'}
        if opts['recovery'] == 'abort' and not opts['checkpoint_every'] \
                and not opts['health_check_every'] and not resume \
                and opts['repartition'] == 'off' and join is None:
            return None
        from ..resilience import ResilienceController
        return ResilienceController(self, resume=resume, elastic_join=join,
                                    **opts)

    def _accumulate_deltas(self, stash, before):
        """Fold this attempt's exchanger counter deltas into ``stash``
        (in place) and return it.  Exchangers are rebuilt on shrink, so
        per-attempt deltas must be banked before recovery."""
        for key, ex in self.kernel.exchangers.items():
            if key not in before:
                continue
            after = ex.counters()
            acc = stash.setdefault(key, dict.fromkeys(after, 0))
            for k in after:
                acc[k] += after[k] - before[key][k]
        return stash

    def _abort_run(self, comm, exc):
        """Collective teardown of a failed ``apply``.

        Joins every progress thread, discards pending exchange state
        (so a later ``apply`` on a recovered world starts clean and
        never double-counts), and — when this rank is the failure
        origin — wakes all blocked peers with
        :class:`~repro.mpi.sim.RemoteRankError` instead of leaving them
        to hang until their receive timeouts expire.
        """
        for ex in self.kernel.exchangers.values():
            try:
                ex.abort()
            except Exception:  # noqa: BLE001 - teardown must not mask exc
                pass
        world = getattr(comm, 'world', None)
        if world is None:
            return
        from ..resilience.health import NumericalHealthError
        if isinstance(exc, NumericalHealthError):
            # raised *collectively* right after an allgather: every rank
            # already carries the same diagnosable error and none is
            # blocked — failing the world would only race peers that
            # have not yet stepped past the collective
            return
        originated_here = isinstance(exc, RankKilledError) or \
            not isinstance(exc, RemoteRankError)
        if originated_here:
            world.fail(origin=getattr(comm, 'rank', None),
                       reason='%s: %s' % (type(exc).__name__, exc))

    # -- helpers ----------------------------------------------------------------------

    def _constants(self):
        if self._schedule is None:
            return list(self._warm_constants)
        out = {}
        for cluster in self.schedule.clusters:
            for _, rhs in cluster.temps:
                for node in unique_nodes(rhs):
                    if isinstance(node, Constant):
                        out[node.name] = node
            for eq in cluster.eqs:
                for node in unique_nodes(eq.rhs):
                    if isinstance(node, Constant):
                        out[node.name] = node
        for _, rhs in self.schedule.scalar_assignments:
            for node in unique_nodes(rhs):
                if isinstance(node, Constant):
                    out[node.name] = node
        for step in self.schedule.steps:
            if step.is_sparse:
                for node in unique_nodes(step.expr):
                    if isinstance(node, Constant):
                        out[node.name] = node
        return list(out.values())

    def _uses_dt(self):
        if self._schedule is None:
            return self._warm_uses_dt
        for _, rhs in self.schedule.scalar_assignments:
            for node in unique_nodes(rhs):
                if node.is_Symbol and node.name == 'dt':
                    return True
        for cluster in self.schedule.clusters:
            for _, rhs in cluster.temps:
                for node in unique_nodes(rhs):
                    if node.is_Symbol and node.name == 'dt':
                        return True
            for eq in cluster.eqs:
                for node in unique_nodes(eq.rhs):
                    if node.is_Symbol and node.name == 'dt':
                        return True
        for step in self.schedule.steps:
            if step.is_sparse:
                for node in unique_nodes(step.expr):
                    if node.is_Symbol and node.name == 'dt':
                        return True
        return False

    def __repr__(self):
        if self._schedule is None:
            return ('Operator(%s, cached[%s], mpi=%s, flops/pt=%d)'
                    % (self.name, self._cache_info['tier'], self.mpi_mode,
                       self._flops_per_point))
        return ('Operator(%s, clusters=%d, mpi=%s, flops/pt=%d)'
                % (self.name, len(self.schedule.clusters), self.mpi_mode,
                   self._flops_per_point))
