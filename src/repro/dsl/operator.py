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
from ..mpi.faults import RankKilledError
from ..mpi.sim import RemoteRankError
from ..profiling import PerformanceSummary, Profiler

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
        Enable the flop-reducing pipeline: scratch arrays for
        subexpressions the equations read at several translations
        (cross-iteration redundancy elimination; compiler-owned, absent
        from :attr:`functions`, allocated per binding), CSE,
        factorization, invariant hoisting.
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
        scheduling, codegen and — when gated — the structure passes of
        the verifier) is skipped and the kernel is bound from the cached
        artifact; the result is bitwise-identical to a cold build.  The
        key is rank-agnostic, and the ranks of one world share one
        build in every mode (the first lowers or looks up, the others
        bind; all report its status).
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
        #: the structure passes' diagnostics (None when unverified): the
        #: decomposition-independent part of :attr:`analysis`
        self.structure_report = None
        #: the rank-agnostic artifact this rank's kernel is bound from,
        #: and its structure key (a repartition that keeps the key binds
        #: the same artifact again)
        self._artifact = self._artifact_key = None
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
        build is fingerprinted into its rank-agnostic structure key.
        The structure — one :class:`~repro.codegen.artifact.KernelArtifact`
        — comes from this operator's own current artifact when the key
        is unchanged (a repartition that splits the same dimensions), a
        build-cache hit, or a cold build; on a distributed grid the
        ranks of the world share that step (:meth:`_shared_structure`).
        Then this rank binds it: its boxes, driver text, exchangers,
        certificate and — when ``verify`` — the in-bounds proof of its
        own geometry.  ``verify`` is the ``opt='verify'`` gate at
        construction and always on for a repartition, which runs the
        structure passes only for a structure new to this operator.
        """
        from ..buildcache import fingerprint_build, get_cache
        from ..buildcache.fingerprint import grid_of
        # the replaced kernel's sections go; the resilience controller's
        # stay registered for the apply that is repartitioning
        self.profiler.sections = {
            name: meta for name, meta in self.profiler.sections.items()
            if meta.kind == 'resilience'}
        bcache = get_cache(self._cache)
        self._cache_info = {'status': 'off', 'key': None, 'tier': None,
                            'saved_seconds': 0.0, 'nbytes': 0}
        grid = grid_of(self._expressions)
        comm = grid.distributor.comm if grid is not None else None
        world = getattr(comm, 'world', None)
        builds = world.builds if world is not None and world.size > 1 \
            else None
        key = symtab = None
        if bcache is not None or builds is not None:
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
                # inputs outside the token grammar: build cold, alone
                if bcache is not None:
                    self._cache_info['status'] = 'uncacheable'
        tic = _time.perf_counter()
        if key is None:
            artifact, info = self._structure(bcache, None, None, verify)
        else:
            if bcache is not None:
                self._cache_info['key'] = key
            if builds is None:
                artifact, info = self._structure(bcache, key, symtab,
                                                 verify)
            else:
                artifact, info = self._shared_structure(
                    builds, comm.rank, bcache, key, symtab, verify)
        kernel = info.get('kernel')
        if kernel is None:
            try:
                kernel = artifact.rehydrate(symtab, progress=self._progress,
                                            profiler=self.profiler)
            except Exception:  # noqa: BLE001 - any defect means cold build
                # built by another rank, unbindable here: build alone
                if bcache is not None:
                    bcache.note_miss(nerrors=1)
                artifact, info = self._structure(bcache, None, None, verify)
                kernel = info['kernel']
        self._artifact_key = key
        self._bind(artifact, kernel, symtab, verify)
        elapsed = _time.perf_counter() - tic
        if not info.get('cold'):
            self.profiler.record_build_time('build', elapsed)
        if key is None or bcache is None:
            return
        if info['status'] == 'hit':
            saved = max(artifact.build_seconds - elapsed, 0.0)
            if info['tier'] is not None:  # not a reuse of this op's own
                bcache.note_hit(artifact, info['tier'], saved_seconds=saved)
            self._cache_info.update(status='hit', tier=info['tier'],
                                    saved_seconds=saved,
                                    nbytes=info['nbytes'])
        else:
            if not info.get('cold'):
                bcache.note_miss()
            self._cache_info['status'] = 'miss'

    def _shared_structure(self, builds, rank, bcache, key, symtab, verify):
        """The structure as one build shared by the world's ranks.

        This rank's n-th operator with ``key`` joins the n-th shared
        build of it (:class:`~repro.mpi.sim.SharedBuilds`): the first
        rank to arrive runs :meth:`_structure` — lookup, or the one cold
        build — and publishes the artifact and its status; the others
        wait for it without holding the GIL and bind.  A failure is
        raised on every rank.  Nobody waits for a rank that is not
        already building, so this adds no barrier to the constructor.
        """
        entry, leader = builds.join(rank, key)
        if not leader:
            return entry.take()
        try:
            artifact, info = self._structure(bcache, key, symtab, verify)
        except BaseException as exc:
            entry.publish(error=exc)
            raise
        entry.publish((artifact, {k: info.get(k)
                                  for k in ('status', 'tier', 'nbytes')}))
        return artifact, info

    def _structure(self, bcache, key, symtab, verify):
        """``(artifact, info)`` of this build's structure, bound on this
        rank (``info['kernel']``) to vet it: this operator's current
        artifact when its key is ``key``, else a ``bcache`` hit, else a
        cold build (stored under ``key``).  ``info`` carries the cache
        status every rank sharing the build reports (``'hit'`` for a
        reused artifact: a cached structure)."""
        reuse = self._artifact if key is not None and \
            key == self._artifact_key else None
        if reuse is not None:
            # the structure this operator already runs: its passes'
            # verdict cannot change, only the binding is new
            try:
                return self._vetted(reuse, symtab, False,
                                    {'status': 'hit', 'tier': None,
                                     'nbytes': reuse.nbytes})
            except Exception:  # noqa: BLE001 - any defect: look further
                pass
        if bcache is not None and key is not None:
            artifact, tier = bcache.lookup(key)
            if artifact is not None:
                try:
                    return self._vetted(artifact, symtab, verify,
                                        {'status': 'hit', 'tier': tier,
                                         'nbytes': artifact.nbytes})
                except Exception:  # noqa: BLE001 - any defect: cold build
                    bcache.note_miss(nerrors=1)
        tic = _time.perf_counter()
        schedule = self.schedule
        kernel = generate_kernel(schedule, progress=self._progress,
                                 profiler=self.profiler,
                                 sanitizer=self._sanitize is True,
                                 backend=self.backend)
        self.structure_report = None
        if verify:
            from ..analysis import STRUCTURE_PASSES, verify_schedule
            self.structure_report = verify_schedule(
                schedule, kernel=kernel, profiler=self.profiler,
                passes=STRUCTURE_PASSES).diagnostics
        self.kernel = kernel
        build_seconds = _time.perf_counter() - tic
        self.profiler.record_build_time('build', build_seconds)
        from ..codegen.artifact import KernelArtifact
        artifact = KernelArtifact.extract(self, build_seconds=build_seconds)
        if bcache is not None and key is not None:
            bcache.note_miss()
            try:
                bcache.store(key, artifact)
            except Exception:  # noqa: BLE001 - caching is best-effort
                pass
        return artifact, {'status': 'miss', 'tier': None, 'nbytes': 0,
                          'kernel': kernel, 'cold': True}

    def _vetted(self, artifact, symtab, verify, info):
        """``(artifact, info)`` once this rank has bound ``artifact``;
        a verified build whose artifact carries no structure report
        runs the structure passes here (on :attr:`schedule`) and keeps
        them on a copy."""
        kernel = artifact.rehydrate(symtab, progress=self._progress,
                                    profiler=self.profiler)
        if verify and artifact.payload['analysis'] is None:
            from ..analysis import STRUCTURE_PASSES, verify_schedule
            from ..codegen.artifact import KernelArtifact
            self.kernel = kernel
            self.structure_report = verify_schedule(
                self.schedule, kernel=kernel, profiler=self.profiler,
                passes=STRUCTURE_PASSES).diagnostics
            artifact = KernelArtifact.extract(
                self, build_seconds=artifact.build_seconds)
            kernel.artifact = artifact
        return artifact, dict(info, kernel=kernel)

    def _bind(self, artifact, kernel, symtab, verify):
        """Adopt this rank's binding of ``artifact``: the kernel, the
        bound objects, the certificate of this rank's geometry and —
        when ``verify``, or when the structure was verified — the
        analysis report: the structure passes' diagnostics plus the
        in-bounds proof of this rank's boxes against its own arrays
        (raising :class:`~repro.analysis.AnalysisError` on an error
        under ``verify``)."""
        p = artifact.payload
        if symtab is None:
            from ..codegen.pybackend import symbols_of
            symtab = symbols_of(self.schedule)
        self.kernel = kernel
        self.backend = kernel.backend
        self._artifact = artifact
        self._functions = [symtab.functions[n] for n in p['functions']]
        self._sparse = [symtab.sparse[n] for n in p['sparse_functions']]
        self._constants = [symtab.constants[n] for n in p['constants']]
        self._uses_dt = bool(p['uses_dt'])
        self.grid = self._functions[0].grid
        self.mpi_mode = p['program']['mode']
        self._flops_per_point = p['flops_per_point']
        self._traffic_per_point = p['traffic_per_point']
        dist = self.grid.distributor
        self.certificate = artifact.rehydrate_certificate(dist)
        self.structure_report = artifact.rehydrate_analysis()
        self.analysis = None
        if not verify and self.structure_report is None:
            return
        from ..analysis import AnalysisError, prove_inbounds
        from ..analysis.diagnostics import AnalysisReport
        tic = _time.perf_counter()
        by_name = {f.name: f for f in self._functions}
        by_name.update((name, array) for name, (array, _)
                       in kernel.scratch.items())
        diagnostics = list(self.structure_report or ()) + prove_inbounds(
            p['steps'], by_name, dist, self.grid.dimensions,
            bool(self.mpi_mode))
        self.profiler.record_build_time('analysis',
                                        _time.perf_counter() - tic)
        self.analysis = AnalysisReport(diagnostics=diagnostics,
                                       schedule=self._schedule,
                                       kernel=kernel)
        if verify and self.analysis.errors:
            raise AnalysisError(self.analysis)

    # -- introspection -------------------------------------------------------------

    @property
    def schedule(self):
        """The operator's :class:`~repro.ir.schedule.Schedule`.

        After a cache hit, and on a rank that bound a build another
        rank lowered, no schedule exists (that is the point); the rare
        consumers that genuinely need one — ``ccode``, :meth:`analyze`,
        schedule-mutating tests, a repartition onto new split
        dimensions — trigger a lazy rebuild here.  The pipeline is
        deterministic, so the rebuilt schedule matches the bound kernel.
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
        return list(self._functions)

    @property
    def sparse_functions(self):
        """The sparse functions of this operator (schedule-rebuild-free,
        like :attr:`functions`)."""
        return list(self._sparse)

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
        for const in self._constants:
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
        if params.get('dt') is None and self._uses_dt:
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

    def __repr__(self):
        if self._schedule is None:
            return ('Operator(%s, cached[%s], mpi=%s, flops/pt=%d)'
                    % (self.name, self._cache_info['tier'], self.mpi_mode,
                       self._flops_per_point))
        return ('Operator(%s, clusters=%d, mpi=%s, flops/pt=%d)'
                % (self.name, len(self.schedule.clusters), self.mpi_mode,
                   self._flops_per_point))
