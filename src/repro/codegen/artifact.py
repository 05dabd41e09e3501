"""Serializable kernel artifacts: the *value* side of the build cache.

A cold ``Operator`` build runs the whole pipeline (lowering, Cluster IR,
rewrites, halo placement, codegen, optionally the static verifier).
Everything the resulting :class:`~repro.codegen.pybackend.PyKernel`
needs at run time is either

* **pure data** that is a deterministic function of the build inputs —
  the generated source, the per-step source line map, the section
  metadata, exchanger geometry (widths/tags), flop and traffic counts,
  the verifier's diagnostics — or
* a **live object** of the calling program — grids, functions, sparse
  functions, constants — that must *not* be serialized (it owns runtime
  state such as ``data`` buffers and the MPI communicator).

:class:`KernelArtifact` captures the first kind as a JSON-able payload
and rebuilds the second kind by *rebinding*: the build-cache fingerprint
traversal (:mod:`repro.symbolics.hashing`) collects every function /
sparse function / constant by name, and :meth:`rehydrate` resolves the
recorded names against those live objects, reconstructs the exchangers
through :func:`~repro.mpi.halo.make_exchanger`, re-validates the tag
spaces, recompiles the cached source and returns a ready ``PyKernel`` —
without re-running lowering, optimization, scheduling or verification.

Any inconsistency (missing name, torn payload, version drift) raises
:class:`ArtifactError`; the cache treats that as a miss and falls back
to a cold build, so a bad cache entry can never produce a wrong kernel.
"""

from __future__ import annotations

from ..mpi import HaloWidths, check_tag_spaces, make_exchanger
from ..profiling import Profiler, SectionMeta

__all__ = ['ARTIFACT_VERSION', 'ArtifactError', 'KernelArtifact']

#: bump on any change to the payload layout below (old entries are then
#: rejected by :meth:`KernelArtifact.from_payload` and rebuilt cold).
#: 2: the static communication certificate joined the payload.
#: 3: the compiled execution backend joined the payload (backend,
#:    C source, shared-object path + checksum, per-step call metadata).
#: 4: the compiled object became shape-generic and content-named; each
#:    step's row of the per-rank geometry table joined ``c_steps``.
#: 5: distributed interpolation keeps partial rows per rank and reduces
#:    them once per block of steps (the driver text changed).
#: 6: ``backend='c'`` runs one compiled step per timestep; ``c_steps``
#:    became the step's binding (emitter metadata + the driver's plan).
ARTIFACT_VERSION = 6

_REQUIRED_KEYS = ('version', 'source', 'step_lines', 'sections',
                  'exchangers', 'mpi_mode', 'sanitizer_writes',
                  'functions', 'sparse_functions', 'sparse_steps',
                  'constants', 'uses_dt', 'flops_per_point',
                  'traffic_per_point', 'analysis', 'certificate',
                  'build_seconds', 'backend', 'c_source', 'so_path',
                  'so_checksum', 'c_steps')


class ArtifactError(RuntimeError):
    """A cached artifact cannot be (de)serialized or rebound.

    Raised on version drift, malformed payloads, or live objects that no
    longer match the recorded names.  The build cache catches this and
    silently falls back to a cold build.
    """


class _SanitizerScheduleShim:
    """The minimal schedule surface :class:`HaloSanitizer` consumes."""

    def __init__(self, grid, mpi_mode, functions):
        self.grid = grid
        self.mpi_mode = mpi_mode
        self.functions = functions


class KernelArtifact:
    """All build products of one operator, as plain data.

    Construct via :meth:`extract` (from a cold-built operator) or
    :meth:`from_payload` (from a cache entry); turn back into a live
    kernel with :meth:`rehydrate`.
    """

    def __init__(self, payload):
        missing = [k for k in _REQUIRED_KEYS if k not in payload]
        if missing:
            raise ArtifactError("artifact payload missing keys: %s"
                                % ', '.join(missing))
        if payload['version'] != ARTIFACT_VERSION:
            raise ArtifactError(
                "artifact version %r != expected %d"
                % (payload['version'], ARTIFACT_VERSION))
        self.payload = payload
        #: memoized compiled code object (in-process tier only; never
        #: serialized — marshal output is interpreter-version-bound)
        self._code = None
        #: memoized dlopen handle of the compiled backend's .so (keeps
        #: the mapping alive across rehydrations of one artifact)
        self._lib = None

    # -- convenience accessors ---------------------------------------------------

    @property
    def source(self):
        return self.payload['source']

    @property
    def build_seconds(self):
        return float(self.payload['build_seconds'])

    @property
    def nbytes(self):
        """Approximate in-memory payload weight (source dominates)."""
        import json
        return len(json.dumps(self.payload))

    # -- extraction (cold build -> data) ------------------------------------------

    @classmethod
    def extract(cls, op, build_seconds=0.0):
        """Capture a cold-built ``Operator``'s kernel as an artifact."""
        kernel = op.kernel
        schedule = op.schedule
        sections = []
        for meta in op.profiler.sections.values():
            if meta.kind == 'resilience':
                continue  # registered per apply by the controller
            sections.append({
                'name': meta.name,
                'kind': meta.kind,
                'points': meta.points,
                'flops_per_point': meta.flops_per_point,
                'traffic_per_point': meta.traffic_per_point,
                'exchanger_keys': list(meta.exchanger_keys),
            })
        exchangers = []
        for key, ex in kernel.exchangers.items():
            exchangers.append({
                'key': key,
                'function': key.split('_', 1)[1],
                'widths': [list(w) for w in ex.widths],
                'tag_base': int(ex.tag_base),
            })
        san = kernel.sanitizer
        sanitizer_writes = None
        if san is not None:
            sanitizer_writes = {
                section: [[name, tshift] for name, tshift in keys]
                for section, keys in san._writes.items()}
        analysis = None
        if op.analysis is not None:
            analysis = [[d.code, d.message, d.step_index, d.where]
                        for d in op.analysis]
        certificate = None
        if getattr(op, 'certificate', None) is not None:
            certificate = op.certificate.to_payload()
        payload = {
            'version': ARTIFACT_VERSION,
            'source': kernel.source,
            'step_lines': [[int(sid), int(a), int(b)]
                           for sid, (a, b) in kernel.step_lines.items()],
            'sections': sections,
            'exchangers': exchangers,
            'mpi_mode': schedule.mpi_mode,
            'sanitizer_writes': sanitizer_writes,
            'functions': [f.name for f in schedule.functions],
            'sparse_functions': [s.name for s in schedule.sparse_functions],
            'sparse_steps': [[int(sid), step.op.sparse.name]
                             for sid, step in enumerate(schedule.steps)
                             if step.is_sparse],
            'constants': sorted(c.name for c in op._constants()),
            'uses_dt': bool(op._uses_dt()),
            'flops_per_point': op._flops_per_point,
            'traffic_per_point': op._traffic_per_point,
            'analysis': analysis,
            'certificate': certificate,
            'build_seconds': float(build_seconds),
            # compiled-backend products ('numpy' builds carry Nones).
            # The object is shared by every build of the same equations
            # (its file name is its content key); c_steps is what this
            # rank binds to its step (cstep.StepProgram's input).
            # so_path is rewritten by the disk cache tier when it
            # publishes the object into its own store.
            'backend': kernel.backend,
            'c_source': kernel.c_source,
            'so_path': kernel.so_path,
            'so_checksum': kernel.so_checksum,
            'c_steps': kernel.c_steps,
        }
        return cls(payload)

    # -- (de)serialization ----------------------------------------------------------

    def to_payload(self):
        """The JSON-able dict (what the disk tier stores)."""
        return self.payload

    @classmethod
    def from_payload(cls, payload):
        if not isinstance(payload, dict):
            raise ArtifactError("artifact payload is not a mapping")
        return cls(payload)

    # -- rehydration (data -> live kernel) --------------------------------------------

    def rehydrate(self, symtab, progress=False, profiler=None):
        """Rebuild a ready ``PyKernel`` against the live objects.

        ``symtab`` is the :class:`~repro.symbolics.hashing.TokenEmitter`
        of the fingerprint traversal — it carries the live functions,
        sparse functions and constants by name.  Raises
        :class:`ArtifactError` when the recorded names cannot be
        resolved; the caller falls back to a cold build.
        """
        from ..dsl.sparse import PrecomputedSparseData
        from .pybackend import PyKernel

        p = self.payload
        try:
            functions = [symtab.functions[n] for n in p['functions']]
            sparse = [symtab.sparse[n] for n in p['sparse_functions']]
        except KeyError as e:
            raise ArtifactError("artifact references unknown object %s"
                                % (e,)) from None
        if not functions:
            raise ArtifactError("artifact carries no functions")
        grid = functions[0].grid
        dist = grid.distributor
        mode = p['mpi_mode']
        by_name = {f.name: f for f in functions}

        # exchangers: geometry from the artifact, topology from the live
        # distributor (same by construction: it is part of the cache key)
        exchangers = {}
        for spec in p['exchangers']:
            func = by_name.get(spec['function'])
            if func is None:
                raise ArtifactError("exchanger %r names unknown function %r"
                                    % (spec['key'], spec['function']))
            widths = HaloWidths([tuple(w) for w in spec['widths']])
            exchangers[spec['key']] = make_exchanger(
                mode or 'basic', dist, func.halo, widths,
                tag_base=int(spec['tag_base']), name=spec['key'],
                **({'progress': progress} if mode == 'full' else {}))
        check_tag_spaces(exchangers)

        # sparse plans: always rebuilt live (coordinates are runtime data)
        sparse_by_name = {s.name: s for s in sparse}
        sparse_plans = {}
        sparse_npoints = {}
        for sid, sname in p['sparse_steps']:
            s = sparse_by_name.get(sname)
            if s is None:
                raise ArtifactError("sparse step %d names unknown sparse "
                                    "function %r" % (sid, sname))
            sparse_plans[int(sid)] = PrecomputedSparseData(s).binding()
            sparse_npoints[int(sid)] = len(s.routing.local_points)

        # section registry: replayed in emission order; sparse point
        # counts are recomputed from the live routing (runtime data)
        if profiler is None:
            profiler = Profiler('off')
        sparse_sids = iter(sorted(sparse_npoints))
        for meta in p['sections']:
            npoints = 0
            if meta['kind'] == 'sparse':
                try:
                    npoints = sparse_npoints[next(sparse_sids)]
                except StopIteration:
                    raise ArtifactError(
                        "more sparse sections than sparse steps") from None
            profiler.register(SectionMeta(
                meta['name'], meta['kind'], points=meta['points'],
                flops_per_point=meta['flops_per_point'],
                traffic_per_point=meta['traffic_per_point'],
                exchanger_keys=tuple(meta['exchanger_keys']),
                sparse_npoints=npoints))

        # sanitizer: rebuilt from the live grid/functions, write map replayed
        san = None
        if p['sanitizer_writes'] is not None:
            from ..analysis.sanitizer import HaloSanitizer
            san = HaloSanitizer(_SanitizerScheduleShim(grid, mode,
                                                       functions))
            if not san.enabled:
                raise ArtifactError("sanitizer recorded but not "
                                    "rebuildable on this grid")
            for section, keys in p['sanitizer_writes'].items():
                san.register_writes(section,
                                    [(name, tshift) for name, tshift in keys])

        # compiled backend: re-attach the shared object.  The checksum
        # is the tamper seal — a deleted, truncated or modified .so
        # demotes the hit to a cold rebuild (never run stale or foreign
        # code, never silently recompile under a 'hit' status) — and
        # the content name says who may run it: an object this host's
        # toolchain and CPU would not have produced is foreign too.
        backend = p.get('backend') or 'numpy'
        c_funcs = program = None
        if backend == 'c':
            import os
            from ..ioutil import file_digest
            from . import jit
            so_path = p['so_path']
            if not so_path or not os.path.isfile(so_path):
                raise ArtifactError("compiled artifact's shared object "
                                    "is missing: %r" % (so_path,))
            if os.path.basename(so_path) not in \
                    jit.object_names(p['c_source']):
                raise ArtifactError("compiled artifact's shared object "
                                    "was built by another toolchain or "
                                    "for another CPU: %r" % (so_path,))
            if file_digest(so_path) != p['so_checksum']:
                raise ArtifactError("compiled artifact's shared object "
                                    "fails its checksum: %r" % (so_path,))
            from .cstep import StepProgram
            try:
                self._lib, c_funcs = jit.load_steps(so_path)
                program = StepProgram(
                    self._lib, p['c_steps']['plan'], p['c_steps']['meta'],
                    exchangers, dist, san, grid.dtype)
            except (jit.JITError, KeyError, TypeError, ValueError) as e:
                raise ArtifactError(str(e)) from None

        # compile + exec the cached source (memoized per artifact object)
        source = p['source']
        if self._code is None:
            self._code = compile(source, '<repro-jit-kernel>', 'exec')
        namespace = {}
        if san is not None:
            namespace['__SAN'] = san
        if c_funcs is not None:
            namespace.update(__C=c_funcs, __CS=program)
        exec(self._code, namespace)  # noqa: S102 - the cached JIT artifact
        func = namespace.get('__kernel')
        if func is None:
            raise ArtifactError("cached source defines no __kernel")

        step_lines = {int(sid): (int(a), int(b))
                      for sid, a, b in p['step_lines']}
        return PyKernel(source, func, exchangers, sparse_plans,
                        schedule=None, profiler=profiler,
                        step_lines=step_lines, sanitizer=san,
                        backend=backend, c_source=p['c_source'],
                        so_path=p['so_path'],
                        so_checksum=p['so_checksum'],
                        c_steps=p['c_steps'],
                        lib=getattr(self, '_lib', None))

    def rehydrate_analysis(self, kernel=None):
        """Rebuild the cached verify-gate report (or None)."""
        if self.payload['analysis'] is None:
            return None
        from ..analysis.diagnostics import AnalysisReport, Diagnostic
        diagnostics = [Diagnostic(code, message, step_index=step_index,
                                  where=where)
                       for code, message, step_index, where
                       in self.payload['analysis']]
        return AnalysisReport(diagnostics=diagnostics, schedule=None,
                              kernel=kernel)

    def rehydrate_certificate(self):
        """Rebuild the cached static communication certificate (or
        None).  Certificates are per-rank and per-decomposition — both
        part of the cache key, so the cached prediction is exact for
        the rehydrated kernel."""
        payload = self.payload.get('certificate')
        if payload is None:
            return None
        from ..analysis.certificate import CommCertificate
        try:
            return CommCertificate.from_payload(payload)
        except (KeyError, TypeError, ValueError) as e:
            raise ArtifactError("malformed certificate payload: %s"
                                % (e,)) from None

    def __repr__(self):
        return ('KernelArtifact(v%d, %d sections, %d exchangers, %dB)'
                % (self.payload['version'], len(self.payload['sections']),
                   len(self.payload['exchangers']), self.nbytes))
