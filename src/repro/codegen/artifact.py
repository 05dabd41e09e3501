"""Serializable kernel artifacts: the *value* side of the build cache.

A cold ``Operator`` build runs the whole pipeline (lowering, Cluster IR,
rewrites, halo placement, codegen, optionally the static verifier)
once per *structure* — the equations, the build configuration and which
dimensions are split — whatever rank does it.  Its product is
rank-agnostic:

* **pure data** that is a deterministic function of the structure —
  the timestep's one record (:func:`~repro.ir.program.step_program`:
  sections, exchangers with widths and tags, ops, sanitizer hooks),
  the NumPy driver printed from it as a template
  (:func:`~.pybackend.render_driver`), the per-step geometry and
  access table, flop and traffic counts, the structure passes'
  diagnostics and the compiled object with its call metadata;
* and nothing per rank.  What one rank runs — its iteration boxes and
  hence the literal slice bounds of its driver text, section point
  counts, the sanitizer's write map, the compiled step's geometry rows
  and program, exchangers, sparse plans, the certificate's messages and
  the in-bounds proof — is *bound* from that data and the rank's live
  objects in milliseconds, and never cached.

:class:`KernelArtifact` holds the payload; :meth:`rehydrate` binds it:
the build-cache fingerprint traversal (:mod:`repro.symbolics.hashing`)
collects every function / sparse function / constant by name, the
recorded names are resolved against those live objects, the driver is
rendered for the rank's boxes and compiled, the exchangers are made
through :func:`~repro.mpi.halo.make_exchanger` and the tag spaces
re-validated.  A cold build binds its own rank the same way, so a warm
kernel and a cold one are the same text.

Any inconsistency (missing name, torn payload, version drift) raises
:class:`ArtifactError`; the cache treats that as a miss and falls back
to a cold build, so a bad cache entry can never produce a wrong kernel.
"""

from __future__ import annotations

import numpy as np

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
#: 7: rank-agnostic: the driver is a template, ``steps`` the geometry
#:    and access table, the certificate an exchanger enumeration and
#:    ``c_steps`` a program template; every rank binds its own geometry.
#: 8: scratch arrays (``scratch``: name and allocated halo, storage per
#:    binding) and grown compute regions (``steps[i]['grow']``).
#: 9: one step record (``program``) replaces ``sections``,
#:    ``exchangers``, ``mpi_mode``, ``sanitizer``, ``certificate`` and
#:    the op program template; ``c_steps`` became ``c_meta``.
ARTIFACT_VERSION = 9

_REQUIRED_KEYS = ('version', 'driver', 'program', 'shape', 'steps',
                  'functions', 'scratch', 'sparse_functions',
                  'sparse_steps', 'constants', 'uses_dt',
                  'flops_per_point', 'traffic_per_point', 'analysis',
                  'build_seconds', 'backend', 'c_source', 'so_path',
                  'so_checksum', 'c_meta')


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


class _Whole:
    """The geometry of one rank owning the whole grid."""

    def __init__(self, shape):
        self.shape_local = tuple(shape)

    def is_distributed(self, d):
        return False

    def is_boundary_rank(self, d, side):
        return True


class KernelArtifact:
    """All build products of one operator structure, as plain data.

    Construct from a cold build (:func:`~.pybackend.lower_kernel`; the
    Operator adds the structure passes' report) or via
    :meth:`from_payload` (from a cache entry); bind it to one rank with
    :meth:`rehydrate`.
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
        #: compiled code objects by bound driver text (never serialized —
        #: marshal output is interpreter-version-bound); ranks whose
        #: boxes print the same text share one
        self._code = {}
        #: memoized dlopen handle of the compiled backend's .so (keeps
        #: the mapping alive across bindings of one artifact)
        self._lib = None
        self._nbytes = None

    # -- convenience accessors ---------------------------------------------------

    @property
    def source(self):
        """The driver as a rank owning the whole grid would run it."""
        from .cstep import bind_meta, meta_scalars
        from .pybackend import render_driver
        whole = _Whole(self.payload['shape'])
        boxes = self._boxes(whole)
        scalars = ()
        if self.payload['c_meta'] is not None:
            scalars = meta_scalars(bind_meta(self.payload['c_meta'], boxes,
                                             whole.shape_local))
        return render_driver(self.payload['driver'], boxes, scalars)[0]

    @property
    def build_seconds(self):
        return float(self.payload['build_seconds'])

    @property
    def nbytes(self):
        """Serialized payload weight, ``build_seconds`` aside (a float
        whose printed length varies from build to build): equal
        structures weigh the same."""
        if self._nbytes is None:
            import json
            self._nbytes = len(json.dumps(dict(self.payload,
                                               build_seconds=0.0)))
        return self._nbytes

    # -- extraction (cold build -> data) ------------------------------------------

    @classmethod
    def extract(cls, op, build_seconds=0.0):
        """The artifact of a built ``Operator``'s structure, with the
        structure passes' report (when it was verified) and
        ``build_seconds`` recorded.  Shares the bound kernel's compiled
        code."""
        source = op.kernel.artifact
        analysis = op.structure_report
        artifact = cls(dict(
            source.payload, build_seconds=float(build_seconds),
            analysis=None if analysis is None else [
                [d.code, d.message, d.step_index, d.where]
                for d in analysis]))
        artifact._code = source._code
        return artifact

    # -- (de)serialization ----------------------------------------------------------

    def to_payload(self):
        """The JSON-able dict (what the disk tier stores)."""
        return self.payload

    @classmethod
    def from_payload(cls, payload):
        if not isinstance(payload, dict):
            raise ArtifactError("artifact payload is not a mapping")
        return cls(payload)

    # -- binding (data -> one rank's live kernel) -------------------------------------

    def _boxes(self, dist):
        """Every compute step's iteration boxes on ``dist``'s rank."""
        from ..ir.schedule import region_boxes
        return {sid: region_boxes(st['region'], st['widths'], dist,
                                  st['grow'])
                for sid, st in enumerate(self.payload['steps'])
                if st['kind'] == 'compute'}

    def rehydrate(self, symtab, progress=False, profiler=None):
        """Bind a ready ``PyKernel`` to one rank's live objects.

        ``symtab`` is the :class:`~repro.symbolics.hashing.TokenEmitter`
        of the fingerprint traversal (or
        :func:`~.pybackend.symbols_of` a schedule) — it carries the live
        functions, sparse functions and constants by name; their grid's
        distributor is the rank's geometry.  Raises
        :class:`ArtifactError` when the recorded names cannot be
        resolved; the caller falls back to a cold build.
        """
        from ..dsl.sparse import PrecomputedSparseData
        from .pybackend import (PyKernel, bind_plan, box_volume,
                                render_driver)

        p = self.payload
        program = p['program']
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
        mode = program['mode']
        by_name = {f.name: f for f in functions}
        boxes = self._boxes(dist)
        bound = bind_plan(program, boxes)

        # scratch arrays: this binding's own storage, NaN-filled under
        # the sanitizer so a read of a cell no step computed shows up
        from ..dsl.function import ScratchArray
        scratch = {}
        for name, halo in p['scratch']:
            array = ScratchArray(name, grid, halo)
            shape = tuple(n + hl + hr for n, (hl, hr)
                          in zip(dist.shape_local, array.halo))
            scratch[name] = (array, np.full(
                shape, np.nan if program['sanitizer'] else 0,
                dtype=grid.dtype))

        # exchangers: geometry from the record, topology from the live
        # distributor
        exchangers = {}
        for spec in program['exchangers']:
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

        # section registry, in the record's order: compute point counts
        # are this rank's boxes, sparse ones its live routing
        if profiler is None:
            profiler = Profiler('off')
        for sec in program['pre'] + program['loop']:
            name, kind, step = sec['name'], sec['kind'], sec['step']
            if name is None:
                continue
            points = npoints = 0
            keys = ()
            if kind == 'compute':
                points = sum(box_volume(box) for box in boxes[step])
            elif kind == 'halo':
                keys = tuple(op[1] for op in sec['ops'])
            elif kind == 'sparse':
                if step not in sparse_npoints:
                    raise ArtifactError("sparse section %r has no sparse "
                                        "step" % name)
                npoints = sparse_npoints[step]
            profiler.register(SectionMeta(
                name, kind, points=points,
                flops_per_point=sec['flops_per_point'],
                traffic_per_point=sec['traffic_per_point'],
                exchanger_keys=keys, sparse_npoints=npoints))

        # sanitizer: built from the live grid/functions; a compute
        # section's writes are scanned only where it has points
        san = None
        if program['sanitizer']:
            from ..analysis.sanitizer import HaloSanitizer
            san = HaloSanitizer(_SanitizerScheduleShim(grid, mode,
                                                       functions))
            if not san.enabled:
                raise ArtifactError("sanitizer recorded but not "
                                    "rebuildable on this grid")
            for sec in bound['pre'] + bound['loop']:
                if sec['writes']:
                    san.register_writes(sec['name'],
                                        [tuple(w) for w in sec['writes']])

        # compiled backend: re-attach the shared object.  The checksum
        # is the tamper seal — a deleted, truncated or modified .so
        # demotes the hit to a cold rebuild (never run stale or foreign
        # code, never silently recompile under a 'hit' status) — and
        # the content name says who may run it: an object this host's
        # toolchain and CPU would not have produced is foreign too.
        backend = p.get('backend') or 'numpy'
        c_funcs = cstep = None
        scalars = ()
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
            from .cstep import StepProgram, bind_meta
            try:
                self._lib, c_funcs = jit.load_steps(so_path)
                cstep = StepProgram(
                    self._lib, bound,
                    bind_meta(p['c_meta'], boxes, dist.shape_local),
                    functions + [a for a, _ in scratch.values()],
                    exchangers, dist, san, grid.dtype)
            except (jit.JITError, KeyError, TypeError, ValueError) as e:
                raise ArtifactError(str(e)) from None
            scalars = cstep.scalars

        # render this rank's driver, compile it (memoized by text)
        source, step_lines = render_driver(p['driver'], boxes, scalars)
        code = self._code.get(source)
        if code is None:
            code = self._code[source] = compile(
                source, '<repro-jit-kernel>', 'exec')
        namespace = {}
        if san is not None:
            namespace['__SAN'] = san
        if c_funcs is not None:
            namespace.update(__C=c_funcs, __CS=cstep)
        exec(code, namespace)  # noqa: S102 - the JIT kernel
        func = namespace.get('__kernel')
        if func is None:
            raise ArtifactError("cached source defines no __kernel")

        return PyKernel(source, func, exchangers, sparse_plans,
                        profiler=profiler,
                        step_lines=step_lines, sanitizer=san,
                        backend=backend, c_source=p['c_source'],
                        so_path=p['so_path'],
                        so_checksum=p['so_checksum'],
                        cstep=cstep, lib=self._lib, artifact=self,
                        scratch=scratch)

    def rehydrate_analysis(self):
        """The cached structure passes' diagnostics (or None when the
        build was not verified)."""
        if self.payload['analysis'] is None:
            return None
        from ..analysis.diagnostics import Diagnostic
        return [Diagnostic(code, message, step_index=step_index,
                           where=where)
                for code, message, step_index, where
                in self.payload['analysis']]

    def rehydrate_certificate(self, dist):
        """The static communication certificate of ``dist``'s rank,
        bound from the record's exchanger table."""
        from ..analysis.certificate import bind_certificate
        try:
            return bind_certificate(self.payload['program'], dist)
        except (KeyError, TypeError, ValueError) as e:
            raise ArtifactError("malformed certificate payload: %s"
                                % (e,)) from None

    def __repr__(self):
        program = self.payload['program']
        return ('KernelArtifact(v%d, %d sections, %d exchangers, %dB)'
                % (self.payload['version'],
                   sum(sec['name'] is not None
                       for sec in program['pre'] + program['loop']),
                   len(program['exchangers']), self.nbytes))
