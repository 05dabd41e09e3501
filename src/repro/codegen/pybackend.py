"""JIT code generation: schedule -> executable vectorized NumPy kernel.

The generated artifact is real source code (inspectable via
``Operator.pycode``), compiled with ``compile``/``exec`` at operator build
time — the same JIT flow as the paper's C backend, with vectorized NumPy
slice arithmetic standing in for OpenMP/SIMD loops (per the HPC-Python
guidance: all hot loops are whole-array operations).

Key translation rule: an access ``u[t+s, x+a, y+b]`` over an iteration box
``[xb, xe) x [yb, ye)`` becomes the slice
``u[(time+s) % nb, a+H+xb : a+H+xe, b+H+yb : b+H+ye]`` where ``H`` is the
function's allocated halo ("access alignment", paper Section III-d).
Boxes and halo offsets are compile-time constants, so generated index
arithmetic is fully folded.
"""

from __future__ import annotations

import numpy as np

from ..ioutil import file_digest
from ..mpi import check_tag_spaces, make_exchanger
from ..profiling import Profiler, SectionMeta, assign_section_names
from ..symbolics import PyPrinter
from .common import function_nb, validate_names

__all__ = ['PyKernel', 'generate_kernel']

_INDENT = '    '


class PyKernel:
    """A compiled kernel plus everything needed to invoke it."""

    def __init__(self, source, func, exchangers, sparse_plans, schedule,
                 profiler=None, step_lines=None, sanitizer=None,
                 backend='numpy', c_source=None, so_path=None,
                 so_checksum=None, c_steps=None, lib=None):
        self.source = source
        self.func = func
        self.exchangers = exchangers
        self.sparse_plans = sparse_plans
        self.schedule = schedule
        self.profiler = profiler
        #: schedule step index -> (first, one-past-last) 0-based line
        #: numbers in ``source`` (consumed by the diagnostics renderer)
        self.step_lines = dict(step_lines or {})
        #: the HaloSanitizer when compiled in sanitizer mode, else None
        self.sanitizer = sanitizer
        #: 'numpy', or 'c' when each timestep runs as one compiled step
        self.backend = backend
        #: the executable C translation unit ('c' backend only)
        self.c_source = c_source
        #: compiled shared object (path + BLAKE2b tamper seal); shared by
        #: every kernel built from the same equations
        self.so_path = so_path
        self.so_checksum = so_checksum
        #: what this rank binds to its step ('c' only): ``{'meta':
        #: generate_c_steps metadata, 'plan': the op program}``
        self.c_steps = c_steps
        #: the loaded ctypes library (keeps the dlopen handle alive)
        self.lib = lib

    def __call__(self, time_m, time_M, arrays, params, comm, timer=None,
                 resilience=None):
        return self.func(time_m, time_M, arrays, params, self.exchangers,
                         self.sparse_plans, comm, np, timer, resilience)


class _Emitter:
    def __init__(self):
        self.lines = []
        self.level = 0

    def emit(self, text=''):
        self.lines.append(_INDENT * self.level + text if text else '')

    def source(self):
        return '\n'.join(self.lines) + '\n'


def _slice_index_printer(box_bounds, time_var='time'):
    """Build a PyPrinter index callback for a given iteration box.

    ``box_bounds`` is a per-space-dim list of (begin, end) ints in
    domain-local coordinates.
    """
    from ..ir.lowered import parse_index

    def index_printer(printer, indexed):
        func = indexed.base
        dims = func.dimensions
        parts = []
        halo = dict(zip(func.space_dimensions, func.halo))
        sdims = list(func.space_dimensions)
        for dim, idx in zip(dims, indexed.indices):
            off = parse_index(idx, dim)
            if dim.is_Time:
                nb = function_nb(func)
                parts.append('(%s + %d) %% %d' % (time_var, off, nb))
            else:
                d = sdims.index(dim)
                lo, hi = box_bounds[d]
                hl = halo[dim][0]
                parts.append('%d:%d' % (off + hl + lo, off + hl + hi))
        return '%s[%s]' % (func.name, ', '.join(parts))

    return index_printer


def _sparse_index_printer(step_id, sparse_name, time_var='time'):
    """Index callback for sparse-operation expressions: grid accesses use
    the precomputed per-contribution fancy-index arrays."""
    def index_printer(printer, indexed):
        func = indexed.base
        if not getattr(func, 'is_DiscreteFunction', False):
            raise TypeError("unexpected indexed %s in sparse expr"
                            % (indexed,))
        from ..ir.lowered import parse_index
        head = func.name
        idx_arrays = []
        sdims = list(func.space_dimensions)
        for dim, idx in zip(func.dimensions, indexed.indices):
            off = parse_index(idx, dim)
            if dim.is_Time:
                nb = function_nb(func)
                head = '%s[(%s + %d) %% %d]' % (func.name, time_var, off, nb)
            else:
                d = sdims.index(dim)
                if off != 0:
                    idx_arrays.append('__s%d_i%d_%s + %d'
                                      % (step_id, d, func.name, off))
                else:
                    idx_arrays.append('__s%d_i%d_%s'
                                      % (step_id, d, func.name))
        return '%s[%s]' % (head, ', '.join(idx_arrays))

    return index_printer


class _SparsePrinter(PyPrinter):
    """PyPrinter that also resolves SparseFunction atoms."""

    def __init__(self, step_id, sparse, index_printer):
        super().__init__(index_printer=index_printer)
        self.step_id = step_id
        self.sparse = sparse

    def _print(self, expr):
        if getattr(expr, 'is_SparseFunction', False):
            if expr.name != self.sparse.name:
                raise ValueError("sparse expr references foreign sparse "
                                 "function %s" % expr.name)
            if expr.is_SparseTimeFunction:
                return "__sd%d[time, __p%d]" % (self.step_id, self.step_id)
            return "__sd%d[__p%d]" % (self.step_id, self.step_id)
        return super()._print(expr)


def generate_kernel(schedule, progress=False, profiler=None,
                    sanitizer=False, backend='numpy'):
    """Generate, compile and wrap the Python kernel for ``schedule``.

    When ``profiler`` is enabled (profiling level ``basic``/``advanced``),
    every schedule step is wrapped in a named, timed section; at level
    ``off`` the instrumentation is *compiled out* — the generated source
    contains no timing calls at all.

    With ``sanitizer=True`` the poisoned-halo sanitizer hooks are
    compiled in: neighbor-owned ghost cells are NaN-poisoned before the
    preamble and at the top of every iteration, and the DOMAIN of every
    written buffer is scanned after each writing step
    (:mod:`repro.analysis.sanitizer`).  Like the profiling calls, the
    hooks are *compiled out* entirely when disabled.

    With ``backend='c'`` the whole timestep runs as one compiled call:
    compute kernels, halo spots, sparse injection and interpolation,
    section timers and sanitizer hooks
    (:func:`~repro.codegen.cgen.generate_c_steps`,
    :mod:`~repro.codegen.cstep`).  The Python driver keeps the time
    loop, the resilience and fault hooks and the block flush of pending
    receiver rows; it runs the NumPy driver (``__kernel_py``, the NumPy
    backend's text) instead when the world has an armed fault plan.
    Unsupported builds (dtype outside float32/float64, a distributed
    interpolation another sparse step reads in the same timestep)
    degrade to NumPy with a visible warning.
    """
    grid = schedule.grid
    dist = grid.distributor
    validate_names(schedule)
    if profiler is None:
        profiler = Profiler('off')
    instrument = profiler.enabled
    san = None
    if sanitizer:
        from ..analysis.sanitizer import make_sanitizer
        san = make_sanitizer(schedule)
        if not san.enabled:
            san = None
    preamble_names, step_names = assign_section_names(schedule)
    sparse_steps = [(i, s) for i, s in enumerate(schedule.steps)
                    if s.is_sparse]
    deferred = _deferred_interpolations(sparse_steps) \
        if dist.is_parallel else {}

    c_source = c_meta = c_funcs = None
    so_path = so_checksum = lib = None
    if backend == 'c':
        from . import jit
        from .cgen import generate_c_steps
        try:
            if any(step.kind == 'interpolate' and sid not in deferred
                   for sid, step in sparse_steps) and dist.is_parallel:
                raise ValueError("a distributed interpolation is read by "
                                 "another sparse step of its timestep")
            c_source, c_meta = generate_c_steps(schedule)
            so_path = jit.compile_shared(c_source)
            so_checksum = file_digest(so_path)
            lib, c_funcs = jit.load_steps(so_path)
        except (ValueError, jit.JITError) as e:
            import warnings
            warnings.warn("compiled backend unavailable for this build "
                          "(%s); falling back to the NumPy backend"
                          % (e,), jit.ToolchainWarning, stacklevel=2)
            backend = 'numpy'
            c_source = c_meta = so_path = so_checksum = lib = None
    compiled = backend == 'c'
    #: the compiled step's program, recorded alongside the NumPy driver
    plan = _Plan(schedule)

    em = _Emitter()
    em.emit('def __kernel%s(time_m, time_M, __A, __P, __EX, __SP, __comm, '
            'np, __T, __RES=None):' % ('_py' if compiled else ''))
    em.level += 1

    def sec_begin():
        if instrument:
            em.emit('__t = __T.now()')

    def sec_end(name, in_loop=True):
        if instrument:
            em.emit("__T.add('%s', __t%s)"
                    % (name, ', time' if in_loop else ''))

    # -- unpack arrays and scalars ------------------------------------------------
    functions = {f.name: f for f in schedule.functions}
    for name in sorted(functions):
        em.emit("%s = __A['%s']" % (name, name))
    scalar_names = sorted({d.spacing.name for d in grid.dimensions}
                          | {'dt'} | set(_constant_names(schedule)))
    for name in scalar_names:
        em.emit("%s = __P['%s']" % (name, name))
    em.emit()

    # -- exchanger construction (done by the caller; named here) -------------------
    exchangers = {}
    sparse_plans = {}

    # -- preamble: loop-invariant scalars (Listing 11's r0, r1, ...) ---------------
    scalar_printer = PyPrinter()
    if schedule.scalar_assignments:
        em.emit('# loop-invariant scalar temporaries')
        for temp, rhs in schedule.scalar_assignments:
            em.emit('%s = %s' % (temp.name, scalar_printer.doprint(rhs)))
        em.emit()

    # -- preamble: sparse plan unpacking --------------------------------------------
    for sid, step in sparse_steps:
        plan_funcs = _sparse_grid_functions(step)
        em.emit("__p%d = __SP[%d]['pids']" % (sid, sid))
        em.emit("__w%d = __SP[%d]['w']" % (sid, sid))
        em.emit("__sd%d = __SP[%d]['data']" % (sid, sid))
        for f in plan_funcs:
            for d in range(grid.dim):
                hl = f.halo[d][0]
                em.emit("__s%d_i%d_%s = __SP[%d]['idx'][%d] + %d"
                        % (sid, d, f.name, sid, d, hl))
        em.emit()
    if deferred:
        _emit_pending_rows(em, deferred)

    # -- preamble: hoisted halo exchanges of time-invariant functions ---------------
    tag_base = [0]

    def new_exchanger(key, func, widths):
        mode = schedule.mpi_mode or 'basic'
        ex = make_exchanger(mode, dist, func.halo, widths,
                            tag_base=tag_base[0], name=key,
                            **({'progress': progress}
                               if mode == 'full' else {}))
        tag_base[0] += 64
        exchangers[key] = ex
        return key

    if san is not None:
        em.emit('# sanitizer: poison every neighbor-owned ghost cell')
        em.emit('__SAN.poison_invariants(__A)')
        em.emit()
        plan.add('pre', 'poison', 'all')

    if schedule.preamble_halo:
        em.emit('# hoisted halo exchanges (time-invariant functions)')
        for req, sname in zip(schedule.preamble_halo, preamble_names):
            key = 'pre_%s' % req.function.name
            new_exchanger(key, req.function, req.widths)
            profiler.register(SectionMeta(sname, 'halo',
                                          exchanger_keys=(key,)))
            sec_begin()
            em.emit("__EX['%s'].exchange(%s)" % (key, req.function.name))
            sec_end(sname, in_loop=False)
            plan.section('pre', sname, instrument, [
                ('update', key, req.function.name, None)])
        em.emit()

    # -- the time loop ---------------------------------------------------------------
    em.emit('for time in range(time_m, time_M + 1):')
    em.level += 1
    # resilience hook first (a checkpoint due at the kill step must
    # complete before the kill fires), then the fault-injection hook;
    # the hook reduces pending receiver rows before it saves or moves
    # sparse state
    em.emit('__RES is None or __RES.tick(time%s)'
            % (', __flush' if deferred else ''))
    em.emit('__comm is None or __comm.fault_tick(time)')
    if san is not None:
        em.emit('# sanitizer: buffer rotation invalidated every halo')
        em.emit('__SAN.poison(__A)')
        plan.add('loop', 'poison', 'time')
    body_emitted = False
    step_lines = {}

    def scans(sname):
        return [('scan', sname, name, tshift)
                for name, tshift in san._writes.get(sname, ())] \
            if san is not None else []

    for sid, step in enumerate(schedule.steps):
        sname = step_names[sid]
        first_line = len(em.lines)
        if step.is_halo:
            body_emitted = True
            keys = ['h%d_%s' % (step.uid, req.function.name)
                    for req in step.exchanges]
            profiler.register(SectionMeta(
                sname, 'halo' if step.kind != 'wait' else 'wait',
                exchanger_keys=keys if step.kind != 'wait' else ()))
            sec_begin()
            ops = []
            for req, key in zip(step.exchanges, keys):
                view = _view_expr(req.function, req.time_shift)
                if step.kind == 'update':
                    if key not in exchangers:
                        new_exchanger(key, req.function, req.widths)
                    em.emit("__EX['%s'].exchange(%s)" % (key, view))
                elif step.kind == 'begin':
                    if key not in exchangers:
                        new_exchanger(key, req.function, req.widths)
                    em.emit("__pend_%s = __EX['%s'].begin(%s)"
                            % (key, key, view))
                elif step.kind == 'wait':
                    em.emit("__EX['%s'].finish(%s, __pend_%s)"
                            % (key, view, key))
                ops.append(({'update': 'update', 'begin': 'send',
                             'wait': 'recv'}[step.kind], key,
                            req.function.name, req.time_shift))
            sec_end(sname)
            plan.section('loop', sname, instrument, ops)
        elif step.is_compute:
            body_emitted = True
            boxes = step.boxes(dist)
            npoints = sum(_box_volume(box) for box in boxes)
            profiler.register(SectionMeta(
                sname, 'compute', points=npoints,
                flops_per_point=step.cluster.flops_per_point(),
                traffic_per_point=step.cluster.traffic_per_point(
                    grid.dtype.itemsize)))
            if boxes:
                sec_begin()
                for box in boxes:
                    _emit_cluster(em, step.cluster, box)
                sec_end(sname)
                if san is not None:
                    san.register_writes(sname,
                                        sorted(step.cluster.write_keys))
                    em.emit("__SAN.check('%s', __A, time)" % sname)
                plan.section('loop', sname, instrument,
                                      [('call', sid)], scans(sname))
        else:
            body_emitted = True
            profiler.register(SectionMeta(
                sname, 'sparse',
                sparse_npoints=len(step.op.sparse.routing.local_points)))
            sec_begin()
            _emit_sparse(em, sid, step, dist, deferred=sid in deferred)
            if deferred and sid == max(deferred):
                _emit_block_end(em, deferred)
            sec_end(sname)
            if san is not None and step.field_access is not None:
                san.register_writes(sname, [step.field_access.key])
                em.emit("__SAN.check('%s', __A, time)" % sname)
            plan.sparse(sid, step, sid in deferred)
            plan.section('loop', sname, instrument, [('call', sid)],
                         scans(sname))
        step_lines[sid] = (first_line, len(em.lines))

    if not body_emitted:
        em.emit('pass')
    em.level -= 1
    em.emit('return')

    # static communication hygiene: concurrently live exchangers must
    # own disjoint tag spaces (a collision would cross-deliver halos)
    check_tag_spaces(exchangers)

    c_steps = None
    if compiled:
        c_steps = {'meta': {str(sid): m for sid, m in c_meta.items()},
                   'plan': plan.finish(exchangers, c_meta)}
        em.level = 0
        em.emit()
        _emit_compiled_driver(em, schedule, c_steps['plan'], deferred,
                              scalar_names, instrument)
    source = em.source()
    namespace = {}
    if san is not None:
        namespace['__SAN'] = san
    if compiled:
        from .cstep import StepProgram
        namespace.update(__C=c_funcs, __CS=StepProgram(
            lib, c_steps['plan'], c_meta, exchangers, dist, san,
            grid.dtype))
    code = compile(source, '<repro-jit-kernel>', 'exec')
    exec(code, namespace)  # noqa: S102 - this is the JIT compiler
    return PyKernel(source, namespace['__kernel'], exchangers, sparse_plans,
                    schedule, profiler=profiler, step_lines=step_lines,
                    sanitizer=san, backend=backend, c_source=c_source,
                    so_path=so_path, so_checksum=so_checksum,
                    c_steps=c_steps, lib=lib)


class _Plan:
    """The compiled step's program, recorded while the NumPy driver is
    emitted (see :mod:`.cstep` for the op vocabulary)."""

    def __init__(self, schedule):
        self.ops = {'pre': [], 'loop': []}
        self.sections = []
        self.modes = {}
        self.nbuffers = {f.name: function_nb(f) for f in schedule.functions}

    def add(self, where, *op):
        self.ops[where].append(list(op))

    def section(self, where, name, timed, ops, after=()):
        """``ops`` bracketed by the section's timer (when profiling is
        compiled in), then ``after`` (the sanitizer scans)."""
        if timed:
            if name not in self.sections:
                self.sections.append(name)
            self.add(where, 'begin', self.sections.index(name))
        for op in ops:
            self.add(where, *op)
        if timed:
            self.add(where, 'stop', self.sections.index(name))
        for op in after:
            if op[1] not in self.sections:
                self.sections.append(op[1])
            self.add(where, 'scan', self.sections.index(op[1]), *op[2:])

    def sparse(self, sid, step, deferred):
        """Mode of a sparse function: 0 inject, 1 interpolate into the
        sparse data, 2 into the pending block of rows."""
        self.modes[str(sid)] = 0 if step.kind == 'inject' else \
            2 if deferred else 1

    def finish(self, exchangers, meta):
        scalars = set()
        for m in meta.values():
            scalars.update(m['scalars'])
        return {'pre': self.ops['pre'], 'loop': self.ops['loop'],
                'sections': self.sections, 'sparse': self.modes,
                'fields': sorted(self.nbuffers), 'nbuffers': self.nbuffers,
                'scalars': sorted(scalars), 'exchangers': list(exchangers)}


def _emit_compiled_driver(em, schedule, plan, deferred, scalar_names,
                          instrument):
    """The ``backend='c'`` driver: one call of the compiled ``step`` per
    timestep, between the resilience / fault hooks and the block flush
    of pending receiver rows; the NumPy driver when a fault plan is
    armed (that transport is the one that injects faults)."""
    em.emit('def __kernel(time_m, time_M, __A, __P, __EX, __SP, __comm, '
            'np, __T, __RES=None):')
    em.level += 1
    em.emit("if getattr(getattr(__comm, 'world', None), 'faults', None) "
            "is not None:")
    em.emit(_INDENT + 'return __kernel_py(time_m, time_M, __A, __P, __EX, '
            '__SP, __comm, np, __T, __RES)')
    for name in scalar_names:
        em.emit("%s = __P['%s']" % (name, name))
    if schedule.scalar_assignments:
        printer = PyPrinter()
        for temp, rhs in schedule.scalar_assignments:
            em.emit('%s = %s' % (temp.name, printer.doprint(rhs)))
    if deferred:
        for sid in deferred:
            em.emit("__sd%d = __SP[%d]['data']" % (sid, sid))
        _emit_pending_rows(em, deferred)
    em.emit('__B = __CS.bind(__A, __SP, __comm, (%s), (%s))' % (
        ''.join('%s, ' % s for s in plan['scalars']),
        ''.join('__rows%d, ' % sid for sid in sorted(deferred))))
    em.emit("__step, __ref = __C['step'], __B.ref")
    if instrument:
        em.emit('__adv = __T.advanced')
    em.emit('try:')
    em.level += 1
    if plan['pre']:
        em.emit('__B.check(__step(time_m, 0, __B.pre), time_m, __A, '
                'pre=True)')
        em.emit('__B.fold(__T)')
    em.emit('for time in range(time_m, time_M + 1):')
    em.level += 1
    em.emit('__RES is None or __RES.tick(time%s)'
            % (', __flush' if deferred else ''))
    em.emit('__comm is None or __comm.fault_tick(time)')
    em.emit('__rc = __step(time, %s, __ref)'
            % ('__nrows' if deferred else '0'))
    em.emit('if __rc:')
    em.emit(_INDENT + '__B.check(__rc, time, __A)')
    if instrument:
        em.emit('__adv and __B.trace(__T, time)')
    if deferred:
        _emit_block_end(em, deferred)
    em.level -= 2
    em.emit('finally:')
    em.emit(_INDENT + '__B.fold(__T)')
    em.level -= 1


def _box_volume(box):
    return int(np.prod([max(e - b, 0) for b, e in box])) if box else 0


def _view_expr(func, time_shift):
    if time_shift is None:
        return func.name
    nb = function_nb(func)
    return '%s[(time + %d) %% %d]' % (func.name, time_shift, nb)


def _emit_cluster(em, cluster, box):
    printer = PyPrinter(index_printer=_slice_index_printer(box))
    label = ' x '.join('[%d:%d)' % b for b in box)
    em.emit('# cluster over %s' % label)
    for temp, rhs in cluster.temps:
        em.emit('%s = %s' % (temp.name, printer.doprint(rhs)))
    for eq in cluster.eqs:
        em.emit('%s = %s' % (printer.doprint(eq.lhs),
                             printer.doprint(eq.rhs)))


def _sparse_grid_functions(step):
    """Grid functions accessed by a sparse step (for index preambles)."""
    from ..ir.lowered import accesses_of
    seen = {}
    for acc in accesses_of(step.expr):
        seen[acc.function.name] = acc.function
    if step.field_access is not None:
        f = step.field_access.function
        seen[f.name] = f
    return [seen[k] for k in sorted(seen)]


def _deferred_interpolations(sparse_steps):
    """``{sid: step}`` of the interpolations whose cross-rank reduction
    may wait for the end of a block of steps: all of them, except those
    into a sparse function that a sparse step of the same kernel also
    reads (that read needs the reduced value of the current step)."""
    from ..symbolics import unique_nodes
    read = {node.name for _, step in sparse_steps
            for node in unique_nodes(step.expr)
            if getattr(node, 'is_SparseFunction', False)}
    return {sid: step for sid, step in sparse_steps
            if step.kind == 'interpolate'
            and step.op.sparse.name not in read}


def _timed(deferred):
    return [sid for sid, step in deferred.items()
            if step.op.sparse.is_SparseTimeFunction]


def _emit_pending_rows(em, deferred):
    """Preamble of block-reduced interpolation: per step one rank-local
    float64 buffer (a block of rows for a time series, one row
    otherwise), and ``__flush``, the one allreduce of every pending row
    into the replicated sparse data — called when a block is full, at
    ``time_M`` and by the resilience hook before anything reads or moves
    sparse state.  The sum is element-wise in rank order, exactly the
    per-step reduction's."""
    timed = _timed(deferred)
    em.emit('# partial interpolation rows of this rank, reduced across '
            'ranks once per block')
    if timed:
        blocks = ["__SP[%d]['block']" % sid for sid in timed]
        em.emit('__nblock = %s' % (blocks[0] if len(blocks) == 1 else
                                   'min(%s)' % ', '.join(blocks)))
    for sid, step in deferred.items():
        em.emit('__rows%d = np.empty((%s, %d))'
                % (sid, '__nblock' if sid in timed else '1',
                   step.op.sparse.npoint))
    em.emit('__nrows = 0')
    em.emit('__row0 = time_m')
    em.emit('def __flush():')
    em.level += 1
    em.emit('nonlocal __nrows, __row0')
    em.emit('if __nrows:')
    em.level += 1
    for sid in deferred:
        if sid in timed:
            em.emit('__sd%d[__row0:__row0 + __nrows] = '
                    '__comm.allreduce(__rows%d[:__nrows])' % (sid, sid))
        else:
            em.emit('__sd%d[:] = __comm.allreduce(__rows%d[0])' % (sid, sid))
    em.emit('__row0 += __nrows')
    em.emit('__nrows = 0')
    em.level -= 2
    em.emit()


def _emit_block_end(em, deferred):
    """After the last deferred interpolation of a step: count the row,
    reduce when the block is full or the run ends."""
    em.emit('__nrows += 1')
    em.emit('if %stime == time_M:'
            % ('__nrows == __nblock or ' if _timed(deferred) else ''))
    em.emit(_INDENT + '__flush()')


def _emit_sparse(em, sid, step, dist, deferred):
    sparse = step.op.sparse
    printer = _SparsePrinter(sid, sparse,
                             _sparse_index_printer(sid, sparse.name))
    if step.kind == 'inject':
        facc = step.field_access
        f = facc.function
        em.emit('# inject %s into %s' % (sparse.name, f.name))
        em.emit('__vals%d = __w%d * (%s)' % (sid, sid,
                                             printer.doprint(step.expr)))
        head = _view_expr(f, facc.time_shift)
        idx = ', '.join('__s%d_i%d_%s' % (sid, d, f.name)
                        for d in range(len(facc.offsets)))
        em.emit('np.add.at(%s, (%s), __vals%d)' % (head, idx, sid))
        return
    # bincount adds each point's contributions in plan order, in float64:
    # the additions np.add.at into a float64 accumulator would make
    em.emit('# interpolate %s at %s points' % (step.expr, sparse.name))
    total = ('np.bincount(__p%d, weights=__w%d * (%s), minlength=%d)'
             % (sid, sid, printer.doprint(step.expr), sparse.npoint))
    row = '[time, :]' if sparse.is_SparseTimeFunction else '[:]'
    if deferred:
        em.emit('__rows%d[%s] = %s'
                % (sid, '__nrows' if sparse.is_SparseTimeFunction else '0',
                   total))
    elif dist.is_parallel:
        # with no local point bincount returns int64 zeros: sum float64
        em.emit('__sd%d%s = __comm.allreduce(np.asarray(%s, '
                'dtype=np.float64))' % (sid, row, total))
    else:
        em.emit('__sd%d%s = %s' % (sid, row, total))


def _constant_names(schedule):
    from ..dsl.function import Constant
    from ..symbolics import unique_nodes
    names = set()
    exprs = []
    for _, rhs in schedule.scalar_assignments:
        exprs.append(rhs)
    for cluster in schedule.clusters:
        exprs.extend(rhs for _, rhs in cluster.temps)
        exprs.extend(eq.rhs for eq in cluster.eqs)
    for step in schedule.steps:
        if step.is_sparse:
            exprs.append(step.expr)
    for e in exprs:
        for node in unique_nodes(e):
            if isinstance(node, Constant):
                names.add(node.name)
    return names
