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

from ..mpi import (check_tag_spaces, core_region, make_exchanger,
                   remainder_regions)
from ..profiling import Profiler, SectionMeta, assign_section_names
from ..symbolics import PyPrinter
from .common import (RESERVED_NAMES, cluster_union_widths, function_nb,
                     validate_names)

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
        #: 'numpy', or 'c' when the compute steps run as compiled C
        self.backend = backend
        #: the executable C translation unit ('c' backend only)
        self.c_source = c_source
        #: compiled shared object (path + BLAKE2b tamper seal); shared by
        #: every kernel built from the same equations
        self.so_path = so_path
        self.so_checksum = so_checksum
        #: this rank's binding of it: {sid: {'name', 'sig', 'call',
        #: 'geom'}} ('c' only)
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

    With ``backend='c'`` the compute steps are emitted as C
    (:func:`~repro.codegen.cgen.generate_c_steps`), compiled into a
    shared object and called through ctypes; everything else — halo
    exchanges, sparse steps, profiling, sanitizer, resilience hooks —
    stays in the generated Python driver, byte-for-byte identical to
    the NumPy backend's.  Unsupported grids (dtype outside
    float32/float64) degrade to NumPy with a visible warning.
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

    c_source = c_meta = c_funcs = c_geom = None
    so_path = so_checksum = lib = None
    if backend == 'c':
        from . import jit
        from .cgen import generate_c_steps
        try:
            c_source, c_meta = generate_c_steps(schedule)
            so_path = jit.compile_shared(c_source)
            so_checksum = jit.file_checksum(so_path)
            lib, c_funcs, c_geom = jit.load_steps(so_path, c_meta,
                                                  grid.dtype)
        except (ValueError, jit.JITError) as e:
            import warnings
            warnings.warn("compiled backend unavailable for this build "
                          "(%s); falling back to the NumPy backend"
                          % (e,), jit.ToolchainWarning, stacklevel=2)
            backend = 'numpy'
            c_source = c_meta = so_path = so_checksum = lib = None

    em = _Emitter()
    em.emit('def __kernel(time_m, time_M, __A, __P, __EX, __SP, __comm, '
            'np, __T, __RES=None):')
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
    sparse_steps = [(i, s) for i, s in enumerate(schedule.steps)
                    if s.is_sparse]
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
        em.emit()

    # -- the time loop ---------------------------------------------------------------
    em.emit('for time in range(time_m, time_M + 1):')
    em.level += 1
    # resilience hook first (a checkpoint due at the kill step must
    # complete before the kill fires), then the fault-injection hook
    em.emit('__RES is None or __RES.tick(time)')
    em.emit('__comm is None or __comm.fault_tick(time)')
    if san is not None:
        em.emit('# sanitizer: buffer rotation invalidated every halo')
        em.emit('__SAN.poison(__A)')
    body_emitted = False
    step_lines = {}

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
            sec_end(sname)
        elif step.is_compute:
            body_emitted = True
            boxes = [box for box in _region_boxes(step, dist)
                     if all(e > b for b, e in box)]
            npoints = sum(_box_volume(box) for box in boxes)
            profiler.register(SectionMeta(
                sname, 'compute', points=npoints,
                flops_per_point=step.cluster.flops_per_point(),
                traffic_per_point=step.cluster.traffic_per_point(
                    grid.dtype.itemsize)))
            if boxes:
                sec_begin()
                if backend == 'c' and sid in c_meta:
                    meta = c_meta[sid]
                    em.emit('# compiled %s over %s' % (
                        meta['name'],
                        ' + '.join(' x '.join('[%d:%d)' % b for b in box)
                                   for box in boxes)))
                    em.emit("__C['%s'](%s)" % (meta['name'],
                                               ', '.join(meta['call'])))
                else:
                    for box in boxes:
                        _emit_cluster(em, step.cluster, box)
                sec_end(sname)
                if san is not None:
                    san.register_writes(sname,
                                        sorted(step.cluster.write_keys))
                    em.emit("__SAN.check('%s', __A, time)" % sname)
        else:
            body_emitted = True
            profiler.register(SectionMeta(
                sname, 'sparse',
                sparse_npoints=len(step.op.sparse.routing.local_points)))
            sec_begin()
            _emit_sparse(em, sid, step, dist)
            sec_end(sname)
            if san is not None and step.field_access is not None:
                san.register_writes(sname, [step.field_access.key])
                em.emit("__SAN.check('%s', __A, time)" % sname)
        step_lines[sid] = (first_line, len(em.lines))

    if not body_emitted:
        em.emit('pass')
    em.level -= 1
    em.emit('return')

    # static communication hygiene: concurrently live exchangers must
    # own disjoint tag spaces (a collision would cross-deliver halos)
    check_tag_spaces(exchangers)

    source = em.source()
    namespace = {}
    if san is not None:
        namespace['__SAN'] = san
    if c_funcs is not None:
        namespace.update(__C=c_funcs, __G=c_geom)
    code = compile(source, '<repro-jit-kernel>', 'exec')
    exec(code, namespace)  # noqa: S102 - this is the JIT compiler
    return PyKernel(source, namespace['__kernel'], exchangers, sparse_plans,
                    schedule, profiler=profiler, step_lines=step_lines,
                    sanitizer=san, backend=backend, c_source=c_source,
                    so_path=so_path, so_checksum=so_checksum,
                    c_steps=c_meta, lib=lib)


def _box_volume(box):
    return int(np.prod([max(e - b, 0) for b, e in box])) if box else 0


def _view_expr(func, time_shift):
    if time_shift is None:
        return func.name
    nb = function_nb(func)
    return '%s[(time + %d) %% %d]' % (func.name, time_shift, nb)


def _region_boxes(step, dist):
    """Compile-time iteration boxes for a compute step's region."""
    shape = dist.shape_local
    if step.region == 'domain':
        return [tuple((0, n) for n in shape)]
    widths = cluster_union_widths(step.cluster)
    if step.region == 'core':
        return [core_region(dist, widths)]
    if step.region == 'remainder':
        return remainder_regions(dist, widths)
    raise ValueError("unknown region %r" % (step.region,))


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


def _emit_sparse(em, sid, step, dist):
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
    else:
        em.emit('# interpolate %s at %s points' % (step.expr, sparse.name))
        em.emit('__acc%d = np.zeros(%d, dtype=np.float64)'
                % (sid, sparse.npoint))
        em.emit('np.add.at(__acc%d, __p%d, __w%d * (%s))'
                % (sid, sid, sid, printer.doprint(step.expr)))
        if dist.is_parallel:
            em.emit('__acc%d = __comm.allreduce(__acc%d)' % (sid, sid))
        if sparse.is_SparseTimeFunction:
            em.emit('__sd%d[time, :] = __acc%d' % (sid, sid))
        else:
            em.emit('__sd%d[:] = __acc%d' % (sid, sid))


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
