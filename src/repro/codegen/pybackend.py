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

Lowering is rank-agnostic (:func:`lower_kernel`): ``a+H`` is known once
per set of equations, the box only on a rank, so the driver is kept as
a template with one placeholder per slice.  Each rank binds it
(:func:`render_driver`) to its own boxes, printing literal bounds —
the text, and therefore the generated index arithmetic, is exactly
what a per-rank generator would print, fully folded.
"""

from __future__ import annotations

import numpy as np

from ..ioutil import file_digest
from ..profiling import Profiler
from ..symbolics import PyPrinter
from .artifact import ARTIFACT_VERSION, KernelArtifact
from .common import function_nb, validate_names

__all__ = ['PyKernel', 'bind_plan', 'box_volume', 'generate_kernel',
           'lower_kernel', 'render_driver', 'symbols_of']

_INDENT = '    '


class PyKernel:
    """A compiled kernel plus everything needed to invoke it."""

    def __init__(self, source, func, exchangers, sparse_plans,
                 profiler=None, step_lines=None, sanitizer=None,
                 backend='numpy', c_source=None, so_path=None,
                 so_checksum=None, cstep=None, lib=None, artifact=None,
                 scratch=None):
        self.source = source
        self.func = func
        self.exchangers = exchangers
        self.sparse_plans = sparse_plans
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
        #: this rank's :class:`~.cstep.StepProgram` ('c' only)
        self.cstep = cstep
        #: the loaded ctypes library (keeps the dlopen handle alive)
        self.lib = lib
        #: the rank-agnostic KernelArtifact this kernel is a binding of
        self.artifact = artifact
        #: this binding's scratch arrays: name -> (ScratchArray, storage)
        self.scratch = dict(scratch or {})

    def __call__(self, time_m, time_M, arrays, params, comm, timer=None,
                 resilience=None):
        if self.scratch:
            arrays = dict(arrays)
            arrays.update((name, data) for name, (_, data)
                          in self.scratch.items())
        return self.func(time_m, time_M, arrays, params, self.exchangers,
                         self.sparse_plans, comm, np, timer, resilience)


def _slice_index_printer():
    """PyPrinter index callback of a rank-agnostic iteration box.

    The slice of an access at offset ``off`` along dimension ``d`` over
    the box ``[lo, hi)`` is ``off + H + lo : off + H + hi``; what the
    build knows is ``off + H``, so it prints the placeholder
    ```d,off+H``` (no generated Python contains a backtick) and every
    rank fills in its own box (:func:`render_driver`).
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
                parts.append('(time + %d) %% %d' % (off, nb))
            else:
                parts.append('`%d,%d`'
                             % (sdims.index(dim), off + halo[dim][0]))
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
    """Lower ``schedule`` to its rank-agnostic kernel and bind it here.

    Returns this rank's ready :class:`PyKernel`; ``kernel.artifact`` is
    the rank-agnostic :class:`~repro.codegen.artifact.KernelArtifact`
    (:func:`lower_kernel`) every other rank of the launch binds with
    :meth:`~repro.codegen.artifact.KernelArtifact.rehydrate` — the same
    call a build-cache hit makes.

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
    if profiler is None:
        profiler = Profiler('off')
    artifact = KernelArtifact(lower_kernel(
        schedule, instrument=profiler.enabled, sanitizer=sanitizer,
        backend=backend))
    return artifact.rehydrate(symbols_of(schedule), progress=progress,
                              profiler=profiler)


def symbols_of(schedule):
    """The live objects of ``schedule`` by name, shaped like the
    fingerprint's symbol table (what a binding resolves names against)."""
    from types import SimpleNamespace
    constants, _ = _free_symbols(schedule)
    return SimpleNamespace(
        functions={f.name: f for f in schedule.functions},
        sparse={s.name: s for s in schedule.sparse_functions},
        constants=constants)


def lower_kernel(schedule, instrument=False, sanitizer=False,
                 backend='numpy'):
    """Everything a kernel is that no rank's geometry decides.

    Returns the JSON-able rank-agnostic artifact payload (see
    :mod:`repro.codegen.artifact`).  Its ``program`` is the timestep's
    one record (:func:`~repro.ir.program.step_program`); the NumPy
    driver is printed from it as a template (:func:`render_driver`):
    the slice bounds of every compute step and whether it runs at all
    on a rank are left to that rank's boxes, and so are the section
    point counts, the sanitizer's write map and the compiled step's
    geometry rows and op program.
    """
    from ..analysis.dataflow import access_table
    from ..ir.program import step_program
    grid = schedule.grid
    validate_names(schedule)
    parallel = grid.distributor.is_parallel
    program = step_program(schedule, instrument, sanitizer)
    san = program['sanitizer']
    steps = schedule.steps
    sparse_steps = [(i, s) for i, s in enumerate(steps) if s.is_sparse]
    # the interpolations reduced once per block of steps (call mode 2)
    deferred = {op[1]: steps[op[1]] for sec in program['loop']
                for op in sec['ops'] if op[0] == 'call' and op[2:] == [2]}
    constants, uses_dt = _free_symbols(schedule)

    c_source = c_meta = so_path = so_checksum = None
    if backend == 'c':
        from . import jit
        from .cgen import generate_c_steps
        try:
            if any(step.kind == 'interpolate' and sid not in deferred
                   for sid, step in sparse_steps) and parallel:
                raise ValueError("a distributed interpolation is read by "
                                 "another sparse step of its timestep")
            c_source, c_meta = generate_c_steps(schedule)
            so_path = jit.compile_shared(c_source)
            so_checksum = file_digest(so_path)
            jit.load_steps(so_path)
        except (ValueError, jit.JITError) as e:
            import warnings
            warnings.warn("compiled backend unavailable for this build "
                          "(%s); falling back to the NumPy backend"
                          % (e,), jit.ToolchainWarning, stacklevel=3)
            backend = 'numpy'
            c_source = c_meta = so_path = so_checksum = None
    compiled = backend == 'c'

    em = _Template()
    em.emit('def __kernel%s(time_m, time_M, __A, __P, __EX, __SP, __comm, '
            'np, __T, __RES=None):' % ('_py' if compiled else ''))
    em.level += 1

    def sec_begin():
        return ['__t = __T.now()'] if instrument else []

    def sec_end(name, in_loop=True):
        return ["__T.add('%s', __t%s)" % (name, ', time' if in_loop
                                           else '')] if instrument else []

    # -- unpack arrays and scalars ------------------------------------------------
    functions = {f.name: f for f in schedule.functions}
    for name in sorted(functions):
        em.emit("%s = __A['%s']" % (name, name))
    scalar_names = sorted({d.spacing.name for d in grid.dimensions}
                          | {'dt'} | set(constants))
    for name in scalar_names:
        em.emit("%s = __P['%s']" % (name, name))
    em.emit()

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

    # -- preamble: sanitizer fill, hoisted (time-invariant) halo exchanges ---------
    hoisted = [sec for sec in program['pre'] if sec['kind'] == 'halo']
    if san:
        em.emit('# sanitizer: poison every neighbor-owned ghost cell')
        em.emit('__SAN.poison_invariants(__A)')
        em.emit()
    if hoisted:
        em.emit('# hoisted halo exchanges (time-invariant functions)')
        for sec in hoisted:
            for _, key, fname, _ in sec['ops']:
                em.emit_all(sec_begin())
                em.emit("__EX['%s'].exchange(%s)" % (key, fname))
                em.emit_all(sec_end(sec['name'], in_loop=False))
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
    for sec in program['loop']:
        sname, kind, sid = sec['name'], sec['kind'], sec['step']
        if kind == 'poison':
            em.emit('# sanitizer: buffer rotation invalidated every halo')
            em.emit('__SAN.poison(__A)')
        elif kind == 'compute':
            tail = sec_end(sname)
            if san:
                tail.append("__SAN.check('%s', __A, time)" % sname)
            em.compute(sid, sec_begin(),
                       _cluster_template(em, steps[sid].cluster), tail)
        else:
            em.open_step()
            em.emit_all(sec_begin())
            if kind == 'sparse':
                _emit_sparse(em, sid, steps[sid], parallel,
                             deferred=sid in deferred)
                if deferred and sid == max(deferred):
                    _emit_block_end(em, deferred)
            else:
                for op, key, fname, shift in sec['ops']:
                    em.emit(_HALO_LINES[op] % dict(
                        key=key, view=_view_expr(functions[fname], shift)))
            em.emit_all(sec_end(sname))
            if sec['writes']:
                em.emit("__SAN.check('%s', __A, time)" % sname)
            em.close_step(sid)

    if not steps:
        em.emit('pass')
    em.level -= 1
    em.emit('return')

    if compiled:
        em.level = 0
        em.emit()
        _emit_compiled_driver(em, schedule, bool(program['pre']),
                              deferred, scalar_names, instrument)
    return {
        'version': ARTIFACT_VERSION,
        'driver': em.finish(),
        'program': program,
        'shape': [int(n) for n in grid.shape],
        'steps': access_table(schedule),
        'functions': [f.name for f in schedule.functions
                      if not f.is_Scratch],
        'scratch': [[f.name, [list(h) for h in f.halo]]
                    for f in schedule.functions if f.is_Scratch],
        'sparse_functions': [s.name for s in schedule.sparse_functions],
        'sparse_steps': [[int(sid), step.op.sparse.name]
                         for sid, step in sparse_steps],
        'constants': sorted(constants),
        'uses_dt': uses_dt,
        'flops_per_point': schedule.flops_per_point(),
        'traffic_per_point': schedule.traffic_per_point(
            grid.dtype.itemsize),
        'analysis': None,
        'build_seconds': 0.0,
        # compiled-backend products ('numpy' builds carry Nones).  The
        # object is shared by every build of the same equations (its
        # file name is its content key); so_path is rewritten by the
        # disk cache tier when it publishes the object into its store.
        'backend': backend,
        'c_source': c_source,
        'so_path': so_path,
        'so_checksum': so_checksum,
        'c_meta': None if c_meta is None else {
            str(sid): m for sid, m in c_meta.items()},
    }


#: the driver line of each halo op
_HALO_LINES = {'update': "__EX['%(key)s'].exchange(%(view)s)",
               'send': "__pend_%(key)s = __EX['%(key)s'].begin(%(view)s)",
               'recv': "__EX['%(key)s'].finish(%(view)s, __pend_%(key)s)"}


class _Template:
    """Line emitter of the driver template: literal lines, the steps'
    own lines (so a binding knows each step's line range) and compute
    steps, whose text depends on the binding rank's boxes."""

    def __init__(self):
        self.parts = []
        self.lines = []
        self.level = 0

    def emit(self, text=''):
        self.lines.append(_INDENT * self.level + text if text else '')

    def emit_all(self, texts):
        for text in texts:
            self.emit(text)

    def _flush(self):
        if self.lines:
            self.parts.append(['text', self.lines])
            self.lines = []

    def open_step(self):
        self._flush()

    def close_step(self, sid):
        self.parts.append(['step', sid, self.lines])
        self.lines = []

    def compute(self, sid, head, body, tail):
        """Compute step ``sid``: on a rank with boxes, ``head``, then
        per box a label comment and ``body`` with its slice placeholders
        filled in, then ``tail``; nothing on a rank without."""
        indent = _INDENT * self.level
        self._flush()
        self.parts.append(['compute', sid, indent,
                           [indent + t for t in head], body,
                           [indent + t for t in tail]])

    def bind_call(self, rows):
        """The compiled driver's ``__CS.bind`` call: its scalar tuple
        lists what the rank's bound steps read."""
        self._flush()
        self.parts.append(['bind', _INDENT * self.level, rows])

    def finish(self):
        self._flush()
        return self.parts


def render_driver(parts, boxes, scalars=()):
    """Bind a driver template to one rank: ``boxes`` maps every compute
    step to the rank's iteration boxes, ``scalars`` are the bound
    compiled step's scalar names.  Returns ``(source, step_lines)``,
    byte for byte the text a per-rank generator would print."""
    lines, step_lines = [], {}
    for part in parts:
        kind = part[0]
        if kind == 'text':
            lines += part[1]
        elif kind == 'step':
            step_lines[part[1]] = (len(lines), len(lines) + len(part[2]))
            lines += part[2]
        elif kind == 'compute':
            _, sid, indent, head, body, tail = part
            first = len(lines)
            if boxes[sid]:
                lines += head
                for box in boxes[sid]:
                    lines.append('%s# cluster over %s' % (
                        indent, ' x '.join('[%d:%d)' % b for b in box)))
                    lines += _fill(body, box)
                lines += tail
            step_lines[sid] = (first, len(lines))
        else:  # 'bind'
            _, indent, rows = part
            lines.append('%s__B = __CS.bind(__A, __SP, __comm, (%s), (%s))'
                         % (indent, ''.join('%s, ' % s for s in scalars),
                            rows))
    return '\n'.join(lines) + '\n', step_lines


def _fill(body, box):
    """``body`` lines with every ```d,c``` slice placeholder
    replaced by ``c + lo : c + hi`` of ``box``'s dimension ``d``."""
    pieces = '\n'.join(body).split('`')
    for i in range(1, len(pieces), 2):
        d, c = pieces[i].split(',')
        lo, hi = box[int(d)]
        pieces[i] = '%d:%d' % (int(c) + lo, int(c) + hi)
    return ''.join(pieces).split('\n')


def bind_plan(program, boxes):
    """One rank's view of a :func:`~repro.ir.program.step_program`
    record: a compute section is dropped where its step has no
    iteration points (``boxes`` maps every compute step to this rank's
    boxes)."""
    def runs(sec):
        return sec['kind'] != 'compute' or bool(boxes[sec['step']])
    return dict(program, pre=[s for s in program['pre'] if runs(s)],
                loop=[s for s in program['loop'] if runs(s)])


def _emit_compiled_driver(em, schedule, has_pre, deferred, scalar_names,
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
    em.bind_call(''.join('__rows%d, ' % sid for sid in sorted(deferred)))
    em.emit("__step, __ref = __C['step'], __B.ref")
    if instrument:
        em.emit('__adv = __T.advanced')
    em.emit('try:')
    em.level += 1
    if has_pre:
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


def box_volume(box):
    return int(np.prod([max(e - b, 0) for b, e in box])) if box else 0


def _view_expr(func, time_shift):
    if time_shift is None:
        return func.name
    nb = function_nb(func)
    return '%s[(time + %d) %% %d]' % (func.name, time_shift, nb)


def _cluster_template(em, cluster):
    """The lines of one box of ``cluster`` (its label comment aside),
    with slice placeholders (:func:`_slice_index_printer`)."""
    printer = PyPrinter(index_printer=_slice_index_printer())
    indent = _INDENT * em.level
    lines = ['%s%s = %s' % (indent, temp.name, printer.doprint(rhs))
             for temp, rhs in cluster.temps]
    lines += ['%s%s = %s' % (indent, printer.doprint(eq.lhs),
                             printer.doprint(eq.rhs))
              for eq in cluster.eqs]
    return lines


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


def _emit_sparse(em, sid, step, parallel, deferred):
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
    elif parallel:
        # with no local point bincount returns int64 zeros: sum float64
        em.emit('__sd%d%s = __comm.allreduce(np.asarray(%s, '
                'dtype=np.float64))' % (sid, row, total))
    else:
        em.emit('__sd%d%s = %s' % (sid, row, total))


def _free_symbols(schedule):
    """``({name: Constant}, uses dt)`` over every expression the kernel
    evaluates (the apply-time scalars it reads)."""
    from ..dsl.function import Constant
    from ..symbolics import unique_nodes
    exprs = [rhs for _, rhs in schedule.scalar_assignments]
    for cluster in schedule.clusters:
        exprs.extend(rhs for _, rhs in cluster.temps)
        exprs.extend(eq.rhs for eq in cluster.eqs)
    exprs.extend(step.expr for step in schedule.steps if step.is_sparse)
    constants, uses_dt = {}, False
    for e in exprs:
        for node in unique_nodes(e):
            if isinstance(node, Constant):
                constants[node.name] = node
            if node.is_Symbol and node.name == 'dt':
                uses_dt = True
    return constants, uses_dt
