"""C code emission (the paper's generated-code surface, Listing 11).

Two emitters live here:

* :func:`generate_c` — the faithful *printer* of the full Devito-style
  translation unit (OpenMP pragmas, pseudo-MPI halo callables); tests
  validate it structurally, it is never compiled.
* :func:`generate_c_steps` — the *executable* emitter behind
  ``backend='c'``: one exported, *shape-generic* C function per cluster
  body over cache-blocked loop nests
  (:func:`~repro.ir.schedule.plan_blocking`), one function per sparse
  operation, and the runtime (:mod:`.cruntime`) whose exported
  ``repro_step(time, nrows, binding)`` runs one timestep — compute, halo
  spots over in-process channels, injection, interpolation, section
  timers, sanitizer hooks — from a per-rank op program.  Equations,
  space order, dtype and dimensionality are baked into the text;
  extents, strides, halo offsets, iteration boxes, neighbour tables and
  the op program itself arrive at run time (:mod:`.cstep`), so every
  rank of every decomposition and comm mode compiles (once) and loads
  the same object.  Arithmetic is printed with
  :class:`~repro.symbolics.CExecPrinter`, which mirrors NumPy's
  weak-scalar (NEP-50) promotion semantics so a compiled step agrees
  with the NumPy backend bitwise.
"""

from __future__ import annotations

from ..ir.program import step_program
from ..ir.schedule import plan_blocking
from ..symbolics import (CExecPrinter, CPrinter, Indexed, Symbol,
                         unique_nodes)
from .common import function_nb
from .cruntime import (KERNEL_MARK, RUNTIME_MARK, STEP_MARK, prelude_source,
                       runtime_source, table_source)

__all__ = ['generate_c', 'generate_c_steps']

_IND = '  '


class _CEmitter:
    def __init__(self):
        self.lines = []
        self.level = 0

    def emit(self, text=''):
        self.lines.append(_IND * self.level + text if text else '')

    def open_block(self, header):
        self.emit(header)
        self.emit('{')
        self.level += 1

    def close_block(self):
        self.level -= 1
        self.emit('}')

    def source(self):
        return '\n'.join(self.lines) + '\n'


def _time_var_names(schedule):
    """Map (shift, nbuffers) -> C variable name t0/t1/t2..."""
    pairs = []

    def note(func, shift):
        if shift is None or not getattr(func, 'is_TimeFunction', False):
            return
        key = (shift, function_nb(func))
        if key not in pairs:
            pairs.append(key)

    for cluster in schedule.clusters:
        for eq in cluster.eqs:
            note(eq.function, eq.write.time_shift)
            for acc in eq.reads:
                note(acc.function, acc.time_shift)
        for _, rhs in cluster.temps:
            from ..ir.lowered import accesses_of
            for acc in accesses_of(rhs):
                note(acc.function, acc.time_shift)
    pairs.sort(key=lambda p: (p[0] % p[1]))
    return {key: 't%d' % i for i, key in enumerate(pairs)}


def _align_expr(expr, tvars):
    """Rewrite accesses: halo-aligned space indices, named time buffers."""
    mapping = {}
    for node in unique_nodes(expr):
        if not (node.is_Indexed and getattr(node.base,
                                            'is_DiscreteFunction', False)):
            continue
        func = node.base
        halo = dict(zip(func.space_dimensions, func.halo))
        new_indices = []
        for dim, idx in zip(func.dimensions, node.indices):
            if dim.is_Time:
                from ..ir.lowered import parse_index
                shift = parse_index(idx, dim)
                new_indices.append(Symbol(tvars[(shift,
                                                 function_nb(func))]))
            else:
                new_indices.append(idx + halo[dim][0])
        mapping[node] = Indexed(func, *new_indices)
    return expr.xreplace(mapping)


def _params(schedule):
    names = sorted(f.name for f in schedule.functions if not f.is_Scratch)
    scalars = sorted({d.spacing.name for d in schedule.grid.dimensions})
    return names, scalars


def generate_c(schedule, name='Kernel', profiling='off', sanitizer=False):
    """Emit the complete C translation unit for ``schedule``.

    With ``profiling`` != 'off', the paper-style timer surface is added:
    a ``struct profiler`` with one ``double`` per named section, passed
    as the trailing kernel argument, and ``START``/``STOP`` brackets
    around every section (gettimeofday, as Devito's C backend emits).

    With ``sanitizer`` the poisoned-halo hooks are printed too:
    ``__san_poison*`` fills every neighbor-owned ghost cell with NAN and
    ``__san_check`` scans written DOMAIN regions after each section —
    mirroring what the executable NumPy backend actually runs in
    sanitizer mode (:mod:`repro.analysis.sanitizer`).

    Step order, section names and brackets, halo callables and
    sanitizer calls are printed from the timestep's record
    (:func:`~repro.ir.program.step_program`), cluster bodies from the
    schedule.
    """
    grid = schedule.grid
    printer = CPrinter()
    tvars = _time_var_names(schedule)
    em = _CEmitter()
    instrument = profiling != 'off'
    program = step_program(schedule, instrument, sanitizer)
    sanitize = program['sanitizer']
    sections = program['pre'] + program['loop']
    functions = {f.name: f for f in schedule.functions}
    widths = {ex['key']: ex['widths'] for ex in program['exchangers']}

    em.emit('#define _POSIX_C_SOURCE 200809L')
    em.emit('#include <stdlib.h>')
    em.emit('#include <math.h>')
    if schedule.mpi_mode:
        em.emit('#include "mpi.h"')
    em.emit('#include "omp.h"')
    if instrument:
        em.emit('#include <sys/time.h>')
        em.emit()
        em.emit('#define START(S) struct timeval start_ ## S , end_ ## S '
                '; gettimeofday(&start_ ## S , NULL);')
        em.emit('#define STOP(S,T) gettimeofday(&end_ ## S , NULL); '
                'T->S += (double)(end_ ## S .tv_sec '
                '- start_ ## S .tv_sec) '
                '+ (double)(end_ ## S .tv_usec '
                '- start_ ## S .tv_usec)/1000000;')
        em.emit()
        em.open_block('struct profiler')
        for sname in dict.fromkeys(sec['name'] for sec in sections
                                   if sec['name'] is not None):
            em.emit('double %s;' % sname)
        em.close_block()
        em.lines[-1] += ' ;'
    em.emit()

    def start(sname):
        if instrument:
            em.emit('START(%s)' % sname)

    def stop(sname):
        if instrument:
            em.emit('STOP(%s,timers)' % sname)

    fnames, scalars = _params(schedule)

    if sanitize:
        # the poisoned-halo sanitizer surface (runtime REPRO-E101/E103)
        em.open_block('static void __san_poison(float *restrict vec, '
                      'MPI_Comm comm, int t)')
        em.emit('/* fill every ghost box owned by an existing neighbor '
                '(rank != MPI_PROC_NULL) with NAN, full allocated halo '
                'depth; physical-boundary ghosts are left untouched */')
        em.emit('(void)vec; (void)comm; (void)t;')
        em.close_block()
        em.emit()
        em.open_block('static void __san_check(const float *restrict vec, '
                      'const char *section, int t)')
        em.emit('/* scan the DOMAIN region of the written buffer for NAN; '
                'a hit means a stencil consumed an unrefreshed ghost '
                'cell */')
        em.emit('/* if (isnan(...)) { fprintf(stderr, "poisoned-halo read '
                'in %s\\n", section); MPI_Abort(comm, 101); } */')
        em.emit('(void)vec; (void)section; (void)t;')
        em.close_block()
        em.emit()

    # halo-exchange callables: one per hoisted (preamble) exchanger,
    # then one per loop halo spot and function
    for ex in program['exchangers']:
        if ex['scope'] == 'preamble':
            _emit_halo_callable(em, schedule.mpi_mode, grid.dim,
                                '_' + ex['key'], ex['function'],
                                ex['widths'], False, ex['tag_base'],
                                timed=False)
    for sec in program['loop']:
        for op in sec['ops']:
            if op[0] in ('update', 'send'):
                uid = schedule.steps[sec['step']].uid
                _emit_halo_callable(em, schedule.mpi_mode, grid.dim,
                                    '%d_%s' % (uid, op[2]), op[2],
                                    widths[op[1]], op[0] == 'send',
                                    uid * 64, timed=True)

    # kernel signature
    args = ['float *restrict %s_vec' % n for n in fnames]
    args += ['const float %s' % s for s in scalars]
    args += ['const float dt', 'const int time_m', 'const int time_M']
    args += ['const int %s_m, const int %s_M' % (d.name, d.name)
             for d in grid.dimensions]
    if schedule.mpi_mode:
        args.append('MPI_Comm comm')
    if instrument:
        args.append('struct profiler * timers')
    em.open_block('int %s(%s)' % (name, ', '.join(args)))

    for temp, rhs in schedule.scalar_assignments:
        em.emit('float %s = %s;' % (temp.name, printer.doprint(rhs)))
    if schedule.scalar_assignments:
        em.emit()

    scratch = [f for f in schedule.functions if f.is_Scratch]
    if scratch:
        em.emit('/* scratch arrays: per-call storage over the grown '
                'domain, never exchanged */')
    for f in sorted(scratch, key=lambda f: f.name):
        em.emit('float *%s_vec = malloc(sizeof(float)%s);' % (f.name, ''.join(
            '*(%s_M - %s_m + %d)' % (d.name, d.name, 1 + hl + hr)
            for d, (hl, hr) in zip(grid.dimensions, f.halo))))
    if scratch:
        em.emit()

    for sec in program['pre']:
        sname = sec['name']
        if sec['kind'] == 'poison':
            for n in fnames:
                em.emit('__san_poison(%s_vec, comm, -1);' % n)
            em.emit()
            continue
        em.emit('/* begin %s (hoisted, time-invariant) */' % sname)
        start(sname)
        for _, _, fname, _ in sec['ops']:
            em.emit('haloupdate_pre_%s(%s_vec, comm);' % (fname, fname))
        stop(sname)
        em.emit('/* end %s */' % sname)

    # time loop with modulo buffer variables (Listing 11 style)
    inits = ', '.join('%s = (time + %d)%%(%d)' % (v, s, nb)
                      for (s, nb), v in tvars.items())
    steps = ', '.join('%s = (time + %d)%%(%d)' % (v, s, nb)
                      for (s, nb), v in tvars.items())
    header = ('for (int time = time_m%s; time <= time_M; time += 1%s)'
              % (', ' + inits if inits else '',
                 ', ' + steps if steps else ''))
    em.open_block(header)

    for sec in program['loop']:
        sname, kind = sec['name'], sec['kind']
        if kind == 'poison':
            em.emit('/* sanitizer: buffer rotation invalidated every '
                    'time-shifted halo */')
            for f in schedule.functions:
                if getattr(f, 'is_TimeFunction', False):
                    em.emit('__san_poison(%s_vec, comm, time);' % f.name)
            continue
        step = schedule.steps[sec['step']]
        em.emit('/* begin %s */' % sname)
        start(sname)
        if kind == 'compute':
            _emit_compute(em, schedule, step, printer, tvars)
        elif kind == 'sparse':
            _emit_sparse_c(em, step, printer, tvars)
        else:
            _emit_halo_spot(em, step.uid, sec['ops'], functions, tvars)
        for fname, _ in sec['writes']:
            em.emit('__san_check(%s_vec, "%s", time);' % (fname, sname))
        stop(sname)
        em.emit('/* end %s */' % sname)

    em.close_block()  # time loop
    for f in sorted(scratch, key=lambda f: f.name):
        em.emit('free(%s_vec);' % f.name)
    em.emit('return 0;')
    em.close_block()  # kernel
    return em.source()


def _emit_halo_spot(em, uid, ops, functions, tvars):
    """The calls of one halo spot's ops (update, send or recv)."""
    for op, _, fname, shift in ops:
        tvar = tvars.get((shift, function_nb(functions[fname])), 't0') \
            if shift is not None else ''
        if op == 'update':
            em.emit('haloupdate%d_%s(%s_vec, comm, %s);'
                    % (uid, fname, fname, tvar))
        elif op == 'send':
            em.emit('MPI_Request reqs%d_%s[%d];' % (uid, fname, 2 * 26))
            em.emit('halobegin%d_%s(%s_vec, comm, %s, reqs%d_%s);'
                    % (uid, fname, fname, tvar, uid, fname))
        else:
            em.emit('MPI_Waitall(%d, reqs%d_%s, MPI_STATUSES_IGNORE);'
                    % (2 * 26, uid, fname))
            em.emit('halounpack%d_%s(%s_vec, %s);'
                    % (uid, fname, fname, tvar))


def _emit_compute(em, schedule, step, printer, tvars):
    dist = schedule.grid.distributor
    dims = step.cluster.grid.dimensions
    if step.region == 'domain':
        boxes = [[('%s_m' % d.name, '%s_M' % d.name) for d in dims]]
    elif step.region == 'grown':
        em.emit('/* GROWN region: DOMAIN plus the readers\' reach */')
        boxes = [[('%s_m - %d' % (d.name, gl), '%s_M + %d' % (d.name, gr))
                  for d, (gl, gr) in zip(dims, step.grow)]]
    else:
        em.emit('/* %s region */' % step.region.upper())
        boxes = [[('%d' % lo, '%d' % (hi - 1)) for lo, hi in box]
                 for box in step.boxes(dist)]
    for bounds in boxes:
        for i, (dim, (lo, hi)) in enumerate(zip(dims, bounds)):
            if i == 0:
                em.emit('#pragma omp parallel for schedule(dynamic,1)')
            if i == len(dims) - 1:
                names = ','.join(sorted(f.name for f in
                                        step.cluster.functions))
                em.emit('#pragma omp simd aligned(%s:32)' % names)
            em.open_block('for (int %s = %s; %s <= %s; %s += 1)'
                          % (dim.name, lo, dim.name, hi, dim.name))
        for temp, rhs in step.cluster.temps:
            em.emit('float %s = %s;'
                    % (temp.name, printer.doprint(_align_expr(rhs, tvars))))
        for eq in step.cluster.eqs:
            em.emit('%s = %s;'
                    % (printer.doprint(_align_expr(eq.lhs, tvars)),
                       printer.doprint(_align_expr(eq.rhs, tvars))))
        for _ in dims:
            em.close_block()


def _emit_sparse_c(em, step, printer, tvars):
    sparse = step.op.sparse
    if step.kind == 'inject':
        em.open_block('for (int p = 0; p < %d; p += 1) /* inject %s */'
                      % (sparse.npoint, sparse.name))
        em.emit('/* multilinear scatter into %s (support-owner ranks '
                'only) */' % step.field_access.function.name)
        em.close_block()
    else:
        em.open_block('for (int p = 0; p < %d; p += 1) /* interpolate %s */'
                      % (sparse.npoint, sparse.name))
        em.emit('/* multilinear gather; partial sums reduced across '
                'sharing ranks */')
        em.close_block()


def _emit_halo_callable(em, mode, ndim, suffix, fname, widths, begin,
                        tag0, timed):
    """Emit one halo-exchange callable for function ``fname``, named
    ``halobegin<suffix>`` / ``haloupdate<suffix>``: the ``begin`` half
    of an overlapped exchange, or a blocking update.  Only a ``timed``
    callable takes a time index (a hoisted exchange's function has no
    time dimension)."""
    tparam, targ = (', int t', ', t') if timed else ('', '')
    if begin:
        header = ('static void halobegin%s(float *restrict %s_vec, '
                  'MPI_Comm comm%s, MPI_Request *reqs)'
                  % (suffix, fname, tparam))
    else:
        header = ('static void haloupdate%s(float *restrict %s_vec, '
                  'MPI_Comm comm%s)' % (suffix, fname, tparam))
    em.open_block(header)
    em.emit('int rank; MPI_Comm_rank(comm, &rank);')
    if mode == 'basic':
        em.emit('/* multi-step synchronous face exchanges: '
                '%d messages in %dD */' % (2 * ndim, ndim))
        for d, (wl, wr) in enumerate(widths):
            if not (wl or wr):
                continue
            em.emit('float *sendbuf%d = malloc(sizeof(float)*%d); '
                    '/* C-land runtime allocation */' % (d, max(wl, wr)))
            em.emit('MPI_Sendrecv(sendbuf%d, /*...*/ 1, MPI_FLOAT, '
                    'neighbor_pos[%d], %d, recvbuf%d, 1, MPI_FLOAT, '
                    'neighbor_neg[%d], %d, comm, MPI_STATUS_IGNORE);'
                    % (d, d, tag0 + d, d, d, tag0 + d))
            em.emit('MPI_Sendrecv(/* opposite direction */ sendbuf%d, 1, '
                    'MPI_FLOAT, neighbor_neg[%d], %d, recvbuf%d, 1, '
                    'MPI_FLOAT, neighbor_pos[%d], %d, comm, '
                    'MPI_STATUS_IGNORE);'
                    % (d, d, tag0 + d + 32, d, d, tag0 + d + 32))
            em.emit('free(sendbuf%d);' % d)
    else:
        nmsg = 3 ** ndim - 1
        em.emit('/* single-step neighborhood exchange incl. corners: '
                '%d messages in %dD; buffers preallocated in Python-land '
                '*/' % (nmsg, ndim))
        em.emit('int nreq = 0;')
        em.open_block('for (int n = 0; n < %d; n += 1)' % nmsg)
        em.emit('#pragma omp parallel for /* threaded pack */')
        em.emit('/* pack_halo(%s_vec, sendbufs[n], n%s); */'
                % (fname, targ))
        em.emit('MPI_Isend(sendbufs[n], counts[n], MPI_FLOAT, '
                'neighbors[n], tags[n], comm, &reqs[nreq++]);')
        em.emit('MPI_Irecv(recvbufs[n], counts[n], MPI_FLOAT, '
                'neighbors[n], rtags[n], comm, &reqs[nreq++]);')
        em.close_block()
        if not begin:
            em.emit('MPI_Waitall(nreq, reqs, MPI_STATUSES_IGNORE);')
            em.emit('#pragma omp parallel for /* threaded unpack */')
            em.emit('/* unpack_halo(%s_vec, recvbufs%s); */'
                    % (fname, targ))
    em.close_block()
    em.emit()
    if begin:
        em.open_block('static void halounpack%s(float *restrict %s_vec, '
                      'int t)' % (suffix, fname))
        em.emit('#pragma omp parallel for /* threaded unpack */')
        em.emit('/* unpack_halo(%s_vec, recvbufs, t); */' % fname)
        em.close_block()
        em.emit()


# -- the executable emitter (backend='c') ----------------------------------------


def _layout_classes(funcs):
    """``{field name: class index}`` and the distinct halos, in index
    order.  Fields with equal halos are allocated alike on every rank
    (:class:`repro.mpi.data.Data`: local shape plus halo, C order), so
    a kernel addresses them through one set of strides — the compiler
    then shares the row offsets of a many-field stencil as it did when
    they were literals (per-field strides nearly doubled the compile
    time of the eleven-field viscoelastic kernel)."""
    halos, index = [], {}
    for f in funcs:
        halo = tuple((int(hl), int(hr)) for hl, hr in f.halo)
        if halo not in halos:
            halos.append(halo)
        index[f.name] = halos.index(halo)
    return index, halos


def _flat_index_printer(tvars, used_tvars, classes):
    """CExecPrinter index callback: flattened pointer arithmetic.

    An access ``u[t+s, x+a, y+b]`` becomes
    ``u[t1*__c0_t + (x + a)*__c0_x + y + b + __c0_o]``: strides and
    halo offset are the ``long`` locals of the field's layout class
    (:func:`_emit_kernel` loads them from the geometry table) — never
    literals.  ``used_tvars`` collects the ``(shift, nbuffers)`` pairs
    the step consumes (they become its ``int`` arguments).
    """
    from ..ir.lowered import parse_index

    def index_printer(printer, indexed):
        func = indexed.base
        c = classes[func.name]
        terms = []
        for dim, idx in zip(func.dimensions, indexed.indices):
            off = parse_index(idx, dim)
            if dim.is_Time:
                key = (off, function_nb(func))
                used_tvars.add(key)
                terms.append('%s*__c%d_t' % (tvars[key], c))
                continue
            var = '%s %s %d' % (dim.name, '+-'[off < 0], abs(off)) \
                if off else dim.name
            if dim is func.dimensions[-1]:
                terms.append(var)
            else:
                terms.append('%s*__c%d_%s' % ('(%s)' % var if off else var,
                                              c, dim.name))
        return '%s[%s + __c%d_o]' % (func.name, ' + '.join(terms), c)

    return index_printer


def _scalar_assignment_kinds(schedule):
    """Runtime NumPy kind ('w' weak float / 's' strong np.float64) of
    every hoisted scalar temporary, mirroring what the driver's Python
    preamble actually produces (``np.*`` calls return np.float64)."""
    from fractions import Fraction

    from ..symbolics import AppliedFunction
    from ..symbolics.expr import Float, Integer, Rational

    kinds = {}

    def kind_of(e):
        if isinstance(e, AppliedFunction):
            return 's'
        if e.is_Pow:
            exp = e.exp
            if isinstance(exp, (Integer, Rational, Float)):
                frac = Fraction(abs(exp.value))
                if frac == Fraction(1, 2):
                    return 's' if kind_of(e.base) != 's' else 's'
                if frac.denominator == 1 and 1 <= frac.numerator <= 3:
                    return kind_of(e.base)
            return 's' if any(kind_of(a) == 's' for a in e.args) else 'w'
        if e.is_Symbol:
            return kinds.get(e.name, 'w')
        if e.args:
            return 's' if any(kind_of(a) == 's' for a in e.args) else 'w'
        return 'w'

    for temp, rhs in schedule.scalar_assignments:
        kinds[temp.name] = kind_of(rhs)
    return kinds


def _free_scalars(expr, skip):
    """Names of free scalar symbols of ``expr`` (array indices, which
    only hold dimension symbols, are excluded)."""
    out = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if e.is_Indexed or getattr(e, 'is_DiscreteFunction', False):
            continue
        if e.is_Symbol:
            if e.name not in skip:
                out.add(e.name)
            continue
        stack.extend(e.args)
    return out


def _emit_kernel(em, name, params, halos, dims, body_lines, parallel):
    """One shape-generic kernel, as two C functions over its geometry
    row ``__g = [nboxes, <class_geometry per layout class>, <lo, hi
    per box and dimension>]``: ``<name>_nest``, the plain loop nest over
    one tile, and the exported ``<name>``, which walks the boxes, cuts
    every dimension but the innermost into blocks
    (:func:`~repro.ir.schedule.plan_blocking`) with a run-time ``min``
    and calls the nest per tile.  Kept apart (``noinline``) because
    gcc's loop optimisers pay for depth: as one six-deep nest the 3-D
    acoustic SDO 8 kernel took 0.27 s to compile, split 0.20 s — what
    its baked one-nest source took.  Everything declared about geometry
    is ``__``-prefixed: :func:`~.common.validate_names` keeps user names
    (a buoyancy field ``b``, say) out of that namespace."""
    args = ['%s %s' % p for p in params] + ['const long *restrict __g']
    em.open_block('static void __attribute__((noinline)) %s_nest(%s)' % (
        name, ', '.join(args + ['const long __%s_%s' % (d.name, end)
                                for d in dims for end in ('lo', 'hi')])))
    locals_ = ['__c%d_%s' % (c, v) for c in range(len(halos))
               for v in [d.name for d in dims[:-1]] + ['t', 'o']]
    for i, local in enumerate(locals_):
        em.emit('const long %s = __g[%d];' % (local, i + 1))
    for dim in dims:
        if dim is dims[-1] and parallel:
            # with run-time strides gcc gives up on alias-versioning
            # the streaming loop (4x slower); the sweep is race-free
            em.emit('#pragma GCC ivdep')
        em.open_block('for (long {0} = __{0}_lo; {0} < __{0}_hi; {0} += 1)'
                      .format(dim.name))
    for line in body_lines:
        em.emit(line)
    for _ in range(len(dims) + 1):
        em.close_block()
    em.emit()

    em.open_block('void %s(%s)' % (name, ', '.join(args)))
    em.open_block('for (long __n = 0; __n < __g[0]; __n += 1)')
    em.emit('const long *__b = __g + %d + %d*__n;'
            % (len(locals_) + 1, 2 * len(dims)))
    tile = []
    for d, (dim, block) in enumerate(zip(dims, plan_blocking(len(dims)))):
        lo, hi = '__b[%d]' % (2 * d), '__b[%d]' % (2 * d + 1)
        if block is not None:
            var = dim.name + 'b'
            em.open_block('for (long {0} = {1}; {0} < {2}; {0} += {3})'
                          .format(var, lo, hi, block))
            lo, hi = var, '{0} + {1} < {2} ? {0} + {1} : {2}'.format(
                var, block, hi)
        tile += [lo, hi]
    em.emit('%s_nest(%s);' % (name, ', '.join(
        [pname for _, pname in params] + ['__g'] + tile)))
    for _ in range(len(dims) + 1):
        em.close_block()
    em.emit()


def generate_c_steps(schedule, dtype=None):
    """Emit the executable C source for ``schedule``.

    Returns ``(source, meta)``.  ``source`` is a sequence of translation
    units, split by the marks of :mod:`.cruntime`: a shared head, then
    one unit per cluster — a shape-generic kernel (see the module
    docstring for what is baked and what is bound); the step unit — a
    thunk per kernel that reads its operands from the binding, one
    function per sparse operation and the function table; and the
    runtime (:mod:`.cruntime`) with the exported ``repro_step(time,
    nrows, binding)`` that runs one timestep's op program.  Nothing in
    it depends on the comm mode, the decomposition or the rank: the op
    program and everything it points at are run-time data
    (:mod:`.cstep`).

    ``meta`` describes what the source offers, by schedule step index,
    for every rank alike::

        {sid: {'name': 'k<n>' | '__sp<n>',   # the C function
               'fn': <its entry in the step's function table>,
               'fields': [...], 'scalars': [...],   # operands, in order
               'halos': [layout-class halos]}}

    A rank binds it (:func:`~repro.codegen.cstep.bind_meta`): a compute
    step's geometry row is its layout classes and iteration boxes on
    that rank, and a step without iteration points there is skipped.
    Dense fields are raw float/double pointers, every scalar a
    ``double`` (weak-scalar semantics keep pure-scalar math in double —
    see :class:`~repro.symbolics.CExecPrinter`), time-buffer indices
    Python's floor modulo of ``time``.
    """
    grid = schedule.grid
    if dtype is None:
        dtype = grid.dtype
    import numpy as np
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError("compiled backend supports float32/float64 "
                         "grids, not %s" % dtype)
    for cl in schedule.clusters:
        for f in cl.functions:
            if np.dtype(f.dtype) != dtype:
                raise ValueError(
                    "compiled backend needs a uniform kernel dtype; "
                    "%s is %s on a %s grid"
                    % (f.name, np.dtype(f.dtype), dtype))
    single = dtype == np.dtype(np.float32)
    ctype = 'float' if single else 'double'
    tvars = _time_var_names(schedule)
    scalar_kinds = _scalar_assignment_kinds(schedule)

    head = ('/* repro compiled backend: one shape-generic function per '
            'cluster; strict IEEE */\n#include <math.h>\n')
    # the step unit: thunks reading the kernels' operands from the
    # binding, the sparse functions, the function table
    glue = _CEmitter()
    glue.lines += prelude_source(ctype).splitlines()
    glue.emit()

    kernels = {}  # (cluster, parallel) -> its steps' shared metadata
    units = []
    fns = []
    meta = {}
    for sid, step in enumerate(schedule.steps):
        if not step.is_compute:
            continue
        key = (id(step.cluster), bool(step.parallel))
        if key not in kernels:
            em = _CEmitter()
            kernels[key] = _print_kernel(
                em, glue, 'k%d' % len(kernels), len(fns), step.cluster,
                key[1], ctype, dtype, tvars, scalar_kinds)
            units.append(em.source())
            fns.append('__call_k%d' % (len(kernels) - 1))
        fn, halos, fields, scalars = kernels[key]
        meta[sid] = {'name': fns[fn][len('__call_'):], 'fn': fn,
                     'fields': fields, 'scalars': scalars, 'halos': halos}
    libm = False
    for sid, step in enumerate(schedule.steps):
        if step.is_sparse:
            name = '__sp%d' % (len(fns) - len(kernels))
            fields, scalars, halos, uses = _print_sparse(
                glue, name, step, ctype, dtype, scalar_kinds)
            libm = libm or uses
            meta[sid] = {'name': name, 'fn': len(fns), 'fields': fields,
                         'scalars': scalars, 'halos': halos}
            fns.append(name)
    glue.lines += table_source(fns).splitlines()
    if libm:
        glue.lines.insert(0, '#include <math.h>')
    return (head + ''.join(KERNEL_MARK + u for u in units) + STEP_MARK
            + glue.source() + RUNTIME_MARK + runtime_source(ctype)), meta


def _print_kernel(em, glue, name, fn, cluster, parallel, ctype, dtype,
                  tvars, scalar_kinds):
    """Print ``cluster`` as the C function ``name`` and, into ``glue``,
    its prototype and thunk ``__call_<name>`` (entry ``fn`` of the
    step's function table).  Returns ``(fn, layout-class halos, field
    names, scalar names)``: the thunk's operands, in the order its
    argument record lists their binding slots after the geometry
    row."""
    funcs = sorted(cluster.functions, key=lambda f: f.name)
    classes, halos = _layout_classes(funcs)
    temps = [t.name for t, _ in cluster.temps]
    scalars = set()
    for _, rhs in cluster.temps:
        scalars |= _free_scalars(rhs, temps)
    for eq in cluster.eqs:
        scalars |= _free_scalars(eq.rhs, temps)
    scalars = sorted(scalars)

    used_tvars = set()
    printer = CExecPrinter(
        _flat_index_printer(tvars, used_tvars, classes), dtype=str(dtype),
        symbol_kinds={s: scalar_kinds.get(s, 'w') for s in scalars})
    body_lines = []
    for temp, rhs in cluster.temps:
        text, kind = printer.doprint_kinded(rhs)
        decl = ctype if kind == 'A' else 'double'
        body_lines.append('const %s %s = %s;' % (decl, temp.name, text))
        printer.symbol_kinds[temp.name] = kind
    for eq in cluster.eqs:
        lhs_text = printer.doprint(eq.lhs)
        body_lines.append('%s = %s;' % (lhs_text, printer.doprint(eq.rhs)))

    targs = sorted(used_tvars, key=lambda k: tvars[k])
    params = [('%s *restrict' % ctype, f.name) for f in funcs]
    params += [('const double', s) for s in scalars]
    params += [('const int', tvars[k]) for k in targs]
    _emit_kernel(em, name, params, halos, cluster.grid.dimensions,
                 body_lines, parallel)

    operands = ['(%s *)__b->ptrs[__a[%d]]' % (ctype, i + 1)
                for i in range(len(funcs))]
    operands += ['__b->scalars[__a[%d]]' % (i + 1 + len(funcs))
                 for i in range(len(scalars))]
    operands += ['(int)__rp_mod(time + %d, %d)' % k for k in targs]
    glue.emit('extern void %s(%s);' % (name, ', '.join(
        ['%s %s' % p for p in params] + ['const long *restrict __g'])))
    glue.open_block('static int __call_%s(__rp_binding *__b, '
                    'const long *__a, long time, long __nrows)' % name)
    glue.emit('(void)__nrows;')
    glue.emit('%s(%s);' % (name, ', '.join(operands
                                           + ['__b->geom + __a[0]'])))
    glue.emit('return 0;')
    glue.close_block()
    glue.emit()
    return fn, halos, [f.name for f in funcs], scalars


class _SparseExecPrinter(CExecPrinter):
    """CExecPrinter that also resolves the sparse function's own atom:
    its value at the contribution's point (and, for a time series, at
    the current row, which the function pre-offsets ``__sd`` to)."""

    def __init__(self, sparse, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sparse = sparse
        #: whether the expression calls libm (only then does the unit
        #: include math.h: parsing it costs 0.01-0.03 s)
        self.libm = False

    def _call_math(self, stem, args):
        self.libm = True
        return super()._call_math(stem, args)

    def _printk(self, expr):
        if getattr(expr, 'is_SparseFunction', False):
            if expr.name != self.sparse.name:
                raise ValueError("sparse expr references foreign sparse "
                                 "function %s" % expr.name)
            return '__sd[__p]', 'A'
        return super()._printk(expr)


def _print_sparse(em, name, step, ctype, dtype, scalar_kinds):
    """Print one sparse operation as ``name``: a loop over this rank's
    contributions in plan order, with the dimension variables bound to
    the contribution's local grid point.  Injection adds ``w * expr``
    into the field element by element, as ``np.add.at`` does;
    interpolation adds it, widened to double, into a float64 row per
    point, as ``np.bincount`` does, and then either casts the row into
    the sparse data (mode 1, serial) or leaves it in the pending block
    (mode 2).  Returns ``(fields, scalars, layout-class halos, whether
    it calls libm)``."""
    from ..ir.lowered import accesses_of
    sparse = step.op.sparse
    dims = list(sparse.grid.dimensions)
    funcs = {acc.function.name: acc.function for acc in accesses_of(step.expr)}
    if step.field_access is not None:
        funcs[step.field_access.function.name] = step.field_access.function
    funcs = [funcs[k] for k in sorted(funcs)]
    classes, halos = _layout_classes(funcs)
    scalars = sorted(_free_scalars(step.expr, ()))
    tkeys = set()
    for acc in accesses_of(step.expr):
        if acc.time_shift is not None and acc.function.is_TimeFunction:
            tkeys.add((acc.time_shift, function_nb(acc.function)))
    target = step.field_access
    if target is not None and target.time_shift is not None:
        tkeys.add((target.time_shift, function_nb(target.function)))
    tvars = {key: '__tv%d' % i for i, key in enumerate(sorted(tkeys))}
    printer = _SparseExecPrinter(
        sparse, _flat_index_printer(tvars, set(), classes),
        dtype=str(dtype), symbol_kinds={s: scalar_kinds.get(s, 'w')
                                        for s in scalars})
    text, kind = printer.doprint_kinded(step.expr)
    value, _ = printer._combine('__w[__k]', 'A', '(%s)' % text, kind, '*')

    nd = len(dims)
    # -O1 in a unit compiled at -O0: the gather/scatter loops run
    # 2.5x faster, and do not vectorise (-O3 only costs compile time)
    em.open_block('static int __attribute__((optimize("O1"))) '
                  '%s(__rp_binding *__b, const long *__a, long time, '
                  'long __nrows)' % name)
    em.emit('const long *__g = __b->geom + __a[0];')
    for c in range(len(halos)):
        for i, v in enumerate([d.name for d in dims[:-1]] + ['t', 'o']):
            em.emit('const long __c%d_%s = __g[%d];'
                    % (c, v, 1 + c * (len(dims) + 1) + i))
    em.emit('const long __n = __a[1];')
    em.emit('const long *__pid = (const long *)__b->ptrs[__a[2]];')
    em.emit('const %s *__w = (const %s *)__b->ptrs[__a[3]];' % (ctype, ctype))
    for d in range(nd):
        em.emit('const long *__i%d = (const long *)__b->ptrs[__a[%d]];'
                % (d, 4 + d))
    em.emit('%s *__sd = (%s *)__b->ptrs[__a[%d]];' % (ctype, ctype, 4 + nd))
    em.emit('const long __np = __a[%d], __nt = __a[%d], __mode = __a[%d];'
            % (5 + nd, 6 + nd, 7 + nd))
    for i, f in enumerate(funcs):
        em.emit('%s *restrict %s = (%s *)__b->ptrs[__a[%d]];'
                % (ctype, f.name, ctype, 9 + nd + i))
    for i, sname in enumerate(scalars):
        em.emit('const double %s = __b->scalars[__a[%d]];'
                % (sname, 9 + nd + len(funcs) + i))
    for (shift, nb), var in sorted(tvars.items(), key=lambda kv: kv[1]):
        em.emit('const long %s = __rp_mod(time + %d, %d);' % (var, shift, nb))
    em.open_block('if (__nt)')
    em.open_block('if (time < 0 || time >= __nt)')
    em.emit('__b->err[0] = time;')
    em.emit('return 4;')
    em.close_block()
    em.emit('__sd += time*__np;')
    em.close_block()
    if step.kind == 'inject':
        f = target.function
        c = classes[f.name]
        terms = []
        if target.time_shift is not None and f.is_TimeFunction:
            terms.append('%s*__c%d_t' % (
                tvars[(target.time_shift, function_nb(f))], c))
        for dim in dims[:-1]:
            terms.append('%s*__c%d_%s' % (dim.name, c, dim.name))
        terms.append(dims[-1].name)
        lhs = '%s[%s + __c%d_o]' % (f.name, ' + '.join(terms), c)
        em.emit('(void)__mode; (void)__nrows; (void)__np;')
    else:
        em.emit('double *__r = (double *)__b->ptrs[__a[%d]] + '
                '(__mode == 2 && __nt ? __nrows*__np : 0);' % (8 + nd))
        em.emit('for (long __p = 0; __p < __np; __p += 1) __r[__p] = 0.0;')
    em.open_block('for (long __k = 0; __k < __n; __k += 1)')
    em.emit('const long __p = __pid[__k];')
    for d, dim in enumerate(dims):
        em.emit('const long %s = __i%d[__k];' % (dim.name, d))
    if step.kind == 'inject':
        em.emit('%s = %s + %s;' % (lhs, lhs, value))
    else:
        em.emit('__r[__p] += %s;' % value)
    em.close_block()
    if step.kind != 'inject':
        em.open_block('if (__mode == 1)')
        em.emit('for (long __p = 0; __p < __np; __p += 1) '
                '__sd[__p] = (%s)__r[__p];' % ctype)
        em.close_block()
    em.emit('return 0;')
    em.close_block()
    em.emit()
    return [f.name for f in funcs], scalars, halos, printer.libm
