"""C code emission (the paper's generated-code surface, Listing 11).

Two emitters live here:

* :func:`generate_c` — the faithful *printer* of the full Devito-style
  translation unit (OpenMP pragmas, pseudo-MPI halo callables); tests
  validate it structurally, it is never compiled.
* :func:`generate_c_steps` — the *executable* emitter behind
  ``backend='c'``: one exported, *shape-generic* C function per cluster
  body over cache-blocked loop nests
  (:func:`~repro.ir.schedule.plan_blocking`).  Equations, space order,
  dtype and dimensionality are baked into the text; extents, strides,
  halo offsets and iteration boxes arrive at run time in a per-rank
  geometry table, so every rank of every decomposition compiles (once)
  and loads the same object.
  Halo exchanges, sparse scatter/gather, profiling, sanitizer and
  resilience hooks stay in the Python driver — only the hot loops move
  to C, so all three comm modes, certificates and fault machinery work
  unchanged.  Arithmetic is printed with
  :class:`~repro.symbolics.CExecPrinter`, which mirrors NumPy's
  weak-scalar (NEP-50) promotion semantics so a compiled step can agree
  with the NumPy backend bitwise.
"""

from __future__ import annotations

from ..ir.schedule import plan_blocking
from ..mpi import core_region, remainder_regions
from ..profiling import assign_section_names
from ..symbolics import (CExecPrinter, CPrinter, Indexed, Symbol,
                         unique_nodes)
from .common import cluster_union_widths, function_nb

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
    names = sorted(f.name for f in schedule.functions)
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
    """
    grid = schedule.grid
    dist = grid.distributor
    printer = CPrinter()
    tvars = _time_var_names(schedule)
    em = _CEmitter()
    instrument = profiling != 'off'
    sanitize = bool(sanitizer and schedule.mpi_mode)
    preamble_names, step_names = assign_section_names(schedule)

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
        seen = []
        for sname in preamble_names + step_names:
            if sname not in seen:
                seen.append(sname)
        em.open_block('struct profiler')
        for sname in seen:
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

    # halo-exchange callables
    halo_ids = []
    for step in schedule.steps:
        if step.is_halo and step.kind in ('update', 'begin'):
            for req in step.exchanges:
                halo_ids.append((step.uid, req, step.kind))
    for uid, req, kind in halo_ids:
        _emit_halo_callable(em, schedule, uid, req, kind)

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

    for _, rhs in schedule.scalar_assignments:
        pass  # emitted below with names
    for temp, rhs in schedule.scalar_assignments:
        em.emit('float %s = %s;' % (temp.name, printer.doprint(rhs)))
    if schedule.scalar_assignments:
        em.emit()

    if sanitize:
        for n in fnames:
            em.emit('__san_poison(%s_vec, comm, -1);' % n)
        em.emit()

    for req, sname in zip(schedule.preamble_halo, preamble_names):
        em.emit('/* begin %s (hoisted, time-invariant) */' % sname)
        start(sname)
        em.emit('haloupdate_pre_%s(%s_vec, comm);'
                % (req.function.name, req.function.name))
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

    if sanitize:
        em.emit('/* sanitizer: buffer rotation invalidated every '
                'time-shifted halo */')
        for f in schedule.functions:
            if getattr(f, 'is_TimeFunction', False):
                em.emit('__san_poison(%s_vec, comm, time);' % f.name)

    def _san_check_writes(keys):
        for fname, tshift in sorted(keys, key=lambda k: (k[0], k[1] or 0)):
            em.emit('__san_check(%s_vec, "%s", time);' % (fname, sname))

    for step, sname in zip(schedule.steps, step_names):
        em.emit('/* begin %s */' % sname)
        start(sname)
        if step.is_halo:
            for req in step.exchanges:
                tvar = tvars.get((req.time_shift,
                                  function_nb(req.function)),
                                 't0') if req.time_shift is not None else ''
                fname = req.function.name
                if step.kind == 'update':
                    em.emit('haloupdate%d_%s(%s_vec, comm, %s);'
                            % (step.uid, fname, fname, tvar))
                elif step.kind == 'begin':
                    em.emit('MPI_Request reqs%d_%s[%d];'
                            % (step.uid, fname, 2 * 26))
                    em.emit('halobegin%d_%s(%s_vec, comm, %s, reqs%d_%s);'
                            % (step.uid, fname, fname, tvar, step.uid,
                               fname))
                else:
                    em.emit('MPI_Waitall(%d, reqs%d_%s, MPI_STATUSES_IGNORE);'
                            % (2 * 26, step.uid, fname))
                    em.emit('halounpack%d_%s(%s_vec, %s);'
                            % (step.uid, fname, fname, tvar))
        elif step.is_compute:
            _emit_compute(em, schedule, step, printer, tvars)
            if sanitize:
                _san_check_writes(step.cluster.write_keys)
        else:
            _emit_sparse_c(em, step, printer, tvars)
            if sanitize and step.field_access is not None:
                _san_check_writes([step.field_access.key])
        stop(sname)
        em.emit('/* end %s */' % sname)

    em.close_block()  # time loop
    em.emit('return 0;')
    em.close_block()  # kernel
    return em.source()


def _region_bounds_c(step, dist):
    """Loop bounds per dimension for a compute step (C emission)."""
    dims = step.cluster.grid.dimensions
    if step.region == 'domain':
        return [[(('%s_m' % d.name), ('%s_M' % d.name)) for d in dims]]
    widths = cluster_union_widths(step.cluster)
    if step.region == 'core':
        core = core_region(dist, widths)
        return [[('%d' % lo, '%d' % (hi - 1)) for lo, hi in core]]
    boxes = remainder_regions(dist, widths)
    return [[('%d' % lo, '%d' % (hi - 1)) for lo, hi in box]
            for box in boxes]


def _emit_compute(em, schedule, step, printer, tvars):
    dist = schedule.grid.distributor
    dims = step.cluster.grid.dimensions
    if step.region != 'domain':
        em.emit('/* %s region */' % step.region.upper())
    for bounds in _region_bounds_c(step, dist):
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


def _emit_halo_callable(em, schedule, uid, req, kind):
    """Emit one halo-exchange callable for function ``req.function``."""
    fname = req.function.name
    mode = schedule.mpi_mode
    ndim = schedule.grid.dim
    if kind == 'begin':
        header = ('static void halobegin%d_%s(float *restrict %s_vec, '
                  'MPI_Comm comm, int t, MPI_Request *reqs)'
                  % (uid, fname, fname))
    else:
        header = ('static void haloupdate%d_%s(float *restrict %s_vec, '
                  'MPI_Comm comm, int t)' % (uid, fname, fname))
    em.open_block(header)
    em.emit('int rank; MPI_Comm_rank(comm, &rank);')
    if mode == 'basic':
        em.emit('/* multi-step synchronous face exchanges: '
                '%d messages in %dD */' % (2 * ndim, ndim))
        for d, (wl, wr) in enumerate(req.widths):
            if not (wl or wr):
                continue
            em.emit('float *sendbuf%d = malloc(sizeof(float)*%d); '
                    '/* C-land runtime allocation */' % (d, max(wl, wr)))
            em.emit('MPI_Sendrecv(sendbuf%d, /*...*/ 1, MPI_FLOAT, '
                    'neighbor_pos[%d], %d, recvbuf%d, 1, MPI_FLOAT, '
                    'neighbor_neg[%d], %d, comm, MPI_STATUS_IGNORE);'
                    % (d, d, uid * 64 + d, d, d, uid * 64 + d))
            em.emit('MPI_Sendrecv(/* opposite direction */ sendbuf%d, 1, '
                    'MPI_FLOAT, neighbor_neg[%d], %d, recvbuf%d, 1, '
                    'MPI_FLOAT, neighbor_pos[%d], %d, comm, '
                    'MPI_STATUS_IGNORE);'
                    % (d, d, uid * 64 + d + 32, d, d, uid * 64 + d + 32))
            em.emit('free(sendbuf%d);' % d)
    else:
        nmsg = 3 ** ndim - 1
        em.emit('/* single-step neighborhood exchange incl. corners: '
                '%d messages in %dD; buffers preallocated in Python-land '
                '*/' % (nmsg, ndim))
        em.emit('int nreq = 0;')
        em.open_block('for (int n = 0; n < %d; n += 1)' % nmsg)
        em.emit('#pragma omp parallel for /* threaded pack */')
        em.emit('/* pack_halo(%s_vec, sendbufs[n], n, t); */' % fname)
        em.emit('MPI_Isend(sendbufs[n], counts[n], MPI_FLOAT, '
                'neighbors[n], tags[n], comm, &reqs[nreq++]);')
        em.emit('MPI_Irecv(recvbufs[n], counts[n], MPI_FLOAT, '
                'neighbors[n], rtags[n], comm, &reqs[nreq++]);')
        em.close_block()
        if kind != 'begin':
            em.emit('MPI_Waitall(nreq, reqs, MPI_STATUSES_IGNORE);')
            em.emit('#pragma omp parallel for /* threaded unpack */')
            em.emit('/* unpack_halo(%s_vec, recvbufs, t); */' % fname)
    em.close_block()
    em.emit()
    if kind == 'begin':
        em.open_block('static void halounpack%d_%s(float *restrict %s_vec, '
                      'int t)' % (uid, fname, fname))
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


def _class_geometry(halo, shape_local):
    """One layout class's values on this rank, in geometry-table order:
    the stride of a step along each dimension but the unit-stride last
    one, the time-buffer stride, the folded halo offset.  Must match
    the ``Data`` allocation exactly, since the compiled step indexes
    the NumPy buffer through a raw pointer."""
    shape = [int(n) + hl + hr for n, (hl, hr) in zip(shape_local, halo)]
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return strides[:-1] + [strides[0] * shape[0], sum(
        hl * s for (hl, _), s in zip(halo, strides))]


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


def _step_boxes(step, dist):
    """Iteration boxes of one compute step on this rank (same geometry
    as the NumPy backend's ``_region_boxes``)."""
    if step.region == 'domain':
        return [tuple((0, int(n)) for n in dist.shape_local)]
    widths = cluster_union_widths(step.cluster)
    if step.region == 'core':
        boxes = [core_region(dist, widths)]
    else:
        boxes = remainder_regions(dist, widths)
    return [tuple((int(lo), int(hi)) for lo, hi in box)
            for box in boxes if all(hi > lo for lo, hi in box)]


def _emit_kernel(em, name, params, halos, dims, body_lines, parallel):
    """One shape-generic kernel, as two C functions over its geometry
    row ``__g = [nboxes, <_class_geometry per layout class>, <lo, hi
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
    """Emit the executable C translation unit for ``schedule``.

    Returns ``(source, steps)``: the shape-generic ``source`` (one
    function per cluster; see the module docstring for what is baked
    and what is bound) and this rank's binding of it, by compute step
    schedule index::

        {'name': 'k<n>',                        # exported C symbol
         'sig':  ['p3', 'd', 'i', ..., 'g'],    # ctypes binding codes
         'call': ['u', 'r0', '(time + 1) % 2', ..., '__G[<sid>]'],
         'geom': [nboxes, strides..., lo, hi, ...]}   # __G[<sid>]

    Dense fields are passed as raw float/double pointers (the driver
    hands the NumPy arrays straight to ctypes), every scalar as a
    ``double`` (weak-scalar semantics keep pure-scalar math in double —
    see :class:`~repro.symbolics.CExecPrinter`), modulo time-buffer
    indices as ``int`` and the step's geometry row last.  Steps without
    iteration points on this rank get no entry (the driver skips them).
    """
    grid = schedule.grid
    dist = grid.distributor
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

    em = _CEmitter()
    em.emit('/* repro compiled backend: one shape-generic function per '
            'cluster; strict IEEE */')
    em.emit('#include <math.h>')
    em.emit()

    kernels = {}  # (cluster, parallel) -> its steps' shared metadata
    steps = {}
    for sid, step in enumerate(schedule.steps):
        if not step.is_compute:
            continue
        key = (id(step.cluster), bool(step.parallel))
        if key not in kernels:
            kernels[key] = _print_kernel(
                em, 'k%d' % len(kernels), step.cluster, key[1], ctype,
                dtype, tvars, scalar_kinds)
        boxes = _step_boxes(step, dist)
        if boxes:
            name, halos, sig, call = kernels[key]
            geom = [len(boxes)]
            for halo in halos:
                geom += _class_geometry(halo, dist.shape_local)
            geom += [bound for box in boxes for lohi in box for bound in lohi]
            steps[sid] = {'name': name, 'sig': sig, 'geom': geom,
                          'call': call + ['__G[%d]' % sid]}
    return em.source(), steps


def _print_kernel(em, name, cluster, parallel, ctype, dtype, tvars,
                  scalar_kinds):
    """Print ``cluster`` as the C function ``name``; returns ``(name,
    layout-class halos, ctypes codes, driver operands)`` — the last two
    without the geometry row."""
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

    sig = ['p%d' % len(f.dimensions) for f in funcs]
    sig += ['d'] * len(scalars) + ['i'] * len(targs) + ['g']
    call = [f.name for f in funcs] + list(scalars)
    call += ['(time + %d) %% %d' % (shift, nb) for shift, nb in targs]
    return name, halos, sig, call
