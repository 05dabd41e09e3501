"""C code emission: one printer of cluster bodies, in two frames.

:func:`generate_c_steps` is the *executable* emitter behind
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

:func:`generate_c` prints the same timestep in the shape of the
paper's Listing 11 (``op.ccode``; never compiled).  Its cluster bodies
(:func:`_print_body`) and sparse contributions
(:func:`_sparse_statement`) are the compiled step's statements, with
subscripts (``u[t1][2 + x][2 + y]``) for its flattened accesses.
"""

from __future__ import annotations

import numpy as np

from ..analysis.certificate import bind_certificate
from ..ir.lowered import accesses_of, parse_index
from ..ir.program import step_program
from ..ir.schedule import plan_blocking, region_boxes
from ..symbolics import CExecPrinter, CPrinter
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
            for acc in accesses_of(rhs):
                note(acc.function, acc.time_shift)
    pairs.sort(key=lambda p: (p[0] % p[1]))
    return {key: 't%d' % i for i, key in enumerate(pairs)}


def _ctype(dtype):
    """The C element type of a float32/float64 kernel."""
    if np.dtype(dtype) not in (np.float32, np.float64):
        raise ValueError("C code supports float32/float64 grids, not %s"
                         % np.dtype(dtype))
    return 'float' if np.dtype(dtype) == np.float32 else 'double'


def _subscript_index_printer(tvars):
    """CExecPrinter index callback of the listing: ``u[t1][2 + x][2 +
    y]``, each space index shifted by the function's left halo (access
    alignment, paper Section III-d) and each time index a buffer
    variable of the loop frame — or, for a buffer no cluster touches,
    its modulo expression."""
    def index_printer(printer, indexed):
        func = indexed.base
        halo = dict(zip(func.space_dimensions, func.halo))
        parts = []
        for dim, idx in zip(func.dimensions, indexed.indices):
            off = parse_index(idx, dim)
            if dim.is_Time:
                key = (off, function_nb(func))
                parts.append(tvars.get(key, '(time + %d)%%(%d)' % key))
            else:
                off += halo[dim][0]
                parts.append('%d + %s' % (off, dim.name) if off
                             else dim.name)
        return func.name + ''.join('[%s]' % p for p in parts)

    return index_printer


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

    Everything but the frame is read from the timestep's record
    (:func:`~repro.ir.program.step_program`) and printed as it runs:
    cluster bodies and sparse contributions through the compiled step's
    printer (module docstring), array types in the grid's dtype, one
    halo callable per exchanger with that exchanger's tags, and the
    CORE/REMAINDER boxes of the schedule's own rank.
    """
    grid = schedule.grid
    ctype = _ctype(grid.dtype)
    mpitype = 'MPI_FLOAT' if ctype == 'float' else 'MPI_DOUBLE'
    tvars = _time_var_names(schedule)
    scalar_kinds = _scalar_assignment_kinds(schedule)
    index_printer = _subscript_index_printer(tvars)
    em = _CEmitter()
    instrument = profiling != 'off'
    program = step_program(schedule, instrument, sanitizer)
    sanitize = program['sanitizer']
    sections = program['pre'] + program['loop']
    functions = {f.name: f for f in schedule.functions}
    dims = grid.dimensions

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

    fnames = sorted(f.name for f in schedule.functions if not f.is_Scratch)
    scalars = sorted({d.spacing.name for d in dims})

    if sanitize:
        # the poisoned-halo sanitizer surface (runtime REPRO-E101/E103)
        em.open_block('static void __san_poison(%s *restrict vec, '
                      'MPI_Comm comm, int t)' % ctype)
        em.emit('/* fill every ghost box owned by an existing neighbor '
                '(rank != MPI_PROC_NULL) with NAN, full allocated halo '
                'depth; physical-boundary ghosts are left untouched */')
        em.emit('(void)vec; (void)comm; (void)t;')
        em.close_block()
        em.emit()
        em.open_block('static void __san_check(const %s *restrict vec, '
                      'const char *section, int t)' % ctype)
        em.emit('/* scan the DOMAIN region of the written buffer for NAN; '
                'a hit means a stencil consumed an unrefreshed ghost '
                'cell */')
        em.emit('/* if (isnan(...)) { fprintf(stderr, "poisoned-halo read '
                'in %s\\n", section); MPI_Abort(comm, 101); } */')
        em.emit('(void)vec; (void)section; (void)t;')
        em.close_block()
        em.emit()

    # halo-exchange callables: one per exchanger of the record; a loop
    # exchanger's op says whether it is split (begin/wait) and timed,
    # this rank's certificate how many messages it sends
    spots = {op[1]: op for sec in program['loop'] for op in sec['ops']
             if op[0] in ('update', 'send')}
    sends = {entry.key: len(entry.messages) for entry in
             bind_certificate(program, grid.distributor).entries}
    for ex in program['exchangers']:
        op = spots.get(ex['key'])
        _emit_halo_callable(em, schedule.mpi_mode, ctype, mpitype, ex,
                            sends[ex['key']],
                            begin=op is not None and op[0] == 'send',
                            timed=op is not None and op[3] is not None)

    # kernel signature
    args = ['%s *restrict %s_vec' % (ctype, n) for n in fnames]
    args += ['const %s %s' % (ctype, s) for s in scalars + ['dt']]
    args += ['const int time_m', 'const int time_M']
    args += ['const int %s_m, const int %s_M' % (d.name, d.name)
             for d in dims]
    if schedule.mpi_mode:
        args.append('MPI_Comm comm')
    if instrument:
        args.append('struct profiler * timers')
    em.open_block('int %s(%s)' % (name, ', '.join(args)))

    printer = CPrinter(single=ctype == 'float')
    for temp, rhs in schedule.scalar_assignments:
        em.emit('%s %s = %s;' % (ctype, temp.name, printer.doprint(rhs)))
    if schedule.scalar_assignments:
        em.emit()

    scratch = sorted((f for f in schedule.functions if f.is_Scratch),
                     key=lambda f: f.name)
    if scratch:
        em.emit('/* scratch arrays: per-call storage over the grown '
                'domain, never exchanged */')
        for f in scratch:
            em.emit('%s *%s_vec = malloc(sizeof(%s)%s);' % (
                ctype, f.name, ctype, ''.join(
                    '*(%s_M - %s_m + %d)' % (d.name, d.name, 1 + hl + hr)
                    for d, (hl, hr) in zip(dims, f.halo))))
        em.emit()

    def section(sec):
        sname = sec['name']
        em.emit('/* begin %s%s */' % (
            sname, '' if sec['step'] is not None else
            ' (hoisted, time-invariant)'))
        if instrument:
            em.emit('START(%s)' % sname)
        if sec['kind'] == 'compute':
            cluster = schedule.steps[sec['step']].cluster
            _emit_compute(em, sec, cluster, grid.distributor, _print_body(
                cluster, index_printer, grid.dtype, scalar_kinds))
        elif sec['kind'] == 'sparse':
            _emit_sparse(em, schedule.steps[sec['step']], index_printer,
                         grid.dtype, scalar_kinds)
        else:
            _emit_halo_spot(em, sec['ops'], functions, tvars)
        for fname, _ in sec['writes']:
            em.emit('__san_check(%s_vec, "%s", time);' % (fname, sname))
        if instrument:
            em.emit('STOP(%s,timers)' % sname)
        em.emit('/* end %s */' % sname)

    for sec in program['pre']:
        if sec['kind'] == 'poison':
            for n in fnames:
                em.emit('__san_poison(%s_vec, comm, -1);' % n)
            em.emit()
        else:
            section(sec)

    # time loop with modulo buffer variables (Listing 11 style)
    steps = ', '.join('%s = (time + %d)%%(%d)' % (v, s, nb)
                      for (s, nb), v in tvars.items())
    em.open_block('for (int time = time_m%s; time <= time_M; time += 1%s)'
                  % ((', ' + steps,) * 2 if steps else ('', '')))
    for sec in program['loop']:
        if sec['kind'] == 'poison':
            em.emit('/* sanitizer: buffer rotation invalidated every '
                    'time-shifted halo */')
            for f in schedule.functions:
                if getattr(f, 'is_TimeFunction', False):
                    em.emit('__san_poison(%s_vec, comm, time);' % f.name)
        else:
            section(sec)
    em.close_block()  # time loop
    for f in scratch:
        em.emit('free(%s_vec);' % f.name)
    em.emit('return 0;')
    em.close_block()  # kernel
    return em.source()


def _callable_suffix(key):
    """An exchanger's callable suffix: ``h<uid>_<f>`` (a loop spot)
    names ``haloupdate<uid>_<f>``, ``pre_<f>`` (hoisted) names
    ``haloupdate_pre_<f>``."""
    return key[1:] if key.startswith('h') else '_' + key


def _emit_halo_spot(em, ops, functions, tvars):
    """The calls of one halo spot's ops (update, send or recv)."""
    for op, key, fname, shift in ops:
        suffix = _callable_suffix(key)
        args = ['%s_vec' % fname, 'comm']
        if shift is not None:
            args.append(tvars.get((shift, function_nb(functions[fname])),
                                  't0'))
        if op == 'update':
            em.emit('haloupdate%s(%s);' % (suffix, ', '.join(args)))
        elif op == 'send':
            em.emit('MPI_Request reqs%s[%d];' % (suffix, 2 * 26))
            em.emit('halobegin%s(%s, reqs%s);'
                    % (suffix, ', '.join(args), suffix))
        else:
            em.emit('MPI_Waitall(%d, reqs%s, MPI_STATUSES_IGNORE);'
                    % (2 * 26, suffix))
            em.emit('halounpack%s(%s);' % (suffix, ', '.join(
                [args[0]] + args[2:])))


def _emit_compute(em, sec, cluster, dist, body):
    """One compute section's loop nests: one per iteration box of its
    region on the schedule's own rank, each running ``body``."""
    dims = cluster.grid.dimensions
    region = sec['region']
    if region == 'domain':
        boxes = [[('%s_m' % d.name, '%s_M' % d.name) for d in dims]]
    elif region == 'grown':
        em.emit('/* GROWN region: DOMAIN plus the readers\' reach */')
        boxes = [[('%s_m - %d' % (d.name, gl), '%s_M + %d' % (d.name, gr))
                  for d, (gl, gr) in zip(dims, sec['grow'])]]
    else:
        em.emit('/* %s region */' % region.upper())
        boxes = [[('%d' % lo, '%d' % (hi - 1)) for lo, hi in box]
                 for box in region_boxes(region, sec['widths'], dist,
                                         sec['grow'])]
    names = ','.join(sorted(f.name for f in cluster.functions))
    for bounds in boxes:
        for i, (dim, (lo, hi)) in enumerate(zip(dims, bounds)):
            if i == 0:
                em.emit('#pragma omp parallel for schedule(dynamic,1)')
            if i == len(dims) - 1:
                em.emit('#pragma omp simd aligned(%s:32)' % names)
            em.open_block('for (int %s = %s; %s <= %s; %s += 1)'
                          % (dim.name, lo, dim.name, hi, dim.name))
        for line in body:
            em.emit(line)
        for _ in dims:
            em.close_block()


def _emit_sparse(em, step, index_printer, dtype, scalar_kinds):
    """One sparse section: the loop over this rank's contributions,
    each bound to its point ``__p``, weight ``__w[__k]`` and grid
    cell, running the compiled step's statement."""
    dims = step.op.sparse.grid.dimensions
    em.emit('/* %s %s: one multilinear contribution per (point, grid '
            'cell) this rank owns%s */' % (
                step.kind, step.op.sparse.name, '' if step.kind == 'inject'
                else '; the rows __r are summed over the ranks'))
    em.open_block('for (int __k = 0; __k < __n; __k += 1)')
    em.emit('const int __p = __pid[__k], %s;' % ', '.join(
        '%s = __i%d[__k]' % (dim.name, d) for d, dim in enumerate(dims)))
    em.emit(_sparse_statement(step, index_printer, dtype, scalar_kinds)[0])
    em.close_block()


def _emit_halo_callable(em, mode, ctype, mpitype, ex, nmsg, begin, timed):
    """Emit the halo-exchange callable of exchanger ``ex`` (a record
    of :func:`~repro.ir.program.step_program`), named ``halobegin`` /
    ``haloupdate`` plus :func:`_callable_suffix`: the ``begin`` half of
    an overlapped exchange, or a blocking update.  Only a ``timed``
    callable takes a time index (a hoisted exchange's function has no
    time dimension).  The tags are the exchanger's: ``tag_base`` plus a
    direction code below ``3**ndim``, as
    :class:`~repro.mpi.halo.HaloExchanger` sends them; ``nmsg`` is the
    number of messages it sends from this rank (its certificate
    entry)."""
    suffix, fname = _callable_suffix(ex['key']), ex['function']
    tag0, ndim = int(ex['tag_base']), len(ex['widths'])
    tparam, targ = (', int t', ', t') if timed else ('', '')
    em.open_block('static void halo%s%s(%s *restrict %s_vec, '
                  'MPI_Comm comm%s%s)' % (
                      'begin' if begin else 'update', suffix, ctype, fname,
                      tparam, ', MPI_Request *reqs' if begin else ''))
    em.emit('int rank; MPI_Comm_rank(comm, &rank);')
    if mode == 'basic':
        em.emit('/* multi-step synchronous face exchanges: '
                '%d messages in %dD */' % (nmsg, ndim))
        centre = (3 ** ndim - 1) // 2
        for d, (wl, wr) in enumerate(ex['widths']):
            if not (wl or wr):
                continue
            up = tag0 + centre + 3 ** (ndim - 1 - d)
            down = tag0 + centre - 3 ** (ndim - 1 - d)
            em.emit('%s *sendbuf%d = malloc(sizeof(%s)*%d); '
                    '/* C-land runtime allocation */'
                    % (ctype, d, ctype, max(wl, wr)))
            em.emit('MPI_Sendrecv(sendbuf%d, /*...*/ 1, %s, '
                    'neighbor_pos[%d], %d, recvbuf%d, 1, %s, '
                    'neighbor_neg[%d], %d, comm, MPI_STATUS_IGNORE);'
                    % (d, mpitype, d, up, d, mpitype, d, up))
            em.emit('MPI_Sendrecv(/* opposite direction */ sendbuf%d, 1, '
                    '%s, neighbor_neg[%d], %d, recvbuf%d, 1, '
                    '%s, neighbor_pos[%d], %d, comm, '
                    'MPI_STATUS_IGNORE);'
                    % (d, mpitype, d, down, d, mpitype, d, down))
            em.emit('free(sendbuf%d);' % d)
    else:
        em.emit('/* single-step neighborhood exchange incl. corners: '
                '%d messages in %dD; buffers preallocated in Python-land; '
                'tags[n], rtags[n] < %d */' % (nmsg, ndim, 3 ** ndim))
        em.emit('int nreq = 0;')
        em.open_block('for (int n = 0; n < %d; n += 1)' % nmsg)
        em.emit('#pragma omp parallel for /* threaded pack */')
        em.emit('/* pack_halo(%s_vec, sendbufs[n], n%s); */'
                % (fname, targ))
        em.emit('MPI_Isend(sendbufs[n], counts[n], %s, neighbors[n], '
                '%d + tags[n], comm, &reqs[nreq++]);' % (mpitype, tag0))
        em.emit('MPI_Irecv(recvbufs[n], counts[n], %s, neighbors[n], '
                '%d + rtags[n], comm, &reqs[nreq++]);' % (mpitype, tag0))
        em.close_block()
        if not begin:
            em.emit('MPI_Waitall(nreq, reqs, MPI_STATUSES_IGNORE);')
            em.emit('#pragma omp parallel for /* threaded unpack */')
            em.emit('/* unpack_halo(%s_vec, recvbufs%s); */'
                    % (fname, targ))
    em.close_block()
    em.emit()
    if begin:
        em.open_block('static void halounpack%s(%s *restrict %s_vec%s)'
                      % (suffix, ctype, fname, tparam))
        em.emit('#pragma omp parallel for /* threaded unpack */')
        em.emit('/* unpack_halo(%s_vec, recvbufs%s); */' % (fname, targ))
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
                    return 's'
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
    dtype = np.dtype(grid.dtype if dtype is None else dtype)
    ctype = _ctype(dtype)
    for cl in schedule.clusters:
        for f in cl.functions:
            if np.dtype(f.dtype) != dtype:
                raise ValueError(
                    "compiled backend needs a uniform kernel dtype; "
                    "%s is %s on a %s grid"
                    % (f.name, np.dtype(f.dtype), dtype))
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


def _print_body(cluster, index_printer, dtype, scalar_kinds):
    """The C statements of ``cluster``'s temporaries and equations,
    printed by :class:`~repro.symbolics.CExecPrinter` in ``dtype`` with
    the scalar temporaries' kinds (:func:`_scalar_assignment_kinds`).
    ``index_printer`` renders array accesses: flattened pointer
    arithmetic in the compiled kernel, subscripts in the listing."""
    printer = CExecPrinter(index_printer, dtype=str(dtype),
                           symbol_kinds=scalar_kinds)
    ctype = 'float' if printer.single else 'double'
    lines = []
    for temp, rhs in cluster.temps:
        text, kind = printer.doprint_kinded(rhs)
        decl = ctype if kind == 'A' else 'double'
        lines.append('const %s %s = %s;' % (decl, temp.name, text))
        printer.symbol_kinds[temp.name] = kind
    for eq in cluster.eqs:
        lines.append('%s = %s;' % (printer.doprint(eq.lhs),
                                   printer.doprint(eq.rhs)))
    return lines


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
    body_lines = _print_body(
        cluster, _flat_index_printer(tvars, used_tvars, classes), dtype,
        scalar_kinds)

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
    dims = list(step.op.sparse.grid.dimensions)
    accs = accesses_of(step.expr) + (
        [] if step.field_access is None else [step.field_access])
    funcs = {acc.function.name: acc.function for acc in accs}
    funcs = [funcs[k] for k in sorted(funcs)]
    classes, halos = _layout_classes(funcs)
    scalars = sorted(_free_scalars(step.expr, ()))
    tvars = {key: '__tv%d' % i for i, key in enumerate(sorted({
        (acc.time_shift, function_nb(acc.function)) for acc in accs
        if acc.time_shift is not None and acc.function.is_TimeFunction}))}
    statement, libm = _sparse_statement(
        step, _flat_index_printer(tvars, set(), classes), dtype,
        scalar_kinds)

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
        em.emit('(void)__mode; (void)__nrows; (void)__np;')
    else:
        em.emit('double *__r = (double *)__b->ptrs[__a[%d]] + '
                '(__mode == 2 && __nt ? __nrows*__np : 0);' % (8 + nd))
        em.emit('for (long __p = 0; __p < __np; __p += 1) __r[__p] = 0.0;')
    em.open_block('for (long __k = 0; __k < __n; __k += 1)')
    em.emit('const long __p = __pid[__k];')
    for d, dim in enumerate(dims):
        em.emit('const long %s = __i%d[__k];' % (dim.name, d))
    em.emit(statement)
    em.close_block()
    if step.kind != 'inject':
        em.open_block('if (__mode == 1)')
        em.emit('for (long __p = 0; __p < __np; __p += 1) '
                '__sd[__p] = (%s)__r[__p];' % ctype)
        em.close_block()
    em.emit('return 0;')
    em.close_block()
    em.emit()
    return [f.name for f in funcs], scalars, halos, libm


def _sparse_statement(step, index_printer, dtype, scalar_kinds):
    """The C statement of one contribution ``__k`` of a sparse
    operation, with the dimension variables bound to its grid cell:
    injection adds ``w * expr`` into the field element, interpolation
    into the point's row ``__r[__p]``.  ``index_printer`` renders array
    accesses (:func:`_print_body`).  Returns ``(statement, whether it
    calls libm)``."""
    printer = _SparseExecPrinter(step.op.sparse, index_printer,
                                 dtype=str(dtype), symbol_kinds=scalar_kinds)
    text, kind = printer.doprint_kinded(step.expr)
    value, _ = printer._combine('__w[__k]', 'A', '(%s)' % text, kind, '*')
    if step.kind == 'inject':
        lhs = index_printer(printer, step.target)
        return '%s = %s + %s;' % (lhs, lhs, value), printer.libm
    return '__r[__p] += %s;' % value, printer.libm
