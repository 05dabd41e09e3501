"""Binding the compiled step to one rank: the program and its operands.

The C translation unit (:func:`~repro.codegen.cgen.generate_c_steps`) is
the same for every rank, comm mode and decomposition.  What one rank
runs per timestep is data: the timestep's record
(:func:`~repro.ir.program.step_program`; JSON, so the build cache
carries it), which :class:`StepProgram` turns — once per built kernel —
into the op program, argument records, geometry rows and the channel
list of this rank; then, once per run of the time loop,
:meth:`StepProgram.bind` fills in the pointers (fields, sparse plans,
pending rows), the scalar table and the channels of the world, and
returns the :class:`Binding` the driver hands to ``step``.

Each section of the record becomes its ops, bracketed by ``begin`` /
``stop`` of its timer when timers are compiled in and followed by a
``scan`` of each buffer it writes under the sanitizer.

After every run :meth:`Binding.fold` moves what the step counted into
the places the NumPy driver writes directly: the exchanger counters,
the commlog send/recv ledger and the profiler's section timers.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..mpi.channel import ChannelTimeoutError
from ..mpi.sim import PROC_NULL, RemoteRankError
from .common import class_geometry, function_nb
from .cruntime import ERRORS, EXCHANGER_COUNTERS, OPS

__all__ = ['Binding', 'StepProgram', 'bind_meta', 'meta_scalars']


class _Struct(ctypes.Structure):
    """Mirror of the step's ``__rp_binding``."""

    _fields_ = [('ptrs', ctypes.c_void_p), ('scalars', ctypes.c_void_p),
                ('prog', ctypes.c_void_p), ('args', ctypes.c_void_p),
                ('geom', ctypes.c_void_p), ('chans', ctypes.c_void_p),
                ('timers', ctypes.c_void_p), ('counters', ctypes.c_void_p),
                ('failed', ctypes.c_void_p), ('timeout', ctypes.c_double),
                ('slice', ctypes.c_double), ('err', ctypes.c_long * 4)]


#: the failure flag of a run without a world (never raised)
_NEVER = ctypes.c_int(0)


def _long(values):
    return np.ascontiguousarray(values, dtype=np.int64)


def bind_meta(meta, boxes, shape_local):
    """One rank's view of :func:`~repro.codegen.cgen.generate_c_steps`
    metadata, by step index: a compute step with iteration points here
    gains its geometry row ``[nboxes, <class_geometry per layout
    class>, <lo, hi per dimension per box>]``, one without is dropped
    (the program skips it), sparse steps pass through.  ``boxes`` maps
    every compute step to this rank's boxes."""
    out = {}
    for sid, m in meta.items():
        sid = int(sid)
        if sid not in boxes:
            out[sid] = m
        elif boxes[sid]:
            geom = [len(boxes[sid])]
            for halo in m['halos']:
                geom += class_geometry(halo, shape_local)
            geom += [b for box in boxes[sid] for lohi in box for b in lohi]
            out[sid] = dict(m, geom=geom)
    return out


def meta_scalars(meta):
    """The scalar table of a bound compiled step (sorted names)."""
    return sorted({s for m in meta.values() for s in m['scalars']})


class StepProgram:
    """One rank's compiled-step program, built once per kernel.

    ``program`` is the rank's view of the step record
    (:func:`~repro.codegen.pybackend.bind_plan`), ``meta`` the
    emitter's, bound to the rank (:func:`bind_meta`), ``functions``
    every array the step reads or writes (scratch arrays included),
    ``exchangers`` the kernel's live exchangers and ``sanitizer`` its
    :class:`~repro.analysis.sanitizer.HaloSanitizer` (or None).
    """

    def __init__(self, lib, program, meta, functions, exchangers,
                 distributor, sanitizer, dtype):
        self.dtype = np.dtype(dtype)
        self.exchangers = [exchangers[ex['key']]
                           for ex in program['exchangers']]
        #: timer slot -> section name
        self.sections = []
        self.sanitizer = sanitizer
        #: the scalar names the bound steps read, in table order
        self.scalars = meta_scalars(meta)
        ndim = distributor.ndim
        nbuffers = {f.name: function_nb(f) for f in functions}
        fields = {name: i for i, name in enumerate(sorted(nbuffers))}
        self._fields = fields
        self._nptrs = len(fields)
        self._args, self._geom = [], []
        #: (args offset, field name) of every record whose strides are
        #: read off the bound array
        self._views = []
        #: ((src, dst), tag, nbytes, exchanger) per channel
        self._channels = []
        #: sid -> (args offset, first pointer slot, mode)
        self._sparse = {}
        records = {}
        meta = {int(sid): m for sid, m in meta.items()}
        scalars = {name: i for i, name in enumerate(self.scalars)}
        exindex = {ex['key']: i
                   for i, ex in enumerate(program['exchangers'])}

        def view(field, shift):
            nb = nbuffers[field]
            off = len(self._args)
            self._args += [fields[field], shift is not None, shift or 0,
                           nb, ndim, 0] + [0] * ndim
            self._views.append((off, field))
            return off

        def halo_record(key, field, shift):
            if (key, field, shift) in records:
                return records[key, field, shift]
            ex = exchangers[key]
            off = view(field, shift)
            self._args += [exindex[key], len(ex.table)]
            rank = ex.distributor.comm.rank
            for msg in ex.table:
                row = [msg.phase, -1, -1]
                boxes = []
                for i, (peer, tag, box, send) in enumerate((
                        (msg.dest, msg.send_tag, msg.send_box, True),
                        (msg.src, msg.recv_tag, msg.recv_box, False))):
                    if peer == PROC_NULL:
                        boxes += [0] * (2 * ndim)
                        continue
                    row[1 + i] = len(self._channels)
                    nbytes = self.dtype.itemsize * int(
                        np.prod([hi - lo for lo, hi in box]))
                    self._channels.append((
                        (rank, peer) if send else (peer, rank), tag,
                        nbytes, ex))
                    boxes += [b for lohi in box for b in lohi]
                self._args += row + boxes
            records[key, field, shift] = off
            return off

        def timer(name):
            if name not in self.sections:
                self.sections.append(name)
            return self.sections.index(name)

        def compile_sections(sections):
            prog = []
            for sec in sections:
                timed = program['timed'] and sec['name'] is not None
                if timed:
                    prog.append([OPS['begin'], timer(sec['name']), 0, 0])
                compile_ops(sec['ops'], prog)
                if timed:
                    prog.append([OPS['stop'], timer(sec['name']), 0, 0])
                for field, shift in sec['writes']:
                    slot = timer(sec['name'])
                    nb, domain = sanitizer.domain(field)
                    off = view(field, (shift or 0) if nb else None)
                    self._args += [b for s in domain
                                   for b in (s.start, s.stop)]
                    prog.append([OPS['scan'], slot, off, 0])
            return _long([v for row in prog for v in row] + [0] * 4)

        def compile_ops(ops, prog):
            for op in ops:
                kind = op[0]
                if kind == 'call':
                    sid = op[1]
                    off = len(self._args)
                    m = meta[sid]
                    self._args.append(len(self._geom))
                    if 'geom' in m:
                        self._geom += m['geom']
                    else:
                        self._geom.append(0)
                        for halo in m['halos']:
                            self._geom += class_geometry(
                                halo, distributor.shape_local)
                        slot = self._nptrs
                        self._nptrs += 4 + ndim
                        self._args += [0, slot, slot + 1]
                        self._args += [slot + 2 + d for d in range(ndim)]
                        self._args += [slot + 2 + ndim, 0, 0, op[2],
                                       slot + 3 + ndim]
                        self._sparse[sid] = (off, slot, op[2])
                    self._args += [fields[f] for f in m['fields']]
                    self._args += [scalars[s] for s in m['scalars']]
                    prog.append([OPS['call'], m['fn'], off, 0])
                elif kind in ('update', 'send', 'recv'):
                    prog.append([OPS[kind], halo_record(*op[1:]), 0, 0])
                elif kind == 'poison':
                    for name, nb, boxes in sanitizer.poisoned(op[1]):
                        off = view(name, None)
                        self._args += [nb or 1, len(boxes)]
                        for box in boxes:
                            self._args += [b for s in box
                                           for b in (s.start, s.stop)]
                        prog.append([OPS['poison'], off, 0, 0])
                else:
                    raise ValueError("unknown step-program op %r" % (op,))

        self.pre = compile_sections(program['pre'])
        self.loop = compile_sections(program['loop'])
        self.args = _long(self._args)
        self.geom = _long(self._geom if self._geom else [0])
        self.waker = lib.repro_wake

    def bind(self, arrays, sparse_plans, comm, scalars, rows=()):
        """The operands of one run of the time loop.

        ``arrays`` maps field names to halo-inclusive arrays,
        ``sparse_plans`` is the kernel's ``__SP``, ``scalars`` the values
        of :attr:`scalars` in order and ``rows`` the pending
        interpolation blocks of the deferred sparse steps, in sid
        order."""
        dtype = self.dtype
        ptrs = np.zeros(self._nptrs, dtype=np.uintp)
        keep = []
        for name, slot in self._fields.items():
            arr = arrays[name]
            if arr.dtype != dtype or not arr.flags.c_contiguous:
                raise TypeError("compiled step needs C-contiguous %s "
                                "arrays; %s is not" % (dtype, name))
            ptrs[slot] = arr.ctypes.data
        args = self.args
        for off, name in self._views:
            arr = arrays[name]
            ndim = args[off + 4]
            strides = [s // arr.itemsize for s in arr.strides]
            args[off + 5] = strides[0] if arr.ndim > ndim else 0
            args[off + 6:off + 6 + ndim] = strides[-ndim:]
        rows = list(rows)
        for sid, (off, slot, mode) in sorted(self._sparse.items()):
            sp = sparse_plans[sid]
            data = sp['data']
            parts = [_long(sp['pids']),
                     np.ascontiguousarray(sp['w'], dtype=dtype)]
            parts += [_long(i) for i in sp['idx']]
            if data.dtype != dtype or not data.flags.c_contiguous:
                raise TypeError("compiled step needs C-contiguous %s "
                                "sparse data" % dtype)
            parts.append(data)
            npoint = data.shape[-1]
            parts.append(rows.pop(0) if mode == 2 else
                         np.empty(npoint, dtype=np.float64))
            for i, part in enumerate(parts):
                ptrs[slot + i] = part.ctypes.data
            keep += parts
            args[off + 1] = len(sp['pids'])
            ndim = len(sp['idx'])
            args[off + 5 + ndim] = npoint
            args[off + 6 + ndim] = data.shape[0] if data.ndim == 2 else 0
        return Binding(self, ptrs, keep, comm,
                       np.asarray(scalars, dtype=np.float64))


class Binding:
    """The operands of one run of the time loop, and what it counted."""

    def __init__(self, program, ptrs, keep, comm, scalars):
        self.program = program
        self._keep = (ptrs, keep, scalars)
        world = getattr(comm, 'world', None)
        self.world = world
        chans = []
        self._chans = []
        if program._channels:
            table = world.channels
            table.waker = program.waker
            comm_id = program.exchangers[0].distributor.comm._id
            for (src, dst), tag, nbytes, ex in program._channels:
                ch = table.get(comm_id, src, dst, tag, nbytes)
                chans.append(ch.address)
                # (channel, exchanger, sender side?, count at bind)
                send = src == ex.distributor.comm.rank
                self._chans.append([ch, ex, send,
                                    ch.sent if send else ch.received])
        self._chan_ptrs = np.asarray(chans or [0], dtype=np.uintp)
        self.timers = np.zeros(3 * max(len(program.sections), 1))
        self.counters = np.zeros(len(EXCHANGER_COUNTERS)
                                 * max(len(program.exchangers), 1))
        failed = world.channels.failed if world is not None else _NEVER
        self.timeout = world.recv_timeout if world is not None else 1e9
        common = dict(
            ptrs=ptrs.ctypes.data, scalars=scalars.ctypes.data,
            args=program.args.ctypes.data, geom=program.geom.ctypes.data,
            chans=self._chan_ptrs.ctypes.data,
            timers=self.timers.ctypes.data,
            counters=self.counters.ctypes.data,
            failed=ctypes.addressof(failed), timeout=self.timeout,
            slice=world.check_interval if world is not None else 0.05)
        self._pre = _Struct(prog=program.pre.ctypes.data, **common)
        self._loop = _Struct(prog=program.loop.ctypes.data, **common)
        #: what the driver passes to ``step``
        self.pre = ctypes.addressof(self._pre)
        self.ref = ctypes.addressof(self._loop)

    def check(self, rc, time, arrays, pre=False):
        """Raise what a non-zero return code of ``step`` means (``pre``:
        of the run of the preamble program)."""
        if not rc:
            return
        err = list((self._pre if pre else self._loop).err)
        reason = ERRORS.get(rc)
        if reason == 'failed':
            world = self.world
            raise RemoteRankError(world._fail_reason or
                                  "a peer rank failed")
        if reason == 'timeout':
            raise ChannelTimeoutError(err[1], err[2], err[3], self.timeout)
        if reason == 'poison':
            section = self.program.sections[err[0]]
            self.program.sanitizer.check(section, arrays, time)
            raise RuntimeError("compiled step reported poison in %s that "
                               "the sanitizer does not see" % section)
        if reason == 'time':
            raise IndexError("time %d is outside the sparse time series"
                             % err[0])
        raise RuntimeError("compiled step failed with code %r" % (rc,))

    def trace(self, timer, time):
        """Advanced profiling: one trace record per section of the step
        just run."""
        for i, name in enumerate(self.program.sections):
            if self.timers[3 * i + 1]:
                timer.traces.append((time, name,
                                     float(self.timers[3 * i + 2])))

    def fold(self, timer):
        """Move what the step counted since the last fold into the
        exchangers, the commlog ledger and ``timer``; zero it here."""
        counters = self.counters.reshape(-1, len(EXCHANGER_COUNTERS))
        for ex, row in zip(self.program.exchangers, counters):
            ex.nmessages += int(row[0])
            ex.nbytes_sent += int(row[1])
            ex.nbytes_recv += int(row[2])
            ex.ncalls += int(row[3])
            ex.wait_time += float(row[4])
        self.counters[:] = 0.0
        if timer is not None:
            for i, name in enumerate(self.program.sections):
                calls = int(self.timers[3 * i + 1])
                if calls:
                    acc = timer.sections.setdefault(name, [0.0, 0])
                    acc[0] += float(self.timers[3 * i])
                    acc[1] += calls
        self.timers[:] = 0.0
        if not self._chans:
            return
        log = self.world.commlog
        for entry in self._chans:
            ch, ex, send, seen = entry
            now = ch.sent if send else ch.received
            count = now - seen
            if count:
                entry[3] = now
                if send:
                    log.record_send(ch.src, ch.dst, ch.tag,
                                    count * ch.nbytes, section=ex.name,
                                    count=count)
                else:
                    log.record_recv(ch.src, ch.dst, ch.tag,
                                    count * ch.nbytes, count=count)
