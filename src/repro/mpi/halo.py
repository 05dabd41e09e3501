"""Runtime halo exchanges: the *basic*, *diagonal* and *full* patterns.

These are the three computation/communication patterns of the paper's
Section III-h (Table I, Figure 5):

``basic``
    Blocking point-to-point exchanges perpendicular to the Cartesian
    planes, one dimension at a time (multi-step).  Corner data propagates
    implicitly because each step's slabs include the halo regions already
    updated by earlier steps.  Exchange buffers are allocated per call
    ("C-land" allocation in the paper).

``diagonal``
    A single step of non-blocking exchanges over the full Moore
    neighborhood (8 messages in 2D, 26 in 3D) including corners, using
    buffers preallocated at operator-build time ("Python-land").

``full``
    Same message set as ``diagonal`` but split into ``begin``/``finish``
    so the compiler can overlap the CORE computation with communication
    (Listing 8), optionally prodding the progress engine like the
    sacrificed OpenMP thread calling ``MPI_Test``.

Every exchanger builds its per-neighbour :class:`HaloMessage` table once,
at construction: peers, send and receive boxes, tags and basic mode's
phase order.  The Python exchange methods and the compiled step
(:mod:`repro.codegen.cstep`) both read that one table.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from .sim import PROC_NULL

__all__ = ['HaloWidths', 'HaloMessage', 'BasicExchanger',
           'DiagonalExchanger', 'FullExchanger', 'make_exchanger',
           'core_region', 'remainder_regions', 'box_difference']


class HaloWidths:
    """Per-dimension (left, right) halo extents actually needed.

    The compiler derives these from the stencil access offsets — they can
    be narrower than the allocated halo (an ablation knob).
    """

    def __init__(self, widths):
        self.widths = tuple((int(l), int(r)) for l, r in widths)

    def __iter__(self):
        return iter(self.widths)

    def __getitem__(self, i):
        return self.widths[i]

    def __len__(self):
        return len(self.widths)

    def __eq__(self, other):
        return isinstance(other, HaloWidths) and self.widths == other.widths

    def __hash__(self):
        return hash(self.widths)

    def __repr__(self):
        return 'HaloWidths(%s)' % (list(self.widths),)


class _ExchangerBase:
    """Common geometry for halo exchanges on one function's data.

    Parameters
    ----------
    distributor : Distributor
    halo : tuple of (left, right)
        *Allocated* halo per decomposed grid dimension (array layout).
    widths : HaloWidths
        Halo extents to actually exchange.
    tag_base : int
        Disambiguates concurrent exchanges of different functions.
    name : str, optional
        Label used by the commlog validator to attribute traffic (the
        code generator passes the kernel-local exchanger key).
    """

    def __init__(self, distributor, halo, widths, tag_base=0, name=None):
        self.distributor = distributor
        self.halo = tuple(halo)
        self.widths = HaloWidths(widths)
        self.tag_base = int(tag_base)
        self.name = name if name is not None else 'x@%d' % self.tag_base
        self.ndim = distributor.ndim
        if len(self.halo) != self.ndim or len(self.widths) != self.ndim:
            raise ValueError("halo/widths dimensionality mismatch")
        for (wl, wr), (hl, hr) in zip(self.widths, self.halo):
            if wl > hl or wr > hr:
                raise ValueError("required halo widths %s exceed allocated "
                                 "halo %s" % (self.widths, self.halo))
        self.local_shape = distributor.shape_local
        #: monotonic instrumentation counters.  These *accumulate* across
        #: calls; consumers interested in per-``apply`` figures must
        #: snapshot :meth:`counters` before the run and subtract
        #: (``Operator.apply`` does exactly that, so repeated applies
        #: never double-count messages in their summaries).
        self.nmessages = 0
        self.nbytes_sent = 0
        self.nbytes_recv = 0
        self.wait_time = 0.0
        self.ncalls = 0
        #: pending receive batches posted by ``begin`` and not yet
        #: consumed by ``finish``; ``abort`` clears them so aborted
        #: applies leave no stale state behind
        self._inflight = []
        if distributor.is_parallel:
            self.validate_geometry()

    # -- robustness ---------------------------------------------------------------

    @property
    def tag_range(self):
        """Half-open tag interval owned by this exchanger (used by the
        commlog's static tag-collision check)."""
        return (self.tag_base, self.tag_base + 3 ** self.ndim)

    def validate_geometry(self):
        """Check send/recv region volume consistency with every neighbor.

        For each neighbor, the volume this rank sends toward it must
        equal the halo volume the neighbor's matching receive expects —
        computable locally from the shared per-dimension decompositions
        (perpendicular extents come from the neighbor's coordinates,
        which agree with ours along every zero-offset dimension).
        Raises ``ValueError`` on mismatch (an uneven-decomposition or
        width-disagreement bug the transport would otherwise surface as
        a cryptic reshape error mid-run).
        """
        dist = self.distributor
        for offsets, rank in dist.neighborhood(diagonals=True).items():
            if rank == PROC_NULL or not any(offsets):
                continue
            ncoords = tuple(c + o for c, o in zip(dist.mycoords, offsets))
            send_vol = recv_vol = 1
            for d, off in enumerate(offsets):
                wl, wr = self.widths[d]
                if off == 0:
                    send_vol *= dist.shape_local[d]
                    recv_vol *= dist.decompositions[d].size(ncoords[d])
                elif off > 0:
                    send_vol *= wl
                    recv_vol *= wl
                else:
                    send_vol *= wr
                    recv_vol *= wr
            if send_vol != recv_vol:
                raise ValueError(
                    "halo volume mismatch toward neighbor %s (rank %d): "
                    "sending %d points but its receive region holds %d "
                    "— inconsistent decomposition/widths"
                    % (offsets, rank, send_vol, recv_vol))

    def abort(self):
        """Collective-teardown hook: discard pending receive state.

        Called by ``Operator.apply`` when a run aborts (e.g. a peer rank
        was killed by fault injection) so the next ``apply`` on the same
        operator starts from a clean slate."""
        self._inflight.clear()

    def _enter(self):
        """Start one exchange: bump the call counter and label outgoing
        traffic with this exchanger's name for the commlog."""
        self.ncalls += 1
        self.distributor.comm.section = self.name

    # -- instrumentation ---------------------------------------------------------

    def counters(self):
        """Snapshot of the monotonic instrumentation counters."""
        return {'nmessages': self.nmessages,
                'nbytes_sent': self.nbytes_sent,
                'nbytes_recv': self.nbytes_recv,
                'wait_time': self.wait_time,
                'ncalls': self.ncalls}

    def reset_counters(self):
        self.nmessages = 0
        self.nbytes_sent = 0
        self.nbytes_recv = 0
        self.wait_time = 0.0
        self.ncalls = 0

    # -- region algebra ----------------------------------------------------------

    def _region(self, offsets, extended_dims, side):
        """Array-coordinate box, as ``(lo, hi)`` per dimension, of the
        data sent toward (``side='send'``) or received from
        (``side='recv'``) neighbor ``offsets``.  Along a zero offset the
        box spans the domain, extended into the halo for the dimensions
        in ``extended_dims`` (basic mode's multi-step corner
        propagation)."""
        box = []
        for d, off in enumerate(offsets):
            hl = self.halo[d][0]
            n = self.local_shape[d]
            wl, wr = self.widths[d]
            if off == 0:
                box.append((hl - wl, hl + n + wr) if d in extended_dims
                           else (hl, hl + n))
            elif side == 'send':
                # my last wl points feed the neighbor's left halo, my
                # first wr points its right halo
                box.append((hl + n - wl, hl + n) if off > 0
                           else (hl, hl + wr))
            else:
                box.append((hl + n, hl + n + wr) if off > 0
                           else (hl - wl, hl))
        return tuple(box)

    def _tag(self, offsets):
        """A tag unique to (function, direction): receiver matches the
        sender's direction as seen from the sender."""
        code = 0
        for off in offsets:
            code = code * 3 + (off + 1)
        return self.tag_base + code

    def _active_dims(self):
        """Decomposed dimensions with a nonzero exchange width."""
        return [d for d in range(self.ndim)
                if self.distributor.is_distributed(d)
                and (self.widths[d][0] or self.widths[d][1])]


class HaloMessage:
    """One row of an exchanger's per-neighbour table: what goes to
    ``dest`` (``send_box`` under ``send_tag``) and what comes back from
    ``src`` (into ``recv_box`` under ``recv_tag``) in one ``phase``.
    Boxes are ``(lo, hi)`` per dimension in array coordinates (halo
    included); a side with no peer is ``PROC_NULL`` and its box None."""

    __slots__ = ('phase', 'dest', 'send_tag', 'send_box', 'src',
                 'recv_tag', 'recv_box', 'send_slices', 'recv_slices')

    def __init__(self, phase, dest, send_tag, send_box, src, recv_tag,
                 recv_box):
        self.phase = phase
        self.dest, self.send_tag, self.send_box = dest, send_tag, send_box
        self.src, self.recv_tag, self.recv_box = src, recv_tag, recv_box
        self.send_slices = _slices(send_box)
        self.recv_slices = _slices(recv_box)

    def __repr__(self):
        return ('HaloMessage(phase=%d, dest=%d, send_tag=%d, src=%d, '
                'recv_tag=%d)' % (self.phase, self.dest, self.send_tag,
                                  self.src, self.recv_tag))


def _slices(box):
    return None if box is None else tuple(slice(lo, hi) for lo, hi in box)


class BasicExchanger(_ExchangerBase):
    """Multi-step synchronous face exchanges (paper's *basic* mode)."""

    diagonals = False

    def __init__(self, distributor, halo, widths, tag_base=0, name=None):
        super().__init__(distributor, halo, widths, tag_base=tag_base,
                         name=name)
        #: the per-neighbour table, in phase order: per active dimension
        #: one phase toward +1 and one toward -1; each phase's slabs
        #: include the halo the earlier phases updated
        self.table = []
        done = []
        for d in self._active_dims():
            for sign in (1, -1):
                offsets = tuple(sign if i == d else 0
                                for i in range(self.ndim))
                back = tuple(-o for o in offsets)
                dest = distributor.neighbor(offsets)
                src = distributor.neighbor(back)
                ext = tuple(done)
                tag = self._tag(offsets)
                self.table.append(HaloMessage(
                    len(self.table), dest, tag,
                    self._region(offsets, ext, 'send')
                    if dest != PROC_NULL else None,
                    src, tag,
                    self._region(back, ext, 'recv')
                    if src != PROC_NULL else None))
            done.append(d)

    def exchange(self, view):
        """Update all halo regions of ``view`` (array incl. halo)."""
        comm = self.distributor.comm
        self._enter()
        for msg in self.table:
            sendbuf = None
            if msg.dest != PROC_NULL:
                # allocated at call time, as in the paper's basic mode
                sendbuf = np.ascontiguousarray(view[msg.send_slices])
                self.nmessages += 1
                self.nbytes_sent += sendbuf.nbytes
            if msg.src == PROC_NULL:
                if sendbuf is not None:
                    comm.send(sendbuf, msg.dest, tag=msg.send_tag)
                continue
            recvbuf = np.empty(view[msg.recv_slices].shape, dtype=view.dtype)
            tic = perf_counter()
            if sendbuf is not None:
                comm.sendrecv(sendbuf, msg.dest, sendtag=msg.send_tag,
                              source=msg.src, recvtag=msg.recv_tag,
                              recvbuf=recvbuf)
            else:
                comm.recv(buf=recvbuf, source=msg.src, tag=msg.recv_tag)
            self.wait_time += perf_counter() - tic
            self.nbytes_recv += recvbuf.nbytes
            view[msg.recv_slices] = recvbuf


class DiagonalExchanger(_ExchangerBase):
    """Single-step neighborhood exchange with corners (*diagonal* mode)."""

    diagonals = True

    def __init__(self, distributor, halo, widths, tag_base=0, name=None):
        super().__init__(distributor, halo, widths, tag_base=tag_base,
                         name=name)
        active = set(self._active_dims())
        #: the per-neighbour table: one phase, every Moore neighbour
        #: across an active dimension; the matching receive carries
        #: the direction as seen from the neighbour (negated offsets)
        self.table = []
        for offsets, rank in distributor.neighborhood(diagonals=True).items():
            if not any(offsets) or any(offsets[d] != 0 and d not in active
                                       for d in range(self.ndim)):
                continue
            self.table.append(HaloMessage(
                0, rank, self._tag(offsets), self._region(offsets, (), 'send'),
                rank, self._tag(tuple(-o for o in offsets)),
                self._region(offsets, (), 'recv')))
        # Python-land preallocated buffers, one pair per neighbor (paper
        # Table I), allocated at the first exchange
        self._bufs = None

    def _buffers(self, dtype):
        if self._bufs is None or self._bufs[0][0].dtype != dtype:
            self._bufs = [(np.empty([hi - lo for lo, hi in m.send_box],
                                    dtype=dtype),
                           np.empty([hi - lo for lo, hi in m.recv_box],
                                    dtype=dtype)) for m in self.table]
        return self._bufs

    def begin(self, view):
        """Post all sends/receives; return the pending receive list."""
        comm = self.distributor.comm
        pending = []
        self._enter()
        bufs = self._buffers(view.dtype) if self.table else ()
        for msg, (sb, rb) in zip(self.table, bufs):
            # pack (OpenMP-threaded in the paper; vectorized copy here)
            sb[...] = view[msg.send_slices]
            comm.isend(sb, msg.dest, tag=msg.send_tag)
            self.nmessages += 1
            self.nbytes_sent += sb.nbytes
            req = comm.irecv(buf=rb, source=msg.src, tag=msg.recv_tag)
            pending.append((req, rb, msg.recv_slices))
        self._inflight.append(pending)
        return pending

    def finish(self, view, pending):
        """Wait for all receives and unpack into the halo."""
        try:
            for req, rb, recv_region in pending:
                tic = perf_counter()
                req.wait()
                self.wait_time += perf_counter() - tic
                self.nbytes_recv += rb.nbytes
                view[recv_region] = rb
        finally:
            # consumed (or abandoned on error): either way no longer
            # pending — a subsequent apply must not see stale state
            self._inflight = [p for p in self._inflight
                              if p is not pending]

    def exchange(self, view):
        self.finish(view, self.begin(view))


class FullExchanger(DiagonalExchanger):
    """Asynchronous exchange for communication/computation overlap.

    Identical message set to :class:`DiagonalExchanger`; the compiler
    emits ``begin`` before the CORE computation and ``finish`` before the
    REMAINDER computation (Listing 8).  ``progress_thread`` emulates the
    sacrificed OpenMP worker that periodically calls ``MPI_Test``.  The
    compiled step needs no such thread: a send is visible to its
    receiver as soon as it is packed into the channel slot.
    """

    def __init__(self, distributor, halo, widths, tag_base=0,
                 progress=False, test_period=1e-4, name=None):
        super().__init__(distributor, halo, widths, tag_base=tag_base,
                         name=name)
        self.progress = progress
        self.test_period = test_period
        self._stop = None
        self._thread = None

    def begin(self, view):
        pending = super().begin(view)
        if self.progress and pending:
            self._stop = threading.Event()

            def prod():
                while not self._stop.is_set():
                    try:
                        for req, _, _ in pending:
                            req.test()
                    except Exception:
                        # a peer failed mid-run: the main thread will
                        # surface the error; just stop prodding quietly
                        break
                    self._stop.wait(self.test_period)

            self._thread = threading.Thread(target=prod, daemon=True,
                                            name='mpi-progress')
            self._thread.start()
        return pending

    def _join_progress(self):
        """Stop and join the progress thread (idempotent)."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def finish(self, view, pending):
        # join *before* draining so the exception path (a receive
        # raising RemoteRankError) can never leak the daemon thread
        try:
            self._join_progress()
        finally:
            super().finish(view, pending)

    def abort(self):
        self._join_progress()
        super().abort()


def make_exchanger(mode, distributor, halo, widths, tag_base=0, **kwargs):
    """Factory keyed on the paper's mode names.

    ``mode`` is one of ``'basic'``, ``'diagonal'`` or ``'full'``.  The
    Devito-compatible aliases ``'diag'`` and ``'diag2'`` (the names
    ``DEVITO_MPI`` accepts for the corner-exchanging single-step
    pattern) both map to :class:`DiagonalExchanger`.
    """
    table = {'basic': BasicExchanger,
             'diag': DiagonalExchanger,
             'diagonal': DiagonalExchanger,
             'diag2': DiagonalExchanger,
             'full': FullExchanger}
    try:
        cls = table[mode]
    except KeyError:
        raise ValueError(
            "unknown MPI mode %r (expected one of basic, diag, diagonal, "
            "diag2, full; diag/diag2 are aliases of diagonal)" % (mode,))
    return cls(distributor, halo, widths, tag_base=tag_base, **kwargs)


def core_region(distributor, widths):
    """The CORE area: domain points whose stencil never reads halo data.

    Returned as per-dimension (start, stop) in *domain-local* coordinates
    (0 = first owned point).  At global boundaries the core extends to the
    domain edge (no neighbor to wait for).
    """
    out = []
    for d, (wl, wr) in enumerate(HaloWidths(widths)):
        n = distributor.shape_local[d]
        lo = 0
        hi = n
        if distributor.is_distributed(d):
            if not distributor.is_boundary_rank(d, -1):
                lo = min(wl, n)
            if not distributor.is_boundary_rank(d, +1):
                hi = max(hi - wr, lo)
        out.append((lo, hi))
    return tuple(out)


def remainder_regions(distributor, widths):
    """The REMAINDER (OWNED) areas: domain minus CORE, as disjoint boxes
    (:func:`box_difference`) — the faces and vector-like areas of the
    paper's Figure 5c."""
    domain = tuple((0, n) for n in distributor.shape_local)
    return box_difference(domain, core_region(distributor, widths))


def box_difference(outer, inner):
    """``outer`` minus ``inner`` as disjoint non-empty boxes (half-open
    ``(lo, hi)`` per dimension).

    Boxes are produced dimension-major: for dimension ``d``, the slabs of
    ``outer`` below and above ``inner`` span ``outer`` in the dimensions
    after ``d`` and are clamped to ``inner``'s range in the dimensions
    already peeled.
    """
    boxes = []
    span = list(outer)
    for d, ((olo, ohi), (ilo, ihi)) in enumerate(zip(outer, inner)):
        ilo = min(max(ilo, olo), ohi)
        ihi = max(min(ihi, ohi), ilo)
        for lo, hi in ((olo, ilo), (ihi, ohi)):
            box = list(span)
            box[d] = (lo, hi)
            boxes.append(tuple(box))
        span[d] = (ilo, ihi)
    return [b for b in boxes
            if all(stop > start for start, stop in b)]
