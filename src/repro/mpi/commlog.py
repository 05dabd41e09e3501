"""Communication-correctness validation for the simulated MPI runtime.

An always-available :class:`CommLog` lives on every
:class:`~repro.mpi.sim.SimWorld` and records every send and receive
(src, dst, tag, bytes, section).  It provides three families of checks:

* **Message matching** — at the end of every ``Operator.apply`` (and on
  demand via :meth:`CommLog.validate`), a rank's mailbox must contain no
  leftover user-tagged messages: a leftover is an *unmatched send*, i.e.
  a peer posted a send this rank never received.
* **Tag-space hygiene** — :func:`check_tag_spaces` statically verifies
  that no two concurrently live exchangers of one kernel have
  overlapping tag ranges (a collision would silently cross-deliver halo
  slabs between functions), and that no exchanger strays into the
  transport's reserved out-of-band bands
  (:data:`~repro.mpi.sim.RESERVED_TAG_SPACES`: collective tags — also
  carrying the resilience layer's repartitioning ``alltoall`` — and the
  ``ANY_SOURCE``/``ANY_TAG``/``PROC_NULL`` sentinels).
* **Deadlock detection** — every blocked receive registers a wait-for
  edge ``rank -> source``; when a receive times out a scheduling slice,
  :meth:`CommLog.deadlock_probe` looks for a cycle in the wait-for graph
  and, if one is *live* (every member still blocked with no satisfying
  message in its mailbox or drop-limbo), raises a :class:`DeadlockError`
  that **names the cycle** instead of burning the full timeout.

The probe is sound against the obvious races because ``collect`` clears
a rank's wait entry *before* popping the matching message: if a member's
entry is observed unchanged both before and after the mailboxes are
inspected, that member cannot have consumed a message in between.

With ``configuration['commlog'] = False`` recording is skipped entirely;
with it on (the default) the cost is a few dict updates per *message* —
noise next to the per-message ``ndarray`` copies of the transport.
"""

from __future__ import annotations

import threading

from .sim import ANY_SOURCE, RemoteRankError

__all__ = ['CommLog', 'CommValidationError', 'TagCollisionError',
           'DeadlockError', 'check_tag_spaces']


class CommValidationError(RuntimeError):
    """A communication-correctness invariant was violated."""


class TagCollisionError(CommValidationError):
    """Two concurrently live exchangers own overlapping tag ranges."""


class DeadlockError(RemoteRankError):
    """A cycle was found in the wait-for graph (names the cycle)."""

    def __init__(self, cycle, details):
        self.cycle = tuple(cycle)
        super().__init__(
            "communication deadlock detected: cycle %s [%s]"
            % (' -> '.join(str(r) for r in
                           tuple(cycle) + (cycle[0],)), '; '.join(details)))


class CommLog:
    """Send/recv ledger + wait-for graph of one :class:`SimWorld`."""

    def __init__(self, size, enabled=True):
        self.size = int(size)
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        #: aggregate counters (monotonic)
        self.nsends = 0
        self.nrecvs = 0
        self.nbytes_sent = 0
        self.nbytes_recv = 0
        self.nunmatched = 0
        #: (src, dst, tag) -> [count, bytes, section]
        self._sends = {}
        #: (src, dst, tag) -> [count, bytes]
        self._recvs = {}
        #: rank -> (comm_id, source, tag, generation)
        self._waits = {}
        self._wait_gen = 0

    # -- ledger ------------------------------------------------------------------

    def record_send(self, src, dst, tag, nbytes, section=None, count=1):
        """Ledger ``count`` sends of ``nbytes`` bytes in total (the
        compiled step's channels are folded in this way, many messages
        per call)."""
        if not self.enabled:
            return
        with self._lock:
            self.nsends += count
            self.nbytes_sent += nbytes
            rec = self._sends.get((src, dst, tag))
            if rec is None:
                self._sends[(src, dst, tag)] = [count, nbytes, section]
            else:
                rec[0] += count
                rec[1] += nbytes
                if section is not None:
                    rec[2] = section

    def record_recv(self, src, dst, tag, nbytes, count=1):
        if not self.enabled:
            return
        with self._lock:
            self.nrecvs += count
            self.nbytes_recv += nbytes
            rec = self._recvs.get((src, dst, tag))
            if rec is None:
                self._recvs[(src, dst, tag)] = [count, nbytes]
            else:
                rec[0] += count
                rec[1] += nbytes

    def clear_ledgers(self):
        """Forget the per-(src, dst, tag) send/recv ledgers.

        Called by :meth:`SimWorld.reset` during coordinated recovery:
        sends recorded before a failure were wiped from the mailboxes,
        so keeping their ledger entries would report them as *unmatched*
        at the end of the resumed run.  The aggregate monotonic counters
        (``nsends`` etc.) are deliberately preserved.
        """
        with self._lock:
            self._sends.clear()
            self._recvs.clear()

    def sends_snapshot(self, src=None, user_only=True):
        """Immutable view of the send ledger: ``{(src, dst, tag): (count,
        bytes)}``.

        This is the comparison surface of the static
        :class:`~repro.analysis.certificate.CommCertificate` (the
        ``reconcile`` sanitizer mode): snapshot before and after an
        ``apply``, diff with :meth:`sends_delta`, and the result is the
        exact per-(destination, tag) traffic the transport recorded for
        the run.  ``src`` filters to one sender; ``user_only`` (default)
        drops the negative-tag out-of-band traffic (collectives,
        recovery control messages).
        """
        with self._lock:
            out = {}
            for (s, d, tag), (count, nbytes, _) in self._sends.items():
                if src is not None and s != src:
                    continue
                if user_only and tag < 0:
                    continue
                out[(s, d, tag)] = (count, nbytes)
            return out

    @staticmethod
    def sends_delta(before, after):
        """Per-key (count, bytes) difference of two send snapshots,
        zero entries removed — the traffic recorded between the two."""
        out = {}
        for key, (count, nbytes) in after.items():
            c0, b0 = before.get(key, (0, 0))
            if count - c0 or nbytes - b0:
                out[key] = (count - c0, nbytes - b0)
        return out

    def unmatched(self):
        """(src, dst, tag, outstanding, section) with sends > recvs."""
        with self._lock:
            out = []
            for key, (nsend, _, section) in sorted(self._sends.items()):
                nrecv = self._recvs.get(key, (0, 0))[0]
                if nsend > nrecv:
                    out.append(key + (nsend - nrecv, section))
            return out

    # -- wait-for graph ----------------------------------------------------------

    def set_wait(self, rank, comm_id, source, tag):
        """Register that ``rank`` is blocked on (source, tag)."""
        with self._lock:
            self._wait_gen += 1
            self._waits[rank] = (comm_id, source, tag, self._wait_gen)

    def clear_wait(self, rank):
        with self._lock:
            self._waits.pop(rank, None)

    def clear_all_waits(self):
        with self._lock:
            self._waits.clear()

    def snapshot_waits(self):
        with self._lock:
            return dict(self._waits)

    def _cycle_from(self, waits, start):
        """Follow concrete wait edges from ``start``; return a cycle
        through ``start``'s chain, or None."""
        path = []
        seen = {}
        cur = start
        while True:
            entry = waits.get(cur)
            if entry is None:
                return None
            source = entry[1]
            if not isinstance(source, int) or source == ANY_SOURCE or \
                    source < 0 or source >= self.size:
                return None  # wildcard or invalid: no concrete edge
            if cur in seen:
                return path[seen[cur]:]
            seen[cur] = len(path)
            path.append(cur)
            cur = source

    def deadlock_probe(self, world, rank):
        """A verified-live wait-for cycle through ``rank``, or None.

        Soundness: a member's wait entry is cleared *before* it pops a
        message, so "entry unchanged across the mailbox inspection"
        implies it consumed nothing while we looked.
        """
        if not self.enabled:
            return None
        snap = self.snapshot_waits()
        cycle = self._cycle_from(snap, rank)
        if not cycle:
            return None
        # every member must truly have nothing to consume (mailbox or
        # drop-limbo) for its registered wait
        for r in cycle:
            comm_id, source, tag, _ = snap[r]
            if world.probe_pending(r, comm_id, source, tag):
                return None
        # re-read: if any member's entry changed, it made progress
        snap2 = self.snapshot_waits()
        for r in cycle:
            if snap2.get(r) != snap[r]:
                return None
        details = ['rank %d waits on rank %d (tag=%s)'
                   % (r, snap[r][1], snap[r][2]) for r in cycle]
        return DeadlockError(cycle, details)

    # -- end-of-run validation ----------------------------------------------------

    def validate(self, world, rank):
        """Check message matching for ``rank`` at a quiescent point.

        Called at the end of ``Operator.apply`` (after the last halo
        wait, before the profiling collective): every user-tagged
        message still sitting in this rank's mailbox — or stranded in
        its drop-limbo — is a send no receive ever matched.  Raises
        :class:`CommValidationError` naming the culprits.
        """
        if not self.enabled:
            return 0
        leftovers = []
        cond = world._conds[rank]
        with cond:
            for msg in world._boxes[rank] + world._dropped[rank]:
                if msg.tag >= 0:
                    leftovers.append((msg.source, msg.tag, msg.section))
        # the compiled step's channels: sent, never consumed
        for ch, count in world.channels.unconsumed(rank):
            if ch.tag >= 0:
                section = self._sends.get((ch.src, rank, ch.tag),
                                          (0, 0, None))[2]
                leftovers.extend([(ch.src, ch.tag, section)] * count)
        if leftovers:
            with self._lock:
                self.nunmatched += len(leftovers)
            detail = ', '.join(
                '(src=%d, tag=%d, section=%s)' % m for m in leftovers[:8])
            raise CommValidationError(
                "unmatched sends: %d message(s) addressed to rank %d were "
                "never received: %s%s"
                % (len(leftovers), rank, detail,
                   ', ...' if len(leftovers) > 8 else ''))
        return 0

    def counters(self):
        with self._lock:
            return {'nsends': self.nsends, 'nrecvs': self.nrecvs,
                    'nbytes_sent': self.nbytes_sent,
                    'nbytes_recv': self.nbytes_recv,
                    'unmatched': self.nunmatched}

    def __repr__(self):
        return ('CommLog(%d ranks, %d sends, %d recvs, enabled=%s)'
                % (self.size, self.nsends, self.nrecvs, self.enabled))


def check_tag_spaces(exchangers, reserved=None):
    """Verify the tag ranges of concurrently live exchangers are disjoint
    — both from each other and from the transport's reserved bands.

    ``exchangers`` is the ``{key: exchanger}`` mapping of one generated
    kernel; each exchanger owns ``[tag_base, tag_base + 3**ndim)``.

    ``reserved`` is a sequence of out-of-band ``(lo, hi, label)`` ranges
    (half-open) no exchanger may touch; it defaults to
    :data:`repro.mpi.sim.RESERVED_TAG_SPACES`, which covers the
    collective tag band (shared by the resilience layer's
    shrink-and-redistribute ``alltoall``) and the sentinel values
    (``ANY_SOURCE``/``ANY_TAG``/``PROC_NULL``), so recovery traffic can
    never alias a halo exchange.

    Raises :class:`TagCollisionError` naming the colliding pair (or the
    violated reserved band).
    """
    if reserved is None:
        from .sim import RESERVED_TAG_SPACES
        reserved = RESERVED_TAG_SPACES
    items = sorted(((ex.tag_range, name)
                    for name, ex in dict(exchangers).items()))
    for (lo, hi), name in items:
        for rlo, rhi, label in reserved:
            if lo < rhi and rlo < hi:
                raise TagCollisionError(
                    "tag collision: exchanger %r [%d, %d) intersects the "
                    "reserved out-of-band range [%d, %d) (%s); exchanger "
                    "tag ranges must be non-negative"
                    % (name, lo, hi, rlo, rhi, label))
    for ((lo_a, hi_a), name_a), ((lo_b, hi_b), name_b) in zip(items,
                                                              items[1:]):
        if hi_a > lo_b:
            raise TagCollisionError(
                "tag collision between exchangers %r [%d, %d) and %r "
                "[%d, %d): messages of one would match receives of the "
                "other" % (name_a, lo_a, hi_a, name_b, lo_b, hi_b))
