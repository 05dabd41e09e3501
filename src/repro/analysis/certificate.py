"""Static communication certificates: predicted per-neighbor traffic.

From nothing but the :class:`~repro.ir.schedule.Schedule` and the
decomposition, :func:`build_certificate` predicts — per rank, per
neighbor, per tag — exactly how many messages of exactly how many bytes
every ``apply`` will send.  The prediction reads the exchanger table
of the timestep's record (:func:`~repro.ir.program.step_program`: the
keys and ``tag_base`` values the runtime exchangers are made from) and
derives each pattern's message geometry on its own:

* ``basic`` — per active dimension, per sign, one face message toward
  each existing neighbor; the slab *extends* into the halo along every
  dimension already exchanged this call (the multi-step corner
  propagation of the paper's basic mode).
* ``diagonal``/``full`` — one message per active-dimension Moore
  neighbor; sends are posted by ``begin`` (``full``'s ``finish`` posts
  nothing), so both predict the identical per-call set.

The exchanger table is the same on every rank (persisted in the
rank-agnostic :class:`~repro.codegen.artifact.KernelArtifact`); the
message geometry is bound per rank (:func:`bind_certificate`), and the
certificate is attached to that rank's ``Operator``.  Its consumer is the
**reconcile sanitizer mode** (``sanitizer='reconcile'``): after every
successful ``apply``, the per-run delta of the commlog send ledger
(:meth:`~repro.mpi.commlog.CommLog.sends_snapshot`) is compared against
:meth:`CommCertificate.predict` and any count or byte mismatch raises
:class:`ReconcileError` — a static-vs-dynamic oracle that catches both
analyzer bugs (wrong prediction) and runtime bugs (wrong traffic).
Reconciliation assumes a fault-free, recovery-free run: fault injection
that duplicates or re-routes messages legitimately changes the ledger.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ['CertificateEntry', 'CommCertificate', 'ReconcileError',
           'bind_certificate', 'build_certificate']

#: one predicted message: (destination rank, tag, payload bytes)
Message = Tuple[int, int, int]
#: (destination rank, tag) -> (message count, total bytes)
Traffic = Dict[Tuple[int, int], Tuple[int, int]]

#: serialized payload format version
CERTIFICATE_FORMAT = 1


class ReconcileError(RuntimeError):
    """The runtime commlog ledger contradicts the static certificate."""

    def __init__(self, rank: int, mismatches: List[str]) -> None:
        self.rank = rank
        self.mismatches = list(mismatches)
        super().__init__(
            'communication reconciliation failed on rank %d: the runtime '
            'send ledger contradicts the static certificate in %d '
            'entry(ies):\n%s'
            % (rank, len(mismatches),
               '\n'.join('  ' + m for m in mismatches)))


class CertificateEntry:
    """Predicted per-call message set of one exchanger."""

    __slots__ = ('key', 'scope', 'messages')

    def __init__(self, key: str, scope: str,
                 messages: Tuple[Message, ...]) -> None:
        self.key = key
        #: 'preamble' (one call per apply) or 'loop' (one per timestep)
        self.scope = scope
        self.messages = tuple((int(d), int(t), int(b))
                              for d, t, b in messages)

    @property
    def nbytes_per_call(self) -> int:
        return sum(b for _, _, b in self.messages)

    def to_payload(self) -> Dict[str, Any]:
        return {'key': self.key, 'scope': self.scope,
                'messages': [list(m) for m in self.messages]}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> 'CertificateEntry':
        return cls(str(payload['key']), str(payload['scope']),
                   tuple((int(d), int(t), int(b))
                         for d, t, b in payload['messages']))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CertificateEntry)
                and self.key == other.key and self.scope == other.scope
                and self.messages == other.messages)

    def __repr__(self) -> str:
        return ('CertificateEntry(%s, %s, %d msg(s), %d B/call)'
                % (self.key, self.scope, len(self.messages),
                   self.nbytes_per_call))


class CommCertificate:
    """The static communication contract of one rank's kernel."""

    __slots__ = ('rank', 'mode', 'entries')

    def __init__(self, rank: int, mode: Optional[str],
                 entries: Tuple[CertificateEntry, ...]) -> None:
        self.rank = int(rank)
        self.mode = mode
        self.entries = tuple(entries)

    # -- prediction ---------------------------------------------------------------

    def predict(self, timesteps: int) -> Traffic:
        """Per-(destination, tag) (count, bytes) for one ``apply`` of
        ``timesteps`` iterations."""
        calls = {'preamble': 1, 'loop': max(int(timesteps), 0)}
        acc: Dict[Tuple[int, int], List[int]] = {}
        for entry in self.entries:
            n = calls[entry.scope]
            for dst, tag, nbytes in entry.messages:
                slot = acc.setdefault((dst, tag), [0, 0])
                slot[0] += n
                slot[1] += n * nbytes
        return {k: (c, b) for k, (c, b) in acc.items() if c}

    def totals(self, timesteps: int) -> Dict[int, Tuple[int, int]]:
        """Per-neighbor (messages, bytes) aggregate of :meth:`predict`."""
        out: Dict[int, List[int]] = {}
        for (dst, _), (count, nbytes) in self.predict(timesteps).items():
            slot = out.setdefault(dst, [0, 0])
            slot[0] += count
            slot[1] += nbytes
        return {dst: (c, b) for dst, (c, b) in sorted(out.items())}

    # -- reconciliation -----------------------------------------------------------

    def reconcile(self, actual: Mapping[Tuple[int, int], Tuple[int, int]],
                  timesteps: int) -> None:
        """Raise :class:`ReconcileError` unless ``actual`` — the per-run
        ``{(dst, tag): (count, bytes)}`` delta of this rank's commlog
        send ledger — matches :meth:`predict` *exactly*."""
        predicted = self.predict(timesteps)
        mismatches: List[str] = []
        for key in sorted(set(predicted) | set(actual)):
            want = predicted.get(key, (0, 0))
            got = actual.get(key, (0, 0))
            if want != got:
                mismatches.append(
                    'to rank %d tag %d: certificate predicts %d msg(s) / '
                    '%d B, ledger recorded %d msg(s) / %d B'
                    % (key[0], key[1], want[0], want[1], got[0], got[1]))
        if mismatches:
            raise ReconcileError(self.rank, mismatches)

    # -- persistence --------------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        return {'format': CERTIFICATE_FORMAT, 'rank': self.rank,
                'mode': self.mode,
                'entries': [e.to_payload() for e in self.entries]}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> 'CommCertificate':
        if int(payload.get('format', -1)) != CERTIFICATE_FORMAT:
            raise ValueError('unsupported certificate format %r'
                             % (payload.get('format'),))
        mode = payload['mode']
        return cls(int(payload['rank']),
                   None if mode is None else str(mode),
                   tuple(CertificateEntry.from_payload(e)
                         for e in payload['entries']))

    # -- rendering ----------------------------------------------------------------

    def describe(self, timesteps: int = 1) -> str:
        lines = ['CommCertificate <rank %d, mode=%s, %d exchanger(s)>'
                 % (self.rank, self.mode, len(self.entries))]
        for entry in self.entries:
            per = 'apply' if entry.scope == 'preamble' else 'step'
            lines.append('  %-12s %-8s %d msg(s), %d B per %s'
                         % (entry.key, entry.scope, len(entry.messages),
                            entry.nbytes_per_call, per))
        totals = self.totals(timesteps)
        if totals:
            lines.append('  predicted totals over %d timestep(s):'
                         % timesteps)
            for dst, (count, nbytes) in totals.items():
                lines.append('    -> rank %d: %d msg(s), %d B'
                             % (dst, count, nbytes))
        else:
            lines.append('  no communication predicted')
        return '\n'.join(lines)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CommCertificate)
                and self.rank == other.rank and self.mode == other.mode
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return ('CommCertificate(rank=%d, mode=%s, %d entries)'
                % (self.rank, self.mode, len(self.entries)))


def _call_messages(dist: Any, mode: str, widths: Any, tag_base: int,
                   itemsize: int) -> Tuple[Message, ...]:
    """The per-call message set of one exchanger, mirroring the runtime
    geometry of :mod:`repro.mpi.halo` (kept in lockstep by the
    reconcile oracle itself: any divergence fails every reconcile run)."""
    from ..mpi.sim import PROC_NULL
    ndim = int(dist.ndim)
    w = tuple((int(l), int(r)) for l, r in widths)
    shape = tuple(int(n) for n in dist.shape_local)
    active = [d for d in range(ndim)
              if dist.is_distributed(d) and (w[d][0] or w[d][1])]

    def tag(offsets: Tuple[int, ...]) -> int:
        code = 0
        for off in offsets:
            code = code * 3 + (off + 1)
        return tag_base + code

    msgs: List[Message] = []
    if mode == 'basic':
        done: List[int] = []
        for d in active:
            for sign in (1, -1):
                offsets = tuple(sign if i == d else 0 for i in range(ndim))
                dest = dist.neighbor(offsets)
                if dest != PROC_NULL:
                    vol = 1
                    for i in range(ndim):
                        wl, wr = w[i]
                        if i == d:
                            vol *= wl if sign > 0 else wr
                        elif i in done:
                            vol *= wl + shape[i] + wr
                        else:
                            vol *= shape[i]
                    msgs.append((int(dest), tag(offsets), vol * itemsize))
            done.append(d)
    else:  # diagonal / full: one isend per active-dims Moore neighbor
        activeset = set(active)
        for offsets, rank in sorted(dist.neighborhood(diagonals=True)
                                    .items()):
            if not any(offsets) or rank == PROC_NULL:
                continue
            if any(offsets[d] != 0 and d not in activeset
                   for d in range(ndim)):
                continue
            vol = 1
            for i, off in enumerate(offsets):
                wl, wr = w[i]
                vol *= shape[i] if off == 0 else (wl if off > 0 else wr)
            msgs.append((int(rank), tag(tuple(offsets)), vol * itemsize))
    return tuple(msgs)


def bind_certificate(program: Mapping[str, Any],
                     dist: Any) -> CommCertificate:
    """One rank's certificate: the messages each exchanger of the step
    record ``program`` (:func:`~repro.ir.program.step_program`) sends
    from this rank of ``dist``."""
    rank = int(getattr(dist, 'myrank', 0))
    mode = program['mode']
    if mode is None:
        return CommCertificate(rank, None, ())
    return CommCertificate(rank, mode, tuple(
        CertificateEntry(ex['key'], ex['scope'], _call_messages(
            dist, mode, ex['widths'], int(ex['tag_base']),
            int(program['itemsize'])))
        for ex in program['exchangers']))


def build_certificate(schedule: Any) -> CommCertificate:
    """Predict the per-apply communication of ``schedule`` on this rank
    (its step record, bound to the schedule's own rank)."""
    from ..ir.program import step_program
    return bind_certificate(step_program(schedule),
                            schedule.grid.distributor)
