"""Deterministic fault injection for the simulated MPI transport.

The paper's central robustness claim is that the generated halo-exchange
schedules are deadlock-free and drop-in equivalent; this module provides
the adversary used to *test* that claim.  A :class:`FaultPlan` is a
seedable, fully deterministic schedule of transport faults:

``drop``
    The message is diverted into a per-destination "limbo" list instead
    of the mailbox.  The receiver's bounded retry path
    (:meth:`~repro.mpi.sim.SimWorld.collect`) redelivers it, modelling a
    reliable transport retransmitting a lost eager packet.
``duplicate``
    The message is enqueued twice; the receiver discards the stale alias
    on consumption (transport-level dedup).
``reorder``
    The message is enqueued at the *front* of the mailbox; per-pair
    sequence numbers preserve MPI's non-overtaking guarantee at match
    time, so the fault is observable only as latency.
``delay``
    The sender sleeps for :attr:`delay` seconds before delivery.
``kill``
    Rank *r* raises :class:`RankKilledError` at the top of timestep *t*
    (``kill=r@t``), exercising the collective teardown path of
    ``Operator.apply``.

Determinism does not rely on a shared RNG consumed in delivery order
(which would be scheduling-dependent): every decision is a pure hash of
``(seed, src, dst, tag, seq)``, so the same seed yields the *same* fault
schedule regardless of thread interleaving — and therefore bit-identical
results for any non-lethal plan.

The compiled step's channels ask the same :meth:`FaultPlan.decide`
(:func:`repro.mpi.channel.fault_hook`).

Plans are configured via ``configuration['faults']``, the
``REPRO_FAULTS`` environment variable, or the CLI ``--inject-faults``
flag, all of which accept the spec grammar of :meth:`FaultPlan.parse`.
"""

from __future__ import annotations

from .sim import RemoteRankError

__all__ = ['FaultPlan', 'RankKilledError']

_MASK = (1 << 64) - 1

# per-channel salts so the fault channels draw independent decisions
_CH_DROP = 0x9E3779B97F4A7C15
_CH_DUP = 0xC2B2AE3D27D4EB4F
_CH_REORDER = 0x165667B19E3779F9
_CH_DELAY = 0x27D4EB2F165667C5


class RankKilledError(RemoteRankError):
    """Raised in a rank killed by an injected fault.

    A subclass of :class:`~repro.mpi.sim.RemoteRankError` so that the
    *same* exception type surfaces from ``Operator.apply`` on every rank
    of the job: the killed rank raises :class:`RankKilledError`, its
    peers are woken with plain :class:`RemoteRankError`.
    """

    def __init__(self, rank, timestep):
        self.rank = int(rank)
        self.timestep = int(timestep)
        super().__init__("rank %d killed by fault injection at timestep %d"
                         % (rank, timestep))


def _mix(*parts):
    """splitmix64-style avalanche of integer parts (order-sensitive)."""
    x = 0x243F6A8885A308D3
    for p in parts:
        x = (x ^ (p & _MASK)) & _MASK
        x = (x * 0xBF58476D1CE4E5B9) & _MASK
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK
        x ^= x >> 31
    return x


class FaultPlan:
    """A deterministic, seedable schedule of transport faults.

    Parameters
    ----------
    seed : int
        Root of all per-message decisions.
    drop, duplicate, reorder, delay : float in [0, 1]
        Per-message fault probabilities (independent channels; a dropped
        message is only dropped).
    delay_time : float
        Seconds slept by the ``delay`` channel (default 1 ms).
    kills : iterable of (rank, timestep)
        Deterministic rank kills.
    """

    def __init__(self, seed=0, drop=0.0, duplicate=0.0, reorder=0.0,
                 delay=0.0, delay_time=1e-3, kills=()):
        self.seed = int(seed)
        for name, p in (('drop', drop), ('duplicate', duplicate),
                        ('reorder', reorder), ('delay', delay)):
            if not 0.0 <= float(p) <= 1.0:
                raise ValueError("fault probability %r=%r outside [0, 1]"
                                 % (name, p))
        self.p_drop = float(drop)
        self.p_duplicate = float(duplicate)
        self.p_reorder = float(reorder)
        self.p_delay = float(delay)
        self.delay = float(delay_time)
        if self.delay < 0:
            raise ValueError("delay_time must be >= 0")
        self.kills = tuple((int(r), int(t)) for r, t in kills)
        for r, t in self.kills:
            if r < 0 or t < 0:
                raise ValueError("kill spec rank@timestep must be "
                                 "non-negative, got %d@%d" % (r, t))

    # -- parsing -----------------------------------------------------------------

    _PROB_KEYS = {'drop': 'drop', 'duplicate': 'duplicate',
                  'dup': 'duplicate', 'reorder': 'reorder',
                  'delay': 'delay'}

    @classmethod
    def parse(cls, spec):
        """Build a plan from a spec string.

        Grammar (comma-separated ``key=value`` fields)::

            seed=<int>                  decision seed (default 0)
            drop=<p>                    drop probability
            duplicate=<p> (alias dup)   duplication probability
            reorder=<p>                 reordering probability
            delay=<p>                   delay probability
            delay_ms=<float>            delay duration (default 1.0)
            kill=<rank>@<timestep>      kill a rank (repeatable)

        Example: ``"seed=42,drop=0.05,duplicate=0.01,kill=1@10"``.
        """
        if isinstance(spec, cls):
            return spec
        kwargs = {'seed': 0, 'kills': []}
        probs = {}
        for field in str(spec).split(','):
            field = field.strip()
            if not field:
                continue
            if '=' not in field:
                raise ValueError("malformed fault spec field %r (expected "
                                 "key=value)" % field)
            key, _, value = field.partition('=')
            key = key.strip().lower()
            value = value.strip()
            try:
                if key == 'seed':
                    kwargs['seed'] = int(value)
                elif key in cls._PROB_KEYS:
                    probs[cls._PROB_KEYS[key]] = float(value)
                elif key == 'delay_ms':
                    kwargs['delay_time'] = float(value) / 1e3
                elif key == 'kill':
                    rank, _, step = value.partition('@')
                    if not step:
                        raise ValueError("kill expects rank@timestep")
                    kwargs['kills'].append((int(rank), int(step)))
                else:
                    raise ValueError(
                        "unknown fault spec key %r (accepted: seed, drop, "
                        "duplicate/dup, reorder, delay, delay_ms, kill)"
                        % key)
            except ValueError as err:
                raise ValueError("invalid fault spec field %r: %s"
                                 % (field, err)) from None
        return cls(**kwargs, **probs)

    # -- decisions ---------------------------------------------------------------

    def _uniform(self, channel, src, dst, tag, seq):
        return _mix(self.seed, channel, src, dst, tag, seq) / float(1 << 64)

    def decide(self, src, dst, tag, seq):
        """The fault actions applied to one message (a pure function).

        Returns a tuple drawn from ``('drop', 'duplicate', 'reorder',
        'delay')``; ``'drop'`` excludes the other channels.
        """
        if self.p_drop and self._uniform(_CH_DROP, src, dst, tag,
                                         seq) < self.p_drop:
            return ('drop',)
        actions = []
        if self.p_delay and self._uniform(_CH_DELAY, src, dst, tag,
                                          seq) < self.p_delay:
            actions.append('delay')
        if self.p_reorder and self._uniform(_CH_REORDER, src, dst, tag,
                                            seq) < self.p_reorder:
            actions.append('reorder')
        if self.p_duplicate and self._uniform(_CH_DUP, src, dst, tag,
                                              seq) < self.p_duplicate:
            actions.append('duplicate')
        return tuple(actions)

    def schedule(self, messages):
        """Decisions over an explicit message list (determinism tests)."""
        return [self.decide(*m) for m in messages]

    def tick(self, rank, timestep, disarmed=()):
        """Raise :class:`RankKilledError` if ``rank`` dies at ``timestep``.

        Called by the generated kernel at the top of every timestep
        (through ``SimComm.fault_tick``).  ``disarmed`` is a collection
        of ``(rank, timestep)`` kills that already fired and were
        recovered from (see :mod:`repro.resilience`): skipping them lets
        a checkpoint-restored run replay the killed timestep.
        """
        for r, t in self.kills:
            if r == rank and t == timestep and (r, t) not in disarmed:
                raise RankKilledError(rank, timestep)

    @property
    def lethal(self):
        return bool(self.kills)

    # -- introspection ------------------------------------------------------------

    def describe(self):
        parts = ['seed=%d' % self.seed]
        for key, p in (('drop', self.p_drop), ('duplicate',
                                               self.p_duplicate),
                       ('reorder', self.p_reorder), ('delay', self.p_delay)):
            if p:
                parts.append('%s=%g' % (key, p))
        if self.p_delay:
            parts.append('delay_ms=%g' % (self.delay * 1e3))
        for r, t in self.kills:
            parts.append('kill=%d@%d' % (r, t))
        return ','.join(parts)

    def __eq__(self, other):
        return isinstance(other, FaultPlan) and \
            self.describe() == other.describe()

    def __hash__(self):
        return hash(self.describe())

    def __repr__(self):
        return 'FaultPlan(%s)' % self.describe()
