"""In-process channels: the transport of the compiled step.

A :class:`~repro.mpi.sim.SimWorld` owns a :class:`ChannelTable`; the
compiled step (:mod:`repro.codegen.cruntime`) moves halo slabs through
it without the GIL.  There is one single-slot :class:`Channel` per
(communicator, source, destination, tag, size), created on first use by
either side, so every message stream keeps MPI's matching and
non-overtaking rules by construction: one sender, one receiver, one
slot, in order.  ``seq`` counts messages the sender published, ``ack``
messages the receiver consumed; the slot is free when they are equal.

The table also holds the world's failure flag, which a waiting step
reads every ``check_interval``; :meth:`ChannelTable.fail` raises it and
wakes every sleeper at once.

Transport faults act here too: :func:`fault_hook` asks the world's
fault plan (:meth:`~repro.mpi.sim.SimWorld.inject`) about each message,
by its ordinal on its channel, and the C side parks a dropped message until
its receiver redelivers it (:mod:`repro.codegen.cruntime`).
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from .sim import RemoteRankError

__all__ = ['Channel', 'ChannelTable', 'ChannelTimeoutError', 'fault_hook']


class ChannelTimeoutError(RemoteRankError):
    """A compiled step waited ``comm_timeout`` for a message that never
    came (or for a slot its receiver never freed)."""

    def __init__(self, src, dst, tag, timeout):
        self.src, self.dst, self.tag = src, dst, tag
        super().__init__(
            "timed out after %gs waiting on the channel src=%d -> dst=%d, "
            "tag=%d — likely communication deadlock"
            % (timeout, src, dst, tag))


class _Struct(ctypes.Structure):
    """Mirror of the step's ``__rp_chan``."""

    _fields_ = [('seq', ctypes.c_int), ('ack', ctypes.c_int),
                ('waiting', ctypes.c_int), ('src', ctypes.c_int),
                ('dst', ctypes.c_int), ('tag', ctypes.c_int),
                ('parked', ctypes.c_int), ('redelivered', ctypes.c_int),
                ('nbytes', ctypes.c_long), ('slot', ctypes.c_void_p)]


#: the C type of the step's ``decide`` hook: (src, dst, tag, ordinal) ->
#: 1 to drop the message, else 0
_DECIDE = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int, ctypes.c_int,
                           ctypes.c_int, ctypes.c_int)


def fault_hook(world):
    """The compiled step's ``decide`` hook for ``world``: None when no
    fault plan is armed, else a C callback that applies
    :meth:`SimWorld.inject <repro.mpi.sim.SimWorld.inject>` to one
    message and returns 1 for a drop.  The caller keeps the callback
    alive while a step may call it."""
    if world.faults is None:
        return None

    def decide(src, dst, tag, seq):
        return int('drop' in world.inject(src, dst, tag, seq))

    return _DECIDE(decide)


class Channel:
    """One single-slot message stream from ``src`` to ``dst``."""

    __slots__ = ('src', 'dst', 'tag', 'nbytes', 'struct', 'address',
                 '_slot')

    def __init__(self, src, dst, tag, nbytes):
        self.src, self.dst, self.tag = int(src), int(dst), int(tag)
        self.nbytes = int(nbytes)
        # 8-byte aligned whatever the element type
        self._slot = np.empty(max(self.nbytes, 8) // 8 + 1, dtype=np.float64)
        self.struct = _Struct(0, 0, 0, self.src, self.dst, self.tag, 0, 0,
                              self.nbytes, self._slot.ctypes.data)
        self.address = ctypes.addressof(self.struct)

    @property
    def sent(self):
        return self.struct.seq

    @property
    def received(self):
        return self.struct.ack

    @property
    def redelivered(self):
        """Dropped messages the receiver redelivered (one retry each)."""
        return self.struct.redelivered


class ChannelTable:
    """The channels and the failure flag of one world."""

    def __init__(self):
        self._lock = threading.Lock()
        self._channels = {}
        #: read by every waiting step; set by :meth:`fail`
        self.failed = ctypes.c_int(0)
        #: the compiled ``repro_wake(__rp_chan *)`` of some loaded step
        #: (every object carries the same one)
        self.waker = None

    def get(self, comm_id, src, dst, tag, nbytes):
        """The channel of one message stream, created on first use."""
        key = (comm_id, src, dst, tag, nbytes)
        with self._lock:
            ch = self._channels.get(key)
            if ch is None:
                ch = self._channels[key] = Channel(src, dst, tag, nbytes)
            return ch

    def unconsumed(self, dst):
        """``(channel, count)`` of the messages sent to ``dst`` and
        never received."""
        with self._lock:
            chans = list(self._channels.values())
        return [(ch, ch.sent - ch.received) for ch in chans
                if ch.dst == dst and ch.sent != ch.received]

    def fail(self):
        """Raise the failure flag and wake every sleeping step."""
        self.failed.value = 1
        waker = self.waker
        if waker is not None:
            with self._lock:
                chans = list(self._channels.values())
            for ch in chans:
                waker(ch.address)

    def reset(self):
        """Forget every channel and lower the flag (a recovered world
        restarts its message streams at zero, like its mailboxes)."""
        with self._lock:
            self._channels.clear()
        self.failed.value = 0

    def __len__(self):
        return len(self._channels)
