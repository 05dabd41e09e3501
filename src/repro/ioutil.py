"""Crash-safe file I/O and the one sealed-file layer.

**Publishing.**  Every file the package writes goes through
:func:`atomic_write_bytes` (or its text/JSON wrappers): the bytes are
written to a uniquely-named temporary file in the *same directory*,
fsynced and moved into place with ``os.replace``, which is atomic on
POSIX and Windows.  A reader therefore sees the previous complete
version or the new complete version — never a truncated file, even if
the writer is killed mid-write (which the fault injector does on
purpose in the test suite).

**Sealing.**  Every file the package reads back to rehydrate or resume
is *sealed*: one frame of ::

    b'RPROSEAL'   magic, 8 bytes
    version       uint16, SEAL_VERSION
    len(ident)    uint16
    len(payload)  uint64
    digest        16 bytes: BLAKE2b-128 of the payload as stored
    ident         UTF-8
    payload

(integers little-endian).  The *ident* names what the file is, and a
reader states the ident it expects: a build-cache entry is sealed under
its fingerprint, a checkpoint rank file under ``step-000012/rank3``, a
checkpoint manifest under ``step-000012/manifest``, an ArrayStore entry
under its key.  A file copied over a sibling therefore fails like a
torn one.  A reader gets the payload back or one :class:`SealError` —
bad magic or version, a short or long file, a digest mismatch, an
ident mismatch; a missing file stays :class:`FileNotFoundError`.  The
file suffix names the payload codec: ``.json`` holds JSON
(:func:`write_sealed_json`), ``.arr`` a dict of named arrays, each with
its dtype and shape (:func:`write_sealed_arrays`).

Sealed: build-cache entries, checkpoint rank files and manifests,
ArrayStore entries.  Not sealed: compiled objects stay plain ELF for
``dlopen`` — their :func:`file_digest` is recorded in the sealed cache
entry that points at them — and the human-facing JSON (``stats.json``,
profile JSON, job records, shot specs, the batch report) stays plain
atomic JSON, because nothing reads it back to resume.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile

import numpy as np

__all__ = ['atomic_write_bytes', 'atomic_write_text', 'atomic_write_json',
           'SEAL_VERSION', 'SealError', 'file_digest', 'read_sealed',
           'write_sealed_json', 'read_sealed_json', 'write_sealed_arrays',
           'read_sealed_arrays']

#: bump on any change to the frame or a payload codec; files of another
#: version then read as corrupt (no migration)
SEAL_VERSION = 1

_MAGIC = b'RPROSEAL'
_HEAD = struct.Struct('<8sHHQ16s')


def atomic_write_bytes(path, data):
    """Atomically write ``data`` (bytes) to ``path`` via tmp+rename."""
    return _atomic_write(path, (data,))


def _atomic_write(path, chunks):
    """Atomically write the concatenation of ``chunks`` (bytes-like
    objects, each written from its own buffer) to ``path``."""
    path = os.fspath(path)
    dirname = os.path.dirname(path) or '.'
    fd, tmp = tempfile.mkstemp(dir=dirname,
                               prefix='.%s.' % os.path.basename(path),
                               suffix='.tmp')
    try:
        with os.fdopen(fd, 'wb') as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path, text, encoding='utf-8'):
    """Atomically write ``text`` to ``path`` via tmp+rename."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path, obj, indent=2):
    """Atomically serialize ``obj`` as JSON to ``path``."""
    return atomic_write_text(path, json.dumps(obj, indent=indent))


# -- sealed files ----------------------------------------------------------


class SealError(ValueError):
    """A sealed file exists but fails verification."""

    def __init__(self, path, reason):
        super().__init__('%s: %s' % (os.fspath(path), reason))
        self.path = os.fspath(path)
        self.reason = reason


def _digest(data):
    return hashlib.blake2b(data, digest_size=16)


def file_digest(path):
    """BLAKE2b-128 hex digest of a file's bytes."""
    with open(path, 'rb') as f:
        return _digest(f.read()).hexdigest()


def _write_sealed(path, ident, chunks):
    """Seal the concatenation of ``chunks`` (bytes or 1-D ``uint8``
    arrays) under ``ident``: the digest and the file read each chunk
    in place, so the payload is never joined into one copy.  Returns
    the bytes written."""
    ident = ident.encode('utf-8')
    digest = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        digest.update(chunk)
    nbytes = sum(len(chunk) for chunk in chunks)
    _atomic_write(path, [_HEAD.pack(_MAGIC, SEAL_VERSION, len(ident),
                                    nbytes, digest.digest()),
                         ident, *chunks])
    return _HEAD.size + len(ident) + nbytes


def read_sealed(path, ident):
    """The payload of the sealed file ``path``, which must hold
    ``ident``; raises :class:`SealError` for any defect."""
    with open(path, 'rb') as f:
        blob = f.read()
    if len(blob) < _HEAD.size:
        raise SealError(path, 'short file (%d bytes)' % len(blob))
    magic, version, nident, nbytes, digest = _HEAD.unpack_from(blob)
    if magic != _MAGIC:
        raise SealError(path, 'bad magic (not a sealed file)')
    if version != SEAL_VERSION:
        raise SealError(path, 'format version %d, expected %d'
                        % (version, SEAL_VERSION))
    start = _HEAD.size + nident
    if len(blob) != start + nbytes:
        raise SealError(path, 'file is %d bytes, its header says %d '
                        '(torn write?)' % (len(blob), start + nbytes))
    payload = blob[start:]
    if _digest(payload).digest() != digest:
        raise SealError(path, 'digest mismatch (corrupted payload)')
    found = blob[_HEAD.size:start].decode('utf-8', 'replace')
    if found != ident:
        raise SealError(path, 'holds %r, expected %r' % (found, ident))
    return payload


def write_sealed_json(path, ident, obj):
    """Seal ``obj`` as JSON under ``ident``; returns the bytes written."""
    return _write_sealed(path, ident, [json.dumps(obj).encode('utf-8')])


def read_sealed_json(path, ident):
    """The JSON object sealed in ``path``."""
    return json.loads(read_sealed(path, ident))


def write_sealed_arrays(path, ident, arrays):
    """Seal a dict of named arrays under ``ident``: a JSON index line of
    ``[name, dtype, shape]`` followed by the raw C-order bytes of each
    array.  Returns the bytes written."""
    # an array is copied only when it is not C-contiguous; the others
    # are sealed from their own buffers
    arrays = [(name, np.asarray(a, order='C')) for name, a in arrays.items()]
    index = [[name, a.dtype.str, list(a.shape)] for name, a in arrays]
    return _write_sealed(path, ident, [
        json.dumps(index).encode('utf-8') + b'\n',
        *(a.reshape(-1).view(np.uint8) for _, a in arrays)])


def read_sealed_arrays(path, ident):
    """The dict of named arrays sealed in ``path`` (writable copies)."""
    payload = read_sealed(path, ident)
    offset = payload.index(b'\n') + 1
    out = {}
    for name, dtype, shape in json.loads(payload[:offset]):
        dtype, shape = np.dtype(dtype), tuple(shape)
        count = math.prod(shape)
        out[name] = np.frombuffer(payload, dtype, count, offset) \
            .reshape(shape).copy()
        offset += count * dtype.itemsize
    return out
