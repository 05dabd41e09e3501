"""One corruption fuzzer over every sealed file kind.

Each draw damages one file — truncates it, flips one bit, replaces it
with a sibling of the same kind, or stamps it with a stale format
version — and the reader must answer with that kind's typed outcome,
never with the damaged bytes: a build-cache entry misses (one error), a
checkpoint step fails validation and recovery falls back to the older
step, an ArrayStore entry raises :class:`StoreCorruptionError` naming
its key.
"""

import glob
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Eq, Grid, Operator, TimeFunction, ioutil
from repro.buildcache import BuildCache
from repro.mpi import run_parallel
from repro.resilience import Checkpointer
from repro.service import ArrayStore, StoreCorruptionError


@pytest.fixture(scope='module')
def sealed(tmp_path_factory):
    """kind -> (target file, sibling file, check of the outcome)."""
    root = tmp_path_factory.mktemp('sealed')
    cache_dir, ck_dir = str(root / 'cache'), str(root / 'ck')
    for c in (1.0, 2.0):  # two builds, two entries
        u = TimeFunction(name='u', grid=Grid(shape=(8, 8)), space_order=2)
        Operator([Eq(u.forward, u + c)], cache=BuildCache('disk', cache_dir))

    def job(comm):
        grid = Grid(shape=(8, 8), comm=comm)
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, u + 1.0)], cache=False)
        for step in (2, 4):
            Checkpointer(ck_dir).save(step, comm, comm.world,
                                      op.schedule.functions, [],
                                      grid.distributor)

    run_parallel(job, 2)
    store = ArrayStore(root / 'store')
    store.put('job-a/rec', np.arange(6.0))
    store.put('job-b/rec', np.ones((2, 3), dtype=np.float32))

    entry, other = sorted(glob.glob(os.path.join(cache_dir, '??', '*.json')))

    def cache_misses():
        cache = BuildCache('disk', cache_dir)
        key = os.path.basename(entry)[:-len('.json')]
        assert cache.lookup(key) == (None, None)
        assert cache.stats['errors'] == 1

    def checkpoint_falls_back():
        ck = Checkpointer(ck_dir)
        assert ck.validate(4) is None
        assert ck.latest_valid()[0] == 2

    def store_raises():
        with pytest.raises(StoreCorruptionError, match='job-b/rec'):
            store.get('job-b/rec')

    ck = Checkpointer(ck_dir)
    return {
        'cache': (entry, other, cache_misses),
        'rank': (ck.rank_file(4, 0), ck.rank_file(4, 1),
                 checkpoint_falls_back),
        'manifest': (ck.manifest_path(4), ck.manifest_path(2),
                     checkpoint_falls_back),
        'store': (store._path('job-b/rec'), store._path('job-a/rec'),
                  store_raises),
    }


def _damage(blob, sibling, draw):
    how, at, bit = draw
    if how == 'truncate':
        return blob[:at % len(blob)]
    if how == 'flip':
        blob[at % len(blob)] ^= 1 << bit
        return blob
    if how == 'sibling':
        with open(sibling, 'rb') as f:
            return f.read()
    # the version field follows the 8-byte magic
    blob[8:10] = (ioutil.SEAL_VERSION - 1).to_bytes(2, 'little')
    return blob


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(['cache', 'rank', 'manifest', 'store']),
       draw=st.tuples(st.sampled_from(['truncate', 'flip', 'sibling',
                                       'stale']),
                      st.integers(0, 1 << 20), st.integers(0, 7)))
@example(kind='store', draw=('sibling', 0, 0))
def test_every_damage_gets_its_typed_outcome(sealed, kind, draw):
    target, sibling, check = sealed[kind]
    with open(target, 'rb') as f:
        pristine = f.read()
    try:
        with open(target, 'wb') as f:
            f.write(_damage(bytearray(pristine), sibling, draw))
        check()
    finally:
        with open(target, 'wb') as f:
            f.write(pristine)


def _frame(ident, arrays):
    """A sealed array file as one joined payload: the index line, each
    array's ``tobytes()``, the frame header and the ident."""
    import hashlib
    import json
    import struct
    index = [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()]
    payload = b''.join([json.dumps(index).encode('utf-8'), b'\n',
                        *(a.tobytes() for a in arrays.values())])
    ident = ident.encode('utf-8')
    return b''.join([struct.pack('<8sHHQ16s', b'RPROSEAL',
                                 ioutil.SEAL_VERSION, len(ident),
                                 len(payload),
                                 hashlib.blake2b(payload,
                                                 digest_size=16).digest()),
                     ident, payload])


_GRID = np.arange(48.0).reshape(6, 8)
_ARRAYS = {'float32': _GRID.astype(np.float32), 'float64': _GRID,
           'view': _GRID[1:5, ::3], 'empty': np.empty((0, 3), np.float32)}


@pytest.mark.parametrize('names', [[k] for k in _ARRAYS] + [list(_ARRAYS)],
                         ids=list(_ARRAYS) + ['all'])
def test_sealed_arrays_keep_their_bytes(tmp_path, names):
    """Arrays sealed from their own buffers give the file one joined
    payload gives, and read back equal (dtype and shape too)."""
    arrays = {name: _ARRAYS[name] for name in names}
    path = str(tmp_path / 'a.arr')
    nbytes = ioutil.write_sealed_arrays(path, 'k/1', arrays)
    with open(path, 'rb') as f:
        blob = f.read()
    assert blob == _frame('k/1', arrays)
    assert nbytes == len(blob)
    back = ioutil.read_sealed_arrays(path, 'k/1')
    assert list(back) == names
    for name in names:
        assert back[name].dtype == arrays[name].dtype
        assert np.array_equal(back[name], arrays[name])


def test_sealing_copies_no_contiguous_array(tmp_path):
    """Sealing an 8 MiB array allocates less than 1 MiB: neither the
    digest nor the file needs a copy of its bytes."""
    import tracemalloc
    data = np.ones(1 << 20)
    path = str(tmp_path / 'big.arr')
    ioutil.write_sealed_arrays(path, 'big', {'a': data[:1]})  # warm up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ioutil.write_sealed_arrays(path, 'big', {'a': data})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 1 << 20
    assert np.array_equal(ioutil.read_sealed_arrays(path, 'big')['a'], data)
