"""Property-based tests: distributed Data must behave exactly like a
plain NumPy array under global indexing, for arbitrary slices and rank
counts — the 'logically centralized' contract of Section III-b."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import Data, DimSpec, Distributor, run_parallel

SHAPE = (9, 7)


@st.composite
def global_slices(draw, size):
    """Random well-formed slices (positive steps) over [0, size)."""
    start = draw(st.one_of(st.none(), st.integers(-size, size - 1)))
    stop = draw(st.one_of(st.none(), st.integers(-size, size)))
    step = draw(st.one_of(st.none(), st.integers(1, 3)))
    return slice(start, stop, step)


@st.composite
def keys(draw):
    out = []
    for size in SHAPE:
        if draw(st.booleans()):
            out.append(draw(global_slices(size)))
        else:
            out.append(draw(st.integers(0, size - 1)))
    return tuple(out)


def _reference_setitem(key, value):
    ref = np.zeros(SHAPE, dtype=np.float32)
    ref[key] = value
    return ref


def _distributed_setitem(ranks, key, value):
    def job(comm):
        dist = Distributor(SHAPE, comm=comm)
        d = Data([DimSpec(n, dist_index=i, halo=(1, 1))
                  for i, n in enumerate(SHAPE)], dist)
        d[key] = value
        return d.gather()

    return run_parallel(job, ranks)[0]


@given(keys(), st.floats(-10, 10, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_scalar_setitem_matches_numpy_serial(key, value):
    ref = _reference_setitem(key, np.float32(value))
    got = _distributed_setitem(1, key, np.float32(value))
    assert np.array_equal(got, ref)


@given(keys(), st.floats(-10, 10, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_scalar_setitem_matches_numpy_4ranks(key, value):
    ref = _reference_setitem(key, np.float32(value))
    got = _distributed_setitem(4, key, np.float32(value))
    assert np.array_equal(got, ref)


@given(keys(), st.floats(-10, 10, allow_nan=False))
@settings(max_examples=15, deadline=None)
def test_scalar_setitem_matches_numpy_3ranks(key, value):
    ref = _reference_setitem(key, np.float32(value))
    got = _distributed_setitem(3, key, np.float32(value))
    assert np.array_equal(got, ref)


@given(st.tuples(global_slices(SHAPE[0]), global_slices(SHAPE[1])))
@settings(max_examples=25, deadline=None)
def test_array_setitem_matches_numpy_4ranks(key):
    """Assigning a global-shaped array: each rank takes its slab."""
    rng = np.random.default_rng(0)
    sel_shape = np.zeros(SHAPE)[key].shape
    value = rng.uniform(-1, 1, size=sel_shape).astype(np.float32)
    ref = np.zeros(SHAPE, dtype=np.float32)
    ref[key] = value
    got = _distributed_setitem(4, key, value)
    assert np.array_equal(got, ref)


@given(st.tuples(global_slices(SHAPE[0]), global_slices(SHAPE[1])))
@settings(max_examples=25, deadline=None)
def test_getitem_pieces_reassemble(key):
    """The rank-local views of a read, concatenated, hold exactly the
    global selection's elements."""
    glob = np.arange(np.prod(SHAPE), dtype=np.float32).reshape(SHAPE)

    def job(comm):
        dist = Distributor(SHAPE, comm=comm)
        d = Data([DimSpec(n, dist_index=i, halo=(1, 1))
                  for i, n in enumerate(SHAPE)], dist)
        d[...] = glob
        return np.asarray(d[key]).ravel()

    pieces = run_parallel(job, 4)
    combined = np.sort(np.concatenate(pieces))
    expected = np.sort(glob[key].ravel())
    assert np.array_equal(combined, expected)


@pytest.mark.filterwarnings('error::DeprecationWarning')
def test_array_protocol_copy_keyword():
    """NumPy 2's ``__array__(dtype, copy)``: a view by default, a copy
    on ``copy=True`` or a dtype change, ``ValueError`` when
    ``copy=False`` cannot be honoured — and no DeprecationWarning."""
    dist = Distributor(SHAPE)
    d = Data([DimSpec(n, dist_index=i, halo=(1, 1))
              for i, n in enumerate(SHAPE)], dist)
    d[...] = np.arange(np.prod(SHAPE), dtype=np.float32).reshape(SHAPE)
    view = np.asarray(d)
    assert np.shares_memory(view, d.local)
    copied = np.array(d)
    assert not np.shares_memory(copied, d.local)
    assert np.array_equal(copied, d.local)
    assert np.shares_memory(np.array(d, copy=False), d.local)
    wide = np.asarray(d, dtype=np.float64)
    assert wide.dtype == np.float64 and np.array_equal(wide, d.local)
    with pytest.raises(ValueError):
        np.array(d, dtype=np.float64, copy=False)
