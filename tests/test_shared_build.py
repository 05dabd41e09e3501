"""Lower once per launch: the rank threads of a world share one
rank-agnostic build, and each rank binds only its own geometry.

* one build per structure: however many ranks, whichever comm mode and
  however unevenly weighted the decomposition, a cold world lowers,
  generates and prints C once; every rank reports the build's cache
  status ('miss' cold, 'hit' warm); the disk holds one entry; the
  results are the serial ones bit for bit;
* a shrink and a grow that split the same dimensions bind the
  operator's own artifact again: no code is generated;
* verification is never trusted across ranks: a mutation only one
  rank's binding can see raises ``REPRO-E123`` on that rank, although
  another rank built (and verified) the structure;
* a failed shared build raises its error on every rank.
"""

import threading

import numpy as np
import pytest

import repro.codegen.cgen as cgen
import repro.dsl.operator as operator_mod
from repro import (Eq, Grid, Operator, SparseTimeFunction, TimeFunction,
                   configuration, solve)
from repro.analysis import AnalysisError
from repro.buildcache import BuildCache, disk_usage
from repro.codegen import jit
from repro.mpi import run_parallel

SHAPE = (14, 12)
STEPS = 5
REC = [[1.5, 2.0], [6.5, 5.25], [12.0, 10.5]]


@pytest.fixture
def calls(monkeypatch):
    """Count lowering, driver generation and C printing."""
    counts = dict.fromkeys(('build_schedule', 'generate_kernel',
                            'generate_c_steps'), 0)
    lock = threading.Lock()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(operator_mod, 'build_schedule')
    counted(operator_mod, 'generate_kernel')
    counted(cgen, 'generate_c_steps')
    return counts


def _job(comm, mode=None, weights=None, cache=False, backend=None):
    grid = Grid(shape=SHAPE, extent=tuple(float(s - 1) for s in SHAPE),
                comm=comm, weights=weights)
    u = TimeFunction(name='u', grid=grid, space_order=4)
    u.data[0] = np.arange(np.prod(SHAPE), dtype=np.float32) \
        .reshape(SHAPE) % 7
    rec = SparseTimeFunction('rec', grid, npoint=len(REC), nt=STEPS + 1,
                             coordinates=REC)
    op = Operator([Eq(u.forward, solve(Eq(u.dt, u.laplace), u.forward)),
                   rec.interpolate(expr=u)], mpi=mode, cache=cache,
                  backend=backend)
    op.apply(time_M=STEPS - 1, dt=0.02)
    return (np.concatenate([u.data.gather().ravel(), rec.data.ravel()]),
            op.cache_info()['status'])


@pytest.mark.skipif(jit.find_compiler() is None,
                    reason='no C toolchain on this host')
@pytest.mark.parametrize('ranks, mode, weights', [
    (2, 'diagonal', None),
    (4, 'full', None),
    (4, 'diagonal', ((3.0, 1.0), (1.0, 2.0))),
], ids=['2-diagonal', '4-full', '4-weighted'])
def test_one_build_per_structure(ranks, mode, weights, calls, tmp_path):
    serial, _ = _job(None, backend='numpy')
    configuration['backend'] = 'c'
    cache = BuildCache('disk', str(tmp_path))
    before = dict(calls)
    cold = run_parallel(lambda c: _job(c, mode, weights, cache), ranks)
    assert {k: calls[k] - before[k] for k in calls} == {
        'build_schedule': 1, 'generate_kernel': 1, 'generate_c_steps': 1}
    assert [status for _, status in cold] == ['miss'] * ranks
    assert disk_usage(str(tmp_path))[0] == 1
    before = dict(calls)
    warm = run_parallel(lambda c: _job(c, mode, weights, cache), ranks)
    assert calls == before
    assert [status for _, status in warm] == ['hit'] * ranks
    assert disk_usage(str(tmp_path))[0] == 1
    for state, _ in cold + warm:
        assert np.array_equal(state, serial)


def test_shrink_and_grow_generate_nothing(calls, tmp_path):
    """3 ranks, one killed: shrink to (2, 1), grow back to (3, 1).  Both
    transitions split x only, so the survivors and the healed rank bind
    the artifact they already hold — with the build cache off."""
    configuration['build_cache'] = 'off'
    serial, _ = _job(None)
    before = dict(calls)
    configuration['faults'] = 'seed=5,kill=2@2'

    def job(comm):
        grid = Grid(shape=SHAPE, extent=tuple(float(s - 1) for s in SHAPE),
                    comm=comm)
        u = TimeFunction(name='u', grid=grid, space_order=4)
        u.data[0] = np.arange(np.prod(SHAPE), dtype=np.float32) \
            .reshape(SHAPE) % 7
        rec = SparseTimeFunction('rec', grid, npoint=len(REC),
                                 nt=STEPS + 1, coordinates=REC)
        op = Operator([Eq(u.forward, solve(Eq(u.dt, u.laplace),
                                           u.forward)),
                       rec.interpolate(expr=u)], mpi='diagonal')
        op.apply(time_M=STEPS - 1, dt=0.02, recovery='grow',
                 checkpoint_every=1, checkpoint_dir=str(tmp_path))
        world = op.grid.distributor.comm.world
        return (np.concatenate([u.data.gather().ravel(),
                                rec.data.ravel()]),
                world.size, dict(world.recovery_stats))

    out = run_parallel(job, 3)
    assert calls['generate_kernel'] - before['generate_kernel'] == 1
    assert calls['build_schedule'] - before['build_schedule'] == 1
    for state, size, stats in out:
        assert size == 3
        assert stats['ranks_lost'] == 1 and stats['grown_ranks'] == 1
        assert np.array_equal(state, serial)


def test_verification_is_never_trusted_across_ranks(calls):
    """Rank 0 lowers and verifies; rank 1, arriving after it, binds the
    shared structure against its own allocation of ``u``, whose halo
    along y — not split, so no exchanger checks it — is one cell short
    of the stencil's reach of 2 on the upper side.  The key cannot see
    that (halos are not tokens) and the structure passes ran on rank
    0's arrays, so only rank 1's own in-bounds proof can catch it — and
    does."""
    configuration['build_cache'] = 'off'
    built = threading.Event()

    def halo(self):
        x, (hl, _) = TimeFunction.halo.fget(self)
        return (x, (hl, 1))

    # a look-alike: the same type name, so the same structure key
    short = type('TimeFunction', (TimeFunction,),
                 {'__slots__': (), 'halo': property(halo)})

    def job(comm):
        grid = Grid(shape=SHAPE, comm=comm)
        u = TimeFunction(name='u', grid=grid, space_order=4)
        eq = Eq(u.forward, solve(Eq(u.dt, u.laplace), u.forward))
        if comm.rank == 0:
            op = Operator([eq], mpi='basic', opt='verify')
            built.set()
            return op.analysis.codes
        assert built.wait(60)
        u.__class__ = short
        with pytest.raises(AnalysisError) as err:
            Operator([eq], mpi='basic', opt='verify')
        return err.value.report.codes

    rank0, rank1 = run_parallel(job, 2)
    assert 'REPRO-E123' not in rank0
    assert 'REPRO-E123' in rank1
    assert calls['generate_kernel'] == 1


def test_failed_shared_build_raises_on_every_rank(calls):
    """One rank lowers and its structure passes reject a race; every
    rank of the world raises that same AnalysisError."""
    configuration['build_cache'] = 'off'

    def job(comm):
        grid = Grid(shape=SHAPE, comm=comm)
        u = TimeFunction(name='u', grid=grid, space_order=4)
        t, (x, y) = u.time_dim, grid.dimensions
        eq = Eq(u.forward,
                u.indexed(t + 1, x - 1, y) * 0.5 + u.indexed(t, x, y))
        with pytest.raises(AnalysisError) as err:
            Operator([eq], mpi='diagonal', opt='verify')
        return err.value

    errors = run_parallel(job, 3)
    assert all('REPRO-E111' in e.report.codes for e in errors)
    assert calls['build_schedule'] == 1
