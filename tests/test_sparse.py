"""Tests for sparse operations: injection and interpolation semantics."""

import numpy as np
import pytest

from repro import (Eq, Function, Grid, Operator, SparseTimeFunction,
                   TimeFunction)
from repro.codegen import jit
from repro.dsl import sparse as sparse_mod
from repro.mpi import run_parallel

needs_cc = pytest.mark.skipif(jit.find_compiler() is None,
                              reason='no C toolchain on this host')


def _grid(comm=None):
    return Grid(shape=(8, 8), extent=(7.0, 7.0), comm=comm)


class TestInjection:
    def test_on_grid_point_injection(self):
        grid = _grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        src = SparseTimeFunction('src', grid, npoint=1, nt=3,
                                 coordinates=np.array([[3.0, 4.0]]))
        src.data[:] = 1.0
        op = Operator([src.inject(field=u.forward, expr=src)])
        op.apply(time_M=0)
        # exactly the grid point (3, 4) receives weight 1
        data = np.array(u.data[1])
        assert data[3, 4] == pytest.approx(1.0)
        assert data.sum() == pytest.approx(1.0)

    def test_midcell_injection_weights(self):
        grid = _grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        src = SparseTimeFunction('src', grid, npoint=1, nt=2,
                                 coordinates=np.array([[2.5, 3.5]]))
        src.data[:] = 2.0
        op = Operator([src.inject(field=u.forward, expr=src)])
        op.apply(time_M=0)
        data = np.array(u.data[1])
        for i in (2, 3):
            for j in (3, 4):
                assert data[i, j] == pytest.approx(0.5)
        assert data.sum() == pytest.approx(2.0)

    def test_injection_scaled_by_grid_function(self):
        grid = _grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        m = Function(name='m', grid=grid, space_order=2)
        m.data[:, :] = 4.0
        src = SparseTimeFunction('src', grid, npoint=1, nt=2,
                                 coordinates=np.array([[3.0, 3.0]]))
        src.data[:] = 8.0
        op = Operator([src.inject(field=u.forward, expr=src / m)])
        op.apply(time_M=0)
        assert np.array(u.data[1])[3, 3] == pytest.approx(2.0)

    def test_time_varying_signature(self):
        grid = _grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        src = SparseTimeFunction('src', grid, npoint=1, nt=4,
                                 coordinates=np.array([[3.0, 3.0]]))
        src.data[:, 0] = [1.0, 2.0, 3.0, 4.0]
        op = Operator([src.inject(field=u.forward, expr=src)])
        op.apply(time_M=0)
        first = float(np.array(u.data[1])[3, 3])
        op.apply(time_m=1, time_M=1)
        second = float(np.array(u.data[0])[3, 3])
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_multiple_points(self):
        grid = _grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        src = SparseTimeFunction('src', grid, npoint=2, nt=2,
                                 coordinates=np.array([[1.0, 1.0],
                                                       [6.0, 6.0]]))
        src.data[:] = 1.0
        op = Operator([src.inject(field=u.forward, expr=src)])
        op.apply(time_M=0)
        data = np.array(u.data[1])
        assert data[1, 1] == pytest.approx(1.0)
        assert data[6, 6] == pytest.approx(1.0)

    def test_distributed_injection_no_double_count(self):
        """A point shared by 4 ranks must inject exactly once per corner
        (Figure 3 semantics)."""
        def job(comm):
            grid = _grid(comm)
            u = TimeFunction(name='u', grid=grid, space_order=2)
            src = SparseTimeFunction('src', grid, npoint=1, nt=2,
                                     coordinates=np.array([[3.5, 3.5]]))
            src.data[:] = 4.0
            op = Operator([src.inject(field=u.forward, expr=src)],
                          mpi='basic')
            op.apply(time_M=0)
            return u.data.gather()[1]

        out = run_parallel(job, 4)
        serial_grid = _grid()
        assert out[0].sum() == pytest.approx(4.0)
        for i in (3, 4):
            for j in (3, 4):
                assert out[0][i, j] == pytest.approx(1.0)


class TestInterpolation:
    def test_on_grid_interpolation(self):
        grid = _grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        u.data[0, :, :] = np.arange(64, dtype=np.float32).reshape(8, 8)
        rec = SparseTimeFunction('rec', grid, npoint=1, nt=1,
                                 coordinates=np.array([[2.0, 5.0]]))
        op = Operator([rec.interpolate(expr=u)])
        op.apply(time_M=0)
        assert rec.data[0, 0] == pytest.approx(21.0)

    def test_midcell_interpolation_is_average(self):
        grid = _grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        u.data[0, :, :] = np.arange(64, dtype=np.float32).reshape(8, 8)
        rec = SparseTimeFunction('rec', grid, npoint=1, nt=1,
                                 coordinates=np.array([[2.5, 5.5]]))
        op = Operator([rec.interpolate(expr=u)])
        op.apply(time_M=0)
        glob = np.arange(64.0).reshape(8, 8)
        expected = glob[2:4, 5:7].mean()
        assert rec.data[0, 0] == pytest.approx(expected)

    def test_interpolate_expression(self):
        grid = _grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        v = TimeFunction(name='w', grid=grid, space_order=2)
        u.data[0, :, :] = 2.0
        v.data[0, :, :] = 3.0
        rec = SparseTimeFunction('rec', grid, npoint=1, nt=1,
                                 coordinates=np.array([[4.0, 4.0]]))
        op = Operator([rec.interpolate(expr=u + v)])
        op.apply(time_M=0)
        assert rec.data[0, 0] == pytest.approx(5.0)

    def test_distributed_interpolation_matches_serial(self):
        def run(comm=None):
            grid = _grid(comm)
            u = TimeFunction(name='u', grid=grid, space_order=2)
            u.data[0, :, :] = np.arange(64, dtype=np.float32).reshape(8, 8)
            rec = SparseTimeFunction(
                'rec', grid, npoint=3, nt=1,
                coordinates=np.array([[3.5, 3.5], [1.2, 6.3], [0.0, 0.0]]))
            op = Operator([rec.interpolate(expr=u)],
                          mpi='basic' if comm else None)
            op.apply(time_M=0)
            return rec.data.copy()

        serial = run()
        out = run_parallel(lambda c: run(c), 4)
        for r in out:
            assert np.array_equal(r, serial)

    def test_inject_then_record_roundtrip(self):
        grid = _grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        src = SparseTimeFunction('src', grid, npoint=1, nt=2,
                                 coordinates=np.array([[3.0, 3.0]]))
        rec = SparseTimeFunction('rec', grid, npoint=1, nt=2,
                                 coordinates=np.array([[3.0, 3.0]]))
        src.data[:] = 5.0
        op = Operator([src.inject(field=u.forward, expr=src),
                       rec.interpolate(expr=u.forward)])
        op.apply(time_M=0)
        assert rec.data[0, 0] == pytest.approx(5.0)


def _receiver_problem(comm, coords, steps, profiling=None, reinject=False,
                      backend=None):
    """u diffuses from a seeded field; ``rec`` samples it every step.
    With ``reinject`` the same step injects ``rec`` into ``v`` — a read
    of the just-interpolated row.  Returns ``(op, rec, v)``, not applied;
    a ``backend`` asked for must be the one built."""
    n = 16
    grid = Grid(shape=(n, n), extent=(n - 1.0, n - 1.0), comm=comm)
    u = TimeFunction(name='u', grid=grid, space_order=2)
    v = TimeFunction(name='v', grid=grid, space_order=2)
    u.data[0] = np.random.default_rng(3).standard_normal(
        (n, n)).astype(np.float32)
    rec = SparseTimeFunction('rec', grid, npoint=len(coords), nt=steps,
                             coordinates=coords)
    eqs = [Eq(u.forward, u + 0.1 * u.laplace), rec.interpolate(expr=u)]
    if reinject:
        eqs.append(rec.inject(field=v.forward, expr=rec))
    op = Operator(eqs, mpi='diagonal' if comm is not None else None,
                  profiling=profiling, backend=backend)
    assert backend is None or op.backend == backend
    return op, rec, v


def _receivers(comm, coords, steps, reinject=False, backend=None):
    op, rec, v = _receiver_problem(comm, coords, steps, reinject=reinject,
                                   backend=backend)
    op.apply(time_M=steps - 1)
    return next(iter(op.kernel.sparse_plans.values())), rec.data.copy(), \
        v.data.gather()


class TestBlockReduction:
    """Receiver rows are reduced across ranks once per block of steps
    (``PENDING_ROWS_BYTES``), bitwise equal to the serial run."""

    @pytest.mark.parametrize('where', ['spread', 'rank0_only'])
    def test_several_blocks_match_serial(self, monkeypatch, where):
        self._several_blocks(monkeypatch, where)

    @needs_cc
    @pytest.mark.parametrize('where', ['spread', 'rank0_only'])
    def test_compiled_several_blocks_match_serial(self, monkeypatch, where):
        """The compiled step leaves its rows in the pending block
        (sparse mode 2); the driver reduces them as it does NumPy's."""
        self._several_blocks(monkeypatch, where, backend='c')

    def test_one_reduction_per_block(self):
        """200 steps x 4096 receivers on 2 ranks: ceil(200 / block)
        allreduces, counted in the transport's send ledger (an
        unprofiled apply runs no other collective)."""
        self._reductions_per_block()

    @needs_cc
    def test_compiled_one_reduction_per_block(self):
        self._reductions_per_block(backend='c')

    @staticmethod
    def _several_blocks(monkeypatch, where, backend=None):
        # 6 points -> 48 B per row: a block of 3 rows, 4 blocks in 11
        monkeypatch.setattr(sparse_mod, 'PENDING_ROWS_BYTES', 3 * 48)
        coords = np.random.default_rng(11).uniform(0, 15, (6, 2))
        if where == 'rank0_only':
            coords[:, 0] *= 6.5 / 15   # rank 1 (x >= 8) holds no point
        _, serial, _ = _receivers(None, coords, 11)
        out = run_parallel(
            lambda c: _receivers(c, coords, 11, backend=backend), 2)
        assert all(plan['block'] == 3 for plan, _, _ in out)
        if where == 'rank0_only':
            assert len(out[1][0]['pids']) == 0
        for _, rec, _ in out:
            assert np.array_equal(rec, serial)

    @staticmethod
    def _reductions_per_block(backend=None):
        steps = 200
        coords = np.random.default_rng(5).uniform(0, 15, (4096, 2))
        _, serial, _ = _receivers(None, coords, steps)

        def job(comm):
            op, rec, _ = _receiver_problem(comm, coords, steps,
                                           profiling='off', backend=backend)
            log = comm.world.commlog
            before = log.sends_snapshot(src=1, user_only=False)
            op.apply(time_M=steps - 1)
            delta = log.sends_delta(
                before, log.sends_snapshot(src=1, user_only=False))
            ncollective = sum(n for (_, _, tag), (n, _) in delta.items()
                              if tag < 0)
            block = next(iter(op.kernel.sparse_plans.values()))['block']
            return block, ncollective, rec.data.copy()

        for block, ncollective, rec in run_parallel(job, 2):
            assert block == 32
            assert ncollective == -(-steps // block) == 7
            assert np.array_equal(rec, serial)

    def test_row_read_in_the_same_step_is_reduced_first(self):
        """An interpolated row that a later sparse step reads is reduced
        in its own step: v receives the reduced values, not partials."""
        coords = np.array([[7.5, 7.5], [2.2, 9.1], [12.0, 3.3]])
        _, rec_s, v_s = _receivers(None, coords, 5, reinject=True)
        out = run_parallel(
            lambda c: _receivers(c, coords, 5, reinject=True), 2)
        for _, rec, v in out:
            assert np.array_equal(rec, rec_s)
            assert np.array_equal(v, v_s)
