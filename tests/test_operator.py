"""Tests for the Operator: codegen, execution, arguments, summaries."""

import numpy as np
import pytest

from repro import (Constant, Eq, Function, Grid, Operator, TimeFunction,
                   solve)


@pytest.fixture
def grid():
    return Grid(shape=(6, 6), extent=(5.0, 5.0))


class TestDiffusionReference:
    """The paper's Listing 1 setup against a hand-written NumPy stencil."""

    def _reference(self, nx, ny, dt, steps):
        h = 2.0 / (nx - 1)
        u = np.zeros((2, nx, ny), dtype=np.float32)
        u[0, 1:-1, 1:-1] = 1
        for n in range(steps):
            t0, t1 = n % 2, (n + 1) % 2
            padded = np.pad(u[t0], 1)
            lap = ((padded[2:, 1:-1] - 2 * u[t0] + padded[:-2, 1:-1])
                   + (padded[1:-1, 2:] - 2 * u[t0] + padded[1:-1, :-2]))
            u[t1] = (u[t0] + dt * lap / h ** 2).astype(np.float32)
        return u

    @pytest.mark.parametrize('steps', [1, 2, 5])
    def test_matches_reference(self, steps):
        nx = ny = 8
        dt = 0.05
        grid = Grid(shape=(nx, ny), extent=(2.0, 2.0))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        u.data[0, 1:-1, 1:-1] = 1
        eq = Eq(u.dt, u.laplace)
        op = Operator([Eq(u.forward, solve(eq, u.forward))])
        op.apply(time_M=steps - 1, dt=dt)
        ref = self._reference(nx, ny, dt, steps)
        assert np.allclose(u.data[steps % 2], ref[steps % 2], atol=1e-5)


class TestGeneratedCode:
    def test_pycode_contains_invariants(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, solve(Eq(u.dt, u.laplace),
                                           u.forward))])
        src = op.pycode
        assert 'r0 = ' in src and '1.0/dt' in src
        assert 'for time in range(time_m, time_M + 1):' in src

    def test_pycode_slices_are_halo_aligned(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, u + 1)], opt=False)
        # domain [0, 6) with halo 2 -> slices 2:8
        assert '2:8' in op.pycode

    @pytest.mark.parametrize('dtype, ctype, r0', [
        (np.float32, 'float', '1.0F/dt'), (np.float64, 'double', '1.0/dt')],
        ids=['float32', 'float64'])
    def test_ccode_listing11_shape(self, dtype, ctype, r0):
        """The listing's arrays, scalars and temporaries are of the
        grid's dtype."""
        grid = Grid(shape=(4, 4), extent=(2.0, 2.0), dtype=dtype)
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, solve(Eq(u.dt, u.laplace),
                                           u.forward))])
        c = op.ccode
        assert '%s r0 = %s;' % (ctype, r0) in c
        assert '%s *restrict u_vec' % ctype in c
        assert 'const %s r3 = ' % ctype in c
        assert 'u[t1][2 + x][2 + y]' in c
        assert '#pragma omp simd' in c
        assert 'for (int time = time_m' in c
        assert '% (2)' in c.replace('%(2)', '% (2)')

    def test_opt_false_skips_temporaries(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, solve(Eq(u.dt, u.laplace),
                                           u.forward))], opt=False)
        assert 'r0' not in op.pycode

    def test_opt_reduces_flops(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=8)
        pde = Eq(u.dt, u.laplace)
        op_plain = Operator([Eq(u.forward, solve(pde, u.forward))],
                            opt=False)
        op_opt = Operator([Eq(u.forward, solve(pde, u.forward))], opt=True)
        assert op_opt.flops_per_point < op_plain.flops_per_point

    def test_reserved_name_rejected(self, grid):
        bad = TimeFunction(name='time', grid=grid)
        with pytest.raises(ValueError):
            Operator([Eq(bad.forward, bad + 1)])

    def test_temp_style_name_rejected(self, grid):
        bad = TimeFunction(name='r1', grid=grid)
        with pytest.raises(ValueError):
            Operator([Eq(bad.forward, bad + 1)])


def _time_loop_temporaries(source):
    """Walk the time loop of a NumPy driver in statement order: every
    temporary bound there is read at least twice before its ``del``, no
    name is read after its ``del``, and none is still bound at the end
    of an iteration.  Returns how many temporaries the loop binds."""
    import ast
    import re
    temp = re.compile(r'r\d+')
    loop = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.For))
    live, dead, bound = {}, set(), 0
    for stmt in loop.body:
        names = [n for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and temp.fullmatch(n.id)]
        for n in names:
            if isinstance(n.ctx, ast.Load):
                assert n.id not in dead, 'read after del: %s' % n.id
                if n.id in live:
                    live[n.id] += 1
        for n in names:
            if isinstance(n.ctx, ast.Del):
                assert live.pop(n.id) >= 2, 'read once: %s' % n.id
                dead.add(n.id)
        for n in names:
            if isinstance(n.ctx, ast.Store):
                live[n.id] = 0
                dead.discard(n.id)
                bound += 1
    assert not live, 'never deleted: %s' % sorted(live)
    return bound


@pytest.mark.parametrize('kernel', ['acoustic', 'elastic', 'tti',
                                    'viscoelastic'])
def test_numpy_temporaries_end_at_their_last_read(kernel):
    """The NumPy driver prints a temporary read once in place of its
    name and deletes every other one after its last reader, serially
    and on every rank of each exchange mode (full mode: per box)."""
    from repro import configuration
    from repro.mpi import run_parallel
    from repro.service.spec import kernel_setup
    configuration['backend'] = 'numpy'

    def driver(comm=None, mpi=None):
        ret = kernel_setup(kernel)(shape=(20, 18), nbl=4, tn=5.0,
                                   space_order=8, nrec=2, comm=comm,
                                   mpi=mpi)
        return (ret[0] if isinstance(ret, tuple) else ret).op.pycode

    sources = [driver()]
    for mode in ('basic', 'diagonal', 'full'):
        sources += run_parallel(lambda comm: driver(comm, mode), 2)
    for source in sources:
        assert _time_loop_temporaries(source) > 0


class TestExecution:
    def test_pointwise_update(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, u + 1)])
        op.apply(time_M=2, dt=1.0)
        # 3 steps: buffer (3 % 2) holds value 3
        assert (u.data[1] == 3).all()

    def test_two_coupled_fields(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        v = TimeFunction(name='w', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, u + 1),
                       Eq(v.forward, u.forward * 2)])
        op.apply(time_M=0, dt=1.0)
        assert (np.asarray(v.data[1]) == 2).all()

    def test_function_parameter_used(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        m = Function(name='m', grid=grid, space_order=2)
        m.data[:, :] = 3.0
        op = Operator([Eq(u.forward, m)])
        op.apply(time_M=0, dt=1.0)
        assert (np.asarray(u.data[1]) == 3).all()

    def test_constant_binding(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        c = Constant('c0', value=5.0)
        op = Operator([Eq(u.forward, u + c)])
        op.apply(time_M=0, dt=1.0)
        assert (np.asarray(u.data[1]) == 5).all()

    def test_constant_override_at_apply(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        c = Constant('c0', value=5.0)
        op = Operator([Eq(u.forward, u + c)])
        op.apply(time_M=0, dt=1.0, c0=7.0)
        assert (np.asarray(u.data[1]) == 7).all()

    def test_spacing_override(self):
        grid = Grid(shape=(6, 6), extent=(5.0, 5.0))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        x, _ = grid.dimensions
        op = Operator([Eq(u.forward, x.spacing + 0 * u)])
        op.apply(time_M=0, dt=1.0, h_x=0.25)
        assert np.allclose(np.asarray(u.data[1]), 0.25)

    def test_missing_dt_raises(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, solve(Eq(u.dt, u.laplace),
                                           u.forward))])
        with pytest.raises(ValueError, match='dt'):
            op.apply(time_M=1)

    def test_missing_time_M_raises(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, u + 1)])
        with pytest.raises(ValueError, match='time_M'):
            op.apply(dt=1.0)

    def test_dt_not_required_without_time_derivatives(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, u + 1)])
        op.apply(time_M=0)  # must not raise

    def test_unknown_kwarg_message_lists_options_alphabetically(self,
                                                                grid):
        from repro.dsl.operator import RESILIENCE_KWARGS, SERVICE_KWARGS
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, u + 1)])
        with pytest.raises(ValueError) as err:
            op.apply(time_M=0, chekpoint_every=5)
        message = str(err.value)
        assert "'chekpoint_every'" in message
        # every resilience/service key is listed, alphabetically, so
        # the near-miss above is findable right next to its fix
        listed = message.split('resilience/service options: ')[1]
        expected = ', '.join(sorted(RESILIENCE_KWARGS + SERVICE_KWARGS))
        assert listed == expected
        assert 'job_id' in listed

    def test_job_id_kwarg_accepted_and_on_summary(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, u + 1)])
        summary = op.apply(time_M=0, job_id='job-k')
        assert summary.job_id == 'job-k'
        assert op.apply(time_M=0).job_id is None

    def test_time_m_offset(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, u + 1)])
        op.apply(time_m=5, time_M=5, dt=1.0)
        # one step executed, writing buffer (5+1) % 2 = 0
        assert (np.asarray(u.data[0]) == 1).all()

    def test_three_buffer_rotation(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2, time_order=2)
        op = Operator([Eq(u.forward, u + u.backward + 1)])
        op.apply(time_M=3, dt=1.0)
        # Fibonacci-like: u(t+1) = u(t) + u(t-1) + 1, so with seq[0]=u(-1)
        # and seq[1]=u(0), after 4 steps u(4) = seq[5] = 7
        seq = [0, 0]
        for _ in range(4):
            seq.append(seq[-1] + seq[-2] + 1)
        assert (np.asarray(u.data[4 % 3]) == seq[5]).all()

    def test_summary_metrics(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        op = Operator([Eq(u.forward, solve(Eq(u.dt, u.laplace),
                                           u.forward))])
        summary = op.apply(time_M=9, dt=0.01)
        assert summary.timesteps == 10
        assert summary.points == 36
        assert summary.elapsed > 0
        assert summary.gpointss > 0
        assert summary.gflopss >= summary.gpointss
        assert summary.oi > 0

    def test_3d_grid(self):
        grid = Grid(shape=(6, 6, 6))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        u.data[0, 3, 3, 3] = 1.0
        op = Operator([Eq(u.forward, solve(Eq(u.dt, u.laplace),
                                           u.forward))])
        op.apply(time_M=1, dt=0.05)
        assert np.isfinite(np.asarray(u.data[0])).all()
        assert np.asarray(u.data[0]).sum() != 0
