"""The paper's central correctness claim: DMP execution is transparent.

Every kernel, on any rank count, with any communication pattern and any
topology, must produce exactly the wavefield of the serial run (the
interior arithmetic order is identical, so fp32 results are bitwise
equal for pure stencil updates).
"""

import numpy as np
import pytest

from repro import (Derivative, Eq, Function, Grid, Operator, TimeFunction,
                   configuration, solve)
from repro.codegen import jit
from repro.mpi import run_parallel
from repro.models import (acoustic_setup, elastic_setup, tti_setup,
                          viscoelastic_setup)

MODES = ('basic', 'diagonal', 'full')


def _diffusion(comm=None, mpi=None, shape=(12, 12), steps=6, so=4,
               topology=None):
    grid = Grid(shape=shape, extent=tuple(float(s - 1) for s in shape),
                comm=comm, topology=topology)
    u = TimeFunction(name='u', grid=grid, space_order=so)
    init = np.zeros(shape, dtype=np.float32)
    init[tuple(s // 2 for s in shape)] = 1.0
    init[tuple(s // 3 for s in shape)] = -2.0
    u.data[0] = init
    eq = Eq(u.dt, u.laplace)
    op = Operator([Eq(u.forward, solve(eq, u.forward))], mpi=mpi)
    op.apply(time_M=steps - 1, dt=0.02)
    return u.data.gather()


class TestDiffusionEquivalence:
    @pytest.fixture(scope='class')
    def serial(self):
        return _diffusion()

    @pytest.mark.parametrize('mode', MODES)
    @pytest.mark.parametrize('ranks', [2, 3, 4])
    def test_rank_counts(self, serial, mode, ranks):
        out = run_parallel(lambda c: _diffusion(c, mpi=mode), ranks)
        for r, result in enumerate(out):
            assert np.array_equal(result, serial), (mode, ranks, r)

    @pytest.mark.parametrize('topology', [(4, 1), (1, 4), (2, 2)])
    def test_custom_topologies(self, serial, topology):
        out = run_parallel(
            lambda c: _diffusion(c, mpi='basic', topology=topology), 4)
        assert all(np.array_equal(o, serial) for o in out)

    @pytest.mark.parametrize('mode', MODES)
    def test_high_order_stencil(self, mode):
        serial = _diffusion(shape=(16, 16), so=8, steps=4)
        out = run_parallel(
            lambda c: _diffusion(c, mpi=mode, shape=(16, 16), so=8,
                                 steps=4), 4)
        assert all(np.array_equal(o, serial) for o in out)

    @pytest.mark.parametrize('mode', MODES)
    def test_3d(self, mode):
        serial = _diffusion(shape=(8, 8, 8), steps=3, so=2)
        out = run_parallel(
            lambda c: _diffusion(c, mpi=mode, shape=(8, 8, 8), steps=3,
                                 so=2), 8)
        assert all(np.array_equal(o, serial) for o in out)

    def test_uneven_decomposition(self):
        """Non-divisible shapes: 13x11 over 3 ranks."""
        serial = _diffusion(shape=(13, 11), steps=4, so=2)
        out = run_parallel(
            lambda c: _diffusion(c, mpi='basic', shape=(13, 11), steps=4,
                                 so=2), 3)
        assert all(np.array_equal(o, serial) for o in out)


def _run_propagator(setup, comm=None, mpi=None, **kw):
    kw.setdefault('shape', (36, 36))
    kw.setdefault('tn', 70.0)
    kw.setdefault('space_order', 4)
    kw.setdefault('nbl', 8)
    solver, tr = setup(comm=comm, mpi=mpi, **kw)
    out = solver.forward()
    rec = np.array(out[0])
    wf = out[1]
    field = wf.data.gather() if hasattr(wf, 'data') else \
        wf[0].data.gather()
    return field, rec


class TestPropagatorEquivalence:
    """Full-physics kernels: serial == N-rank for every pattern."""

    @pytest.mark.parametrize('mode', MODES)
    def test_acoustic(self, mode):
        serial, rec_s = _run_propagator(acoustic_setup)
        out = run_parallel(
            lambda c: _run_propagator(acoustic_setup, c, mode), 4)
        for field, rec in out:
            assert np.array_equal(field, serial)
            assert np.array_equal(rec, rec_s)

    @pytest.mark.parametrize('mode', MODES)
    def test_elastic(self, mode):
        serial, rec_s = _run_propagator(elastic_setup)
        out = run_parallel(
            lambda c: _run_propagator(elastic_setup, c, mode), 4)
        for field, rec in out:
            assert np.array_equal(field, serial)
            assert np.array_equal(rec, rec_s)

    @pytest.mark.parametrize('mode', MODES)
    def test_tti(self, mode):
        serial, rec_s = _run_propagator(tti_setup)
        out = run_parallel(
            lambda c: _run_propagator(tti_setup, c, mode), 4)
        for field, rec in out:
            assert np.array_equal(field, serial)
            assert np.array_equal(rec, rec_s)

    @pytest.mark.parametrize('mode', MODES)
    def test_viscoelastic(self, mode):
        serial, rec_s = _run_propagator(viscoelastic_setup)
        out = run_parallel(
            lambda c: _run_propagator(viscoelastic_setup, c, mode), 4)
        for field, rec in out:
            assert np.array_equal(field, serial)
            assert np.array_equal(rec, rec_s)

    def test_acoustic_two_ranks(self):
        serial, _ = _run_propagator(acoustic_setup)
        out = run_parallel(
            lambda c: _run_propagator(acoustic_setup, c, 'basic'), 2)
        assert all(np.array_equal(f, serial) for f, _ in out)

    def test_acoustic_3d_distributed(self):
        serial, _ = _run_propagator(acoustic_setup, shape=(16, 16, 16),
                                    spacing=(10.,) * 3, tn=40.0, nbl=4)
        out = run_parallel(
            lambda c: _run_propagator(acoustic_setup, c, 'diagonal',
                                      shape=(16, 16, 16),
                                      spacing=(10.,) * 3, tn=40.0, nbl=4),
            4)
        assert all(np.array_equal(f, serial) for f, _ in out)

    def test_full_mode_with_progress_thread(self):
        """The MPI_Test-prodding progress thread must not change results."""
        def job(comm):
            grid = Grid(shape=(16, 16), comm=comm)
            u = TimeFunction(name='u', grid=grid, space_order=4)
            u.data[0, 8, 8] = 1.0
            eq = Eq(u.dt, u.laplace)
            op = Operator([Eq(u.forward, solve(eq, u.forward))],
                          mpi='full', progress=True)
            op.apply(time_M=4, dt=0.05)
            return u.data.gather()

        serial = _diffusion(shape=(16, 16), steps=5, so=4)
        grid = Grid(shape=(16, 16))
        u = TimeFunction(name='u', grid=grid, space_order=4)
        u.data[0, 8, 8] = 1.0
        eq = Eq(u.dt, u.laplace)
        op = Operator([Eq(u.forward, solve(eq, u.forward))])
        op.apply(time_M=4, dt=0.05)
        expected = u.data.gather()

        out = run_parallel(job, 4)
        assert all(np.array_equal(o, expected) for o in out)


def _loop_written(comm=None, mpi=None, backend='numpy'):
    """A time-invariant Function written inside the time loop and read
    at an offset right after: its halo must be exchanged in the loop,
    after the write, not hoisted into the preamble."""
    shape = (24, 20)
    grid = Grid(shape=shape, extent=tuple(float(s - 1) for s in shape),
                comm=comm)
    x = grid.dimensions[0]
    u = TimeFunction(name='u', grid=grid, space_order=2)
    g = Function(name='g', grid=grid, space_order=2)
    u.data[0] = np.add.outer(np.sin(np.arange(shape[0])),
                             np.cos(np.arange(shape[1]))).astype(np.float32)
    op = Operator([Eq(g, 2 * u),
                   Eq(u.forward, u + 0.1 * Derivative(g, (x, 2),
                                                      fd_order=2))],
                  mpi=mpi, backend=backend, opt='verify')
    op.apply(time_M=5)
    assert op.analysis is None or not op.analysis.errors
    return u.data.gather()


class TestLoopWrittenFunction:
    """A Function the loop writes is no time-invariant: exchanging it
    once in the preamble left every offset read a stale halo."""

    @pytest.mark.parametrize('backend', ['numpy', 'c'])
    @pytest.mark.parametrize('mode', MODES)
    def test_exchanged_after_its_write(self, mode, backend):
        if backend == 'c' and jit.find_compiler() is None:
            pytest.skip('no C toolchain on this host')
        serial = _loop_written()
        configuration['sanitizer'] = 'poison'
        out = run_parallel(lambda c: _loop_written(c, mode, backend), 2)
        assert all(np.array_equal(o, serial) for o in out)


class TestMessageCounts:
    """Table I: 6 messages (3D basic) vs 26 (diagonal) per rank."""

    def _count(self, mode, ranks=8):
        def job(comm):
            grid = Grid(shape=(12, 12, 12), comm=comm)
            u = TimeFunction(name='u', grid=grid, space_order=2)
            eq = Eq(u.dt, u.laplace)
            op = Operator([Eq(u.forward, solve(eq, u.forward))], mpi=mode)
            op.apply(time_M=0, dt=0.01)
            return sum(ex.nmessages for ex in op.exchangers.values())

        return run_parallel(job, ranks)

    def test_basic_face_messages(self):
        # 2x2x2 topology: every rank is a corner with 3 faces
        counts = self._count('basic')
        assert all(c == 3 for c in counts)

    def test_diagonal_neighborhood_messages(self):
        counts = self._count('diagonal')
        assert all(c == 7 for c in counts)  # corner of the Moore nbhd

    def test_full_matches_diagonal_count(self):
        counts = self._count('full')
        assert all(c == 7 for c in counts)
