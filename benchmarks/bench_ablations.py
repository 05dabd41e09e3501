"""Ablation benches for the design choices called out in DESIGN.md.

1. Halo width: exchanging the compiler-derived stencil extent vs the
   full allocated halo (message volume halves at high SDO).
2. HaloSpot optimization: redundant-exchange dropping on/off.
3. Flop-reducing pipeline (CSE + factorization + hoisting) on/off.
4. full-mode topology tuning: decomposing only x/y vs all dimensions
   (paper Section IV-F's 'golden spot').
"""

import numpy as np
import pytest

from repro import Eq, Grid, Operator, TimeFunction, solve
from repro.mpi import run_parallel
from repro.perfmodel import ScalingModel


class TestHaloWidthAblation:
    def test_model_width_factor(self, benchmark):
        """Exchanged width = so/2 (minimal) vs so (full allocated halo):
        predicted comm volume and throughput at 64 nodes."""
        def compute():
            out = {}
            for wf in (1.0, 2.0):
                m = ScalingModel('acoustic', 16, width_factor=wf)
                out[wf] = m.throughput((1024,) * 3, 64, 'diag')
            return out

        out = benchmark(compute)
        print('\nacoustic so-16 @64 nodes, GPts/s: minimal-width=%.0f '
              'full-halo=%.0f' % (out[1.0], out[2.0]))
        assert out[1.0] > out[2.0]

    def test_runtime_exchanges_minimal_width(self):
        """The compiler derives exchange widths from accesses: a 2nd-order
        derivative on an so=8 function exchanges width 1, not 8."""
        from repro.symbolics import Derivative
        from repro.mpi import SimComm, SimWorld

        world = SimWorld(2)
        grid = Grid(shape=(16, 16), comm=SimComm(world, 0))
        u = TimeFunction(name='u', grid=grid, space_order=8)
        x, _ = grid.dimensions
        op = Operator([Eq(u.forward, Derivative(u, (x, 2), fd_order=2))],
                      mpi='basic')
        widths = [ex.widths for ex in op.exchangers.values()]
        assert widths[0][0] == (1, 1)


class TestHaloSpotAblation:
    def test_redundant_drop_reduces_messages(self, benchmark):
        """Two operators reading the same buffer: with the HaloSpot pass
        one exchange is emitted, without it two would be."""
        def build():
            from repro.mpi import SimComm, SimWorld
            world = SimWorld(2)
            grid = Grid(shape=(16, 16), comm=SimComm(world, 0))
            u = TimeFunction(name='u', grid=grid, space_order=4)
            v = TimeFunction(name='w', grid=grid, space_order=4)
            op = Operator([Eq(u.forward, u.laplace),
                           Eq(v.forward, v + u.laplace)], mpi='basic')
            return op

        op = benchmark(build)
        halo_steps = [s for s in op.schedule.steps if s.is_halo]
        keys = [e.key for s in halo_steps for e in s.exchanges]
        assert keys.count(('u', 0)) == 1


class TestFlopReductionAblation:
    @pytest.mark.parametrize('kernel_so', [('acoustic', 8), ('tti', 4)])
    def test_flops_per_point(self, kernel_so):
        from repro.models import acoustic_setup, tti_setup
        setup = {'acoustic': acoustic_setup, 'tti': tti_setup}[
            kernel_so[0]]
        so = kernel_so[1]
        plain, _ = setup(shape=(16, 16), tn=20.0, space_order=so, nbl=4,
                         opt=False)
        opt, _ = setup(shape=(16, 16), tn=20.0, space_order=so, nbl=4,
                       opt=True)
        fp, fo = plain.op.flops_per_point, opt.op.flops_per_point
        print('\n%s so-%d flops/pt: unoptimized=%d optimized=%d (-%d%%)'
              % (kernel_so[0], so, fp, fo, 100 * (fp - fo) / fp))
        assert fo < fp

    def test_opt_runtime_speedup(self, benchmark):
        """CSE/factorization must not slow down real execution."""
        import time
        from repro.models import acoustic_setup

        def run(opt):
            solver, _ = acoustic_setup(shape=(80, 80), tn=1000.0,
                                       space_order=8, nbl=10, nrec=0,
                                       opt=opt)
            op = solver.op
            dt = solver.model.critical_dt
            op.apply(time_m=0, time_M=4, dt=dt)  # warm
            tic = time.perf_counter()
            op.apply(time_m=0, time_M=14, dt=dt)
            return time.perf_counter() - tic

        t_opt = run(True)
        t_plain = run(False)
        benchmark.pedantic(lambda: None, iterations=1, rounds=1)
        print('\nacoustic so-8 runtime: opt=%.3fs plain=%.3fs'
              % (t_opt, t_plain))
        assert t_opt < t_plain * 1.5


class TestTopologyAblation:
    def test_full_mode_topology_tuning_model(self):
        """Section IV-F: restricting the decomposition to x/y helps full
        mode (no inefficient strides along z)."""
        m = ScalingModel('elastic', 16)
        shape = (1024,) * 3
        # emulate an x/y-only decomposition by removing the z splitting
        t_default = m.step_time(shape, 64, 'full')

        class XYModel(ScalingModel):
            def _unit_dims(self, nunits, shp):
                from repro.mpi.cart import compute_dims
                return compute_dims(nunits, 3, given=(0, 0, 1))

            def _rank_geometry(self, shp, nunits):
                from repro.mpi.cart import compute_dims
                nranks = nunits * self.machine.ranks_per_node
                rank_dims = compute_dims(nranks, 3, given=(0, 0, 1))
                return self._local_shape(shp, rank_dims), rank_dims

        m_xy = XYModel('elastic', 16)
        # moderate scale: keeping z undecomposed avoids the inefficient
        # remainder strides -> faster full-mode step (the 'golden spot')
        t_xy = m_xy.step_time(shape, 8, 'full')
        t_all = m.step_time(shape, 8, 'full')
        print('\nfull-mode step @8 nodes: all-dims=%.3fs xy-only=%.3fs'
              % (t_all, t_xy))
        assert t_xy < t_all
        # the paper's caveat: 'continuous decomposition across x and y
        # may lead to early shrinking of the decomposed domains'
        frac_all_64 = m._core_fraction(*(m._rank_geometry(shape, 64)))
        frac_xy_64 = m_xy._core_fraction(*(m_xy._rank_geometry(shape, 64)))
        print('core fraction @64 nodes: all-dims=%.2f xy-only=%.2f '
              '(early shrinking)' % (frac_all_64, frac_xy_64))
        assert frac_xy_64 < frac_all_64

    def test_runtime_topology_override_correctness(self):
        """Custom topology (Grid(..., topology=...)) under full mode is
        numerically identical (Figure 2 + Section IV-F)."""
        def job(comm, topo):
            grid = Grid(shape=(24, 24), comm=comm, topology=topo)
            u = TimeFunction(name='u', grid=grid, space_order=4)
            u.data[0, 12, 12] = 1.0
            eq = Eq(u.dt, u.laplace)
            op = Operator([Eq(u.forward, solve(eq, u.forward))],
                          mpi='full')
            op.apply(time_M=3, dt=0.05)
            return u.data.gather()

        a = run_parallel(lambda c: job(c, (4, 1)), 4)
        b = run_parallel(lambda c: job(c, (2, 2)), 4)
        assert np.array_equal(a[0], b[0])
