"""Tests for the compiler IRs: lowering, clustering, halo detection,
schedule passes (drop/hoist/overlap)."""

import pytest

from repro import Eq, Function, Grid, TimeFunction, solve
from repro.ir import build_schedule, clusterize, parse_access, parse_index
from repro.ir.lowered import LoweredEq


@pytest.fixture
def grid():
    return Grid(shape=(8, 8))


def _lower(eq):
    lhs, rhs = eq.lower()
    return LoweredEq(lhs, rhs)


class TestAccessParsing:
    def test_parse_index_plain(self, grid):
        x, y = grid.dimensions
        assert parse_index(x, x) == 0
        assert parse_index(x + 3, x) == 3
        assert parse_index(x - 2, x) == -2

    def test_parse_index_rejects_foreign(self, grid):
        x, y = grid.dimensions
        with pytest.raises(ValueError):
            parse_index(y + 1, x)
        with pytest.raises(ValueError):
            parse_index(2 * x, x)

    def test_parse_access(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        t = grid.stepping_dim
        x, y = grid.dimensions
        acc = parse_access(u.indexed(t + 1, x - 1, y + 2))
        assert acc.function is u
        assert acc.time_shift == 1
        assert acc.offsets == (-1, 2)

    def test_lowered_eq_reads_writes(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        leq = _lower(Eq(u.forward, solve(Eq(u.dt, u.laplace), u.forward)))
        assert leq.write.key == ('u', 1)
        read_keys = {r.key for r in leq.reads}
        assert ('u', 0) in read_keys


class TestClustering:
    def test_independent_eqs_merge(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        v = TimeFunction(name='w', grid=grid, space_order=2)
        eqs = [_lower(Eq(u.forward, u.laplace)),
               _lower(Eq(v.forward, v.laplace))]
        clusters = clusterize(eqs)
        assert len(clusters) == 1

    def test_offset_flow_dependence_splits(self, grid):
        """Reading a just-written buffer at an offset forces a new
        cluster (needs a halo refresh in between) — the elastic case."""
        u = TimeFunction(name='u', grid=grid, space_order=2)
        v = TimeFunction(name='w', grid=grid, space_order=2)
        x, _ = grid.dimensions
        eqs = [_lower(Eq(u.forward, u.laplace)),
               _lower(Eq(v.forward, Eq(v, u.forward.base.d(x, 1)
                                       ).rhs))]  # reads u at t+1, offsets
        # simpler: use derivative of u.forward explicitly
        from repro.symbolics import Derivative
        eqs[1] = _lower(Eq(v.forward, Derivative(u.forward, (x, 1),
                                                 fd_order=2)))
        clusters = clusterize(eqs)
        assert len(clusters) == 2

    def test_zero_offset_dependence_keeps_cluster(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        v = TimeFunction(name='w', grid=grid, space_order=2)
        eqs = [_lower(Eq(u.forward, u + 1)),
               _lower(Eq(v.forward, u.forward))]
        clusters = clusterize(eqs)
        assert len(clusters) == 1


class TestHaloDetection:
    def _parallel_grid(self):
        # fake a distributed context by forcing a 2x1 topology on 2 ranks
        from repro.mpi import SimComm, SimWorld
        world = SimWorld(2)
        comm = SimComm(world, 0)
        return Grid(shape=(8, 8), comm=comm)

    def test_stencil_needs_halo(self):
        grid = self._parallel_grid()
        u = TimeFunction(name='u', grid=grid, space_order=4)
        cluster = clusterize([_lower(Eq(u.forward, u.laplace))])[0]
        reqs = cluster.halo_requirements()
        assert len(reqs) == 1
        req = reqs[0]
        assert req.key == ('u', 0)
        # laplacian of so=4 reads 2 points each side
        assert req.widths[0] == (2, 2)

    def test_width_from_accesses_not_allocation(self):
        grid = self._parallel_grid()
        u = TimeFunction(name='u', grid=grid, space_order=8)
        x, _ = grid.dimensions
        from repro.symbolics import Derivative
        d = Derivative(u, (x, 1), fd_order=2)  # narrow derivative
        cluster = clusterize([_lower(Eq(u.forward, d))])[0]
        req = cluster.halo_requirements()[0]
        assert req.widths[0] == (1, 1)
        assert u.halo[0] == (8, 8)  # allocation stays wide

    def test_undistributed_dim_not_exchanged(self):
        grid = self._parallel_grid()  # topology (2, 1)
        u = TimeFunction(name='u', grid=grid, space_order=2)
        cluster = clusterize([_lower(Eq(u.forward, u.laplace))])[0]
        req = cluster.halo_requirements()[0]
        assert req.widths[0] == (1, 1)
        assert req.widths[1] == (0, 0)

    def test_pointwise_needs_no_halo(self):
        grid = self._parallel_grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        cluster = clusterize([_lower(Eq(u.forward, 2 * u))])[0]
        assert cluster.halo_requirements() == []

    def test_time_invariant_function_requirement(self):
        grid = self._parallel_grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        m = Function(name='m', grid=grid, space_order=2)
        x, _ = grid.dimensions
        from repro.symbolics import Derivative
        cluster = clusterize([_lower(Eq(u.forward,
                                        Derivative(m, (x, 1), fd_order=2)
                                        + u))])[0]
        reqs = {r.key: r for r in cluster.halo_requirements()}
        assert ('m', None) in reqs


class TestSchedulePasses:
    def _dist_grid(self):
        from repro.mpi import SimComm, SimWorld
        world = SimWorld(4)
        return Grid(shape=(8, 8), comm=SimComm(world, 0))

    def test_serial_schedule_has_no_halo_steps(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        sched = build_schedule([Eq(u.forward, u.laplace)], mpi_mode='basic')
        assert not any(s.is_halo for s in sched.steps)
        assert sched.mpi_mode is None

    def test_basic_schedule_places_update_before_compute(self):
        grid = self._dist_grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        sched = build_schedule([Eq(u.forward, u.laplace)], mpi_mode='basic')
        kinds = [(s.is_halo, getattr(s, 'kind', None)) for s in sched.steps]
        assert kinds[0] == (True, 'update')
        assert sched.steps[1].is_compute

    def test_redundant_halo_dropped(self):
        """Two clusters reading the same clean buffer: one exchange."""
        grid = self._dist_grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        v = TimeFunction(name='w', grid=grid, space_order=2)
        x, _ = grid.dimensions
        from repro.symbolics import Derivative
        # both read u at t with offsets; second cluster forced by writing
        # w then reading w.forward with offset
        eq1 = Eq(u.forward, u.laplace)
        eq2 = Eq(v.forward, Derivative(u.forward, (x, 1), fd_order=2))
        eq3 = Eq(u.forward, u.laplace)  # reads u[t] again, now re-dirty?
        sched = build_schedule([eq1, eq2], mpi_mode='basic')
        halo_keys = [e.key for s in sched.steps if s.is_halo
                     for e in s.exchanges]
        # u@t exchanged once; u@t+1 exchanged once before cluster 2
        assert halo_keys.count(('u', 0)) == 1
        assert halo_keys.count(('u', 1)) == 1

    def test_write_invalidates_clean_halo(self):
        grid = self._dist_grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        v = TimeFunction(name='w', grid=grid, space_order=2)
        from repro.symbolics import Derivative
        x, _ = grid.dimensions
        # cluster1 reads u[t]; cluster2 writes u[t]... use u[t+1] pattern:
        eq1 = Eq(v.forward, Derivative(u, (x, 1), fd_order=2))
        eq2 = Eq(u.forward, Derivative(v.forward, (x, 1), fd_order=2))
        eq3 = Eq(v.forward, Derivative(u.forward, (x, 1), fd_order=2))
        sched = build_schedule([eq1, eq2, eq3], mpi_mode='basic')
        halo_keys = [e.key for s in sched.steps if s.is_halo
                     for e in s.exchanges]
        # w@t+1 written by eq1, read-with-offset by eq2 -> exchange;
        # w@t+1 re-written by eq3's... actually eq3 writes w again, so the
        # final count of exchanges of ('w', 1) is 1 (before eq2)
        assert halo_keys.count(('w', 1)) == 1
        assert halo_keys.count(('u', 1)) == 1

    def test_time_invariant_hoisted_to_preamble(self):
        grid = self._dist_grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        m = Function(name='m', grid=grid, space_order=2)
        from repro.symbolics import Derivative
        x, _ = grid.dimensions
        sched = build_schedule(
            [Eq(u.forward, Derivative(m, (x, 2), fd_order=2) + u.laplace)],
            mpi_mode='basic')
        pre_keys = [r.key for r in sched.preamble_halo]
        assert pre_keys == [('m', None)]
        inloop = [e.key for s in sched.steps if s.is_halo
                  for e in s.exchanges]
        assert ('m', None) not in inloop

    def test_full_mode_overlap_structure(self):
        grid = self._dist_grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        sched = build_schedule([Eq(u.forward, u.laplace)], mpi_mode='full')
        kinds = []
        for s in sched.steps:
            if s.is_halo:
                kinds.append(s.kind)
            elif s.is_compute:
                kinds.append(s.region)
        assert kinds == ['begin', 'core', 'wait', 'remainder']

    def test_full_mode_elastic_like_double_overlap(self):
        grid = self._dist_grid()
        u = TimeFunction(name='u', grid=grid, space_order=2)
        v = TimeFunction(name='w', grid=grid, space_order=2)
        from repro.symbolics import Derivative
        x, _ = grid.dimensions
        eq1 = Eq(u.forward, Derivative(v, (x, 1), fd_order=2))
        eq2 = Eq(v.forward, Derivative(u.forward, (x, 1), fd_order=2))
        sched = build_schedule([eq1, eq2], mpi_mode='full')
        begins = sum(1 for s in sched.steps
                     if s.is_halo and s.kind == 'begin')
        assert begins == 2

    def test_flops_and_traffic_positive(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=4)
        sched = build_schedule(
            [Eq(u.forward, solve(Eq(u.dt, u.laplace), u.forward))])
        assert sched.flops_per_point() > 0
        assert sched.traffic_per_point() > 0

    def test_unknown_expression_rejected(self, grid):
        with pytest.raises(TypeError):
            build_schedule(['not an equation'])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_schedule([])

    def test_nested_lists_flattened(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        v = TimeFunction(name='w', grid=grid, space_order=2)
        sched = build_schedule([[Eq(u.forward, u + 1)],
                                [[Eq(v.forward, v + 1)]]])
        assert len(sched.clusters[0].eqs) == 2
