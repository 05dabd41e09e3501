"""Exact reproduction of the paper's Listings 1-3, 6/11 (code shapes).

Listing 1: the diffusion operator definition.
Listing 2: the rank-local views right after the global slice-write.
Listing 3: the rank-local views after applying the Operator.
Listing 11: the generated C for Listing 1.

Note: the paper's Listing 1 elides the time-buffer axis of ``u.data``
(a TimeFunction with time_order=1 stores 2 buffers); the write lands in
buffer 0, and Listing 3 shows buffer 0 after ``apply(time_M=1)`` (two
timesteps, so t=2 lives in buffer ``2 % 2 == 0``).
"""

import numpy as np
import pytest

from repro import Eq, Grid, Operator, TimeFunction, solve
from repro.mpi import run_parallel

#: Listing 2 per-rank views (4 ranks over the 4x4 grid)
LISTING2 = {
    0: [[0.0, 0.0], [0.0, 1.0]],
    1: [[0.0, 0.0], [1.0, 0.0]],
    2: [[0.0, 1.0], [0.0, 0.0]],
    3: [[1.0, 0.0], [0.0, 0.0]],
}

#: Listing 3 per-rank views after one Operator application
LISTING3 = {
    0: [[0.50, -0.25], [-0.25, 0.50]],
    1: [[-0.25, 0.50], [0.50, -0.25]],
    2: [[-0.25, 0.50], [0.50, -0.25]],
    3: [[0.50, -0.25], [-0.25, 0.50]],
}


def _listing1(comm=None, mpi=None):
    nx, ny = 4, 4
    nu = .5
    dx, dy = 2. / (nx - 1), 2. / (ny - 1)
    sigma = .25
    dt = sigma * dx * dy / nu

    grid = Grid(shape=(nx, ny), extent=(2., 2.), comm=comm)
    u = TimeFunction(name="u", grid=grid, space_order=2)
    u.data[0, 1:-1, 1:-1] = 1
    after_write = np.array(u.data[0]).copy()
    eq = Eq(u.dt, u.laplace)
    stencil = solve(eq, u.forward)
    op = Operator([Eq(u.forward, stencil)], mpi=mpi)
    op.apply(time_M=1, dt=dt)
    return after_write, np.array(u.data[0]).copy()


class TestListings123:
    def test_listing2_rank_local_views(self):
        def job(comm):
            return _listing1(comm, mpi='basic')[0]

        out = run_parallel(job, 4)
        for rank, expected in LISTING2.items():
            assert np.allclose(out[rank], expected), rank

    def test_listing3_rank_local_views(self):
        def job(comm):
            return _listing1(comm, mpi='basic')[1]

        out = run_parallel(job, 4)
        for rank, expected in LISTING3.items():
            assert np.allclose(out[rank], expected), rank

    def test_listing3_serial_global(self):
        _, result = _listing1()
        expected = np.array([[0.50, -0.25, -0.25, 0.50],
                             [-0.25, 0.50, 0.50, -0.25],
                             [-0.25, 0.50, 0.50, -0.25],
                             [0.50, -0.25, -0.25, 0.50]])
        assert np.allclose(result, expected)

    @pytest.mark.parametrize('mode', ['diagonal', 'full'])
    def test_listing3_other_patterns(self, mode):
        def job(comm):
            return _listing1(comm, mpi=mode)[1]

        out = run_parallel(job, 4)
        for rank, expected in LISTING3.items():
            assert np.allclose(out[rank], expected), (mode, rank)


class TestListing11:
    """The generated C for the diffusion operator (structure check)."""

    @pytest.fixture
    def ccode(self):
        grid = Grid(shape=(4, 4), extent=(2., 2.))
        u = TimeFunction(name="u", grid=grid, space_order=2)
        eq = Eq(u.dt, u.laplace)
        op = Operator([Eq(u.forward, solve(eq, u.forward))])
        return op.ccode

    def test_scalar_preamble(self, ccode):
        assert 'float r0 = 1.0F/dt;' in ccode
        assert 'float r1 = 1.0F/(h_x*h_x);' in ccode
        assert 'float r2 = 1.0F/(h_y*h_y);' in ccode

    def test_modulo_time_buffers(self, ccode):
        assert 't0 = (time + 0)%(2)' in ccode
        assert 't1 = (time + 1)%(2)' in ccode

    def test_access_alignment_offset(self, ccode):
        """SDO 2 gives halo 2: accesses are shifted by +2 (Section
        III-d)."""
        assert 'u[t1][2 + x][2 + y]' in ccode
        assert 'u[t0][1 + x][2 + y]' in ccode
        assert 'u[t0][3 + x][2 + y]' in ccode

    def test_cse_temporary(self, ccode):
        assert 'float r3 = ' in ccode
        assert '-2' in ccode

    def test_openmp_pragmas(self, ccode):
        assert '#pragma omp parallel for' in ccode
        assert '#pragma omp simd aligned(u:32)' in ccode

    def test_loop_bounds(self, ccode):
        assert 'for (int x = x_m; x <= x_M; x += 1)' in ccode
        assert 'for (int y = y_m; y <= y_M; y += 1)' in ccode


class TestListing6MPIStructure:
    """The MPI-enabled IET structure (HaloUpdate placement, Listing 6)."""

    def _mpi_build(self, mode):
        """Rank 0's listing and certificate of a 2x2 diffusion build."""
        def job(comm):
            grid = Grid(shape=(8, 8), comm=comm)
            u = TimeFunction(name="u", grid=grid, space_order=2)
            eq = Eq(u.dt, u.laplace)
            op = Operator([Eq(u.forward, solve(eq, u.forward))], mpi=mode)
            return op.ccode, op.certificate

        return run_parallel(job, 4)[0]

    def _mpi_ccode(self, mode):
        return self._mpi_build(mode)[0]

    def test_basic_halo_before_compute(self):
        c = self._mpi_ccode('basic')
        assert 'haloupdate0_u' in c
        assert c.index('haloupdate0_u(u_vec') < c.index('u[t1]')
        assert 'MPI_Sendrecv' in c
        assert 'multi-step synchronous face exchanges' in c

    def test_diagonal_single_step(self):
        c, certificate = self._mpi_build('diagonal')
        assert 'MPI_Isend' in c and 'MPI_Irecv' in c
        assert 'single-step neighborhood exchange incl. corners' in c
        # a corner rank of 2x2 sends to its face and diagonal neighbours
        (entry,) = certificate.entries
        assert len(entry.messages) == 3
        assert '3 messages in 2D' in c

    def test_full_listing_counts_the_messages_this_rank_sends(self):
        """An exchange along the one split dimension of a 2-rank
        acoustic build sends one message per rank, and the listing
        prints that count, not the 3**ndim - 1 Moore neighbours."""
        from repro.models import acoustic_setup

        def job(comm):
            solver, _ = acoustic_setup(shape=(20, 18), nbl=4, tn=5.0,
                                       space_order=4, comm=comm, mpi='full')
            (ex,) = solver.op.kernel.artifact.payload['program']['exchangers']
            return ex['widths'], solver.op.certificate, solver.op.ccode

        for widths, certificate, c in run_parallel(job, 2):
            assert widths == [[2, 2], [0, 0]]
            assert [len(e.messages) for e in certificate.entries] == [1]
            assert '1 messages in 2D' in c
            assert 'n < 1;' in c

    def test_full_overlap_structure(self):
        c = self._mpi_ccode('full')
        assert 'halobegin0_u' in c
        assert 'MPI_Waitall' in c
        assert '/* CORE region */' in c
        assert '/* REMAINDER region */' in c
        # order: begin < CORE < Waitall < REMAINDER
        i_begin = c.index('halobegin0_u(u_vec')
        i_core = c.index('/* CORE region */')
        i_wait = c.index('MPI_Waitall', i_begin)
        i_rem = c.index('/* REMAINDER region */')
        assert i_begin < i_core < i_wait < i_rem
