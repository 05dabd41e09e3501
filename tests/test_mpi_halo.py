"""Tests for the three halo-exchange patterns and sparse-point routing."""

import numpy as np
import pytest

from repro.mpi import (Data, DimSpec, Distributor, HaloWidths,
                       PointRouting, bilinear_coefficients, core_region,
                       make_exchanger, remainder_regions, run_parallel,
                       support_points)


def _distributed_field(comm, shape, halo, fill=None):
    dist = Distributor(shape, comm=comm)
    specs = [DimSpec(n, dist_index=i, halo=(halo, halo))
             for i, n in enumerate(shape)]
    d = Data(specs, dist)
    if fill is None:
        fill = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
    d[...] = fill
    return dist, d, fill


def _check_halo(dist, d, glob, width):
    """Every in-bounds halo cell within ``width`` must hold global data."""
    full = d.with_halo
    halo = d.halo
    ranges = dist.local_ranges()
    it = np.ndindex(full.shape)
    for idx in it:
        gidx = tuple(r[0] + i - h[0] for (i, r, h)
                     in zip(idx, ranges, halo))
        inside_dom = all(r[0] <= g < r[1] for g, r in zip(gidx, ranges))
        if inside_dom:
            continue
        in_bounds = all(0 <= g < n for g, n in zip(gidx, glob.shape))
        within_width = all(r[0] - width <= g < r[1] + width
                           for g, r in zip(gidx, ranges))
        if in_bounds and within_width:
            assert full[idx] == glob[gidx], (idx, gidx)
    return True


MODES = ('basic', 'diagonal', 'full')


class TestExchangers:
    @pytest.mark.parametrize('mode', MODES)
    def test_2d_full_width(self, mode):
        def job(comm):
            dist, d, glob = _distributed_field(comm, (8, 8), 2)
            ex = make_exchanger(mode, dist, d.halo, [(2, 2), (2, 2)])
            ex.exchange(d.with_halo)
            return _check_halo(dist, d, glob, 2)

        assert all(run_parallel(job, 4))

    @pytest.mark.parametrize('mode', MODES)
    def test_2d_narrow_width(self, mode):
        """Exchange width can be narrower than the allocated halo."""
        def job(comm):
            dist, d, glob = _distributed_field(comm, (8, 8), 3)
            ex = make_exchanger(mode, dist, d.halo, [(1, 1), (1, 1)])
            ex.exchange(d.with_halo)
            return _check_halo(dist, d, glob, 1)

        assert all(run_parallel(job, 4))

    @pytest.mark.parametrize('mode', MODES)
    def test_3d(self, mode):
        def job(comm):
            dist, d, glob = _distributed_field(comm, (6, 6, 6), 1)
            ex = make_exchanger(mode, dist, d.halo,
                                [(1, 1)] * 3)
            ex.exchange(d.with_halo)
            return _check_halo(dist, d, glob, 1)

        assert all(run_parallel(job, 8))

    @pytest.mark.parametrize('mode', MODES)
    def test_1d_decomposition(self, mode):
        def job(comm):
            dist, d, glob = _distributed_field(comm, (12, 6), 2)
            ex = make_exchanger(mode, dist, d.halo, [(2, 2), (2, 2)])
            ex.exchange(d.with_halo)
            return _check_halo(dist, d, glob, 2)

        assert all(run_parallel(job, 3))

    @pytest.mark.parametrize('mode', MODES)
    def test_repeated_exchanges_converge(self, mode):
        """Exchanging twice (with a data change in between) stays correct."""
        def job(comm):
            dist, d, glob = _distributed_field(comm, (8, 8), 2)
            ex = make_exchanger(mode, dist, d.halo, [(2, 2), (2, 2)])
            ex.exchange(d.with_halo)
            d.local[...] *= 2.0
            ex.exchange(d.with_halo)
            return _check_halo(dist, d, glob * 2, 2)

        assert all(run_parallel(job, 4))

    def test_message_counts_match_table1(self):
        """basic: 2*ndims msgs; diagonal: 3^n - 1 (Table I)."""
        def job(comm, mode):
            dist, d, _ = _distributed_field(comm, (6, 6, 6), 1)
            ex = make_exchanger(mode, dist, d.halo, [(1, 1)] * 3)
            ex.exchange(d.with_halo)
            return ex.nmessages

        counts = run_parallel(lambda c: job(c, 'basic'), 8)
        assert all(c == 3 for c in counts)  # corner ranks: 3 faces of 6
        counts = run_parallel(lambda c: job(c, 'diagonal'), 8)
        assert all(c == 7 for c in counts)  # corner ranks: 7 of 26

    def test_full_begin_finish_split(self):
        def job(comm):
            dist, d, glob = _distributed_field(comm, (8, 8), 2)
            ex = make_exchanger('full', dist, d.halo, [(2, 2), (2, 2)])
            pending = ex.begin(d.with_halo)
            # core can be computed here while communication is in flight
            ex.finish(d.with_halo, pending)
            return _check_halo(dist, d, glob, 2)

        assert all(run_parallel(job, 4))

    def test_full_with_progress_thread(self):
        def job(comm):
            dist, d, glob = _distributed_field(comm, (8, 8), 2)
            ex = make_exchanger('full', dist, d.halo, [(2, 2), (2, 2)],
                                progress=True)
            pending = ex.begin(d.with_halo)
            ex.finish(d.with_halo, pending)
            return _check_halo(dist, d, glob, 2)

        assert all(run_parallel(job, 4))

    def test_width_exceeding_halo_rejected(self):
        dist = Distributor((8, 8))
        with pytest.raises(ValueError):
            make_exchanger('basic', dist, [(1, 1), (1, 1)],
                           [(2, 2), (2, 2)])

    def test_unknown_mode_rejected(self):
        dist = Distributor((8, 8))
        with pytest.raises(ValueError) as err:
            make_exchanger('magic', dist, [(1, 1)] * 2, [(1, 1)] * 2)
        # the error enumerates every accepted mode, aliases included
        for mode in ('basic', 'diag', 'diagonal', 'diag2', 'full'):
            assert mode in str(err.value)

    @pytest.mark.parametrize('alias', ['diag', 'diag2'])
    def test_devito_diag_aliases(self, alias):
        """DEVITO_MPI-compatible names map to the diagonal pattern."""
        from repro.mpi import DiagonalExchanger, FullExchanger
        dist = Distributor((8, 8))
        ex = make_exchanger(alias, dist, [(1, 1)] * 2, [(1, 1)] * 2)
        assert type(ex) is DiagonalExchanger
        assert not isinstance(ex, FullExchanger)

    @pytest.mark.parametrize('alias', ['diag', 'diag2'])
    def test_diag_aliases_exchange_like_diagonal(self, alias):
        def job(comm, mode):
            dist, d, glob = _distributed_field(comm, (8, 8), 2)
            ex = make_exchanger(mode, dist, d.halo, [(2, 2), (2, 2)])
            ex.exchange(d.with_halo)
            _check_halo(dist, d, glob, 2)
            return ex.nmessages

        counts = run_parallel(lambda c: job(c, alias), 4)
        reference = run_parallel(lambda c: job(c, 'diagonal'), 4)
        assert counts == reference  # same Moore-neighborhood message set

    def test_zero_width_dims_skipped(self):
        def job(comm):
            dist, d, glob = _distributed_field(comm, (8, 8), 2)
            ex = make_exchanger('basic', dist, d.halo, [(2, 2), (0, 0)])
            ex.exchange(d.with_halo)
            return ex.nmessages

        counts = run_parallel(job, 4)
        assert all(c == 1 for c in counts)  # only the x faces


class TestCoreRemainder:
    def test_core_region_interior_rank(self):
        def job(comm):
            dist = Distributor((16, 16), comm=comm)
            return core_region(dist, [(2, 2), (2, 2)])

        out = run_parallel(job, 4)
        # rank 0 at (0,0): global boundary on the low sides
        assert out[0] == ((0, 6), (0, 6))
        assert out[3] == ((2, 8), (2, 8))

    def test_remainder_boxes_cover_difference(self):
        def job(comm):
            dist = Distributor((16, 16), comm=comm)
            widths = [(2, 2), (2, 2)]
            core = core_region(dist, widths)
            rems = remainder_regions(dist, widths)
            shape = dist.shape_local
            covered = np.zeros(shape, dtype=int)
            covered[tuple(slice(lo, hi) for lo, hi in core)] += 1
            for box in rems:
                covered[tuple(slice(lo, hi) for lo, hi in box)] += 1
            return bool((covered == 1).all())

        assert all(run_parallel(job, 4))

    def test_remainder_boxes_disjoint_3d(self):
        def job(comm):
            dist = Distributor((8, 8, 8), comm=comm)
            widths = [(1, 1)] * 3
            core = core_region(dist, widths)
            rems = remainder_regions(dist, widths)
            covered = np.zeros(dist.shape_local, dtype=int)
            covered[tuple(slice(lo, hi) for lo, hi in core)] += 1
            for box in rems:
                covered[tuple(slice(lo, hi) for lo, hi in box)] += 1
            return bool((covered == 1).all())

        assert all(run_parallel(job, 8))

    def test_serial_core_is_whole_domain(self):
        dist = Distributor((8, 8))
        assert core_region(dist, [(2, 2), (2, 2)]) == ((0, 8), (0, 8))
        assert remainder_regions(dist, [(2, 2), (2, 2)]) == []

    def test_halo_widths_container(self):
        w = HaloWidths([(1, 2), (3, 4)])
        assert w[0] == (1, 2) and len(w) == 2
        assert w == HaloWidths([(1, 2), (3, 4)])
        assert hash(w) == hash(HaloWidths([(1, 2), (3, 4)]))


class TestPointRouting:
    def test_support_and_weights(self):
        lows, highs = support_points((2.5, 3.0), (0, 0), (1.0, 1.0))
        assert lows == (2, 3) and highs == (3, 4)
        per_dim = bilinear_coefficients((2.5, 3.0), (0, 0), (1.0, 1.0))
        assert per_dim[0] == (2, 0.5, 0.5)
        assert per_dim[1][0] == 3 and abs(per_dim[1][1] - 1.0) < 1e-12

    def test_interior_point_single_owner(self):
        def job(comm):
            dist = Distributor((8, 8), comm=comm)
            routing = PointRouting(np.array([[1.2, 1.7]]), dist,
                                   (0, 0), (1.0, 1.0))
            return routing.local_points, routing.owned_points

        out = run_parallel(job, 4)
        assert out[0] == ([0], [0])
        assert all(o == ([], []) for o in out[1:])

    def test_shared_boundary_point(self):
        """A point whose support straddles ranks appears on all of them
        (the paper's Figure 3 point C)."""
        def job(comm):
            dist = Distributor((8, 8), comm=comm)
            routing = PointRouting(np.array([[3.5, 3.5]]), dist,
                                   (0, 0), (1.0, 1.0))
            return routing.local_points

        out = run_parallel(job, 4)
        assert all(o == [0] for o in out)

    def test_weights_partition_unity(self):
        """Across all ranks, each point's weights sum to 1."""
        def job(comm):
            dist = Distributor((8, 8), comm=comm)
            pts = np.array([[1.3, 2.7], [3.5, 3.5], [6.01, 0.5], [0., 0.]])
            routing = PointRouting(pts, dist, (0, 0), (1.0, 1.0))
            pids, _, w = routing.gather_plan()
            totals = np.zeros(len(pts))
            np.add.at(totals, pids, w)
            return totals

        out = run_parallel(job, 4)
        totals = np.sum(out, axis=0)
        assert np.allclose(totals, 1.0)

    def test_out_of_domain_clamped(self):
        dist = Distributor((8, 8))
        routing = PointRouting(np.array([[-0.5, 9.5]]), dist,
                               (0, 0), (1.0, 1.0))
        pids, idx, w = routing.gather_plan()
        assert (idx[0] >= 0).all() and (idx[1] <= 7).all()
        assert np.isclose(w.sum(), 1.0)

    def test_gather_plan_indices_local(self):
        def job(comm):
            dist = Distributor((8, 8), comm=comm)
            pts = np.array([[4.5, 4.5]])
            routing = PointRouting(pts, dist, (0, 0), (1.0, 1.0))
            _, idx, _ = routing.gather_plan()
            shape = dist.shape_local
            return all((col >= 0).all() and (col < n).all()
                       for col, n in zip(idx, shape))

        assert all(run_parallel(job, 4))

    def test_bad_coordinates_shape(self):
        dist = Distributor((8, 8))
        with pytest.raises(ValueError):
            PointRouting(np.zeros(3), dist, (0, 0), (1.0, 1.0))
        with pytest.raises(ValueError):
            PointRouting(np.array([[1.0, np.nan]]), dist, (0, 0), (1.0, 1.0))

    @staticmethod
    def _loop_plan(coordinates, dist, origin, spacing):
        """Point-by-point reference of the routing plan: corners in C
        order, clamped, duplicates merged into their first occurrence,
        zero weights dropped."""
        pids, weights, owned = [], [], []
        cols = [[] for _ in range(dist.ndim)]
        for p, coords in enumerate(coordinates):
            per_dim = bilinear_coefficients(coords, origin, spacing)
            corners, ws = [()], [1.0]
            for (lo, wlo, whi), n in zip(per_dim, dist.shape):
                corners, ws = zip(*[
                    (c + (min(max(i, 0), n - 1),), w * wi)
                    for c, w in zip(corners, ws)
                    for i, wi in ((lo, wlo), (lo + 1, whi))])
            merged = {}
            for c, w in zip(corners, ws):
                merged[c] = merged.get(c, 0.0) + w
            for c, w in merged.items():
                loc = dist.glb_to_loc_point(c)
                if w != 0.0 and loc is not None:
                    pids.append(p)
                    weights.append(w)
                    for d, i in enumerate(loc):
                        cols[d].append(i)
            if dist.owns(tuple(min(max(lo, 0), n - 1) for (lo, _, _), n
                               in zip(per_dim, dist.shape))):
                owned.append(p)
        return pids, cols, weights, owned

    @pytest.mark.parametrize('shape,ranks', [((8, 8), 1), ((8, 8), 4),
                                             ((9, 7), 3), ((6, 6, 6), 8)])
    def test_vectorized_plan_matches_loop(self, shape, ranks):
        """Seeded interior points plus exact rank-boundary, on-grid and
        out-of-domain (clamped) points: identical plan arrays, in the
        same order, bit for bit."""
        rng = np.random.default_rng(7)
        ndim = len(shape)
        hi = np.array(shape, dtype=float) - 1
        pts = [rng.uniform(0, 1, (40, ndim)) * hi,
               rng.uniform(-1.5, 1.5, (12, ndim)) * hi,      # clamped
               np.round(rng.uniform(0, 1, (12, ndim)) * hi),  # on grid
               np.full((1, ndim), -0.5), hi[None] + 0.5]
        pts = np.concatenate(pts)
        pts[:8, 0] = np.array(shape[0]) // 2 + np.linspace(-1, 1, 8)

        def job(comm):
            dist = Distributor(shape, comm=comm)
            routing = PointRouting(pts, dist, (0.0,) * ndim, (1.0,) * ndim)
            pids, idx, w = routing.gather_plan()
            ref_p, ref_cols, ref_w, ref_owned = self._loop_plan(
                pts, dist, (0.0,) * ndim, (1.0,) * ndim)
            assert routing.owned_points == ref_owned
            assert routing.local_points == sorted(set(ref_p))
            return (np.array_equal(pids, ref_p)
                    and all(np.array_equal(a, b)
                            for a, b in zip(idx, ref_cols))
                    and np.array_equal(w, np.array(ref_w)))

        assert all(run_parallel(job, ranks))
