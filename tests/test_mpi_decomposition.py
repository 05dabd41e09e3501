"""Tests for block decomposition, distributor and distributed data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import Data, Decomposition, DimSpec, Distributor, run_parallel


class TestDecomposition:
    def test_balanced_split(self):
        d = Decomposition(10, 3)
        assert d.sizes == (4, 3, 3)

    def test_exact_split(self):
        d = Decomposition(8, 4)
        assert d.sizes == (2, 2, 2, 2)

    def test_offsets(self):
        d = Decomposition(10, 3)
        assert [d.offset(i) for i in range(3)] == [0, 4, 7]

    def test_local_range(self):
        d = Decomposition(10, 3)
        assert d.local_range(1) == (4, 7)

    def test_owner(self):
        d = Decomposition(10, 3)
        assert [d.owner(i) for i in range(10)] == \
            [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_owner_out_of_range(self):
        d = Decomposition(10, 3)
        with pytest.raises(IndexError):
            d.owner(10)

    def test_glb_to_loc(self):
        d = Decomposition(10, 3)
        assert d.glb_to_loc(1, 5) == 1
        assert d.glb_to_loc(0, 5) is None

    def test_loc_to_glb(self):
        d = Decomposition(10, 3)
        assert d.loc_to_glb(2, 0) == 7
        with pytest.raises(IndexError):
            d.loc_to_glb(2, 3)

    def test_slice_conversion_basic(self):
        d = Decomposition(8, 2)
        loc, voff, count = d.slice_glb_to_loc(1, slice(2, 7))
        assert (loc.start, loc.stop) == (0, 3)
        assert voff == 2 and count == 3

    def test_slice_conversion_miss(self):
        d = Decomposition(8, 2)
        _, _, count = d.slice_glb_to_loc(1, slice(0, 3))
        assert count == 0

    def test_slice_with_step(self):
        d = Decomposition(10, 2)
        # global indices 1, 4, 7 with step 3; part 1 owns [5, 10)
        loc, voff, count = d.slice_glb_to_loc(1, slice(1, 10, 3))
        assert count == 1 and voff == 2
        assert loc.start == 2  # global 7 -> local 2

    def test_negative_step_unsupported(self):
        d = Decomposition(10, 2)
        with pytest.raises(NotImplementedError):
            d.slice_glb_to_loc(0, slice(9, 0, -1))

    def test_more_parts_than_points_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(2, 4)

    @given(st.integers(1, 200), st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, npoints, nparts):
        """Parts are disjoint, cover the domain, balanced within 1."""
        if nparts > npoints:
            return
        d = Decomposition(npoints, nparts)
        covered = []
        for p in range(nparts):
            start, stop = d.local_range(p)
            covered.extend(range(start, stop))
        assert covered == list(range(npoints))
        sizes = set(d.sizes)
        assert max(sizes) - min(sizes) <= 1

    @given(st.integers(2, 100), st.integers(1, 8),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_glb_loc_roundtrip(self, npoints, nparts, data):
        if nparts > npoints:
            return
        d = Decomposition(npoints, nparts)
        g = data.draw(st.integers(0, npoints - 1))
        p = d.owner(g)
        loc = d.glb_to_loc(p, g)
        assert loc is not None
        assert d.loc_to_glb(p, loc) == g
        # no other part owns it
        for q in range(nparts):
            if q != p:
                assert d.glb_to_loc(q, g) is None


class TestWeightedDecomposition:
    def test_proportional_split(self):
        d = Decomposition(16, 4, weights=(3.0, 1.0, 1.0, 3.0))
        assert d.sizes == (6, 2, 2, 6)
        assert sum(d.sizes) == 16

    def test_equal_weights_match_unweighted(self):
        for npoints, nparts in ((10, 3), (8, 4), (17, 5), (7, 7)):
            unweighted = Decomposition(npoints, nparts)
            weighted = Decomposition(npoints, nparts,
                                     weights=(1.0,) * nparts)
            assert weighted.sizes == unweighted.sizes

    def test_zero_weight_floored_to_one_point(self):
        d = Decomposition(10, 3, weights=(1.0, 0.0, 1.0))
        assert d.sizes[1] >= 1
        assert sum(d.sizes) == 10

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(10, 3, weights=(0.0, 0.0, 0.0))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(10, 3, weights=(1.0, -1.0, 1.0))

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(10, 3, weights=(1.0, 2.0))

    def test_extreme_skew_keeps_every_part_nonempty(self):
        d = Decomposition(8, 4, weights=(1e9, 1.0, 1e-9, 1e-9))
        assert sum(d.sizes) == 8
        assert min(d.sizes) >= 1
        assert d.sizes[0] == max(d.sizes)

    def test_nparts_exceeding_npoints_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(3, 5, weights=(1.0,) * 5)

    def test_weights_recorded(self):
        d = Decomposition(10, 2, weights=(3, 1))
        assert d.weights == (3.0, 1.0)
        assert Decomposition(10, 2).weights is None

    @given(st.integers(1, 120), st.integers(1, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_weighted_partition_invariants(self, npoints, nparts, data):
        """Weighted parts are disjoint, cover the domain exactly, and
        are never empty — for any weights, however degenerate."""
        if nparts > npoints:
            return
        weights = data.draw(st.lists(
            st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
            min_size=nparts, max_size=nparts))
        if sum(weights) <= 0:
            return
        d = Decomposition(npoints, nparts, weights=weights)
        covered = []
        for p in range(nparts):
            start, stop = d.local_range(p)
            covered.extend(range(start, stop))
        assert covered == list(range(npoints))
        assert min(d.sizes) >= 1

    @given(st.integers(8, 200), st.integers(2, 6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_weighted_split_tracks_proportions(self, npoints, nparts,
                                               data):
        """Each part's share is within one point of its exact quota
        (largest-remainder apportionment), pre-floor."""
        weights = data.draw(st.lists(st.floats(0.5, 10.0),
                                     min_size=nparts, max_size=nparts))
        total = sum(weights)
        if min(weights) / total * npoints < 1.0:
            # a sub-one quota triggers the no-empty-part floor, which
            # deliberately trades proportionality for validity
            return
        d = Decomposition(npoints, nparts, weights=weights)
        for p in range(nparts):
            quota = npoints * weights[p] / total
            assert abs(d.size(p) - quota) < 1.0 + 1e-9


class TestDistributor:
    def test_serial_distributor(self):
        dist = Distributor((8, 8))
        assert dist.nprocs == 1
        assert dist.shape_local == (8, 8)
        assert not dist.is_parallel

    def test_topology_override(self):
        def job(comm):
            dist = Distributor((8, 8), comm=comm, topology=(4, 1))
            return dist.topology, dist.shape_local

        out = run_parallel(job, 4)
        assert all(o[0] == (4, 1) for o in out)
        assert all(o[1] == (2, 8) for o in out)

    def test_local_ranges_tile_domain(self):
        def job(comm):
            dist = Distributor((9, 7), comm=comm)
            return dist.local_ranges()

        out = run_parallel(job, 4)
        cells = set()
        for ranges in out:
            (r0, r1), (c0, c1) = ranges
            for i in range(r0, r1):
                for j in range(c0, c1):
                    assert (i, j) not in cells
                    cells.add((i, j))
        assert len(cells) == 63

    def test_boundary_rank_detection(self):
        def job(comm):
            dist = Distributor((8, 8), comm=comm)
            return (dist.is_boundary_rank(0, -1), dist.is_boundary_rank(0, 1),
                    dist.is_boundary_rank(1, -1), dist.is_boundary_rank(1, 1))

        out = run_parallel(job, 4)
        assert out[0] == (True, False, True, False)
        assert out[3] == (False, True, False, True)

    def test_owner_of_point(self):
        def job(comm):
            dist = Distributor((8, 8), comm=comm)
            return dist.owner_of((0, 0)), dist.owner_of((7, 7)), \
                dist.owns((4, 4))

        out = run_parallel(job, 4)
        assert all(o[0] == 0 and o[1] == 3 for o in out)
        assert [o[2] for o in out] == [False, False, False, True]

    def test_is_distributed_per_dim(self):
        def job(comm):
            dist = Distributor((8, 8), comm=comm, topology=(2, 1))
            return dist.is_distributed(0), dist.is_distributed(1)

        out = run_parallel(job, 2)
        assert all(o == (True, False) for o in out)


class TestDistributedData:
    def _make(self, comm, shape=(8, 8), halo=2):
        dist = Distributor(shape, comm=comm)
        specs = [DimSpec(n, dist_index=i, halo=(halo, halo))
                 for i, n in enumerate(shape)]
        return dist, Data(specs, dist)

    def test_global_scalar_assignment(self):
        def job(comm):
            dist, d = self._make(comm)
            d[2:6, 2:6] = 7.0
            return d.gather()

        out = run_parallel(job, 4)
        expected = np.zeros((8, 8), dtype=np.float32)
        expected[2:6, 2:6] = 7.0
        assert all(np.array_equal(o, expected) for o in out)

    def test_global_array_assignment_distributes_slabs(self):
        def job(comm):
            dist, d = self._make(comm)
            d[:, :] = np.arange(64, dtype=np.float32).reshape(8, 8)
            return d.gather()

        out = run_parallel(job, 4)
        expected = np.arange(64, dtype=np.float32).reshape(8, 8)
        assert all(np.array_equal(o, expected) for o in out)

    def test_partial_global_array_assignment(self):
        def job(comm):
            dist, d = self._make(comm)
            d[1:7, 3:5] = np.ones((6, 2), dtype=np.float32) * 3
            return d.gather()

        out = run_parallel(job, 4)
        expected = np.zeros((8, 8), dtype=np.float32)
        expected[1:7, 3:5] = 3
        assert np.array_equal(out[0], expected)

    def test_getitem_returns_local_intersection(self):
        def job(comm):
            dist, d = self._make(comm)
            d[:, :] = np.arange(64, dtype=np.float32).reshape(8, 8)
            return d[2:6, 2:6]

        out = run_parallel(job, 4)
        glob = np.arange(64, dtype=np.float32).reshape(8, 8)[2:6, 2:6]
        assert np.array_equal(out[0], glob[:2, :2])
        assert np.array_equal(out[3], glob[2:, 2:])

    def test_int_index_off_owner_empty(self):
        def job(comm):
            dist, d = self._make(comm)
            d[:, :] = 1.0
            return d[0, 0]

        out = run_parallel(job, 4)
        assert out[0].size == 1  # owner sees the scalar selection
        assert out[3].size == 0  # off-owner gets empty

    def test_negative_index_normalized(self):
        def job(comm):
            dist, d = self._make(comm)
            d[-1, -1] = 5.0
            return d.gather()

        out = run_parallel(job, 4)
        assert out[0][7, 7] == 5.0
        assert out[0].sum() == 5.0

    def test_halo_region_untouched_by_global_writes(self):
        def job(comm):
            dist, d = self._make(comm)
            d[:, :] = 1.0
            return float(d.with_halo.sum()), float(d.local.sum())

        out = run_parallel(job, 4)
        for whole, inner in out:
            assert whole == inner  # halo stayed zero

    def test_plain_leading_dimension(self):
        def job(comm):
            dist = Distributor((4, 4), comm=comm)
            specs = [DimSpec(2),
                     DimSpec(4, dist_index=0, halo=(1, 1)),
                     DimSpec(4, dist_index=1, halo=(1, 1))]
            d = Data(specs, dist)
            d[0, 1:-1, 1:-1] = 1.0
            return d.gather()

        out = run_parallel(job, 4)
        expected = np.zeros((2, 4, 4), dtype=np.float32)
        expected[0, 1:-1, 1:-1] = 1.0
        assert np.array_equal(out[0], expected)

    def test_ellipsis_key(self):
        dist = Distributor((4, 4))
        specs = [DimSpec(2), DimSpec(4, dist_index=0), DimSpec(4,
                                                               dist_index=1)]
        d = Data(specs, dist)
        d[1, ...] = 2.0
        assert d.with_halo[1].sum() == 32.0

    def test_shape_properties(self):
        def job(comm):
            dist, d = self._make(comm, shape=(6, 8))
            return d.shape_global, d.shape_local

        out = run_parallel(job, 4)
        assert all(o[0] == (6, 8) for o in out)
        assert out[0][1] == (3, 4)

    def test_serial_matches_parallel_gather(self):
        def fill(d):
            d[1:5, 2:7] = 4.0
            d[0, :] = -1.0

        dist_s, ds = self._make(None)
        fill(ds)
        serial = ds.gather()

        def job(comm):
            dist, d = self._make(comm)
            fill(d)
            return d.gather()

        out = run_parallel(job, 4)
        assert all(np.array_equal(o, serial) for o in out)
