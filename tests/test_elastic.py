"""Elastic repartitioning: grow, rebalance and autoscale — losslessly.

Covers :mod:`repro.resilience.elastic` and its wiring through the
stack:

* kill -> shrink -> grow-back under ``recovery='grow'``: the healed
  victim rejoins, the original process topology is restored, and the
  result is bit-identical to a fault-free serial run;
* disarmed-kill banking across repartition boundaries (keyed on
  original rank identity): a kill that already fired never re-fires on
  the grown world;
* reserve-rank growth: ``run_elastic`` hands announced reserve ranks to
  a live run under ``repartition='grow'``, which grows mid-run onto
  them — bit-identically, for actives and joiners alike;
* weighted rebalancing: explicit and measured per-rank weights move
  block boundaries mid-run without changing a single output bit;
* the post-repartition static-verifier gate (every repartitioned
  schedule re-passes analysis), fresh certificates and cache entries
  after every transition, sanitizer modes kept across a rebalance,
  hysteresis/budget bounds, the public ``Operator.repartition`` API and
  loud validation everywhere.
"""

import numpy as np
import pytest

from repro import (Eq, Grid, Operator, SparseTimeFunction, TimeFunction,
                   configuration, solve)
from repro.analysis.certificate import build_certificate
from repro.dsl import sparse as sparse_mod
from repro.mpi import run_parallel
from repro.mpi.sim import SimComm, SimWorld
from repro.resilience import (REPARTITION_POLICIES,
                              rank_weights_to_dim_weights, run_elastic)

STEPS = 10
DT = 0.02
SHAPE = (16, 12)
#: receivers straddling the rank boundaries of 2- and 2x2-rank splits
REC_COORDS = np.array([[7.5, 5.5], [8.0, 2.25], [3.25, 6.0], [12.5, 9.75],
                       [0.0, 11.0]])


@pytest.fixture(autouse=True)
def _small_receiver_blocks(monkeypatch):
    """Blocks of 5 receiver rows: kills, checkpoints and repartitions
    land mid-block, where rows are still pending on each rank."""
    monkeypatch.setattr(sparse_mod, 'PENDING_ROWS_BYTES',
                        5 * 8 * len(REC_COORDS))


def _initial(shape=SHAPE):
    return (np.add.outer(np.arange(shape[0]) * 0.01,
                         np.arange(shape[1]) * 0.001).astype(np.float32))


def _build(comm, shape=SHAPE, topology=None, mpi='diagonal',
           sanitizer=None):
    grid = Grid(shape=shape, extent=tuple(float(s - 1) for s in shape),
                comm=comm, topology=topology)
    u = TimeFunction(name='u', grid=grid, space_order=2)
    u.data[0] = _initial(shape)
    rec = SparseTimeFunction('rec', grid, npoint=len(REC_COORDS),
                             nt=STEPS + 1, coordinates=REC_COORDS)
    eq = Eq(u.dt, u.laplace)
    return Operator([Eq(u.forward, solve(eq, u.forward)),
                     rec.interpolate(expr=u)],
                    mpi=mpi if comm is not None else None,
                    sanitizer=sanitizer)


def _state(op):
    """The gathered field followed by the receiver rows, flat: one
    bitwise comparison covers both."""
    (u,), (rec,) = op.functions, op.sparse_functions
    return np.concatenate([u.data.gather().ravel(), rec.data.ravel()])


def _oracle():
    op = _build(None)
    op.apply(time_M=STEPS, dt=DT)
    return _state(op)


def _final_world(op):
    """The operator's *current* world (the caller's comm is stale after
    a repartition)."""
    return op.grid.distributor.comm.world


class TestGrowBack:
    """kill -> shrink -> grow back to full size (``--recover grow``)."""

    def _run(self, tmp_path, ranks=4, topology=(2, 2)):
        oracle = _oracle()
        configuration['faults'] = 'seed=5,kill=2@4'

        def job(comm):
            op = _build(comm, topology=topology)
            op.apply(time_M=STEPS, dt=DT, recovery='grow',
                     checkpoint_every=2, checkpoint_dir=str(tmp_path))
            assert op.certificate == build_certificate(op.schedule)
            world = _final_world(op)
            return (_state(op), world.size,
                    dict(world.recovery_stats), set(world.disarmed_kills),
                    op.grid.distributor.topology, op.analysis)

        return oracle, run_parallel(job, ranks)

    def test_grow_back_restores_size_and_bits(self, tmp_path):
        oracle, results = self._run(tmp_path)
        for r, (data, size, stats, _, topo, _) in enumerate(results):
            assert size == 4, (r, size)
            assert topo == (2, 2)  # original process grid restored
            assert np.array_equal(data, oracle), 'rank %d mismatch' % r
        stats = results[0][2]
        assert stats['recoveries'] == 1
        assert stats['ranks_lost'] == 1
        assert stats['repartitions'] == 1
        assert stats['grown_ranks'] == 1
        assert stats['repartition_bytes'] > 0

    def test_disarmed_kills_banked_across_grow(self, tmp_path):
        """The fired kill is banked by original rank identity: after
        the victim rejoins, replayed fault ticks must not re-kill it —
        the run completes with zero extra recoveries (asserted above)
        and the grown world still carries the disarm record."""
        _, results = self._run(tmp_path)
        for _, _, stats, disarmed, _, _ in results:
            assert disarmed, "disarm bank lost across the repartition"
            assert any(rank == 2 for rank, _ in disarmed)
            assert stats['recoveries'] == 1  # no re-kill, no second pass

    def test_post_repartition_schedule_verified(self, tmp_path):
        """Every post-repartition schedule re-runs the static verifier;
        the resulting report is attached to the operator and clean."""
        _, results = self._run(tmp_path)
        for *_, report in results:
            assert report is not None
            assert not report.errors


class TestReserveGrow:
    """2 actives + 2 announced reserves -> grow to 4 mid-run."""

    def test_grow_onto_reserves_bit_identical(self):
        oracle = _oracle()

        def active(comm):
            op = _build(comm)
            op.apply(time_M=STEPS, dt=DT, repartition='grow',
                     min_steps_between_repartitions=3)
            assert op.certificate == build_certificate(op.schedule)
            world = _final_world(op)
            return _state(op), world.size, \
                dict(world.recovery_stats), op.analysis

        def reserve(lineage, orig):
            # throwaway target-size world so the schedule carries every
            # halo exchange the grown topology needs
            op = _build(SimComm(SimWorld(4, faults=False), 0))
            op.apply(time_M=STEPS, dt=DT,
                     _elastic_join={'lineage': lineage, 'orig': orig})
            return _state(op), _final_world(op).size

        act, resv = run_elastic(active, 2, reserve_fn=reserve, nreserve=2)
        assert len(act) == 2 and len(resv) == 2
        for r, (data, size, stats, report) in enumerate(act):
            assert size == 4
            assert np.array_equal(data, oracle), 'active %d mismatch' % r
            assert not report.errors
        assert act[0][2]['repartitions'] == 1
        assert act[0][2]['grown_ranks'] == 2
        for r, (data, size) in enumerate(resv):
            assert size == 4
            assert np.array_equal(data, oracle), 'reserve %d mismatch' % r

    def test_grow_under_reconcile_stores_fresh_entries(self):
        """After a 2 -> 4 grow under ``sanitizer='reconcile'`` the grown
        operator reconciles against its own certificate, and so does a
        fresh 4-rank Operator built in the same process — served from
        the cache entries the grow stored."""
        def again(op):
            op.apply(time_M=STEPS, dt=DT)  # ReconcileError on a mismatch
            fresh = _build(op.grid.distributor.comm, sanitizer='reconcile')
            fresh.apply(time_M=STEPS, dt=DT)
            return fresh.cache_info()['status']

        def active(comm):
            op = _build(comm, sanitizer='reconcile')
            op.apply(time_M=STEPS, dt=DT, repartition='grow')
            return again(op)

        def reserve(lineage, orig):
            op = _build(SimComm(SimWorld(4, faults=False), 0),
                        sanitizer='reconcile')
            op.apply(time_M=STEPS, dt=DT,
                     _elastic_join={'lineage': lineage, 'orig': orig})
            return again(op)

        act, resv = run_elastic(active, 2, reserve_fn=reserve, nreserve=2)
        assert act + resv == ['hit'] * 4

    def test_grow_policy_without_reserves_is_inert(self):
        """``repartition='grow'`` with nobody waiting never fires."""
        oracle = _oracle()

        def job(comm):
            op = _build(comm)
            op.apply(time_M=STEPS, dt=DT, repartition='grow')
            world = _final_world(op)
            return _state(op), world.size, dict(world.recovery_stats)

        results = run_parallel(job, 2)
        for data, size, stats in results:
            assert size == 2
            assert stats.get('repartitions', 0) == 0
            assert np.array_equal(data, oracle)


class TestRebalance:
    def test_weighted_rebalance_bit_identical(self):
        oracle = _oracle()
        weights = (3.0, 1.0, 1.0, 2.0)

        def job(comm):
            op = _build(comm, topology=(2, 2))
            op.apply(time_M=STEPS, dt=DT, repartition='balance',
                     repartition_every=3, max_repartitions=1,
                     repartition_weights=weights)
            assert op.certificate == build_certificate(op.schedule)
            world = _final_world(op)
            return (_state(op), dict(world.recovery_stats),
                    tuple(d.sizes
                          for d in op.grid.distributor.decompositions),
                    op.analysis)

        results = run_parallel(job, 4)
        for r, (data, stats, sizes, report) in enumerate(results):
            assert np.array_equal(data, oracle), 'rank %d mismatch' % r
            assert not report.errors
        _, stats, sizes, _ = results[0]
        assert stats['repartitions'] == 1
        assert stats['repartition_bytes'] > 0
        # the heavy ranks got the larger subdomains
        for per_dim in sizes:
            assert per_dim[0] > per_dim[-1]

    def test_repartition_budget_and_hysteresis_bound_oscillation(self):
        """With an aggressive cadence, the number of repartitions is
        bounded by ``max_repartitions`` and spaced by at least
        ``min_steps_between_repartitions``."""
        oracle = _oracle()

        def job(comm):
            op = _build(comm)
            op.apply(time_M=STEPS, dt=DT, repartition='balance',
                     repartition_every=1, max_repartitions=2,
                     min_steps_between_repartitions=3,
                     repartition_weights=(2.0, 1.0))
            return _state(op), \
                dict(_final_world(op).recovery_stats)

        results = run_parallel(job, 2)
        for data, stats in results:
            assert np.array_equal(data, oracle)
        # STEPS=10 with min spacing 3 would allow 3 firings; the budget
        # caps it at 2
        assert results[0][1]['repartitions'] == 2

    def test_repartition_off_by_default(self):
        def job(comm):
            op = _build(comm)
            op.apply(time_M=STEPS, dt=DT)
            return dict(comm.world.recovery_stats)

        results = run_parallel(job, 2)
        assert results[0].get('repartitions', 0) == 0


class TestRepartitionAPI:
    def test_operator_repartition_rebalances_in_place(self):
        """The public API: rebalance a live operator's world; gathered
        bits are untouched while block boundaries move."""
        oracle = _oracle()

        def job(comm):
            op = _build(comm)
            op.apply(time_M=STEPS, dt=DT)
            before = tuple(d.sizes
                           for d in op.grid.distributor.decompositions)
            op.repartition(weights=(3.0, 1.0))
            after = tuple(d.sizes
                          for d in op.grid.distributor.decompositions)
            return _state(op), before, after

        results = run_parallel(job, 2)
        for data, before, after in results:
            assert np.array_equal(data, oracle)
            assert before != after

    def test_rebalance_under_reconcile_compiles_no_hooks(self):
        """``sanitizer='reconcile'`` leaves the kernel hook-free across a
        rebalance, and the next apply reconciles against the rebalanced
        kernel's own certificate."""
        def job(comm):
            op = _build(comm, topology=(2, 2), sanitizer='reconcile')
            op.apply(time_M=STEPS, dt=DT)
            op.repartition(weights=(3.0, 1.0, 1.0, 2.0))
            assert op.kernel.sanitizer is None
            assert op.certificate == build_certificate(op.schedule)
            op.apply(time_M=STEPS, dt=DT)  # ReconcileError on a mismatch
            return True

        assert all(run_parallel(job, 4))

    def test_operator_repartition_rejects_shrink(self):
        def job(comm):
            op = _build(comm)
            with pytest.raises(ValueError, match='shrink'):
                op.repartition(new_ranks=1)
            return True

        assert all(run_parallel(job, 2))

    def test_policies_exported(self):
        assert REPARTITION_POLICIES == ('off', 'grow', 'balance')

    def test_unknown_apply_kwargs_list_repartition_options(self):
        op = _build(None)
        with pytest.raises(ValueError) as err:
            op.apply(time_M=2, dt=DT, bogus_option=1)
        message = str(err.value)
        for name in ('repartition', 'repartition_every',
                     'max_repartitions', 'repartition_weights',
                     'min_steps_between_repartitions'):
            assert name in message

    def test_invalid_policy_rejected(self):
        op = _build(None)
        with pytest.raises(ValueError):
            op.apply(time_M=2, dt=DT, repartition='sideways')


class TestWeightHelpers:
    def test_rank_to_dim_weights_cmajor_means(self):
        # 2x2 topology, C-order ranks: dim-0 parts average rows,
        # dim-1 parts average columns
        dims = rank_weights_to_dim_weights((3.0, 1.0, 1.0, 2.0), (2, 2))
        assert dims == ((2.0, 1.5), (2.0, 1.5))

    def test_rank_to_dim_weights_1d(self):
        # the unsplit dimension collapses to one part (overall mean)
        assert rank_weights_to_dim_weights((2.0, 1.0), (2, 1)) == \
            ((2.0, 1.0), (1.5,))

    def test_rank_to_dim_weights_validation(self):
        with pytest.raises(ValueError):
            rank_weights_to_dim_weights((1.0, 2.0), (2, 2))  # wrong count
        with pytest.raises(ValueError):
            rank_weights_to_dim_weights((1.0, -1.0), (2, 1))
        with pytest.raises(ValueError):
            rank_weights_to_dim_weights((0.0, 0.0), (2, 1))

    def test_configuration_weight_parsing(self):
        configuration['repartition_weights'] = '3,1'
        assert configuration['repartition_weights'] == (3.0, 1.0)
        configuration['repartition_weights'] = 'none'
        assert configuration['repartition_weights'] is None
        with pytest.raises(ValueError):
            configuration['repartition_weights'] = '1,-2'
