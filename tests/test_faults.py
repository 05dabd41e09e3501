"""Deterministic fault injection + communication-correctness validation.

Covers the transport adversary (:mod:`repro.mpi.faults`), the
always-available validator (:mod:`repro.mpi.commlog`) and their
integration with the exchangers and ``Operator.apply``:

* fault-plan spec parsing and scheduling determinism;
* non-lethal plans (drop / duplicate / reorder / delay) are fully
  masked by the retry/dedup/ordering machinery — results stay
  bit-identical, and the same seed yields the same fault schedule;
* a killed rank surfaces as a clean :class:`RankKilledError` /
  :class:`RemoteRankError` from ``apply`` on *every* rank, with no
  leaked progress threads and no stale exchange state;
* counter snapshot/delta semantics survive an aborted apply (the next
  apply on a recovered world never double-counts);
* unmatched sends, tag collisions and wait-for-graph deadlock cycles
  are detected and reported by name.
"""

import threading

import numpy as np
import pytest

from repro import (Eq, Grid, Operator, TimeFunction, configuration, solve)
from repro.codegen import jit
from repro.mpi import (CommValidationError, Data, DeadlockError, DimSpec,
                       Distributor, FaultPlan, RankKilledError,
                       RemoteRankError, SimComm, SimWorld, TagCollisionError,
                       check_tag_spaces, make_exchanger, run_parallel)
from repro.parameters import Configuration


def _leaked_progress_threads():
    return [t for t in threading.enumerate()
            if t.name == 'mpi-progress' and t.is_alive()]


def _diffusion_job(comm, mpi='diagonal', shape=(12, 12), steps=6, so=4,
                   progress=False, backend=None):
    """One SPMD rank of the reference diffusion problem; returns the
    gathered field and the performance summary."""
    grid = Grid(shape=shape, extent=tuple(float(s - 1) for s in shape),
                comm=comm)
    u = TimeFunction(name='u', grid=grid, space_order=so)
    init = np.zeros(shape, dtype=np.float32)
    init[tuple(s // 2 for s in shape)] = 1.0
    init[tuple(s // 3 for s in shape)] = -2.0
    u.data[0] = init
    eq = Eq(u.dt, u.laplace)
    op = Operator([Eq(u.forward, solve(eq, u.forward))], mpi=mpi,
                  progress=progress, backend=backend)
    summary = op.apply(time_M=steps - 1, dt=0.02)
    return u.data.gather(), summary


class TestFaultPlanSpec:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            'seed=42,drop=0.05,duplicate=0.01,reorder=0.1,delay=0.2,'
            'delay_ms=2.5,kill=1@10,kill=3@7')
        assert plan.seed == 42
        assert plan.p_drop == 0.05
        assert plan.p_duplicate == 0.01
        assert plan.p_reorder == 0.1
        assert plan.p_delay == 0.2
        assert plan.delay == pytest.approx(2.5e-3)
        assert plan.kills == ((1, 10), (3, 7))
        assert plan.lethal

    def test_dup_alias(self):
        assert FaultPlan.parse('seed=1,dup=0.5') == \
            FaultPlan.parse('seed=1,duplicate=0.5')

    def test_describe_roundtrip(self):
        plan = FaultPlan.parse('seed=9,drop=0.25,kill=0@3')
        assert FaultPlan.parse(plan.describe()) == plan
        assert not FaultPlan.parse('seed=9,drop=0.25').lethal

    def test_parse_rejects_malformed(self):
        for bad in ('drop', 'frobnicate=1', 'kill=1', 'drop=nope',
                    'seed=1.5'):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)
        with pytest.raises(ValueError):
            FaultPlan(reorder=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(kills=[(-1, 0)])

    def test_decide_is_pure_and_seed_dependent(self):
        plan = FaultPlan(seed=7, drop=0.3, duplicate=0.3, reorder=0.3)
        messages = [(s, d, t, q) for s in range(2) for d in range(2)
                    for t in range(4) for q in range(8)]
        first = plan.schedule(messages)
        assert first == plan.schedule(messages)  # pure function
        assert first == FaultPlan(seed=7, drop=0.3, duplicate=0.3,
                                  reorder=0.3).schedule(messages)
        other = FaultPlan(seed=8, drop=0.3, duplicate=0.3,
                          reorder=0.3).schedule(messages)
        assert first != other  # different seed, different schedule
        assert any(a for a in first)  # the adversary actually fires
        # drop excludes the other channels
        for actions in first:
            if 'drop' in actions:
                assert actions == ('drop',)

    def test_tick_kills_only_the_named_rank_step(self):
        plan = FaultPlan(kills=[(1, 5)])
        plan.tick(0, 5)
        plan.tick(1, 4)
        with pytest.raises(RankKilledError) as err:
            plan.tick(1, 5)
        assert err.value.rank == 1 and err.value.timestep == 5
        assert isinstance(err.value, RemoteRankError)


class TestConfigurationKnobs:
    def test_env_seeding(self):
        cfg = Configuration(environ={'REPRO_FAULTS': 'seed=3,drop=0.125',
                                     'REPRO_COMMLOG': '0',
                                     'REPRO_COMM_TIMEOUT': '12.5',
                                     'REPRO_COMM_RETRIES': '5'})
        assert cfg['faults'] == FaultPlan(seed=3, drop=0.125)
        assert cfg['commlog'] is False
        assert cfg['comm_timeout'] == 12.5
        assert cfg['comm_retries'] == 5

    def test_defaults(self):
        cfg = Configuration(environ={})
        assert cfg['faults'] is False
        assert cfg['commlog'] is True
        assert cfg['comm_timeout'] == 60.0
        assert cfg['comm_retries'] == 3

    def test_spec_string_accepted(self):
        configuration['faults'] = 'seed=2,drop=0.1'
        assert configuration['faults'] == FaultPlan(seed=2, drop=0.1)
        configuration['faults'] = 'off'
        assert configuration['faults'] is False

    def test_bare_true_rejected(self):
        # 'true' without a spec is ambiguous: demand an explicit plan
        with pytest.raises(ValueError):
            configuration['faults'] = 'true'
        with pytest.raises(ValueError):
            configuration['comm_timeout'] = 0
        with pytest.raises(ValueError):
            configuration['comm_retries'] = -1

    def test_world_reads_configuration(self):
        configuration['faults'] = 'seed=11,drop=0.5'
        world = SimWorld(2)
        assert world.faults == FaultPlan(seed=11, drop=0.5)
        # explicit False overrides the configured plan
        assert SimWorld(2, faults=False).faults is None


class TestTransportFaults:
    """Channel-by-channel recovery at the raw transport level."""

    def test_drop_recovered_by_retry(self):
        world = SimWorld(2, faults=FaultPlan(seed=1, drop=1.0),
                         check_interval=0.01)
        c0, c1 = SimComm(world, 0), SimComm(world, 1)
        payload = np.arange(5, dtype=np.float32)
        c0.send(payload, 1, tag=4)
        assert world.ndrops_injected[1] == 1  # it really was dropped
        got = c1.recv(source=0, tag=4)
        assert np.array_equal(got, payload)
        assert world.nredelivered[1] == 1
        assert world.nretries[1] >= 1
        health = world.comm_health()
        assert health['drops_injected'] == 1
        assert health['redelivered'] == 1
        assert health['nsends'] == 1 and health['nrecvs'] == 1

    def test_duplicate_deduplicated(self):
        world = SimWorld(2, faults=FaultPlan(seed=1, duplicate=1.0))
        c0, c1 = SimComm(world, 0), SimComm(world, 1)
        c0.send(np.float32(3.0), 1, tag=0)
        assert world.ndups_injected[1] == 1
        assert c1.recv(source=0, tag=0) == np.float32(3.0)
        # the alias was purged: nothing left to receive
        assert not world.probe_pending(1, c1._id, 0, 0)

    def test_reorder_preserves_non_overtaking(self):
        world = SimWorld(2, faults=FaultPlan(seed=1, reorder=1.0))
        c0, c1 = SimComm(world, 0), SimComm(world, 1)
        for i in range(6):
            c0.send(i, 1, tag=2)
        # mailbox order is scrambled, matching order is not
        assert [c1.recv(source=0, tag=2) for _ in range(6)] == list(range(6))

    def test_drop_then_later_message_recovers_order(self):
        """A later same-stream arrival triggers on-the-spot redelivery
        of the earlier dropped message (no timeout burned)."""
        plan = FaultPlan(seed=0, drop=1.0)
        world = SimWorld(2, faults=plan, check_interval=5.0)
        c0, c1 = SimComm(world, 0), SimComm(world, 1)
        c0.send('first', 1, tag=9)       # dropped (seq 0)
        world.faults = None
        c0.send('second', 1, tag=9)      # delivered (seq 1)
        assert c1.recv(source=0, tag=9) == 'first'
        assert c1.recv(source=0, tag=9) == 'second'

    def test_delay_only_slows(self):
        world = SimWorld(2, faults=FaultPlan(seed=1, delay=1.0,
                                             delay_time=1e-4))
        c0, c1 = SimComm(world, 0), SimComm(world, 1)
        c0.send('x', 1, tag=0)
        assert c1.recv(source=0, tag=0) == 'x'

    def test_recv_timeout_bounded(self):
        world = SimWorld(2, recv_timeout=0.05, check_interval=0.01)
        with pytest.raises(RemoteRankError, match='timed out'):
            world.collect(0, ('world',), 1, 3)


class TestCommLogValidation:
    def test_unmatched_send_detected(self):
        world = SimWorld(2)
        c0 = SimComm(world, 0)
        c0.send(np.zeros(4, dtype=np.float32), 1, tag=3)
        world.commlog.validate(world, 0)  # rank 0's mailbox is clean
        with pytest.raises(CommValidationError, match='unmatched'):
            world.commlog.validate(world, 1)
        assert world.commlog.unmatched() == [(0, 1, 3, 1, None)]
        assert world.comm_health()['unmatched'] == 1

    def test_matched_traffic_validates(self):
        world = SimWorld(2)
        c0, c1 = SimComm(world, 0), SimComm(world, 1)
        c0.send('a', 1, tag=0)
        c1.recv(source=0, tag=0)
        world.commlog.validate(world, 0)
        world.commlog.validate(world, 1)
        assert world.commlog.unmatched() == []

    def test_disabled_commlog_records_nothing(self):
        configuration['commlog'] = False
        world = SimWorld(2)
        c0, c1 = SimComm(world, 0), SimComm(world, 1)
        c0.send('a', 1, tag=0)
        c1.recv(source=0, tag=0)
        assert world.commlog.counters()['nsends'] == 0

    def test_tag_collision_detected(self):
        dist = Distributor((8, 8))
        halo = [(1, 1), (1, 1)]
        widths = [(1, 1), (1, 1)]
        a = make_exchanger('diagonal', dist, halo, widths, tag_base=0)
        b = make_exchanger('diagonal', dist, halo, widths, tag_base=4)
        with pytest.raises(TagCollisionError, match='tag collision'):
            check_tag_spaces({'u': a, 'v': b})
        # disjoint spaces pass: 3^2 = 9 tags each
        c = make_exchanger('diagonal', dist, halo, widths, tag_base=9)
        check_tag_spaces({'u': a, 'v': c})

    def test_geometry_validation_accepts_uneven_decomposition(self):
        """validate_geometry must not false-positive on 13x11 over 3."""
        def job(comm):
            dist = Distributor((13, 11), comm=comm)
            specs = [DimSpec(n, dist_index=i, halo=(2, 2))
                     for i, n in enumerate((13, 11))]
            d = Data(specs, dist)
            d[...] = np.arange(13 * 11, dtype=np.float32).reshape(13, 11)
            ex = make_exchanger('diagonal', dist, d.halo,
                                [(2, 2), (2, 2)])
            ex.exchange(d.with_halo)
            return ex.nmessages

        counts = run_parallel(job, 3)
        assert all(c > 0 for c in counts)


class TestDeadlockDetection:
    def test_cycle_named_before_timeout(self):
        world = SimWorld(2, recv_timeout=30.0, check_interval=0.02)
        errors = {}

        def wait_on(rank, source, tag):
            try:
                world.collect(rank, ('world',), source, tag)
            except RemoteRankError as err:
                errors[rank] = err

        threads = [threading.Thread(target=wait_on, args=(0, 1, 5)),
                   threading.Thread(target=wait_on, args=(1, 0, 7))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        deadlocks = [e for e in errors.values()
                     if isinstance(e, DeadlockError)]
        assert deadlocks, errors
        err = deadlocks[0]
        assert sorted(err.cycle) == [0, 1]
        assert 'cycle' in str(err) and 'waits on' in str(err)

    def test_run_parallel_surfaces_deadlock(self):
        configuration['comm_timeout'] = 30.0

        def job(comm):
            # rank r waits for a message its peer never sends
            comm.recv(source=(comm.rank + 1) % 2, tag=99)

        with pytest.raises(DeadlockError):
            run_parallel(job, 2)

    def test_wildcard_waits_do_not_probe(self):
        """ANY_SOURCE edges are not concrete: no false cycle."""
        world = SimWorld(2, recv_timeout=0.1, check_interval=0.02)
        from repro.mpi import ANY_SOURCE
        with pytest.raises(RemoteRankError, match='timed out'):
            world.collect(0, ('world',), ANY_SOURCE, 5)


class TestOperatorFaultIntegration:
    def test_non_lethal_plan_bit_identical(self):
        """Same seed -> same schedule -> bit-identical fields; and the
        faults are fully masked vs the clean run."""
        clean = run_parallel(lambda c: _diffusion_job(c), 4)
        configuration['faults'] = \
            'seed=7,drop=0.04,duplicate=0.04,reorder=0.15'
        faulty1 = run_parallel(lambda c: _diffusion_job(c), 4)
        faulty2 = run_parallel(lambda c: _diffusion_job(c), 4)
        for (f0, _), (f1, s1), (f2, _) in zip(clean, faulty1, faulty2):
            assert np.array_equal(f1, f0)   # masked
            assert np.array_equal(f2, f1)   # deterministic
        health = faulty1[0][1].comm_health
        assert health['drops_injected'] > 0
        assert health['redelivered'] >= 1
        assert health['duplicates_injected'] > 0
        assert health['unmatched'] == 0

    @pytest.mark.parametrize('mode', ['basic', 'diagonal', 'full'])
    def test_non_lethal_plan_masked_every_mode(self, mode):
        clean = run_parallel(lambda c: _diffusion_job(c, mpi=mode,
                                                      steps=4), 4)
        configuration['faults'] = 'seed=5,drop=0.05,reorder=0.1'
        faulty = run_parallel(lambda c: _diffusion_job(c, mpi=mode,
                                                       steps=4), 4)
        for (f0, _), (f1, _) in zip(clean, faulty):
            assert np.array_equal(f1, f0)

    @pytest.mark.skipif(jit.find_compiler() is None,
                        reason='no C toolchain on this host')
    @pytest.mark.parametrize('mode', ['basic', 'diagonal', 'full'])
    def test_compiled_step_injects_the_same_faults(self, mode, step_calls):
        """The compiled step's channels ask the plan about the same
        messages, by the same ordinals, as the Python transport: on a
        fresh 2-rank world both drivers inject equal drops and
        duplicates, redeliver every drop, and match the clean run."""
        clean = run_parallel(lambda c: _diffusion_job(c, mpi=mode), 2)
        configuration['faults'] = \
            'seed=1,drop=0.1,duplicate=0.1,reorder=0.1,delay=0.1'

        def job(comm, backend):
            comm.world.check_interval = 0.01
            field, _ = _diffusion_job(comm, mpi=mode, backend=backend)
            return field, comm.world, step_calls()
        health = {}
        for backend in ('numpy', 'c'):
            out = run_parallel(job, 2, backend)
            for (f0, _), (f1, _, calls) in zip(clean, out):
                assert np.array_equal(f1, f0), backend
                assert calls == (6 if backend == 'c' else 0)
            health[backend] = out[0][1].comm_health()
            assert health[backend]['redelivered'] == \
                health[backend]['drops_injected'] > 0
        for key in ('drops_injected', 'duplicates_injected'):
            assert health['c'][key] == health['numpy'][key], key

    def test_comm_health_in_summary_json(self):
        configuration['faults'] = 'seed=3,drop=0.1'
        out = run_parallel(lambda c: _diffusion_job(c, steps=3), 2)
        summary = out[0][1]
        blob = summary.to_dict()
        assert blob['comm_health'] == summary.comm_health
        assert blob['comm_health']['nsends'] > 0

    def _kill_job(self, comm, barrier, clean_nmessages, progress=False):
        mpi = 'full' if progress else 'diagonal'
        grid = Grid(shape=(12, 12), comm=comm)
        u = TimeFunction(name='u', grid=grid, space_order=4)
        u.data[0, 6, 6] = 1.0
        eq = Eq(u.dt, u.laplace)
        op = Operator([Eq(u.forward, solve(eq, u.forward))], mpi=mpi,
                      progress=progress)
        outcome = None
        try:
            op.apply(time_M=5, dt=0.02)
        except RankKilledError as err:
            outcome = ('killed', err.rank, err.timestep)
        except RemoteRankError:
            outcome = ('peer', None, None)
        # collective teardown left no stale exchange state behind
        assert all(ex._inflight == [] for ex in op.exchangers.values())
        barrier.wait()
        if comm.rank == 0:
            comm.world.reset()
            comm.world.faults = None
        barrier.wait()
        # the recovered world supports a clean apply whose per-run
        # message deltas match a never-faulted reference exactly
        summary = op.apply(time_M=5, dt=0.02)
        assert summary.nmessages == clean_nmessages
        return outcome

    def _clean_count(self, mpi='diagonal', progress=False):
        def job(comm):
            grid = Grid(shape=(12, 12), comm=comm)
            u = TimeFunction(name='u', grid=grid, space_order=4)
            eq = Eq(u.dt, u.laplace)
            op = Operator([Eq(u.forward, solve(eq, u.forward))], mpi=mpi,
                          progress=progress)
            return op.apply(time_M=5, dt=0.02).nmessages

        return run_parallel(job, 2)[0]

    def test_rank_kill_collective_teardown(self):
        clean = self._clean_count()
        configuration['faults'] = 'seed=1,kill=1@3'
        barrier = threading.Barrier(2)
        out = run_parallel(
            lambda c: self._kill_job(c, barrier, clean), 2, timeout=60.0)
        kinds = sorted(o[0] for o in out)
        assert kinds == ['killed', 'peer']
        killed = next(o for o in out if o[0] == 'killed')
        assert killed[1:] == (1, 3)
        assert _leaked_progress_threads() == []

    def test_rank_kill_full_mode_no_thread_leak(self):
        """full + progress thread: the kill path joins the prodder."""
        clean = self._clean_count(mpi='full', progress=True)
        configuration['faults'] = 'seed=1,kill=0@2'
        barrier = threading.Barrier(2)
        out = run_parallel(
            lambda c: self._kill_job(c, barrier, clean, progress=True),
            2, timeout=60.0)
        kinds = sorted(o[0] for o in out)
        assert kinds == ['killed', 'peer']
        assert _leaked_progress_threads() == []

    def test_kill_raises_from_run_parallel(self):
        """Without per-rank handling the error propagates cleanly."""
        configuration['faults'] = 'kill=0@1'
        with pytest.raises(RankKilledError):
            run_parallel(lambda c: _diffusion_job(c, steps=4), 2)
        assert _leaked_progress_threads() == []

    def test_serial_run_kill(self):
        """fault_tick fires on single-rank runs too."""
        configuration['faults'] = 'kill=0@2'
        grid = Grid(shape=(12, 12))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        eq = Eq(u.dt, u.laplace)
        op = Operator([Eq(u.forward, solve(eq, u.forward))])
        with pytest.raises(RankKilledError):
            op.apply(time_M=5, dt=0.02)
        # the plan was captured by the serial world at grid construction;
        # disarm it there and the same operator recovers
        grid.comm.world.faults = None
        grid.comm.world.reset()
        op.apply(time_M=5, dt=0.02)


class TestExchangerAbort:
    def test_full_abort_joins_progress_thread(self):
        def job(comm):
            dist = Distributor((8, 8), comm=comm)
            specs = [DimSpec(8, dist_index=i, halo=(2, 2))
                     for i in range(2)]
            d = Data(specs, dist)
            d[...] = np.arange(64, dtype=np.float32).reshape(8, 8)
            ex = make_exchanger('full', dist, d.halo, [(2, 2), (2, 2)],
                                progress=True)
            ex.begin(d.with_halo)
            assert ex._thread is not None and ex._thread.is_alive()
            ex.abort()           # begin() with no finish(): abort cleans up
            assert ex._thread is None
            assert ex._inflight == []
            # drain the peer's messages so teardown stays quiescent
            ex2 = make_exchanger('full', dist, d.halo, [(2, 2), (2, 2)])
            ex2.exchange(d.with_halo)
            return True

        assert all(run_parallel(job, 4))
        assert _leaked_progress_threads() == []
