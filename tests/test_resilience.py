"""Checkpoint/restart, shrink recovery and numerical health guards.

Covers :mod:`repro.resilience` and its wiring through the stack:

* atomic write discipline (tmp + rename) for checkpoints, manifests and
  the advanced profile JSON — an interrupted writer never leaves a
  truncated artifact;
* checkpoint round-trips through the block mover and manifest
  validation, including fallback past a checkpoint whose writer was
  killed mid-snapshot, and resuming on a different rank count (damaged
  sealed files are fuzzed in ``test_sealed.py``);
* the hardened :meth:`SimWorld.reset` (mailboxes, fault limbo, commlog
  ledgers, sequence counters);
* loud validation of unknown ``Operator.apply`` kwargs and unknown
  ``configuration`` keys;
* kill + ``restart`` recovery equivalence across all three exchange
  modes and several rank counts, and ``shrink`` recovery (4 -> 3 on a
  2D topology) — both bit-identical to a fault-free serial run, the
  shrunk kernel rebuilt through the Operator's own build path;
* health guards raising the same diagnosable
  :class:`NumericalHealthError` on every rank;
* recovery counters/time/bytes surfacing in ``comm_health`` and the
  profile, with no leaked progress threads after recovery.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro import (Eq, Grid, Operator, SparseTimeFunction, TimeFunction,
                   configuration, solve)
from repro.dsl import sparse as sparse_mod
from repro.ioutil import atomic_write_bytes, atomic_write_json
from repro.mpi import (RankKilledError, RemoteRankError, SimComm, SimWorld,
                       run_parallel)
from repro.resilience import (Checkpointer, CheckpointError, HealthGuard,
                              NumericalHealthError)
from repro.resilience.elastic import restore_checkpoint

STEPS = 8
DT = 0.02
#: receivers straddling the rank boundaries of 2- and 2x2-rank splits
REC_COORDS = np.array([[5.5, 5.5], [5.0, 8.25], [2.25, 6.0], [9.5, 1.75],
                       [0.0, 11.0]])
#: receiver rows (time axis) — fixed, so a resumed run's checkpoint fits
NT = 16


@pytest.fixture(autouse=True)
def _small_receiver_blocks(monkeypatch):
    """Blocks of 5 receiver rows: kills, checkpoints and repartitions
    land mid-block, where rows are still pending on each rank."""
    monkeypatch.setattr(sparse_mod, 'PENDING_ROWS_BYTES',
                        5 * 8 * len(REC_COORDS))


def _leaked_progress_threads():
    return [t for t in threading.enumerate()
            if t.name == 'mpi-progress' and t.is_alive()]


def _job(comm, mpi='diagonal', shape=(12, 12), steps=STEPS, so=2,
         topology=None, progress=False, sanitizer=None, ops=None,
         **apply_kwargs):
    """One SPMD rank of the reference diffusion problem, with receivers.

    Returns ``(state, summary)`` — the gathered field followed by the
    receiver rows, flat, so one bitwise comparison covers both; a rank
    killed under shrink recovery returns None (it left the job, the
    survivors finish it).  ``ops``, when given, collects the Operator.
    """
    grid = Grid(shape=shape, extent=tuple(float(s - 1) for s in shape),
                comm=comm, topology=topology)
    u = TimeFunction(name='u', grid=grid, space_order=so)
    init = np.zeros(shape, dtype=np.float32)
    init[tuple(s // 2 for s in shape)] = 1.0
    init[tuple(s // 3 for s in shape)] = -2.0
    u.data[0] = init
    rec = SparseTimeFunction('rec', grid, npoint=len(REC_COORDS), nt=NT,
                             coordinates=REC_COORDS)
    eq = Eq(u.dt, u.laplace)
    op = Operator([Eq(u.forward, solve(eq, u.forward)),
                   rec.interpolate(expr=u)], mpi=mpi, progress=progress,
                  sanitizer=sanitizer)
    if ops is not None:
        ops.append(op)
    try:
        summary = op.apply(time_M=steps - 1, dt=DT, **apply_kwargs)
    except RankKilledError:
        if apply_kwargs.get('recovery') == 'shrink':
            return None
        raise
    return np.concatenate([u.data.gather().ravel(), rec.data.ravel()]), \
        summary


def _serial_reference(**kwargs):
    return _job(None, **kwargs)[0]


# -- satellite: atomic writes -------------------------------------------------

class TestAtomicWrites:
    def test_bytes_and_json_roundtrip(self, tmp_path):
        p = tmp_path / 'blob.bin'
        atomic_write_bytes(p, b'abc')
        assert p.read_bytes() == b'abc'
        atomic_write_json(tmp_path / 'x.json', {'a': [1, 2]})
        assert json.loads((tmp_path / 'x.json').read_text()) == \
            {'a': [1, 2]}
        # no tmp droppings
        assert sorted(f.name for f in tmp_path.iterdir()) == \
            ['blob.bin', 'x.json']

    def test_interrupted_write_preserves_old_file(self, tmp_path,
                                                  monkeypatch):
        """A writer killed before the rename leaves the previous version
        intact and no temporary file behind."""
        p = tmp_path / 'state.json'
        atomic_write_json(p, {'version': 1})

        real_replace = os.replace

        def boom(src, dst):
            raise KeyboardInterrupt("killed mid-checkpoint")

        monkeypatch.setattr(os, 'replace', boom)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_json(p, {'version': 2})
        monkeypatch.setattr(os, 'replace', real_replace)
        assert json.loads(p.read_text()) == {'version': 1}
        assert [f.name for f in tmp_path.iterdir()] == ['state.json']

    def test_profile_json_is_atomic(self, tmp_path):
        out = tmp_path / 'prof.json'
        configuration['profiling'] = 'advanced'
        _, summary = _job(None)
        summary.save_json(out)
        data = json.loads(out.read_text())
        assert 'sections' in data
        assert [f.name for f in tmp_path.iterdir()] == ['prof.json']


# -- checkpoint format + validation -------------------------------------------

class TestCheckpointer:
    def _serial_state(self, shape=(10, 10)):
        grid = Grid(shape=shape)
        u = TimeFunction(name='u', grid=grid, space_order=2)
        u.data[0] = np.arange(np.prod(shape), dtype=np.float32) \
            .reshape(shape)
        op = Operator([Eq(u.forward, u + 1.0)])
        return grid, u, op

    def test_roundtrip_serial(self, tmp_path):
        """Save, scribble over every cell (halo included), restore
        through the block mover: the state comes back exactly."""
        grid, u, op = self._serial_state()
        ck = Checkpointer(tmp_path)
        comm = grid.comm
        ck.save(3, comm, comm.world, op.functions, [], grid.distributor)
        snap = u.data.with_halo.copy()
        u.data.with_halo.fill(-1.0)
        step, manifest = ck.latest_valid()
        assert step == 3
        restore_checkpoint(op, ck, step, manifest)
        assert np.array_equal(u.data.with_halo, snap)

    def test_kill_mid_checkpoint_leaves_no_manifest(self, tmp_path):
        """A writer killed between the rank files and the manifest: the
        step directory exists but is *not* a checkpoint; recovery falls
        back to the older complete version."""
        grid, u, op = self._serial_state()
        ck = Checkpointer(tmp_path)
        world = grid.comm.world
        ck.save(1, grid.comm, world, op.schedule.functions, [],
                grid.distributor)
        # simulate: rank file written, coordinator killed pre-manifest
        os.makedirs(ck.step_dir(5), exist_ok=True)
        atomic_write_bytes(ck.rank_file(5, 0), b'partial snapshot')
        assert ck.steps_on_disk() == [1]
        step, _ = ck.latest_valid()
        assert step == 1

    def test_retention_prunes_oldest(self, tmp_path):
        grid, u, op = self._serial_state()
        ck = Checkpointer(tmp_path, keep=2)
        world = grid.comm.world
        for step in (1, 2, 3, 4):
            ck.save(step, grid.comm, world, op.schedule.functions, [],
                    grid.distributor)
        assert ck.steps_on_disk() == [3, 4]

    def test_no_checkpoint_raises(self, tmp_path):
        ck = Checkpointer(tmp_path / 'empty')
        with pytest.raises(CheckpointError):
            ck.latest_valid()

    def test_distributed_save_no_gather(self, tmp_path):
        """Every rank writes its own file (keyed by original rank)."""
        def job(comm):
            grid = Grid(shape=(12, 12), comm=comm)
            u = TimeFunction(name='u', grid=grid, space_order=2)
            u.data[0] = np.arange(144, dtype=np.float32).reshape(12, 12)
            op = Operator([Eq(u.forward, u + 1.0)])
            ck = Checkpointer(tmp_path)
            ck.save(0, comm, comm.world, op.schedule.functions, [],
                    grid.distributor)
            return True

        assert all(run_parallel(job, 4))
        names = sorted(os.listdir(os.path.join(tmp_path, 'step-000000')))
        assert names == ['manifest.json', 'rank0.arr', 'rank1.arr',
                         'rank2.arr', 'rank3.arr']
        manifest = Checkpointer(tmp_path).validate(0)
        assert manifest['world_size'] == 4
        assert len(manifest['ranks']) == 4


# -- satellite: hardened SimWorld.reset ---------------------------------------

class TestWorldReset:
    def test_reset_clears_inflight_state(self):
        world = SimWorld(2)
        a, b = SimComm(world, 0), SimComm(world, 1)
        a.isend({'stale': True}, dest=1, tag=7)  # never received
        assert world._boxes[1]
        assert world.commlog._sends
        world.fail(origin=0, reason='test')
        world.reset()
        assert not world._failed.is_set()
        assert not any(world._boxes)
        assert not any(world._dropped)
        assert not world.commlog._sends and not world.commlog._recvs
        # sequence counters restart: a fresh send gets seq 0 again
        a.isend({'fresh': True}, dest=1, tag=7)
        msg = world._boxes[1][0]
        assert msg.seq == 0

    def test_collectives_work_after_reset(self):
        """Sequence counters restart in lockstep: collectives keep
        matching after one rank resets the world at a rendezvous."""
        def job(comm):
            before = comm.allreduce(comm.rank)
            # coordinated quiescent point; lowest rank runs the reset
            comm.world.coordinate(comm.rank, comm.world.reset)
            after = comm.allreduce(comm.rank + 10)
            return before, after

        out = run_parallel(job, 3)
        assert all(o == (3, 33) for o in out)


# -- satellite: loud validation of unknown knobs ------------------------------

class TestUnknownKnobValidation:
    def _op(self):
        grid = Grid(shape=(8, 8))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        return Operator([Eq(u.forward, u + 1.0)])

    def test_apply_rejects_typoed_kwarg(self):
        op = self._op()
        with pytest.raises(ValueError) as err:
            op.apply(time_M=1, chekpoint_every=2)
        msg = str(err.value)
        assert 'chekpoint_every' in msg
        assert 'checkpoint_every' in msg  # the accepted name is listed
        assert 'time_M' in msg

    def test_apply_accepts_known_overrides(self):
        op = self._op()
        summary = op.apply(time_M=1, dt=0.01)
        assert summary.timesteps == 2

    def test_configuration_rejects_unknown_key(self):
        with pytest.raises(ValueError) as err:
            configuration['chekpoint_every'] = 3
        assert 'checkpoint_every' in str(err.value)

    def test_configuration_validates_values(self):
        with pytest.raises(ValueError):
            configuration['recovery'] = 'retry-harder'
        with pytest.raises(ValueError):
            configuration['checkpoint_keep'] = 0
        with pytest.raises(ValueError):
            configuration['health_max'] = -1.0
        configuration['recovery'] = 'restart'
        assert configuration['recovery'] == 'restart'

    @pytest.mark.parametrize('kwargs', [
        {'checkpoint_every': -3}, {'health_check_every': -1},
        {'checkpoint_keep': 0, 'checkpoint_every': 1},
        {'max_recoveries': -1, 'recovery': 'restart'},
        {'health_max': -5.0, 'health_check_every': 1},
        {'repartition_weights': '2.5', 'repartition': 'balance'}])
    def test_apply_validates_like_configuration(self, kwargs, tmp_path):
        """``apply`` rejects (or accepts) its first kwarg exactly as
        ``configuration[key] = value`` does, with the same error."""
        key, value = next(iter(kwargs.items()))
        run = lambda: self._op().apply(
            time_M=1, checkpoint_dir=str(tmp_path), **kwargs)
        try:
            configuration[key] = value
        except ValueError as expected:
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == str(expected)
        else:
            assert run().timesteps == 2


# -- kill + restart recovery ---------------------------------------------------

class TestRestartRecovery:
    @pytest.mark.parametrize('mode', ['basic', 'diagonal', 'full'])
    @pytest.mark.parametrize('ranks', [2, 4])
    def test_bitwise_equivalence(self, tmp_path, mode, ranks):
        reference = _serial_reference()
        configuration['faults'] = 'seed=5,kill=1@4'
        kwargs = dict(recovery='restart', checkpoint_every=3,
                      checkpoint_dir=str(tmp_path))
        out = run_parallel(lambda c: _job(c, mpi=mode, **kwargs), ranks)
        for field, summary in out:
            assert np.array_equal(field, reference)
            assert summary.comm_health['recoveries'] == 1
        assert not _leaked_progress_threads()

    def test_counters_and_sections(self, tmp_path):
        configuration['faults'] = 'seed=5,kill=1@4'
        kwargs = dict(recovery='restart', checkpoint_every=2,
                      checkpoint_dir=str(tmp_path))
        out = run_parallel(lambda c: _job(c, **kwargs), 2)
        _, summary = out[0]
        health = summary.comm_health
        assert health['recoveries'] == 1
        assert health['ranks_lost'] == 0
        assert health['checkpoints_written'] >= 2
        assert health['checkpoints_restored'] == 1
        assert health['checkpoint_bytes'] > 0
        assert health['restored_bytes'] > 0
        assert health['recovery_time'] > 0.0
        # checkpoint/restore surface as named profiled sections
        assert summary['checkpoint'].time > 0.0
        assert summary['checkpoint'].bytes > 0
        assert summary['restore'].bytes > 0
        assert summary['checkpoint'].kind == 'resilience'

    def test_full_mode_progress_threads_survive_recovery(self, tmp_path):
        reference = _serial_reference()
        configuration['faults'] = 'seed=2,kill=0@5'
        kwargs = dict(recovery='restart', checkpoint_every=4,
                      checkpoint_dir=str(tmp_path))
        out = run_parallel(
            lambda c: _job(c, mpi='full', progress=True, **kwargs), 2)
        assert all(np.array_equal(f, reference) for f, _ in out)
        assert not _leaked_progress_threads()

    def test_abort_policy_preserves_plain_failure(self, tmp_path):
        configuration['faults'] = 'seed=5,kill=1@4'
        with pytest.raises(RemoteRankError):
            run_parallel(lambda c: _job(c), 2)
        assert not _leaked_progress_threads()

    def test_recovery_budget_is_bounded(self, tmp_path):
        """Two kills, budget for one recovery: the second kill aborts."""
        configuration['faults'] = 'seed=5,kill=1@3,kill=0@6'
        kwargs = dict(recovery='restart', checkpoint_every=2,
                      checkpoint_dir=str(tmp_path), max_recoveries=1)
        with pytest.raises(RemoteRankError):
            run_parallel(lambda c: _job(c, **kwargs), 2)
        assert not _leaked_progress_threads()

    def test_two_kills_two_recoveries(self, tmp_path):
        reference = _serial_reference()
        configuration['faults'] = 'seed=5,kill=1@3,kill=0@6'
        kwargs = dict(recovery='restart', checkpoint_every=2,
                      checkpoint_dir=str(tmp_path), max_recoveries=3)
        out = run_parallel(lambda c: _job(c, **kwargs), 2)
        for field, summary in out:
            assert np.array_equal(field, reference)
            assert summary.comm_health['recoveries'] == 2


# -- shrink recovery ------------------------------------------------------------

class TestShrinkRecovery:
    @pytest.mark.parametrize('victim', [0, 2])
    def test_4_to_3_on_2d_topology(self, tmp_path, victim):
        reference = _serial_reference()
        configuration['faults'] = 'seed=5,kill=%d@4' % victim
        kwargs = dict(recovery='shrink', checkpoint_every=3,
                      checkpoint_dir=str(tmp_path))
        out = run_parallel(
            lambda c: _job(c, topology=(2, 2), **kwargs), 4)
        survivors = [r for r in out if r is not None]
        assert len(survivors) == 3  # the victim left the job
        for field, summary in survivors:
            assert np.array_equal(field, reference)
            assert summary.comm_health['recoveries'] == 1
            assert summary.comm_health['ranks_lost'] == 1
        assert not _leaked_progress_threads()

    def test_4_to_3_rebuilds_through_the_operator(self, tmp_path):
        """The survivors' kernel comes from the Operator's own build
        path: the poison sanitizer hooks survive the shrink, the
        verifier's report is clean, and the certificate is the shrunk
        schedule's."""
        from repro.analysis.certificate import build_certificate

        reference = _serial_reference()
        configuration['faults'] = 'seed=5,kill=2@4'
        kwargs = dict(recovery='shrink', checkpoint_every=3,
                      checkpoint_dir=str(tmp_path))
        ops = []
        out = run_parallel(
            lambda c: _job(c, topology=(2, 2), sanitizer='poison', ops=ops,
                           **kwargs), 4)
        assert all(np.array_equal(r[0], reference)
                   for r in out if r is not None)
        survivors = [op for op in ops if op.grid.comm.size == 3]
        assert len(survivors) == 3
        for op in survivors:
            assert op.grid.distributor.topology == (3, 1)
            assert op.kernel.sanitizer is not None
            assert op.analysis is not None and op.analysis  # clean
            assert op.certificate == build_certificate(op.schedule)

    def test_2_to_1(self, tmp_path):
        reference = _serial_reference()
        configuration['faults'] = 'seed=1,kill=1@5'
        kwargs = dict(recovery='shrink', checkpoint_every=2,
                      checkpoint_dir=str(tmp_path))
        out = run_parallel(lambda c: _job(c, mpi='basic', **kwargs), 2)
        survivors = [r for r in out if r is not None]
        assert len(survivors) == 1
        assert np.array_equal(survivors[0][0], reference)


# -- resume from disk -----------------------------------------------------------

class TestResume:
    def test_resume_completes_interrupted_run(self, tmp_path):
        reference = _serial_reference(steps=10)
        # first run: checkpoints every 3 steps, stops early at step 6
        _job(None, steps=6, checkpoint_every=3,
             checkpoint_dir=str(tmp_path))
        # second run: resumes from the newest checkpoint, finishes
        field, summary = _job(None, steps=10, resume=True,
                              checkpoint_dir=str(tmp_path))
        assert np.array_equal(field, reference)

    @pytest.mark.parametrize('ranks', [1, 4])
    def test_resume_on_another_rank_count(self, tmp_path, ranks):
        """The block mover does not care which decomposition wrote the
        files: a 2-rank checkpoint resumes bitwise on 1 and on 4 ranks."""
        reference = _serial_reference(steps=10)
        run_parallel(lambda c: _job(c, steps=6, checkpoint_every=3,
                                    checkpoint_dir=str(tmp_path)), 2)
        out = run_parallel(lambda c: _job(c, steps=10, resume=True,
                                          checkpoint_dir=str(tmp_path)),
                           ranks)
        for field, summary in out:
            assert np.array_equal(field, reference)
            assert summary.comm_health['checkpoints_restored'] == 1

    def test_resume_without_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            _job(None, resume=True, checkpoint_dir=str(tmp_path / 'nope'))


# -- health guards --------------------------------------------------------------

class TestHealthGuard:
    def test_nan_detected_with_diagnosis(self):
        grid = Grid(shape=(10, 10))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        u.data[0] = 1.0
        u.data[0, 4, 6] = np.nan
        op = Operator([Eq(u.forward, u + 1.0)])
        with pytest.raises(NumericalHealthError) as err:
            op.apply(time_M=3, health_check_every=1)
        e = err.value
        assert e.field == 'u'
        assert e.index[-2:] == (4, 6)
        assert e.timestep == 0
        assert 'u' in str(e) and '(' in str(e)

    def test_blowup_detected(self):
        grid = Grid(shape=(10, 10), extent=(9.0, 9.0))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        u.data[0] = 1.0
        # an exponentially exploding update
        op = Operator([Eq(u.forward, u * 1e6)])
        with pytest.raises(NumericalHealthError):
            op.apply(time_M=20, health_check_every=2, health_max=1e9)

    def test_all_ranks_raise_identically(self):
        def job(comm):
            grid = Grid(shape=(12, 12), comm=comm)
            u = TimeFunction(name='u', grid=grid, space_order=2)
            u.data[0] = 0.0
            u.data[0, 9, 3] = np.inf  # lives on one rank only
            op = Operator([Eq(u.forward, u + 1.0)], mpi='basic')
            try:
                op.apply(time_M=3, health_check_every=1)
            except NumericalHealthError as e:
                return (e.field, e.index, e.timestep)
            return None

        out = run_parallel(job, 4)
        assert all(o is not None for o in out)
        assert len(set(out)) == 1  # same verdict everywhere

    def test_health_error_is_not_auto_recovered(self, tmp_path):
        """Recovery never replays a numerical blowup from checkpoint."""
        grid = Grid(shape=(10, 10))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        u.data[0] = np.nan
        op = Operator([Eq(u.forward, u + 1.0)])
        with pytest.raises(NumericalHealthError):
            op.apply(time_M=3, health_check_every=1, recovery='restart',
                     checkpoint_every=1, checkpoint_dir=str(tmp_path))

    def test_healthy_run_is_untouched(self):
        clean, _ = _job(None)
        guarded, summary = _job(None, health_check_every=2)
        assert np.array_equal(clean, guarded)
        assert summary['healthcheck'].ncalls > 0

    def test_guard_unit_semantics(self):
        guard = HealthGuard(every=3, max_amplitude=10.0)
        assert guard.due(0, 0) and guard.due(3, 0) and not guard.due(2, 0)
        disabled = HealthGuard(every=0)
        assert not disabled.due(0, 0)


# -- CLI end-to-end -------------------------------------------------------------

class TestCliRecovery:
    def _run(self, tmp_path, capsys, *extra):
        from repro.cli import main
        argv = ['acoustic', '-d', '25', '25', '--tn', '40', '-so', '4',
                '--nbl', '4', '--ranks', '4', '--mpi', 'diagonal',
                '--verify', '--inject-faults', 'seed=3,kill=1@7',
                '--checkpoint-every', '5',
                '--checkpoint-dir', str(tmp_path)] + list(extra)
        main(argv)
        return capsys.readouterr().out

    def test_cli_restart_verify_identical(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys, '--recover', 'restart')
        assert 'IDENTICAL' in out

    def test_cli_shrink_verify_identical(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys, '--recover', 'shrink')
        assert 'IDENTICAL' in out
