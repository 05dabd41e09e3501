"""Tests for the survey service: specs, store, pool, scheduler, CLI.

The hardening sweep of the batch subsystem:

* property-style randomized batches — every job completes exactly once,
  results are bit-identical to a solo ``Operator.apply`` of the same
  shot, priority ordering is respected;
* a fault matrix — a job killed mid-flight by injected faults is
  retried (with the fired kill disarmed) or marked failed per policy,
  and the rest of the batch is unaffected;
* the ArrayStore — roundtrip, concurrency and retention (damaged
  entries are fuzzed in ``test_sealed.py``).
"""

import json
import os
import random
import threading

import numpy as np
import pytest

from repro.service import (ArrayStore, OperatorPool, ShotSpec,
                           SurveyScheduler, new_job_id, percentile,
                           run_shot_solo)
from repro.service.report import BatchReport

# small-but-real shot templates (kwargs for ShotSpec)
SHOTS = {
    'acoustic': dict(kernel='acoustic', shape=(41, 41), tn=60.0,
                     space_order=4, nrec=6),
    'acoustic_so8': dict(kernel='acoustic', shape=(41, 41), tn=60.0,
                         space_order=8, nrec=6),
    'elastic': dict(kernel='elastic', shape=(31, 31), tn=40.0,
                    space_order=4, nrec=4),
    'viscoelastic': dict(kernel='viscoelastic', shape=(31, 31), tn=40.0,
                         space_order=4, nrec=4),
}


def _solo(spec):
    """The oracle, minus runtime-only fields (faults never fire in it)."""
    clean = {k: v for k, v in spec.to_dict().items()
             if k in ('kernel', 'shape', 'tn', 'space_order', 'nbl',
                      'spacing', 'nrec', 'dt')}
    return run_shot_solo(ShotSpec(**clean))


class TestShotSpec:

    def test_roundtrip(self, tmp_path):
        spec = ShotSpec('elastic', (32, 40), tn=80.0, space_order=8,
                        nbl=8, nrec=5, dt=0.5, priority=3,
                        faults='seed=1,kill=0@5', max_retries=2,
                        job_id='job-x')
        path = tmp_path / 'spec.json'
        spec.save(path)
        assert ShotSpec.load(path) == spec

    def test_structure_key_excludes_runtime_fields(self):
        a = ShotSpec('acoustic', (41, 41), tn=60.0)
        b = ShotSpec('acoustic', (41, 41), tn=60.0, priority=9,
                     faults='seed=1,kill=0@5', max_retries=3, dt=0.9,
                     job_id='job-y')
        assert a.structure_key() == b.structure_key()
        c = ShotSpec('acoustic', (41, 41), tn=60.0, space_order=8)
        assert a.structure_key() != c.structure_key()

    @pytest.mark.parametrize('bad', [
        dict(kernel='warp', shape=(41, 41)),
        dict(kernel='acoustic', shape=(41,)),
        dict(kernel='acoustic', shape=(2, 2)),
        dict(kernel='acoustic', shape=(41, 41), tn=0),
        dict(kernel='acoustic', shape=(41, 41), space_order=3),
        dict(kernel='acoustic', shape=(41, 41), nbl=-1),
        dict(kernel='acoustic', shape=(41, 41), nrec=-2),
        dict(kernel='acoustic', shape=(41, 41), spacing=(10.0,)),
        dict(kernel='acoustic', shape=(41, 41), faults='kill=nope'),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ShotSpec(**bad)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match='unknown shot spec field'):
            ShotSpec.from_dict({'kernel': 'acoustic', 'shape': [41, 41],
                                'warp_factor': 9})

    def test_job_ids_unique(self):
        ids = {new_job_id() for _ in range(64)}
        assert len(ids) == 64


class TestArrayStore:

    def test_roundtrip_bit_identical(self, tmp_path):
        store = ArrayStore(tmp_path)
        rng = np.random.default_rng(7)
        for i, array in enumerate([
                rng.random((13, 7), dtype=np.float32),
                rng.random((3, 4, 5)),
                np.arange(11, dtype=np.int64),
                np.array([[np.nan, np.inf], [-0.0, 1e-38]],
                         dtype=np.float32)]):
            key = 'job-r/%d' % i
            store.put(key, array)
            got = store.get(key)
            assert got.dtype == array.dtype
            assert got.shape == array.shape
            assert np.array_equal(got.tobytes(), array.tobytes())

    def test_missing_key_and_bad_keys(self, tmp_path):
        store = ArrayStore(tmp_path)
        with pytest.raises(KeyError):
            store.get('job-x/rec')
        for bad in ('', '../escape', 'a//b', '.hidden', 'a/<b>'):
            with pytest.raises(ValueError):
                store.put(bad, np.zeros(3))

    def test_concurrent_writers_and_readers(self, tmp_path):
        store = ArrayStore(tmp_path)
        arrays = {('t%d/a%d' % (t, i)): np.full(257, t * 100 + i,
                                                dtype=np.float64)
                  for t in range(4) for i in range(8)}
        errors = []

        def work(t):
            try:
                for i in range(8):
                    key = 't%d/a%d' % (t, i)
                    store.put(key, arrays[key])
                    got = store.get(key)
                    assert np.array_equal(got, arrays[key])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert len(store.keys()) == 32
        for key, array in arrays.items():
            assert np.array_equal(store.get(key), array)

    def test_keys_prefix_delete_clear(self, tmp_path):
        store = ArrayStore(tmp_path)
        store.put('a/x', np.zeros(2))
        store.put('a/y', np.zeros(2))
        store.put('b/x', np.zeros(2))
        assert store.keys() == ['a/x', 'a/y', 'b/x']
        assert store.keys('a') == ['a/x', 'a/y']
        assert 'a/x' in store
        assert store.delete('a/x')
        assert not store.delete('a/x')
        assert store.keys('a') == ['a/y']
        assert store.clear() == 2
        assert store.keys() == []
        # empty key subdirectories are swept with their last entry
        assert not [d for d in os.listdir(tmp_path)
                    if os.path.isdir(os.path.join(tmp_path, d))]

    def test_prune_retention(self, tmp_path):
        store = ArrayStore(tmp_path)
        for i in range(6):
            store.put('j%d/wf' % i, np.zeros(16))
            # mtime-ranked retention: force distinct, increasing stamps
            os.utime(store._path('j%d/wf' % i), (1000 + i, 1000 + i))
        dropped = store.prune(max_entries=2)
        assert sorted(dropped) == ['j0/wf', 'j1/wf', 'j2/wf', 'j3/wf']
        assert store.keys() == ['j4/wf', 'j5/wf']
        entry = store.nbytes('j4/wf')
        assert store.prune(max_bytes=entry) == ['j4/wf']
        assert store.keys() == ['j5/wf']
        assert store.prune() == []


class TestOperatorPool:

    def test_reuse_and_discard(self):
        pool = OperatorPool(cache=False)
        spec = ShotSpec(**SHOTS['acoustic'])
        a = pool.checkout(spec)
        pool.checkin(a)
        b = pool.checkout(spec)
        assert b is a  # same structure -> instance reuse
        pool.checkin(b, healthy=False)
        c = pool.checkout(spec)
        assert c is not a  # crashed instances are never reused
        stats = pool.snapshot_stats()
        assert stats['reuses'] == 1
        assert stats['discards'] == 1
        assert stats['cold_builds'] == 2

    def test_reused_instance_is_bit_identical(self):
        pool = OperatorPool(cache=False)
        spec = ShotSpec(**SHOTS['acoustic'])
        inst = pool.checkout(spec)
        first = inst.solver.forward()
        wf1 = first[1].data.gather().copy()
        rec1 = first[0].copy()
        pool.checkin(inst)
        again = pool.checkout(spec)
        assert again is inst
        second = again.solver.forward()
        assert np.array_equal(second[1].data.gather(), wf1)
        assert np.array_equal(second[0], rec1)

    def test_max_idle_per_key(self):
        pool = OperatorPool(cache=False, max_idle_per_key=1)
        spec = ShotSpec(**SHOTS['elastic'])
        a = pool.checkout(spec)
        b = pool.checkout(spec)
        pool.checkin(a)
        pool.checkin(b)  # over the cap: discarded
        assert pool.idle_count() == 1
        assert pool.snapshot_stats()['discards'] == 1

    def test_arm_disarm(self):
        pool = OperatorPool(cache=False)
        spec = ShotSpec(**SHOTS['acoustic'])
        from repro.mpi.faults import FaultPlan
        plan = FaultPlan.parse('seed=3,kill=0@7')
        inst = pool.checkout(spec, faults=plan, disarmed={(0, 7)})
        assert inst.world.faults is plan
        assert inst.world.disarmed_kills == {(0, 7)}
        pool.checkin(inst)
        assert inst.world.faults is None
        assert inst.world.disarmed_kills == set()


class TestSchedulerProperties:
    """Property-style randomized batches against the solo oracle."""

    @pytest.mark.parametrize('seed', [0, 1])
    def test_random_batch_exactly_once_and_bit_identical(self, seed):
        rng = random.Random(seed)
        names = list(SHOTS)
        specs = [ShotSpec(**SHOTS[rng.choice(names)],
                          priority=rng.randint(-2, 2))
                 for _ in range(8)]
        sched = SurveyScheduler(workers=rng.choice([1, 2, 3]),
                                cache='memory')
        ids = sched.submit_batch(specs)
        report = sched.run()
        assert len(set(ids)) == len(ids)
        assert len(report.completed) == len(specs)
        assert not report.failed
        for record in sched.jobs:
            assert record.completions == 1  # exactly once
            assert record.attempts == 1
        # spot-check bit-identity per distinct structure (the full
        # batch shares instances; one check per structure covers all)
        seen = set()
        for spec, jid in zip(specs, ids):
            if spec.structure_key() in seen:
                continue
            seen.add(spec.structure_key())
            solo = _solo(spec)
            got = sched.result(jid)
            assert np.array_equal(got['wavefield'], solo['wavefield'])
            assert np.array_equal(got['rec'], solo['rec'])

    def test_priority_order_single_worker(self):
        # workers=1 makes the drain strictly sequential: start order
        # must be priority-descending, FIFO within equal priority
        specs = [ShotSpec(**SHOTS['acoustic'], priority=p)
                 for p in (0, 2, 1, 2, 0)]
        sched = SurveyScheduler(workers=1, cache='memory')
        sched.submit_batch(specs)
        sched.run()
        records = sched.jobs
        expected = sorted(range(len(specs)),
                          key=lambda i: (-specs[i].priority, i))
        started = sorted(range(len(records)),
                         key=lambda i: records[i].started_order)
        assert started == expected

    def test_batch_shares_warm_instances(self):
        specs = [ShotSpec(**SHOTS['acoustic']) for _ in range(6)]
        sched = SurveyScheduler(workers=1, cache='memory')
        sched.submit_batch(specs)
        report = sched.run()
        stats = report.pool_stats
        assert stats['cold_builds'] + stats['warm_builds'] == 1
        assert stats['reuses'] == 5
        assert report.warm_hit_rate >= 5 / 6

    def test_results_in_store(self, tmp_path):
        spec = ShotSpec(**SHOTS['acoustic'])
        sched = SurveyScheduler(workers=1, store=str(tmp_path),
                                cache=False)
        jid = sched.submit(spec)
        sched.run()
        store = ArrayStore(tmp_path)
        assert store.keys(jid) == sorted(
            ['%s/wavefield' % jid, '%s/rec' % jid])
        solo = _solo(spec)
        assert np.array_equal(store.get('%s/wavefield' % jid),
                              solo['wavefield'])
        assert np.array_equal(sched.result(jid)['rec'], solo['rec'])

    def test_submit_rejects_junk(self):
        sched = SurveyScheduler(workers=1)
        with pytest.raises(TypeError):
            sched.submit({'kernel': 'acoustic'})
        spec = ShotSpec(**SHOTS['acoustic'], job_id='job-dup')
        sched.submit(spec)
        with pytest.raises(ValueError, match='duplicate'):
            sched.submit(spec)
        with pytest.raises(ValueError):
            SurveyScheduler(workers=0)


class TestAutoscale:
    """Distributed shots + elastic autoscaling: pooled idle capacity is
    donated to hot jobs, which grow onto it mid-run — bit-identically."""

    DIST = dict(kernel='acoustic', shape=(16, 16), tn=40.0,
                space_order=2, nbl=2, nrec=3)

    def _park_idle(self, pool, n):
        """Warm ``n`` idle 1-rank instances into the pool."""
        warm = ShotSpec(**self.DIST)
        leased = [pool.checkout(warm) for _ in range(n)]
        for inst in leased:
            pool.checkin(inst)
        assert pool.idle_count() == n

    def test_distributed_job_bit_identical_to_solo(self):
        spec = ShotSpec(**self.DIST, ranks=2)
        sched = SurveyScheduler(workers=1, cache=False)
        jid = sched.submit(spec)
        report = sched.run()
        assert not report.failed
        rec = sched.status(jid)
        assert rec['perf']['ranks'] == 2
        assert rec['perf']['grown_ranks'] == 0
        solo = _solo(spec)
        got = sched.result(jid)
        assert np.array_equal(got['wavefield'], solo['wavefield'])
        assert np.array_equal(got['rec'], solo['rec'])

    def test_autoscale_grows_onto_donated_ranks(self):
        pool = OperatorPool(cache=False)
        sched = SurveyScheduler(workers=1, pool=pool, autoscale=True)
        self._park_idle(pool, 2)
        spec = ShotSpec(**self.DIST, ranks=2)
        jid = sched.submit(spec)
        report = sched.run()
        assert not report.failed
        rec = sched.status(jid)
        assert rec['perf']['ranks'] == 2
        assert rec['perf']['grown_ranks'] == 2
        assert pool.stats['donations'] == 2
        assert pool.idle_count() == 0
        # mid-run growth 2 -> 4 left the results bit-identical
        solo = _solo(spec)
        got = sched.result(jid)
        assert np.array_equal(got['wavefield'], solo['wavefield'])
        assert np.array_equal(got['rec'], solo['rec'])

    def test_autoscale_max_caps_donations(self):
        pool = OperatorPool(cache=False)
        sched = SurveyScheduler(workers=1, pool=pool, autoscale=True,
                                autoscale_max=1)
        self._park_idle(pool, 2)
        spec = ShotSpec(**self.DIST, ranks=2)
        jid = sched.submit(spec)
        report = sched.run()
        assert not report.failed
        rec = sched.status(jid)
        assert rec['perf']['grown_ranks'] == 1
        assert pool.stats['donations'] == 1
        assert pool.idle_count() == 1
        got = sched.result(jid)
        solo = _solo(spec)
        assert np.array_equal(got['wavefield'], solo['wavefield'])

    def test_autoscale_without_idle_capacity_runs_as_requested(self):
        pool = OperatorPool(cache=False)
        sched = SurveyScheduler(workers=1, pool=pool, autoscale=True)
        spec = ShotSpec(**self.DIST, ranks=2)
        jid = sched.submit(spec)
        report = sched.run()
        assert not report.failed
        rec = sched.status(jid)
        assert rec['perf']['grown_ranks'] == 0
        got = sched.result(jid)
        solo = _solo(spec)
        assert np.array_equal(got['wavefield'], solo['wavefield'])
        assert np.array_equal(got['rec'], solo['rec'])

    def test_autoscaled_results_in_store_crc_and_geometry(self, tmp_path):
        """Arrays persisted after a mid-batch autoscale read back with
        valid CRCs and the same geometry + bytes as the solo run."""
        pool = OperatorPool(cache=False)
        sched = SurveyScheduler(workers=1, pool=pool, autoscale=True,
                                store=str(tmp_path))
        self._park_idle(pool, 2)
        spec = ShotSpec(**self.DIST, ranks=2)
        jid = sched.submit(spec)
        report = sched.run()
        assert not report.failed
        store = ArrayStore(tmp_path)
        solo = _solo(spec)
        for key in ('wavefield', 'rec'):
            arr = store.get('%s/%s' % (jid, key))  # CRC-checked read
            assert arr.shape == solo[key].shape
            assert arr.dtype == solo[key].dtype
            assert np.array_equal(arr, solo[key])


class TestFaultMatrix:
    """PR 2 fault injection against the batch: kills stay contained."""

    def test_killed_job_retried_and_batch_survives(self):
        specs = [ShotSpec(**SHOTS['acoustic']),
                 ShotSpec(**SHOTS['acoustic'],
                          faults='seed=1,kill=0@5'),
                 ShotSpec(**SHOTS['elastic'])]
        sched = SurveyScheduler(workers=2, max_retries=1,
                                cache='memory')
        ids = sched.submit_batch(specs)
        report = sched.run()
        assert len(report.completed) == 3
        assert not report.failed
        victim = sched.status(ids[1])
        assert victim['attempts'] == 2
        assert victim['disarmed_kills'] == [[0, 5]]
        assert 'RankKilledError' in victim['retry_errors'][0]
        assert report.pool_stats['discards'] >= 1
        # survivors AND the retried job are bit-identical to solo runs
        for spec, jid in zip(specs, ids):
            solo = _solo(spec)
            got = sched.result(jid)
            assert np.array_equal(got['wavefield'], solo['wavefield'])
        # exactly once despite the retry
        for record in sched.jobs:
            assert record.completions == 1

    def test_exhausted_retries_fail_only_that_job(self):
        specs = [ShotSpec(**SHOTS['acoustic'],
                          faults='seed=1,kill=0@5'),
                 ShotSpec(**SHOTS['acoustic'])]
        sched = SurveyScheduler(workers=2, max_retries=0,
                                cache='memory')
        ids = sched.submit_batch(specs)
        report = sched.run()
        assert [r.job_id for r in report.failed] == [ids[0]]
        assert len(report.completed) == 1
        failed = sched.status(ids[0])
        assert failed['state'] == 'failed'
        assert 'RankKilledError' in failed['error']
        assert failed['completions'] == 0
        with pytest.raises(ValueError, match='failed'):
            sched.result(ids[0])
        solo = _solo(specs[1])
        assert np.array_equal(sched.result(ids[1])['wavefield'],
                              solo['wavefield'])

    def test_per_spec_retry_budget_wins(self):
        # two kills planned; spec budget of 2 outlasts them both
        spec = ShotSpec(**SHOTS['acoustic'],
                        faults='seed=1,kill=0@5,kill=0@9',
                        max_retries=2)
        sched = SurveyScheduler(workers=1, max_retries=0,
                                cache='memory')
        jid = sched.submit(spec)
        report = sched.run()
        assert not report.failed
        record = sched.status(jid)
        assert record['attempts'] == 3
        assert sorted(record['disarmed_kills']) == [[0, 5], [0, 9]]
        solo = _solo(spec)
        assert np.array_equal(sched.result(jid)['wavefield'],
                              solo['wavefield'])

    def test_record_persistence(self, tmp_path):
        record_dir = tmp_path / 'jobs'
        sched = SurveyScheduler(workers=1, cache=False,
                                record_dir=str(record_dir))
        jid = sched.submit(ShotSpec(**SHOTS['acoustic']))
        sched.run()
        payload = json.loads((record_dir / ('%s.json' % jid)).read_text())
        assert payload['state'] == 'done'
        assert payload['spec']['kernel'] == 'acoustic'
        assert payload['perf']['timesteps'] > 0
        report = json.loads((record_dir / 'report.json').read_text())
        assert report['completed'] == 1
        assert report['jobs'][0]['job_id'] == jid


class TestReport:

    def test_percentile(self):
        assert percentile([], 50) == 0.0
        assert percentile([3.0], 99) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0

    def test_report_rollup_without_scheduler(self):
        class Rec:
            def __init__(self, state, kernel, latency, perf):
                self.state = state
                self.attempts = 1
                self.latency_seconds = latency
                self.perf = perf
                self.job_id = 'job-%s' % kernel
                self.error = None
                self.spec = type('S', (), {'kernel': kernel})()

            def to_dict(self):
                return {'job_id': self.job_id, 'state': self.state}

        perf = {'points': 100, 'timesteps': 10, 'elapsed': 0.5,
                'gpointss': 0.002, 'section_kinds': {'compute': 0.4,
                                                     'halo': 0.1}}
        records = [Rec('done', 'acoustic', 0.1, perf),
                   Rec('done', 'acoustic', 0.3, perf),
                   Rec('failed', 'elastic', None, None)]
        report = BatchReport(records, 2.0, {'warm_hit_rate': 0.5})
        assert report.njobs == 3
        assert len(report.completed) == 2
        assert report.shots_per_hour == 2 * 3600 / 2.0
        agg = report.aggregate()
        assert agg['points_updated'] == 2000
        assert agg['sections'] == {'compute': 0.8, 'halo': 0.2}
        assert agg['kernels']['acoustic']['jobs'] == 2
        assert 'FAILED job-elastic' in report.render()


class TestServiceKwargs:

    def test_summary_carries_job_id(self):
        spec = ShotSpec(**SHOTS['acoustic'])
        sched = SurveyScheduler(workers=1, cache=False)
        jid = sched.submit(spec)
        sched.run()
        assert sched.status(jid)['perf']['build_status'] in (
            'miss', 'hit', 'off')
        solo = _solo(spec)
        assert solo['summary'].job_id is None
        assert solo['summary'].to_dict()['job_id'] is None


class TestServiceCLI:

    def test_submit_serve_status_fetch(self, tmp_path, capsys):
        from repro.cli import main
        root = str(tmp_path / 'svc')
        main(['submit', 'acoustic', '-d', '41', '41', '--tn', '60',
              '--nrec', '6', '--dir', root, '--job-id', 'job-cli'])
        main(['submit', 'elastic', '-d', '31', '31', '--tn', '40',
              '--nrec', '4', '--priority', '4', '--dir', root,
              '--job-id', 'job-cli2'])
        assert os.path.exists(os.path.join(root, 'queue',
                                           'job-cli.json'))
        main(['serve', '--dir', root, '--workers', '2'])
        out = capsys.readouterr().out
        assert '2 done, 0 failed' in out
        # the queue was consumed; records and results persisted
        assert not os.listdir(os.path.join(root, 'queue'))
        main(['status', '--dir', root])
        out = capsys.readouterr().out
        assert 'job-cli' in out and 'done' in out
        main(['status', 'job-cli', '--dir', root, '--json'])
        record = json.loads(capsys.readouterr().out)
        assert record['state'] == 'done'
        target = str(tmp_path / 'wf.npy')
        main(['fetch', 'job-cli/wavefield', '--dir', root, '-o', target])
        solo = _solo(ShotSpec(**SHOTS['acoustic']))
        assert np.array_equal(np.load(target), solo['wavefield'])

    def test_serve_reports_failures_via_exit_code(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        root = str(tmp_path / 'svc')
        main(['submit', 'acoustic', '-d', '41', '41', '--tn', '60',
              '--dir', root, '--inject-faults', 'seed=1,kill=0@5',
              '--retries', '0', '--job-id', 'job-doomed'])
        with pytest.raises(SystemExit):
            main(['serve', '--dir', root, '--workers', '1'])
        capsys.readouterr()
        main(['status', 'job-doomed', '--dir', root, '--json'])
        record = json.loads(capsys.readouterr().out)
        assert record['state'] == 'failed'
        assert 'RankKilledError' in record['error']

    def test_status_empty_and_missing(self, tmp_path, capsys):
        from repro.cli import main
        root = str(tmp_path / 'svc')
        main(['serve', '--dir', root])
        assert 'nothing queued' in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(['status', 'job-ghost', '--dir', root])
