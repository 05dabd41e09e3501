"""Tests for the profiling/observability subsystem.

Covers the per-section instrumentation of generated kernels, per-rank
aggregation of section times and message/byte counts under all three
DMP patterns, counter reset across repeated applies, the compiled-out
``off`` level, the ``Configuration`` validation, and the advanced-mode
JSON artifact consumed by ``repro.perfmodel.report``.
"""

import numpy as np
import pytest

from repro import (Configuration, Eq, Grid, Operator, PerfEntry,
                   PerformanceSummary, SparseTimeFunction, TimeFunction,
                   configuration, solve)
from repro.mpi import run_parallel
from repro.profiling import Profiler, RankStats, Timer

MODES = ('basic', 'diagonal', 'full')


def _diffusion_op(grid, **kwargs):
    u = TimeFunction(name='u', grid=grid, space_order=2)
    u.data[0, 1:-1, 1:-1] = 1.0
    eq = Eq(u.dt, u.laplace)
    return Operator([Eq(u.forward, solve(eq, u.forward))], **kwargs), u


class TestSectionNames:
    def test_dense_section_present(self):
        op, _ = _diffusion_op(Grid(shape=(8, 8), extent=(2., 2.)))
        summary = op.apply(time_M=1, dt=0.01)
        assert 'section0' in summary
        assert summary['section0'].kind == 'compute'
        assert summary['section0'].time > 0
        assert summary['section0'].ncalls == 2  # one per timestep

    def test_sparse_and_dense_sections(self):
        grid = Grid(shape=(8, 8), extent=(7., 7.))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        src = SparseTimeFunction('src', grid, npoint=1, nt=3,
                                 coordinates=np.array([[3.0, 4.0]]))
        rec = SparseTimeFunction('rec', grid, npoint=2, nt=3,
                                 coordinates=np.array([[1.0, 1.0],
                                                       [5.0, 5.0]]))
        eq = Eq(u.dt, u.laplace)
        op = Operator([Eq(u.forward, solve(eq, u.forward)),
                       src.inject(field=u.forward, expr=src),
                       rec.interpolate(expr=u)])
        summary = op.apply(time_M=1, dt=0.01)
        assert 'section0' in summary
        assert 'sparse0' in summary and 'sparse1' in summary
        assert summary['sparse0'].kind == 'sparse'

    @pytest.mark.parametrize('mode', MODES)
    def test_halo_sections_distributed(self, mode):
        def job(comm):
            op, _ = _diffusion_op(Grid(shape=(16, 16), comm=comm),
                                  mpi=mode)
            return op.apply(time_M=1, dt=0.01)

        summaries = run_parallel(job, 4)
        for s in summaries:
            halo = [n for n in s if n.startswith('halo')]
            compute = [n for n in s if n.startswith('section')]
            assert halo and compute
        # full mode splits into begin/CORE/wait/REMAINDER
        if mode == 'full':
            assert 'halowait0' in summaries[0]
            assert 'section1' in summaries[0]

    def test_preamble_halo_named_section(self):
        """Time-invariant functions get a hoisted haloupdate section."""
        from repro import Function

        def job(comm):
            grid = Grid(shape=(16, 16), comm=comm)
            u = TimeFunction(name='u', grid=grid, space_order=2)
            m = Function(name='m', grid=grid, space_order=2)
            m.data[:, :] = 1.0
            eq = Eq(u.dt, u.laplace + m.laplace)
            op = Operator([Eq(u.forward, solve(eq, u.forward))],
                          mpi='basic')
            return op.apply(time_M=0, dt=0.01), op.pycode

        summary, pycode = run_parallel(job, 4)[0]
        assert 'haloupdate0' in summary  # the hoisted exchange of m
        assert 'haloupdate1' in summary  # the per-timestep exchange of u
        assert "__EX['pre_m']" in pycode


class TestPerRankAggregation:
    @pytest.mark.parametrize('mode', MODES)
    def test_min_max_avg_across_ranks(self, mode):
        def job(comm):
            op, _ = _diffusion_op(Grid(shape=(16, 16), comm=comm),
                                  mpi=mode)
            return op.apply(time_M=3, dt=0.01)

        summaries = run_parallel(job, 4)
        for s in summaries:
            assert s.nranks == 4
            halo = next(n for n in s if n.startswith('haloupdate'))
            e = s[halo]
            # time stats: 4 ranks, ordered min <= avg <= max, all > 0
            assert len(e.ranks['time']) == 4
            assert 0 < e.time_min <= e.time_avg <= e.time_max
            # message and byte counts carried per rank
            msgs = e.ranks['nmessages']
            assert msgs.min > 0 and msgs.min <= msgs.avg <= msgs.max
            nbytes = e.ranks['bytes']
            assert nbytes.min > 0
            assert e.nmessages > 0 and e.bytes > 0
            # compute section has per-rank times as well
            sec = s['section0']
            assert len(sec.ranks['time']) == 4
            assert sec.gpointss > 0

    def test_rank_views_consistent(self):
        """All ranks agree on the aggregated (allgathered) statistics."""
        def job(comm):
            op, _ = _diffusion_op(Grid(shape=(16, 16), comm=comm),
                                  mpi='diagonal')
            return op.apply(time_M=0, dt=0.01)

        summaries = run_parallel(job, 4)
        ref = summaries[0]['haloupdate0'].ranks['time'].values
        for s in summaries[1:]:
            assert s['haloupdate0'].ranks['time'].values == ref


class TestCounterReset:
    @pytest.mark.parametrize('mode', MODES)
    def test_nmessages_identical_across_applies(self, mode):
        def job(comm):
            op, _ = _diffusion_op(Grid(shape=(16, 16), comm=comm),
                                  mpi=mode)
            s1 = op.apply(time_M=2, dt=0.01)
            s2 = op.apply(time_M=2, dt=0.01)
            return s1.nmessages, s2.nmessages

        for n1, n2 in run_parallel(job, 4):
            assert n1 > 0
            assert n1 == n2  # no cross-apply accumulation

    def test_section_counters_reset(self):
        def job(comm):
            op, _ = _diffusion_op(Grid(shape=(16, 16), comm=comm),
                                  mpi='basic')
            s1 = op.apply(time_M=1, dt=0.01)
            s2 = op.apply(time_M=1, dt=0.01)
            return s1, s2

        s1, s2 = run_parallel(job, 4)[0]
        halo = next(n for n in s1 if n.startswith('halo'))
        assert s1[halo].nmessages == s2[halo].nmessages
        assert s1[halo].bytes == s2[halo].bytes
        assert s1['section0'].ncalls == s2['section0'].ncalls == 2

    def test_exchanger_counters_are_monotonic(self):
        """The raw exchanger counters accumulate; apply() reports deltas."""
        def job(comm):
            op, _ = _diffusion_op(Grid(shape=(16, 16), comm=comm),
                                  mpi='basic')
            s1 = op.apply(time_M=0, dt=0.01)
            raw1 = sum(ex.nmessages for ex in op.exchangers.values())
            s2 = op.apply(time_M=0, dt=0.01)
            raw2 = sum(ex.nmessages for ex in op.exchangers.values())
            return s1.nmessages, s2.nmessages, raw1, raw2

        for n1, n2, raw1, raw2 in run_parallel(job, 4):
            assert n1 == n2
            assert raw2 == 2 * raw1  # monotonic accumulation underneath


class TestOffLevel:
    def test_off_emits_no_timing_calls(self):
        configuration['profiling'] = 'off'
        op, _ = _diffusion_op(Grid(shape=(8, 8), extent=(2., 2.)))
        assert '__T.' not in op.pycode
        assert '.now()' not in op.pycode

    def test_off_distributed_emits_no_timing_calls(self):
        def job(comm):
            op, _ = _diffusion_op(Grid(shape=(16, 16), comm=comm),
                                  mpi='full', profiling='off')
            return op.pycode

        for src in run_parallel(job, 4):
            assert '__T.' not in src

    def test_off_summary_still_has_aggregates(self):
        configuration['profiling'] = 'off'
        op, _ = _diffusion_op(Grid(shape=(8, 8), extent=(2., 2.)))
        s = op.apply(time_M=1, dt=0.01)
        assert len(s) == 0  # no sections recorded
        assert s.elapsed > 0 and s.gpointss > 0 and s.oi > 0

    def test_operator_kwarg_overrides_configuration(self):
        op, _ = _diffusion_op(Grid(shape=(8, 8), extent=(2., 2.)),
                              profiling='off')
        assert '__T.' not in op.pycode
        op2, _ = _diffusion_op(Grid(shape=(8, 8), extent=(2., 2.)),
                               profiling='basic')
        assert "__T.add('section0'" in op2.pycode


class TestAdvancedLevel:
    def test_traces_recorded_per_timestep(self):
        op, _ = _diffusion_op(Grid(shape=(8, 8), extent=(2., 2.)),
                              profiling='advanced')
        s = op.apply(time_M=3, dt=0.01)
        assert len(s.traces) == 4
        steps = [t[0] for t in s.traces if t[1] == 'section0']
        assert steps == [0, 1, 2, 3]

    def test_json_artifact_roundtrip(self, tmp_path):
        from repro.perfmodel.report import (format_profile_table,
                                            load_profile_json,
                                            profile_compute_fraction)

        def job(comm):
            op, _ = _diffusion_op(Grid(shape=(16, 16), comm=comm),
                                  mpi='diagonal', profiling='advanced')
            return op.apply(time_M=2, dt=0.01)

        summary = run_parallel(job, 4)[0]
        path = tmp_path / 'profile.json'
        summary.save_json(str(path))
        profile = load_profile_json(str(path))
        assert profile['nranks'] == 4
        assert 'haloupdate0' in profile['sections']
        entry = profile['sections']['haloupdate0']
        assert entry['ranks']['time']['min'] <= \
            entry['ranks']['time']['max']
        table = format_profile_table(profile)
        assert 'haloupdate0' in table and 'section0' in table
        assert 0.0 <= profile_compute_fraction(profile) <= 1.0

    def test_loader_rejects_foreign_json(self, tmp_path):
        from repro.perfmodel.report import load_profile_json
        path = tmp_path / 'other.json'
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match='missing keys'):
            load_profile_json(str(path))


class TestPerformanceSummaryAPI:
    def test_mapping_protocol(self):
        op, _ = _diffusion_op(Grid(shape=(8, 8), extent=(2., 2.)))
        s = op.apply(time_M=0, dt=0.01)
        assert isinstance(s, PerformanceSummary)
        assert list(s) == list(s.sections)
        assert isinstance(s['section0'], PerfEntry)
        assert 'section0' in s and 'nope' not in s

    def test_backward_compatible_views(self):
        s = PerformanceSummary(points=100, timesteps=10, elapsed=1.0,
                               flops_per_point=5, traffic_per_point=2,
                               nmessages=7)
        assert s.gpointss == pytest.approx(1e-6)
        assert s.gflopss == pytest.approx(5e-6)
        assert s.oi == pytest.approx(2.5)
        assert s.nmessages == 7 and len(s) == 0

    def test_repr_prints_section_table(self):
        op, _ = _diffusion_op(Grid(shape=(8, 8), extent=(2., 2.)))
        s = op.apply(time_M=0, dt=0.01)
        text = repr(s)
        assert 'section0' in text and 'GPts/s' in text


class TestConfiguration:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match='unknown configuration key'):
            configuration['bogus'] = 1

    def test_invalid_profiling_value_rejected(self):
        with pytest.raises(ValueError, match='accepted values'):
            configuration['profiling'] = 'loud'

    def test_invalid_mpi_value_rejected(self):
        with pytest.raises(ValueError, match='accepted values'):
            configuration['mpi'] = 'zigzag'

    def test_item_assignment_still_works(self):
        configuration['mpi'] = 'diagonal'
        assert configuration['mpi'] == 'diagonal'
        configuration['profiling'] = 'advanced'
        assert configuration['profiling'] == 'advanced'

    def test_env_seeding(self):
        cfg = Configuration(environ={'REPRO_MPI': 'full',
                                     'REPRO_PROFILING': 'advanced',
                                     'REPRO_OPT': '0'})
        assert cfg['mpi'] == 'full'
        assert cfg['profiling'] == 'advanced'
        assert cfg['opt'] is False

    def test_env_seeding_validates(self):
        with pytest.raises(ValueError):
            Configuration(environ={'REPRO_PROFILING': 'noisy'})

    def test_mpi_boolean_forms(self):
        cfg = Configuration(environ={})
        cfg['mpi'] = True
        assert cfg['mpi'] == 'basic'
        cfg['mpi'] = False
        assert cfg['mpi'] is False

    def test_readme_configuration_table(self):
        """README's Configuration table is the registry, rendered."""
        import pathlib
        from repro.cli import VERB_KEYS
        exposed = set().union(*VERB_KEYS.values())
        rows = ['| key | env var | CLI flag | default | accepted |',
                '|---|---|---|---|---|']
        for key in configuration:
            p = configuration.parameter(key)
            rows.append('| `%s` | `%s` | %s | `%r` | %s |' % (
                key, p.env, '`%s`' % p.flag if key in exposed else '—',
                p.default, ', '.join('`%r`' % a for a in p.accepted or ())
                or ' '.join(p.converter.__doc__.split())))
        readme = pathlib.Path(__file__).parents[1] / 'README.md'
        assert '\n'.join(rows) in readme.read_text(encoding='utf-8')

    def test_delete_resets_to_default(self):
        configuration['profiling'] = 'advanced'
        del configuration['profiling']
        assert configuration['profiling'] == 'basic'

    def test_operator_honours_configured_mpi(self):
        configuration['mpi'] = 'diagonal'

        def job(comm):
            op, _ = _diffusion_op(Grid(shape=(16, 16), comm=comm))
            return op.mpi_mode

        assert all(m == 'diagonal' for m in run_parallel(job, 4))


class TestPrimitives:
    def test_timer_accumulates(self):
        t = Timer()
        t0 = t.now()
        t.add('s', t0, 0)
        t.add('s', t0, 1)
        assert t.ncalls('s') == 2
        assert t.total('s') > 0
        t.reset()
        assert t.ncalls('s') == 0 and t.total('s') == 0.0

    def test_timer_traces_only_when_advanced(self):
        t = Timer(advanced=False)
        t.add('s', t.now(), 0)
        assert t.traces == []
        t = Timer(advanced=True)
        t.add('s', t.now(), 5)
        assert len(t.traces) == 1 and t.traces[0][0] == 5

    def test_rank_stats(self):
        st = RankStats([1.0, 3.0, 2.0])
        assert st.min == 1.0 and st.max == 3.0
        assert st.avg == pytest.approx(2.0)
        assert st.imbalance == pytest.approx(0.5)

    def test_profiler_rejects_bad_level(self):
        with pytest.raises(ValueError, match='unknown profiling level'):
            Profiler('verbose')


class TestCLIProfile:
    def test_cli_profile_prints_section_table(self, capsys):
        from repro.cli import main
        main(['acoustic', '-d', '24', '24', '--tn', '20', '-so', '2',
              '--nbl', '4', '--profile'])
        out = capsys.readouterr().out
        assert 'per-section performance' in out
        assert 'section0' in out

    def test_cli_profile_advanced_writes_json(self, capsys, tmp_path):
        from repro.cli import main
        from repro.perfmodel.report import load_profile_json
        path = tmp_path / 'prof.json'
        main(['acoustic', '-d', '24', '24', '--tn', '20', '-so', '2',
              '--nbl', '4', '--ranks', '2', '--mpi', 'basic',
              '--profile', 'advanced', '--profile-out', str(path)])
        out = capsys.readouterr().out
        assert 'haloupdate0' in out
        profile = load_profile_json(str(path))
        assert profile['nranks'] == 2
        assert any(n.startswith('halo') for n in profile['sections'])
        assert len(profile['traces']) > 0

    def test_cli_profile_restores_configuration(self, capsys, tmp_path,
                                                monkeypatch):
        """``main`` leaves the configuration as it found it: after a run,
        after a rejected flag value and after a --verify mismatch."""
        from repro.cli import main
        before = dict(configuration)
        run = ['acoustic', '-d', '24', '24', '--tn', '10', '-so', '2',
               '--nbl', '4', '--checkpoint-dir', str(tmp_path)]
        main(run + ['--profile', 'advanced', '--profile-out', '',
                    '--recover', 'restart', '--sanitize'])
        assert dict(configuration) == before
        with pytest.raises(SystemExit):
            main(run + ['--checkpoint-keep', '0'])
        assert dict(configuration) == before
        monkeypatch.setattr('repro.cli.np.array_equal', lambda a, b: False)
        with pytest.raises(SystemExit):
            main(run + ['--ranks', '2', '--inject-faults', 'seed=1,drop=0.1',
                        '--cache', 'off', '--verify'])
        assert 'MISMATCH' in capsys.readouterr().out
        assert dict(configuration) == before

    def test_cli_flags_match_environment(self):
        """``--flag S`` sets ``configuration[key]`` exactly as
        ``REPRO_<KEY>=S`` seeds it, for every key of every verb."""
        from repro.cli import VERB_KEYS, _parse
        samples = {'faults': 'seed=3,drop=0.1', 'recovery': 'grow',
                   'repartition': 'balance', 'repartition_every': '3',
                   'repartition_weights': '2,1', 'checkpoint_every': '5',
                   'checkpoint_dir': 'ck', 'checkpoint_keep': '3',
                   'health_check_every': '2', 'sanitizer': 'reconcile',
                   'build_cache': 'DISK', 'cache_dir': 'cd', 'backend': 'c',
                   'service_dir': 'svc', 'service_workers': '3',
                   'service_retries': '0'}
        heads = {None: ['acoustic'], 'cache': ['cache', 'stats'],
                 'fetch': ['fetch', 'k'], 'submit': ['submit', 'acoustic']}
        for verb, keys in VERB_KEYS.items():
            for key in keys:
                spec = configuration.parameter(key)
                _, _, overrides = _parse(heads.get(verb, [verb])
                                         + [spec.flag, samples[key]])
                env = Configuration(environ={spec.env: samples[key]})
                with configuration.override(**overrides):
                    assert configuration[key] == env[key], (verb, key)
        assert _parse(['acoustic', '--sanitize'])[2] == {'sanitizer': True}


class TestCCode:
    def test_ccode_struct_profiler_and_sections(self):
        op, _ = _diffusion_op(Grid(shape=(8, 8), extent=(2., 2.)),
                              profiling='basic')
        c = op.ccode
        assert 'struct profiler' in c
        assert 'double section0;' in c
        assert 'START(section0)' in c
        assert 'STOP(section0,timers)' in c

    def test_ccode_off_has_no_profiler(self):
        op, _ = _diffusion_op(Grid(shape=(8, 8), extent=(2., 2.)),
                              profiling='off')
        c = op.ccode
        assert 'struct profiler' not in c
        assert 'START(' not in c
