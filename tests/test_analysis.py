"""The static verifier (repro.analysis) and the poisoned-halo sanitizer.

Three claims are exercised:

1. **Soundness on shipped code** — every propagator, at every space
   order and with every communication pattern, analyzes *clean* (zero
   diagnostics, warnings included).  The verifier simulates the emitted
   schedule against the offsets the scheduler read, so this checks the
   placement, dropping, hoisting and overlap passes, not the offsets;
   a brute-force walk over every iteration point checks those.
2. **Sensitivity to seeded bugs** — mutations of a correct schedule
   (deleted exchange, shrunk halo depth, loop-carried equation in a
   parallel step, out-of-bounds offset) are each rejected with their
   documented diagnostic code.
3. **The runtime complement** — the NaN poisoned-halo sanitizer catches
   a stale-halo read that plain execution silently mis-computes, while
   remaining bit-identical to the un-instrumented run on correct code.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Eq, Grid, Operator, TimeFunction, configuration, solve
from repro.analysis import (ANALYSIS_VERSION, AnalysisError, AnalysisReport,
                            CODES, CertificateEntry, CommCertificate,
                            Diagnostic, HaloPoisonError, ReconcileError,
                            analyze_schedule, build_certificate,
                            describe_key, format_widths, infer_min_widths,
                            merge_reports, render_merged, verify_schedule)
from repro.ir.clusters import HaloRequirement
from repro.ir.lowered import accesses_of
from repro.ir.schedule import build_schedule, region_boxes
from repro.mpi import run_parallel
from repro.mpi.commlog import TagCollisionError, check_tag_spaces
from repro.mpi.sim import RESERVED_TAG_SPACES
from repro.models import (acoustic_setup, elastic_setup, tti_setup,
                          viscoelastic_setup)

MODES = ('basic', 'diagonal', 'full')
SETUPS = {'acoustic': acoustic_setup, 'elastic': elastic_setup,
          'tti': tti_setup, 'viscoelastic': viscoelastic_setup}


def _diffusion_op(comm=None, mpi=None, shape=(16, 16), so=4, **kw):
    """A diffusion operator (not applied) plus its field."""
    grid = Grid(shape=shape, extent=tuple(float(s - 1) for s in shape),
                comm=comm)
    u = TimeFunction(name='u', grid=grid, space_order=so)
    eq = Eq(u.dt, u.laplace)
    return Operator([Eq(u.forward, solve(eq, u.forward))], mpi=mpi,
                    **kw), u


# -- 1. zero diagnostics on every shipped model --------------------------------------


class TestCleanSchedules:
    @pytest.mark.parametrize('model', sorted(SETUPS))
    @pytest.mark.parametrize('so', [4, 8])
    @pytest.mark.parametrize('mode', MODES)
    def test_propagator_matrix(self, model, so, mode):
        setup = SETUPS[model]

        def build(comm):
            solver, _ = setup(shape=(36, 36), spacing=(10., 10.),
                              tn=70.0, space_order=so, nbl=4, comm=comm,
                              mpi=mode, nrec=4)
            return solver.op.analyze()

        for rank, report in enumerate(run_parallel(build, 2)):
            assert not report.diagnostics, (rank, report.render())

    def test_serial_clean(self):
        op, _ = _diffusion_op()
        report = op.analyze()
        assert bool(report)  # truthy == clean
        assert report.codes == []

    @pytest.mark.parametrize('mode', MODES)
    def test_diffusion_distributed_clean(self, mode):
        reports = run_parallel(
            lambda c: _diffusion_op(c, mpi=mode)[0].analyze(), 2)
        assert all(not r.diagnostics for r in reports)


# -- 2. mutation testing: seeded bugs are rejected by code ---------------------------


def _dist_op(comm, mode='basic', so=4):
    return _diffusion_op(comm, mpi=mode, so=so)[0]


class TestMutations:
    def test_deleted_halo_is_E101(self):
        ops = run_parallel(lambda c: _dist_op(c), 2)
        op = ops[0]
        assert any(s.is_halo for s in op.schedule.steps)
        op.schedule.steps = [s for s in op.schedule.steps
                             if not s.is_halo]
        report = analyze_schedule(op.schedule)
        assert 'REPRO-E101' in report.codes
        assert report.errors

    def test_shrunk_halo_is_E102(self):
        ops = run_parallel(lambda c: _dist_op(c), 2)
        op = ops[0]
        for step in op.schedule.steps:
            if not step.is_halo:
                continue
            step.exchanges = [
                HaloRequirement(req.function, req.time_shift,
                                [(max(l - 1, 0), max(r - 1, 0))
                                 for l, r in req.widths])
                for req in step.exchanges]
        report = analyze_schedule(op.schedule)
        assert 'REPRO-E102' in report.codes

    def test_loop_carried_parallel_is_E111(self):
        grid = Grid(shape=(12, 12), extent=(11., 11.))
        u = TimeFunction(name='u', grid=grid, space_order=4)
        t, (x, y) = u.time_dim, grid.dimensions
        # a Gauss-Seidel-style recurrence: reads its own write at x-1,
        # but every compute step is executed as a parallel sweep
        eq = Eq(u.forward,
                u.indexed(t + 1, x - 1, y) * 0.5 + u.indexed(t, x, y))
        op = Operator([eq], opt=False)
        report = op.analyze()
        assert 'REPRO-E111' in report.codes
        [diag] = report.by_code('REPRO-E111')
        assert 'u[t+1]' in diag.message

    def test_ww_race_is_E112(self):
        grid = Grid(shape=(12, 12), extent=(11., 11.))
        u = TimeFunction(name='u', grid=grid, space_order=4)
        t, (x, y) = u.time_dim, grid.dimensions
        op = Operator([Eq(u.indexed(t + 1, x, y), u.indexed(t, x, y)),
                       Eq(u.indexed(t + 1, x + 1, y),
                          u.indexed(t, x, y) * 2.0)], opt=False)
        assert 'REPRO-E112' in op.analyze().codes

    def test_out_of_bounds_is_E121(self):
        # E121 is retired: the in-bounds proof (E123) rejects an offset
        # beyond the allocated halo over every iteration box
        grid = Grid(shape=(12, 12), extent=(11., 11.))
        u = TimeFunction(name='u', grid=grid, space_order=4)
        t, (x, y) = u.time_dim, grid.dimensions
        op = Operator([Eq(u.forward, u.indexed(t, x + 20, y))], opt=False)
        assert 'REPRO-E123' in op.analyze().codes

    def test_every_code_documented(self):
        for code, (severity, title) in CODES.items():
            assert code.startswith('REPRO-')
            assert severity in ('error', 'warning')
            assert title


# -- the compile-time gate (opt='verify' / REPRO_OPT=verify) -------------------------


class TestVerifyGate:
    def test_clean_build_attaches_report(self):
        op, _ = _diffusion_op(opt='verify')
        assert op.analysis is not None
        assert not op.analysis.diagnostics

    def test_gate_rejects_race_at_build(self):
        grid = Grid(shape=(12, 12), extent=(11., 11.))
        u = TimeFunction(name='u', grid=grid, space_order=4)
        t, (x, y) = u.time_dim, grid.dimensions
        eq = Eq(u.forward,
                u.indexed(t + 1, x - 1, y) * 0.5 + u.indexed(t, x, y))
        with pytest.raises(AnalysisError) as err:
            Operator([eq], opt='verify')
        assert 'REPRO-E111' in str(err.value)

    def test_verify_schedule_raises_on_mutation(self):
        ops = run_parallel(lambda c: _dist_op(c), 2)
        op = ops[0]
        op.schedule.steps = [s for s in op.schedule.steps
                             if not s.is_halo]
        with pytest.raises(AnalysisError) as err:
            verify_schedule(op.schedule)
        assert 'REPRO-E101' in str(err.value)

    def test_configuration_accepts_verify(self):
        configuration['opt'] = 'verify'
        assert configuration['opt'] == 'verify'
        op, _ = _diffusion_op()  # global gate, clean build passes
        assert op.analysis is not None

    def test_analysis_build_time_recorded(self):
        op, _ = _diffusion_op(opt='verify')
        assert op.profiler.build_times.get('analysis', 0.0) >= 0.0
        assert 'analysis' in op.profiler.build_times


# -- 3. the poisoned-halo sanitizer --------------------------------------------------


def _sanitized_stale_run(comm, sanitize):
    """Run a diffusion op whose halo exchanges were deleted."""
    from repro.codegen.pybackend import generate_kernel
    op, u = _diffusion_op(comm, mpi='basic')
    u.data[0] = 1.0
    op.schedule.steps = [s for s in op.schedule.steps if not s.is_halo]
    op.kernel = generate_kernel(op.schedule, profiler=op.profiler,
                                sanitizer=sanitize)
    op.apply(time_M=3, dt=0.02)
    return u.data.gather()


class TestSanitizer:
    def test_catches_stale_halo_read(self):
        with pytest.raises(HaloPoisonError) as err:
            run_parallel(lambda c: _sanitized_stale_run(c, True), 2)
        assert 'section0' in str(err.value)

    def test_plain_mode_is_silent_on_same_bug(self):
        # the very bug the sanitizer catches: plain execution completes
        # without complaint (and computes garbage at the rank seam)
        result = run_parallel(lambda c: _sanitized_stale_run(c, False), 2)
        assert result is not None

    @pytest.mark.parametrize('mode', MODES)
    def test_bit_identical_when_clean(self, mode):
        def run(comm=None, sanitizer=None):
            op, u = _diffusion_op(comm, mpi=mode if comm else None,
                                  sanitizer=sanitizer)
            init = np.zeros(u.grid.shape, dtype=np.float32)
            init[tuple(s // 2 for s in u.grid.shape)] = 1.0
            u.data[0] = init
            op.apply(time_M=3, dt=0.02)
            return u.data.gather()

        serial = run()
        out = run_parallel(lambda c: run(c, sanitizer=True), 2)
        for r, field in enumerate(out):
            assert np.array_equal(field, serial), (mode, r)

    def test_configuration_key(self):
        configuration['sanitizer'] = 'yes'
        assert configuration['sanitizer'] is True
        configuration['sanitizer'] = 0
        assert configuration['sanitizer'] is False


# -- reserved tag spaces -------------------------------------------------------------


class _FakeExchanger:
    def __init__(self, lo, hi):
        self.tag_range = (lo, hi)


class TestTagSpaces:
    def test_disjoint_nonnegative_ranges_pass(self):
        check_tag_spaces({'a': _FakeExchanger(0, 27),
                          'b': _FakeExchanger(64, 91)})

    def test_overlapping_exchangers_collide(self):
        with pytest.raises(TagCollisionError):
            check_tag_spaces({'a': _FakeExchanger(0, 27),
                              'b': _FakeExchanger(20, 47)})

    def test_sentinel_band_reserved(self):
        with pytest.raises(TagCollisionError) as err:
            check_tag_spaces({'a': _FakeExchanger(-5, 22)})
        assert 'reserved' in str(err.value)

    def test_collective_band_reserved(self):
        # the resilience repartitioning alltoall rides on collective
        # tags; an exchanger must never be able to alias them
        with pytest.raises(TagCollisionError) as err:
            check_tag_spaces({'a': _FakeExchanger(-10_050, -10_020)})
        assert 'resilience' in str(err.value)

    def test_every_negative_tag_is_reserved(self):
        from repro.mpi.sim import (ANY_SOURCE, ANY_TAG, PROC_NULL,
                                   _COLLECTIVE_TAG_BASE)
        for tag in (PROC_NULL, ANY_SOURCE, ANY_TAG, -1,
                    _COLLECTIVE_TAG_BASE, _COLLECTIVE_TAG_BASE - 12345):
            assert any(lo <= tag < hi
                       for lo, hi, _ in RESERVED_TAG_SPACES), tag

    def test_live_kernel_exchangers_are_clean(self):
        def build(comm):
            op = _dist_op(comm)
            check_tag_spaces(op.kernel.exchangers)
            return True
        assert all(run_parallel(build, 2))


# -- rendering & the schedule dump ---------------------------------------------------


class TestRendering:
    def test_describe_key(self):
        assert describe_key(('u', 1)) == 'u[t+1]'
        assert describe_key(('u', 0)) == 'u[t]'
        assert describe_key(('u', -1)) == 'u[t-1]'
        assert describe_key(('m', None)) == 'm'

    def test_format_widths(self):
        grid = Grid(shape=(8, 8), extent=(7., 7.))
        x, y = grid.dimensions
        assert format_widths(((1, 1), (0, 2)), (x, y)) \
            == '(x: 1/1, y: 0/2)'

    def test_dump_names_match_profiler_sections(self):
        ops = run_parallel(lambda c: _dist_op(c), 2)
        dump = ops[0].schedule.dump()
        assert 'haloupdate0' in dump
        assert 'section0' in dump
        assert 'mpi=basic' in dump

    def test_report_renders_step_and_source_excerpts(self):
        ops = run_parallel(lambda c: _dist_op(c), 2)
        op = ops[0]
        op.schedule.steps = [s for s in op.schedule.steps
                             if not s.is_halo]
        report = analyze_schedule(op.schedule, kernel=op.kernel)
        text = report.render()
        assert 'REPRO-E101' in text
        assert 'error' in text

    def test_clean_report_renders(self):
        op, _ = _diffusion_op()
        assert 'clean' in op.analyze().render()


# -- the CLI analyze mode ------------------------------------------------------------


class TestCLI:
    def test_analyze_mode_clean(self, capsys):
        from repro.cli import main
        main(['analyze', 'acoustic', '-d', '41', '41', '-so', '4',
              '--ranks', '2', '--mpi', 'diagonal', '--dump-schedule'])
        out = capsys.readouterr().out
        assert 'analysis: clean' in out
        assert 'haloupdate0' in out

    def test_analyze_mode_serial(self, capsys):
        from repro.cli import main
        main(['analyze', 'acoustic', '-d', '41', '41', '-so', '4',
              '--ranks', '1'])
        out = capsys.readouterr().out
        assert 'analysis: clean' in out

    def test_benchmark_sanitize_flag(self, capsys):
        from repro.cli import run_benchmark
        run_benchmark('acoustic', [41, 41], 30.0, 4, nbl=4, ranks=2,
                      config={'sanitizer': True}, verify=True)
        out = capsys.readouterr().out
        assert 'sanitizer' in out
        assert 'IDENTICAL' in out

    def test_benchmark_reconcile_flag(self, capsys):
        from repro.cli import run_benchmark
        run_benchmark('acoustic', [41, 41], 30.0, 4, nbl=4, ranks=2,
                      config={'sanitizer': 'reconcile'}, verify=True)
        out = capsys.readouterr().out
        assert 'reconcile' in out
        assert 'IDENTICAL' in out

    def test_analyze_certificate_flag(self, capsys):
        from repro.cli import main
        main(['analyze', 'acoustic', '-d', '41', '41', '-so', '4',
              '--ranks', '2', '--mpi', 'diagonal', '--certificate'])
        out = capsys.readouterr().out
        assert 'CommCertificate' in out
        assert 'predicted totals' in out

    def test_analyze_json_schema_roundtrip(self, capsys):
        from repro.cli import main
        main(['analyze', 'acoustic', '-d', '41', '41', '-so', '4',
              '--ranks', '2', '--mpi', 'basic', '--format', 'json'])
        payload = json.loads(capsys.readouterr().out)
        assert payload['schema'] == 1
        assert payload['kernel'] == 'acoustic'
        assert payload['ranks'] == 2
        assert payload['clean'] is True
        assert payload['errors'] == 0
        # diagnostics round-trip through the documented payload form
        for dp in payload['diagnostics']:
            d = Diagnostic.from_payload(dp)
            assert d.to_payload() == {k: v for k, v in dp.items()
                                      if k != 'ranks'}
        # certificates round-trip into live CommCertificate objects
        assert len(payload['certificates']) == 2
        for cp in payload['certificates']:
            cert = CommCertificate.from_payload(cp)
            assert cert.entries
            assert cert.to_payload() == cp
        # inferred minimal widths: one mapping per rank, keyed u[t]-style
        assert len(payload['inferred_widths']) == 2
        assert any(payload['inferred_widths'][0])

    def test_analyze_verbose_appends_per_rank_reports(self, capsys):
        from repro.cli import main
        main(['analyze', 'acoustic', '-d', '41', '41', '-so', '4',
              '--ranks', '2', '--mpi', 'basic', '--verbose'])
        out = capsys.readouterr().out
        assert '--- rank 0 ---' in out
        assert '--- rank 1 ---' in out


# -- the affine dataflow engine ------------------------------------------------------


class TestDataflowEngine:
    def test_access_maps_hull(self):
        op, _ = _diffusion_op(so=4)
        [cluster] = op.schedule.clusters
        amap = cluster.access_map
        # the so=4 Laplacian reads +/-2 along both space dimensions
        assert amap.reach() == {('u', 0): ((2, 2), (2, 2))}
        assert [acc.key for acc in amap.writes] == [('u', 1)]

    def test_inferred_widths_match_stencil_reach(self):
        def build(comm):
            op, _ = _diffusion_op(comm, mpi='basic', so=4)
            return infer_min_widths(op.schedule), op.schedule
        (inferred, schedule), _ = run_parallel(build, 2)
        dist = schedule.grid.distributor
        # depth 2 along distributed dims, 0 along serial ones
        expect = tuple((2, 2) if dist.is_distributed(d) else (0, 0)
                       for d in range(2))
        assert inferred[('u', 0)] == expect

    def test_overwide_exchange_is_W203(self):
        # W203 is retired: an exchange wider than every read is W202
        ops = run_parallel(lambda c: _dist_op(c), 2)
        op = ops[0]
        for step in op.schedule.steps:
            if not step.is_halo:
                continue
            step.exchanges = [
                HaloRequirement(req.function, req.time_shift,
                                [(l + 2, r + 2) for l, r in req.widths])
                for req in step.exchanges]
        report = analyze_schedule(op.schedule)
        assert 'REPRO-W202' in report.codes
        # over-wide is wasteful, never wrong: no error-severity finding
        assert not report.errors

    def test_undersized_allocation_is_E123(self):
        op, u = _diffusion_op(so=4)
        # shrink the allocated halo under the stencil reach: the +/-2
        # reads can no longer be proven inside the padded extents
        u.space_order = 1
        report = analyze_schedule(op.schedule)
        assert 'REPRO-E123' in report.codes
        diag = report.by_code('REPRO-E123')[0]
        assert 'cannot prove' in diag.message

    def test_clean_op_has_no_dataflow_findings(self):
        def build(comm):
            return _dist_op(comm, mode='full').analyze()
        for report in run_parallel(build, 2):
            assert not report.diagnostics, report.render()


# -- static communication certificates -----------------------------------------------


class TestCertificates:
    @pytest.mark.parametrize('mode', MODES)
    def test_certificate_matches_kernel_exchangers(self, mode):
        def build(comm):
            op = _dist_op(comm, mode=mode)
            cert = op.certificate
            assert sorted(e.key for e in cert.entries) \
                == sorted(op.kernel.exchangers)
            for entry in cert.entries:
                lo, hi = op.kernel.exchangers[entry.key].tag_range
                assert all(lo <= tag <= hi
                           for _, tag, _ in entry.messages), entry
            return cert
        certs = run_parallel(build, 2)
        assert all(c.mode == mode for c in certs)

    def test_certificate_payload_roundtrip(self):
        def build(comm):
            return _dist_op(comm, mode='diagonal').certificate
        for cert in run_parallel(build, 2):
            # through JSON, as the artifact disk tier stores it
            payload = json.loads(json.dumps(cert.to_payload()))
            assert CommCertificate.from_payload(payload) == cert

    def test_serial_certificate_is_empty(self):
        op, _ = _diffusion_op()
        cert = build_certificate(op.schedule)
        assert cert.mode is None
        assert cert.entries == ()
        assert cert.predict(10) == {}

    def test_predict_scales_with_timesteps(self):
        def build(comm):
            return _dist_op(comm).certificate
        cert = run_parallel(build, 2)[0]
        one = cert.predict(1)
        five = cert.predict(5)
        assert set(one) == set(five)
        for key, (count, nbytes) in one.items():
            assert five[key] == (count * 5, nbytes * 5)

    def test_artifact_roundtrips_certificate(self):
        from repro.codegen.artifact import KernelArtifact

        def build(comm):
            op = _dist_op(comm)
            art = KernelArtifact.extract(op)
            payload = json.loads(json.dumps(art.to_payload()))
            rehydrated = KernelArtifact.from_payload(payload) \
                .rehydrate_certificate(op.grid.distributor)
            assert rehydrated == op.certificate
            return True
        assert all(run_parallel(build, 2))

    @pytest.mark.parametrize('mode', MODES)
    def test_reconcile_clean_apply_passes(self, mode):
        def run(comm):
            op, u = _diffusion_op(comm, mpi=mode, sanitizer='reconcile')
            u.data[0] = 1.0
            op.apply(time_M=4, dt=0.02)
            return op.certificate
        certs = run_parallel(run, 2)
        assert all(c is not None and c.mode == mode for c in certs)

    def test_reconcile_mismatch_raises(self):
        def run(comm):
            op, u = _diffusion_op(comm, mpi='basic',
                                  sanitizer='reconcile')
            # tamper: the certificate now predicts one byte more per
            # message than the kernel will ever send
            entries = tuple(
                CertificateEntry(e.key, e.scope,
                                 tuple((d, t, b + 1)
                                       for d, t, b in e.messages))
                for e in op.certificate.entries)
            op.certificate = CommCertificate(
                op.certificate.rank, op.certificate.mode, entries)
            op.apply(time_M=3, dt=0.02)
        with pytest.raises(ReconcileError) as err:
            run_parallel(run, 2)
        assert 'ledger recorded' in str(err.value)

    def test_configuration_reconcile_mode(self):
        configuration['sanitizer'] = 'reconcile'
        assert configuration['sanitizer'] == 'reconcile'
        configuration['sanitizer'] = 'poison'
        assert configuration['sanitizer'] is True

    def test_fingerprint_tracks_analysis_version(self, monkeypatch):
        import repro.buildcache.fingerprint as fp
        grid = Grid(shape=(8, 8), extent=(7., 7.))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        eqs = [Eq(u.forward, u.laplace * 0.1)]
        kw = dict(mpi_mode=None, opt=True, verify=False,
                  sanitizer=False, instrument=False, progress=False)
        base, _ = fp.fingerprint_build(eqs, **kw)
        # the sanitizer token is mode-aware: off / poison / reconcile
        # are three different cache keys
        poison, _ = fp.fingerprint_build(eqs, **dict(kw, sanitizer=True))
        rec, _ = fp.fingerprint_build(eqs,
                                      **dict(kw, sanitizer='reconcile'))
        assert len({base, poison, rec}) == 3
        # bumping the verifier version invalidates every cached artifact
        monkeypatch.setattr(fp, 'ANALYSIS_VERSION', ANALYSIS_VERSION + 1)
        bumped, _ = fp.fingerprint_build(eqs, **kw)
        assert bumped != base


# -- the full propagator x SDO x mode matrix (analysis + reconciled apply) -----------


class TestDataflowMatrix:
    @pytest.mark.parametrize('model', sorted(SETUPS))
    @pytest.mark.parametrize('so', [4, 8, 12])
    @pytest.mark.parametrize('mode', MODES)
    def test_inference_certificate_and_proof(self, model, so, mode):
        setup = SETUPS[model]
        configuration['sanitizer'] = 'reconcile'
        def build(comm):
            solver, _ = setup(shape=(36, 36), spacing=(10., 10.),
                              tn=30.0, space_order=so, nbl=4,
                              comm=comm, mpi=mode, nrec=4)
            op = solver.op
            report = analyze_schedule(op.schedule)
            # the forward run reconciles the commlog ledger against
            # the certificate after apply (raises on any mismatch)
            solver.forward()
            return report, op.certificate
        for rank, (report, cert) in enumerate(run_parallel(build, 2)):
            # zero diagnostics, warnings included: no exchange is
            # missing, stale, redundant or wider than its reads
            # (W201/W202), and every access is proven in-bounds
            assert not report.diagnostics, (rank, report.render())
            assert cert is not None and cert.entries, rank


# -- cross-rank merged reporting -----------------------------------------------------


class TestMergedReports:
    def test_identical_findings_collapse(self):
        d = Diagnostic('REPRO-W201', 'same everywhere', step_index=1)
        reports = [AnalysisReport(diagnostics=[d]),
                   AnalysisReport(diagnostics=[
                       Diagnostic('REPRO-W201', 'same everywhere',
                                  step_index=1),
                       Diagnostic('REPRO-W202', 'only here')])]
        merged = merge_reports(reports)
        assert len(merged) == 2
        assert merged[0][1] == [0, 1]
        assert merged[1][1] == [1]
        text = render_merged(reports)
        assert '[all ranks]' in text
        assert '[rank 1]' in text
        assert text.count('same everywhere') == 1

    def test_real_mutation_dedupes_across_ranks(self):
        ops = run_parallel(lambda c: _dist_op(c), 2)
        reports = []
        for op in ops:
            op.schedule.steps = [s for s in op.schedule.steps
                                 if not s.is_halo]
            reports.append(analyze_schedule(op.schedule))
        merged = merge_reports(reports)
        assert any(d.code == 'REPRO-E101' for d, _ in merged)
        # the 2-rank diffusion decomposition is symmetric: the findings
        # are rank-identical and must collapse to single lines
        assert any(ranks == [0, 1] for _, ranks in merged)
        assert len(merged) < sum(len(r.diagnostics) for r in reports)

    def test_verbose_appends_per_rank_sections(self):
        reports = [AnalysisReport(), AnalysisReport(diagnostics=[
            Diagnostic('REPRO-W211', 'tmp unused')])]
        text = render_merged(reports, verbose=True)
        assert '--- rank 0 ---' in text
        assert '--- rank 1 ---' in text

    def test_clean_merge(self):
        text = render_merged([AnalysisReport(), AnalysisReport()])
        assert 'clean' in text
        assert 'all ranks' in text


# -- property-based: inference vs a brute-force off-rank-read simulation -------------


def _bruteforce_need(schedule, dist):
    """Walk every point of every compute step's boxes on this rank, and
    every read offset, for one iteration; record per buffer how deep
    each read lands inside a neighbor's owned region.  Along dimension
    ``d`` that depth depends on a point's ``d`` coordinate only, so each
    box is walked one dimension at a time."""
    need = {}
    for step in schedule.steps:
        if not step.is_compute:
            continue
        cluster = step.cluster
        reads = [acc for eq in cluster.eqs for acc in eq.reads]
        reads += [acc for _, rhs in cluster.temps
                  for acc in accesses_of(rhs)]
        for box in region_boxes(step.region, step.widths, dist, step.grow):
            for acc in reads:
                if acc.function.is_Scratch:
                    continue  # never exchanged
                widths = need.setdefault(acc.key, [[0, 0] for _ in box])
                for d, ((lo, hi), off) in enumerate(zip(box,
                                                        acc.offsets)):
                    dec = dist.decompositions[d]
                    start, stop = dec.local_range(dist.mycoords[d])
                    for i in range(start + lo, start + hi):
                        tgt = i + off
                        if not 0 <= tgt < dec.npoints:
                            continue  # boundary padding, never off-rank
                        if tgt < start:
                            widths[d][0] = max(widths[d][0], start - tgt)
                        elif tgt >= stop:
                            widths[d][1] = max(widths[d][1],
                                               tgt - stop + 1)
    return need


def _check_inference(inferred, needs):
    """``inferred`` (every rank's) is sufficient and minimal: it equals
    the worst brute-force need over the ranks, buffer by buffer."""
    worst = {}
    for need in needs:
        for key, widths in need.items():
            prev = worst.get(key, widths)
            worst[key] = [[max(a, b) for a, b in zip(p, w)]
                          for p, w in zip(prev, widths)]
    expect = {key: tuple(map(tuple, w)) for key, w in worst.items()
              if any(l or r for l, r in w)}
    assert all(inf == expect for inf in inferred), (inferred[0], expect)


class TestInferenceProperty:
    @given(offsets=st.lists(st.tuples(st.integers(-3, 3),
                                      st.integers(-3, 3)),
                            min_size=1, max_size=4, unique=True),
           so=st.sampled_from([4, 8]),
           ranks=st.sampled_from([2, 4]))
    @settings(max_examples=10, deadline=None)
    def test_inferred_matches_bruteforce(self, offsets, so, ranks):
        def build(comm, mode):
            grid = Grid(shape=(16, 16), extent=(15., 15.), comm=comm)
            u = TimeFunction(name='u', grid=grid, space_order=so)
            t = u.time_dim
            x, y = grid.dimensions
            expr = u.indexed(t, x, y) * 0.0
            for i, (ox, oy) in enumerate(offsets):
                expr = expr + u.indexed(t, x + ox, y + oy) * float(i + 1)
            schedule = build_schedule([Eq(u.forward, expr)],
                                      mpi_mode=mode, opt=False)
            return (infer_min_widths(schedule),
                    _bruteforce_need(schedule, grid.distributor))

        for mode in MODES:
            # the inference is schedule- and mode-independent
            _check_inference(*zip(*run_parallel(lambda c: build(c, mode),
                                                ranks)))

    @pytest.mark.parametrize('so,ranks', [(4, 2), (4, 4), (8, 2), (8, 4)])
    def test_grown_region_matches_bruteforce(self, so, ranks):
        # TTI's scratch cluster iterates DOMAIN grown by its readers'
        # offsets, so its reads reach from the grown edge; full mode
        # splits every region into CORE and REMAINDER boxes
        solvers = run_parallel(
            lambda c: tti_setup(shape=(24, 20), spacing=(10., 10.),
                                tn=10.0, space_order=so, nbl=2, comm=c,
                                nrec=1)[0], ranks)
        # one rank-agnostic schedule, walked over every rank's boxes
        schedule = build_schedule(solvers[0]._equations(), mpi_mode='full')
        assert any(s.is_compute and s.grow for s in schedule.steps)
        _check_inference([infer_min_widths(schedule)],
                         [_bruteforce_need(schedule, s.model.grid.distributor)
                          for s in solvers])
