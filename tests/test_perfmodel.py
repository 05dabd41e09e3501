"""Tests for the calibrated performance model: the reproduction's *shape*
claims against the paper's published evaluation."""

import numpy as np
import pytest

from repro.perfmodel import (ARCHER2, TURSA, ScalingModel, attainable,
                             paper_data as pd, roofline_points,
                             shape_metrics, strong_scaling_table,
                             weak_scaling_table)


class TestModelBasics:
    def test_single_node_matches_calibration(self):
        m = ScalingModel('acoustic', 4)
        shape = (1024,) * 3
        # 1 node: communication is intra-node; within 3% of the base rate
        t = m.throughput(shape, 1, 'basic')
        assert t == pytest.approx(13.4, rel=0.05)

    def test_single_gpu_is_pure_compute(self):
        m = ScalingModel('acoustic', 8, gpu=True)
        t = m.throughput((1158,) * 3, 1, 'basic')
        assert t == pytest.approx(31.2, rel=0.02)

    def test_throughput_monotone_in_nodes(self):
        m = ScalingModel('tti', 8)
        shape = (1024,) * 3
        ts = [m.throughput(shape, n, 'diag') for n in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_efficiency_decays_with_scale(self):
        m = ScalingModel('elastic', 8)
        shape = (1024,) * 3
        e16 = m.efficiency(shape, 16, 'basic')
        e128 = m.efficiency(shape, 128, 'basic')
        assert e128 < e16 <= 1.05

    def test_unknown_mode_rejected(self):
        m = ScalingModel('acoustic', 8)
        with pytest.raises(ValueError):
            m.step_time((64,) * 3, 4, 'warp')

    def test_full_mode_core_fraction_shrinks(self):
        m = ScalingModel('acoustic', 16)
        f_small = m._core_fraction((512, 512, 512), (2, 2, 2))
        f_large = m._core_fraction((64, 64, 64), (2, 2, 2))
        assert f_large < f_small


class TestPaperShape:
    """The headline qualitative claims of Section IV."""

    def test_aggregate_fidelity(self):
        metrics = shape_metrics()
        assert metrics['cpu_mean_rel_err'] < 0.25
        assert metrics['gpu_mean_rel_err'] < 0.25
        assert metrics['winner_agreement'] > 0.75

    @pytest.mark.parametrize('kernel', pd.KERNELS)
    def test_headline_cpu_efficiency(self, kernel):
        t = strong_scaling_table(kernel, 8, pd.PROBLEM_SIZE_CPU[kernel])
        best = max(t[m][-1] for m in t)
        base = max(t[m][0] for m in t)
        eff = best / (base * 128)
        paper = pd.HEADLINE_EFFICIENCY[(kernel, 'cpu')]
        assert eff == pytest.approx(paper, abs=0.10)

    @pytest.mark.parametrize('kernel', pd.KERNELS)
    def test_headline_gpu_efficiency(self, kernel):
        t = strong_scaling_table(kernel, 8, pd.PROBLEM_SIZE_GPU[kernel],
                                 gpu=True, modes=('basic',))['basic']
        eff = t[-1] / (t[0] * 128)
        paper = pd.HEADLINE_EFFICIENCY[(kernel, 'gpu')]
        assert eff == pytest.approx(paper, abs=0.10)

    def test_tti_scales_best_on_cpu(self):
        """TTI has the highest computation-to-communication ratio and the
        highest strong-scaling efficiency (Section IV-D)."""
        effs = {}
        for kernel in pd.KERNELS:
            t = strong_scaling_table(kernel, 8, pd.PROBLEM_SIZE_CPU[kernel])
            best = max(t[m][-1] for m in t)
            base = max(t[m][0] for m in t)
            effs[kernel] = best / (base * 128)
        assert effs['tti'] == max(effs.values())

    def test_elastic_visco_scale_worst_on_cpu(self):
        effs = {}
        for kernel in pd.KERNELS:
            t = strong_scaling_table(kernel, 8, pd.PROBLEM_SIZE_CPU[kernel])
            best = max(t[m][-1] for m in t)
            base = max(t[m][0] for m in t)
            effs[kernel] = best / (base * 128)
        worst_two = sorted(effs, key=effs.get)[:2]
        assert set(worst_two) == {'elastic', 'viscoelastic'}

    def test_basic_beats_diag_acoustic_at_scale(self):
        """Table III: basic wins the 128-node acoustic so-04 run (tiny
        messages: diagonal's 26 injections dominate)."""
        t = strong_scaling_table('acoustic', 4, 1024)
        assert t['basic'][-1] > t['diag'][-1]

    def test_diag_beats_basic_elastic_at_scale(self):
        """Table VIII: diagonal wins the 128-node elastic so-08 run
        (volume-dominated: single-step batching pays off)."""
        t = strong_scaling_table('elastic', 8, 1024)
        assert t['diag'][-1] > t['basic'][-1]

    def test_diag_beats_basic_acoustic_high_so_midscale(self):
        """Table V: diagonal wins acoustic so-12 at 16-32 nodes."""
        t = strong_scaling_table('acoustic', 12, 1024)
        i16 = pd.NODES.index(16)
        assert t['diag'][i16] > t['basic'][i16]

    def test_full_worst_for_tti_and_visco_at_scale(self):
        """Sections IV-D: 'there are better candidates than full mode for
        TTI kernels'; viscoelastic full trails clearly."""
        for kernel in ('tti', 'viscoelastic'):
            t = strong_scaling_table(kernel, 8, pd.PROBLEM_SIZE_CPU[kernel])
            assert t['full'][-1] < t['basic'][-1]
            assert t['full'][-1] < t['diag'][-1]

    def test_full_degrades_with_space_order(self):
        """Section IV-F: the core-to-remainder ratio drops with higher
        SDO, so full loses more at so-16 than at so-4."""
        rel = {}
        for so in (4, 16):
            t = strong_scaling_table('acoustic', so, 1024)
            rel[so] = t['full'][-1] / t['basic'][-1]
        assert rel[16] < rel[4]

    def test_gpu_faster_than_cpu_low_node_counts(self):
        """Section IV-D: GPUs superior at low node counts."""
        cpu = strong_scaling_table('acoustic', 8, 1024)['basic'][0]
        gpu = strong_scaling_table('acoustic', 8, 1158, gpu=True,
                                   modes=('basic',))['basic'][0]
        assert gpu > 2 * cpu

    def test_gpu_efficiency_drops_after_4_devices(self):
        """'a decrease in efficiency after 4 GPUs' (NVLink -> IB)."""
        m = ScalingModel('viscoelastic', 8, gpu=True)
        shape = (704,) * 3
        eff = [m.throughput(shape, n, 'basic') / (n * m.throughput(
            shape, 1, 'basic')) for n in (2, 4, 8)]
        drop_intra = eff[0] - eff[1]
        drop_cross = eff[1] - eff[2]
        assert drop_cross > drop_intra

    def test_per_cell_error_bound(self):
        """No modeled cell may be off by more than 2x."""
        for kernel in pd.KERNELS:
            for so in pd.SDOS:
                t = strong_scaling_table(kernel, so,
                                         pd.PROBLEM_SIZE_CPU[kernel])
                paper = pd.CPU_STRONG[kernel][so]
                for mode in ('basic', 'diag', 'full'):
                    for mv, pv in zip(t[mode], paper[mode]):
                        if pv is not None:
                            assert 0.5 < mv / pv < 2.0, (kernel, so, mode)


class TestWeakScaling:
    def test_runtime_roughly_constant(self):
        """Figure 12: nearly constant runtime under weak scaling."""
        for kernel in pd.KERNELS:
            t = weak_scaling_table(kernel, 8)['basic']
            assert max(t) / min(t) < 1.45, kernel

    def test_gpu_weak_scaling_faster(self):
        """Figure 12: GPUs are consistently ~4x faster (we model 3-5x at
        low unit counts, degrading modestly at scale)."""
        for kernel in pd.KERNELS:
            cpu = weak_scaling_table(kernel, 8)['basic']
            gpu = weak_scaling_table(kernel, 8, gpu=True,
                                     modes=('basic',))['basic']
            ratios = [c / g for c, g in zip(cpu, gpu)]
            assert 3.0 < ratios[0] < 5.5, kernel
            assert all(r > 1.8 for r in ratios), kernel

    def test_weak_shapes_double_cyclically(self):
        from repro.perfmodel.scaling import _weak_shape
        assert _weak_shape(256, 1) == (256, 256, 256)
        assert _weak_shape(256, 2) == (512, 256, 256)
        assert _weak_shape(256, 8) == (512, 512, 512)
        assert _weak_shape(256, 128) == (2048, 1024, 1024)


class TestRoofline:
    def test_all_kernels_dram_bound_cpu(self):
        """Figure 7: flop-optimized kernels are mainly DRAM-BW bound."""
        points = roofline_points(gpu=False)
        for kernel, info in points.items():
            if kernel == 'tti':
                continue  # TTI sits near the ridge
            assert info['dram_bound'], kernel

    def test_attainable_respects_roof(self):
        points = roofline_points(gpu=False)
        for kernel, info in points.items():
            assert info['gflops'] <= info['attainable'] * 1.05

    def test_tti_highest_oi(self):
        for gpu in (False, True):
            points = roofline_points(gpu=gpu)
            ois = {k: v['oi'] for k, v in points.items()}
            assert max(ois, key=ois.get) == 'tti'

    def test_ridge_points(self):
        assert attainable(0.1) == pytest.approx(38.0)
        assert attainable(1000.0) == 9200.0
        assert attainable(1000.0, gpu=True) == 19500.0

    def test_measured_oi_ordering(self):
        """The plain expansion (``opt=False``) preserves the paper's
        kernel ordering (TTI >> others); with the rotated Laplacian's
        inner derivative stored once per point (``opt=True``) TTI is
        still the most intense kernel, at a fifth of the flops."""
        from repro.models import acoustic_setup, tti_setup
        from repro.perfmodel import measured_roofline_points
        plain = {}
        for kernel, setup in (('acoustic', acoustic_setup),
                              ('tti', tti_setup)):
            solver, _ = setup(shape=(12, 12, 12), spacing=(10.,) * 3,
                              tn=10.0, space_order=4, nbl=4, opt=False)
            plain[kernel] = {'oi': solver.op.oi,
                             'flops_per_point': solver.op.flops_per_point}
        assert plain['tti']['oi'] > 3 * plain['acoustic']['oi']
        assert plain['acoustic']['flops_per_point'] > 0
        pts = measured_roofline_points(so=4, shape=(12, 12, 12))
        assert max(pts, key=lambda k: pts[k]['oi']) == 'tti'
        assert 5 * pts['tti']['flops_per_point'] \
            <= plain['tti']['flops_per_point']


class TestReportHarness:
    def test_format_table_contains_both_rows(self):
        from repro.perfmodel import cpu_strong_rows, format_table
        text = format_table(cpu_strong_rows('elastic', 8))
        assert 'Basic (model)' in text
        assert 'Diag (paper)' in text
        assert text.count('|') > 40

    def test_all_tables_generate(self):
        from repro.perfmodel import all_cpu_tables, all_gpu_tables
        assert len(all_cpu_tables()) == 16
        assert len(all_gpu_tables()) == 16
