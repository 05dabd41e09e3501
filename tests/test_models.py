"""Tests for the four seismic wave propagators (serial correctness)."""

import numpy as np
import pytest

from repro.models import (SeismicModel, TimeAxis, acoustic_setup,
                          damping_profile, elastic_setup, ricker_wavelet,
                          tti_setup, viscoelastic_setup)


class TestSeismicModel:
    def test_grid_extended_by_nbl(self):
        model = SeismicModel(shape=(20, 20), spacing=(10., 10.), vp=1.5,
                             nbl=5)
        assert model.grid.shape == (30, 30)

    def test_origin_shifted_by_nbl(self):
        model = SeismicModel(shape=(20, 20), spacing=(10., 10.), vp=1.5,
                             nbl=5, origin=(0., 0.))
        assert model.grid.origin == (-50.0, -50.0)

    def test_parameter_padding(self):
        v = np.full((10, 10), 2.0, dtype=np.float32)
        v[5:, :] = 3.0
        model = SeismicModel(shape=(10, 10), spacing=(10., 10.), vp=v,
                             nbl=4)
        m = np.array(model.m.data[:, :])
        # edge-padded: the ABC layer repeats the boundary slowness
        assert m[0, 7] == pytest.approx(1 / 4.0)
        assert m[-1, 7] == pytest.approx(1 / 9.0)

    def test_critical_dt_cfl(self):
        model = SeismicModel(shape=(10, 10), spacing=(10., 10.), vp=2.0,
                             nbl=0)
        assert model.critical_dt == pytest.approx(0.42 * 10.0 / 2.0)
        model3 = SeismicModel(shape=(8, 8, 8), spacing=(10.,) * 3, vp=2.0,
                              nbl=0)
        assert model3.critical_dt == pytest.approx(0.38 * 10.0 / 2.0)

    def test_damping_profile_zero_interior(self):
        damp = damping_profile((30, 30), 5, (10., 10.), 2.0)
        assert (damp[10:20, 10:20] == 0).all()
        assert damp[0, 15] > 0
        assert damp[0, 15] >= damp[3, 15]

    def test_mask_bounded(self):
        model = SeismicModel(shape=(20, 20), spacing=(10., 10.), vp=2.0,
                             nbl=5)
        mask = np.array(model.mask.data[:, :])
        assert (mask <= 1.0).all() and (mask > 0.0).all()
        assert mask[12, 12] == pytest.approx(1.0)

    def test_elastic_moduli(self):
        model = SeismicModel(shape=(10, 10), spacing=(10., 10.), vp=2.0,
                             vs=1.0, rho=2.0, nbl=0)
        lam = np.array(model.lam.data[:, :])
        mu = np.array(model.mu.data[:, :])
        assert lam[5, 5] == pytest.approx(2.0 * (4.0 - 2.0))
        assert mu[5, 5] == pytest.approx(2.0)

    def test_lam_requires_vs(self):
        model = SeismicModel(shape=(10, 10), spacing=(10., 10.), vp=2.0,
                             nbl=0)
        with pytest.raises(ValueError):
            model.lam

    def test_relaxation_times_positive(self):
        model = SeismicModel(shape=(10, 10), spacing=(10., 10.), vp=2.0,
                             vs=1.0, qp=100., qs=70., nbl=0)
        t_s, t_ep, t_es = model.relaxation_times(0.01)
        assert t_s > 0 and t_ep > 0 and t_es > 0
        # attenuation: strain relaxation exceeds stress relaxation
        assert t_ep > t_s and t_es > t_s


class TestSpacingValidation:
    @pytest.mark.parametrize('kw', [dict(spacing=(10., 10.)),
                                    dict(spacing=(10.,) * 3,
                                         origin=(0., 0.))])
    def test_length_mismatch_names_both_lengths(self, kw):
        with pytest.raises(ValueError, match=r'has 2 entries.*has 3'):
            SeismicModel(shape=(16, 16, 16), vp=1.5, nbl=2, **kw)

    def test_setup_spacing_defaults_per_dimension(self):
        solver, _ = acoustic_setup(shape=(16, 16, 16), nbl=2, tn=10.0)
        assert solver.model.spacing == (10.,) * 3
        assert solver.model.domain_size == (150.,) * 3


# Every parameter property, on inputs that exercise both raw kinds:
# arrays for all of them, and scalars with the rho/Thomsen defaults.
_PARAMS = ('m', 'damp', 'mask', 'b', 'lam', 'mu', 'pi', 'epsilon', 'delta',
           'theta', 'phi')


def _model_inputs(kind, shape):
    if kind == 'scalar':
        return dict(vp=2.2, vs=1.1)
    rng = np.random.default_rng(len(shape))
    vp = rng.uniform(1.5, 4.5, shape).astype(np.float32)
    return dict(vp=vp, vs=vp * 0.45, rho=vp * 0.3 + 1.0, epsilon=vp * 0.03,
                delta=vp * 0.02, theta=vp * 0.1, phi=vp * 0.2)


def _reference(shape, nbl, spacing, inputs):
    """The parameters as the global arrays an edge-padded global ``vp``
    gives (``np.pad``), with no decomposition involved."""
    shape_pml = tuple(n + 2 * nbl for n in shape)

    def padded(name, default):
        v = inputs.get(name, default)
        if np.isscalar(v):
            return np.full(shape_pml, v, dtype=np.float32)
        return np.pad(np.asarray(v, dtype=np.float32), nbl, mode='edge')
    vp, vs, rho = padded('vp', None), padded('vs', None), padded('rho', 1.)
    vmax = float(vp.max())
    dt = (0.38 if len(shape) == 3 else 0.42) * min(spacing) / vmax
    profile = damping_profile(shape_pml, nbl, spacing, vmax,
                              dtype=np.float64)
    out = dict(m=1.0 / vp ** 2, damp=profile,
               mask=1.0 / (1.0 + dt * profile), b=1.0 / rho,
               lam=rho * (vp ** 2 - 2 * vs ** 2), mu=rho * vs ** 2,
               pi=rho * vp ** 2)
    for name in ('epsilon', 'delta', 'theta', 'phi'):
        out[name] = padded(name, 0.)
    return {k: v.astype(np.float32) for k, v in out.items()}


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


class TestRankLocalModel:
    """Each rank builds only its own block of every parameter; gathered,
    the blocks are bitwise the serial model, which is bitwise the
    globally padded reference."""

    # (shape, nbl, ranks, topology, weights): padded extents 33 x 28
    # split unevenly; weights (1, 9) leave rank 0 three points, all of
    # them inside the 5-point absorbing layer
    DECOMPOSITIONS = [
        ((23, 18), 5, 1, None, None),
        ((23, 18), 5, 2, (2, 1), None),
        ((23, 18), 5, 3, (1, 3), None),
        ((23, 18), 5, 4, (2, 2), None),
        ((23, 18), 5, 2, (2, 1), ((1., 9.), None)),
        ((9, 8, 7), 3, 4, (2, 1, 2), None),
    ]

    @staticmethod
    def _build(shape, nbl, inputs, comm=None, **kw):
        model = SeismicModel(shape=shape, spacing=(10., 12., 8.)[:len(shape)],
                             nbl=nbl, space_order=4, comm=comm, **inputs,
                             **kw)
        return {name: getattr(model, name).data.gather()
                for name in _PARAMS}

    @pytest.mark.parametrize('kind', ['array', 'scalar'])
    @pytest.mark.parametrize('shape', [(23, 18), (9, 8, 7)])
    def test_serial_matches_padded_reference(self, shape, kind):
        nbl = 3
        inputs = _model_inputs(kind, shape)
        serial = self._build(shape, nbl, inputs)
        ref = _reference(shape, nbl, (10., 12., 8.)[:len(shape)], inputs)
        for name in _PARAMS:
            assert np.array_equal(_bits(serial[name]), _bits(ref[name])), \
                name

    @pytest.mark.parametrize('kind', ['array', 'scalar'])
    @pytest.mark.parametrize('shape,nbl,ranks,topology,weights',
                             DECOMPOSITIONS, ids=['1rank', '2ranks', '3ranks',
                                                  '2x2', 'weighted', '3d'])
    def test_distributed_is_bitwise_serial(self, shape, nbl, ranks,
                                           topology, weights, kind):
        from repro.mpi import run_parallel
        inputs = _model_inputs(kind, shape)
        serial = self._build(shape, nbl, inputs)
        out = run_parallel(
            lambda comm: self._build(shape, nbl, inputs, comm=comm,
                                     topology=topology, weights=weights),
            ranks)
        for name in _PARAMS:
            assert np.array_equal(_bits(out[0][name]),
                                  _bits(serial[name])), name

    def test_vp_is_the_global_padded_input(self):
        inputs = _model_inputs('array', (23, 18))
        model = SeismicModel(shape=(23, 18), spacing=(10., 10.), nbl=5,
                             vp=inputs['vp'])
        assert np.array_equal(model.vp, np.pad(inputs['vp'], 5, mode='edge'))
        assert model.vmax == float(inputs['vp'].max())

    def test_setup_memory_scales_with_subdomain(self):
        """Building ``m``, ``damp`` and ``mask`` on 4 ranks allocates,
        beyond the Functions' own storage, less than one global-shaped
        float32 array per rank (the globally padded set-up allocated
        several per rank and kept one)."""
        import tracemalloc
        from repro.mpi import run_parallel
        shape, nbl, ranks = (400, 300), 20, 4
        vp = np.full(shape, 2.0, dtype=np.float32)
        global_bytes = 4 * (shape[0] + 2 * nbl) * (shape[1] + 2 * nbl)

        def build(comm):
            model = SeismicModel(shape=shape, spacing=(10., 10.), nbl=nbl,
                                 vp=vp, space_order=4, comm=comm)
            fs = [model.m, model.damp, model.mask]
            return model, sum(f.data.with_halo.nbytes for f in fs)

        build(None)  # warm the symbolic caches outside the measurement
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = run_parallel(build, ranks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        storage = sum(nbytes for _, nbytes in out)
        assert peak - start - storage < ranks * global_bytes


class TestGeometry:
    def test_time_axis(self):
        ta = TimeAxis(start=0.0, stop=100.0, step=4.0)
        assert ta.num == 26
        assert ta.time_values[0] == 0.0
        assert ta.time_values[-1] == pytest.approx(ta.stop)

    def test_time_axis_validation(self):
        with pytest.raises(ValueError):
            TimeAxis(start=0.0, stop=10.0)
        with pytest.raises(ValueError):
            TimeAxis(start=0.0, num=10, step=-1.0)

    def test_ricker_peak_at_t0(self):
        t = np.linspace(0, 200, 401)
        wav = ricker_wavelet(t, f0=0.02)
        assert wav.max() == pytest.approx(1.0)
        assert t[np.argmax(wav)] == pytest.approx(1.0 / 0.02, abs=1.0)

    def test_ricker_zero_mean(self):
        t = np.linspace(0, 1000, 4001)
        wav = ricker_wavelet(t, f0=0.02)
        trapz = getattr(np, 'trapezoid', None) or np.trapz
        assert abs(trapz(wav, t)) < 5e-3  # truncated left tail


def _energy(field):
    return float(np.square(np.asarray(field, dtype=np.float64)).sum())


class TestPropagators:
    def test_acoustic_wave_propagates(self):
        solver, tr = acoustic_setup(shape=(40, 40), tn=120.0,
                                    space_order=4, nbl=10)
        rec, u, summary = solver.forward()
        data = np.array(u.data[tr.num % 3])
        assert np.isfinite(data).all()
        assert _energy(data) > 0
        # the wave must have reached away from the source
        assert np.abs(data[:10, :]).max() > 0

    def test_acoustic_receiver_records_arrival(self):
        solver, tr = acoustic_setup(shape=(40, 40), tn=150.0,
                                    space_order=4, nbl=10)
        rec, _, _ = solver.forward()
        assert np.isfinite(rec).all()
        # later samples carry the arrival; early ones are (near) quiet
        early = np.abs(rec[:5, :]).max()
        late = np.abs(rec).max()
        assert late > 10 * max(early, 1e-12)

    def test_acoustic_stability_many_steps(self):
        solver, tr = acoustic_setup(shape=(30, 30), tn=400.0,
                                    space_order=4, nbl=10)
        rec, u, _ = solver.forward()
        assert np.isfinite(np.array(u.data.with_halo)).all()

    def test_acoustic_abc_absorbs(self):
        """With an absorbing layer, late-time energy must decay below the
        peak (no hard reflection blow-up)."""
        solver, tr = acoustic_setup(shape=(30, 30), tn=600.0,
                                    space_order=4, nbl=15)
        rec, u, _ = solver.forward()
        trace = np.abs(rec).max(axis=1)
        peak_t = trace.argmax()
        assert trace[-1] < 0.5 * trace[peak_t]

    def test_acoustic_3d(self):
        solver, tr = acoustic_setup(shape=(20, 20, 20),
                                    spacing=(10.,) * 3, tn=60.0,
                                    space_order=4, nbl=6)
        rec, u, summary = solver.forward()
        assert np.isfinite(np.array(u.data.with_halo)).all()
        assert _energy(u.data_local) > 0

    def test_elastic_both_wavefields_active(self):
        solver, tr = elastic_setup(shape=(36, 36), tn=100.0,
                                   space_order=4, nbl=8)
        rec, v, tau, _ = solver.forward()
        assert _energy(v[0].data_local) > 0
        assert _energy(v[1].data_local) > 0
        assert _energy(tau[0, 0].data_local) > 0
        assert _energy(tau[0, 1].data_local) > 0

    def test_elastic_stability(self):
        solver, tr = elastic_setup(shape=(30, 30), tn=300.0,
                                   space_order=4, nbl=8)
        rec, v, tau, _ = solver.forward()
        assert np.isfinite(np.array(v[0].data.with_halo)).all()
        assert np.isfinite(np.array(tau[0, 0].data.with_halo)).all()

    def test_tti_fields_couple(self):
        solver, tr = tti_setup(shape=(36, 36), tn=80.0, space_order=4,
                               nbl=8)
        rec, p, q, _ = solver.forward()
        assert _energy(p.data_local) > 0
        assert _energy(q.data_local) > 0
        assert np.isfinite(np.array(p.data.with_halo)).all()

    def test_tti_reduces_to_acoustic_when_isotropic(self):
        """With eps=delta=theta=0 the TTI system collapses to two
        uncoupled acoustic equations (same symbol pattern)."""
        solver, tr = tti_setup(shape=(30, 30), tn=60.0, space_order=4,
                               nbl=6, epsilon=0.0, delta=0.0, theta=0.0)
        rec, p, q, _ = solver.forward()
        # p and q receive identical sources and evolve identically
        assert np.allclose(np.array(p.data[0]), np.array(q.data[0]),
                           atol=1e-4)

    def test_tti_anisotropy_changes_field(self):
        base, tr = tti_setup(shape=(30, 30), tn=60.0, space_order=4,
                             nbl=6, epsilon=0.0, delta=0.0, theta=0.0)
        rec0, p0, _, _ = base.forward()
        aniso, tr = tti_setup(shape=(30, 30), tn=60.0, space_order=4,
                              nbl=6, epsilon=0.2, delta=0.1,
                              theta=np.pi / 6)
        rec1, p1, _, _ = aniso.forward()
        n0 = np.array(p0.data[0])
        n1 = np.array(p1.data[0])
        assert not np.allclose(n0, n1, atol=1e-6)

    def test_viscoelastic_runs_and_attenuates(self):
        solver, tr = viscoelastic_setup(shape=(30, 30), tn=150.0,
                                        space_order=4, nbl=8)
        rec, v, sig, _ = solver.forward()
        assert np.isfinite(np.array(v[0].data.with_halo)).all()
        assert _energy(sig[0, 0].data_local) > 0

    def test_viscoelastic_memory_variables_active(self):
        solver, tr = viscoelastic_setup(shape=(30, 30), tn=100.0,
                                        space_order=4, nbl=8)
        solver.forward()
        assert _energy(solver.r[0, 0].data_local) > 0

    def test_equation_counts(self):
        """3 + 6 + 6 = 15 stencil updates in 3D (paper Section IV-B4);
        2 + 3 + 3 = 8 in 2D."""
        solver, _ = viscoelastic_setup(shape=(16, 16), tn=20.0,
                                       space_order=2, nbl=4)
        assert len(solver._equations()) == 8
        solver3, _ = viscoelastic_setup(shape=(10, 10, 10),
                                        spacing=(10.,) * 3, tn=20.0,
                                        space_order=2, nbl=2)
        assert len(solver3._equations()) == 15

    def test_elastic_equation_counts(self):
        solver, _ = elastic_setup(shape=(16, 16), tn=20.0, space_order=2,
                                  nbl=4)
        assert len(solver._equations()) == 5  # 2 velocity + 3 stress (2D)

    def test_kernel_oi_ordering(self):
        """Expanded as written (``opt=False``), TTI has by far the
        highest operational intensity and the others are memory-bound
        (paper Fig. 6/7).  With its inner derivative computed once per
        point (``opt=True``) TTI stays the most intense kernel at a
        fifth of the flops."""
        ois, flops = {}, {}
        for opt in (False, True):
            for name, setup in [('acoustic', acoustic_setup),
                                ('elastic', elastic_setup),
                                ('tti', tti_setup),
                                ('visco', viscoelastic_setup)]:
                solver, _ = setup(shape=(16, 16), tn=20.0, space_order=8,
                                  nbl=4, opt=opt)
                ois[opt, name] = solver.op.oi
                flops[opt, name] = solver.op.flops_per_point
        assert ois[False, 'tti'] > 3 * ois[False, 'acoustic']
        assert ois[False, 'tti'] > 3 * ois[False, 'elastic']
        assert ois[False, 'tti'] > 3 * ois[False, 'visco']
        assert max(['acoustic', 'elastic', 'tti', 'visco'],
                   key=lambda k: ois[True, k]) == 'tti'
        assert 5 * flops[True, 'tti'] <= flops[False, 'tti']

    def test_flops_grow_with_space_order(self):
        f = {}
        for so in (4, 8):
            solver, _ = acoustic_setup(shape=(16, 16), tn=20.0,
                                       space_order=so, nbl=4)
            f[so] = solver.op.flops_per_point
        assert f[8] > f[4]


class Test3DStaggered:
    """3D runs of the staggered coupled systems (the paper's actual
    benchmark dimensionality)."""

    def test_elastic_3d(self):
        solver, tr = elastic_setup(shape=(14, 14, 14), spacing=(10.,) * 3,
                                   tn=30.0, space_order=4, nbl=4)
        rec, v, tau, _ = solver.forward()
        assert np.isfinite(np.array(v[0].data.with_halo)).all()
        assert _energy(v[0].data_local) > 0
        assert len(tau.functions) == 6

    def test_viscoelastic_3d(self):
        solver, tr = viscoelastic_setup(shape=(14, 14, 14),
                                        spacing=(10.,) * 3, tn=30.0,
                                        space_order=4, nbl=4)
        rec, v, sig, _ = solver.forward()
        assert np.isfinite(np.array(v[0].data.with_halo)).all()
        assert _energy(sig[0, 0].data_local) > 0

    def test_elastic_3d_dmp_equivalence(self):
        from repro.mpi import run_parallel

        def run(comm=None, mpi=None):
            solver, _ = elastic_setup(shape=(12, 12, 12),
                                      spacing=(10.,) * 3, tn=20.0,
                                      space_order=4, nbl=4, comm=comm,
                                      mpi=mpi)
            solver.forward()
            return solver.v[0].data.gather()

        serial = run()
        out = run_parallel(lambda c: run(c, 'diagonal'), 4)
        assert all(np.array_equal(o, serial) for o in out)
