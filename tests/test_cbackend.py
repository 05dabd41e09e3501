"""The compiled C execution backend: equivalence, fallback, caching.

The contract under test: ``backend='c'`` changes *how* compute steps
execute (cache-blocked C loop nests called through ctypes) and nothing
else — results are bitwise-identical to the NumPy backend in every
communication mode, every comm certificate reconciles the same, a host
without a toolchain degrades to NumPy with a visible warning, and a
cached compiled artifact whose shared object was deleted or tampered
with demotes to a cold rebuild instead of crashing or running stale
code.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import (Eq, Grid, Operator, TimeFunction, configuration,
                   solve)
from repro.buildcache import BuildCache, disk_objects
from repro.codegen import jit
from repro.codegen.cgen import generate_c_steps
from repro.ir.schedule import build_schedule, plan_blocking
from repro.mpi import run_parallel

MODES = ('basic', 'diagonal', 'full')
SRC = os.path.join(os.path.dirname(__file__), os.pardir, 'src')

needs_cc = pytest.mark.skipif(jit.find_compiler() is None,
                              reason='no C toolchain on this host')


@pytest.fixture(autouse=True)
def _no_cache():
    """Isolate from the ambient build cache; yields the ambient mode so
    the one test that *wants* it (the CI cold/warm .so round trip) can
    restore it."""
    saved = configuration['build_cache']
    configuration['build_cache'] = 'off'
    yield saved
    configuration['build_cache'] = saved


def _diffusion(shape=(28, 25), so=4, dtype=None):
    kwargs = {} if dtype is None else {'dtype': dtype}
    grid = Grid(shape=shape, extent=tuple(float(s - 1) for s in shape),
                **kwargs)
    u = TimeFunction(name='u', grid=grid, space_order=so)
    rng = np.random.default_rng(42)
    u.data[0] = rng.standard_normal(shape).astype(u.dtype)
    eq = Eq(u.dt, u.laplace)
    return [Eq(u.forward, solve(eq, u.forward))], u


# -- backend resolution and fallback ------------------------------------------


class TestResolution:

    def test_numpy_aliases(self):
        for req in (None, False, 'numpy', 'py'):
            assert jit.resolve_backend(req) == 'numpy'

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            jit.resolve_backend('fortran')

    def test_configuration_rejects_unknown(self):
        with pytest.raises(ValueError):
            configuration['backend'] = 'fortran'

    def test_configuration_py_alias(self):
        saved = configuration['backend']
        try:
            configuration['backend'] = 'py'
            assert configuration['backend'] == 'numpy'
        finally:
            configuration['backend'] = saved

    def test_masked_toolchain_falls_back_with_warning(self):
        env = {'CC': '/nonexistent/compiler'}
        assert jit.find_compiler(env=env) is None
        with pytest.warns(jit.ToolchainWarning, match='falling back'):
            assert jit.resolve_backend('c', env=env) == 'numpy'

    def test_operator_fallback_end_to_end(self, monkeypatch):
        """CC masked: Operator(backend='c') must warn, run on NumPy and
        still produce the reference bits."""
        exprs, u = _diffusion()
        ref_init = np.array(u.data[0])
        op = Operator(exprs)
        op.apply(time_M=5, dt=0.01)
        ref = u.data.gather()

        monkeypatch.setenv('CC', '/nonexistent/compiler')
        exprs2, u2 = _diffusion()
        assert np.array_equal(np.array(u2.data[0]), ref_init)
        with pytest.warns(jit.ToolchainWarning):
            op2 = Operator(exprs2, backend='c')
        assert op2.backend == 'numpy'
        assert op2.kernel.so_path is None
        op2.apply(time_M=5, dt=0.01)
        assert np.array_equal(u2.data.gather(), ref)

    @needs_cc
    def test_unsupported_dtype_degrades(self):
        """An int grid cannot go through the C printer: the build warns
        and lands on NumPy rather than failing."""
        grid = Grid(shape=(12, 12))
        u = TimeFunction(name='u', grid=grid, space_order=2,
                         dtype=np.int32)
        with pytest.warns(jit.ToolchainWarning, match='unavailable'):
            op = Operator([Eq(u.forward, u + 1)], backend='c')
        assert op.backend == 'numpy'


# -- serial equivalence -------------------------------------------------------


@needs_cc
class TestSerialEquivalence:

    def test_bitwise_vs_numpy(self):
        exprs, u = _diffusion()
        op = Operator(exprs)
        op.apply(time_M=9, dt=0.01)
        ref = u.data.gather()

        exprs2, u2 = _diffusion()
        op2 = Operator(exprs2, backend='c')
        assert op2.backend == 'c'
        assert op2.kernel.so_path is not None
        assert os.path.isfile(op2.kernel.so_path)
        op2.apply(time_M=9, dt=0.01)
        assert np.array_equal(u2.data.gather(), ref)

    def test_bitwise_float64(self):
        exprs, u = _diffusion(dtype=np.float64)
        op = Operator(exprs)
        op.apply(time_M=9, dt=0.01)
        ref = u.data.gather()

        exprs2, u2 = _diffusion(dtype=np.float64)
        op2 = Operator(exprs2, backend='c')
        assert op2.backend == 'c'
        op2.apply(time_M=9, dt=0.01)
        assert np.array_equal(u2.data.gather(), ref)

    def test_field_names_cannot_shadow_kernel_locals(self):
        """Whatever a kernel declares about geometry lives in the
        reserved ``__`` namespace: fields may be called ``b`` (the
        viscoelastic buoyancy), ``g`` or ``n``."""
        from repro import Function

        def run(backend):
            grid = Grid(shape=(20, 18))
            u = TimeFunction(name='u', grid=grid, space_order=2)
            u.data[0] = np.random.default_rng(3).standard_normal(
                grid.shape).astype(u.dtype)
            coeffs = []
            for i, name in enumerate('bgn'):
                f = Function(name=name, grid=grid, space_order=2 * i)
                f.data[:] = 1.0 + 0.1 * (i + 1)
                coeffs.append(f)
            b, g, n = coeffs
            op = Operator([Eq(u.forward, b * u + 0.1 * g * u.laplace - n)],
                          backend=backend)
            op.apply(time_M=4)
            return u.data.gather(), op

        ref, _ = run('numpy')
        out, op = run('c')
        assert op.backend == 'c'
        assert '__c2_o' in op.kernel.c_source  # three halos, three classes
        assert np.array_equal(out, ref)

    def test_env_var_selects_backend(self, monkeypatch):
        from repro.parameters import Configuration
        cfg = Configuration(environ={'REPRO_BACKEND': 'c'})
        assert cfg['backend'] == 'c'

    def test_acoustic_model_bitwise(self):
        """The full acoustic propagator (sparse source injection,
        receivers, damping) matches bitwise across backends."""
        from repro.models import acoustic_setup

        def run(backend):
            saved = configuration['backend']
            configuration['backend'] = backend
            try:
                solver, _ = acoustic_setup(shape=(36, 36), tn=80.0,
                                           space_order=4, nbl=6, nrec=4)
                rec, wf, _ = solver.forward()
                field = wf.data.gather() if hasattr(wf, 'data') \
                    else wf[0].data.gather()
                return field, np.array(rec.data), solver.op.backend
            finally:
                configuration['backend'] = saved

        field_np, rec_np, bk_np = run('numpy')
        field_c, rec_c, bk_c = run('c')
        assert (bk_np, bk_c) == ('numpy', 'c')
        assert np.array_equal(field_np, field_c)
        assert np.array_equal(rec_np, rec_c)

    def test_viscoelastic_model_bitwise(self):
        """Two clusters, eleven staggered fields (a buoyancy ``b``
        among them), parameters and wavefields in one layout class."""
        from repro.models import viscoelastic_setup

        def run(backend):
            saved = configuration['backend']
            configuration['backend'] = backend
            try:
                solver, _ = viscoelastic_setup(shape=(30, 28), tn=40.0,
                                               nbl=4, space_order=4, nrec=4)
                rec = solver.forward()[0]
                fields = sorted((f for f in solver.op.functions
                                 if f.is_TimeFunction), key=lambda f: f.name)
                return ([f.data.gather() for f in fields] + [np.array(rec)],
                        solver.op.backend)
            finally:
                configuration['backend'] = saved

        ref, bk_np = run('numpy')
        out, bk_c = run('c')
        assert (bk_np, bk_c) == ('numpy', 'c')
        assert all(np.array_equal(a, b) for a, b in zip(ref, out))


# -- distributed equivalence: every comm mode, certificates reconcile ---------


@needs_cc
class TestDistributedEquivalence:

    shape = (22, 19)

    def _job(self, comm, mode, backend, sanitizer=None):
        grid = Grid(shape=self.shape,
                    extent=tuple(float(s - 1) for s in self.shape),
                    comm=comm)
        u = TimeFunction(name='u', grid=grid, space_order=2)
        rng = np.random.default_rng(11)
        u.data[0] = rng.standard_normal(self.shape).astype(np.float32)
        eq = Eq(u.dt, u.laplace)
        op = Operator([Eq(u.forward, solve(eq, u.forward))],
                      mpi=mode if comm is not None else None,
                      backend=backend, sanitizer=sanitizer)
        op.apply(time_M=6, dt=0.01)
        return u.data.gather(), op.backend

    @pytest.mark.parametrize('mode', MODES)
    def test_mode_matches_serial_numpy(self, mode):
        ref, _ = self._job(None, 'basic', 'numpy')
        out = run_parallel(lambda c: self._job(c, mode, 'c'), 4)
        for field, backend in out:
            assert backend == 'c'
            assert np.array_equal(field, ref), mode

    @pytest.mark.parametrize('mode', MODES)
    def test_certificates_reconcile(self, mode):
        """The reconcile sanitizer (static certificate vs runtime send
        ledger) passes identically under the compiled backend: the C
        steps change compute, never communication."""
        out = run_parallel(
            lambda c: self._job(c, mode, 'c', sanitizer='reconcile'), 2)
        assert all(backend == 'c' for _, backend in out)


# -- artifact caching: .so lifecycle ------------------------------------------


@needs_cc
class TestCompiledArtifacts:

    def _run(self, cache):
        exprs, u = _diffusion(shape=(20, 20), so=2)
        op = Operator(exprs, backend='c', cache=cache)
        op.apply(time_M=4, dt=0.01)
        return u.data.gather(), op

    def test_disk_roundtrip_serves_compiled_hit(self, tmp_path):
        cache = BuildCache('disk', str(tmp_path))
        ref, cold = self._run(cache)
        assert cold.cache_info()['status'] == 'miss'
        # the .so was copied out of the scratch dir, beside the entry
        so_dir = os.path.join(str(tmp_path), 'so')
        assert os.path.isdir(so_dir) and os.listdir(so_dir)

        warm_field, warm = self._run(cache)
        assert warm.cache_info()['status'] == 'hit'
        assert warm.backend == 'c'
        assert warm.kernel.so_path.startswith(so_dir)
        assert np.array_equal(warm_field, ref)

    def test_deleted_so_demotes_to_cold_rebuild(self, tmp_path):
        cache = BuildCache('disk', str(tmp_path))
        ref, _ = self._run(cache)
        so_dir = os.path.join(str(tmp_path), 'so')
        for name in os.listdir(so_dir):
            os.unlink(os.path.join(so_dir, name))

        field, op = self._run(cache)
        # never a crash, never stale code: cold rebuild, right answer
        assert op.cache_info()['status'] == 'miss'
        assert op.backend == 'c'
        assert np.array_equal(field, ref)

    def test_tampered_so_demotes_to_cold_rebuild(self, tmp_path):
        cache = BuildCache('disk', str(tmp_path))
        ref, _ = self._run(cache)
        so_dir = os.path.join(str(tmp_path), 'so')
        for name in os.listdir(so_dir):
            with open(os.path.join(so_dir, name), 'ab') as f:
                f.write(b'\0corrupted')

        field, op = self._run(cache)
        assert op.cache_info()['status'] == 'miss'
        assert op.backend == 'c'
        assert np.array_equal(field, ref)

        # the rebuild replaced the bad object (it used to keep whatever
        # file was there, so every later start missed too)
        field, op = self._run(cache)
        assert op.cache_info()['status'] == 'hit'
        assert np.array_equal(field, ref)

    def test_other_toolchains_object_is_not_served(self, tmp_path,
                                                   monkeypatch):
        """An object's name folds in who built it; an entry whose
        object this host would not have produced rebuilds cold, into a
        second object beside the first."""
        cache = BuildCache('disk', str(tmp_path))
        ref, _ = self._run(cache)
        assert disk_objects(str(tmp_path)) == 1
        monkeypatch.setattr(jit, 'compiler_version',
                            lambda cc: 'cc (another) 99.0')
        field, op = self._run(cache)
        assert op.cache_info()['status'] == 'miss'
        assert np.array_equal(field, ref)
        assert disk_objects(str(tmp_path)) == 2

    def test_key_material(self):
        cc = jit.find_compiler()
        native = jit.key_material(cc, jit.CFLAGS + ('-march=native',))
        portable = jit.key_material(cc, jit.CFLAGS)
        assert native['compiler'] == cc and native['compiler_version']
        assert native['cpu'] == jit.cpu_signature() != portable['cpu']
        assert '-march=native' not in portable['flags']

    def test_native_fallback_is_part_of_the_key(self, tmp_path,
                                                monkeypatch):
        """A compiler that rejects -march=native is asked once; its
        portable objects are named apart from native ones."""
        real = jit.find_compiler()
        picky = tmp_path / 'picky-cc'
        picky.write_text('#!/bin/sh\n'
                         'for a in "$@"; do [ "$a" = -march=native ] '
                         '&& exit 1; done\nexec %s "$@"\n' % real)
        picky.chmod(0o755)
        monkeypatch.setattr(jit, '_store', jit._ObjectStore())
        source = 'void repro_test_picky(double *x) { x[0] *= 3.0; }\n'
        native, portable = jit.object_names(source, cc=str(picky))
        path = jit.compile_shared(source, cc=str(picky))
        assert os.path.basename(path) == portable != native
        assert jit.object_names(source, cc=str(picky)) == [portable]
        assert '-march=native' not in jit.key_material(
            str(picky), jit._flag_sets(str(picky))[0])['flags']

    def test_equal_keys_give_equal_bytes(self, monkeypatch):
        """Nothing of the scratch path or the run reaches the object."""
        source = 'void repro_test_twice(double *x) { x[0] += 1.0; }\n'
        first = jit.compile_shared(source)
        monkeypatch.setattr(jit, '_store', jit._ObjectStore())
        second = jit.compile_shared(source)
        assert os.path.dirname(first) != os.path.dirname(second)
        assert os.path.basename(first) == os.path.basename(second)
        with open(first, 'rb') as a, open(second, 'rb') as b:
            assert a.read() == b.read()

    def test_even_split_cold_then_warm_launch(self, tmp_path):
        """Two fresh processes, two ranks compiling the same source at
        once: the warm launch hits on *both* ranks (the ranks used to
        race on one path and the loser's seal failed), the cache holds
        one object, and no scratch directory outlives its process."""
        script = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro import Eq, Grid, Operator, TimeFunction, solve\n"
            "from repro.mpi import run_parallel\n"
            "def job(comm):\n"
            "    u = TimeFunction(name='u', space_order=2,\n"
            "                     grid=Grid(shape=(24, 20), comm=comm))\n"
            "    eq = Eq(u.forward, solve(Eq(u.dt, u.laplace), u.forward))\n"
            "    op = Operator([eq], mpi='diagonal', backend='c')\n"
            "    return op.cache_info()['status']\n"
            "print(run_parallel(job, 2))\n" % (os.path.abspath(SRC),))
        scratch = tmp_path / 'tmp'
        scratch.mkdir()
        env = dict(os.environ, REPRO_CACHE='disk', TMPDIR=str(scratch),
                   REPRO_CACHE_DIR=str(tmp_path / 'cache'))
        out = [subprocess.run([sys.executable, '-c', script], env=env,
                              capture_output=True, text=True, check=True)
               .stdout.strip() for _ in range(2)]
        assert out == ["['miss', 'miss']", "['hit', 'hit']"]
        assert len(os.listdir(str(tmp_path / 'cache' / 'so'))) == 1
        assert os.listdir(str(scratch)) == []

    @needs_cc
    def test_ambient_cache_roundtrip(self, _no_cache):
        """Build a compiled operator under the *ambient* cache config
        (cache=None).  Locally that is the memory tier; in the CI
        ``test`` job (REPRO_CACHE=on) it parks the .so under
        ``$REPRO_CACHE_DIR/so`` during the cold tier-1 pass and
        rehydrates it in the warm pass — the cross-process .so cache
        proof."""
        configuration['build_cache'] = _no_cache
        exprs, u = _diffusion(shape=(26, 23), so=2)
        op = Operator(exprs, backend='c')
        assert op.backend == 'c'
        op.apply(time_M=4, dt=0.01)
        ref = u.data.gather()

        exprs2, u2 = _diffusion(shape=(26, 23), so=2)
        op2 = Operator(exprs2, backend='c')
        assert op2.cache_info()['status'] in ('hit', 'off')
        op2.apply(time_M=4, dt=0.01)
        assert np.array_equal(u2.data.gather(), ref)

    def test_memory_tier_reuses_dlopen_handle(self):
        cache = BuildCache('memory')
        ref, cold = self._run(cache)
        warm_field, warm = self._run(cache)
        assert warm.cache_info()['status'] == 'hit'
        assert warm.backend == 'c'
        assert np.array_equal(warm_field, ref)


# -- the cache-blocking plan --------------------------------------------------


class TestBlockingPlan:

    def test_innermost_never_tiled(self):
        assert plan_blocking(2) == [32, None]
        assert plan_blocking(3) == [32, 32, None]
        assert plan_blocking(2, block=16) == [16, None]

    def test_short_extents_left_whole(self):
        """The plan is shape-blind — one object serves every extent —
        so a loop shorter than a block is left whole at run time: one
        trip of its tile loop, clipped by a ``min`` against the bound."""
        exprs, _ = _diffusion(shape=(20, 20), so=2)
        source, _ = generate_c_steps(build_schedule(exprs))
        assert 'xb, xb + 32 < __b[1] ? xb + 32 : __b[1], ' in source

    def test_emitted_source_is_blocked(self):
        exprs, _ = _diffusion(shape=(128, 128), so=2)
        schedule = build_schedule(exprs)
        source, steps = generate_c_steps(schedule)
        assert steps, 'no compute steps emitted'
        assert 'xb' in source and '+= 32' in source  # outer dim tiled
        assert 'yb' not in source                    # innermost streams
        # the no-dependence pragma sits on the innermost loop only
        lines = source.splitlines()
        at = [i for i, ln in enumerate(lines) if '#pragma GCC ivdep' in ln]
        assert len(at) == 1 and 'for (long y =' in lines[at[0] + 1]


# -- shape-generic source: one object per set of equations --------------------


def _model_source(kernel, so, shape, comm=None, **kwargs):
    from repro import models
    ret = getattr(models, kernel + '_setup')(
        shape=shape, nbl=4, tn=10.0, space_order=so, comm=comm, **kwargs)
    solver = ret[0] if isinstance(ret, tuple) else ret
    return generate_c_steps(solver.op.schedule)[0]


#: one distributed variant per propagator x SDO; together they cover
#: rank counts 2-4, every comm mode, a second grid shape and weighted
#: decompositions (the serial reference is rank count 1)
_VARIANTS = {
    ('acoustic', 4): dict(ranks=2, mpi='basic', shape=(24, 20)),
    ('acoustic', 8): dict(ranks=4, mpi='full', shape=(31, 26),
                          topology=(2, 2), weights=((3, 1), (1, 2))),
    ('elastic', 4): dict(ranks=3, mpi='diagonal', shape=(31, 26)),
    ('elastic', 8): dict(ranks=2, mpi='full', shape=(24, 20),
                         weights=((3, 1), None)),
    ('tti', 4): dict(ranks=4, mpi='diagonal', shape=(24, 20)),
    ('tti', 8): dict(ranks=2, mpi='full', shape=(31, 26)),
    ('viscoelastic', 4): dict(ranks=3, mpi='full', shape=(31, 26)),
    ('viscoelastic', 8): dict(ranks=4, mpi='basic', shape=(31, 26),
                              topology=(2, 2), weights=((1, 2), (2, 1))),
}


class TestShapeGeneric:

    @pytest.mark.parametrize('kernel,so', sorted(_VARIANTS))
    def test_source_independent_of_geometry(self, kernel, so):
        """Byte-identical C whatever the rank, rank count, comm mode,
        grid shape or decomposition weights."""
        variant = dict(_VARIANTS[kernel, so])
        ranks = variant.pop('ranks')
        ref = _model_source(kernel, so, (24, 20))
        assert 'const long *restrict __g' in ref
        out = run_parallel(
            lambda c: _model_source(kernel, so, comm=c, **variant), ranks)
        assert all(source == ref for source in out)

    def test_core_and_remainder_share_one_function(self):
        def job(comm):
            grid = Grid(shape=(24, 20), comm=comm)
            u = TimeFunction(name='u', grid=grid, space_order=2)
            eq = Eq(u.forward, solve(Eq(u.dt, u.laplace), u.forward))
            return generate_c_steps(build_schedule([eq], mpi_mode='full'))
        for source, steps in run_parallel(job, 2):
            assert source.count('\nvoid k') == 1
            assert len(steps) == 2  # CORE + REMAINDER, own geometry rows
            assert {m['name'] for m in steps.values()} == {'k0'}
            core, rem = (m['geom'] for _, m in sorted(steps.items()))
            assert core[0] == 1 and rem[0] >= 1  # box counts
            assert core[1:4] == rem[1:4]         # same strides + offset
            assert core[4:] != rem[4:]           # different boxes

    @needs_cc
    def test_even_split_compiles_once(self):
        """Both ranks ask for the same object at the same time: exactly
        one compiles, the other waits for it and loads."""
        def job(comm):
            grid = Grid(shape=(24, 20), comm=comm)
            u = TimeFunction(name='u', grid=grid, space_order=2)
            # a coefficient no other test uses: new to this process
            eq = Eq(u.dt, 0.731 * u.laplace)
            op = Operator([Eq(u.forward, solve(eq, u.forward))],
                          mpi='diagonal', backend='c')
            return op.kernel.so_path
        before = jit.compile_count()
        paths = run_parallel(job, 2)
        assert jit.compile_count() - before == 1
        assert paths[0] == paths[1] and os.path.isfile(paths[0])

    @needs_cc
    def test_concurrent_requests_compile_once(self):
        """More threads than cores, switching as often as possible."""
        import threading
        source = 'void repro_test_stress(double *x) { x[0] -= 1.0; }\n'
        paths = []
        before = jit.compile_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=lambda: paths.append(jit.compile_shared(source)))
                for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(paths) == 8 and len(set(paths)) == 1
        assert jit.compile_count() - before == 1

    @needs_cc
    def test_elastic_transitions_compile_nothing(self, tmp_path):
        """2 -> 4 (reserve grow) -> 3 (kill + shrink) under backend=c:
        every rebuilt kernel finds its object by content."""
        from repro.mpi.faults import RankKilledError
        from repro.mpi.sim import SimComm, SimWorld
        from repro.resilience import run_elastic
        shape, steps, dt = (16, 12), 12, 0.02

        def build(comm, backend='c'):
            grid = Grid(shape=shape, comm=comm,
                        extent=tuple(float(s - 1) for s in shape))
            u = TimeFunction(name='u', grid=grid, space_order=2)
            u.data[0] = np.add.outer(np.arange(shape[0]) * 0.01,
                                     np.arange(shape[1]) * 0.001)
            eq = Eq(u.dt, u.laplace)
            return Operator([Eq(u.forward, solve(eq, u.forward))],
                            mpi='diagonal' if comm is not None else None,
                            backend=backend), u

        def run(op, u, **kwargs):
            try:
                op.apply(time_M=steps, dt=dt, recovery='shrink',
                         checkpoint_every=2, checkpoint_dir=str(tmp_path),
                         **kwargs)
            except RankKilledError:
                return None  # the victim left the job
            return (u.data.gather(), op.backend,
                    op.grid.distributor.comm.world.size)

        oracle = run(*build(None, backend='numpy'))[0]
        build(None)  # the one compile, if no earlier test paid for it
        before = jit.compile_count()
        configuration['faults'] = 'seed=5,kill=1@8'
        try:
            active, reserve = run_elastic(
                lambda comm: run(*build(comm), repartition='grow',
                                 min_steps_between_repartitions=3),
                2, nreserve=2,
                reserve_fn=lambda lineage, orig: run(
                    *build(SimComm(SimWorld(4, faults=False), 0)),
                    _elastic_join={'lineage': lineage, 'orig': orig}))
        finally:
            del configuration['faults']
        finished = [r for r in active + reserve if r is not None]
        assert len(finished) == 3
        for field, backend, size in finished:
            assert (backend, size) == ('c', 3)
            assert np.array_equal(field, oracle)
        assert jit.compile_count() == before


# -- CLI surface --------------------------------------------------------------


class TestCLI:

    def test_doctor_reports_toolchain(self, capsys):
        from repro.cli import run_doctor
        status = run_doctor()
        text = capsys.readouterr().out
        assert 'compiler' in text
        assert 'backend' in text
        if jit.find_compiler() is None:
            assert status == 0  # informational without --require-c

    def test_doctor_require_c_gates(self, capsys, monkeypatch):
        from repro.cli import run_doctor
        monkeypatch.setenv('CC', '/nonexistent/compiler')
        assert run_doctor(require_c=True) == 1
        assert 'FAIL' in capsys.readouterr().out

    def test_doctor_json(self, capsys):
        import json
        from repro.cli import run_doctor
        run_doctor(as_json=True)
        report = json.loads(capsys.readouterr().out)
        for key in ('compiler', 'cffi', 'backend_effective', 'cache',
                    'backend_c_usable', 'object_key'):
            assert key in report

    @needs_cc
    def test_benchmark_backend_flag(self, capsys):
        from repro.cli import run_benchmark
        run_benchmark('acoustic', [32, 32], 40.0, 4, nbl=4,
                      backend='c', cache='off')
        text = capsys.readouterr().out
        assert 'compiled C' in text

    def test_sanitize_help_names_modes(self):
        """The --sanitize surface must present the mode choices, not a
        boolean flag."""
        from repro.cli import _parser
        helptext = _parser().format_help()
        assert 'poison' in helptext and 'reconcile' in helptext

    def test_sanitizer_error_names_modes(self):
        with pytest.raises(ValueError, match="poison.*reconcile"):
            configuration['sanitizer'] = 'bogus'
        with pytest.raises(ValueError, match="poison.*reconcile"):
            Operator._sanitize_mode('bogus')
