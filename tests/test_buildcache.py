"""The content-addressed operator build cache (ISSUE 5 tentpole).

Covers the fingerprint (stability, and sensitivity to every build-
relevant input), both cache tiers (in-process memo, on-disk store),
cross-process disk reuse, the stale-entry fallback (a bad entry must
demote to a cold build, never to wrong results; every seal-level
defect is fuzzed in ``test_sealed.py``),
warm/cold bit-identity — including sparse operators, constants resolved
by name, the verify gate and the halo sanitizer — plus the stats
surface (``cache_info``, ``stats.json``, the ``repro cache`` CLI).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import (Constant, Eq, Grid, Operator, SparseTimeFunction,
                   TimeFunction, configuration, solve)
from repro.buildcache import (BuildCache, disk_usage, fingerprint_build,
                              get_cache, read_disk_stats)
from repro.codegen.artifact import ARTIFACT_VERSION, KernelArtifact
from repro.ioutil import read_sealed_json, write_sealed_json
from repro.mpi import run_parallel

SRC = os.path.join(os.path.dirname(__file__), '..', 'src')


def _exprs(shape=(12, 12), so=4, mpi=None, comm=None, with_constant=None):
    grid = Grid(shape=shape, comm=comm)
    u = TimeFunction(name='u', grid=grid, space_order=so)
    u.data[0, 3:7, 3:7] = 1.0
    eq = Eq(u.dt, (with_constant if with_constant is not None else 0.5)
            * u.laplace)
    return [Eq(u.forward, solve(eq, u.forward))], u


def _fp(exprs, **over):
    kwargs = dict(mpi_mode=None, opt=True, verify=False, sanitizer=False,
                  instrument=True, progress=False)
    kwargs.update(over)
    key, _ = fingerprint_build(exprs, **kwargs)
    return key


# -- fingerprint ----------------------------------------------------------------


class TestFingerprint:
    def test_stable_across_reconstruction(self):
        """Fresh symbolic objects with the same structure fingerprint
        identically — the property content-addressing rests on."""
        assert _fp(_exprs()[0]) == _fp(_exprs()[0])

    def test_constant_value_excluded(self):
        """Constants bind by *name* at apply-time; their current value
        must not invalidate the cache."""
        a = _exprs(with_constant=Constant('c0', value=0.5))[0]
        b = _exprs(with_constant=Constant('c0', value=0.25))[0]
        assert _fp(a) == _fp(b)

    @pytest.mark.parametrize('change', [
        dict(mpi_mode='basic'), dict(opt=False), dict(verify=True),
        dict(sanitizer=True), dict(instrument=False),
        dict(progress=True), dict(backend='c'),
    ])
    def test_config_sensitivity(self, change):
        exprs = _exprs()[0]
        assert _fp(exprs, **change) != _fp(exprs)

    @pytest.mark.parametrize('variant', [
        dict(shape=(13, 12)), dict(so=8),
        dict(with_constant=Constant('c1', value=0.5)),
    ])
    def test_structural_sensitivity(self, variant):
        assert _fp(_exprs(**variant)[0]) != _fp(_exprs()[0])

    def test_expression_sensitivity(self):
        grid = Grid(shape=(12, 12))
        u = TimeFunction(name='u', grid=grid, space_order=4)
        a = [Eq(u.forward, solve(Eq(u.dt, 0.5 * u.laplace), u.forward))]
        b = [Eq(u.forward, solve(Eq(u.dt, 0.25 * u.laplace), u.forward))]
        assert _fp(a) != _fp(b)

    def test_structure_key_is_rank_agnostic(self):
        """Only *which* dimensions are split enters the key: every rank,
        rank count and weighting that splits x alone shares one key (each
        rank binds its own geometry), splitting y too is another
        structure, and so is the undecomposed grid."""
        def job(comm, topology=None, weights=None):
            grid = Grid(shape=(12, 12), comm=comm, topology=topology,
                        weights=weights)
            u = TimeFunction(name='u', grid=grid, space_order=4)
            eq = Eq(u.dt, 0.5 * u.laplace)
            return _fp([Eq(u.forward, solve(eq, u.forward))],
                       mpi_mode='basic')
        x_split = run_parallel(job, 2) + run_parallel(job, 3) + \
            run_parallel(job, 2, weights=((3.0, 1.0), None))
        assert len(set(x_split)) == 1
        both = run_parallel(job, 4, topology=(2, 2))
        assert len(set(both)) == 1 and both[0] != x_split[0]
        assert x_split[0] != _fp(_exprs()[0], mpi_mode='basic')


# -- tiers ----------------------------------------------------------------------


class TestTiers:
    def test_memory_hit_bitwise_source(self):
        cache = BuildCache('memory')
        cold = Operator(_exprs()[0], cache=cache)
        warm = Operator(_exprs()[0], cache=cache)
        assert cold.cache_info()['status'] == 'miss'
        assert warm.cache_info()['status'] == 'hit'
        assert warm.cache_info()['tier'] == 'memory'
        assert warm.pycode == cold.pycode
        assert cache.stats['hits'] == 1
        assert cache.stats['misses'] == 1
        assert cache.stats['stores'] == 1

    def test_disk_survives_fresh_memo(self, tmp_path):
        """A second cache instance (fresh memo, same directory) serves
        from disk — the single-process stand-in for a new process."""
        Operator(_exprs()[0], cache=BuildCache('disk', str(tmp_path)))
        fresh = BuildCache('disk', str(tmp_path))
        warm = Operator(_exprs()[0], cache=fresh)
        assert warm.cache_info()['status'] == 'hit'
        assert warm.cache_info()['tier'] == 'disk'
        assert fresh.stats['disk_hits'] == 1

    def test_disk_hit_promoted_to_memory(self, tmp_path):
        Operator(_exprs()[0], cache=BuildCache('on', str(tmp_path)))
        cache = BuildCache('on', str(tmp_path))
        first = Operator(_exprs()[0], cache=cache)
        second = Operator(_exprs()[0], cache=cache)
        assert first.cache_info()['tier'] == 'disk'
        assert second.cache_info()['tier'] == 'memory'

    def test_off_means_off(self):
        op = Operator(_exprs()[0], cache=False)
        assert op.cache_info() == {'status': 'off', 'key': None,
                                   'tier': None, 'saved_seconds': 0.0,
                                   'nbytes': 0}

    def test_distinct_builds_distinct_entries(self, tmp_path):
        cache = BuildCache('disk', str(tmp_path))
        Operator(_exprs()[0], cache=cache)
        Operator(_exprs(so=8)[0], cache=cache)
        nentries, nbytes = disk_usage(str(tmp_path))
        assert nentries == 2 and nbytes > 0

    def test_cross_process_disk_reuse(self, tmp_path):
        """The real thing: two interpreters sharing one directory."""
        script = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro import Eq, Grid, Operator, TimeFunction, solve\n"
            "from repro.buildcache import BuildCache\n"
            "g = Grid(shape=(12, 12))\n"
            "u = TimeFunction(name='u', grid=g, space_order=4)\n"
            "eq = Eq(u.dt, 0.5 * u.laplace)\n"
            "op = Operator([Eq(u.forward, solve(eq, u.forward))],\n"
            "              cache=BuildCache('disk', %r))\n"
            "print(op.cache_info()['status'])\n"
            % (os.path.abspath(SRC), str(tmp_path)))
        out = [subprocess.run([sys.executable, '-c', script],
                              capture_output=True, text=True, check=True)
               .stdout.strip() for _ in range(2)]
        assert out == ['miss', 'hit']


# -- corruption and fallback -----------------------------------------------------


class TestFallback:
    def test_version_mismatch(self, tmp_path):
        """An intact entry of another artifact version costs a cold
        build (one error), never correctness."""
        Operator(_exprs()[0], cache=BuildCache('disk', str(tmp_path)))
        [shard] = [d for d in os.listdir(tmp_path) if len(d) == 2]
        [name] = os.listdir(tmp_path / shard)
        path, key = str(tmp_path / shard / name), name[:-len('.json')]
        payload = read_sealed_json(path, key)
        payload['version'] = ARTIFACT_VERSION + 1
        write_sealed_json(path, key, payload)

        cache = BuildCache('disk', str(tmp_path))
        op = Operator(_exprs()[0], cache=cache)
        assert op.cache_info()['status'] == 'miss'
        assert cache.stats['errors'] == 1
        assert op.pycode == Operator(_exprs()[0], cache=False).pycode


# -- warm/cold equivalence -------------------------------------------------------


class TestWarmEquivalence:
    def _run(self, cache, steps=8, **exprs_kwargs):
        exprs, u = _exprs(**exprs_kwargs)
        op = Operator(exprs, cache=cache)
        op.apply(time_M=steps, dt=0.01)
        return np.array(u.data.gather()), op.cache_info()['status']

    def test_bit_identity_dense(self, tmp_path):
        cache = BuildCache('disk', str(tmp_path))
        cold, _ = self._run(False)
        miss, s1 = self._run(cache)
        warm, s2 = self._run(BuildCache('disk', str(tmp_path)))
        assert (s1, s2) == ('miss', 'hit')
        assert np.array_equal(cold, miss)
        assert np.array_equal(cold, warm)

    def test_constant_rebinds_live_value(self):
        """A warm kernel picks up the *current* value of a same-named
        Constant — by-name rebinding, not by-value freezing."""
        cache = BuildCache('memory')

        def run(value, use_cache):
            exprs, u = _exprs(
                with_constant=Constant('c0', value=value))
            op = Operator(exprs, cache=cache if use_cache else False)
            op.apply(time_M=4, dt=0.01)
            return np.array(u.data.gather()), op.cache_info()['status']

        _, s0 = run(0.5, True)
        ref, _ = run(0.25, False)          # cold reference at 0.25
        warm, s1 = run(0.25, True)         # warm hit, live c0=0.25
        assert (s0, s1) == ('miss', 'hit')
        assert np.array_equal(warm, ref)

    def test_sparse_inject_interpolate(self):
        cache = BuildCache('memory')

        def run(use_cache):
            grid = Grid(shape=(12, 12), extent=(11.0, 11.0))
            u = TimeFunction(name='u', grid=grid, space_order=2)
            src = SparseTimeFunction(
                'src', grid, npoint=1, nt=6,
                coordinates=np.array([[5.5, 5.5]]))
            src.data[:] = 1.0
            rec = SparseTimeFunction(
                'rec', grid, npoint=2, nt=6,
                coordinates=np.array([[3.0, 3.0], [7.25, 7.25]]))
            eq = Eq(u.dt, 0.25 * u.laplace)
            op = Operator([Eq(u.forward, solve(eq, u.forward)),
                           src.inject(field=u.forward, expr=src),
                           rec.interpolate(expr=u)],
                          cache=cache if use_cache else False)
            op.apply(time_M=4, dt=0.01)
            return (np.array(u.data.gather()), np.array(rec.data),
                    op.cache_info()['status'])

        u_cold, rec_cold, _ = run(False)
        _, _, s0 = run(True)
        u_warm, rec_warm, s1 = run(True)
        assert (s0, s1) == ('miss', 'hit')
        assert np.array_equal(u_cold, u_warm)
        assert np.array_equal(rec_cold, rec_warm)

    @pytest.mark.parametrize('mode', ['basic', 'diagonal', 'full'])
    def test_distributed_warm_matches_serial(self, mode, tmp_path):
        """Each communication pattern caches under its own key, and a
        warm distributed run (sanitizer on) gathers bit-identically to
        the serial reference."""
        serial, _ = self._run(False)
        cache = BuildCache('disk', str(tmp_path))

        def job(comm):
            exprs, u = _exprs(comm=comm)
            op = Operator(exprs, mpi=mode, sanitizer=True, cache=cache)
            op.apply(time_M=8, dt=0.01)
            return np.array(u.data.gather()), op.cache_info()['status']

        first = run_parallel(job, 2)
        second = run_parallel(job, 2)
        assert [s for _, s in first] == ['miss', 'miss']
        assert [s for _, s in second] == ['hit', 'hit']
        for field, _ in first + second:
            assert np.array_equal(field, serial)

    def test_verify_gate_cached(self):
        cache = BuildCache('memory')
        cold = Operator(_exprs()[0], opt='verify', cache=cache)
        warm = Operator(_exprs()[0], opt='verify', cache=cache)
        assert warm.cache_info()['status'] == 'hit'
        assert cold.analysis is not None and warm.analysis is not None
        assert bool(warm.analysis) == bool(cold.analysis)
        assert 'analysis' in warm.profiler.build_times
        # verify on/off are distinct keys (a gated build can never be
        # served an unverified artifact, or vice versa — note a plain
        # Operator under the global REPRO_OPT=verify gate is *also*
        # gated, and correctly shares the verified key)
        assert _fp(_exprs()[0], verify=True) != \
            _fp(_exprs()[0], verify=False)


# -- surface: cache_info, summary, stats, CLI ------------------------------------


class TestSurface:
    def test_cache_info_shape(self):
        cache = BuildCache('memory')
        Operator(_exprs()[0], cache=cache)
        info = Operator(_exprs()[0], cache=cache).cache_info()
        assert info['status'] == 'hit'
        assert isinstance(info['key'], str) and len(info['key']) == 32
        assert info['tier'] == 'memory'
        assert info['nbytes'] > 0
        assert info['saved_seconds'] >= 0.0

    def test_summary_reports_build(self):
        cache = BuildCache('memory')
        exprs, u = _exprs()
        s_miss = Operator(exprs, cache=cache).apply(time_M=2, dt=0.01)
        s_hit = Operator(exprs, cache=cache).apply(time_M=2, dt=0.01)
        assert s_miss.build['status'] == 'miss'
        assert s_hit.build['status'] == 'hit'
        assert s_hit.build['tier'] == 'memory'
        assert 'build' in s_hit.build['times']
        assert s_hit.to_dict()['build']['status'] == 'hit'
        assert 'build=hit' in repr(s_hit)

    def test_stats_json_roundtrip(self, tmp_path):
        cache = BuildCache('disk', str(tmp_path))
        Operator(_exprs()[0], cache=cache)
        Operator(_exprs()[0], cache=BuildCache('disk', str(tmp_path)))
        for c in (cache,):
            c.flush_stats()
        # second instance flushed its own hit
        stats = read_disk_stats(str(tmp_path))
        assert stats['stores'] >= 0  # file may lag the other instance
        cache2 = BuildCache('disk', str(tmp_path))
        Operator(_exprs()[0], cache=cache2)
        cache2.flush_stats()
        stats = read_disk_stats(str(tmp_path))
        assert stats['hits'] >= 1

    def test_clear(self, tmp_path):
        cache = BuildCache('on', str(tmp_path))
        Operator(_exprs()[0], cache=cache)
        assert disk_usage(str(tmp_path))[0] == 1
        cache.clear()
        assert disk_usage(str(tmp_path))[0] == 0
        assert Operator(_exprs()[0],
                        cache=cache).cache_info()['status'] == 'miss'

    def test_cli_stats_and_clear(self, tmp_path):
        from repro.cli import run_cache
        Operator(_exprs()[0],
                 cache=BuildCache('disk', str(tmp_path))).apply(
                     time_M=1, dt=0.01)
        warm_cache = BuildCache('disk', str(tmp_path))
        Operator(_exprs()[0], cache=warm_cache)
        warm_cache.flush_stats()
        assert run_cache('stats', cache_dir=str(tmp_path),
                         min_hits=1) == 0
        assert run_cache('stats', cache_dir=str(tmp_path),
                         min_hits=10 ** 6) == 1
        assert run_cache('clear', cache_dir=str(tmp_path)) == 0
        assert disk_usage(str(tmp_path))[0] == 0

    def test_get_cache_resolution(self, tmp_path):
        assert get_cache(False) is None
        assert get_cache('off') is None
        inst = BuildCache('memory')
        assert get_cache(inst) is inst
        configuration['cache_dir'] = str(tmp_path)
        configuration['build_cache'] = 'off'
        assert get_cache(None) is None
        configuration['build_cache'] = 'disk'
        a = get_cache(None)
        b = get_cache('disk')
        assert a is b and a.mode == 'disk'
        assert get_cache(True).mode == 'on'
        with pytest.raises(ValueError):
            get_cache(3.14)
        with pytest.raises(ValueError):
            BuildCache('turbo')

    def test_artifact_payload_roundtrip(self):
        """extract -> to_payload -> JSON -> from_payload is lossless."""
        op = Operator(_exprs()[0], cache=False)
        art = KernelArtifact.extract(op, build_seconds=0.123)
        blob = json.dumps(art.to_payload())
        back = KernelArtifact.from_payload(json.loads(blob))
        assert back.source == art.source == op.pycode
        assert back.build_seconds == pytest.approx(0.123)
        assert back.nbytes > 0

    def test_artifact_nbytes_excludes_build_seconds(self):
        """Equal structures weigh the same: the build time's printed
        length (0.1 vs 0.123456789) is not part of the count."""
        op = Operator(_exprs()[0], cache=False)
        fast, slow = (KernelArtifact.extract(op, build_seconds=s)
                      for s in (0.1, 0.123456789))
        assert len(json.dumps(fast.to_payload())) \
            != len(json.dumps(slow.to_payload()))
        assert fast.nbytes == slow.nbytes > 0
