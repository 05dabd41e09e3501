"""Property-based cross-mode equivalence of the halo-exchange patterns.

The paper's Table I patterns (*basic*, *diagonal*, *full*) are different
communication schedules for the *same* data movement: for any grid
shape, rank count, process topology and (possibly asymmetric, possibly
narrower-than-allocated) exchange widths, a stencil iteration that only
reads within the exchanged widths must produce bit-identical fields
under every pattern and on every rank count.

Rather than enumerating cases by hand, this harness samples them from a
seeded RNG — re-seedable via the ``REPRO_RANDOM_SEED`` environment
variable to explore a fresh slice of the property space::

    REPRO_RANDOM_SEED=7 pytest tests/test_mode_equivalence_random.py

Each case runs a few iterations of exchange + stencil update (with a
diagonal term, so corner halos matter) and cross-checks the gathered
global field across all three modes and against a single-rank run.

The same property extends to fault recovery: killing a rank mid-run and
restarting from a checkpoint must leave every sampled case bit-identical
to the serial reference.  A small default subset of the cases runs that
way on every invocation; set ``REPRO_RANDOM_RECOVERY=1`` to put *every*
sampled case through the mid-run kill + restart wringer.
"""

import os

import numpy as np
import pytest

from repro import (Eq, Grid, Operator, TimeFunction, configuration, solve)
from repro.mpi import Data, DimSpec, Distributor, make_exchanger, \
    run_parallel

SEED = int(os.environ.get('REPRO_RANDOM_SEED', '0'))
NCASES = int(os.environ.get('REPRO_RANDOM_CASES', '8'))
MODES = ('basic', 'diagonal', 'full')
ALL_RECOVERY = os.environ.get('REPRO_RANDOM_RECOVERY', '0') \
    .strip().lower() not in ('0', '', 'false', 'no', 'off')


def _random_case(i):
    """Sample one (shape, halo, widths, ranks, topology) configuration."""
    rng = np.random.default_rng((SEED << 16) + i)
    ndim = int(rng.integers(2, 4))  # 2 or 3
    if ndim == 2:
        shape = tuple(int(rng.integers(7, 13)) for _ in range(ndim))
        ranks = int(rng.choice([2, 3, 4]))
    else:
        shape = tuple(int(rng.integers(6, 9)) for _ in range(ndim))
        ranks = int(rng.choice([2, 4]))
    halo = int(rng.integers(1, 4))
    widths = []
    for _ in range(ndim):
        wl = int(rng.integers(0, min(halo, 2) + 1))
        wr = int(rng.integers(0, min(halo, 2) + 1))
        widths.append((wl, wr))
    if all(wl == 0 and wr == 0 for wl, wr in widths):
        widths[0] = (1, min(halo, 2))  # keep the case non-trivial
    topology = None
    if ndim == 2 and ranks == 4 and rng.random() < 0.5:
        topology = tuple(rng.permutation([2, 2])) if rng.random() < 0.5 \
            else tuple(int(x) for x in rng.permutation([4, 1]))
    steps = int(rng.integers(2, 5))
    return {'shape': shape, 'halo': halo, 'widths': tuple(widths),
            'ranks': ranks, 'topology': topology, 'steps': steps}


CASES = [_random_case(i) for i in range(NCASES)]


def _initial(shape):
    rng = np.random.default_rng(SEED * 1_000_003 + int(np.prod(shape)))
    return rng.standard_normal(shape).astype(np.float32)


def _stencil_update(full, halo, widths, local_shape):
    """One update of the owned region, reading at most ``widths`` deep
    into the halo along every dimension *and* along the main diagonal
    (so corner exchanges are observable).  Pure, vectorized, identical
    per-point operation order on every rank and in every mode."""
    ndim = len(local_shape)

    def region(shifts):
        return tuple(slice(h[0] + s, h[0] + n + s)
                     for (h, n, s) in zip(halo, local_shape, shifts))

    acc = np.float32(0.5) * full[region((0,) * ndim)]
    for d, (wl, wr) in enumerate(widths):
        for shift in (-wl, wr):
            if shift == 0:
                continue
            shifts = tuple(shift if i == d else 0 for i in range(ndim))
            acc = acc + np.float32(0.0625) * full[region(shifts)]
    # diagonal term: read the (-wl, -wl, ...) corner halo
    diag = tuple(-w[0] for w in widths)
    if any(diag):
        acc = acc + np.float32(0.03125) * full[region(diag)]
    return acc


def _run_case(case, mode, ranks):
    shape, halo, widths = case['shape'], case['halo'], case['widths']
    init = _initial(shape)

    def job(comm):
        dist = Distributor(shape, comm=comm,
                           topology=case['topology']
                           if comm is not None else None)
        specs = [DimSpec(n, dist_index=i, halo=(halo, halo))
                 for i, n in enumerate(shape)]
        d = Data(specs, dist)
        d.with_halo[...] = 0.0    # global-boundary halos read as zeros
        d[...] = init
        ex = make_exchanger(mode, dist, d.halo, widths)
        dom = tuple(slice(h[0], h[0] + n)
                    for h, n in zip(d.halo, dist.shape_local))
        for _ in range(case['steps']):
            ex.exchange(d.with_halo)
            d.with_halo[dom] = _stencil_update(d.with_halo, d.halo,
                                               widths, dist.shape_local)
        return d.gather()

    if ranks == 1:
        return job(None)
    return run_parallel(job, ranks)[0]


@pytest.mark.parametrize('case', CASES,
                         ids=['case%d' % i for i in range(len(CASES))])
def test_modes_and_rank_counts_agree(case):
    reference = _run_case(case, 'basic', 1)
    for mode in MODES:
        out = _run_case(case, mode, case['ranks'])
        assert out.shape == reference.shape, (case, mode)
        assert np.array_equal(out, reference), (case, mode)


# -- the same property under mid-run kill + checkpoint/restart ---------------

RECOVERY_CASES = CASES if ALL_RECOVERY else CASES[:2]


def _operator_job(comm, case, mode, cache=None, **apply_kwargs):
    """Diffusion on the case's grid/topology; returns the global field."""
    shape = case['shape']
    grid = Grid(shape=shape, extent=tuple(float(s - 1) for s in shape),
                comm=comm,
                topology=case['topology'] if comm is not None else None)
    u = TimeFunction(name='u', grid=grid, space_order=2)
    u.data[0] = _initial(shape)
    eq = Eq(u.dt, u.laplace)
    op = Operator([Eq(u.forward, solve(eq, u.forward))],
                  mpi=mode if comm is not None else None, cache=cache)
    op.apply(time_M=case['steps'] + 2, dt=0.002, **apply_kwargs)
    return u.data.gather()


@pytest.mark.parametrize('case', RECOVERY_CASES,
                         ids=['case%d' % i
                              for i in range(len(RECOVERY_CASES))])
def test_mid_run_kill_restart_matches_serial(case, tmp_path):
    """Every sampled configuration survives a rank kill at step 2 with
    restart recovery, bit-identically, under all three modes."""
    reference = _operator_job(None, case, 'basic')
    configuration['faults'] = 'seed=11,kill=1@2'
    for mode in MODES:
        out = run_parallel(
            lambda c: _operator_job(
                c, case, mode, recovery='restart', checkpoint_every=2,
                checkpoint_dir=str(tmp_path / mode)),
            case['ranks'])
        for field in out:
            assert np.array_equal(field, reference), (case, mode)


# -- the same property under elastic repartitioning --------------------------


@pytest.mark.parametrize('case', RECOVERY_CASES,
                         ids=['case%d' % i
                              for i in range(len(RECOVERY_CASES))])
def test_mid_run_kill_grow_back_matches_serial(case, tmp_path):
    """Every sampled configuration survives kill -> shrink -> grow back
    to full size (the victim rejoins), bit-identically, in all modes."""
    reference = _operator_job(None, case, 'basic')
    configuration['faults'] = 'seed=11,kill=1@2'
    for mode in MODES:
        out = run_parallel(
            lambda c: _operator_job(
                c, case, mode, recovery='grow', checkpoint_every=2,
                checkpoint_dir=str(tmp_path / ('grow-' + mode))),
            case['ranks'])
        for field in out:
            assert np.array_equal(field, reference), (case, mode)


@pytest.mark.parametrize('case', RECOVERY_CASES,
                         ids=['case%d' % i
                              for i in range(len(RECOVERY_CASES))])
def test_mid_run_weighted_rebalance_matches_serial(case):
    """A mid-run weighted rebalance (skewed per-rank weights) leaves
    every sampled configuration bit-identical to the serial run, in all
    modes — data moves, results don't."""
    reference = _operator_job(None, case, 'basic')
    rng = np.random.default_rng(SEED * 31 + case['steps'])
    for mode in MODES:
        weights = tuple(float(w)
                        for w in rng.uniform(0.5, 4.0, case['ranks']))
        out = run_parallel(
            lambda c: _operator_job(
                c, case, mode, repartition='balance',
                repartition_every=2, min_steps_between_repartitions=2,
                max_repartitions=2, repartition_weights=weights),
            case['ranks'])
        for field in out:
            assert np.array_equal(field, reference), (case, mode, weights)


# -- the same property through the build cache -------------------------------

WARM_CASES = CASES[:3]


@pytest.mark.parametrize('case', WARM_CASES,
                         ids=['case%d' % i
                              for i in range(len(WARM_CASES))])
def test_warm_builds_preserve_equivalence(case, tmp_path):
    """Cache-warm operators are invisible to the cross-mode property:
    for sampled configurations, a disk-rehydrated kernel produces the
    same bits as the cold build that populated the entry — under every
    communication pattern, against the serial cache-off reference."""
    from repro.buildcache import BuildCache

    reference = _operator_job(None, case, 'basic', cache=False)
    cache = BuildCache('disk', str(tmp_path))
    for mode in MODES:
        for repeat in range(2):          # populate, then rehydrate
            out = run_parallel(
                lambda c: _operator_job(c, case, mode, cache=cache),
                case['ranks'])
            for field in out:
                assert np.array_equal(field, reference), \
                    (case, mode, repeat)
    # every rank of every mode hit on its second build
    assert cache.stats['hits'] == len(MODES) * case['ranks']


@pytest.mark.parametrize('mode', MODES)
def test_asymmetric_widths_fixed_case(mode):
    """A pinned non-random regression case: asymmetric widths + corners."""
    case = {'shape': (11, 9), 'halo': 3, 'widths': ((2, 1), (0, 2)),
            'ranks': 4, 'topology': (2, 2), 'steps': 3}
    reference = _run_case(case, 'basic', 1)
    out = _run_case(case, mode, case['ranks'])
    assert np.array_equal(out, reference)


# -- the same property through the compiled execution backend ----------------

COMPILED_CASES = CASES[:3]


def _toolchain_available():
    from repro.codegen import jit
    return jit.find_compiler() is not None


@pytest.mark.skipif(not _toolchain_available(),
                    reason='no C toolchain on this host')
@pytest.mark.parametrize('case', COMPILED_CASES,
                         ids=['case%d' % i
                              for i in range(len(COMPILED_CASES))])
def test_compiled_backend_preserves_equivalence(case, tmp_path):
    """Swapping the execution backend is invisible to the cross-mode
    property: for sampled configurations, the compiled step (kernels,
    halo spots over in-process channels) produces the same bits as the
    serial NumPy reference — under every communication pattern, built
    cold and then rehydrated from the disk cache (REPRO_BACKEND=c flows
    through ``configuration`` exactly like the env var would)."""
    from repro.buildcache import BuildCache

    reference = _operator_job(None, case, 'basic')
    configuration['backend'] = 'c'
    cache = BuildCache('disk', str(tmp_path))
    for mode in MODES:
        for repeat in range(2):          # populate, then rehydrate
            out = run_parallel(
                lambda c: _operator_job(c, case, mode, cache=cache),
                case['ranks'])
            for field in out:
                assert np.array_equal(field, reference), (case, mode,
                                                          repeat)
    assert cache.stats['hits'] == len(MODES) * case['ranks']


@pytest.mark.skipif(not _toolchain_available(),
                    reason='no C toolchain on this host')
@pytest.mark.parametrize('recovery', ['restart', 'shrink', 'grow'])
def test_compiled_fault_fallback_matches_serial(recovery, tmp_path,
                                                step_calls):
    """An armed kill plan runs the compiled step (``backend='c'`` has no
    other driver): the kill fires between steps, and a mid-run kill
    still recovers bit-identically with every surviving rank calling
    the compiled step."""
    from repro.mpi import RankKilledError
    case = CASES[0]
    reference = _operator_job(None, case, 'basic')
    configuration['backend'] = 'c'
    configuration['faults'] = 'seed=11,kill=1@2'

    def job(comm):
        try:
            field = _operator_job(comm, case, 'diagonal', recovery=recovery,
                                  checkpoint_every=2,
                                  checkpoint_dir=str(tmp_path))
        except RankKilledError:
            return None  # shrink: the victim left the job
        return field, step_calls()

    out = [r for r in run_parallel(job, case['ranks']) if r is not None]
    assert len(out) >= case['ranks'] - 1
    for field, calls in out:
        assert np.array_equal(field, reference), (case, recovery)
        assert calls > 0, recovery
