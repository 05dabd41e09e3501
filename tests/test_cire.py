"""Cross-iteration redundancy elimination (CIRE) and scratch arrays.

TTI's rotated Laplacian is a derivative of an expression holding
derivatives; lowered, the inner expression is copied once per
outer-stencil offset.  Under ``opt=True`` the Cluster-level rewrite
stores it in a compiler-owned scratch array computed once per point
over the grown domain.  The contract under test:

* every backend, comm mode, rank count and weighted decomposition
  agrees bit for bit with the serial NumPy run, with the poison
  sanitizer and the reconcile ledger clean;
* the only numerics change is TTI's round-off against ``opt=False``;
* kernels without a nested derivative create no scratch array;
* scratch arrays are invisible to users: not in ``op.functions``, not
  checkpointed, re-allocated on every binding (restart, shrink, grow);
* a computed region one cell short is caught statically (``REPRO-E105``)
  and, unverified, by the poison sanitizer.
"""

import functools

import numpy as np
import pytest

from repro import configuration
from repro.analysis import AnalysisError, HaloPoisonError
from repro.codegen import jit
from repro.ir import schedule as schedule_mod
from repro.ir.schedule import build_schedule
from repro.models import (acoustic_setup, elastic_setup, tti_setup,
                          viscoelastic_setup)
from repro.mpi import run_parallel

MODES = ('basic', 'diagonal', 'full')

#: (ndim, space order) -> grid shape (without the absorbing layer)
CASES = {(2, 4): (14, 12), (2, 8): (18, 14), (2, 12): (26, 22),
         (3, 4): (8, 8, 8)}

#: timesteps of every run (a kill at step 3 restarts from step 2)
STEPS = 4


def _tti(comm=None, so=4, shape=(14, 12), **kwargs):
    """A small TTI run: both wavefields and the receiver rows."""
    solver, _ = tti_setup(shape=shape, spacing=(10.,) * len(shape), nbl=2,
                          tn=100.0, space_order=so, nrec=3, comm=comm,
                          **kwargs)
    rec, p, q, _ = solver.forward(time_M=STEPS)
    return [p.data.gather(), q.data.gather(), np.array(rec.data)], \
        solver.op


@functools.lru_cache(maxsize=None)
def _reference(so, shape):
    """The serial NumPy oracle of a case, run once per test process."""
    with configuration.override(backend='numpy', sanitizer=False,
                                opt=True):
        state, op = _tti(so=so, shape=shape)
    assert _scratch(op) and op.kernel.scratch
    return state


def _scratch(op):
    return [f for f in op.schedule.functions if f.is_Scratch]


def _agree(ref, out):
    return all(np.array_equal(a, b) for a, b in zip(ref, out))


#: the distributed legs of each case, (mode, ranks, backend, sanitizer):
#: over the four cases every mode runs at 2 (weighted) and at 4 ranks,
#: on both backends and under both sanitizer modes; the 4-rank 2-D legs
#: run the cheapest case
LEGS = {(2, 4): [('basic', 4, 'c', 'reconcile'),
                 ('diagonal', 4, 'numpy', 'reconcile'),
                 ('full', 2, 'numpy', 'poison')],
        (2, 8): [('basic', 2, 'c', 'poison'),
                 ('diagonal', 2, 'numpy', 'reconcile')],
        (2, 12): [('basic', 2, 'numpy', 'poison'),
                  ('full', 2, 'c', 'reconcile')],
        (3, 4): [('diagonal', 2, 'numpy', 'reconcile'),
                 ('full', 4, 'c', 'poison')]}


@pytest.mark.parametrize('ndim,so', sorted(CASES))
def test_every_backend_mode_and_rank_count_agree(ndim, so):
    """Serial NumPy is the oracle of serial C and of 2- and 4-rank runs
    in every comm mode, verified, with a weighted 2-rank split."""
    shape = CASES[ndim, so]
    ref = _reference(so, shape)
    compiled = jit.find_compiler() is not None
    if compiled:
        configuration['backend'] = 'c'
        out, op = _tti(so=so, shape=shape)
        assert op.backend == 'c'
        assert _agree(ref, out)
    weights = ((2, 3),) + (None,) * (ndim - 1)
    configuration['opt'] = 'verify'
    for mode, ranks, backend, sanitizer in LEGS[ndim, so]:
        configuration['backend'] = backend if compiled else 'numpy'
        configuration['sanitizer'] = sanitizer
        kw = dict(weights=weights) if ranks == 2 else {}
        for out, op in run_parallel(
                lambda c: _tti(c, so=so, shape=shape, mpi=mode, **kw),
                ranks):
            assert _agree(ref, out), (mode, ranks, backend)
            assert not op.analysis.errors


def test_rewrite_changes_tti_only_at_round_off():
    """float32, 60x60, SDO 8, theta = pi/5, tn = 400: the rewritten and
    the expanded kernel differ by round-off (each translated copy used
    to sum its terms in its own order)."""
    fields = {}
    for opt in (True, False):
        solver, _ = tti_setup(shape=(60, 60), space_order=8,
                              theta=np.pi / 5, tn=400.0, nrec=0, opt=opt)
        solver.forward()
        fields[opt] = solver.p.data.gather()
        assert bool(_scratch(solver.op)) is opt
    scale = np.abs(fields[False]).max()
    assert scale > 0
    assert np.abs(fields[True] - fields[False]).max() <= 2.5e-4 * scale


@pytest.mark.parametrize('setup', [acoustic_setup, elastic_setup,
                                   viscoelastic_setup])
@pytest.mark.parametrize('so', [4, 8])
def test_kernels_without_nested_derivatives_keep_their_schedule(setup, so):
    ret = setup(shape=(12, 10), tn=10.0, space_order=so, nbl=2)
    solver = ret[0] if isinstance(ret, tuple) else ret
    schedule = build_schedule(solver._equations())
    assert not any(f.is_Scratch for f in schedule.functions)
    assert all(c.grow is None and c.producer is None
               for c in schedule.clusters)


def test_scratch_arrays_are_not_user_functions():
    _, op = _tti()
    names = {f.name for f in op.functions}
    assert {f.name for f in _scratch(op)}.isdisjoint(names)
    assert set(op.kernel.scratch) == {f.name for f in _scratch(op)}
    for array, data in op.kernel.scratch.values():
        with pytest.raises(TypeError):
            array.data
        # the grown region reaches the readers' offsets on every side
        assert data.shape == tuple(n + hl + hr for n, (hl, hr)
                                   in zip(op.grid.shape, array.halo))


def _recovering(comm, tmp_path, opt=True, topology=None, **apply_kwargs):
    solver, _ = tti_setup(shape=(14, 12), spacing=(10., 10.), nbl=2,
                          tn=100.0, space_order=4, nrec=3, comm=comm,
                          topology=topology, mpi='diagonal', opt=opt)
    from repro.mpi.faults import RankKilledError
    try:
        rec, p, q, _ = solver.forward(time_M=STEPS, checkpoint_every=2,
                                      checkpoint_dir=str(tmp_path),
                                      **apply_kwargs)
    except RankKilledError:
        return None
    op = solver.op
    world = op.grid.distributor.comm.world
    return ([p.data.gather(), q.data.gather(), np.array(rec.data)],
            dict(world.recovery_stats), op)


@pytest.mark.parametrize('recovery,ranks', [('restart', 2), ('shrink', 4),
                                            ('grow', 2)])
def test_checkpoint_restart_shrink_and_grow(recovery, ranks, tmp_path):
    """Every recovery path rebinds the kernel, which re-allocates its
    scratch arrays; checkpoints hold the user's fields only."""
    ref = _reference(4, CASES[2, 4])
    configuration['faults'] = 'seed=5,kill=1@3'
    topology = (2, 2) if ranks == 4 else None
    out = [r for r in run_parallel(
        lambda c: _recovering(c, tmp_path / recovery, topology=topology,
                              recovery=recovery), ranks) if r is not None]
    assert len(out) == (ranks - 1 if recovery == 'shrink' else ranks)
    for state, stats, op in out:
        assert _agree(ref, state)
        assert stats['recoveries'] == 1
        assert stats['grown_ranks'] == (recovery == 'grow')
        assert op.kernel.scratch
        shape = op.grid.distributor.shape_local
        for array, data in op.kernel.scratch.values():
            assert data.shape == tuple(n + hl + hr for n, (hl, hr)
                                       in zip(shape, array.halo))
    if recovery == 'restart':
        # the same fields, the same steps: the same checkpoint bytes
        configuration['faults'] = None
        plain = run_parallel(lambda c: _recovering(
            c, tmp_path / 'plain', opt=False), 2)[0][1]
        assert out[0][1]['checkpoint_bytes'] == plain['checkpoint_bytes']


def _short_of_one_cell(monkeypatch):
    """Mutate the compiler: a grown region one cell short on the low
    side of x, which the outer x-stencil reads."""
    boxes = schedule_mod.region_boxes

    def mutated(region, widths, dist, grow=None):
        out = boxes(region, widths, dist, grow)
        if region == 'grown':
            out = [((box[0][0] + 1, box[0][1]),) + box[1:] for box in out]
        return out

    monkeypatch.setattr(schedule_mod, 'region_boxes', mutated)


def test_short_computed_region_is_caught(monkeypatch):
    """Statically under ``verify``; at run time, unverified, by the
    poison sanitizer of either backend."""
    _short_of_one_cell(monkeypatch)
    with pytest.raises(AnalysisError, match='REPRO-E105'):
        _tti(opt='verify')
    configuration['opt'] = True
    configuration['sanitizer'] = 'poison'
    backends = ['numpy'] + (['c'] if jit.find_compiler() else [])
    for backend in backends:
        configuration['backend'] = backend
        with pytest.raises(HaloPoisonError):
            run_parallel(lambda c: _tti(c, mpi='basic'), 2)
