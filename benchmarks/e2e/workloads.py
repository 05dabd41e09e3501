"""The six forward-modelling workloads and the pieces a launch is made of.

Everything here runs *inside* a worker subprocess (``worker.py``) except
:func:`make_inputs`, which the parent calls once per invocation: the
seed is consumed there, and the program under test only ever sees the
generated arrays and lists.

Repeatability: a timed apply always starts from zeroed wavefields and
receiver rows (:func:`reset`) and is bracketed by barriers
(:func:`timed_apply`).  Without the reset the work itself changes from
one repetition to the next — the wavefront leaves denormals behind that
come and go — see ``README.md`` ("Repeatable work per sample").
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

__all__ = ['WORKLOADS', 'make_inputs', 'oracle_spec', 'serial_spec',
           'reference_spec', 'build_problem', 'reset', 'timed_apply', 'digest',
           'survey_specs']

#: step counts are fixed by ``time_M`` (never by ``tn``) and were cut
#: from the issue's first sizing (60 / 600 / 50 / 1000 steps) so that the
#: 136 runs of the acceptance driver fit its total-time cap; grid sizes
#: and space orders are the issue's, except that the two ``diagonal``
#: workloads are 129 / 257 points wide in x: with equal halves both ranks
#: compile byte-identical C at once and race on one content-addressed
#: ``.so`` (its bytes depend on the scratch file name), after which the
#: loser's cache entry fails its checksum and the next "warm" start
#: rebuilds cold — see README.md, "Findings".
WORKLOADS = {
    'ac3d_serial': dict(
        kind='operator', kernel='acoustic', shape=(128, 128, 128), nbl=10,
        space_order=8, backend='c', ranks=1, mpi=None, nrec=16, steps=16,
        why='compute-bound: 3.2 M-point compiled stencil on one rank, '
            'halo/sparse/transport idle; the plain serial baseline'),
    'ac3d_r2_full': dict(
        kind='operator', kernel='acoustic', shape=(128, 128, 128), nbl=10,
        space_order=8, backend='c', ranks=2, mpi='full', nrec=16, steps=16,
        why='strong scaling with CORE/REMAINDER overlap: compute can hide '
            'communication, halo share is small'),
    'visco2d_r2_diag': dict(
        kind='operator', kernel='viscoelastic', shape=(129, 128), nbl=10,
        space_order=12, backend='c', ranks=2, mpi='diagonal', nrec=16,
        steps=120,
        why='halo-bound: 11 multi-field exchanges per step with 12-wide '
            'halos; 2 ranks are slower than serial today'),
    'tti2d_r2_basic_np_ckpt': dict(
        kind='operator', kernel='tti', shape=(192, 192), nbl=10,
        space_order=8, backend='numpy', ranks=2, mpi='basic', nrec=16,
        steps=12, checkpoint_every=6,
        why='the default paths: NumPy driver, basic exchanger with '
            'call-time buffers, checkpoint writes; lowering-bound set-up'),
    'ac2d_sparse_r2': dict(
        kind='operator', kernel='acoustic_public', shape=(257, 256), nbl=10,
        space_order=4, backend='c', ranks=2, mpi='diagonal', nrec=4096,
        steps=200,
        why='sparse-bound: 4096 off-grid receivers gathered and '
            'allreduced every step; built from the public classes'),
    'survey_batch': dict(
        kind='survey', backend='c', workers=2, ndt=4, repeats=2,
        structures=[
            dict(kernel='acoustic', shape=(192, 192), space_order=8,
                 steps=40),
            dict(kernel='acoustic', shape=(192, 192), space_order=4,
                 steps=40),
            dict(kernel='elastic', shape=(128, 128), space_order=8,
                 steps=40),
            dict(kernel='viscoelastic', shape=(128, 128), space_order=4,
                 steps=40),
        ],
        why='many short jobs through repro.service: build, buildcache, '
            'pool lease/reset and ArrayStore writes dominate the loop'),
}

#: base P velocity (km/s) of the upper layer per kernel (the lower
#: half-space is 1.5x, as in ``acoustic_setup``'s default model)
_VP_BASE = {'acoustic': 1.5, 'acoustic_public': 1.5, 'tti': 1.5,
            'viscoelastic': 2.2, 'elastic': 2.0}
_SPACING = 10.0


# -- seeded inputs (parent side) ---------------------------------------------

def _smooth_field(rng, shape):
    """A smooth field in [-1, 1]: a few low-wavenumber sines with seeded
    phases and amplitudes, separable per axis so 128^3 stays cheap."""
    out = np.zeros(shape, dtype=np.float64)
    for _ in range(3):
        term = np.ones(shape, dtype=np.float64)
        for axis, n in enumerate(shape):
            k = rng.integers(1, 4)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = np.sin(2.0 * np.pi * k * np.arange(n) / n + phase)
            expand = [1] * len(shape)
            expand[axis] = n
            term = term * wave.reshape(expand)
        out += rng.uniform(0.5, 1.0) * term
    return out / np.abs(out).max()


def layered_vp(kernel, shape, rng):
    """Two-layer velocity model with a smooth +-5 % seeded perturbation."""
    base = _VP_BASE[kernel]
    vp = np.full(shape, base, dtype=np.float64)
    vp[..., shape[-1] // 2:] = base * 1.5
    vp *= 1.0 + 0.05 * _smooth_field(rng, shape)
    return vp.astype(np.float32)


def make_inputs(name, seed):
    """Everything the seed decides for workload ``name``.

    Operator workloads: the ``vp`` array (and, for ``ac2d_sparse_r2``,
    the receiver coordinates).  ``survey_batch``: the per-structure
    ``dt`` scale factors and the submission order / priorities of the
    shots.  Returns a dict of arrays / plain lists.
    """
    wl = WORKLOADS[name]
    rng = np.random.default_rng([int(seed), sorted(WORKLOADS).index(name)])
    if wl['kind'] == 'survey':
        nstruct = len(wl['structures'])
        # dt scale factors below the CFL limit, distinct per structure
        scales = np.sort(rng.uniform(0.80, 0.98, size=(nstruct, wl['ndt'])),
                         axis=1)
        shots = [(s, d) for s in range(nstruct) for d in range(wl['ndt'])
                 for _ in range(wl['repeats'])]
        order = rng.permutation(len(shots))
        batch = [[int(shots[i][0]), int(shots[i][1]), int(p)]
                 for i, p in zip(order, rng.integers(0, 3, size=len(shots)))]
        # one pilot per structure: its first shot in the seeded order
        # outranks the rest, so the four cold builds always start the
        # batch, in structure order, whatever the seed
        for s in range(nstruct):
            next(shot for shot in batch if shot[0] == s)[2] = 3 + nstruct - s
        return {'dt_scales': scales.tolist(), 'shots': batch}
    # the two ac3d workloads are the same problem: share the vp stream
    if name.startswith('ac3d'):
        rng = np.random.default_rng([int(seed), 1000])
    inputs = {'vp': layered_vp(wl['kernel'], wl['shape'], rng)}
    if wl['kernel'] == 'acoustic_public':
        extent = np.array([_SPACING * (n - 1) for n in wl['shape']])
        inputs['rec_coords'] = rng.uniform(0.0, 1.0, size=(
            wl['nrec'], len(wl['shape']))) * extent
    return inputs


# -- spec variants -----------------------------------------------------------

def oracle_spec(wl):
    """The serial ``backend=numpy`` reference of an operator workload."""
    out = dict(wl, backend='numpy', ranks=1, mpi=None)
    out.pop('checkpoint_every', None)
    return out


def serial_spec(wl):
    """Same problem and backend at one rank."""
    return dict(wl, ranks=1, mpi=None)


def reference_spec(wl):
    """What ``speedup_vs_serial`` divides by: the same problem and
    backend at one rank; for a workload that already is that, the plain
    serial NumPy run (compiled vs NumPy, end to end)."""
    return serial_spec(wl) if wl['ranks'] > 1 else oracle_spec(wl)


# -- building a problem (worker side) ----------------------------------------

class Problem:
    """One built solver plus what a timed apply needs."""

    def __init__(self, wl, solver, op, dt):
        self.wl = wl
        self.solver = solver
        self.op = op
        self.dt = dt
        self.steps = wl['steps']
        self.rec = solver.rec
        self.fields = [f for f in op.functions if f.is_TimeFunction]
        self.apply_kwargs = {}
        if wl.get('checkpoint_every'):
            self.apply_kwargs['checkpoint_every'] = wl['checkpoint_every']


def _critical_dt(vp, ndim):
    # SeismicModel.critical_dt, needed before the model exists to size
    # the time axis so that it holds exactly the workload's steps
    return (0.38 if ndim == 3 else 0.42) * _SPACING / float(vp.max())


def make_solver(wl, inputs, comm):
    """Model + geometry + solver (the ``models`` layer); no build yet."""
    kernel, shape, ndim = wl['kernel'], wl['shape'], len(wl['shape'])
    vp = inputs['vp']
    tn = _critical_dt(vp, ndim) * (wl['steps'] + 0.5)
    common = dict(shape=shape, spacing=(_SPACING,) * ndim, nbl=wl['nbl'],
                  space_order=wl['space_order'])
    if kernel == 'acoustic_public':
        from repro.models.seismic import (AcousticWaveSolver, Receiver,
                                          RickerSource, SeismicModel,
                                          TimeAxis)
        model = SeismicModel(vp=vp, comm=comm, **common)
        axis = TimeAxis(start=0.0, stop=tn, step=model.critical_dt)
        src_coords = np.array(model.domain_size)[None, :] * 0.5
        src = RickerSource(name='src', grid=model.grid, f0=0.025,
                           time_range=axis, coordinates=src_coords)
        rec = Receiver(name='rec', grid=model.grid, npoint=wl['nrec'],
                       nt=axis.num, coordinates=inputs['rec_coords'])
        return AcousticWaveSolver(model, src, rec,
                                  space_order=wl['space_order'],
                                  mpi=wl['mpi'])
    from repro.service.spec import kernel_setup
    solver, _ = kernel_setup(kernel)(vp=vp, tn=tn, comm=comm,
                                     mpi=wl['mpi'], nrec=wl['nrec'],
                                     **common)
    return solver


def build_problem(wl, inputs, comm, span=None):
    """Set up and build; in a traced launch ``span(name, layer)``
    brackets the two stages of the ``models`` layer: geometry, then the
    symbolic equations and material fields ``solver.op`` creates before
    it calls ``Operator(...)`` (a child span with its own proxy)."""
    import contextlib
    from repro import configuration
    configuration['backend'] = wl['backend']
    span = span or (lambda name, layer: contextlib.nullcontext())
    with span('models.setup', 'models'):
        solver = make_solver(wl, inputs, comm)
    with span('models.equations', 'models'):
        op = solver.op
    if wl['kernel'] == 'tti':
        # tti_setup's own rule: anisotropy speeds up the fastest phase
        dt = solver.model.critical_dt / np.sqrt(1.0 + 2.0 * 0.15)
    else:
        dt = solver.model.critical_dt
    return Problem(wl, solver, op, float(dt))


# -- one repeatable sample ---------------------------------------------------

def reset(problem):
    """Zero every TimeFunction (halo included) and the receiver rows, so
    each apply performs the same floating-point work."""
    for f in problem.fields:
        f.data.with_halo[...] = 0
    if problem.rec is not None:
        problem.rec.data[...] = 0


def timed_apply(problem, comm, do_reset=True):
    """One forward apply, barrier to barrier.  Returns (seconds, summary);
    after the closing barrier every rank reads the slowest rank's time."""
    if do_reset:
        reset(problem)
    comm.barrier()
    tic = time.perf_counter()
    summary = problem.op.apply(time_m=0, time_M=problem.steps - 1,
                               dt=problem.dt, **problem.apply_kwargs)
    comm.barrier()
    return time.perf_counter() - tic, summary


def digest(problem, comm, shared):
    """BLAKE2b of the global wavefields + receiver data (collective).

    ``shared`` is a dict common to the rank threads of the launch.  Rank
    threads share one address space, so the global arrays are assembled
    by each rank copying its block into a common buffer — the
    transport's ``Data.gather`` (deep copies of every block) would cost
    several applies per check on the 3-D problems.  The bytes hashed are
    those of the gathered global array, whatever the decomposition.
    """
    ranges = problem.op.grid.distributor.local_ranges()
    key = (slice(None),) + tuple(slice(a, b) for a, b in ranges)
    if comm.rank == 0:
        for f in problem.fields:
            if f.name not in shared:
                shared[f.name] = np.empty(f.data.shape_global,
                                          dtype=f.dtype)
    comm.barrier()
    for f in problem.fields:
        shared[f.name][key] = f.data.local
    comm.barrier()
    if comm.rank == 0:
        h = hashlib.blake2b(digest_size=16)
        for f in sorted(problem.fields, key=lambda f: f.name):
            h.update(f.name.encode())
            h.update(shared[f.name].data)
        if problem.rec is not None:
            h.update(np.ascontiguousarray(problem.rec.data).data)
        shared['digest'] = h.hexdigest()
    comm.barrier()
    return shared['digest']


# -- survey ------------------------------------------------------------------

def survey_specs(wl, inputs):
    """The batch as ``ShotSpec`` objects in the seeded submission order,
    plus each shot's (structure, dt index) identity for the oracle."""
    from repro.service import ShotSpec
    specs, idents = [], []
    for sidx, didx, priority in inputs['shots']:
        st = wl['structures'][sidx]
        ndim = len(st['shape'])
        vmax = _VP_BASE[st['kernel']] * (1.5 if st['kernel'] == 'acoustic'
                                         else 1.0)
        dt0 = (0.38 if ndim == 3 else 0.42) * _SPACING / vmax
        specs.append(ShotSpec(
            kernel=st['kernel'], shape=st['shape'], tn=dt0 * st['steps'],
            space_order=st['space_order'], nbl=10, nrec=8,
            dt=dt0 * inputs['dt_scales'][sidx][didx], priority=priority))
        idents.append((sidx, didx))
    return specs, idents
