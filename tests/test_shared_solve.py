"""Solve once per launch: the rank threads of a world share one symbolic
expansion of each equation, and every other rank rebinds it to its own
functions, dimensions and spacings.

* whichever rank leads, each rank's result *is* the node its own local
  solve returns (hash-consing makes ``is`` an exact structural check),
  it holds only that rank's functions and grid atoms, one symbolic
  solve runs per equation, and the distributed run equals the serial
  NumPy run bit for bit;
* a failed solve raises the leader's error on every rank;
* inputs outside the token grammar, and rank-dependent equations, are
  solved locally by every rank, without waiting for another;
* no solve entry outlives the launch, and nothing of the leader's
  survives in a follower's result, also with more rank threads than
  cores switching every 10 µs.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.dsl.equation as equation
import repro.models.seismic.acoustic as acoustic
import repro.models.seismic.tti as tti
from repro import Eq, Grid, TimeFunction, solve
from repro.dsl.function import Constant, DiscreteFunction
from repro.mpi import run_parallel
from repro.symbolics import unique_nodes
from repro.symbolics import solve as local_solve

WAIT = 60.0
STEPS = 4


@pytest.fixture
def solves(monkeypatch):
    """One entry per symbolic solve any rank runs, leader or local."""
    ran = []
    real = equation._solve

    def counted(expr, target):
        ran.append(threading.get_ident())
        return real(expr, target)
    monkeypatch.setattr(equation, '_solve', counted)
    return ran


def _own_atoms(inputs, grid):
    """ids of the functions a rank's solve inputs hold, and of its grid's
    dimensions and spacings."""
    funcs = {id(n.base if n.is_Indexed else n)
             for expr in inputs for n in unique_nodes(expr)
             if n.is_Indexed or isinstance(n, DiscreteFunction)}
    dims = grid.dimensions + (grid.time_dim, grid.stepping_dim)
    return funcs, {id(a) for d in dims for a in (d, d.spacing)}


def _check_rank(rank_solves, grid):
    for pde, target, out in rank_solves:
        assert out is local_solve(pde, target)
        funcs, dims = _own_atoms((pde, target), grid)
        for node in unique_nodes(out):
            if node.is_Indexed:
                assert id(node.base) in funcs, node
            elif not node.args and not type(node)._hashcons:
                assert id(node) in dims, node


def _state(solver):
    solver.forward(time_M=STEPS)
    fields = [solver.u] if hasattr(solver, 'u') else [solver.p, solver.q]
    return np.concatenate([f.data.gather().ravel() for f in fields]
                          + [solver.rec.data.ravel()])


CASES = {
    'acoustic-2d-r2': (acoustic, (20, 16), 2, None),
    'acoustic-2d-weighted-r3': (acoustic, (21, 16), 3,
                                ((3.0, 1.0, 2.0), None)),
    'tti-2d-r3': (tti, (22, 18), 3, None),
    'tti-3d-r2': (tti, (9, 8, 7), 2, None),
}
_serial = {}


def _setup(module, shape, comm=None, weights=None):
    setup = getattr(module, module.__name__.rsplit('.', 1)[1] + '_setup')
    return setup(shape=shape, space_order=2, nbl=2, tn=STEPS * 2.0,
                 nrec=3, comm=comm, weights=weights)[0]


@pytest.mark.parametrize('leader', ['first', 'last'])
@pytest.mark.parametrize('case', sorted(CASES))
def test_shared_solve_is_local_solve(case, leader, solves, monkeypatch):
    module, shape, ranks, weights = CASES[case]
    if case not in _serial:
        _serial[case] = _state(_setup(module, shape))
    lead = 0 if leader == 'first' else ranks - 1
    neq = 1 if module is acoustic else 2
    go = threading.Event()
    seen = {}
    real = module.solve

    def spy(eq, target):
        out = real(eq, target)
        seen.setdefault(threading.get_ident(), []).append((eq, target, out))
        return out
    monkeypatch.setattr(module, 'solve', spy)
    del solves[:]

    def job(comm):
        solver = _setup(module, shape, comm, weights)
        if comm.rank != lead:
            assert go.wait(WAIT)
        solver.op  # the equations' solves, then the shared build
        if comm.rank == lead:
            go.set()
        mine = seen[threading.get_ident()]
        assert len(mine) == neq
        _check_rank(mine, solver.model.grid)
        return _state(solver)

    states = run_parallel(job, ranks, timeout=WAIT)
    assert len(solves) == neq
    for state in states:
        assert np.array_equal(state, _serial[case])


def _diffusion(comm, name='u'):
    grid = Grid(shape=(12, 10), comm=comm)
    u = TimeFunction(name=name, grid=grid, space_order=2)
    return grid, u


def test_failed_solve_raises_on_every_rank(solves):
    def job(comm):
        grid, u = _diffusion(comm)
        v = TimeFunction(name='v', grid=grid, space_order=2)
        with pytest.raises(ValueError, match='does not contain') as err:
            solve(Eq(u.dt, u.laplace), v.forward)
        return err.value

    errors = run_parallel(job, 3, timeout=WAIT)
    assert all(e is errors[0] for e in errors)
    assert len(solves) == 1


def test_input_outside_the_grammar_solves_locally(solves):
    """An evaluation point given as a symbolic number is valid for the
    expansion but not a token: every rank solves alone, joins nothing."""
    def job(comm):
        grid, u = _diffusion(comm)
        x = grid.dimensions[0]
        out = solve(Eq(u.dt, u.d(x, 2, x0=equation.S(0))), u.forward)
        assert {id(n.base) for n in unique_nodes(out) if n.is_Indexed} \
            == {id(u)}
        return comm.world

    world = run_parallel(job, 3, timeout=WAIT)[0]
    assert len(solves) == 3
    assert not [k for k in world.builds._joined if k[1][0] == 'solve']


def test_rank_dependent_equations_solve_without_waiting(solves):
    """Each rank's equation differs, so each leads its own solve: the
    ranks solve strictly one after another, and none waits for a later
    one (that would deadlock the chain)."""
    ranks = 3
    done = [threading.Event() for _ in range(ranks)]

    def job(comm):
        grid, u = _diffusion(comm)
        if comm.rank:
            assert done[comm.rank - 1].wait(WAIT)
        pde = u.dt - (comm.rank + 1) * u.laplace
        out = solve(pde, u.forward)
        done[comm.rank].set()
        assert out is local_solve(pde, u.forward)
        return comm.rank

    assert run_parallel(job, ranks, timeout=WAIT) == list(range(ranks))
    assert len(solves) == ranks


def test_no_solve_entry_outlives_the_launch(solves):
    """Rank 0 leads.  Once every rank has taken the solve the world holds
    no entry, and the followers' results — kept alive, with their world
    — do not keep the leader's ``p`` alive."""
    go = threading.Event()

    def job(comm):
        _, p = _diffusion(comm, 'p')
        if comm.rank:
            assert go.wait(WAIT)
        out = solve(Eq(p.dt, p.laplace), p.forward)
        go.set()
        if comm.rank == 0:
            return weakref.ref(p), comm.world
        return out, comm.world

    out = run_parallel(job, 3, timeout=WAIT)
    (leader_p, world), followers = out[0], [o for o, _ in out[1:]]
    assert len(solves) == 1
    assert not [k for k in world.builds._entries if k[0][0] == 'solve']
    gc.collect()
    assert leader_p() is None
    assert all(f is not None for f in followers)


def test_many_ranks_repeated_solves_under_a_short_switch_interval(solves):
    """Six rank threads on two cores, thread switches every 10 µs: each
    rank solves three equations twice, one with a runtime constant of
    its own.  Every n-th solve of a key is
    shared by all ranks (one symbolic solve per equation and round),
    every result is the rank's own local solve, and no entry is left."""
    ranks, rounds = 6, 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def job(comm):
        _, u = _diffusion(comm)
        a = Constant('a', value=0.5)
        pdes = [u.dt - u.laplace, u.dt - 2 * u.laplace,
                u.dt - a * u.laplace - u]
        for _ in range(rounds):
            for pde in pdes:
                assert solve(pde, u.forward) is local_solve(pde, u.forward)
        return comm.world

    try:
        world = run_parallel(job, ranks, timeout=WAIT)[0]
    finally:
        sys.setswitchinterval(interval)
    assert len(solves) == 3 * rounds
    assert not [k for k in world.builds._entries if k[0][0] == 'solve']
