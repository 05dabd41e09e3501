"""One step program: every reader of a timestep's record agrees.

:func:`repro.ir.program.step_program` records a timestep's sections,
halo spots, calls and sanitizer hooks once.  The profiler's section
registry, the compiled step's timer slots and the ``START`` brackets
of ``op.ccode`` all read it, so they list the same sections in the same
order; and the record, through JSON, rebinds to the same compiled
program.  Elastic runs every section kind in the time loop; TTI adds a
hoisted preamble exchange and scratch arrays.
"""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro import configuration
from repro.codegen import jit
from repro.codegen.artifact import KernelArtifact
from repro.ir.program import step_program
from repro.models import elastic_setup, tti_setup
from repro.mpi import run_parallel
from repro.profiling import Profiler


def _readers(comm, setup, backend):
    configuration.update(backend=backend, profiling='advanced',
                         sanitizer=True, build_cache='off')
    solver, _ = setup(shape=(16, 14), nbl=2, tn=5.0, comm=comm,
                      mpi='full', nrec=4)
    op = solver.op
    assert op.kernel.backend == backend
    program = op.kernel.artifact.payload['program']
    named = [(sec['name'], sec['kind'])
             for sec in program['pre'] + program['loop']
             if sec['name'] is not None]
    registered = [(meta.name, meta.kind)
                  for meta in op.profiler.sections.values()]
    out = {'named': named, 'registered': registered,
           'record': program == step_program(op.schedule, True, True),
           'ccode': re.findall(r'^\s*START\((\w+)\)', op.ccode, re.M)}
    cstep = op.kernel.cstep
    if cstep is not None:
        out['cstep'] = list(cstep.sections)
        # the payload through JSON, bound again to this rank's objects
        symtab = SimpleNamespace(
            functions={f.name: f for f in op.functions},
            sparse={s.name: s for s in op.sparse_functions}, constants={})
        again = KernelArtifact.from_payload(json.loads(json.dumps(
            op.kernel.artifact.payload))).rehydrate(
                symtab, profiler=Profiler('advanced')).cstep
        out['rebound'] = again.sections == cstep.sections and all(
            np.array_equal(getattr(again, a), getattr(cstep, a))
            for a in ('pre', 'loop', 'args', 'geom'))
    return out


_CC = pytest.mark.skipif(jit.find_compiler() is None,
                         reason='no C toolchain on this host')


@pytest.mark.parametrize('setup, backend', [
    (elastic_setup, 'numpy'),
    pytest.param(elastic_setup, 'c', marks=_CC),
    pytest.param(tti_setup, 'c', marks=_CC)],
    ids=['elastic-numpy', 'elastic-c', 'tti-c'])
def test_readers_of_the_record_agree(setup, backend):
    """A 2-rank full-mode build, profiled and sanitized: the
    profiler's sections (names and kinds), the compiled step's timer
    slots and the C listing's ``START`` brackets are the record's
    named sections, in the record's order."""
    for out in run_parallel(lambda c: _readers(c, setup, backend), 2):
        names = [name for name, _ in out['named']]
        assert {'halo', 'wait', 'compute', 'sparse'} \
            <= {kind for _, kind in out['named']}
        assert out['registered'] == out['named']
        assert out['ccode'] == names
        assert out['record']
        if backend == 'c':
            assert out['cstep'] == names
            assert out['rebound']


@pytest.mark.parametrize('mode', ['basic', 'diagonal', 'full'])
def test_listing_defines_every_halo_callable(mode):
    """The C listing of a 2-rank TTI build calls a ``halo*`` function
    for every exchange, hoisted preamble exchanges included, and
    defines each one it calls."""
    def listing(comm):
        configuration['build_cache'] = 'off'
        solver, _ = tti_setup(shape=(16, 14), nbl=2, tn=5.0, comm=comm,
                              mpi=mode, nrec=4)
        return solver.op.ccode
    for ccode in run_parallel(listing, 2):
        called = set(re.findall(r'^\s*(halo\w+)\(', ccode, re.M))
        defined = set(re.findall(r'^static void (halo\w+)\(', ccode, re.M))
        assert any(name.startswith('haloupdate_pre_') for name in called)
        assert called <= defined, called - defined
