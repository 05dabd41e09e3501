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
from repro.models import (acoustic_setup, elastic_setup, tti_setup,
                          viscoelastic_setup)
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


def _callable_tags(ccode):
    """``{name: tags}`` of every halo callable of a 2-D listing: the
    literal tags of its ``MPI_Sendrecv`` calls, or the ``base +
    tags[n]`` range of a neighbourhood exchange (direction codes below
    ``3**2``)."""
    out = {}
    for name, body in re.findall(r'^static void (halo\w+)\(.*?$(.*?)^}',
                                 ccode, re.M | re.S):
        tags = {int(t) for t in re.findall(
            r'neighbor_(?:pos|neg)\[\d+\], (\d+),', body)}
        for base in re.findall(r'(\d+) \+ r?tags\[n\]', body):
            tags.update(range(int(base), int(base) + 9))
        out[name] = tags
    return out


@pytest.mark.parametrize('mode', ['basic', 'diagonal', 'full'])
def test_listing_defines_every_halo_callable(mode):
    """The C listing of a 2-rank TTI build calls a ``halo*`` function
    for every exchange, hoisted preamble exchanges included, and
    defines each one it calls.  Each exchanger's callable prints its
    own tags: inside ``[tag_base, tag_base + 64)``, and no tag twice."""
    def listing(comm):
        configuration['build_cache'] = 'off'
        solver, _ = tti_setup(shape=(16, 14), nbl=2, tn=5.0, comm=comm,
                              mpi=mode, nrec=4)
        program = solver.op.kernel.artifact.payload['program']
        return solver.op.ccode, program['exchangers']
    for ccode, exchangers in run_parallel(listing, 2):
        called = set(re.findall(r'^\s*(halo\w+)\(', ccode, re.M))
        defined = set(re.findall(r'^static void (halo\w+)\(', ccode, re.M))
        assert any(name.startswith('haloupdate_pre_') for name in called)
        assert called <= defined, called - defined
        bases = {ex['key']: ex['tag_base'] for ex in exchangers}
        seen = set()
        for name, tags in _callable_tags(ccode).items():
            if name.startswith('halounpack'):
                continue
            # haloupdate0_p <-> 'h0_p', haloupdate_pre_theta <-> 'pre_theta'
            suffix = re.sub(r'^halo(update|begin)', '', name)
            base = bases[suffix[1:] if suffix[0] == '_' else 'h' + suffix]
            assert tags, name
            assert all(base <= tag < base + 64 for tag in tags), (name, tags)
            assert not tags & seen, (name, tags & seen)
            seen |= tags


def _statements(lines):
    """The C statements among ``lines``, every array access (a
    subscripted ``u[t1][2 + x][2 + y]`` or a flattened ``u[...]``)
    replaced by ``u[]``."""
    return [re.sub(r'\b(\w+)(?:\[[^\[\]]*\])+', r'\1[]', line.strip())
            for line in lines
            if ' = ' in line or ' += ' in line
            if not line.strip().startswith(('for ', 'const long', '#'))]


def _block(source, start, end):
    """The lines of ``source`` from the line holding ``start`` up to
    the next line equal to ``end``, stripped."""
    lines = source.splitlines()
    first = next(i for i, line in enumerate(lines) if start in line)
    last = next(i for i in range(first + 1, len(lines))
                if lines[i] == end)
    return lines[first + 1:last]


@pytest.mark.parametrize('dtype', [np.float32, np.float64],
                         ids=['float32', 'float64'])
@pytest.mark.parametrize('setup', [acoustic_setup, elastic_setup, tti_setup,
                                   viscoelastic_setup],
                         ids=['acoustic', 'elastic', 'tti', 'viscoelastic'])
def test_listing_prints_the_executed_statements(setup, dtype, monkeypatch):
    """Array accesses aside, every statement ``op.ccode`` prints in a
    compute or sparse section is the statement the compiled step runs
    for that section's cluster or sparse operation
    (:func:`~repro.codegen.cgen.generate_c_steps`): the same
    temporaries, casts and operation order."""
    from repro.codegen.cgen import generate_c_steps
    from repro.models.seismic.model import SeismicModel
    configuration['build_cache'] = 'off'
    init = SeismicModel.__init__
    # the setups build their model in the default float32
    monkeypatch.setattr(SeismicModel, '__init__', lambda self, *a, **k:
                        init(self, *a, **dict(k, dtype=dtype)))
    solver, _ = setup(shape=(10, 9), nbl=2, tn=5.0, nrec=2)
    op = solver.op
    assert op.grid.dtype == dtype
    source, meta = generate_c_steps(op.schedule)
    program = op.kernel.artifact.payload['program']
    checked = set()
    for sec in program['loop']:
        if sec['kind'] not in ('compute', 'sparse'):
            continue
        listed = _statements(_block(op.ccode, '/* begin %s */' % sec['name'],
                                    '    /* end %s */' % sec['name']))
        name = meta[sec['step']]['name']
        if sec['kind'] == 'compute':
            executed = _statements(_block(
                source, 'void __attribute__((noinline)) %s_nest(' % name,
                '}'))
        else:
            # the contribution, not the loop's bindings
            listed = [line for line in listed if '__w[]' in line]
            executed = [line for line in _statements(_block(
                source, ' %s(__rp_binding' % name, '}')) if '__w[]' in line]
        assert executed and len(listed) % len(executed) == 0, sec['name']
        # one copy of the cluster's body per iteration box
        assert listed == executed * (len(listed) // len(executed)), \
            sec['name']
        checked.add(sec['kind'])
    assert checked == {'compute', 'sparse'}
