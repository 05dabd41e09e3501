"""Tests of the benchmark harness itself.

Not collected by tier-1 (``testpaths = ["tests"]``); run explicitly::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_harness.py

They use small NumPy-backend problems, so they need no C toolchain and
take a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, 'src'))

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from stats import spread, summarize  # noqa: E402

SMALL = dict(kind='operator', kernel='acoustic', shape=(40, 40), nbl=6,
             space_order=4, backend='numpy', ranks=2, mpi='diagonal',
             nrec=4, steps=24)


def small_inputs(seed=3):
    rng = np.random.default_rng(seed)
    return {'vp': W.layered_vp(SMALL['kernel'], SMALL['shape'], rng)}


def run_small(body, wl=SMALL, inputs=None):
    from repro import configuration
    from repro.mpi import run_parallel
    configuration['backend'] = wl['backend']
    configuration['build_cache'] = 'off'
    inputs = inputs or small_inputs()
    shared = {}
    return run_parallel(
        lambda comm: body(W.build_problem(wl, inputs, comm), comm, shared),
        wl['ranks'])[0]


# -- repeatable work per sample ----------------------------------------------

def test_reset_makes_consecutive_applies_identical():
    def body(problem, comm, shared):
        out = []
        for _ in range(3):
            W.timed_apply(problem, comm)
            out.append(W.digest(problem, comm, shared))
        return out
    digests = run_small(body)
    assert len(set(digests)) == 1


def test_dropping_the_reset_changes_the_work():
    """Without zeroing, the second apply starts from the first one's
    wavefield: different inputs, different floating-point work (the
    denormal drift of README.md) and a different result."""
    def body(problem, comm, shared):
        W.timed_apply(problem, comm)
        first = W.digest(problem, comm, shared)
        W.timed_apply(problem, comm, do_reset=False)
        return first, W.digest(problem, comm, shared)
    first, second = run_small(body)
    assert first != second


def test_digest_does_not_depend_on_the_decomposition():
    def body(problem, comm, shared):
        W.timed_apply(problem, comm)
        return W.digest(problem, comm, shared)
    inputs = small_inputs()
    assert run_small(body, inputs=inputs) == \
        run_small(body, wl=W.serial_spec(SMALL), inputs=inputs)


def test_inputs_are_a_function_of_the_seed():
    for name in ('ac2d_sparse_r2', 'survey_batch'):
        a, b, c = (W.make_inputs(name, s) for s in (5, 5, 6))
        same = all(np.array_equal(a[k], b[k]) for k in a)
        differs = any(not np.array_equal(a[k], c[k]) for k in a)
        assert same and differs
    vp = W.make_inputs('visco2d_r2_diag', 5)['vp']
    assert vp.dtype == np.float32
    assert W.make_inputs('ac3d_serial', 5)['vp'].tobytes() == \
        W.make_inputs('ac3d_r2_full', 5)['vp'].tobytes()


def test_survey_batch_shape():
    wl = W.WORKLOADS['survey_batch']
    specs, idents = W.survey_specs(wl, W.make_inputs('survey_batch', 1))
    assert len(specs) == 32 and len(set(idents)) == 16
    assert all(idents.count(i) == wl['repeats'] for i in set(idents))
    assert len({s.structure_key() for s in specs}) == 4
    # one pilot per structure outranks the seeded priorities
    pilots = sorted((s.priority, i[0]) for s, i in zip(specs, idents)
                    if s.priority > 2)
    assert [p[1] for p in pilots] == [3, 2, 1, 0]


# -- tracing -----------------------------------------------------------------

def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(2000))

    inner = tracer.wrap(inner, 'inner', 'b')
    with tracer.span('outer', 'a') as outer:
        inner()
        inner()
    kids = tracing._children(tracer.spans)
    assert [k[tracing.NAME] for k in kids[id(outer)]] == ['inner', 'inner']
    exported = tracer.export(launch_id='t')
    assert [s['parent'] for s in exported] == [None, 0, 0]
    assert all(s['end'] >= s['start'] for s in exported)
    tracer.enabled = False
    inner()
    assert len(tracer.spans) == 3


#: class-level proxies bind to the tracer that installed them first, so
#: the traced tests share one and switch it on only while they run
TRACER = tracing.Tracer()
TRACER.enabled = False
_INSTALL = threading.Lock()


@pytest.mark.parametrize('mode', ['basic', 'diagonal', 'full'])
def test_apply_is_attributed_completely(mode):
    """Layer seconds partition each rank's root span exactly."""
    rows = {}

    def body(problem, comm, shared):
        with _INSTALL:
            tracing.install_apply_proxies(TRACER, problem.op)
        comm.barrier()
        TRACER.enabled = True
        mark = len(TRACER.spans)
        _, summary = W.timed_apply(problem, comm)
        root = next(r for r in TRACER.spans[mark:]
                    if r[tracing.NAME] == 'operator.apply'
                    and r[tracing.RANK] == comm.rank)
        rows[comm.rank] = (root, summary)
        comm.barrier()

    try:
        run_small(body, wl=dict(SMALL, mpi=mode))
    finally:
        TRACER.enabled = False
    kids = tracing._children(TRACER.spans)
    assert sorted(rows) == [0, 1]
    for root, summary in rows.values():
        b = tracing.apply_breakdown(root, kids, summary, 'numpy')
        parts = sum(b[k] for k in tracing.APPLY_PARTITION)
        assert parts == pytest.approx(b['operator.apply_s'], rel=1e-9)
        assert b['compute.s'] > 0 and b['halo.self_s'] > 0
        assert b['halo.update_s'] + b['halo.wait_s'] > 0


# -- statistics and comparison -----------------------------------------------

def test_summarize():
    st = summarize(range(1, 102))
    assert st['median'] == 51 and st['n'] == 101
    assert st['p_high']['p'] == 90.0
    assert summarize([1.0, 2.0, 3.0])['p_high'] is None
    assert spread(summarize([10.0, 10.0, 10.0])) == 0.0


def _result(median, q1, q3, failed=0, layers=None):
    st = {'median': median, 'q1': q1, 'q3': q3, 'n': 9, 'p_high': None}
    return {'workloads': {'w': {
        'seed': 1, 'metrics': {'apply_s': st}, 'failed': failed,
        'attempted': 10, 'ops_failed_frac': failed / 10,
        'layers': layers}}}


def test_compare_verdicts(capsys):
    bounds = {'apply_s': ('lower', 0.10)}
    base = _result(1.0, 0.98, 1.02)
    assert compare.compare(base, _result(1.05, 1.03, 1.07), bounds) == 0
    assert ' ok' in capsys.readouterr().out
    assert compare.compare(base, _result(1.2, 1.19, 1.21), bounds) == 1
    assert 'worse' in capsys.readouterr().out
    assert compare.compare(base, _result(1.0, 0.9, 1.1), bounds) == 0
    assert 'unresolved' in capsys.readouterr().out
    assert compare.compare(base, _result(1.0, 0.98, 1.02, failed=1),
                           bounds) == 1
    capsys.readouterr()
    a = _result(1.0, 0.98, 1.02, layers={'halo.messages': 960})
    b = _result(1.0, 0.98, 1.02, layers={'halo.messages': 480})
    assert compare.compare(a, b, bounds) == 1
    assert 'exact count differs' in capsys.readouterr().out


def test_benchmark_json_names_what_run_py_reports():
    import run
    with open(os.path.join(ROOT, 'BENCHMARK.json'), encoding='utf-8') as f:
        spec = json.load(f)
    assert [w['name'] for w in spec['workloads']] == list(W.WORKLOADS)
    assert spec['paths'] == ['benchmarks/e2e']
    assert set(compare.EXACT) <= set(run.contract_units(True))
    times = [0.1, 0.2, 0.3]
    samples = dict.fromkeys(
        ('setup_s', 'rebuild_warm_s', 'job_cold_s', 'apply_s',
         'reference_apply_s', 'speedup_vs_serial', 'shot_latency_s',
         'peak_rss_mb', 'batch_s', 'reference_batch_s',
         'shot_latency_pooled_s'), times)
    res = {'samples': samples, 'work': 1e6, 'ranks': 2, 'nshots': 32}
    wanted = set(run.contract_units(False))
    assert set(run.operator_metrics(res)) == wanted
    assert set(run.survey_metrics(res)) == wanted


def test_run_py_refuses_a_tree_without_the_program(tmp_path):
    """The driver also runs the command in a directory holding only
    BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    shutil.copy(os.path.join(ROOT, 'BENCHMARK.json'), tmp_path)
    shutil.copytree(HERE, tmp_path / 'benchmarks' / 'e2e',
                    ignore=shutil.ignore_patterns('__pycache__', 'results'))
    proc = subprocess.run(
        [sys.executable, 'benchmarks/e2e/run.py', '--workload',
         'ac3d_serial', '--seed', '1', '--seconds', '1', '--trace', '0'],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
