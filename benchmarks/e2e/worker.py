"""One launch of the program under test, in a fresh interpreter.

``run.py`` starts this file as a subprocess for every launch — a second
in-process build would be warm (the expression core is hash-consed and
the build cache has a process-wide memory tier), so isolation has to be
per process.  The job arrives as a JSON file, the seeded inputs as an
``.npz`` next to it, configuration through the ``REPRO_*`` environment
the parent prepared; the result leaves as a JSON file.

    python worker.py <job.json> <t0>

``t0`` is the parent's ``time.time()`` just before the spawn, so set-up
times include interpreter start and imports, as a user pays them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import threading
import time

import numpy as np

import tracing
import workloads as W

_INSTALL_LOCK = threading.Lock()


def _rss_mb():
    """Peak resident set of this process in MiB.

    ``VmHWM``, not ``ru_maxrss``: after fork + exec the latter starts at
    the *parent's* resident set, so a small launch under a large
    ``run.py`` would report the harness, not the program."""
    try:
        with open('/proc/self/status', encoding='ascii') as f:
            for line in f:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_inputs(path):
    if path.endswith('.json'):  # survey inputs are plain lists
        with open(path, encoding='utf-8') as f:
            return json.load(f)
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def _assert_backend(op, wl):
    if op.backend != wl['backend']:
        raise RuntimeError("backend=%s silently demoted to %s"
                           % (wl['backend'], op.backend))


class Launch:
    """State shared by the rank threads of one launch."""

    def __init__(self, job, t0):
        self.job = job
        self.t0 = t0
        self.wl = W.WORKLOADS[job['workload']]
        self.inputs = _load_inputs(job['inputs'])
        self.tracer = tracing.Tracer() if job.get('trace') else None
        self.shared = {}     # digest assembly buffers (see W.digest)
        self.result = {}     # filled by rank 0
        self.traced = []     # per traced apply: {rank: (root, summary, ..)}


def _shot(problem, comm, shared):
    """One shot: reset + apply + the receiver record copied out, i.e.
    what one client of a forward-modelling loop waits for; then the
    untimed digest.  Returns (apply seconds, shot latency, digest)."""
    tic = time.perf_counter()
    secs, _ = W.timed_apply(problem, comm)
    record = problem.rec.data.copy()
    latency = time.perf_counter() - tic
    del record
    return secs, latency, W.digest(problem, comm, shared)


def _timed_blocks(problem, comm, seconds, shared, reference=None):
    """Closed loop of blocks until ``seconds`` elapsed (rank 0 decides).

    A block is one apply of the serial reference (rank 0 runs it on its
    private one-rank world while the other ranks wait at the next
    collective) followed by shots of the workload for as long again, at
    least two.  ``speedup_vs_serial`` is taken per block: this box
    changes speed from one second to the next, and only neighbours in
    time see the same machine.  Returns (blocks, digests, reference
    digests).
    """
    blocks, digests, ref_digests = [], [], []
    start = tic = time.perf_counter()
    while True:
        # another block only if one as long as the last still fits
        now = time.perf_counter()
        more = not blocks or (now - start) + (now - tic) <= seconds
        if not comm.bcast(more, root=0):
            break
        tic = time.perf_counter()
        block = {'reference_s': None, 'apply_s': [], 'shot_s': []}
        if reference is not None:
            ref_problem, ref_comm, ref_shared = reference
            block['reference_s'], _, d = _shot(ref_problem, ref_comm,
                                               ref_shared)
            ref_digests.append(d)
        budget = 2 * (time.perf_counter() - tic)
        while True:
            secs, latency, d = _shot(problem, comm, shared)
            block['apply_s'].append(secs)
            block['shot_s'].append(latency)
            digests.append(d)
            again = len(block['apply_s']) < 2 or \
                time.perf_counter() - tic < budget
            if not comm.bcast(again, root=0):
                break
        blocks.append(block)
    return blocks, digests, ref_digests


def _op_facts(problem):
    """Exact build-side facts of one rank's operator."""
    op = problem.op
    kernel = op.kernel
    facts = {
        'cache_status': op.cache_info()['status'],
        'buildcache.artifact_bytes': op.cache_info()['nbytes'],
        'codegen.py_source_lines': op.pycode.count('\n'),
        'codegen.c_source_bytes': len(kernel.c_source or ''),
        'codegen.so_bytes': os.path.getsize(kernel.so_path)
        if kernel.so_path else 0,
        'analysis.errors': len(op.analysis.errors)
        if op.analysis is not None else 0,
        'flops_per_point': op.flops_per_point,
        'traffic_per_point': op.traffic_per_point,
    }
    if op.cache_info()['status'] != 'hit':
        steps = op.schedule.steps
        facts.update({
            'ir.dag_nodes': op.schedule.dag_stats()['unique_nodes'],
            'ir.compute_steps': sum(1 for s in steps if s.is_compute),
            'ir.halo_steps': sum(1 for s in steps if s.is_halo),
            'ir.sparse_steps': sum(1 for s in steps if s.is_sparse),
        })
    return facts


def _counters(problem, comm):
    ex = {'calls': 0, 'messages': 0, 'bytes': 0}
    for e in problem.op.kernel.exchangers.values():
        c = e.counters()
        ex['calls'] += c['ncalls']
        ex['messages'] += c['nmessages']
        ex['bytes'] += c['nbytes_sent']
    return ex, comm.world.comm_health()


# -- operator launches -------------------------------------------------------

def _operator_body(comm, launch):
    job, wl, shared = launch.job, launch.wl, launch.shared
    if job.get('variant') == 'oracle':
        wl = W.oracle_spec(wl)
    problem = W.build_problem(
        wl, launch.inputs, comm,
        span=launch.tracer.span if launch.tracer is not None else None)
    comm.barrier()
    setup_s = time.time() - launch.t0
    _assert_backend(problem.op, wl)
    statuses = comm.gather(problem.op.cache_info()['status'], root=0)

    # the cold job: first apply, shot record in hand
    W.timed_apply(problem, comm, do_reset=False)
    record = problem.rec.data.copy()
    job_s = time.time() - launch.t0
    del record
    rss_mb = _rss_mb()
    digests = [W.digest(problem, comm, shared)]

    out = launch.result
    if comm.rank == 0:
        out.update(setup_s=setup_s, job_s=job_s, cache_statuses=statuses,
                   backend=problem.op.backend,
                   points=int(np.prod(problem.op.grid.shape)),
                   steps=problem.steps, rss_mb=rss_mb,
                   facts=_op_facts(problem))

    seconds = float(job.get('measure_seconds') or 0.0)
    if seconds > 0:
        reference = None
        if comm.rank == 0:
            reference = _build_reference(launch)
        blocks, more, ref_digests = _timed_blocks(problem, comm, seconds,
                                                  shared, reference)
        digests += more
        if comm.rank == 0:
            out.update(blocks=blocks, reference_digests=ref_digests)
    if launch.tracer is not None and job.get('traced_seconds'):
        _traced_applies(problem, comm, launch)
    if comm.rank == 0:
        out['digests'] = digests


def _traced_applies(problem, comm, launch):
    """Install the run-path proxies, then alternate traced and untraced
    timed applies (proxies switched off pass straight through), keeping
    a span tree and counter deltas per traced apply and rank."""
    tracer = launch.tracer
    comm.barrier()
    with _INSTALL_LOCK:
        tracing.install_apply_proxies(tracer, problem.op)
    spans = tracer.spans
    deadline = time.perf_counter() + float(launch.job['traced_seconds'])
    res = launch.result
    if comm.rank == 0:
        res.update(traced_digests=[], untraced_apply_s=[])
    count = 0
    while True:
        more = count < 6 or time.perf_counter() < deadline
        if not comm.bcast(more, root=0):
            break
        comm.barrier()  # the previous apply's traffic is all counted
        tracer.enabled = count % 2 == 0
        count += 1
        mark = len(spans)
        ex0, health0 = _counters(problem, comm)
        secs, summary = W.timed_apply(problem, comm)
        ex1, health1 = _counters(problem, comm)
        if tracer.enabled:
            root = next(r for r in spans[mark:]
                        if r[tracing.NAME] == 'operator.apply'
                        and r[tracing.RANK] == comm.rank)
            row = {'root': root, 'summary': summary, 'apply_s': secs,
                   'mark': mark,
                   'halo': {k: ex1[k] - ex0[k] for k in ex0},
                   'sim': {k: health1[k] - health0[k]
                           for k in ('nsends', 'nbytes_sent', 'retries',
                                     'checkpoint_bytes')}}
            if comm.rank == 0:
                launch.traced.append({})
            comm.barrier()
            launch.traced[-1][comm.rank] = row
        elif comm.rank == 0:
            res['untraced_apply_s'].append(secs)
        d = W.digest(problem, comm, launch.shared)
        if comm.rank == 0:
            res['traced_digests'].append(d)
    tracer.enabled = True
    if comm.rank == 0:
        res['sparse_points_rank0'] = sum(
            len(plan['pids'])
            for plan in problem.op.kernel.sparse_plans.values())


def _build_reference(launch):
    """The workload's serial reference, on a private one-rank world of
    the calling thread: (problem, comm, digest buffers)."""
    from repro.mpi.sim import serial_comm
    wl = W.reference_spec(launch.wl)
    comm = serial_comm()
    problem = W.build_problem(wl, launch.inputs, comm)
    _assert_backend(problem.op, wl)
    return problem, comm, {}


def _finish_trace(launch):
    """Breakdowns and the exported spans (build + the last apply)."""
    tracer, res = launch.tracer, launch.result
    spans = tracer.spans
    kids = tracing._children(spans)
    backend = res['backend']
    rows = []
    for per_rank in launch.traced:
        row = {}
        for rank, rec in per_rank.items():
            b = tracing.apply_breakdown(rec['root'], kids, rec['summary'],
                                        backend)
            b['apply_barrier_s'] = rec['apply_s']
            b['halo.calls'] = rec['halo']['calls']
            b['halo.messages'] = rec['halo']['messages']
            b['halo.bytes'] = rec['halo']['bytes']
            b['sim.messages'] = rec['sim']['nsends']
            b['sim.bytes'] = rec['sim']['nbytes_sent']
            b['sim.retries'] = rec['sim']['retries']
            b['resilience.checkpoint_bytes'] = \
                rec['sim']['checkpoint_bytes']
            row[str(rank)] = b
        rows.append(row)
    res['traced_applies'] = rows
    res['build_layers'] = tracing.build_breakdown(spans)
    # everything before the first traced apply (the build; transport
    # spans of the digest barriers dropped) and the last traced apply
    marks = [per_rank[0]['mark'] for per_rank in launch.traced] \
        or [len(spans)]
    keep = [r for r in spans[:marks[0]]
            if r[tracing.LAYER] != 'sim'] + spans[marks[-1]:]
    res['spans'] = tracer.export(keep, launch_id=launch.job['launch_id'])


def _triad(nbytes):
    """NumPy triad ``a = b + 3 c`` as two in-place ufunc passes over
    arrays of ``nbytes`` each; computed traffic is five array sweeps."""
    n = int(nbytes) // 8
    b, c, a = np.ones(n), np.full(n, 2.0), np.empty(n)
    best = float('inf')
    for _ in range(3):
        tic = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - tic)
    return {'array_bytes': n * 8, 'gbs': 5 * n * 8 / best / 1e9}


def run_operator(launch):
    from repro.mpi import run_parallel
    if launch.tracer is not None:
        tracing.install_build_proxies(launch.tracer)
    ranks = 1 if launch.job.get('variant') == 'oracle' \
        else launch.wl['ranks']
    run_parallel(_operator_body, ranks, launch)
    if launch.tracer is not None:
        _finish_trace(launch)
        if launch.job.get('triad_bytes'):
            launch.result['triad'] = _triad(launch.job['triad_bytes'])


# -- the count-only 4-rank leg -----------------------------------------------

def run_counts_r4(launch):
    """Messages and bytes per step of the three comm modes at 4 ranks
    (2x2, so corners exist), cross-checked against ``op.certificate``.
    Counts only: 4 rank threads on 2 cores say nothing about wall time.
    """
    from repro.mpi import run_parallel
    steps = launch.job['steps']
    out = {}
    mismatches = 0
    for mode in ('basic', 'diagonal', 'full'):
        wl = dict(launch.wl, ranks=4, mpi=mode, backend='numpy',
                  steps=steps)

        def body(comm, wl=wl):
            problem = W.build_problem(wl, launch.inputs, comm)
            before, _ = _counters(problem, comm)
            W.timed_apply(problem, comm)
            after, _ = _counters(problem, comm)
            predicted = problem.op.certificate.totals(steps)
            want = (sum(c for c, _ in predicted.values()),
                    sum(b for _, b in predicted.values()))
            got = (after['messages'] - before['messages'],
                   after['bytes'] - before['bytes'])
            return got, want

        per_rank = run_parallel(body, 4)
        mismatches += sum(1 for got, want in per_rank if got != want)
        out['halo.messages_per_step_r4.%s' % mode] = \
            sum(got[0] for got, _ in per_rank) / steps
        out['halo.bytes_per_step_r4.%s' % mode] = \
            sum(got[1] for got, _ in per_rank) / steps
    out['certificate.mismatches'] = mismatches
    launch.result.update(counts=out)


# -- survey launches ---------------------------------------------------------

def _shot_digest(arrays):
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).data)
    return h.hexdigest()


def run_survey_oracle(launch):
    """Solo serial ``backend=numpy`` run of every distinct shot."""
    from repro.service import run_shot_solo
    specs, idents = W.survey_specs(launch.wl, launch.inputs)
    digests = {}
    for spec, ident in zip(specs, idents):
        key = '%d-%d' % ident
        if key not in digests:
            solo = run_shot_solo(spec)
            digests[key] = _shot_digest(
                {k: solo[k] for k in ('wavefield', 'rec')})
    launch.result.update(digests=digests)


def _run_batch(specs, workers, pool, service_dir):
    from repro.service import SurveyScheduler
    sched = SurveyScheduler(
        workers=workers, pool=pool,
        store=os.path.join(service_dir, 'store'),
        record_dir=os.path.join(service_dir, 'records'))
    ids = sched.submit_batch(specs)
    report = sched.run()
    return sched, ids, report


def _batch_row(sched, ids, report, idents):
    """Timings of one batch plus the digests of its fetched results."""
    results = [sched.result(jid) for jid in ids]
    recs = sched.jobs
    # when the last structure delivered its first result: from then on
    # the service is warm for the whole survey
    first_done = {}
    for rec, ident in zip(recs, idents):
        structure = ident.split('-')[0]
        first_done[structure] = min(first_done.get(structure, rec.finished_at),
                                    rec.finished_at)
    return {
        'batch_s': report.wall_seconds,
        'failed': len(report.failed),
        'latency_s': [r.latency_seconds for r in recs],
        'queue_wait_s': [r.started_at - r.submitted_at for r in recs],
        'apply_s': [r.perf['elapsed'] for r in recs],
        'points_steps': sum(r.perf['points'] * r.perf['timesteps']
                            for r in recs),
        'all_warm_at': max(first_done.values()),
        'idents': idents,
        'digests': [_shot_digest(r) for r in results],
    }


def run_survey(launch):
    """One service process: a start batch, then steady-state batches.

    A cold launch (``start='full'``) drains the whole survey against an
    empty cache: every structure builds once.  A warm launch
    (``start='mini'``) first serves one shot per structure against the
    cache directory a cold launch left, then repeats the whole survey on
    the parked pool — 2 workers, then 1 worker as the serial reference.
    """
    from repro import configuration
    from repro.codegen import jit
    job, wl, tracer = launch.job, launch.wl, launch.tracer
    if tracer is not None:
        tracing.install_build_proxies(tracer)
    specs, idents = W.survey_specs(wl, launch.inputs)
    idents = ['%d-%d' % i for i in idents]
    service_dir = configuration['service_dir']
    res = launch.result
    pool = None

    def batch(workers, which=None):
        nonlocal pool
        chosen = range(len(specs)) if which is None else which
        sched, ids, report = _run_batch([specs[i] for i in chosen], workers,
                                        pool, service_dir)
        pool = sched.pool
        return sched, ids, report, [idents[i] for i in chosen]

    def one(workers):
        return _batch_row(*batch(workers))

    def blocks(seconds):
        """As ``_timed_blocks``: a 1-worker batch (the serial reference),
        then 2-worker batches for as long again."""
        out = []
        start = tic = time.perf_counter()
        while True:
            now = time.perf_counter()
            if out and (now - start) + (now - tic) > seconds:
                break
            tic = time.perf_counter()
            block = {'reference': one(1), 'steady': []}
            budget = 2 * (time.perf_counter() - tic)
            while not block['steady'] or time.perf_counter() - tic < budget:
                block['steady'].append(one(wl['workers']))
            out.append(block)
        return out

    which = None
    if job['start'] == 'mini':
        structures = [i.split('-')[0] for i in idents]
        which = sorted(structures.index(s) for s in set(structures))
    started = batch(wl['workers'], which)
    res['job_s'] = None
    if which is None:
        # the one-shot survey: drained and every result read back
        for jid in started[1]:
            started[0].result(jid)
        res['job_s'] = time.time() - launch.t0
    row = _batch_row(*started)
    res['setup_s'] = row['all_warm_at'] - launch.t0
    res['start_batch'] = row
    res['rss_mb'] = _rss_mb()
    res['cache'] = dict(pool.cache.stats)
    res['backend'] = jit.resolve_backend(configuration['backend'],
                                         warn=False)
    if res['backend'] != wl['backend']:
        raise RuntimeError("backend=%s silently demoted to %s"
                           % (wl['backend'], res['backend']))
    shot_spans = []
    if tracer is not None:
        build_spans = list(tracer.spans)
        res['build_layers'] = tracing.build_breakdown(build_spans,
                                                      rank=None)

    if job.get('measure_seconds'):
        res['blocks'] = blocks(float(job['measure_seconds']))
    if tracer is not None and job.get('traced_seconds'):
        from repro.service import ArrayStore
        store = ArrayStore(os.path.join(service_dir, 'store'))
        tracing.install_service_proxies(tracer)
        mark = len(tracer.spans)
        # alternate traced and untraced steady batches (proxies off
        # pass straight through) to price the tracing itself
        res.update(traced_steady=[], steady=[])
        bytes0 = store.nbytes()
        deadline = time.perf_counter() + float(job['traced_seconds'])
        while len(res['steady']) < 2 or time.perf_counter() < deadline:
            for key in ('traced_steady', 'steady'):
                tracer.enabled = key == 'traced_steady'
                res[key].append(one(wl['workers']))
        tracer.enabled = True
        nbatches = len(res['traced_steady']) + len(res['steady'])
        res['store_bytes'] = (store.nbytes() - bytes0) / nbatches
        nshots = len(res['traced_steady']) * len(specs)
        per_shot = {}
        for rec in tracer.spans[mark:]:
            if rec[tracing.END] is not None:
                per_shot[rec[tracing.NAME]] = per_shot.get(
                    rec[tracing.NAME], 0.0) + (rec[tracing.END]
                                               - rec[tracing.START])
        res['service_per_shot'] = {k: v / nshots
                                   for k, v in per_shot.items()}
        # the build spans of both worker lanes go out below; add the
        # first traced shots
        shot_spans = tracer.spans[mark:mark + 400]
    if tracer is not None:
        res['spans'] = tracer.export(build_spans + shot_spans,
                                     launch_id=job['launch_id'])
    res['pool'] = pool.snapshot_stats()


MODES = {'operator': run_operator, 'counts_r4': run_counts_r4,
         'survey_oracle': run_survey_oracle, 'survey': run_survey}


def main(argv):
    job_path, t0 = argv[1], float(argv[2])
    with open(job_path, encoding='utf-8') as f:
        job = json.load(f)
    launch = Launch(job, t0)
    MODES[job['mode']](launch)
    with open(job['out'], 'w', encoding='utf-8') as f:
        json.dump(launch.result, f, default=float)


if __name__ == '__main__':
    main(sys.argv)
