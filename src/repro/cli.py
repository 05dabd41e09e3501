"""Command-line benchmark runner mirroring the paper's example scripts.

The paper's Appendix C runs jobs like::

    python examples/seismic/acoustic/acoustic_example.py \\
        -d 1024 1024 1024 --tn 512 -so 8 -a aggressive

This module provides the equivalent entry point::

    python -m repro.cli acoustic -d 101 101 --tn 250 -so 8 --mpi diagonal

printing the same kind of performance report (GPts/s, GFlops/s, OI) —
at laptop scale on the simulated substrate.  ``--ranks N`` runs the same
problem SPMD over N simulated MPI ranks and verifies the result against
the serial run.

A second mode runs the static verifier (:mod:`repro.analysis`) over the
generated schedule *without* executing anything::

    python -m repro.cli analyze acoustic -d 101 101 -so 8 \\
        --mpi diagonal --ranks 4 --dump-schedule

building the operator on every simulated rank, running all analysis
passes (halo coverage, race detection, dead-code lint, the in-bounds
proof) and printing the cross-rank merged diagnostic report; the exit
status is nonzero when any ``REPRO-E*`` diagnostic fires on any rank.
``--dump-schedule`` additionally prints the human-readable schedule,
``--certificate`` the per-rank static communication certificates, and
``--format json`` the stable machine-readable schema.  The benchmark
mode's ``--sanitize`` flag instead instruments the *run*: bare or
``poison`` for the NaN poisoned-halo sanitizer, ``reconcile`` to check
the commlog send ledger against the static certificate after every
``apply``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import configuration
from .mpi.faults import RankKilledError

__all__ = ['main', 'run_analyze', 'run_benchmark', 'run_cache',
           'run_doctor', 'run_fetch', 'run_serve', 'run_status',
           'run_submit']

#: the configuration keys each verb exposes as flags (``None``: the
#: benchmark run); a flag's spelling, type, choices and help come from
#: the key's :class:`~repro.parameters.Parameter`, and its value applies
#: through ``configuration.override`` for the duration of the verb
VERB_KEYS = {
    None: ('faults', 'recovery', 'repartition', 'repartition_every',
           'repartition_weights', 'checkpoint_every', 'checkpoint_dir',
           'checkpoint_keep', 'health_check_every', 'sanitizer',
           'build_cache', 'cache_dir', 'backend'),
    'doctor': ('cache_dir',),
    'cache': ('cache_dir',),
    'analyze': (),
    'submit': ('service_dir',),
    'serve': ('service_dir', 'service_workers', 'service_retries',
              'build_cache'),
    'status': ('service_dir',),
    'fetch': ('service_dir',),
}

#: what the serial reference of ``--verify`` resets to the registry
#: defaults: it runs fault-free, recovery-free and unrepartitioned
_SERIAL_RESET = ('faults', 'recovery', 'checkpoint_every',
                 'health_check_every', 'repartition', 'repartition_every',
                 'repartition_weights')


def _flag_type(key):
    """argparse ``type`` validating a flag value as ``configuration[key]``
    would (a rejected value exits with the registry's message)."""
    spec = configuration.parameter(key)

    def convert(text):
        try:
            return spec.validate(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


def _config_flags(p, verb):
    """Add the flags of the configuration keys ``verb`` exposes; a flag
    not given parses to None (the configured value stays)."""
    group = p.add_argument_group(
        'configuration (a flag overrides its REPRO_* environment variable)')
    for key in VERB_KEYS[verb]:
        spec = configuration.parameter(key)
        bare = {} if spec.bare is None else {'nargs': '?',
                                             'const': spec.bare}
        group.add_argument(
            spec.flag, dest=key, type=_flag_type(key),
            choices=spec.accepted,
            metavar=None if spec.accepted else spec.metavar,
            help='%s (env %s; default %r)'
                 % (spec.description, spec.env, spec.default), **bare)
    return p


def _parser():
    p = argparse.ArgumentParser(
        prog='python -m repro.cli',
        description='Run a wave-propagator benchmark (paper Listing 14 '
                    'style).')
    p.add_argument('kernel', choices=['acoustic', 'elastic', 'tti',
                                      'viscoelastic'])
    p.add_argument('-d', '--shape', nargs='+', type=int,
                   default=[101, 101], metavar='N',
                   help='grid points per dimension (2 or 3 values)')
    p.add_argument('--tn', type=float, default=250.0,
                   help='simulation end time in ms')
    p.add_argument('-so', '--space-order', type=int, default=8,
                   help='spatial discretization order (SDO)')
    p.add_argument('--nbl', type=int, default=10,
                   help='absorbing boundary layer width in points')
    p.add_argument('--mpi', choices=['basic', 'diagonal', 'full'],
                   default='basic', help='DMP communication pattern')
    p.add_argument('--ranks', type=int, default=1,
                   help='simulated MPI ranks (1 = serial)')
    p.add_argument('--topology', nargs='+', type=int, default=None,
                   help='process grid (0 entries auto-derived)')
    p.add_argument('--no-opt', action='store_true',
                   help='disable CSE/factorization/hoisting')
    p.add_argument('--verify', action='store_true',
                   help='with --ranks > 1: check against the serial run '
                        '(which runs fault-, recovery- and '
                        'repartition-free)')
    p.add_argument('--profile', nargs='?', const='basic',
                   choices=['basic', 'advanced'], default=None,
                   help='print the per-section performance table '
                        '(advanced: also record per-timestep traces and '
                        'write a JSON artifact, see --profile-out)')
    p.add_argument('--profile-out', default='repro_profile.json',
                   metavar='PATH',
                   help='JSON artifact path for --profile advanced '
                        '(loadable by repro.perfmodel.report.'
                        'load_profile_json)')
    p.add_argument('--resume', action='store_true',
                   help='start from the newest valid checkpoint in '
                        '--checkpoint-dir instead of timestep 0')
    p.add_argument('--dump-schedule', action='store_true',
                   help='print the human-readable schedule of the '
                        'generated operator (one line per step, with '
                        'profiling section names and halo depths)')
    return _config_flags(p, None)


def _doctor_parser():
    p = argparse.ArgumentParser(
        prog='python -m repro.cli doctor',
        description='Diagnose the execution environment: C toolchain '
                    'discovery ($CC, then cc/gcc/clang), a smoke '
                    'compile+dlopen round trip, cffi availability, '
                    'build-cache directory health, and which backend '
                    'an Operator build would select right now.')
    p.add_argument('--require-c', action='store_true',
                   help='exit nonzero unless the compiled backend is '
                        'usable end-to-end (the CI exec-job gate)')
    p.add_argument('--json', action='store_true',
                   help='machine-readable JSON output')
    return _config_flags(p, 'doctor')


def _cache_parser():
    p = argparse.ArgumentParser(
        prog='python -m repro.cli cache',
        description='Inspect or clear the on-disk operator build cache '
                    '(the content-addressed store under REPRO_CACHE_DIR '
                    'that warm Operator builds rehydrate from).')
    p.add_argument('action', choices=['stats', 'clear'],
                   help='stats: print cumulative hit/miss counters and '
                        'disk usage; clear: delete every cached entry '
                        '(and the counters)')
    p.add_argument('--min-hits', type=int, default=None, metavar='N',
                   help='stats: exit nonzero unless the cumulative hit '
                        'count is >= N (the CI cache-warm gate)')
    p.add_argument('--json', action='store_true',
                   help='stats: machine-readable JSON output')
    return _config_flags(p, 'cache')


def _analyze_parser():
    p = argparse.ArgumentParser(
        prog='python -m repro.cli analyze',
        description='Statically verify the generated schedule of a '
                    'propagator (halo coverage, race detection, '
                    'dead-code lint, the in-bounds proof) without '
                    'running it.')
    p.add_argument('kernel', choices=['acoustic', 'elastic', 'tti',
                                      'viscoelastic'])
    p.add_argument('-d', '--shape', nargs='+', type=int,
                   default=[101, 101], metavar='N',
                   help='grid points per dimension (2 or 3 values)')
    p.add_argument('-so', '--space-order', type=int, default=8,
                   help='spatial discretization order (SDO)')
    p.add_argument('--nbl', type=int, default=10,
                   help='absorbing boundary layer width in points')
    p.add_argument('--mpi', choices=['basic', 'diagonal', 'full'],
                   default='basic', help='DMP communication pattern')
    p.add_argument('--ranks', type=int, default=2,
                   help='simulated MPI ranks the schedule is built for '
                        '(1 = serial: the halo pass is vacuous but '
                        'races, dead code and in-bounds still run)')
    p.add_argument('--topology', nargs='+', type=int, default=None,
                   help='process grid (0 entries auto-derived)')
    p.add_argument('--weights', default=None, metavar='W,...',
                   type=_flag_type('repartition_weights'),
                   help='comma-separated per-rank split weights (one per '
                        'rank): verify the schedule a weighted elastic '
                        'repartition would run, before running it')
    p.add_argument('--no-opt', action='store_true',
                   help='disable CSE/factorization/hoisting')
    p.add_argument('--dump-schedule', action='store_true',
                   help='also print the human-readable schedule dump')
    p.add_argument('--count-nodes', action='store_true',
                   help='print DAG statistics of the scheduled '
                        'expressions (unique vs tree node counts, '
                        'sharing factor, depth)')
    p.add_argument('--certificate', action='store_true',
                   help='also print every rank\'s static communication '
                        'certificate: the predicted per-neighbor message '
                        'counts and byte volumes the reconcile sanitizer '
                        'checks at runtime')
    p.add_argument('--format', dest='fmt', choices=['text', 'json'],
                   default='text',
                   help='output format; json emits the stable machine-'
                        'readable schema (merged diagnostics with rank '
                        'lists, per-rank certificates and inferred '
                        'minimal halo widths) with the same exit status')
    p.add_argument('-v', '--verbose', action='store_true',
                   help='text format: append every rank\'s verbatim '
                        'report (schedule/source excerpts included) '
                        'after the merged cross-rank summary')
    return p


def _submit_parser():
    p = argparse.ArgumentParser(
        prog='python -m repro.cli submit',
        description='Enqueue one shot for the survey service (a JSON '
                    'spec under <dir>/queue, picked up by the next '
                    '`repro serve`).')
    p.add_argument('kernel', choices=['acoustic', 'elastic', 'tti',
                                      'viscoelastic'])
    p.add_argument('-d', '--shape', nargs='+', type=int,
                   default=[51, 51], metavar='N',
                   help='grid points per dimension (2 or 3 values)')
    p.add_argument('--tn', type=float, default=100.0,
                   help='simulation end time in ms')
    p.add_argument('-so', '--space-order', type=int, default=4,
                   help='spatial discretization order (SDO)')
    p.add_argument('--nbl', type=int, default=10,
                   help='absorbing boundary layer width in points')
    p.add_argument('--nrec', type=int, default=8,
                   help='number of surface receivers (0: none)')
    p.add_argument('--dt', type=float, default=None,
                   help='timestep override in ms (default CFL-stable)')
    p.add_argument('--priority', type=int, default=0,
                   help='scheduling priority; higher runs earlier, '
                        'ties are FIFO')
    # the job's own ShotSpec fields, not configuration overrides
    p.add_argument('--inject-faults', default=None, metavar='SPEC',
                   help='per-job fault plan (FaultPlan grammar, e.g. '
                        '"seed=1,kill=0@5"); applied to this job\'s '
                        'private world only')
    p.add_argument('--retries', type=int, default=None, metavar='N',
                   help='per-job retry budget override')
    p.add_argument('--job-id', default=None,
                   help='explicit job id (default: generated)')
    return _config_flags(p, 'submit')


def _serve_parser():
    p = argparse.ArgumentParser(
        prog='python -m repro.cli serve',
        description='Drain the queued shots over a warm operator pool: '
                    'results land in <dir>/store, per-job records in '
                    '<dir>/jobs, the batch report in <dir>/report.json. '
                    'Exits nonzero when any job failed.')
    p.add_argument('--keep-queue', action='store_true',
                   help='leave consumed spec files in <dir>/queue '
                        '(default: delete them after the drain)')
    return _config_flags(p, 'serve')


def _status_parser():
    p = argparse.ArgumentParser(
        prog='python -m repro.cli status',
        description='Show the survey service state: queued specs, '
                    'per-job records and the latest batch report.')
    p.add_argument('job_id', nargs='?', default=None,
                   help='show one job\'s full record instead of the '
                        'batch summary')
    p.add_argument('--json', action='store_true',
                   help='machine-readable JSON output')
    return _config_flags(p, 'status')


def _fetch_parser():
    p = argparse.ArgumentParser(
        prog='python -m repro.cli fetch',
        description='Load a stored result array (seal-verified) and '
                    'write it to a .npy file or print its stats.')
    p.add_argument('key',
                   help='store key, e.g. <job-id>/wavefield or '
                        '<job-id>/rec')
    p.add_argument('-o', '--out', default=None, metavar='PATH',
                   help='write the array as .npy here (default: print '
                        'shape/dtype/norm only)')
    return _config_flags(p, 'fetch')


def run_benchmark(kernel, shape, tn, space_order, nbl=10, mpi='basic',
                  ranks=1, topology=None, opt=True, verify=False,
                  out=None, profile=None, profile_out=None, resume=False,
                  dump_schedule=False, config=None):
    """Run one benchmark; returns (summary, gathered primary field).

    ``config`` maps configuration keys to the values this run uses (the
    CLI's configuration flags); ``profile`` also sets ``profiling``.
    The run happens inside ``configuration.override``, so the global
    configuration is restored however it ends.
    """
    # resolve stdout at call time (pytest capture swaps sys.stdout)
    out = out if out is not None else sys.stdout
    config = dict(config or {})
    if profile is not None:
        config['profiling'] = profile
    with configuration.override(**config):
        if configuration['backend'] == 'c':
            print('backend         : compiled C (cache-blocked loop '
                  'nests via ctypes)', file=out)
        if configuration['sanitizer'] == 'reconcile':
            print('sanitizer       : certificate reconcile mode',
                  file=out)
        elif configuration['sanitizer']:
            print('sanitizer       : poisoned-halo (NaN) mode', file=out)
        if configuration['faults']:
            print('fault injection : %s' % configuration['faults'].describe(),
                  file=out)
        if configuration['recovery'] != 'abort':
            print('recovery policy : %s' % configuration['recovery'],
                  file=out)
        if configuration['repartition'] != 'off':
            print('repartitioning  : %s' % configuration['repartition'],
                  file=out)
        from .service.spec import kernel_setup
        setup = kernel_setup(kernel)

        def single(comm=None, resume_run=False):
            solver, tr = setup(shape=tuple(shape), tn=tn,
                               space_order=space_order, nbl=nbl, comm=comm,
                               topology=tuple(topology) if topology
                               else None,
                               mpi=mpi if comm is not None else None,
                               opt=opt, nrec=16)
            result = solver.forward(**({'resume': True} if resume_run
                                       else {}))
            summary = result[-1]
            wf = result[1]
            field = wf.data.gather() if hasattr(wf, 'data') \
                else wf[0].data.gather()
            return summary, field, solver.op

        def spmd(comm):
            try:
                return single(comm, resume_run=resume)
            except RankKilledError:
                if configuration['recovery'] == 'shrink':
                    # under shrink the victim leaves the job; the
                    # survivors carry the run to completion without it
                    return None
                raise

        if ranks == 1:
            summary, field, op = single(resume_run=resume)
        else:
            from .mpi import run_parallel
            results = run_parallel(spmd, ranks)
            summary, field, op = [r for r in results if r is not None][0]
        if dump_schedule:
            print(op.schedule.dump(), file=out)
        _report(kernel, shape, space_order, mpi, ranks, summary, op, out,
                profile=profile, profile_out=profile_out)
        if verify and ranks > 1:
            # IDENTICAL proves injected faults were fully masked (non-
            # lethal plans) or fully recovered (kills + --recover)
            with configuration.override(**{
                    key: configuration.parameter(key).default
                    for key in _SERIAL_RESET}):
                _, serial_field, _ = single()
            ok = np.array_equal(field, serial_field)
            print('verification vs serial run: %s'
                  % ('IDENTICAL' if ok else 'MISMATCH'), file=out)
            if not ok:
                raise SystemExit(1)
        return summary, field


def run_analyze(kernel, shape, space_order, nbl=10, mpi='basic', ranks=2,
                topology=None, weights=None, opt=True, dump_schedule=False,
                count_nodes=False, certificate=False, fmt='text',
                verbose=False, out=None):
    """Build the operator (on every simulated rank when ``ranks > 1``)
    and run the static verifier over its schedule — no execution.

    ``weights`` (one non-negative float per rank) builds the schedule on
    the weighted decomposition an elastic rebalance would install, so a
    planned repartition can be statically verified up front.

    Diagnostics from *every* rank are merged: findings identical across
    ranks print once with the reporting rank list (``verbose`` appends
    the per-rank verbatim reports).  ``certificate`` additionally prints
    each rank's static :class:`~repro.analysis.CommCertificate`.

    ``fmt='json'`` emits the stable machine-readable schema instead
    (keys are a contract — add, never rename)::

        {"schema": 1, "kernel": ..., "shape": [...],
         "space_order": ..., "mpi": "basic"|...|null, "ranks": N,
         "clean": bool, "errors": n, "warnings": n,
         "diagnostics": [{code, severity, title, message, step_index,
                          where, ranks: [...]}, ...],
         "certificates": [per-rank CommCertificate payload, ...],
         "inferred_widths": [{"u[t]": [[l, r], ...], ...}, ...]}

    Returns the merged cross-rank :class:`~repro.analysis.
    AnalysisReport` — its ``errors`` decide the exit status, so an
    error on *any* rank fails the run in every output format.
    """
    out = out if out is not None else sys.stdout
    from .analysis import (AnalysisReport, analyze_schedule,
                           build_certificate, describe_key,
                           infer_min_widths, merge_reports, render_merged)
    from .service.spec import kernel_setup
    setup = kernel_setup(kernel)

    dim_weights = None
    if weights is not None:
        weights = tuple(float(w) for w in weights)
        if len(weights) != ranks:
            raise SystemExit('--weights expects one value per rank '
                             '(%d), got %d' % (ranks, len(weights)))
        from .mpi.cart import compute_dims
        from .resilience.elastic import rank_weights_to_dim_weights
        dims = compute_dims(ranks, len(shape),
                            given=tuple(topology) if topology else None)
        dim_weights = rank_weights_to_dim_weights(weights, dims)

    def build(comm=None):
        solver, _ = setup(shape=tuple(shape), tn=100.0,
                          space_order=space_order, nbl=nbl, comm=comm,
                          topology=tuple(topology) if topology else None,
                          weights=dim_weights if comm is not None else None,
                          mpi=mpi if comm is not None else None,
                          opt=opt, nrec=16)
        op = solver.op
        report = analyze_schedule(op.schedule, kernel=op.kernel,
                                  profiler=op.profiler)
        return (report, build_certificate(op.schedule),
                infer_min_widths(op.schedule), op)

    if ranks == 1:
        results = [build()]
    else:
        from .mpi import run_parallel
        results = run_parallel(build, ranks)
    reports = [r[0] for r in results]
    certificates = [r[1] for r in results]
    inferred = [r[2] for r in results]
    op = results[0][3]

    merged_pairs = merge_reports(reports)
    merged = AnalysisReport(diagnostics=[d for d, _ in merged_pairs],
                            schedule=op.schedule, kernel=op.kernel)

    if fmt == 'json':
        import json as _json
        payload = {
            'schema': 1,
            'kernel': kernel,
            'shape': [int(n) for n in shape],
            'space_order': int(space_order),
            'mpi': mpi if ranks > 1 else None,
            'ranks': int(ranks),
            'clean': not merged.diagnostics,
            'errors': len(merged.errors),
            'warnings': len(merged.warnings),
            'diagnostics': [dict(d.to_payload(), ranks=list(rk))
                            for d, rk in merged_pairs],
            'certificates': [c.to_payload() for c in certificates],
            'inferred_widths': [
                {describe_key(k): [list(w) for w in v]
                 for k, v in sorted(ws.items(),
                                    key=lambda kv: describe_key(kv[0]))}
                for ws in inferred],
        }
        print(_json.dumps(payload, indent=2, sort_keys=True), file=out)
        return merged

    print('--- analyze %s | shape %s | SDO %d | mpi=%s | ranks=%d ---'
          % (kernel, 'x'.join(map(str, shape)), space_order,
             mpi if ranks > 1 else 'off', ranks), file=out)
    if dim_weights is not None:
        print('weighted split   : %s' % (tuple(
            w if w is None else tuple(round(x, 4) for x in w)
            for w in dim_weights),), file=out)
    if dump_schedule:
        print(op.schedule.dump(), file=out)
    if count_nodes:
        stats = op.schedule.dag_stats()
        print('DAG: %d roots | %d unique nodes | %d tree nodes | '
              '%.2fx sharing | depth %d'
              % (stats['roots'], stats['unique_nodes'],
                 stats['tree_nodes'], stats['sharing'], stats['depth']),
              file=out)
    print(render_merged(reports, verbose=verbose), file=out)
    if certificate:
        for cert in certificates:
            print(cert.describe(), file=out)
    return merged


def _report(kernel, shape, so, mpi, ranks, summary, op, out,
            profile=None, profile_out=None):
    print('--- %s | shape %s | SDO %d | mpi=%s | ranks=%d ---'
          % (kernel, 'x'.join(map(str, shape)), so, mpi, ranks), file=out)
    print('timesteps        : %d' % summary.timesteps, file=out)
    print('elapsed          : %.4f s' % summary.elapsed, file=out)
    print('throughput       : %.4f GPts/s' % summary.gpointss, file=out)
    print('performance      : %.3f GFlops/s' % summary.gflopss, file=out)
    print('flops/point      : %d' % op.flops_per_point, file=out)
    print('operational int. : %.2f F/B (compile-time, from the AST)'
          % op.oi, file=out)
    cinfo = op.cache_info()
    if cinfo['status'] == 'hit':
        print('build cache      : hit (%s tier, saved %.3f s)'
              % (cinfo['tier'], cinfo['saved_seconds']), file=out)
    elif cinfo['status'] == 'miss':
        print('build cache      : miss (entry stored)', file=out)
    health = getattr(summary, 'comm_health', {})
    if health.get('drops_injected') or health.get('duplicates_injected') \
            or health.get('redelivered') or health.get('retries'):
        print('comm health      : drops=%d redelivered=%d retries=%d '
              'duplicates=%d unmatched=%d'
              % (health.get('drops_injected', 0),
                 health.get('redelivered', 0), health.get('retries', 0),
                 health.get('duplicates_injected', 0),
                 health.get('unmatched', 0)), file=out)
    if profile is not None and len(summary):
        print(file=out)
        print('per-section performance (rank 0 view; min/max/avg across '
              '%d rank%s):' % (summary.nranks,
                               's' if summary.nranks != 1 else ''),
              file=out)
        for line in summary.table():
            print(line, file=out)
        if profile == 'advanced' and profile_out:
            summary.save_json(profile_out)
            print('profile JSON written to %s' % profile_out, file=out)


def run_cache(action, cache_dir=None, min_hits=None, as_json=False,
              out=None):
    """The ``cache`` subcommand: inspect or clear the on-disk tier.

    Returns a process exit status (nonzero when the ``--min-hits`` gate
    fails), so CI can assert a warmed cache actually served hits.
    """
    import json as _json

    out = out if out is not None else sys.stdout
    from .buildcache import (clear_disk, disk_objects, disk_usage,
                             read_disk_stats)
    directory = configuration.resolve('cache_dir', cache_dir)
    if action == 'clear':
        removed = clear_disk(directory)
        print('build cache cleared: %d entr%s removed from %s'
              % (removed, 'y' if removed == 1 else 'ies', directory),
              file=out)
        return 0
    stats = read_disk_stats(directory)
    nentries, nbytes = disk_usage(directory)
    stats.update(entries=nentries, disk_bytes=nbytes,
                 objects=disk_objects(directory), directory=str(directory))
    if as_json:
        print(_json.dumps(stats, indent=2, sort_keys=True), file=out)
    else:
        print('build cache at %s' % directory, file=out)
        print('  entries       : %d (%d bytes on disk)'
              % (nentries, nbytes), file=out)
        print('  objects       : %d compiled (shared by the entries)'
              % stats['objects'], file=out)
        print('  hits          : %d (memory %d, disk %d)'
              % (stats['hits'], stats['memory_hits'], stats['disk_hits']),
              file=out)
        print('  misses        : %d' % stats['misses'], file=out)
        print('  stores        : %d' % stats['stores'], file=out)
        print('  errors        : %d' % stats['errors'], file=out)
        print('  time saved    : %.3f s' % stats['saved_seconds'],
              file=out)
    if min_hits is not None and stats['hits'] < min_hits:
        print('FAIL: %d cumulative hit(s) < required %d'
              % (stats['hits'], min_hits), file=out)
        return 1
    return 0


def run_doctor(require_c=False, cache_dir=None, as_json=False, out=None):
    """The ``doctor`` subcommand: diagnose the execution environment.

    Reports the discovered C toolchain (with a smoke compile+dlopen
    round trip), cffi availability, build-cache directory health and
    the backend an Operator build would select right now.  Returns a
    process exit status; ``require_c=True`` makes a missing/broken
    toolchain fatal (the first step of the CI exec job).
    """
    import json as _json
    import os

    out = out if out is not None else sys.stdout
    from .buildcache import disk_usage, read_disk_stats
    from .codegen import jit

    report = jit.toolchain_report()
    report['backend_requested'] = configuration['backend']
    report['backend_effective'] = jit.resolve_backend(
        configuration['backend'], warn=False)
    directory = os.path.abspath(configuration.resolve('cache_dir',
                                                      cache_dir))
    nentries, nbytes = disk_usage(directory)
    stats = read_disk_stats(directory)
    report['cache'] = {
        'directory': directory,
        'exists': os.path.isdir(directory),
        'writable': os.access(directory if os.path.isdir(directory)
                              else os.path.dirname(directory) or '.',
                              os.W_OK),
        'entries': nentries,
        'disk_bytes': nbytes,
        'errors': stats['errors'],
        'mode': configuration['build_cache'],
    }
    ok = report['backend_c_usable']
    if as_json:
        print(_json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        print('repro doctor', file=out)
        print('  CC (env)        : %s'
              % (report['cc_env'] or '<unset>'), file=out)
        print('  compiler        : %s'
              % (report['compiler'] or 'NOT FOUND'), file=out)
        if report['compiler_version']:
            print('  version         : %s' % report['compiler_version'],
                  file=out)
        print('  smoke compile   : %s' % (report['smoke'] or 'skipped'),
              file=out)
        if report['object_key']:
            # what a compiled object's cache key folds in besides its
            # source: objects differing in any of these are never shared
            print('  object key      : flags %s; cpu %s'
                  % (report['object_key']['flags'],
                     report['object_key']['cpu']), file=out)
        print('  cffi            : %s'
              % ('available' if report['cffi'] else 'not installed '
                 '(fine; ctypes is used)'), file=out)
        cache = report['cache']
        print('  build cache     : %s (%s, %d entr%s, %d bytes'
              ', %d error%s)'
              % (cache['directory'], cache['mode'], cache['entries'],
                 'y' if cache['entries'] == 1 else 'ies',
                 cache['disk_bytes'], cache['errors'],
                 '' if cache['errors'] == 1 else 's'), file=out)
        if cache['exists'] and not cache['writable']:
            print('  WARNING         : cache directory is not writable',
                  file=out)
        print('  backend         : requested %r -> effective %r'
              % (report['backend_requested'],
                 report['backend_effective']), file=out)
        print('  compiled backend: %s'
              % ('usable' if ok else 'UNAVAILABLE (builds fall back '
                 'to numpy)'), file=out)
    if require_c and not ok:
        print('FAIL: --require-c set but the compiled backend is not '
              'usable', file=out)
        return 1
    return 0


def _service_dir(service_dir):
    import os
    return os.path.abspath(configuration.resolve('service_dir',
                                                 service_dir))


def run_submit(kernel, shape, tn=100.0, space_order=4, nbl=10, nrec=8,
               dt=None, priority=0, faults=None, retries=None,
               job_id=None, service_dir=None, out=None):
    """The ``submit`` subcommand: enqueue one shot spec; returns its id."""
    import os

    from .service import ShotSpec, new_job_id

    out = out if out is not None else sys.stdout
    root = _service_dir(service_dir)
    job_id = job_id or new_job_id()
    spec = ShotSpec(kernel, tuple(shape), tn=tn, space_order=space_order,
                    nbl=nbl, nrec=nrec, dt=dt, priority=priority,
                    faults=faults, max_retries=retries, job_id=job_id)
    queue = os.path.join(root, 'queue')
    os.makedirs(queue, exist_ok=True)
    path = os.path.join(queue, '%s.json' % job_id)
    if os.path.exists(path):
        raise SystemExit('job %s is already queued' % job_id)
    spec.save(path)
    print('queued %s: %r -> %s' % (job_id, spec, path), file=out)
    return job_id


def run_serve(service_dir=None, keep_queue=False, out=None):
    """The ``serve`` subcommand: drain the queue over the warm pool
    (workers, retry budget and build cache as configured).

    Returns a process exit status (nonzero when any job failed), so a
    scripted survey can gate on batch health.
    """
    import glob
    import os

    from .service import ShotSpec, SurveyScheduler

    out = out if out is not None else sys.stdout
    root = _service_dir(service_dir)
    queue = os.path.join(root, 'queue')
    paths = sorted(glob.glob(os.path.join(queue, '*.json')))
    if not paths:
        print('nothing queued under %s' % queue, file=out)
        return 0
    specs = []
    for path in paths:
        try:
            specs.append((path, ShotSpec.load(path)))
        except (ValueError, TypeError, OSError) as exc:
            print('skipping unreadable spec %s: %s' % (path, exc),
                  file=out)
    sched = SurveyScheduler(store=os.path.join(root, 'store'),
                            record_dir=os.path.join(root, 'jobs'))
    for _, spec in specs:
        sched.submit(spec)
    print('serving %d job(s) with %d worker(s) from %s'
          % (len(specs), sched.workers, queue), file=out)
    report = sched.run()
    if not keep_queue:
        for path, _ in specs:
            try:
                os.unlink(path)
            except OSError:
                pass
    print(report.render(), file=out)
    print('report written to %s'
          % os.path.join(root, 'jobs', 'report.json'), file=out)
    return 1 if report.failed else 0


def run_status(job_id=None, service_dir=None, as_json=False, out=None):
    """The ``status`` subcommand: queued/recorded job state."""
    import glob
    import json as _json
    import os

    out = out if out is not None else sys.stdout
    root = _service_dir(service_dir)
    if job_id is not None:
        path = os.path.join(root, 'jobs', '%s.json' % job_id)
        try:
            with open(path, encoding='utf-8') as f:
                record = _json.load(f)
        except FileNotFoundError:
            queued = os.path.join(root, 'queue', '%s.json' % job_id)
            if os.path.exists(queued):
                record = {'job_id': job_id, 'state': 'queued'}
            else:
                print('no such job %s under %s' % (job_id, root),
                      file=out)
                return 1
        if as_json:
            print(_json.dumps(record, indent=2, sort_keys=True), file=out)
        else:
            for key in ('job_id', 'state', 'attempts', 'error',
                        'latency_seconds', 'cache_statuses',
                        'result_keys'):
                if key in record:
                    print('%-16s: %s' % (key, record[key]), file=out)
        return 0
    queued = sorted(
        os.path.splitext(os.path.basename(p))[0]
        for p in glob.glob(os.path.join(root, 'queue', '*.json')))
    records = []
    for path in sorted(glob.glob(os.path.join(root, 'jobs', '*.json'))):
        if os.path.basename(path) == 'report.json':
            continue
        try:
            with open(path, encoding='utf-8') as f:
                records.append(_json.load(f))
        except (OSError, ValueError):
            continue
    if as_json:
        print(_json.dumps({'queued': queued, 'jobs': records}, indent=2,
                          sort_keys=True), file=out)
        return 0
    print('service root %s: %d queued, %d recorded'
          % (root, len(queued), len(records)), file=out)
    for jid in queued:
        print('  %-24s queued' % jid, file=out)
    for record in records:
        line = '  %-24s %-8s attempts=%s' % (
            record.get('job_id'), record.get('state'),
            record.get('attempts'))
        if record.get('error'):
            line += ' error=%s' % record['error']
        print(line, file=out)
    return 0


def run_fetch(key, out_path=None, service_dir=None, out=None):
    """The ``fetch`` subcommand: read one stored array (seal-checked)."""
    import os

    from .service import ArrayStore, StoreError

    out = out if out is not None else sys.stdout
    root = _service_dir(service_dir)
    store = ArrayStore(os.path.join(root, 'store'))
    try:
        array = store.get(key)
    except KeyError:
        print('no stored array %r (have: %s)'
              % (key, ', '.join(store.keys()) or 'none'), file=out)
        return 1
    except StoreError as exc:
        print('FAIL: %s' % exc, file=out)
        return 1
    print('%s: shape %s dtype %s | min %.6g max %.6g norm %.6g'
          % (key, 'x'.join(map(str, array.shape)), array.dtype,
             array.min(), array.max(), np.linalg.norm(array)), file=out)
    if out_path:
        np.save(out_path, array)
        print('written to %s' % out_path, file=out)
    return 0


def _main_run(args):
    run_benchmark(args.kernel, args.shape, args.tn, args.space_order,
                  nbl=args.nbl, mpi=args.mpi, ranks=args.ranks,
                  topology=args.topology, opt=not args.no_opt,
                  verify=args.verify, profile=args.profile,
                  profile_out=args.profile_out, resume=args.resume,
                  dump_schedule=args.dump_schedule)


def _main_analyze(args):
    report = run_analyze(args.kernel, args.shape, args.space_order,
                         nbl=args.nbl, mpi=args.mpi, ranks=args.ranks,
                         topology=args.topology, weights=args.weights,
                         opt=not args.no_opt,
                         dump_schedule=args.dump_schedule,
                         count_nodes=args.count_nodes,
                         certificate=args.certificate, fmt=args.fmt,
                         verbose=args.verbose)
    return 1 if report.errors else 0


def _main_submit(args):
    run_submit(args.kernel, args.shape, tn=args.tn,
               space_order=args.space_order, nbl=args.nbl, nrec=args.nrec,
               dt=args.dt, priority=args.priority,
               faults=args.inject_faults, retries=args.retries,
               job_id=args.job_id)


#: verb -> (parser, handler); ``None`` is the benchmark run
_VERBS = {
    None: (_parser, _main_run),
    'doctor': (_doctor_parser, lambda args: run_doctor(
        require_c=args.require_c, as_json=args.json)),
    'cache': (_cache_parser, lambda args: run_cache(
        args.action, min_hits=args.min_hits, as_json=args.json)),
    'analyze': (_analyze_parser, _main_analyze),
    'submit': (_submit_parser, _main_submit),
    'serve': (_serve_parser, lambda args: run_serve(
        keep_queue=args.keep_queue)),
    'status': (_status_parser, lambda args: run_status(
        job_id=args.job_id, as_json=args.json)),
    'fetch': (_fetch_parser, lambda args: run_fetch(
        args.key, out_path=args.out)),
}


def _parse(argv):
    """``(handler, args, configuration overrides)`` of a command line."""
    verb = argv[0] if argv and argv[0] in _VERBS else None
    parser, handler = _VERBS[verb]
    args = parser().parse_args(argv[1:] if verb else argv)
    if len(getattr(args, 'shape', (2, 2))) not in (2, 3):
        raise SystemExit('-d expects 2 or 3 dimensions')
    return handler, args, {key: getattr(args, key)
                           for key in VERB_KEYS[verb]
                           if getattr(args, key) is not None}


def main(argv=None):
    handler, args, overrides = _parse(sys.argv[1:] if argv is None
                                      else list(argv))
    with configuration.override(**overrides):
        status = handler(args)
    if status:
        raise SystemExit(status)


if __name__ == '__main__':
    try:
        main()
    except BrokenPipeError:
        # downstream consumer (e.g. ``status --json | grep -q``) closed
        # the pipe early; redirect stdout at the fd so the interpreter's
        # exit-time flush doesn't raise a second time, and exit cleanly
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
