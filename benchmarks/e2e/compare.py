"""Compare two result files of ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base, ``B`` the candidate.  One row per (workload,
end-to-end metric): both medians with their quartiles, the ratio B/A
with its base, the bound ``BENCHMARK.json`` fixes for the metric, and a
verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but the inter-quartile spread of either
  side exceeds the bound, so "unchanged" cannot be claimed;
* ``ok`` — otherwise.

For traced result files the exact-count layer metrics must be equal.
Exit status 1 on any ``worse``, any unequal exact count, or any rise in
``ops_failed_frac``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import spread  # noqa: E402

#: layer metrics that are counts made by the program or sizes of what it
#: generated: they repeat exactly on one commit, seed and machine
EXACT = (
    'ir.dag_nodes', 'ir.compute_steps', 'ir.halo_steps', 'ir.sparse_steps',
    'analysis.errors', 'codegen.c_source_bytes', 'codegen.py_source_lines',
    'compute.calls', 'halo.calls', 'halo.messages', 'halo.bytes',
    'halo.messages_per_step_r4.basic', 'halo.messages_per_step_r4.diagonal',
    'halo.messages_per_step_r4.full', 'halo.bytes_per_step_r4.basic',
    'halo.bytes_per_step_r4.diagonal', 'halo.bytes_per_step_r4.full',
    'certificate.mismatches', 'sim.messages', 'sim.bytes', 'sim.retries',
    'sparse.points', 'resilience.checkpoints', 'pool.cold_builds',
    'repo.src_loc',
)


def load_bounds():
    path = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                        'BENCHMARK.json')
    with open(path, encoding='utf-8') as f:
        spec = json.load(f)
    return {m['name']: (m['better'], m['bound'])
            for m in spec['end_to_end']}


def verdict(a, b, better, bound):
    """'ok' / 'worse' / 'unresolved' for two metric summaries."""
    if better == 'lower':
        worse = b['median'] > a['median'] * (1.0 + bound)
    else:
        worse = b['median'] < a['median'] * (1.0 - bound)
    if worse:
        return 'worse'
    if max(spread(a), spread(b)) > bound:
        return 'unresolved'
    return 'ok'


def compare(base, cand, bounds, out=None):
    """Print the comparison; returns the number of blocking findings."""
    blocking = 0
    fmt = '%-24s %-18s %11s %23s %11s %23s %8s %6s  %s'
    print(fmt % ('workload', 'metric', 'A median', 'A [q1, q3]', 'B median',
                 'B [q1, q3]', 'B/A', 'bound', 'verdict'), file=out)
    for name, a_res in base['workloads'].items():
        b_res = cand['workloads'].get(name)
        if b_res is None:
            continue
        for metric, (better, bound) in bounds.items():
            a = a_res.get('metrics', {}).get(metric)
            b = b_res.get('metrics', {}).get(metric)
            if a is None or b is None:
                continue
            v = verdict(a, b, better, bound)
            blocking += v == 'worse'
            print(fmt % (name, metric, '%.6g' % a['median'],
                         '[%.5g, %.5g]' % (a['q1'], a['q3']),
                         '%.6g' % b['median'],
                         '[%.5g, %.5g]' % (b['q1'], b['q3']),
                         '%.3f' % (b['median'] / a['median']),
                         '%.2f' % bound, v), file=out)
        fa, fb = a_res['ops_failed_frac'], b_res['ops_failed_frac']
        rose = fb > fa
        blocking += rose
        print('%-24s %-18s %11.6g %23s %11.6g %23s %8s %6s  %s'
              % (name, 'ops_failed_frac', fa,
                 '%d/%d' % (a_res['failed'], a_res['attempted']), fb,
                 '%d/%d' % (b_res['failed'], b_res['attempted']), '-', '0',
                 'worse' if rose else 'ok'), file=out)
        la, lb = a_res.get('layers'), b_res.get('layers')
        if la and lb and a_res.get('seed') == b_res.get('seed'):
            for key in EXACT:
                if la.get(key, 0) != lb.get(key, 0):
                    blocking += 1
                    print('%-24s %-34s exact count differs: A=%s B=%s'
                          % (name, key, la.get(key, 0), lb.get(key, 0)),
                          file=out)
    return blocking


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(argv[0], encoding='utf-8') as f:
        base = json.load(f)
    with open(argv[1], encoding='utf-8') as f:
        cand = json.load(f)
    blocking = compare(base, cand, load_bounds())
    print('%d blocking finding(s)' % blocking)
    return 1 if blocking else 0


if __name__ == '__main__':
    sys.exit(main())
