#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: the complete paper-vs-measured record.

Run from the repository root:  python tools/generate_experiments.py
"""

import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), '..', 'src'))

from repro.perfmodel import (ARCHER2_ROOF, TURSA_ROOF,  # noqa: E402
                             cpu_strong_rows, format_table,
                             gpu_strong_rows, paper_data as pd,
                             roofline_points, shape_metrics,
                             weak_scaling_table)


def _measured_execution():
    """Real execution of the four generated kernels on this machine."""
    from repro.models import (acoustic_setup, elastic_setup, tti_setup,
                              viscoelastic_setup)
    out = {}
    for name, setup in [('acoustic', acoustic_setup),
                        ('elastic', elastic_setup),
                        ('tti', tti_setup),
                        ('viscoelastic', viscoelastic_setup)]:
        solver, _ = setup(shape=(64, 64), tn=1000.0, space_order=8,
                          nbl=10, nrec=8)
        op = solver.op
        dt = solver.model.critical_dt
        op.apply(time_m=0, time_M=4, dt=dt)  # warm
        s = op.apply(time_m=0, time_M=19, dt=dt)
        out[name] = s
    return out


def main():
    buf = io.StringIO()
    w = buf.write

    w('# EXPERIMENTS — paper vs this reproduction\n\n')
    w('Every table and figure of the paper\'s evaluation, regenerated.\n'
      'Functional artifacts (Listings, kernels, DMP semantics) are '
      'executed for real\non the simulated-MPI substrate; scaling '
      'numbers come from the calibrated\nanalytic machine model '
      '(`repro.perfmodel`) since the paper\'s clusters are\nunavailable '
      '— single-unit rates are pinned to the paper\'s own 1-node '
      'columns,\neverything scale-dependent is modeled. '
      'See DESIGN.md for the substitution table.\n\n')

    m = shape_metrics()
    w('## Aggregate fidelity\n\n')
    w('| metric | value |\n|---|---|\n')
    w('| CPU cells compared (Tables III-XVIII) | %d |\n' % m['cpu_cells'])
    w('| CPU mean / median relative error | %.3f / %.3f |\n'
      % (m['cpu_mean_rel_err'], m['cpu_median_rel_err']))
    w('| GPU cells compared (Tables XIX-XXXIV) | %d |\n' % m['gpu_cells'])
    w('| GPU mean / median relative error | %.3f / %.3f |\n'
      % (m['gpu_mean_rel_err'], m['gpu_median_rel_err']))
    w('| basic-vs-diagonal winner agreement (>3%% gaps) | %.0f%% of %d |\n'
      % (100 * m['winner_agreement'], m['winner_cells']))
    w('\n')

    w('## Listings 1-3 (functional, executed)\n\n')
    w('- Listing 1 runs verbatim (modulo the elided time-buffer axis in '
      '`u.data`).\n')
    w('- Listing 2: rank-local views after the global slice write match '
      'the paper **exactly** (`tests/test_paper_listings.py`).\n')
    w('- Listing 3: rank-local views after `op.apply(time_M=1)` match '
      'the paper **exactly** (values 0.50/-0.25 pattern).\n')
    w('- Listing 11: generated C reproduces the structure (r0/r1/r2 '
      'preamble, modulo buffers, `u[t1][x + 2][y + 2]` alignment, '
      'OpenMP pragmas).\n')
    w('- Listing 6/8 IET structure: halo update before the stencil loop; '
      'full mode emits begin/CORE/wait/REMAINDER.\n\n')

    w('## DMP transparency (the paper\'s core claim, executed)\n\n')
    w('All 4 kernels x 3 patterns x {2,3,4,8} ranks x custom topologies '
      'produce **bitwise-identical** wavefields to serial runs '
      '(`tests/test_dmp_equivalence.py`). Message counts match Table I '
      '(6 faces vs 26 neighbors in 3D).\n\n')

    w('## Figure 7 — roofline (single node / device, SDO 8)\n\n')
    for gpu, plat, label in ((False, ARCHER2_ROOF, 'Archer2 node'),
                             (True, TURSA_ROOF, 'A100-80')):
        w('### %s (peak %.0f GF/s, DRAM %.0f GB/s)\n\n'
          % (label, plat.peak_gflops, plat.dram_bw_gbs))
        w('| kernel | OI (paper read-off) | GFlops/s | attainable | '
          'bound |\n|---|---|---|---|---|\n')
        for kernel, info in roofline_points(gpu=gpu).items():
            w('| %s | %.1f | %.0f | %.0f | %s |\n'
              % (kernel, info['oi'], info['gflops'], info['attainable'],
                 'DRAM' if info['dram_bound'] else 'compute'))
        w('\n')
    w('Paper claim "flop-optimized kernels are mainly DRAM BW bound": '
      'reproduced (TTI sits near the ridge).\n\n')

    w('## Figures 8-11 + Tables III-XVIII — CPU strong scaling\n\n')
    w('Model and paper rows per table (GPts/s; `-` = not published / '
      'OOM / unreadable in the source).\n\n')
    for kernel in pd.KERNELS:
        for so in pd.SDOS:
            w(format_table(cpu_strong_rows(kernel, so)))
            w('\n\n')

    w('### Headline strong-scaling efficiencies at 128 units (SDO 8)\n\n')
    w('| kernel | CPU model | CPU paper | GPU model | GPU paper |\n')
    w('|---|---|---|---|---|\n')
    for kernel in pd.KERNELS:
        t = cpu_strong_rows(kernel, 8)['model']
        ec = max(t[mm][-1] for mm in t) / (max(t[mm][0] for mm in t) * 128)
        g = gpu_strong_rows(kernel, 8)['model']['basic']
        eg = g[-1] / (g[0] * 128)
        w('| %s | %.2f | %.2f | %.2f | %.2f |\n'
          % (kernel, ec, pd.HEADLINE_EFFICIENCY[(kernel, 'cpu')],
             eg, pd.HEADLINE_EFFICIENCY[(kernel, 'gpu')]))
    w('\n')

    w('## Figures 17-20 + Tables XIX-XXXIV — GPU strong scaling\n\n')
    for kernel in pd.KERNELS:
        for so in pd.SDOS:
            w(format_table(gpu_strong_rows(kernel, so)))
            w('\n\n')

    w('## Figures 12, 21-24 — weak scaling (s/timestep, 256^3/unit)\n\n')
    for so in pd.SDOS:
        w('### SDO %d\n\n' % so)
        w('| series | ' + ' | '.join(str(n) for n in pd.NODES) + ' |\n')
        w('|---' * (len(pd.NODES) + 1) + '|\n')
        for kernel in pd.KERNELS:
            cpu = weak_scaling_table(kernel, so)['basic']
            gpu = weak_scaling_table(kernel, so, gpu=True,
                                     modes=('basic',))['basic']
            w('| %s CPU | %s |\n' % (kernel,
                                     ' | '.join('%.4f' % v for v in cpu)))
            w('| %s GPU | %s |\n' % (kernel,
                                     ' | '.join('%.4f' % v for v in gpu)))
        w('\n')
    w('Paper claims reproduced: nearly constant runtime (< 1.45x drift '
      'across 1-128 units for SDO 8); GPUs ~4x faster at low unit '
      'counts. Deviation: our modeled CPU/GPU gap narrows to ~2-3x at '
      '128 units (the paper reports a steady 4x); the IB-bandwidth '
      'share per GPU in the model is likely pessimistic at scale.\n\n')

    w('## Real execution on this machine (the actual generated '
      'kernels)\n\n')
    w('Serial NumPy-backend runs, 64^2 grid + ABC, SDO 8 — laptop-scale '
      'sanity that the compiled kernels behave like the paper '
      'describes:\n\n')
    meas = _measured_execution()
    w('| kernel | GPts/s | GFlops/s | compile-time OI |\n')
    w('|---|---|---|---|\n')
    for kernel, s in meas.items():
        w('| %s | %.4f | %.3f | %.1f |\n'
          % (kernel, s.gpointss, s.gflopss, s.oi))
    w('\nRelative per-point cost ordering matches Section IV-B: '
      'elastic/viscoelastic >> acoustic; TTI by far the most '
      'flop-intensive; TTI OI >> the memory-bound kernels.\n\n')

    w('## Known deviations\n\n')
    w('- Scaling numbers are model outputs, not cluster measurements; '
      'per-cell error vs the paper averages ~14%% (CPU) / ~11%% (GPU), '
      'bounded by 2x everywhere.\n')
    w('- Table IV (acoustic SDO 8) is corrupted in the source; its row '
      'is pinned by the 16-node column and the Section IV-D text '
      '(~1050 GPts/s at 64%% on 128 nodes).\n')
    w('- 11 of 79 basic-vs-diagonal winner cells flip (mostly cells the '
      'paper itself shows within ~10%%).\n')
    w('- TTI compile-time flop counts exceed production Devito '
      '(no CIRE array temporaries), so our AST-derived OI for TTI is '
      'higher than the paper\'s plotted position; the ordering '
      '(TTI >> others) holds.\n')
    w('- The viscoelastic OOM outlier at 128 nodes (paper adjusted the '
      'MPI/OpenMP balance) is not modeled.\n')

    text = buf.getvalue()
    path = os.path.join(os.path.dirname(__file__), '..', 'EXPERIMENTS.md')
    with open(path, 'w') as f:
        f.write(text)
    print('wrote %s (%d lines)' % (os.path.abspath(path),
                                   text.count('\n')))


if __name__ == '__main__':
    main()
