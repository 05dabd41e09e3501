"""Figure 7: single-node CPU/GPU roofline of the four kernels (SDO 8).

Prints the roofline series (OI, GFlops/s, attainable roof) for both
platforms, paper read-offs alongside, plus this implementation's
compile-time OI (the paper computes CPU OI the same way, from the AST).
"""

from repro.perfmodel import (ARCHER2_ROOF, TURSA_ROOF,
                             measured_roofline_points, roofline_points)


def _print_roofline(points, platform, label):
    print()
    print('### Fig. 7 roofline — %s (peak %.0f GF/s, DRAM %.0f GB/s, '
          'ridge OI %.1f)' % (label, platform.peak_gflops,
                              platform.dram_bw_gbs, platform.ridge_oi))
    print('| kernel | OI (F/B) | GFlops/s | attainable | % of roof | '
          'bound |')
    print('|---|---|---|---|---|---|')
    for kernel, info in points.items():
        print('| %s | %.1f | %.0f | %.0f | %.0f%% | %s |'
              % (kernel, info['oi'], info['gflops'], info['attainable'],
                 100 * info['fraction_of_roof'],
                 'DRAM' if info['dram_bound'] else 'compute'))


def test_fig07_cpu_roofline(benchmark):
    points = benchmark(roofline_points, gpu=False)
    _print_roofline(points, ARCHER2_ROOF, 'Archer2 node (CPU)')
    # the paper's claim: flop-optimized kernels are mainly DRAM-BW bound
    assert sum(1 for p in points.values() if p['dram_bound']) >= 3


def test_fig07_gpu_roofline(benchmark):
    points = benchmark(roofline_points, gpu=True)
    _print_roofline(points, TURSA_ROOF, 'A100-80 (GPU)')
    assert points['tti']['oi'] == max(p['oi'] for p in points.values())


def test_fig07_compile_time_oi(benchmark):
    """This implementation's own AST-derived OI of the optimized kernels
    (``opt=True``: after cross-iteration redundancy elimination)."""
    pts = benchmark.pedantic(measured_roofline_points,
                             kwargs={'so': 8, 'shape': (16, 16, 16)},
                             iterations=1, rounds=1)
    print()
    print('### Compile-time OI of this implementation (3D, SDO 8)')
    print('| kernel | flops/pt | bytes/pt | OI |')
    print('|---|---|---|---|')
    for kernel, info in pts.items():
        print('| %s | %d | %d | %.1f |' % (kernel,
                                           info['flops_per_point'],
                                           info['traffic_per_point'],
                                           info['oi']))
    assert pts['tti']['oi'] > pts['acoustic']['oi']
