"""Roofline model (paper Figure 7): single node/device, SDO 8.

Attainable performance ``min(peak, OI * BW)`` against the measured
(calibrated) kernel positions.  The paper computes CPU OI at compile time
from the expression AST — we do the same via ``Operator.oi`` — but its
*plotted* kernel positions come from flop-reduced (CIRE'd) production
kernels; this module reports both the paper's positions and this
implementation's compile-time values.
"""

from __future__ import annotations

from .kernels import BASE_CPU, BASE_GPU
from .paper_data import KERNELS, ROOFLINE_CPU, ROOFLINE_GPU

__all__ = ['RooflinePlatform', 'ARCHER2_ROOF', 'TURSA_ROOF',
           'roofline_points', 'attainable']


class RooflinePlatform:
    """Peak compute and memory bandwidth of one platform."""

    def __init__(self, name, peak_gflops, dram_bw_gbs):
        self.name = name
        self.peak_gflops = float(peak_gflops)
        self.dram_bw_gbs = float(dram_bw_gbs)

    @property
    def ridge_oi(self):
        """OI at which the platform turns compute-bound."""
        return self.peak_gflops / self.dram_bw_gbs

    def attainable(self, oi):
        return min(self.peak_gflops, oi * self.dram_bw_gbs)


#: dual EPYC 7742 node: 2 x 64c x 2.25GHz x 32 fp32 flops/cycle; ~380 GB/s
ARCHER2_ROOF = RooflinePlatform('archer2-node', 9200.0, 380.0)
#: A100-80: 19.5 TFLOPS fp32, ~2.0 TB/s HBM2e
TURSA_ROOF = RooflinePlatform('a100-80', 19500.0, 2039.0)


def attainable(oi, gpu=False):
    plat = TURSA_ROOF if gpu else ARCHER2_ROOF
    return plat.attainable(oi)


def roofline_points(gpu=False, so=8):
    """Kernel positions on the roofline (paper Fig. 7 reproduction).

    Returns {kernel: {'oi', 'gflops', 'attainable', 'fraction_of_roof',
    'dram_bound'}} using the paper's plotted OI positions and the
    calibrated single-unit throughputs.
    """
    ref = ROOFLINE_GPU if gpu else ROOFLINE_CPU
    base = BASE_GPU if gpu else BASE_CPU
    plat = TURSA_ROOF if gpu else ARCHER2_ROOF
    out = {}
    for kernel in KERNELS:
        oi, gflops = ref[kernel]
        roof = plat.attainable(oi)
        out[kernel] = {
            'oi': oi,
            'gflops': gflops,
            'attainable': roof,
            'fraction_of_roof': gflops / roof,
            'dram_bound': oi < plat.ridge_oi,
            'gpts': base[kernel][so],
        }
    return out


def measured_roofline_points(so=8, shape=(24, 24, 24)):
    """This implementation's compile-time OI/flop counts (3D operators).

    Counts the optimized kernels: TTI's inner directional derivative is
    computed once per point into a scratch array (cross-iteration
    redundancy elimination, as in the production Devito kernel).  The
    plain expansion (``opt=False`` setups) re-evaluates it at every
    outer-stencil offset — documented in EXPERIMENTS.md.
    """
    from ..models import (acoustic_setup, elastic_setup, tti_setup,
                          viscoelastic_setup)
    setups = {'acoustic': acoustic_setup, 'elastic': elastic_setup,
              'tti': tti_setup, 'viscoelastic': viscoelastic_setup}
    out = {}
    for kernel, setup in setups.items():
        solver, _ = setup(shape=shape, spacing=(10.,) * len(shape),
                          tn=10.0, space_order=so, nbl=4)
        op = solver.op
        out[kernel] = {'oi': op.oi, 'flops_per_point': op.flops_per_point,
                       'traffic_per_point': op.traffic_per_point}
    return out
