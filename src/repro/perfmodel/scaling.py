"""The analytic strong/weak scaling predictor.

Per-timestep cost model, node (or GPU) count ``P``:

* compute: local points / effective rate, where the effective rate
  degrades as halo width grows relative to the shrinking local domain
  (``cache_gamma``) and gains locality for the very compute-intense TTI
  (``cache_bonus``);
* communication, per pattern (Table I):

  - *basic*   — blocking multi-step: full surface volume at network
    bandwidth, plus per-step synchronization (paid once per decomposed
    dimension) and per-message overhead for 2 messages/dim/rank;
  - *diagonal*— single-step batch of the full Moore neighborhood:
    volume (+corner overhead) at ``batch_gain``-improved effective
    bandwidth, one synchronization, but 3^d-1 messages/rank whose
    injection overhead dominates at scale (why basic wins the largest
    acoustic runs);
  - *full*    — ``max(core compute, diagonal comm) + remainder``, the
    remainder running ``stride_penalty`` slower (Section III-h); the
    core fraction shrinks with P, which is why full degrades at scale.
"""

from __future__ import annotations

import numpy as np

from ..mpi.cart import compute_dims
from .kernels import BASE_CPU, BASE_GPU, KERNEL_SPECS
from .machine import ARCHER2, TURSA

__all__ = ['ScalingModel', 'strong_scaling_table', 'weak_scaling_table']

_BYTES = 4
#: exchanged halo width factor relative to so/2 (Devito exchanges the
#: full allocated halo region; ablation knob)
_WIDTH_FACTOR = 2.0


class ScalingModel:
    """Throughput predictor for one (kernel, SDO, machine) triple."""

    def __init__(self, kernel, so, machine=None, gpu=False,
                 width_factor=_WIDTH_FACTOR):
        self.kernel = kernel
        self.spec = KERNEL_SPECS[kernel]
        self.so = int(so)
        self.gpu = gpu
        self.machine = machine if machine is not None else (
            TURSA if gpu else ARCHER2)
        base = BASE_GPU if gpu else BASE_CPU
        self.base_rate = base[kernel][self.so] * 1e9  # points/s per unit
        self.width = (self.so // 2) * width_factor

    # -- geometry helpers ----------------------------------------------------------

    def _unit_dims(self, nunits, shape):
        """Process-grid dims at the network-unit granularity (nodes on
        CPU, GPUs on Tursa)."""
        return compute_dims(nunits, len(shape))

    def _local_shape(self, shape, dims):
        return tuple(int(np.ceil(n / d)) for n, d in zip(shape, dims))

    def _surface_volume(self, local, dims, corners=False, weak=False):
        """Bytes sent per unit per exchange step."""
        vol = 0.0
        ndim = len(local)
        width = self.width if not weak else self.width / _WIDTH_FACTOR
        for d in range(ndim):
            if dims[d] < 2:
                continue
            area = 1
            for j in range(ndim):
                if j != d:
                    area *= local[j]
            vol += 2 * width * area
        if corners:
            vol *= 1.04  # edges + corners add a few percent
        fields = self.spec.comm_fields_weak if weak \
            else self.spec.comm_fields
        scale = self.spec.gpu_comm_scale if self.gpu else 1.0
        return vol * fields * scale * _BYTES

    def _ndecomposed(self, dims):
        return sum(1 for d in dims if d > 1)

    # -- compute time -----------------------------------------------------------------

    def _rate_eff(self, nunits, local_rank, weak=False):
        m = self.machine
        rate = self.base_rate
        if weak:
            rate *= m.weak_efficiency if not self.gpu else 1.0
        min_dim = max(min(local_rank), 1)
        rate /= (1.0 + m.cache_gamma * self.width / min_dim)
        if self.spec.cache_bonus and nunits > 1 and not weak:
            rate *= (1.0 + self.spec.cache_bonus *
                     min(np.log2(nunits) / 7.0, 1.0))
        return rate

    def _rank_geometry(self, shape, nunits):
        m = self.machine
        nranks = nunits * m.ranks_per_node
        rank_dims = compute_dims(nranks, len(shape))
        return self._local_shape(shape, rank_dims), rank_dims

    # -- communication time per pattern --------------------------------------------------

    def _bandwidth(self, nunits):
        m = self.machine
        if self.gpu and nunits <= m.intra_node_devices:
            return m.intra_bandwidth
        return m.net_bandwidth

    def _comm_times(self, shape, nunits, weak=False):
        """(t_basic, t_diag) per exchange step, per unit."""
        m = self.machine
        unit_dims = self._unit_dims(nunits, shape)
        local_unit = self._local_shape(shape, unit_dims)
        bw = self._bandwidth(nunits)
        vol = self._surface_volume(local_unit, unit_dims, weak=weak)
        vol_diag = self._surface_volume(local_unit, unit_dims, corners=True,
                                        weak=weak)
        _, rank_dims = self._rank_geometry(shape, nunits)
        ndd = self._ndecomposed(rank_dims)
        if ndd == 0:
            return 0.0, 0.0
        msgs_basic = 2 * ndd * m.ranks_per_node
        msgs_diag = (3 ** ndd - 1) * m.ranks_per_node
        t_basic = (vol / bw
                   + ndd * m.sync_overhead
                   + msgs_basic * m.msg_overhead)
        t_diag = (vol_diag * m.batch_gain / bw
                  + m.sync_overhead
                  + msgs_diag * m.msg_overhead)
        return t_basic, t_diag

    def _core_fraction(self, local_rank, rank_dims):
        frac = 1.0
        for n, d in zip(local_rank, rank_dims):
            if d < 2:
                continue
            frac *= max(n - 2 * self.width, 0) / n
        return frac

    # -- public API -----------------------------------------------------------------------

    def step_time(self, shape, nunits, mode, weak=False):
        """Predicted wall time of one timestep on ``nunits`` units."""
        m = self.machine
        points = float(np.prod(shape))
        local_rank, rank_dims = self._rank_geometry(shape, nunits)
        rate = self._rate_eff(nunits, local_rank, weak=weak)
        t_comp = points / nunits / rate
        if nunits == 1 and m.ranks_per_node == 1:
            return t_comp
        t_basic, t_diag = self._comm_times(shape, nunits, weak=weak)
        steps = self.spec.exchange_steps
        if mode == 'basic':
            return t_comp + steps * t_basic
        if mode in ('diag', 'diagonal'):
            return t_comp + steps * t_diag
        if mode == 'full':
            # each overlapped exchange step splits its cluster group into
            # CORE/REMAINDER, so the coupled two-step kernels (elastic,
            # viscoelastic) pay the strided-remainder penalty twice
            frac = self._core_fraction(local_rank, rank_dims) ** steps
            t_core = t_comp * frac
            # the remainder's inefficient strides arise from splitting the
            # innermost (vectorized) dimension; an x/y-only topology keeps
            # z contiguous and mostly avoids the penalty (Section IV-F)
            penalty = m.stride_penalty if rank_dims[-1] > 1 else \
                1.0 + 0.3 * (m.stride_penalty - 1.0)
            t_rem = t_comp * (1.0 - frac) * penalty
            return max(t_core, steps * t_diag) + t_rem
        raise ValueError("unknown mode %r" % (mode,))

    def throughput(self, shape, nunits, mode, weak=False):
        """Predicted GPts/s."""
        points = float(np.prod(shape))
        return points / self.step_time(shape, nunits, mode, weak=weak) / 1e9

    def efficiency(self, shape, nunits, mode):
        ideal = self.throughput(shape, 1, mode) * nunits
        return self.throughput(shape, nunits, mode) / ideal


def strong_scaling_table(kernel, so, size, gpu=False,
                         modes=('basic', 'diag', 'full'),
                         nodes=(1, 2, 4, 8, 16, 32, 64, 128),
                         machine=None):
    """{mode: [GPts/s per node count]} for a cubic problem of edge ``size``."""
    model = ScalingModel(kernel, so, gpu=gpu, machine=machine)
    shape = (size,) * 3
    out = {}
    for mode in modes:
        out[mode] = [model.throughput(shape, n, mode) for n in nodes]
    return out


def weak_scaling_table(kernel, so, local_size=256, gpu=False,
                       modes=('basic', 'diag', 'full'),
                       nodes=(1, 2, 4, 8, 16, 32, 64, 128), machine=None):
    """{mode: [seconds per timestep]} with a fixed per-unit local size.

    The global shape doubles one dimension at a time as units double
    (Section IV-E: 512x256x256 on 2 nodes ... 2048x1024x1024 on 128).
    """
    model = ScalingModel(kernel, so, gpu=gpu, machine=machine)
    out = {mode: [] for mode in modes}
    for n in nodes:
        shape = _weak_shape(local_size, n)
        for mode in modes:
            out[mode].append(model.step_time(shape, n, mode, weak=True))
    return out


def _weak_shape(local_size, nunits):
    """Cyclically double dimensions as the unit count doubles."""
    shape = [local_size] * 3
    k = int(round(np.log2(nunits)))
    for i in range(k):
        shape[i % 3] *= 2
    return tuple(shape)
