"""Per-section, per-rank performance instrumentation.

The paper's evaluation (Sections IV-V, Figures 7-12) decomposes runtime
into compute vs. communication to explain the basic/diagonal/full
trade-offs.  This subsystem makes that decomposition measurable on live
runs, Devito-style ("Architecture and performance of Devito", TOMS 2019):

* the code generator wraps every schedule step in a *named section*
  (``section0..N`` for cluster computations, ``haloupdate0..N`` /
  ``halowait0..N`` for exchanges, ``sparse0..N`` for off-the-grid
  operations; named once, in :func:`repro.ir.program.step_program`)
  and emits :class:`Timer` calls around each — only when profiling is
  enabled, so the ``off`` level costs nothing at runtime (the
  instrumentation is compiled out of the generated source);
* every exchanger counts messages, bytes sent/received and wait time;
* on distributed grids the per-rank numbers are allgathered over the
  simulated-MPI communicator and reported as min/max/avg across ranks
  (the paper's load-imbalance signal).

The level is selected via ``configuration['profiling']`` (or the
``REPRO_PROFILING`` environment variable): ``off``, ``basic`` or
``advanced`` (``advanced`` additionally records per-timestep traces and
enables the JSON artifact consumed by :mod:`repro.perfmodel.report`).
"""

from .timer import Timer
from .profiler import Profiler, RankStats, SectionMeta
from .summary import PerfEntry, PerformanceSummary

PROFILING_LEVELS = ('off', 'basic', 'advanced')

__all__ = ['Timer', 'Profiler', 'RankStats', 'SectionMeta',
           'PerfEntry', 'PerformanceSummary', 'PROFILING_LEVELS']
