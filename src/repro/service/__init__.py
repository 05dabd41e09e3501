"""Batched multi-shot survey service.

A seismic survey is an embarrassingly parallel batch of independent
shots run through a handful of operator structures.  This package turns
that shape into a service: :class:`ShotSpec` describes one job,
:class:`SurveyScheduler` drains a priority/FIFO queue of them over a
warm :class:`OperatorPool` (solver instances reset bit-exactly between
jobs, build-cache warm starts underneath), results land in a
sealed :class:`ArrayStore`, and the drain produces a
:class:`BatchReport`.  ``repro serve`` / ``submit`` / ``status`` are
the CLI surface.
"""

from .pool import OperatorPool, PooledSolver
from .report import BatchReport, percentile
from .scheduler import JobRecord, JobState, SurveyScheduler, run_shot_solo
from .spec import KERNELS, ShotSpec, new_job_id
from .store import ArrayStore, StoreCorruptionError, StoreError

__all__ = ['ArrayStore', 'BatchReport', 'JobRecord', 'JobState',
           'KERNELS', 'OperatorPool', 'PooledSolver', 'ShotSpec',
           'StoreCorruptionError', 'StoreError', 'SurveyScheduler',
           'new_job_id', 'percentile', 'run_shot_solo']
