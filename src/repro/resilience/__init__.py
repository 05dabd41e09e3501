"""Fault tolerance and elasticity for the generated solvers.

Cooperating pieces, wired into ``Operator.apply``:

* :mod:`.checkpoint` — distributed, versioned, sealed snapshots (one
  sealed array file per rank, manifest written last as the completion
  marker);
* :mod:`.elastic` — one repartition primitive (rebuild through the
  Operator's own build path, then one block alltoall from live arrays
  or checkpoint files) behind every change of decomposition:
  ``restart``, ``resume``, ``shrink``, ``grow`` onto announced ranks,
  weighted ``rebalance`` and the ``rejoin`` protocol that lets healed
  victims and pooled reserves enter a running job;
* :mod:`.health` — periodic NaN/Inf/amplitude scans raising a
  diagnosable :class:`NumericalHealthError`;
* :mod:`.controller` — the per-apply supervisor tying them together.
"""

from .checkpoint import Checkpointer, CheckpointError
from .controller import (RECOVERY_POLICIES, REPARTITION_POLICIES,
                         ResilienceController)
from .elastic import (RepartitionRequest, announce_rejoin, awaiting_origs,
                      measured_rank_weights, new_lineage, perform_grow,
                      perform_rebalance, rank_weights_to_dim_weights,
                      rejoin, repartition_operator, run_elastic)
from .health import HealthGuard, NumericalHealthError

__all__ = [
    'Checkpointer', 'CheckpointError', 'RECOVERY_POLICIES',
    'REPARTITION_POLICIES', 'ResilienceController', 'HealthGuard',
    'NumericalHealthError', 'RepartitionRequest', 'announce_rejoin',
    'awaiting_origs', 'measured_rank_weights', 'new_lineage',
    'perform_grow', 'perform_rebalance', 'rank_weights_to_dim_weights',
    'rejoin', 'repartition_operator', 'run_elastic',
]
