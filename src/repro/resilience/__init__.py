"""Fault tolerance and elasticity for the generated solvers.

Cooperating pieces, wired into ``Operator.apply``:

* :mod:`.checkpoint` — distributed, versioned, CRC-checked snapshots
  (one npz per rank, manifest written last as the completion marker);
* :mod:`.recovery` — the ``restart`` (same-world) and ``shrink``
  (ULFM-style drop-the-dead-rank) recovery drivers;
* :mod:`.elastic` — the one repartition path (shared by shrink),
  ``grow`` onto announced ranks, weighted ``rebalance`` of the
  current world, and the rejoin protocol that lets healed victims
  and pooled reserves enter a running job;
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
from .recovery import perform_restart, perform_shrink, repartition_restore

__all__ = [
    'Checkpointer', 'CheckpointError', 'RECOVERY_POLICIES',
    'REPARTITION_POLICIES', 'ResilienceController', 'HealthGuard',
    'NumericalHealthError', 'RepartitionRequest', 'announce_rejoin',
    'awaiting_origs', 'measured_rank_weights', 'new_lineage',
    'perform_grow', 'perform_rebalance', 'perform_restart',
    'perform_shrink', 'rank_weights_to_dim_weights', 'rejoin',
    'repartition_operator', 'repartition_restore', 'run_elastic',
]
