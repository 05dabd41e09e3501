"""Dead-code lint (pass 3 of the static verifier).

* ``REPRO-W211`` — an optimizer temporary (hoisted loop-invariant scalar
  or CSE temp) that nothing ever reads.
* ``REPRO-W212`` — a dead write: an equation's stored value is
  overwritten by a later equation of the same cluster before any
  equation in between reads that buffer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from ..ir.access import Key
from ..symbolics import Temp, unique_nodes
from .diagnostics import Diagnostic
from .render import describe_key

__all__ = ['check_dead_code']


def _temps_in(expr: Any) -> Set[Temp]:
    return {n for n in unique_nodes(expr) if isinstance(n, Temp)}


def check_dead_code(schedule: Any) -> List[Diagnostic]:
    """Unused temporaries (W211) and dead grid writes (W212)."""
    out: List[Diagnostic] = []

    # -- every Temp ever read, across the whole schedule ---------------------
    used: Set[Temp] = set()
    for _, rhs in schedule.scalar_assignments:
        used |= _temps_in(rhs)
    for step in schedule.steps:
        if step.is_compute:
            for _, rhs in step.cluster.temps:
                used |= _temps_in(rhs)
            for eq in step.cluster.eqs:
                used |= _temps_in(eq.rhs)
        elif step.is_sparse:
            used |= _temps_in(step.expr)

    for temp, _ in schedule.scalar_assignments:
        if temp not in used:
            out.append(Diagnostic(
                'REPRO-W211',
                'hoisted loop-invariant scalar %s is never read'
                % (temp,), where='preamble'))
    seen_clusters = set()
    for si, step in enumerate(schedule.steps):
        if not step.is_compute or id(step.cluster) in seen_clusters:
            continue  # CORE/REMAINDER share the cluster: lint it once
        seen_clusters.add(id(step.cluster))
        for temp, _ in step.cluster.temps:
            if temp not in used:
                out.append(Diagnostic(
                    'REPRO-W211',
                    'CSE temporary %s is never read' % (temp,),
                    step_index=si))

        # -- dead writes within the cluster ------------------------------
        # Temps evaluate before any equation stores, so only later
        # equations can consume a write; a same-cell overwrite with no
        # intervening read of that buffer makes the earlier store dead.
        eqs = step.cluster.eqs
        sigs: Dict[Tuple[Key, Tuple[int, ...]], int] = {}
        for j, eq in enumerate(eqs):
            sig = (eq.write.key, eq.write.offsets)
            i = sigs.get(sig)
            if i is not None:
                read_between = any(
                    acc.key == eq.write.key
                    for k in range(i + 1, j + 1)
                    for acc in eqs[k].reads)
                if not read_between:
                    out.append(Diagnostic(
                        'REPRO-W212',
                        'write of %s by equation %d is dead: equation %d '
                        'overwrites the same cells before any read'
                        % (describe_key(eq.write.key), i, j),
                        step_index=si))
            sigs[sig] = j
    return out
