"""The cache *key*: a canonical fingerprint of one operator build.

Two ``Operator`` constructions may share a cached kernel iff every input
that influences the generated artifact is identical.  Those inputs are:

* the **expressions** — structure, finite-difference specs, function
  signatures (name, orders, dtype, padding, staggering), sparse point
  counts.  Hashed *raw* (before lowering): lowering and the rewrite
  pipeline are deterministic functions of the raw form, and hashing the
  raw form is what makes a cache hit cheap (lowering + optimization are
  ~90% of a cold build).
* the **grid and which of its dimensions are split** — global shape,
  dtype, and one flag per dimension telling whether the decomposition
  cuts it.  That is all the lowering sees of the decomposition: the
  schedule's exchanges follow the split dimensions, and everything a
  rank's geometry decides — iteration boxes, slice bounds, neighbours,
  buffer sizes, the certificate — is bound per rank from the artifact.
  The key is therefore *rank-agnostic*: every rank of a launch, every
  weighting and every rank count that splits the same dimensions
  shares one entry.
* the **build configuration** — DMP mode, the optimization switch, the
  verify gate, the sanitizer, instrumentation, the progress thread and
  the backend.

Excluded on purpose: :class:`~repro.dsl.function.Constant` *values*
(runtime ``apply`` arguments), sparse *coordinates* (runtime data — the
routing plan is rebuilt live on every rehydration), field *data*, and
the profiling level beyond its on/off bit ('basic' and 'advanced'
compile to identical source).

Anything the emitter does not recognize raises ``TypeError``; the
operator then simply builds cold (uncacheable, never wrong).
"""

from __future__ import annotations

from ..analysis import ANALYSIS_VERSION
from ..symbolics.hashing import TokenEmitter

__all__ = ['fingerprint_build', 'grid_of']


def _flatten(expressions):
    flat = []
    stack = list(reversed(list(expressions))) \
        if isinstance(expressions, (list, tuple)) else [expressions]
    while stack:
        e = stack.pop()
        if isinstance(e, (list, tuple)):
            stack.extend(reversed(list(e)))
        else:
            flat.append(e)
    return flat


def grid_of(expressions):
    """The grid of the first expression that names one (None if none
    does) — what a build needs to know before fingerprinting: whether
    the ranks of a world share it."""
    for e in _flatten(expressions):
        target = getattr(e, 'sparse', None)
        if target is None:
            lhs = getattr(e, 'lhs', None)
            target = getattr(lhs, 'base', lhs)
        grid = getattr(target, 'grid', None)
        if grid is not None:
            return grid
    return None


def _emit_toplevel(emitter, e):
    if hasattr(e, 'lhs') and hasattr(e, 'rhs') and hasattr(e, 'subdomain'):
        # an Eq
        emitter.token('Eq')
        emitter.emit(e.lhs)
        emitter.emit(e.rhs)
        emitter.emit(None if e.subdomain is None else str(e.subdomain))
    elif hasattr(e, 'sparse') and hasattr(e, 'field'):
        # an Injection
        emitter.token('Inject')
        emitter.emit(e.sparse)
        emitter.emit(e.field)
        emitter.emit(e.expr)
    elif hasattr(e, 'sparse') and hasattr(e, 'expr'):
        # an Interpolation
        emitter.token('Interp')
        emitter.emit(e.sparse)
        emitter.emit(e.expr)
    elif hasattr(e, 'args') and hasattr(e, 'is_Atom'):
        emitter.emit(e)
    else:
        raise TypeError("cannot fingerprint top-level expression %r of "
                        "type %s" % (e, type(e).__name__))


def fingerprint_build(expressions, *, mpi_mode, opt, verify, sanitizer,
                      instrument, progress, backend='py'):
    """Fingerprint one operator build: its rank-agnostic structure key.

    Returns ``(hexdigest, emitter)``; the emitter doubles as the symbol
    table (live functions / sparse functions / constants / grids found
    during the traversal) used to rebind a cached artifact.

    Raises ``TypeError`` on inputs outside the token grammar — callers
    treat that as "uncacheable" and build cold.
    """
    emitter = TokenEmitter()
    # build configuration context (every source-affecting switch).  The
    # sanitizer is a tri-state (off / poison / reconcile) and the
    # verifier version is folded in because cached artifacts embed
    # analysis diagnostics and communication certificates — a change to
    # what the passes compute must invalidate them.
    emitter.token('cfg', str(mpi_mode), int(bool(opt)), int(bool(verify)),
                  str(sanitizer), int(bool(instrument)),
                  int(bool(progress)), backend, int(ANALYSIS_VERSION))
    flat = _flatten(expressions)
    emitter.token('exprs', len(flat))
    for e in flat:
        _emit_toplevel(emitter, e)
    # which dimensions of every grid touched are split: the schedule's
    # halo exchanges follow them; the rest of the decomposition (rank,
    # coordinates, local shape, weights) is bound per rank
    emitter.token('dists', len(emitter.grids))
    for grid in emitter.grids:
        emitter.token('split')
        emitter.emit(tuple(int(p) > 1 for p in grid.distributor.topology))
    return emitter.hexdigest(), emitter
