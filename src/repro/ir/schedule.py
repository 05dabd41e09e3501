"""Operator schedule: the ordered step list inside (and around) the time loop.

This is the analogue of the paper's schedule tree + IET ``HaloSpot``
machinery (Sections III-f/g): halo exchanges are placed before the
clusters that need them, redundant exchanges are dropped (data not yet
"dirty"), exchanges of time-invariant functions are hoisted out of the
time loop, and — in *full* mode — [update; compute] pairs are rewritten
into [begin; compute-CORE; wait; compute-REMAINDER] for
communication/computation overlap.
"""

from __future__ import annotations

from ..dsl.equation import Eq
from ..dsl.sparse import Injection, Interpolation
from ..symbolics import indexify, expand_derivatives
from .clusters import HaloRequirement, clusterize, optimize_clusters
from .lowered import LoweredEq, accesses_of, parse_access

__all__ = ['HaloStep', 'ComputeStep', 'SparseStep', 'Schedule',
           'build_schedule', 'plan_blocking']

#: default cache-block edge (points) of the compiled backend's tiles
BLOCK_DEFAULT = 32


class HaloStep:
    """A halo-exchange point in the schedule.

    ``kind`` is ``'update'`` (blocking), ``'begin'`` or ``'wait'``
    (asynchronous halves, full mode).  ``exchanges`` is the list of
    :class:`HaloRequirement` batched at this point — the single-step
    message sets of the diagonal/full patterns batch all of them at once.
    """

    is_halo = True
    is_compute = False
    is_sparse = False

    def __init__(self, exchanges, kind='update', uid=0):
        self.exchanges = list(exchanges)
        self.kind = kind
        self.uid = uid

    def __repr__(self):
        return 'HaloStep(%s, %s)' % (
            self.kind, [e.key for e in self.exchanges])


class ComputeStep:
    """Execution of one cluster over a region (domain/core/remainder).

    ``parallel`` records how the backends execute the space sweep: both
    treat it as embarrassingly parallel (whole-array NumPy expressions /
    a collapsed OpenMP loop nest), which is what the static race
    detector (``repro.analysis.races``) verifies.
    """

    is_halo = False
    is_compute = True
    is_sparse = False

    def __init__(self, cluster, region='domain', parallel=True):
        self.cluster = cluster
        self.region = region
        self.parallel = parallel

    def __repr__(self):
        return 'ComputeStep(%s, %d eqs)' % (self.region,
                                            len(self.cluster.eqs))


class SparseStep:
    """A sparse-point operation (injection or interpolation)."""

    is_halo = False
    is_compute = False
    is_sparse = True

    def __init__(self, op, lowered_expr, field_access=None):
        self.op = op
        self.kind = 'inject' if isinstance(op, Injection) else 'interpolate'
        self.expr = lowered_expr
        self.field_access = field_access  # Access of the injected field

    def __repr__(self):
        return 'SparseStep(%s, %s)' % (self.kind, self.op.sparse.name)


class Schedule:
    """The complete operator schedule."""

    def __init__(self, grid, scalar_assignments, preamble_halo, steps,
                 clusters, mpi_mode):
        self.grid = grid
        self.scalar_assignments = scalar_assignments
        #: exchanges of time-invariant functions, hoisted before the loop
        self.preamble_halo = preamble_halo
        #: steps executed once per timestep, in order
        self.steps = steps
        self.clusters = clusters
        self.mpi_mode = mpi_mode

    def dump(self):
        """Human-readable schedule (sections, halo depths per step).

        Shared with the CLI's ``--dump-schedule`` and the diagnostic
        renderer's step excerpts.
        """
        from ..analysis.render import render_schedule
        return render_schedule(self)

    # -- cost hooks -------------------------------------------------------------

    def flops_per_point(self):
        return sum(c.flops_per_point() for c in self.clusters)

    def dag_stats(self):
        """Aggregate DAG statistics of every scheduled expression.

        Unlike per-expression :meth:`Expr.dag_stats`, nodes shared
        *across* clusters and temporaries count once — this is the
        number of distinct symbolic objects the lowering pipeline
        actually processed.  ``sharing`` (tree / unique) is the factor
        hash-consing saved over a plain-tree representation.
        """
        from ..symbolics import unique_nodes
        roots = []
        for cluster in self.clusters:
            roots.extend(rhs for _, rhs in cluster.temps)
            roots.extend(eq.rhs for eq in cluster.eqs)
        seen = {}
        tree_total = 0
        depth = 0
        for root in roots:
            stats = root.dag_stats()
            tree_total += stats['tree_nodes']
            depth = max(depth, stats['depth'])
            for node in unique_nodes(root):
                seen.setdefault(id(node), node)
        unique = len(seen)
        return {
            'roots': len(roots),
            'unique_nodes': unique,
            'tree_nodes': tree_total,
            'sharing': (tree_total / unique) if unique else 1.0,
            'depth': depth,
        }

    def traffic_per_point(self, dtype_size=4):
        return sum(c.traffic_per_point(dtype_size) for c in self.clusters)

    @property
    def functions(self):
        seen = {}
        for cluster in self.clusters:
            for f in cluster.functions:
                seen[f.name] = f
        for step in self.steps:
            if step.is_sparse:
                for acc in accesses_of(step.expr):
                    seen[acc.function.name] = acc.function
                if step.field_access is not None:
                    f = step.field_access.function
                    seen[f.name] = f
        return list(seen.values())

    @property
    def sparse_functions(self):
        out = {}
        for step in self.steps:
            if step.is_sparse:
                out[step.op.sparse.name] = step.op.sparse
        return list(out.values())


def _lower_sparse(op):
    """Lower a sparse operation's expression(s) to index-explicit form."""
    expr = indexify(expand_derivatives(op.expr))
    if isinstance(op, Injection):
        field = op.field
        if getattr(field, 'is_DiscreteFunction', False):
            field = field.indexify()
        return SparseStep(op, expr,
                          field_access=parse_access(field, is_write=True))
    return SparseStep(op, expr)


def build_schedule(expressions, mpi_mode=None, opt=True):
    """Compile a list of Eq/Injection/Interpolation into a Schedule.

    Runs the full Cluster-level pipeline (lowering, clustering,
    flop-reducing rewrites, halo detection) and the HaloSpot-style
    placement passes.
    """
    # -- flatten and lower -------------------------------------------------------
    flat = []
    stack = list(reversed(list(expressions)))
    while stack:
        e = stack.pop()
        if isinstance(e, (list, tuple)):
            stack.extend(reversed(list(e)))
        else:
            flat.append(e)

    grid = None
    items = []  # ('eq', LoweredEq) | ('sparse', SparseStep)
    for e in flat:
        if isinstance(e, Eq):
            lhs, rhs = e.lower()
            leq = LoweredEq(lhs, rhs)
            items.append(('eq', leq))
            grid = grid or leq.grid
        elif isinstance(e, (Injection, Interpolation)):
            items.append(('sparse', _lower_sparse(e)))
        else:
            raise TypeError("Operator cannot compile %r" % (e,))
    if grid is None:
        for kind, item in items:
            if kind == 'sparse':
                grid = item.op.sparse.grid
                break
    if grid is None:
        raise ValueError("no expressions to compile")

    # -- clusterize contiguous runs of grid equations ------------------------------
    ordered = []   # ('cluster', Cluster) | ('sparse', SparseStep)
    run = []
    for kind, item in items:
        if kind == 'eq':
            run.append(item)
        else:
            if run:
                ordered.extend(('cluster', c) for c in clusterize(run))
                run = []
            ordered.append(('sparse', item))
    if run:
        ordered.extend(('cluster', c) for c in clusterize(run))

    clusters = [item for kind, item in ordered if kind == 'cluster']
    scalar_assignments, clusters = optimize_clusters(clusters, opt=opt)

    # -- halo placement with redundancy dropping and hoisting ----------------------
    # The "data not dirty" drop and the preamble hoist are *width-aware*:
    # an exchange is only dropped (or a hoist only reused) when the
    # already-exchanged depths cover the new requirement in every
    # dimension — a deeper follow-up read forces a fresh exchange (and
    # widens the hoisted one in place).  The static verifier
    # (repro.analysis) independently re-derives footprints and would
    # reject a width-ignoring drop with REPRO-E102.
    def _covered(have, need):
        return have is not None and all(
            hl >= nl and hr >= nr
            for (hl, hr), (nl, nr) in zip(have, need))

    def _widened(have, need):
        if have is None:
            return tuple((l, r) for l, r in need)
        return tuple((max(hl, nl), max(hr, nr))
                     for (hl, hr), (nl, nr) in zip(have, need))

    distributed = grid.distributor.is_parallel and mpi_mode
    preamble_halo = []
    steps = []
    uid = 0
    clean = {}    # (fname, tshift) -> exchanged widths, not since dirtied
    hoisted = {}  # time-invariant key -> its HaloRequirement in preamble
    for kind, item in ordered:
        if kind == 'cluster':
            needed = []
            if distributed:
                for req in item.halo_requirements():
                    if req.time_shift is None:
                        # time-invariant function: hoist out of the loop
                        prev = hoisted.get(req.key)
                        if prev is None:
                            hoisted[req.key] = req
                            preamble_halo.append(req)
                        elif not _covered(prev.widths, req.widths):
                            merged = HaloRequirement(
                                req.function, None,
                                _widened(prev.widths, req.widths))
                            preamble_halo[preamble_halo.index(prev)] = \
                                merged
                            hoisted[req.key] = merged
                        continue
                    have = clean.get(req.key)
                    if _covered(have, req.widths):
                        continue  # dropped: data not dirty (HaloSpot opt)
                    needed.append(req)
                    clean[req.key] = _widened(have, req.widths)
            if needed:
                steps.append(HaloStep(needed, kind='update', uid=uid))
                uid += 1
            steps.append(ComputeStep(item))
            # writes dirty the written buffers
            for key in item.write_keys:
                clean.pop(key, None)
        else:
            steps.append(item)
            if item.field_access is not None:
                clean.pop(item.field_access.key, None)

    # the rotating time buffers invalidate everything across iterations,
    # which the per-iteration clean-set already models (it is rebuilt each
    # timestep in generated code; statically we only reason per iteration)

    # -- full mode: communication/computation overlap -------------------------------
    if distributed and mpi_mode == 'full':
        steps = _apply_overlap(steps)

    return Schedule(grid, scalar_assignments, preamble_halo, steps,
                    clusters, mpi_mode if distributed else None)


def _apply_overlap(steps):
    """Rewrite [update; compute] pairs into begin/CORE/wait/REMAINDER."""
    out = []
    i = 0
    while i < len(steps):
        step = steps[i]
        nxt = steps[i + 1] if i + 1 < len(steps) else None
        if (step.is_halo and step.kind == 'update'
                and nxt is not None and nxt.is_compute):
            begin = HaloStep(step.exchanges, kind='begin', uid=step.uid)
            wait = HaloStep(step.exchanges, kind='wait', uid=step.uid)
            out.append(begin)
            out.append(ComputeStep(nxt.cluster, region='core'))
            out.append(wait)
            out.append(ComputeStep(nxt.cluster, region='remainder'))
            i += 2
        else:
            out.append(step)
            i += 1
    return out


def plan_blocking(ndim, block=BLOCK_DEFAULT):
    """Cache-blocking plan of a compute step's ``ndim``-deep loop nest.

    Returns one block size per dimension, ``None`` meaning "do not tile
    this loop".

    The policy mirrors Devito's space blocking ("Optimised finite
    difference computation from symbolic equations"): every loop is
    tiled *except* the innermost one, which stays contiguous so the
    compiler can vectorize streaming accesses — tiling it would cut
    SIMD trip counts and defeat hardware prefetch.  The plan cannot see
    extents: the executed C is compiled once per set of equations and
    learns its bounds at run time, so a loop shorter than a block costs
    one trip of its tile loop (a run-time ``min``) instead of being
    left whole at print time.  Time-tiling is deliberately absent: a
    distributed timestep ends in a halo exchange, which is a dependence
    barrier between iterations — skewed time tiles would have to cross
    it.
    """
    return [int(block)] * (ndim - 1) + [None]
