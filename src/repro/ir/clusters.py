"""The Cluster-level IR: expression grouping and halo detection.

A :class:`Cluster` groups lowered equations that share an iteration space
and have no offset flow dependence among them (those would require a halo
refresh in between under DMP).  The Cluster level is where the compiler
performs data-dependence analysis, detects required halo exchanges, and
runs the flop-reducing rewrites (cross-iteration redundancy elimination,
CSE, factorization, invariant hoisting) — paper Sections II and III-f.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, Optional, Tuple

from ..mpi import HaloWidths
from ..symbolics import (Add, Integer, Mul, Rational, Temp, cse, factorize,
                         has_indexed, hoist_invariants, unique_nodes)
from .access import AccessMap, union_widths
from .lowered import LoweredEq, accesses_of, parse_access

__all__ = ['Cluster', 'HaloRequirement', 'clusterize', 'optimize_clusters']


class HaloRequirement:
    """One function's halo data needed before a cluster executes.

    ``time_shift`` selects the time buffer (None for time-invariant
    functions, whose exchange hoists out of the time loop entirely).
    """

    __slots__ = ('function', 'time_shift', 'widths')

    def __init__(self, function, time_shift, widths):
        self.function = function
        self.time_shift = time_shift
        self.widths = HaloWidths(widths)

    @property
    def key(self):
        return (self.function.name, self.time_shift)

    def __repr__(self):
        return 'HaloRequirement(%s, t%s, %s)' % (
            self.function.name, self.time_shift, self.widths)


class Cluster:
    """A group of lowered equations over the same iteration space."""

    def __init__(self, eqs, grow=None):
        self.eqs = list(eqs)
        if not self.eqs:
            raise ValueError("empty cluster")
        #: scalar temporaries local to this cluster (from CSE)
        self.temps = []
        #: a scratch cluster's per-dimension ``(left, right)`` extension
        #: of DOMAIN (its readers' offsets); None for a DOMAIN cluster
        self.grow = None if grow is None else HaloWidths(grow)
        #: a scratch cluster's reader, and a reader's scratch cluster
        self.reader = None
        self.producer = None

    # the rewrites replace ``eqs`` and ``temps``; either assignment drops
    # the access map built from the previous ones
    @property
    def eqs(self):
        return self._eqs

    @eqs.setter
    def eqs(self, eqs):
        self._eqs = eqs
        self._access_map = None

    @property
    def temps(self):
        return self._temps

    @temps.setter
    def temps(self, temps):
        self._temps = temps
        self._access_map = None

    @property
    def access_map(self):
        """The :class:`~repro.ir.access.AccessMap` of the current
        equations and CSE temporaries."""
        if self._access_map is None:
            self._access_map = AccessMap(self._eqs, self._temps)
        return self._access_map

    @property
    def grid(self):
        return self.eqs[0].grid

    @property
    def write_keys(self):
        return {eq.write.key for eq in self.eqs}

    @property
    def functions(self):
        """All functions accessed by this cluster."""
        seen = {}
        for eq in self.eqs:
            for acc in [eq.write] + eq.reads:
                seen[acc.function.name] = acc.function
        for _, rhs in self.temps:
            for acc in accesses_of(rhs):
                seen[acc.function.name] = acc.function
        return list(seen.values())

    # -- halo detection (paper Section III-f) ----------------------------------

    def halo_requirements(self):
        """Halo exchanges this cluster needs before executing.

        A read at nonzero spatial offset along a decomposed dimension
        touches neighbor-owned data; the union of such offsets per
        (function, time buffer) gives the exchange widths.  A scratch
        cluster iterates DOMAIN grown by :attr:`grow`, so every read
        reaches that much further.  Scratch arrays are never exchanged:
        their readers' reach is served by the grown region.
        """
        amap = self.access_map
        return [HaloRequirement(amap.functions[name], tshift, widths)
                for (name, tshift), widths in amap.reach(
                    self.grid.distributor, self.grow).items()]

    def core_widths(self):
        """The halo widths CORE is carved by, for the overlap (*full*)
        mode: the union of every read's reach, so CORE points never
        touch a halo in flight.  A scratch cluster's own extension
        does not count (its CORE does not reach beyond DOMAIN where a
        neighbor is); a read of a scratch array at offset ``o`` reaches
        ``o`` beyond its writer's widths — the CORE of a reader stays
        what it was before the rewrite.
        """
        dist = self.grid.distributor
        amap = self.access_map
        reach = list(amap.reach(dist).values())
        if self.producer is not None:
            reach.extend(amap.reach(dist, self.producer.core_widths(),
                                    scratch=True).values())
        zero = tuple((0, 0) for _ in self.grid.shape)
        return HaloWidths(functools.reduce(union_widths, reach, zero))

    # -- cost model hooks -----------------------------------------------------------

    def flops_per_point(self):
        """Scalar operations per grid point (compile-time flop count)."""
        total = 0
        for _, rhs in self.temps:
            total += rhs.count_ops()
        for eq in self.eqs:
            total += eq.rhs.count_ops()
        return total

    def traffic_per_point(self, dtype_size=4):
        """Bytes moved per point assuming perfect within-point reuse:
        each distinct (function, time buffer) is streamed once."""
        amap = self.access_map
        writes = {acc.key for acc in amap.writes}
        # writes counted twice (write-allocate)
        return (len(writes | {acc.key for acc in amap.reads})
                + len(writes)) * dtype_size

    def __repr__(self):
        return 'Cluster(%d eqs, writes=%s%s)' % (
            len(self.eqs), sorted(self.write_keys),
            '' if self.grow is None else ', grow=%s' % (self.grow,))


def clusterize(lowered_eqs):
    """Group consecutive equations into clusters.

    A new cluster starts whenever an equation reads, at nonzero spatial
    offset, a buffer written by the current cluster — under DMP that read
    needs a halo refresh of freshly computed data (e.g. the elastic
    model's stress update reading the just-updated velocities).
    """
    clusters = []
    current = []
    current_writes = set()
    for eq in lowered_eqs:
        conflict = any(
            acc.key in current_writes and any(acc.offsets)
            for acc in eq.reads)
        if conflict and current:
            clusters.append(Cluster(current))
            current = []
            current_writes = set()
        current.append(eq)
        current_writes.add(eq.write.key)
    if current:
        clusters.append(Cluster(current))
    return clusters


# -- cross-iteration redundancy elimination ---------------------------------------
#
# Expanding a derivative of an expression that itself holds a stencil
# (TTI's rotated ``D(D(f))``) copies the inner expression once per
# outer-stencil offset, each copy translated, scaled by its weight and
# — numeric coefficients distribute over sums — flattened into the
# enclosing sum.  CIRE finds those copies again in the lowered form
# and stores the inner expression in a scratch array, written once per
# point by a cluster of its own, that the outer stencil reads at its
# offsets (Devito's cross-iteration redundancy elimination).


def _extent(expr, ndim):
    """Per-dimension ``(lowest, highest)`` offset of the grid accesses
    in ``expr``."""
    accs = accesses_of(expr)
    return tuple((min(a.offsets[d] for a in accs),
                  max(a.offsets[d] for a in accs)) for d in range(ndim))


def _translate(expr, dims, shift):
    """``expr`` moved by ``shift`` grid points (every access indexed)."""
    mapping = {d: Add.make(d, int(s)) for d, s in zip(dims, shift) if s}
    return expr.xreplace(mapping) if mapping else expr


class _Placement:
    """Translation-invariant identities of expression nodes.

    ``placement(node)`` is ``(identity, anchor)``: ``anchor`` is the
    per-dimension lowest offset of the node's grid accesses (None
    without any) and ``identity`` a small integer equal for two nodes
    exactly when one is the other moved by the difference of their
    anchors.  One pass over the DAG, memoized by node identity, so
    classing every term of every sum costs no rebuilt expression.  A
    node that reads a scratch array gets no anchor: it is already a
    read of a stored copy.
    """

    def __init__(self):
        self.ids = {}
        self.memo = {}

    def __call__(self, node):
        hit = self.memo.get(id(node))
        if hit is not None:
            return hit[1]
        key: Optional[Tuple[Any, ...]] = None  # None below a scratch read
        anchor: Optional[Tuple[int, ...]] = None
        if node.is_Indexed and getattr(node.base, 'is_DiscreteFunction',
                                       False):
            acc = parse_access(node)
            if not acc.function.is_Scratch:
                key = ('at', id(acc.function), acc.time_shift)
                anchor = acc.offsets
        elif not node.args:
            key = ('atom', id(node))
        else:
            kids = [self(a) for a in node.args]
            if all(ident is not None for ident, _ in kids):
                anchors = [a for _, a in kids if a is not None]
                if anchors:
                    anchor = tuple(map(min, zip(*anchors)))
                key = (type(node), node._key_payload(), tuple(
                    (ident, None if a is None or anchor is None else
                     tuple(x - y for x, y in zip(a, anchor)))
                    for ident, a in kids))
        result = (None, None) if key is None else \
            (self.ids.setdefault(key, len(self.ids)), anchor)
        self.memo[id(node)] = (node, result)
        return result


def _split(term):
    """``(exact numeric coefficient as a Fraction, remainder)``."""
    if term.is_Mul and isinstance(term.args[0], (Integer, Rational)):
        rest = term.args[1:]
        return Fraction(term.args[0].value), \
            rest[0] if len(rest) == 1 else Mul(*rest)
    return Fraction(1), term


def _number(frac):
    return Rational(frac.numerator, frac.denominator)


def _has_stencil_sum(expr):
    """Whether ``expr`` holds a sum of two or more array terms."""
    return any(node.is_Add and sum(1 for a in node.args
                                   if has_indexed(a)) >= 2
               for node in unique_nodes(expr))


def _translated_groups(add, placement):
    """The translated copies in the terms of sum ``add``.

    Terms are classed by the translation-invariant identity of their
    non-numeric part.  A class met at several translations is one term
    of a repeated expression; classes whose (relative translation,
    relative coefficient) signatures coincide are terms of the *same*
    one.  Returns ``[(expression, [(weight, translation), ...], term
    indices)]``: each group's terms add up to ``sum(weight *
    expression moved by translation)`` exactly, in exact arithmetic.
    """
    classes = {}
    for i, term in enumerate(add.args):
        coeff, rest = _split(term)
        ident, pos = placement(rest)
        if pos is not None:
            classes.setdefault(ident, []).append((pos, coeff, i, rest))
    groups = {}
    for occ in classes.values():
        if len(occ) < 2:
            continue
        occ.sort(key=lambda o: o[0])
        pos0, c0 = occ[0][0], occ[0][1]
        sig = tuple((tuple(p - q for p, q in zip(pos, pos0)), c / c0)
                    for pos, c, _, _ in occ)
        groups.setdefault(sig, []).append(occ)
    out = []
    for sig, members in groups.items():
        # the copy at the lowest translation, as written
        base = Add.make(*[Mul.make(_number(occ[0][1]), occ[0][3])
                          for occ in members])
        if not _has_stencil_sum(base):
            continue
        out.append((base, [(w, delta) for delta, w in sig],
                    [o[2] for occ in members for o in occ]))
    return out


def _cire(cluster, scratch_names):
    """Rewrite ``cluster``'s equations to read scratch arrays in place
    of translated copies; returns the scratch cluster (or None).

    A translated expression is normalized (leading coefficient 1,
    centred on its accesses' extent) so equal ones, wherever met, share
    one scratch array.  The scratch cluster writes each array at its
    own point over DOMAIN grown by the readers' offsets, every array
    allocated that wide.
    """
    from ..dsl.function import ScratchArray
    grid = cluster.grid
    dims = grid.dimensions
    ndim = len(dims)
    arrays = {}    # normalized expression -> its scratch array
    placement = _Placement()
    memo = {}

    def rewrite_add(add):
        groups = _translated_groups(add, placement)
        if not groups:
            return add
        drop, extra = set(), []
        for base, copies, indices in groups:
            c0, _ = _split(base.args[0] if base.is_Add else base)
            expr = Mul.make(_number(1 / c0), base)
            ext = _extent(expr, ndim)
            centre = [(lo + hi) // 2 for lo, hi in ext]
            expr = _translate(expr, dims, [-c for c in centre])
            array = arrays.get(expr)
            if array is None:
                array = arrays[expr] = ScratchArray(next(scratch_names),
                                                    grid)
            for w, delta in copies:
                extra.append(Mul.make(_number(w * c0), array.indexed(*[
                    Add.make(d, int(o) + c)
                    for d, o, c in zip(dims, delta, centre)])))
            drop.update(indices)
        return Add.make(*[t for i, t in enumerate(add.args)
                          if i not in drop] + extra)

    def rec(node):
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        if not node.args or node.is_Indexed:
            result = node
        else:
            args = [rec(a) for a in node.args]
            result = node if all(a is b for a, b in zip(args, node.args)) \
                else node.func(*args)
            if result.is_Add and has_indexed(result):
                result = rewrite_add(result)
        memo[id(node)] = (node, result)
        return result

    eqs = [LoweredEq(eq.lhs, rec(eq.rhs)) for eq in cluster.eqs]
    if not arrays:
        return None
    cluster.eqs = eqs
    # the readers' reach per dimension is the arrays' growth
    grow = functools.reduce(
        union_widths, cluster.access_map.reach(scratch=True).values(),
        tuple((0, 0) for _ in dims))
    for array in arrays.values():
        array.halo = grow
    scratch = Cluster([LoweredEq(array.indexify(), expr)
                       for expr, array in arrays.items()], grow=grow)
    scratch.reader, cluster.producer = cluster, scratch
    return scratch


def optimize_clusters(clusters, opt=True):
    """Run the flop-reducing pipeline over all clusters.

    Returns ``(scalar_assignments, clusters)``: loop-invariant scalar
    temporaries (the ``r0 = 1/dt`` preamble of Listing 11) are hoisted
    across clusters with a shared namer; point-level CSE temporaries stay
    attached to their cluster; every final expression is factorized.
    Cross-iteration redundancy elimination runs first and adds, right
    before a cluster it rewrote, the scratch cluster its reads need.
    """
    import itertools

    counter = itertools.count()

    def namer():
        return Temp(next(counter))

    def invariant_p(node):
        # loop-invariant: no array access anywhere below (memoized over
        # the global DAG, so repeat queries on shared subtrees are O(1))
        return not has_indexed(node)

    scalar_assignments = []
    if not opt:
        return scalar_assignments, clusters

    scratch_names = ('__cire%d' % i for i in itertools.count())
    expanded = []
    for cluster in clusters:
        scratch = _cire(cluster, scratch_names)
        if scratch is not None:
            expanded.append(scratch)
        expanded.append(cluster)
    clusters = expanded

    for cluster in clusters:
        pairs = [(eq.lhs, eq.rhs) for eq in cluster.eqs]
        hoisted, pairs = hoist_invariants(pairs, invariant_p, mkname=namer)
        scalar_assignments.extend(hoisted)
        temps, pairs = cse(pairs, min_count=2, min_ops=1, mkname=namer)
        temps = [(t, factorize(rhs)) for t, rhs in temps]
        pairs = [(lhs, factorize(rhs)) for lhs, rhs in pairs]
        cluster.temps = temps
        cluster.eqs = [LoweredEq(lhs, rhs) for lhs, rhs in pairs]
    # deduplicate identical scalar assignments across clusters
    seen = {}
    final_scalars = []
    remap = {}
    for temp, rhs in scalar_assignments:
        rhs = rhs.xreplace(remap)
        if rhs in seen:
            remap[temp] = seen[rhs]
        else:
            seen[rhs] = temp
            final_scalars.append((temp, rhs))
    if remap:
        for cluster in clusters:
            cluster.temps = [(t, rhs.xreplace(remap))
                             for t, rhs in cluster.temps]
            cluster.eqs = [LoweredEq(eq.lhs, eq.rhs.xreplace(remap))
                           for eq in cluster.eqs]
    return final_scalars, clusters
