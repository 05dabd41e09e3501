"""Lowered equations and array-access analysis.

After ``Eq.lower()`` every equation is a pair of index-explicit
expressions.  This module wraps them as :class:`LoweredEq` and provides
the access parsing the Cluster-level data-dependence analysis needs:
every read/write is reduced to ``(function, time_shift, space_offsets)``,
from which halo requirements are derived (paper Section III-f).
"""

from __future__ import annotations

from ..symbolics import Integer, preorder

__all__ = ['Access', 'LoweredEq', 'parse_index', 'parse_access',
           'accesses_of']


def parse_index(index_expr, dim):
    """Decompose an index expression as ``dim + constant``.

    Returns the integer offset, or raises ``ValueError`` for indirect
    accesses (which the stencil pipeline does not generate).
    """
    if index_expr == dim:
        return 0
    if isinstance(index_expr, Integer):
        raise ValueError("absolute index %s (expected %s + const)"
                         % (index_expr, dim))
    if index_expr.is_Add:
        offset = 0
        found = False
        for arg in index_expr.args:
            if arg == dim:
                found = True
            elif isinstance(arg, Integer):
                offset += arg.value
            else:
                raise ValueError("unsupported index %s" % (index_expr,))
        if found:
            return offset
    raise ValueError("unsupported index expression %s along %s"
                     % (index_expr, dim))


class Access:
    """One array access: function, time shift, per-space-dim offsets."""

    __slots__ = ('function', 'time_shift', 'offsets', 'is_write')

    def __init__(self, function, time_shift, offsets, is_write=False):
        self.function = function
        self.time_shift = time_shift
        self.offsets = tuple(offsets)
        self.is_write = is_write

    @property
    def key(self):
        """Dependence key: which buffer of which function is touched."""
        return (self.function.name, self.time_shift)

    def __repr__(self):
        mode = 'W' if self.is_write else 'R'
        return 'Access[%s](%s, t%+d, %s)' % (
            mode, self.function.name, self.time_shift or 0,
            list(self.offsets))


def parse_access(indexed, is_write=False):
    """Parse an Indexed over a DiscreteFunction into an :class:`Access`."""
    func = indexed.base
    dims = func.dimensions
    if len(indexed.indices) != len(dims):
        raise ValueError("access %s arity mismatch" % (indexed,))
    time_shift = None
    offsets = []
    for dim, idx in zip(dims, indexed.indices):
        off = parse_index(idx, dim)
        if dim.is_Time:
            time_shift = off
        else:
            offsets.append(off)
    return Access(func, time_shift, offsets, is_write=is_write)


def accesses_of(expr):
    """All grid-function accesses in ``expr``."""
    out = []
    for node in preorder(expr):
        if node.is_Indexed and getattr(node.base, 'is_DiscreteFunction',
                                       False):
            out.append(parse_access(node))
    return out


class LoweredEq:
    """An index-explicit assignment ``lhs[...] = rhs``."""

    def __init__(self, lhs, rhs):
        if not lhs.is_Indexed:
            raise ValueError("lowered lhs must be an array access, got %s"
                             % (lhs,))
        self.lhs = lhs
        self.rhs = rhs
        self.write = parse_access(lhs, is_write=True)
        self.reads = accesses_of(rhs)

    @property
    def function(self):
        return self.write.function

    @property
    def grid(self):
        return self.function.grid

    def __repr__(self):
        return 'LoweredEq(%s = %s)' % (self.lhs, self.rhs)
