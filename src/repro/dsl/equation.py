"""Equations: the unit of specification handed to an ``Operator``.

``Eq(lhs, rhs)`` is symbolic (nothing is computed at construction).
Vector/tensor equations flatten into per-component scalar equations.  The
lowering entry point resolves staggered evaluation points (derivatives on
the RHS are evaluated at the LHS field's grid position) and expands all
derivatives into explicit stencils.
"""

from __future__ import annotations

from ..symbolics import (Derivative, Indexed, S, TokenEmitter,
                         expand_derivatives, indexify)
from ..symbolics import solve as _solve
from .function import DiscreteFunction
from .tensor import TensorExpr, VectorExpr

__all__ = ['Eq', 'solve']


class Eq:
    """A symbolic equation ``lhs = rhs``.

    For stencil updates, ``lhs`` is a function access (``u.forward``) and
    ``rhs`` an expression.  Passing vector/tensor objects produces a list
    of scalar component equations via :func:`Eq.flatten`.
    """

    def __new__(cls, lhs, rhs=0, subdomain=None):
        if isinstance(lhs, (VectorExpr, TensorExpr)) or \
                isinstance(rhs, (VectorExpr, TensorExpr)):
            return cls.flatten(lhs, rhs, subdomain=subdomain)
        return super().__new__(cls)

    def __init__(self, lhs, rhs=0, subdomain=None):
        if isinstance(lhs, list):
            return  # produced by flatten; already a list of Eqs
        self.lhs = S(lhs)
        self.rhs = S(rhs)
        self.subdomain = subdomain

    @classmethod
    def flatten(cls, lhs, rhs, subdomain=None):
        if isinstance(lhs, VectorExpr):
            if not isinstance(rhs, VectorExpr):
                raise TypeError("vector lhs needs vector rhs")
            return [cls(a, b, subdomain=subdomain)
                    for a, b in zip(lhs.components, rhs.components)]
        if isinstance(lhs, TensorExpr):
            if not isinstance(rhs, TensorExpr):
                raise TypeError("tensor lhs needs tensor rhs")
            return [cls(lhs.entries[k], rhs.entries[k], subdomain=subdomain)
                    for k in sorted(lhs.entries)]
        raise TypeError("flatten expects vector/tensor operands")

    # -- queries ---------------------------------------------------------------

    @property
    def residual(self):
        """``lhs - rhs`` (what ``solve`` operates on)."""
        return self.lhs - self.rhs

    def target_function(self):
        """The DiscreteFunction written by this equation."""
        lhs = self.lhs
        if isinstance(lhs, DiscreteFunction):
            return lhs
        if lhs.is_Indexed and isinstance(lhs.base, DiscreteFunction):
            return lhs.base
        raise ValueError("equation lhs %s is not a function access" % (lhs,))

    # -- lowering ----------------------------------------------------------------

    def lower(self):
        """Resolve staggering, expand derivatives, indexify.

        Returns ``(lhs_indexed, rhs_expr)``, both fully index-explicit.
        This is the "Equations lowering" stage of the paper's Figure 1.
        """
        func = self.target_function()
        lhs = self.lhs
        if isinstance(lhs, DiscreteFunction):
            lhs = lhs.indexify()
        x0_map = dict(getattr(func, 'stagger_map', {}))
        rhs = _apply_x0(self.rhs, x0_map)
        rhs = indexify(expand_derivatives(rhs))
        return lhs, rhs

    def __repr__(self):
        return 'Eq(%s, %s)' % (self.lhs, self.rhs)


def _apply_x0(expr, x0_map):
    """Set the evaluation point of derivatives lacking an explicit one.

    The LHS staggering decides where RHS derivatives are evaluated —
    Devito's automatic staggered-scheme derivation.  Only space
    dimensions participate (time offsets are explicit).
    """
    if not x0_map:
        return S(expr)
    memo = {}

    def rebuild(node):
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        if not node.args and not node.is_Derivative:
            return node
        new_args = [rebuild(a) for a in node.args]
        if node.is_Derivative:
            merged = dict(x0_map)
            merged.update(node.x0)
            # keep only offsets for the dimensions being differentiated
            # or appearing in the sampled expression's staggering
            result = Derivative(new_args[0], *node.derivs,
                                fd_order=node.fd_order, x0=merged,
                                offsets=node.offsets)
        elif all(na is a for na, a in zip(new_args, node.args)):
            result = node
        else:
            result = node.func(*new_args)
        memo[id(node)] = (node, result)
        return result

    return rebuild(S(expr))


def solve(eq, target):
    """Solve ``eq`` (an :class:`Eq` or an expression == 0) for ``target``.

    Resolves staggering against the *target*'s grid position before
    expanding, so staggered systems produce consistent updates.

    On a distributed grid the rank threads of a world solve each
    equation once.  The key is a rank-free rendering of the resolved
    residual and the target (:class:`~repro.symbolics.TokenEmitter`:
    function signatures and the global grid shape).  This rank's n-th
    solve with a key joins the n-th shared solve of it
    (:class:`~repro.mpi.sim.SharedBuilds`): the first rank to arrive
    solves and publishes the result with the atoms it owns (or the
    error, which every rank raises); every other rank rebinds that
    result to its own functions, dimensions and spacings.  A serial
    grid, a target that is not a function, an input outside the token
    grammar or a result that holds an atom this rank cannot rebind is
    solved locally.
    """
    expr = eq.residual if isinstance(eq, Eq) else S(eq)
    t = S(target)
    tfunc = t if isinstance(t, DiscreteFunction) else \
        t.base if t.is_Indexed and isinstance(t.base, DiscreteFunction) \
        else None
    if tfunc is None:
        return _solve(expr, t)
    expr = _apply_x0(expr, dict(getattr(tfunc, 'stagger_map', {})))
    if isinstance(t, DiscreteFunction):
        t = t.indexify()
    comm = tfunc.grid.distributor.comm
    world = getattr(comm, 'world', None)
    if world is None or world.size == 1:
        return _solve(expr, t)
    emitter = TokenEmitter()
    try:
        emitter.emit((expr, t))
    except TypeError:
        return _solve(expr, t)
    atoms = _owned_atoms(emitter)
    entry, leader = world.builds.join(comm.rank,
                                      ('solve', emitter.hexdigest()))
    if leader:
        try:
            result = _solve(expr, t)
        except BaseException as exc:
            entry.publish(error=exc)
            raise
        entry.publish((result, atoms))
        return result
    result, theirs = entry.take()
    try:
        return _rebind(result, {id(a): b for a, b in zip(theirs, atoms)})
    except LookupError:
        return _solve(expr, t)


def _owned_atoms(emitter):
    """The per-rank atoms a solve of the emitted input can hold, in an
    order every rank with the same key shares: its functions and
    constants, and the dimensions and spacings of their grids."""
    atoms = list(emitter.functions.values())
    atoms += emitter.constants.values()
    for grid in emitter.grids:
        dims = grid.dimensions + (grid.time_dim, grid.stepping_dim)
        atoms += dims
        atoms += [d.spacing for d in dims]
    return atoms


def _rebind(expr, mapping):
    """``expr`` with every atom renamed through ``mapping`` (``id`` of the
    leader's atom -> this rank's).

    The renamed atoms have the names and signatures of the originals,
    so every canonical sort key is unchanged and each node is rebuilt
    by its class call, which only interns: no re-canonicalisation.
    Raises ``LookupError`` on a node that would keep an atom of another
    rank: an unmapped function or non-interned leaf (per-object, like
    a dimension), or a node that is neither interned nor an access.
    """
    memo = {}  # keyed by nodes of ``expr``, which pins them

    def rec(node):
        hit = memo.get(id(node))
        if hit is not None:
            return hit
        if node.is_Indexed:
            result = Indexed(mapping[id(node.base)],
                             *[rec(a) for a in node.args])
        elif not node.args:
            result = mapping.get(id(node))
            if result is None:
                if not type(node)._hashcons:
                    raise LookupError(node)
                result = node
        elif type(node)._hashcons and not node.is_Derivative:
            args = [rec(a) for a in node.args]
            result = node if all(a is b for a, b in zip(args, node.args)) \
                else type(node)(*args)
        else:
            raise LookupError(node)
        memo[id(node)] = result
        return result

    return rec(expr)
