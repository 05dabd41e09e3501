"""Symbolic derivatives and their finite-difference expansion.

A :class:`Derivative` is an unevaluated node recording *what* to
differentiate and with which discretization (dimension, derivative order,
FD accuracy order, evaluation point).  ``evaluate`` lowers it into an
explicit weighted sum of shifted array accesses using exact Fornberg
weights — the "Equations lowering" stage of the paper's Figure 1.

Expansion and indexification are pure functions of the node, so both are
memoized in global :class:`~.expr.WeakIdMemo` tables: the TTI propagator
solves two coupled PDEs sharing their rotated-derivative subDAGs, and the
scheduler re-lowers the same equations the solver already lowered — with
hash-consing those shared nodes are *identical* objects, so the second
traversal is a table hit instead of a re-expansion.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import (Add, Expr, Mul, Pow, Rational, S, WeakIdMemo,
                   unique_nodes)
from .fd import fd_weights

__all__ = ['Derivative', 'expand_derivatives', 'indexify', 'expr_stagger']


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return value.value
    if hasattr(value, 'value'):
        return Fraction(value.value)
    return Fraction(value)


#: node -> indexified node; pure per object, shared across all lowerings
_INDEXIFY_MEMO = WeakIdMemo()


def indexify(expr):
    """Replace leaf DSL function atoms with their default array accesses."""

    def rec(node):
        if getattr(node, 'is_DiscreteFunction', False):
            # not memoized: the access holds the function, so the entry
            # would keep its own key (and the field's data) alive forever
            return node.indexify()
        result = _INDEXIFY_MEMO.get(node)
        if result is not None:
            return result
        if not node.args:
            result = node
        else:
            new_args = [rec(a) for a in node.args]
            if all(na is a for na, a in zip(new_args, node.args)):
                result = node
            else:
                result = node.func(*new_args)
        _INDEXIFY_MEMO.set(node, result)
        return result

    return rec(S(expr))


def expr_stagger(expr, dim):
    """Infer the natural grid staggering of ``expr`` along ``dim``.

    If every function accessed in ``expr`` is staggered identically along
    ``dim`` that staggering is returned; mixed or absent staggering yields
    0 (node-centered).
    """
    staggers = set()
    for node in unique_nodes(S(expr)):
        base = None
        if node.is_Indexed:
            base = node.base
        elif getattr(node, 'is_DiscreteFunction', False):
            base = node
        if base is not None:
            smap = getattr(base, 'stagger_map', None)
            if smap:
                staggers.add(Fraction(smap.get(dim, 0)))
            else:
                staggers.add(Fraction(0))
    if len(staggers) == 1:
        return staggers.pop()
    return Fraction(0)


class Derivative(Expr):
    """An unevaluated derivative of ``expr``.

    Parameters
    ----------
    expr : Expr
        Differentiated expression (may contain nested Derivatives).
    derivs : tuple of (dimension, order)
        Differentiation spec, e.g. ``((x, 2),)`` for d2/dx2.
    fd_order : int
        Order of accuracy of the FD approximation.
    x0 : dict, optional
        Evaluation point offset per dimension (Fraction); defaults to the
        node (0).  Used for staggered-grid schemes.
    offsets : dict, optional
        Explicit per-dimension sample offsets, overriding the canonical
        symmetric choice (used for one-sided time derivatives).

    Instances are hash-consed and frozen: ``derivs``/``x0``/``offsets``
    are fixed at construction (never mutate the dicts of a built node —
    rebuild through the constructor instead).
    """

    __slots__ = ('derivs', 'fd_order', 'x0', 'offsets')
    _class_rank = 40
    is_Derivative = True
    _interned = True

    def __init__(self, expr, *derivs, fd_order=2, x0=None, offsets=None):
        super().__init__(S(expr))
        norm = []
        for d in derivs:
            if isinstance(d, tuple):
                dim, order = d
            else:
                dim, order = d, 1
            norm.append((dim, int(order)))
        if not norm:
            raise ValueError("Derivative needs at least one dimension")
        self.derivs = tuple(norm)
        self.fd_order = int(fd_order)
        self.x0 = dict(x0 or {})
        self.offsets = dict(offsets or {})

    @classmethod
    def make(cls, expr, *derivs, **kwargs):
        return cls(expr, *derivs, **kwargs)

    def _intern_key(self):
        # dimensions are keyed by identity (they are per-grid objects);
        # x0/offsets values canonicalize to Fraction so e.g. 0.5 and
        # Rational(1, 2) evaluation points intern to the same node
        derivs = tuple((id(dim), order) for dim, order in self.derivs)
        x0_key = tuple(sorted(
            (id(d), _as_fraction(v)) for d, v in self.x0.items()))
        off_key = tuple(sorted(
            (id(d), tuple(_as_fraction(o) for o in v))
            for d, v in self.offsets.items()))
        return (type(self), id(self.args[0]), derivs, self.fd_order,
                x0_key, off_key)

    @property
    def func(self):
        derivs, fd_order, x0, offsets = (self.derivs, self.fd_order,
                                         self.x0, self.offsets)
        return lambda expr: Derivative(expr, *derivs, fd_order=fd_order,
                                       x0=x0, offsets=offsets)

    @property
    def expr(self):
        return self.args[0]

    def _hashable(self):
        x0_key = tuple(sorted((d.name, v) for d, v in self.x0.items()))
        off_key = tuple(sorted((d.name, tuple(v))
                               for d, v in self.offsets.items()))
        return ('Derivative', self.args[0], self.derivs, self.fd_order,
                x0_key, off_key)

    def _key_payload(self):
        return tuple((dim.name, order) for dim, order in self.derivs)

    def _sstr(self):
        spec = ', '.join('(%s, %d)' % (dim.name, order)
                         for dim, order in self.derivs)
        return 'Derivative(%s, %s)' % (self.args[0], spec)

    # -- transposition (adjoint), used by the self-adjoint TTI kernels -------

    @property
    def T(self):
        """The formal adjoint: odd-order central differences negate."""
        total = sum(order for _, order in self.derivs)
        if total % 2:
            return Mul.make(-1, self)
        return self

    # -- expansion -------------------------------------------------------------

    @property
    def evaluate(self):
        """Expand into an explicit finite-difference stencil expression."""
        return expand_derivatives(self)

    def _expand_one(self, expr, dim, order):
        x0 = _as_fraction(self.x0.get(dim, 0))
        if dim in self.offsets:
            offsets = [_as_fraction(o) for o in self.offsets[dim]]
            from .fd import fornberg_weights
            weights = fornberg_weights(order, offsets, x0=x0)
        else:
            stagger = expr_stagger(expr, dim)
            offsets, weights = fd_weights(order, self.fd_order,
                                          stagger=stagger, x0=x0)
            # shifts are relative to the expression's own centering
            x_base = stagger
            offsets = [o - x_base for o in offsets]
            terms = []
            for off, w in zip(offsets, weights):
                if w == 0:
                    continue
                shifted = _shift(expr, dim, off)
                terms.append(Mul.make(Rational(w.numerator, w.denominator),
                                      shifted))
            spacing = Pow.make(dim.spacing, -order)
            return Mul.make(Add.make(*terms), spacing)
        # explicit-offsets path (e.g. one-sided time derivatives)
        terms = []
        for off, w in zip(offsets, weights):
            if w == 0:
                continue
            shifted = _shift(expr, dim, off - x0)
            terms.append(Mul.make(Rational(w.numerator, w.denominator),
                                  shifted))
        spacing = Pow.make(dim.spacing, -order)
        return Mul.make(Add.make(*terms), spacing)


def _shift(expr, dim, offset):
    """Shift ``expr`` along ``dim`` by ``offset`` grid increments."""
    offset = Fraction(offset)
    if offset == 0:
        return expr
    if offset.denominator != 1:
        raise ValueError("non-integer shift %s along %s (staggering "
                         "mismatch)" % (offset, dim))
    return expr.xreplace({dim: Add.make(dim, int(offset))})


#: Derivative node -> its fully expanded stencil; expansion is a pure
#: function of the node, so the table is shared process-wide
_DERIV_EXPAND_MEMO = WeakIdMemo()


def expand_derivatives(expr):
    """Recursively evaluate every Derivative node in ``expr`` (bottom-up,
    memoized over the expression DAG)."""
    memo = {}

    def rec(node):
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        if node.is_Derivative:
            result = _DERIV_EXPAND_MEMO.get(node)
            if result is None:
                inner = indexify(rec(node.args[0]))
                result = inner
                for dim, order in node.derivs:
                    result = node._expand_one(result, dim, order)
                _DERIV_EXPAND_MEMO.set(node, result)
        elif not node.args:
            result = node
        else:
            new_args = [rec(a) for a in node.args]
            if all(na is a for na, a in zip(new_args, node.args)):
                result = node
            else:
                result = node.func(*new_args)
        memo[id(node)] = (node, result)
        return result

    return rec(S(expr))
