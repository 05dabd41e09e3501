"""Finite-difference weight generation (Fornberg's algorithm).

Weights are exact rationals, so generated kernels carry the same
coefficients a hand-derived Taylor scheme would.  Fornberg's recursion
handles arbitrary (possibly staggered, i.e. half-integer) sample offsets
and evaluation points, which is what the staggered-grid elastic and
viscoelastic propagators need.

Reference: B. Fornberg, "Generation of finite difference formulas on
arbitrarily spaced grids", Math. Comp. 51 (1988).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = ['fornberg_weights', 'fd_weights', 'sample_offsets']


def fornberg_weights(order, offsets, x0=0):
    """Weights of the ``order``-th derivative at ``x0`` from samples at ``offsets``.

    Parameters
    ----------
    order : int
        Derivative order (0 returns interpolation weights).
    offsets : sequence of Fraction/int/float
        Grid sample locations, in units of the grid spacing.
    x0 : Fraction/int/float
        Evaluation point, same units.

    Returns
    -------
    list of Fraction
        One weight per offset; the approximated derivative is
        ``sum(w_i * f(offsets_i)) / h**order``.
    """
    offsets = [Fraction(o) for o in offsets]
    x0 = Fraction(x0)
    n = len(offsets)
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    if n <= order:
        raise ValueError("need more than %d sample points for order %d"
                         % (order, order))
    if len(set(offsets)) != n:
        raise ValueError("sample offsets must be distinct")

    # delta[m][nu] = weight of sample nu for the m-th derivative,
    # built incrementally over the sample points (Fornberg 1988, eq. 3.1).
    delta = [[Fraction(0)] * n for _ in range(order + 1)]
    delta[0][0] = Fraction(1)
    c1 = Fraction(1)
    for i in range(1, n):
        c2 = Fraction(1)
        mn = min(i, order)
        # snapshot of column i-1 before this sweep overwrites it: the
        # new point's weights are built from the *previous* iteration
        old_last = [delta[m][i - 1] for m in range(order + 1)]
        for nu in range(i):
            c3 = offsets[i] - offsets[nu]
            c2 *= c3
            for m in range(mn, -1, -1):
                prev = delta[m - 1][nu] if m > 0 else Fraction(0)
                delta[m][nu] = ((offsets[i] - x0) * delta[m][nu]
                                - m * prev) / c3
        c5 = offsets[i - 1] - x0
        for m in range(mn, -1, -1):
            prev = old_last[m - 1] if m > 0 else Fraction(0)
            delta[m][i] = c1 / c2 * (m * prev - c5 * old_last[m])
        c1 = c2
    return delta[order]


def sample_offsets(deriv_order, fd_order, stagger=Fraction(0), x0=Fraction(0)):
    """Choose the canonical symmetric sample offsets for an FD approximation.

    Parameters
    ----------
    deriv_order : int
        Order of the derivative being approximated.
    fd_order : int
        Requested order of accuracy (the "SDO" of the paper); must be even.
    stagger : Fraction
        Staggering of the *sampled* function relative to integer nodes
        (0 or 1/2): samples live at ``integer + stagger``.
    x0 : Fraction
        Evaluation point (typically the staggering of the LHS field).

    Returns
    -------
    list of Fraction
        Sample locations, all congruent to ``stagger`` modulo 1.
    """
    fd_order = int(fd_order)
    if fd_order < 1:
        raise ValueError("fd_order must be >= 1")
    if fd_order % 2:
        raise ValueError("fd_order must be even (got %d)" % fd_order)
    stagger = Fraction(stagger)
    x0 = Fraction(x0)
    delta = stagger - x0
    if delta == 0:
        # plain central stencil: fd_order+1 points for any derivative order
        radius = fd_order // 2 + max(0, (deriv_order - 1) // 2)
        rel = range(-radius, radius + 1)
    elif abs(delta) == Fraction(1, 2):
        # staggered stencil: an even number of half-offset points,
        # symmetric about the evaluation point
        npoints = fd_order + 2 * ((deriv_order - 1) // 2)
        half = npoints // 2
        rel = [delta + k for k in range(-half, half)]
        # re-center: offsets delta-half .. delta+half-1; shift so the set
        # is symmetric about 0 when delta=+1/2 vs -1/2
        if delta > 0:
            rel = [delta + k for k in range(-half, half)]
        else:
            rel = [delta + k for k in range(-half + 1, half + 1)]
    else:
        raise ValueError("unsupported staggering offset %s" % (delta,))
    return [x0 + Fraction(r) for r in rel]


def fd_weights(deriv_order, fd_order, stagger=Fraction(0), x0=Fraction(0)):
    """Offsets and weights of the canonical FD approximation.

    Returns
    -------
    (offsets, weights)
        ``offsets`` are sample locations (Fractions, congruent to
        ``stagger`` mod 1); ``weights`` the corresponding Fornberg weights
        for the derivative evaluated at ``x0``.  The approximation is
        ``sum(w*f(off)) / h**deriv_order``.
    """
    offsets, weights = _fd_weights(int(deriv_order), int(fd_order),
                                   Fraction(stagger), Fraction(x0))
    return list(offsets), list(weights)


@lru_cache(maxsize=None)
def _fd_weights(deriv_order, fd_order, stagger, x0):
    """:func:`fd_weights`, memoized: the weights are a pure function of
    the stencil, and every rank re-derives the same few."""
    offsets = sample_offsets(deriv_order, fd_order, stagger=stagger, x0=x0)
    weights = fornberg_weights(deriv_order, offsets, x0=x0)
    return tuple(offsets), tuple(weights)
