"""Linear symbolic solve, mirroring ``devito.solve`` / ``sympy.solve``.

Used to turn an implicit PDE residual (``m*u.dt2 - u.laplace``) into an
explicit update for the unknown (``u.forward``).  The residual is linear in
the unknown after FD expansion, so we extract the linear coefficients
without a full expansion (which would blow up high-order TTI stencils).
"""

from __future__ import annotations

from .derivative import expand_derivatives, indexify
from .expr import Mul, Pow, S, Zero, linear_coeffs

__all__ = ['solve']


def solve(expr, target):
    """Solve ``expr == 0`` for ``target``.

    ``expr`` may contain unevaluated Derivative nodes (they are expanded
    first) and raw DSL function atoms (they are indexified).  ``target``
    is typically a shifted access such as ``u.forward``.

    Returns the explicit right-hand side such that
    ``target == solve(expr, target)`` satisfies ``expr == 0``.
    """
    expr = indexify(expand_derivatives(S(expr)))
    target = indexify(expand_derivatives(S(target)))
    a, b = linear_coeffs(expr, target)
    if a == Zero:
        raise ValueError("expression does not contain %s" % (target,))
    return Mul.make(-1, b, Pow.make(a, -1))
