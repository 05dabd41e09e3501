"""A compact symbolic-math engine (the SymPy substitute Devito builds on).

Public surface: expression construction (:class:`Symbol`, arithmetic
operators), exact numbers, elementary functions, unevaluated
:class:`Derivative` nodes with Fornberg finite-difference expansion,
linear :func:`solve`, flop-reducing rewrites (CSE, factorization,
invariant hoisting) and C/NumPy printers.

Expressions are immutable, hash-consed DAG nodes; the traversal and
rewrite entry points live on :class:`Expr` itself (``e.xreplace(m)`` or
``e.subs(m)``, ``e.expand()``, ``e.count_ops()``, ``e.free_symbols``,
``e.diff(x)``); structure-level helpers (``preorder``, ``postorder``, ``unique_nodes``,
``contains``, ``linear_coeffs``, ``indexeds``) remain plain functions.
"""

from .expr import (Add, Atom, Expr, Float, Half, Indexed, Integer, MinusOne,
                   Mul, Number, One, Pow, Rational, S, Symbol, WeakIdMemo,
                   Zero, contains, has_indexed, indexeds, linear_coeffs,
                   postorder, preorder, sympify, unique_nodes)
from .functions import (FUNCTION_REGISTRY, Abs, AppliedFunction, Max, Min,
                        ceiling, cos, exp, floor, log, sin, sqrt, tan)
from .fd import fd_weights, fornberg_weights, sample_offsets
from .derivative import (Derivative, expand_derivatives, expr_stagger,
                         indexify)
from .solve import solve
from .rewriting import (Temp, collect_mul_coeff, cse, factorize,
                        hoist_invariants)
from .printing import (CExecPrinter, CPrinter, PyPrinter,
                       ccode, pycode)
from .hashing import TokenEmitter, canonical_tokens

__all__ = [  # noqa: F405
    # expression core
    'Add', 'Atom', 'Expr', 'Float', 'Half', 'Indexed', 'Integer', 'MinusOne',
    'Mul', 'Number', 'One', 'Pow', 'Rational', 'S', 'Symbol', 'Zero',
    'sympify',
    # traversal / queries
    'contains', 'indexeds', 'linear_coeffs', 'postorder', 'preorder',
    'unique_nodes', 'has_indexed', 'WeakIdMemo',
    # elementary functions
    'FUNCTION_REGISTRY', 'Abs', 'AppliedFunction', 'Max', 'Min', 'ceiling',
    'cos', 'exp', 'floor', 'log', 'sin', 'sqrt', 'tan',
    # finite differences and derivatives
    'fd_weights', 'fornberg_weights', 'sample_offsets',
    'Derivative', 'expand_derivatives', 'expr_stagger', 'indexify',
    # solving and rewriting
    'solve', 'Temp', 'collect_mul_coeff', 'cse', 'factorize',
    'hoist_invariants',
    # printing
    'CPrinter', 'CExecPrinter', 'PyPrinter', 'ccode', 'pycode',
    # fingerprints
    'TokenEmitter', 'canonical_tokens',
]
