"""Core symbolic expression engine: an immutable, hash-consed DAG.

This module implements the small computer-algebra system that the rest of
the stack is built on.  It plays the role SymPy plays for Devito: immutable
expressions with canonicalizing constructors (flattening, numeric folding,
like-term collection), exact rational arithmetic (needed for
finite-difference weights), substitution and traversal utilities.

Design notes
------------
* **Hash-consing.**  Nodes of the core classes (``Symbol``, the number
  literals, ``Add``/``Mul``/``Pow``, ``Indexed``, applied functions and
  ``Derivative``) are *interned*: construction routes through a
  ``WeakValueDictionary`` so that structurally identical subexpressions
  are the very same Python object.  Structural equality therefore
  collapses to pointer identity for interned nodes, and every traversal
  can be memoized by ``id(node)`` — O(unique DAG nodes) instead of
  O(tree nodes).  The weak table never pins memory: a node lives exactly
  as long as outside references (or referencing parents) keep it alive.
* **Immutability is a contract.**  ``args`` and class-specific payloads
  are set once at construction and never mutated afterwards; lazily
  cached derived values (``_hash``, ``_str``, ``_skey``) are pure
  functions of the node, so the lazy fill is idempotent and safe to
  share.  Interned classes refuse ``__init__`` outside the factory path
  (see :class:`_HashCons`), so a half-initialized or re-initialized node
  can never enter the table.
* **Identity vs equality.**  ``__eq__`` stays structural — required for
  non-interned DSL subclasses (dimensions, grid functions) and for
  comparing against plain Python numbers — but begins with an identity
  fast path, which is the common case once interning is on.  Memo tables
  key by ``id(node)`` and must keep the key node alive for the lifetime
  of the entry (store ``(node, value)`` tuples, or use
  :class:`WeakIdMemo` for global tables) so a recycled ``id`` can never
  alias a dead key.
* Numbers are exact where possible: ``Integer`` and ``Rational`` fold via
  :class:`fractions.Fraction`; any ``Float`` contaminates a fold to float,
  mirroring SymPy semantics.
* Ordering of ``Add``/``Mul`` operands is canonical (class rank, then the
  cached sort key), which makes structural equality reliable and printing
  deterministic.
"""

from __future__ import annotations

import math
import threading
import weakref
from fractions import Fraction
from functools import reduce

__all__ = [
    'Expr', 'Atom', 'Symbol', 'Number', 'Integer', 'Rational', 'Float',
    'Add', 'Mul', 'Pow', 'Indexed', 'S', 'sympify', 'Zero', 'One',
    'MinusOne', 'Half', 'preorder', 'postorder', 'unique_nodes',
    'WeakIdMemo', 'has_indexed', 'contains', 'linear_coeffs', 'indexeds',
]


# -- interning machinery -----------------------------------------------------------

#: the global hash-consing table: intern key -> node.  Values are held
#: weakly, so the table never keeps an expression alive by itself.
_INTERN: 'weakref.WeakValueDictionary' = weakref.WeakValueDictionary()

#: thread-local construction depth; nonzero exactly while the metaclass
#: factory path is running (SPMD simulation builds expressions from
#: several rank threads concurrently, so this must not be global state)
_BUILDING = threading.local()


class _HashCons(type):
    """Metaclass routing construction of interned classes through the table.

    A class opts in by declaring ``_interned = True`` **in its own body**;
    the flag is deliberately not inherited (the metaclass translates it to
    a concrete per-class ``_hashcons`` attribute), so DSL subclasses that
    carry identity-bearing state — grids, data buffers, per-grid spacing —
    stay ordinary objects unless they opt in themselves.

    The factory constructs the candidate node first and only then computes
    its intern key from the *constructed* object: argument coercion
    (``int(value)``, sympify of children) has already happened, so the key
    is canonical.  Keys embed ``id(child)`` rather than child equality —
    see :meth:`Expr._intern_key` for why that is both safe and required.
    """

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, namespace)
        cls._hashcons = bool(namespace.get('_interned', False))
        return cls

    def __call__(cls, *args, **kwargs):
        if not cls._hashcons:
            return super().__call__(*args, **kwargs)
        normalized = cls._normalize(*args, **kwargs)
        if normalized is not None:
            return normalized
        depth = getattr(_BUILDING, 'depth', 0)
        _BUILDING.depth = depth + 1
        try:
            obj = super().__call__(*args, **kwargs)
        finally:
            _BUILDING.depth = depth
        # setdefault is the whole interning step: either the structurally
        # identical node already lives in the table (return it, drop the
        # candidate) or the candidate becomes the canonical node
        return _INTERN.setdefault(obj._intern_key(), obj)


class WeakIdMemo:
    """A global memo table keyed by node identity, entries die with the key.

    Maps ``id(node) -> value`` without keeping ``node`` alive: the entry
    holds a weak reference to the key node and evicts itself when the node
    is collected, so a later object reusing the same ``id`` can never read
    a stale value.  Lookups additionally verify the referent *is* the
    queried node.  Use for compositional pure functions whose results are
    worth sharing across calls (derivative expansion, indexification);
    per-call memos should stay plain dicts storing ``(node, value)``.
    """

    __slots__ = ('_data',)

    #: sentinel meaning "the cached value is the key node itself" — stored
    #: instead of the node so the entry does not strongly pin its own key
    _SAME = object()

    def __init__(self):
        self._data = {}

    def get(self, node, default=None):
        entry = self._data.get(id(node))
        if entry is None:
            return default
        ref, value = entry
        if ref() is not node:
            return default
        return node if value is WeakIdMemo._SAME else value

    def set(self, node, value):
        key = id(node)
        data = self._data

        def _evict(ref, key=key, data=data):
            entry = data.get(key)
            if entry is not None and entry[0] is ref:
                del data[key]

        if value is node:
            value = WeakIdMemo._SAME
        data[key] = (weakref.ref(node, _evict), value)

    def __len__(self):
        return len(self._data)


class Expr(metaclass=_HashCons):
    """Base class of all symbolic expressions.

    Instances are frozen by contract: ``args`` and all class-specific
    payload attributes are assigned exactly once, inside ``__init__`` on
    the factory path, and must never be mutated afterwards — interned
    nodes are shared structurally across every expression that contains
    them.  The only attributes written after construction are the
    ``_hash``/``_str``/``_skey`` caches, which are pure functions of the
    node.
    """

    __slots__ = ('args', '_hash', '_str', '_skey', '__weakref__')

    #: rank used for canonical ordering of operands (smaller sorts first)
    _class_rank = 50

    is_Number = False
    is_Atom = False
    is_Add = False
    is_Mul = False
    is_Pow = False
    is_Indexed = False
    is_Symbol = False
    is_Function = False
    is_Derivative = False

    def __init__(self, *args):
        if type(self)._hashcons and not getattr(_BUILDING, 'depth', 0):
            raise TypeError(
                "%s is hash-consed: construct instances through the class "
                "call (or its make() factory); calling __init__ directly "
                "would bypass interning" % type(self).__name__)
        self.args = args
        self._hash = None
        self._str = None
        self._skey = None

    # -- interning hooks ------------------------------------------------------

    @classmethod
    def _normalize(cls, *args, **kwargs):
        """Pre-construction rewrite hook for interned classes.

        Return a finished :class:`Expr` to redirect construction (e.g.
        ``Rational(4, 2)`` collapsing to ``Integer(2)``), or None to
        proceed with normal construction of ``cls``.
        """
        return None

    def _intern_key(self):
        """The hash-consing key of this (fully constructed) node.

        Children are keyed by ``id`` rather than by equality: structural
        child equality may be weaker than semantic identity (two distinct
        same-named DSL functions compare equal but bind different data),
        and identity keys are also what makes interning O(1) per node.
        The key's child ids can never dangle: the table *value* holds the
        children strongly, and CPython clears weakrefs (removing the
        entry) before the dying node releases its children.
        """
        key = [type(self)]
        key.extend(map(id, self.args))
        return tuple(key)

    # -- construction helpers ------------------------------------------------

    @property
    def func(self):
        """The canonicalizing constructor for this node class."""
        cls = type(self)
        make = getattr(cls, 'make', None)
        return make if make is not None else cls

    def rebuild(self, *args):
        """Reconstruct this node with new arguments (re-canonicalizing)."""
        return self.func(*args)

    # -- equality / hashing --------------------------------------------------

    def _hashable(self):
        return (type(self).__name__,) + self.args

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._hashable())
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, (int, float, Fraction)):
            other = sympify(other)
        if not isinstance(other, Expr):
            return NotImplemented
        if type(self) is not type(other):
            return False
        return self._hashable() == other._hashable()

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # -- ordering for canonical form ------------------------------------------

    def sort_key(self):
        """A cached, cheaply comparable total-order key.

        Nested tuples share children's keys, so building keys over a large
        expression is O(nodes) in memory (strings would be O(nodes**2)).
        """
        if self._skey is None:
            self._skey = (self._class_rank, self._key_payload(),
                          tuple(a.sort_key() for a in self.args))
        return self._skey

    def _key_payload(self):
        """Class-specific comparable payload (classes sharing a rank must
        return payloads of the same type)."""
        return ()

    # -- printing --------------------------------------------------------------

    def __str__(self):
        if self._str is None:
            self._str = self._sstr()
        return self._str

    def __repr__(self):
        return str(self)

    def _sstr(self):
        raise NotImplementedError

    def _needs_parens(self):
        return False

    # -- arithmetic operators ----------------------------------------------------

    def __add__(self, other):
        other = sympify(other)
        if other is NotImplemented:
            return NotImplemented
        return Add.make(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = sympify(other)
        if other is NotImplemented:
            return NotImplemented
        return Add.make(self, Mul.make(MinusOne, other))

    def __rsub__(self, other):
        other = sympify(other)
        if other is NotImplemented:
            return NotImplemented
        return Add.make(other, Mul.make(MinusOne, self))

    def __mul__(self, other):
        other = sympify(other)
        if other is NotImplemented:
            return NotImplemented
        return Mul.make(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = sympify(other)
        if other is NotImplemented:
            return NotImplemented
        return Mul.make(self, Pow.make(other, MinusOne))

    def __rtruediv__(self, other):
        other = sympify(other)
        if other is NotImplemented:
            return NotImplemented
        return Mul.make(other, Pow.make(self, MinusOne))

    def __pow__(self, other):
        other = sympify(other)
        if other is NotImplemented:
            return NotImplemented
        return Pow.make(self, other)

    def __rpow__(self, other):
        other = sympify(other)
        if other is NotImplemented:
            return NotImplemented
        return Pow.make(other, self)

    def __neg__(self):
        return Mul.make(MinusOne, self)

    def __pos__(self):
        return self

    # -- common queries (the public Expr method API) -----------------------------

    def diff(self, *specs, fd_order=2, x0=None, offsets=None):
        """An unevaluated :class:`~.derivative.Derivative` of this node.

        ``specs`` are dimensions or ``(dimension, order)`` pairs, exactly
        as the ``Derivative`` constructor takes them.
        """
        from .derivative import Derivative
        return Derivative(self, *specs, fd_order=fd_order, x0=x0,
                          offsets=offsets)

    def xreplace(self, mapping):
        """Replace exact subtree occurrences according to ``mapping``."""
        return _xreplace(self, mapping)

    def subs(self, mapping):
        """Alias of :meth:`xreplace` (exact structural substitution)."""
        return _xreplace(self, mapping)

    def expand(self):
        """Distribute products over sums (and integer powers of sums)."""
        return _expand(self)

    def count_ops(self):
        """Scalar flops to evaluate this expression once (DAG semantics)."""
        return _count_ops(self)

    def contains(self, target, memo=None):
        """True if ``target`` occurs as a subexpression of this node."""
        return contains(self, target, memo)

    @property
    def free_symbols(self):
        return _free_symbols(self)

    def atoms(self, *types):
        """All atomic (leaf) subexpressions, optionally filtered by type."""
        types = types or (Atom,)
        return {e for e in unique_nodes(self) if isinstance(e, types)}

    def evalf(self, bindings=None):
        """Numerically evaluate with ``bindings`` mapping atoms to numbers."""
        return _evalf(self, bindings or {})

    def dag_stats(self):
        """Sharing statistics of this expression's DAG.

        Returns a dict with ``unique_nodes`` (distinct node objects),
        ``tree_nodes`` (nodes of the fully unfolded tree), ``sharing``
        (their ratio — 1.0 means no sharing) and ``depth``.  The ratio is
        the direct measure of what hash-consing buys each traversal.
        """
        unique = 0
        tree = {}
        depth = {}
        for node in _postorder_unique(self):
            unique += 1
            tree[id(node)] = 1 + sum(tree[id(a)] for a in node.args)
            depth[id(node)] = 1 + max(
                (depth[id(a)] for a in node.args), default=0)
        tree_nodes = tree[id(self)]
        return {
            'unique_nodes': unique,
            'tree_nodes': tree_nodes,
            'sharing': tree_nodes / unique,
            'depth': depth[id(self)],
        }


class Atom(Expr):
    """An expression with no children."""

    __slots__ = ()

    is_Atom = True

    def _hashable(self):
        return (type(self).__name__,) + self.args


class Symbol(Atom):
    """A named scalar symbol."""

    __slots__ = ('name',)
    _class_rank = 10
    is_Symbol = True
    _interned = True

    def __init__(self, name, **kwargs):
        super().__init__()
        self.name = name

    def _intern_key(self):
        return (type(self), self.name)

    def _hashable(self):
        return (type(self).__name__, self.name)

    def _key_payload(self):
        return self.name

    def _sstr(self):
        return self.name


class Number(Atom):
    """Base class for numeric literals."""

    __slots__ = ('value',)
    _class_rank = 0
    is_Number = True

    def _intern_key(self):
        return (type(self), self.value)

    def _hashable(self):
        return ('Number', self.value)

    def _key_payload(self):
        return float(self.value)

    def __lt__(self, other):
        other = sympify(other)
        return self.value < other.value

    def __le__(self, other):
        other = sympify(other)
        return self.value <= other.value

    def __gt__(self, other):
        other = sympify(other)
        return self.value > other.value

    def __ge__(self, other):
        other = sympify(other)
        return self.value >= other.value

    def __float__(self):
        return float(self.value)

    def __int__(self):
        return int(self.value)

    def __bool__(self):
        return bool(self.value)


class Integer(Number):
    """An exact integer literal."""

    __slots__ = ()
    _interned = True

    def __init__(self, value):
        super().__init__()
        self.value = int(value)

    def _sstr(self):
        return str(self.value)


class Rational(Number):
    """An exact rational literal (auto-reduces; integers become Integer)."""

    __slots__ = ()
    _interned = True

    @classmethod
    def _normalize(cls, p, q=1):
        frac = Fraction(p, q)
        if frac.denominator == 1:
            # integral value: collapse to Integer
            return Integer(frac.numerator)
        return None

    def __init__(self, p, q=1):
        super().__init__()
        self.value = Fraction(p, q)

    @property
    def p(self):
        return self.value.numerator

    @property
    def q(self):
        return self.value.denominator

    def _sstr(self):
        return '%d/%d' % (self.value.numerator, self.value.denominator)

    def _needs_parens(self):
        return True


class Float(Number):
    """An inexact floating-point literal."""

    __slots__ = ()
    _interned = True

    def __init__(self, value):
        super().__init__()
        self.value = float(value)

    def _intern_key(self):
        # 0.0 == -0.0 but they print differently; keep them distinct
        return (Float, self.value, math.copysign(1.0, self.value))

    def _sstr(self):
        return repr(self.value)

    def _needs_parens(self):
        return self.value < 0


def _number(value):
    """Wrap a Python numeric value in the tightest Number subclass."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return Integer(value.numerator)
        return Rational(value)
    if isinstance(value, bool):
        return Integer(int(value))
    if isinstance(value, int):
        return Integer(value)
    if isinstance(value, float):
        return Float(value)
    raise TypeError("cannot wrap %r as a Number" % (value,))


def sympify(obj):
    """Convert a Python object into an :class:`Expr` (or NotImplemented)."""
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, (int, float, Fraction)):
        return _number(obj)
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        return NotImplemented
    if isinstance(obj, np.integer):
        return Integer(int(obj))
    if isinstance(obj, np.floating):
        return Float(float(obj))
    return NotImplemented


def S(obj):
    """Strict sympify: raise on failure."""
    result = sympify(obj)
    if result is NotImplemented:
        raise TypeError("cannot sympify %r" % (obj,))
    return result


# -- numeric folding helpers ----------------------------------------------------

def _num_add(a, b):
    if type(a) is Float or type(b) is Float:
        return Float(float(a.value) + float(b.value))
    # int+int, int+Fraction and Fraction+Fraction are all exact
    value = a.value + b.value
    return Integer(value) if type(value) is int else _number(value)


def _num_mul(a, b):
    if type(a) is Float or type(b) is Float:
        return Float(float(a.value) * float(b.value))
    value = a.value * b.value
    return Integer(value) if type(value) is int else _number(value)


def _num_pow(base, exp):
    if isinstance(exp, Integer):
        if isinstance(base, Float):
            return Float(float(base.value) ** exp.value)
        return _number(Fraction(base.value) ** exp.value)
    bval, eval_ = float(base.value), float(exp.value)
    if bval < 0:
        return None
    return Float(bval ** eval_)


class Add(Expr):
    """A canonical n-ary sum."""

    __slots__ = ()
    _class_rank = 60
    is_Add = True
    _interned = True

    @classmethod
    def make(cls, *args):
        terms = {}
        const = Zero
        stack = list(args)
        while stack:
            arg = S(stack.pop())
            if arg.is_Add:
                stack.extend(arg.args)
            elif arg.is_Number:
                const = _num_add(const, arg)
            else:
                coeff, term = _as_coeff_term(arg)
                if term in terms:
                    terms[term] = _num_add(terms[term], coeff)
                else:
                    terms[term] = coeff
        out = []
        for term, coeff in terms.items():
            if coeff.value == 0:
                continue
            if coeff.value == 1:
                out.append(term)
            else:
                out.append(Mul.make(coeff, term))
        if const.value != 0 or not out:
            out.append(const)
        if len(out) == 1:
            return out[0]
        out.sort(key=lambda e: e.sort_key())
        return cls(*out)

    def _sstr(self):
        parts = []
        for i, arg in enumerate(self.args):
            text = str(arg)
            if i == 0:
                parts.append(text)
            elif text.startswith('-'):
                parts.append(' - ' + text[1:])
            else:
                parts.append(' + ' + text)
        return ''.join(parts)

    def _needs_parens(self):
        return True


def _as_coeff_term(expr):
    """Split ``expr`` into (numeric coefficient, symbolic remainder)."""
    if expr.is_Mul and expr.args and expr.args[0].is_Number:
        coeff = expr.args[0]
        rest = expr.args[1:]
        if len(rest) == 1:
            return coeff, rest[0]
        return coeff, Mul(*rest)
    return One, expr


class Mul(Expr):
    """A canonical n-ary product (numeric coefficient first)."""

    __slots__ = ()
    _class_rank = 55
    is_Mul = True
    _interned = True

    @classmethod
    def make(cls, *args):
        coeff = One
        powers = {}
        order = []
        stack = list(reversed(args))
        while stack:
            arg = S(stack.pop())
            if arg.is_Mul:
                stack.extend(reversed(arg.args))
            elif arg.is_Number:
                coeff = _num_mul(coeff, arg)
            else:
                base, exp = _as_base_exp(arg)
                if base in powers:
                    powers[base] = Add.make(powers[base], exp)
                else:
                    powers[base] = exp
                    order.append(base)
        if coeff.value == 0:
            return Zero
        out = []
        for base in order:
            exp = powers[base]
            factor = Pow.make(base, exp)
            if factor.is_Number:
                coeff = _num_mul(coeff, factor)
            elif factor.is_Mul:
                # e.g. rational**int folding produced a coefficient
                for sub in factor.args:
                    if sub.is_Number:
                        coeff = _num_mul(coeff, sub)
                    else:
                        out.append(sub)
            elif not (factor.is_Number and factor.value == 1):
                out.append(factor)
        if not out:
            return coeff
        out.sort(key=lambda e: e.sort_key())
        if coeff.value != 1 and len(out) == 1 and out[0].is_Add:
            # distribute a purely numeric coefficient over a sum (SymPy
            # semantics); required for structural cancellation like
            # (x + y) - (x + y) == 0
            return Add.make(*[cls.make(coeff, term)
                              for term in out[0].args])
        if coeff.value != 1:
            out.insert(0, coeff)
        if len(out) == 1:
            return out[0]
        return cls(*out)

    def _sstr(self):
        parts = []
        for arg in self.args:
            text = str(arg)
            if arg.is_Add or arg._needs_parens():
                text = '(' + text + ')'
            parts.append(text)
        out = '*'.join(parts)
        # cosmetics: -1*x prints as -x
        if out.startswith('-1*'):
            out = '-' + out[3:]
        return out


def _as_base_exp(expr):
    if expr.is_Pow:
        return expr.args[0], expr.args[1]
    return expr, One


class Pow(Expr):
    """A canonical power ``base**exp``."""

    __slots__ = ()
    _class_rank = 45
    is_Pow = True
    _interned = True

    @classmethod
    def make(cls, base, exp):
        base = S(base)
        exp = S(exp)
        if exp.is_Number and exp.value == 0:
            return One
        if exp.is_Number and exp.value == 1:
            return base
        if base.is_Number and base.value == 1:
            return One
        if base.is_Number and base.value == 0:
            if exp.is_Number and exp.value > 0:
                return Zero
        if base.is_Number and exp.is_Number:
            folded = _num_pow(base, exp)
            if folded is not None:
                return folded
        if base.is_Pow and isinstance(exp, Integer):
            inner_base, inner_exp = base.args
            return cls.make(inner_base, Mul.make(inner_exp, exp))
        if base.is_Mul and isinstance(exp, Integer):
            return Mul.make(*[cls.make(f, exp) for f in base.args])
        return cls(base, exp)

    @property
    def base(self):
        return self.args[0]

    @property
    def exp(self):
        return self.args[1]

    def _sstr(self):
        base, exp = self.args
        btext = str(base)
        if base.is_Add or base.is_Mul or base.is_Pow or base._needs_parens():
            btext = '(' + btext + ')'
        etext = str(exp)
        if exp.is_Add or exp.is_Mul or exp._needs_parens():
            etext = '(' + etext + ')'
        return btext + '**' + etext


class Indexed(Expr):
    """An array access ``base[i0, i1, ...]``.

    ``base`` is any object exposing ``name`` (typically a DSL
    ``DiscreteFunction``); index expressions are symbolic.
    """

    __slots__ = ('base',)
    _class_rank = 20
    is_Indexed = True
    _interned = True

    def __init__(self, base, *indices):
        super().__init__(*[S(i) for i in indices])
        self.base = base

    @classmethod
    def make(cls, base, *indices):
        return cls(base, *indices)

    def _intern_key(self):
        # the base is keyed by identity, NOT by its (name-based) equality:
        # two distinct same-named functions bind different data and their
        # accesses must stay distinct objects
        key = [type(self), id(self.base)]
        key.extend(map(id, self.args))
        return tuple(key)

    @property
    def func(self):
        base = self.base
        return lambda *indices: Indexed(base, *indices)

    @property
    def indices(self):
        return self.args

    @property
    def name(self):
        return self.base.name

    def _hashable(self):
        return ('Indexed', self.base.name) + self.args

    def _key_payload(self):
        return self.base.name

    def _sstr(self):
        return '%s[%s]' % (self.base.name, ', '.join(str(i) for i in self.args))


# -- singletons -------------------------------------------------------------------

Zero = Integer(0)
One = Integer(1)
MinusOne = Integer(-1)
Half = Rational(1, 2)


# -- traversal / rewriting ----------------------------------------------------------

def preorder(expr):
    """Yield every node of ``expr`` in pre-order, **with** multiplicity.

    This is a tree walk: a subexpression shared n times is yielded n
    times.  Occurrence counting (CSE) depends on that; prefer
    :func:`unique_nodes` wherever set semantics are enough.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.args)


def postorder(expr):
    """Yield every node of ``expr`` in post-order (tree semantics)."""
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.args)
    return reversed(out)


def unique_nodes(expr):
    """Yield each distinct node of the expression DAG exactly once.

    The DAG counterpart of :func:`preorder`: shared subexpressions are
    visited once regardless of multiplicity, so a walk is O(unique nodes).
    """
    seen = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        yield node
        stack.extend(node.args)


def _postorder_unique(expr):
    """Children-first walk over distinct DAG nodes (iterative)."""
    seen = set()
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        stack.append((node, True))
        for a in node.args:
            stack.append((a, False))


def _xreplace(expr, mapping):
    """Exact structural replacement, memoized by node identity."""
    if not mapping:
        return expr
    memo = {}

    def rec(node):
        # entries pin their key node (id -> (node, result)) so an id
        # recycled from a temporary cannot alias a live memo entry
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        if node in mapping:
            result = S(mapping[node])
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


def contains(expr, target, memo=None):
    """True if ``target`` occurs as a subexpression of ``expr``.

    ``memo`` maps ``id(node) -> (node, bool)`` and may be shared between
    calls with the same ``target`` (as :func:`linear_coeffs` does).
    """
    if memo is None:
        memo = {}
    hit = memo.get(id(expr))
    if hit is not None:
        return hit[1]
    if expr is target or expr == target:
        memo[id(expr)] = (expr, True)
        return True
    result = any(contains(a, target, memo) for a in expr.args)
    memo[id(expr)] = (expr, result)
    return result


def _free_symbols(expr):
    """All :class:`Symbol` leaves, including those inside Indexed indices."""
    return {e for e in unique_nodes(expr) if e.is_Symbol}


def indexeds(expr):
    """All :class:`Indexed` accesses in ``expr`` (occurrence list)."""
    return [e for e in preorder(expr) if e.is_Indexed]


#: global memo for :func:`has_indexed` — the predicate is a pure function
#: of the node, so it is shared across every hoisting/CSE pass
_HAS_INDEXED_MEMO = WeakIdMemo()


def has_indexed(expr):
    """True if ``expr`` contains an :class:`Indexed` access (memoized)."""
    hit = _HAS_INDEXED_MEMO.get(expr, None)
    if hit is not None:
        return hit
    if expr.is_Indexed:
        result = True
    else:
        result = any(has_indexed(a) for a in expr.args)
    _HAS_INDEXED_MEMO.set(expr, result)
    return result


def _count_ops(expr):
    """Count scalar floating-point operations to evaluate ``expr`` once.

    This is the compile-time flop counter the paper uses to derive
    operational intensity on the CPU (Section IV-C).  Shared
    subexpressions are charged once (DAG semantics), which makes the
    count relative to the root — hence a per-call memo, never a global
    one.
    """
    memo = {}

    def rec(node):
        if id(node) in memo:
            return 0  # shared subexpression: charged once (DAG semantics)
        ops = 0
        if node.is_Add or node.is_Mul:
            ops += len(node.args) - 1
            # division costs the same as multiplication here
        elif node.is_Pow:
            exp = node.args[1]
            if isinstance(exp, Integer) and abs(exp.value) <= 4:
                ops += max(abs(exp.value) - 1, 1)
            else:
                ops += 5  # transcendental pow
        elif node.is_Function:
            ops += 5  # transcendental call cost
        for a in node.args:
            ops += rec(a)
        memo[id(node)] = node
        return ops

    return rec(S(expr))


def _expand(expr):
    """Distribute products over sums (and integer powers of sums)."""
    memo = {}

    def rec(node):
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        if not node.args:
            result = node
        elif node.is_Mul:
            factors = [rec(a) for a in node.args]
            terms = [One]
            for factor in factors:
                addends = factor.args if factor.is_Add else (factor,)
                terms = [Mul.make(t, a) for t in terms for a in addends]
            result = Add.make(*terms)
        elif node.is_Pow:
            base, exp = node.args
            base = rec(base)
            if base.is_Add and isinstance(exp, Integer) and 1 < exp.value <= 3:
                result = rec(Mul(*([base] * exp.value)))
            else:
                result = Pow.make(base, exp)
        else:
            new_args = [rec(a) for a in node.args]
            result = node.func(*new_args)
        memo[id(node)] = (node, result)
        return result

    return rec(S(expr))


def linear_coeffs(expr, target):
    """Decompose ``expr == a*target + b`` without full expansion.

    Returns ``(a, b)``.  Raises ``ValueError`` if ``expr`` is not linear in
    ``target``.  Products are handled by requiring at most one factor to
    contain the target, which is exactly the shape finite-difference
    update equations take after derivative expansion.
    """
    memo = {}

    def rec(node):
        if node == target:
            return One, Zero
        if not contains(node, target, memo):
            return Zero, node
        if node.is_Add:
            a_parts, b_parts = [], []
            for arg in node.args:
                a, b = rec(arg)
                a_parts.append(a)
                b_parts.append(b)
            return Add.make(*a_parts), Add.make(*b_parts)
        if node.is_Mul:
            hot = [f for f in node.args if contains(f, target, memo)]
            if len(hot) != 1:
                raise ValueError("nonlinear in %s: %s" % (target, node))
            rest = Mul.make(*[f for f in node.args if f is not hot[0]])
            a, b = rec(hot[0])
            return Mul.make(a, rest), Mul.make(b, rest)
        raise ValueError("cannot extract linear coefficient from %s" % (node,))

    return rec(S(expr))


def _evalf(expr, bindings):
    from .functions import AppliedFunction
    memo = {}

    def rec(node):
        if node.is_Number:
            return float(node.value)
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        if node in bindings:
            result = float(bindings[node])
        elif node.is_Symbol or node.is_Indexed:
            raise ValueError("unbound atom %s in evalf" % (node,))
        elif node.is_Add:
            result = math.fsum(rec(a) for a in node.args)
        elif node.is_Mul:
            result = reduce(lambda x, y: x * y, (rec(a) for a in node.args))
        elif node.is_Pow:
            result = rec(node.args[0]) ** rec(node.args[1])
        elif isinstance(node, AppliedFunction):
            result = node._numeric(*[rec(a) for a in node.args])
        else:
            raise ValueError("cannot evaluate %s" % (node,))
        memo[id(node)] = (node, result)
        return result

    return rec(S(expr))
