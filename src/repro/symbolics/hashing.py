"""Deterministic structural fingerprints of symbolic expressions.

The operator build cache (:mod:`repro.buildcache`) keys compiled kernels
by a *content address*: a hash that is a pure function of the symbolic
input and the build-relevant configuration — stable across processes,
machines and Python invocations (unlike ``hash()``, which is salted per
process, and unlike ``id()``-based identity, which is per-object).

Design
------
* The fingerprint is **structural**: two independently constructed
  expression trees that are structurally equal hash identically, even
  when every node is a distinct Python object.
* It is **order-insensitive where safe**: ``Add``/``Mul`` operands are
  already kept in canonical sorted order by the expression constructors,
  so ``u + v`` and ``v + u`` produce the same tree and hence the same
  fingerprint.  Orderings that carry semantics (equation lists, index
  tuples, derivative specs) are preserved verbatim.
* It is **name-insensitive where safe**: a :class:`Constant`'s *value*
  is excluded (it is a runtime argument, resolved at ``apply`` time),
  and dimension identity is reduced to its printable content.  Function
  *names* are part of the fingerprint on purpose — they are embedded in
  the generated source, so renaming a field genuinely changes the
  compiled artifact.
* Every token is a length-prefixed byte string, so distinct token
  sequences can never collide by concatenation ambiguity.
* The walk is **O(unique DAG nodes)**: expressions are hash-consed
  (:mod:`.expr`), so the emitter caches the byte stream of every node it
  has serialized and replays it on re-encounter instead of re-walking
  the subtree.  The emitted byte *stream* is identical to a naive tree
  walk — caching changes cost, never content.  The one wrinkle is the
  ``Grid`` token, which the seed grammar emits exactly once per emitter
  at the *first* sighting of a function on that grid: the cache
  therefore records a node's *steady-state* bytes (what a re-encounter
  would emit, one-time tokens excluded) separately from the bytes of its
  first emission.

The hash function is BLAKE2b (16-byte digest): fast, keyed into the
stdlib, and collision resistance far beyond the cache's needs.

This module is deliberately free of DSL imports (``repro.dsl`` imports
``repro.symbolics``, not vice versa); DSL atoms are recognized by their
duck-typed class flags (``is_DiscreteFunction``, ``is_SparseFunction``,
...) and hashed through their layout signatures.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

__all__ = ['TokenEmitter', 'canonical_tokens']

#: bump when the token grammar changes (invalidates every cached entry
#: through the fingerprint itself, no cache-format version needed)
_GRAMMAR_VERSION = 1


class TokenEmitter:
    """Streams canonical, length-prefixed tokens into a BLAKE2b state.

    Also collects the *symbol table* of the traversal: every discrete
    function, sparse function and runtime constant encountered, keyed by
    name.  The build cache uses the table to rebind a cached artifact to
    the live objects of the current build.

    Parameters
    ----------
    cache : bool
        Enable the per-node byte cache (on by default).  Exists so tests
        can prove cached and uncached digests agree.
    """

    def __init__(self, cache=True):
        self._h = hashlib.blake2b(digest_size=16)
        self._h.update(b'repro-fingerprint-v%d' % _GRAMMAR_VERSION)
        #: name -> DiscreteFunction
        self.functions = {}
        #: name -> SparseFunction
        self.sparse = {}
        #: name -> Constant
        self.constants = {}
        #: every distinct Grid seen (list, identity-deduplicated)
        self.grids = []
        #: stack of [full, steady] bytearray pairs, one per in-flight
        #: cached node emission; empty means bytes go straight to the hash
        self._frames = []
        #: id(node) -> (node, steady_bytes); the node reference pins the
        #: id so it cannot be recycled while the entry is readable
        self._cache = {} if cache else None

    # -- low-level token stream ------------------------------------------------

    def _write(self, data, steady=True):
        """Append bytes to the stream.

        ``steady=False`` marks one-time side-band tokens (the ``Grid``
        announcement): they reach the hash exactly once but are excluded
        from the cached replay bytes of every enclosing node.
        """
        if self._frames:
            frame = self._frames[-1]
            frame[0] += data
            if steady:
                frame[1] += data
        else:
            self._h.update(data)

    def raw(self, data, steady=True):
        self._write(b'%d:' % len(data) + data, steady=steady)

    def token(self, *parts, steady=True):
        for part in parts:
            self.raw(str(part).encode('utf-8'), steady=steady)

    # -- generic object dispatch ------------------------------------------------

    def emit(self, obj):  # noqa: C901 - a flat type dispatcher
        if obj is None:
            self.token('N')
        elif isinstance(obj, bool):
            self.token('b', int(obj))
        elif isinstance(obj, int):
            self.token('i', obj)
        elif isinstance(obj, float):
            self.token('f', repr(obj))
        elif isinstance(obj, Fraction):
            self.token('q', obj.numerator, obj.denominator)
        elif isinstance(obj, str):
            self.token('s', obj)
        elif isinstance(obj, bytes):
            self.token('y')
            self.raw(obj)
        elif isinstance(obj, (tuple, list)):
            self.token('(', len(obj))
            for item in obj:
                self.emit(item)
            self.token(')')
        elif isinstance(obj, dict):
            items = [(self.fingerprint_of(k), k, v)
                     for k, v in obj.items()]
            items.sort(key=lambda kv: kv[0])
            self.token('{', len(items))
            for _, k, v in items:
                self.emit(k)
                self.emit(v)
            self.token('}')
        elif hasattr(obj, 'args') and hasattr(obj, 'is_Atom'):
            self._emit_cached(obj)
        elif type(obj).__module__ == 'numpy' or \
                type(obj).__name__ == 'dtype':
            self.token('np', str(obj))
        else:
            raise TypeError(
                "cannot fingerprint %r of type %s deterministically"
                % (obj, type(obj).__name__))

    def fingerprint_of(self, obj):
        """Stand-alone fingerprint of one sub-object (used to sort dict
        keys canonically without relying on Python ordering)."""
        sub = TokenEmitter()
        sub.emit(obj)
        return sub.hexdigest()

    # -- expression nodes --------------------------------------------------------

    def _emit_cached(self, expr):
        """Emit an expression node through the per-node byte cache.

        First encounter: serialize into a fresh frame, cache the node's
        steady-state bytes, and forward the full bytes (one-time tokens
        included) to the parent frame or the hash.  Re-encounter of the
        same node object: replay the cached bytes — by then every
        one-time token inside has already been announced, so steady
        bytes are exactly what a re-walk would produce.
        """
        cache = self._cache
        if cache is None:
            self._emit_expr(expr)
            return
        hit = cache.get(id(expr))
        if hit is not None:
            self._write(hit[1])
            return
        self._frames.append([bytearray(), bytearray()])
        try:
            self._emit_expr(expr)
        finally:
            full, steady = self._frames.pop()
        cache[id(expr)] = (expr, bytes(steady))
        if self._frames:
            parent = self._frames[-1]
            parent[0] += full
            parent[1] += steady
        else:
            self._h.update(bytes(full))

    def _emit_expr(self, expr):  # noqa: C901 - a flat node dispatcher
        if getattr(expr, 'is_DiscreteFunction', False):
            self._emit_function(expr)
        elif getattr(expr, 'is_SparseFunction', False):
            self._emit_sparse(expr)
        elif getattr(expr, 'is_Number', False):
            value = expr.value
            if isinstance(value, Fraction):
                self.token('num:q', value.numerator, value.denominator)
            elif isinstance(value, float):
                self.token('num:f', repr(value))
            else:
                self.token('num:i', value)
        elif getattr(expr, 'is_Symbol', False):
            self._emit_symbol(expr)
        elif getattr(expr, 'is_Indexed', False):
            self.token('Indexed', len(expr.indices))
            base = expr.base
            if getattr(base, 'is_DiscreteFunction', False):
                self._emit_function(base)
            else:
                self.token('base', getattr(base, 'name', str(base)))
            for index in expr.indices:
                self.emit(index)
        elif getattr(expr, 'is_Derivative', False):
            self.token('Derivative', len(expr.derivs), expr.fd_order)
            self.emit(expr.expr)
            for dim, order in expr.derivs:
                self.emit(dim)
                self.token('order', order)
            self.emit({d: Fraction(v) for d, v in expr.x0.items()})
            self.emit({d: tuple(v) for d, v in expr.offsets.items()})
        elif getattr(expr, 'is_Function', False):
            self.token('Applied', getattr(expr, 'fname',
                                          type(expr).__name__),
                       len(expr.args))
            for arg in expr.args:
                self.emit(arg)
        else:
            # generic node (Add/Mul/Pow/...): class + canonical children
            self.token('E', type(expr).__name__, len(expr.args))
            for arg in expr.args:
                self.emit(arg)

    def _emit_symbol(self, sym):
        value = getattr(sym, 'value', None)
        if value is not None and hasattr(sym, 'dtype'):
            # a runtime Constant: the *value* is an apply()-time argument
            # and must not invalidate the cache
            self.token('Const', sym.name, str(sym.dtype))
            self.constants[sym.name] = sym
            return
        spacing = getattr(sym, 'spacing', None)
        if spacing is not None:
            kind = 'T' if getattr(sym, 'is_Time', False) else 'S'
            step = '1' if getattr(sym, 'is_Stepping', False) else '0'
            self.token('Dim', kind, step, sym.name, spacing.name)
            return
        self.token('Sym', type(sym).__name__, sym.name)

    def _emit_function(self, func):
        self.token('Func', type(func).__name__, func.name,
                   func.space_order, getattr(func, 'time_order', 0),
                   str(func.dtype), func.padding,
                   ','.join(d.name for d in func.staggered))
        self._note_grid(func.grid)
        if func.name not in self.functions:
            self.functions[func.name] = func

    def _emit_sparse(self, sparse):
        self.token('Sparse', type(sparse).__name__, sparse.name,
                   sparse.npoint, getattr(sparse, 'nt', 0))
        self._note_grid(sparse.grid)
        if sparse.name not in self.sparse:
            self.sparse[sparse.name] = sparse

    def _note_grid(self, grid):
        if all(g is not grid for g in self.grids):
            self.grids.append(grid)
            # a one-time announcement, not part of any node's steady bytes
            self.token('Grid', tuple(grid.shape), str(grid.dtype),
                       steady=False)

    # -- result ---------------------------------------------------------------------

    def hexdigest(self):
        if self._frames:
            raise RuntimeError("hexdigest() called mid-emission")
        return self._h.hexdigest()


def canonical_tokens(obj):
    """Fingerprint of a single object (debug/test helper)."""
    emitter = TokenEmitter()
    emitter.emit(obj)
    return emitter.hexdigest()
