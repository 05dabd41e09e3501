"""The hash-consed DAG contract: interning, memoization, lifetimes.

Four families of guarantees:

1. **Interning** — structurally equal construction yields the *same*
   object; direct ``__init__`` of an interned class outside its factory
   is an error; non-interned classes (Temp, DiscreteFunction) keep
   their identity-bearing semantics.
2. **Lifetimes** — the intern table holds nodes weakly: dropping the
   last external reference releases the entry (no leak), and the
   global :class:`WeakIdMemo` caches evict with their keys.
3. **Memoized traversals** — diff/subs/xreplace/expand/count_ops give
   the same answers on heavily shared DAGs as on the equivalent trees.
4. **Fingerprint stability** — the BLAKE2b content-address grammar is
   byte-for-byte what the seed emitted (hardcoded digests), and the
   per-node byte cache never changes a digest.
"""

import gc
import math
import warnings

import pytest

from repro.symbolics import (Derivative, Expr, Float, Indexed, Integer,
                             Rational, Symbol, Temp, WeakIdMemo,
                             canonical_tokens, cos, preorder, sin, sqrt,
                             unique_nodes)
from repro.symbolics.expr import _INTERN
from repro.symbolics.hashing import TokenEmitter

x, y, z = Symbol('x'), Symbol('y'), Symbol('z')


class TestInterning:

    def test_atoms_are_interned(self):
        assert Symbol('pt_a') is Symbol('pt_a')
        assert Integer(1234567) is Integer(1234567)
        assert Rational(3, 7) is Rational(3, 7)
        assert Float(2.5) is Float(2.5)

    def test_rational_normalizes_to_interned_integer(self):
        r = Rational(4, 2)
        assert isinstance(r, Integer)
        assert r is Integer(2)

    def test_composites_are_interned(self):
        assert x + y is x + y
        assert x * y + 2 is x * y + 2
        assert (x + y) ** 2 is (x + y) ** 2
        assert sin(x + y) is sin(x + y)

    def test_structural_equality_is_pointer_identity(self):
        a = (x + y) * sqrt(z) - 3
        b = (y + x) * sqrt(z) - 3  # canonical ordering collapses these
        assert a is b
        assert a == b
        assert hash(a) == hash(b)

    def test_derivative_interning(self):
        d1 = Derivative(x * y, x, fd_order=4)
        d2 = Derivative(y * x, x, fd_order=4)
        assert d1 is d2
        # a different fd_order is a different node
        assert d1 is not Derivative(x * y, x, fd_order=8)

    def test_indexed_interning_is_per_base(self, fake_function):
        u = fake_function('u')
        assert Indexed(u, x, y) is Indexed(u, x, y)
        # a *distinct* base object with the same name must not conflate
        v = fake_function('u')
        assert Indexed(u, x, y) is not Indexed(v, x, y)

    def test_direct_init_outside_factory_raises(self):
        e = x + y
        with pytest.raises(TypeError):
            e.__init__(x, z)
        with pytest.raises(TypeError):
            Expr.__init__(Symbol('q'), 'q')

    def test_temps_are_not_interned(self):
        # compiler temporaries are identity-bearing: r0 from one CSE run
        # must never alias r0 from another
        assert Temp(0) is not Temp(0)
        assert Temp(0) == Temp(0)  # but still structurally equal

    def test_float_zero_signs_stay_distinct(self):
        assert Float(0.0) is not Float(-0.0)
        assert math.copysign(1.0, Float(-0.0).value) == -1.0


class TestLifetimes:

    def test_released_nodes_leave_the_intern_table(self):
        import weakref
        gc.collect()
        before = len(_INTERN)
        e = Symbol('lifetime_probe_sym') * 987654321 + \
            sin(Symbol('lifetime_probe_sym2'))
        refs = [weakref.ref(n) for n in unique_nodes(e)]
        assert len(_INTERN) > before
        del e
        gc.collect()
        # neither the intern table nor any global memo holds a strong
        # reference: every node of the expression is collectible
        assert all(r() is None for r in refs)
        assert len(_INTERN) <= before

    def test_interning_survives_a_release_cycle(self):
        e1 = Symbol('cycle_probe') + 42
        del e1
        gc.collect()
        # the table entry died with the node; re-construction re-interns
        e2 = Symbol('cycle_probe') + 42
        assert e2 is Symbol('cycle_probe') + 42

    def test_weak_id_memo_evicts_with_its_key(self):
        memo = WeakIdMemo()
        e = Symbol('memo_probe') * 3
        memo.set(e, 'payload')
        assert memo.get(e) == 'payload'
        assert len(memo) == 1
        del e
        gc.collect()
        assert len(memo) == 0

    def test_weak_id_memo_self_value_does_not_pin(self):
        memo = WeakIdMemo()
        e = Symbol('memo_self_probe') * 5
        memo.set(e, e)  # value is the key itself (identity rewrite)
        assert memo.get(e) is e
        del e
        gc.collect()
        assert len(memo) == 0


class TestMemoizedTraversals:

    def _shared(self, depth=12):
        """A chain whose tree size is exponential in ``depth`` but whose
        DAG size is linear — any non-memoized traversal times out."""
        e = x + y
        for _ in range(depth):
            e = e * e + e
        return e

    def test_deep_shared_dag_traversals_terminate(self):
        e = self._shared(depth=24)
        stats = e.dag_stats()
        assert stats['unique_nodes'] < 200
        assert e.count_ops() > 0
        assert e.free_symbols == {x, y}
        assert e.xreplace({z: x}) is e  # no-op rewrite returns self

    def test_xreplace_on_shared_subtrees(self):
        shared = (x + y) * (z + 1)
        e = shared + sin(shared)
        r = e.xreplace({y: z})
        expected = (x + z) * (z + 1) + sin((x + z) * (z + 1))
        assert r is expected

    def test_count_ops_charges_shared_subtrees_once(self):
        # count_ops is a *DAG* cost relative to its root: a shared
        # subtree is charged once, however many paths reach it — which
        # is why the memo is per-call, never global
        shared = x * y + z
        e = sin(shared) + cos(shared)
        assert e.count_ops() == (sin(shared).count_ops()
                                 + cos(shared).count_ops()
                                 + 1 - shared.count_ops())

    def test_diff_method(self):
        d = (x * x).diff(x)
        assert isinstance(d, Derivative)
        assert d.derivs == ((x, 1),)

    def test_expand_on_shared_dag(self):
        shared = x + y
        e = (shared * shared).expand()
        assert e == x * x + 2 * x * y + y * y

    def test_unique_nodes_vs_preorder(self):
        shared = x + y
        e = shared * sin(shared)
        assert len(list(preorder(e))) == 8   # tree walk, with multiplicity
        assert len(list(unique_nodes(e))) == 5

    def test_dag_stats(self):
        shared = x + y
        e = shared * sin(shared)
        stats = e.dag_stats()
        assert stats == {'unique_nodes': 5, 'tree_nodes': 8,
                         'sharing': 8 / 5, 'depth': 4}


class TestDeprecatedShims:

    def test_method_api_does_not_warn(self):
        e = (x + y) * 2
        with warnings.catch_warnings():
            warnings.simplefilter('error', DeprecationWarning)
            e.xreplace({y: z})
            e.expand()
            e.count_ops()
            e.free_symbols
            e.diff(x)


class TestFingerprintStability:
    """The content-address grammar is frozen: these digests were
    captured from the seed implementation and must never drift (a drift
    silently invalidates every build cache in existence)."""

    SEED_DIGESTS = {
        'sym': '7e88461acb22676ded55ad2d2e685612',
        'int': 'd722c8e5b0407c11945dfa4fad797d04',
        'rat': 'e089f3bdba9c30ce5edc66e27ae69386',
        'flt': 'a0c2432045aa35409c23e53b70d6cfd4',
        'add': '4eb548400d058d71516f2be5b921cf86',
        'mul_pow': 'd7b8dc237a51f703ba9ac236bea34065',
        'fn': 'dd35c9c64e2c41cb17b19193ddf70c36',
    }

    def cases(self):
        return {
            'sym': x,
            'int': Integer(42),
            'rat': Rational(3, 7),
            'flt': Float(2.5),
            'add': x + 2 * y,
            'mul_pow': (x + y) ** 2 * Rational(1, 2),
            'fn': sin(x) * sqrt(y + 1),
        }

    def test_seed_digests(self):
        for name, expr in self.cases().items():
            assert canonical_tokens(expr) == self.SEED_DIGESTS[name], name

    def test_byte_cache_is_transparent(self):
        shared = (x + y) * sqrt(z)
        e = sin(shared) + cos(shared) * shared
        cached = TokenEmitter()
        cached.emit(e)
        uncached = TokenEmitter(cache=False)
        uncached.emit(e)
        assert cached.hexdigest() == uncached.hexdigest()


@pytest.fixture
def fake_function():
    """Minimal stand-in for a DiscreteFunction: identity-bearing (plain
    Python object, not interned), usable as an Indexed base."""

    class FakeFunction:
        def __init__(self, name):
            self.name = name

    return FakeFunction
