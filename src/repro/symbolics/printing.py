"""Expression printers: C and vectorized-NumPy source emission.

``ccode`` renders an expression as single-precision C (the paper's
Listing 11 style).  ``pycode`` renders it as a NumPy expression where each
array access becomes a slice computed from the access offset — the
executable backend of the JIT compiler.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import Float, Integer, Rational, S
from .functions import FUNCTION_REGISTRY, AppliedFunction

__all__ = ['ccode', 'pycode', 'CPrinter', 'PyPrinter', 'CExecPrinter']


class _PrinterBase:
    """Shared precedence-aware infix printing machinery."""

    def doprint(self, expr):
        return self._print(S(expr))

    def _print(self, expr):
        if expr.is_Add:
            return self._print_add(expr)
        if expr.is_Mul:
            return self._print_mul(expr)
        if expr.is_Pow:
            return self._print_pow(expr)
        if isinstance(expr, Integer):
            return self._print_int(expr)
        if isinstance(expr, Rational):
            return self._print_rational(expr)
        if isinstance(expr, Float):
            return self._print_float(expr)
        if expr.is_Indexed:
            return self._print_indexed(expr)
        if isinstance(expr, AppliedFunction):
            return self._print_function(expr)
        if expr.is_Symbol:
            return self._print_symbol(expr)
        if getattr(expr, 'is_DiscreteFunction', False):
            return self._print(expr.indexify())
        raise TypeError("cannot print %r" % (expr,))

    def _paren_term(self, arg):
        text = self._print(arg)
        if arg.is_Add:
            return '(' + text + ')'
        return text

    def _print_add(self, expr):
        parts = []
        for i, arg in enumerate(expr.args):
            text = self._print(arg)
            if i == 0:
                parts.append(text)
            elif text.startswith('-'):
                parts.append(' - ' + text[1:])
            else:
                parts.append(' + ' + text)
        return ''.join(parts)

    def _print_mul(self, expr):
        num_parts, den_parts = [], []
        coeff_text = None
        args = list(expr.args)
        if args and isinstance(args[0], (Integer, Rational, Float)):
            coeff = args.pop(0)
            if isinstance(coeff, Integer) and coeff.value == -1:
                coeff_text = '-'
            else:
                coeff_text = None
                args.insert(0, coeff)
        for arg in args:
            if arg.is_Pow and isinstance(arg.exp, (Integer, Rational)) \
                    and arg.exp.value < 0:
                den_parts.append(self._print_pow_positive(arg.base,
                                                          -arg.exp.value))
            elif isinstance(arg, Rational):
                num_parts.append(self._print_rational_as_float(arg))
            else:
                num_parts.append(self._paren_mul_operand(arg))
        if not num_parts:
            num_parts = [self._one_literal()]
        text = '*'.join(num_parts)
        if den_parts:
            text = text + '/' + '/'.join(
                p if _is_atom_text(p) else '(' + p + ')' for p in den_parts)
        if coeff_text:
            text = coeff_text + text
        return text

    def _paren_mul_operand(self, arg):
        text = self._print(arg)
        if arg.is_Add or (isinstance(arg, (Float, Integer)) and arg.value < 0):
            return '(' + text + ')'
        return text

    def _print_pow_positive(self, base, expval):
        """Print base**expval with expval a positive number."""
        frac = Fraction(expval)
        base_text = self._paren_mul_operand(base)
        if base.is_Mul or base.is_Pow:
            base_text = '(' + self._print(base) + ')'
        if frac == 1:
            return base_text
        if frac.denominator == 1 and 2 <= frac.numerator <= 3:
            return '*'.join([base_text] * frac.numerator)
        if frac == Fraction(1, 2):
            return self._sqrt_call(self._print(base))
        return self._pow_call(base_text, str(float(frac)))

    def _print_pow(self, expr):
        base, exp = expr.base, expr.exp
        if isinstance(exp, (Integer, Rational, Float)):
            if exp.value > 0:
                return self._print_pow_positive(base, exp.value)
            inv = self._print_pow_positive(base, -exp.value)
            if not _is_atom_text(inv):
                inv = '(' + inv + ')'
            return '%s/%s' % (self._one_literal(), inv)
        return self._pow_call(self._paren_mul_operand(base),
                              self._paren_mul_operand(exp))

    def _print_symbol(self, expr):
        return expr.name

    def _print_function(self, expr):
        cname, pyname = FUNCTION_REGISTRY[expr.fname]
        name = self._function_name(cname, pyname)
        return '%s(%s)' % (name, ', '.join(self._print(a) for a in expr.args))


def _is_atom_text(text):
    return text and all(c.isalnum() or c in '_.[]' for c in text)


class CPrinter(_PrinterBase):
    """Render expressions as single-precision C (``1.0F``, ``sqrtf``),
    or as double-precision C with ``single=False``."""

    def __init__(self, single=True):
        self.suffix = 'F' if single else ''

    def _one_literal(self):
        return '1.0' + self.suffix

    def _sqrt_call(self, arg):
        return '%s(%s)' % (self._function_name('sqrtf', 'np.sqrt'), arg)

    def _pow_call(self, base, exp):
        return '%s(%s, %s)' % (self._function_name('powf', None), base, exp)

    def _function_name(self, cname, pyname):
        # C names are the float variants (sinf, fabsf, ...)
        return cname if self.suffix else cname[:-1]

    def _print_int(self, expr):
        return str(expr.value)

    def _print_rational(self, expr):
        return self._print_rational_as_float(expr)

    def _print_rational_as_float(self, expr):
        return self._print_float(expr)

    def _print_float(self, expr):
        value = float(expr.value)
        if value == int(value):
            return '%.1f' % value + self.suffix
        return repr(value) + self.suffix

    def _print_indexed(self, expr):
        idx = ''.join('[%s]' % self._print(i) for i in expr.indices)
        return expr.base.name + idx


class PyPrinter(_PrinterBase):
    """Render expressions as scalar Python/NumPy source.

    Indexed accesses print via a caller-provided ``index_printer``
    callback, so the same printer serves both the scalar (pointwise) and
    the vectorized (slice-based) kernels.
    """

    def __init__(self, index_printer=None):
        self.index_printer = index_printer

    def _one_literal(self):
        return '1.0'

    def _sqrt_call(self, arg):
        return 'np.sqrt(%s)' % arg

    def _pow_call(self, base, exp):
        return '(%s)**(%s)' % (base, exp)

    def _function_name(self, cname, pyname):
        return pyname

    def _print_int(self, expr):
        return str(expr.value)

    def _print_rational(self, expr):
        return self._print_rational_as_float(expr)

    def _print_rational_as_float(self, expr):
        return repr(float(expr.value))

    def _print_float(self, expr):
        return repr(expr.value)

    def _print_indexed(self, expr):
        if self.index_printer is None:
            idx = ', '.join(self._print(i) for i in expr.indices)
            return '%s[%s]' % (expr.base.name, idx)
        return self.index_printer(self, expr)


class CExecPrinter(_PrinterBase):
    """C printer for the *executable* backend: mirrors NumPy NEP-50.

    The NumPy backend evaluates the printed Python expression with
    weak-scalar semantics: pure-scalar subexpressions run in double
    precision (Python floats) and are rounded to ``float32`` exactly
    when they first meet a ``float32`` array operand, one binary
    operation at a time, left-associatively.  ``np.*`` calls on scalars
    return *strong* ``np.float64``, which instead promotes the whole
    elementwise computation to double.

    This printer reproduces those rules so the compiled step performs
    the same IEEE operations in the same order.  Every printed
    subexpression carries a *kind*:

    - ``'w'`` — weak scalar (Python float/int): a C ``double``
    - ``'s'`` — strong scalar (``np.float64``): a C ``double``
    - ``'A'`` — array element of the kernel dtype
    - ``'D'`` — promoted double array element (only for float32
      kernels, after a strong scalar touched the expression)

    and the one non-trivial C rule is that a weak scalar meeting a
    ``float32`` array operand is cast with ``(float)(...)`` — C would
    otherwise promote the array side to double.  All other promotions
    (``float`` op ``double`` -> ``double``) match NumPy natively.

    ``index_printer(printer, indexed) -> text`` renders array accesses
    (the codegen backend owns the flattened-stride layout);
    ``symbol_kinds`` maps scalar names to ``'w'``/``'s'``/``'A'``
    (defaulting to weak — runtime parameters are Python floats).
    """

    def __init__(self, index_printer, dtype='float32', symbol_kinds=None):
        if dtype not in ('float32', 'float64'):
            raise ValueError("CExecPrinter supports float32/float64 "
                             "kernels, not %r" % (dtype,))
        self.index_printer = index_printer
        self.single = dtype == 'float32'
        self.symbol_kinds = dict(symbol_kinds or {})

    # -- public API ---------------------------------------------------------------

    def doprint(self, expr):
        return self.doprint_kinded(expr)[0]

    def doprint_kinded(self, expr):
        """``(text, kind)`` of the rendered expression."""
        return self._printk(S(expr))

    # -- the kind lattice ---------------------------------------------------------

    def _combine(self, ltext, lk, rtext, rk, op):
        """Fold one binary ``op``; casts the weak side when NumPy would."""
        scalars = {'w', 's'}
        if lk in scalars and rk in scalars:
            kind = 's' if 's' in (lk, rk) else 'w'
        elif self.single and lk == 'w' and rk == 'A':
            ltext, kind = self._cast(ltext), 'A'
        elif self.single and rk == 'w' and lk == 'A':
            rtext, kind = self._cast(rtext), 'A'
        elif 'D' in (lk, rk) or (self.single and 's' in (lk, rk)):
            kind = 'D'
        else:
            kind = 'A'
        if op in '+-':
            return '%s %s %s' % (ltext, op, rtext), kind
        return '%s%s%s' % (ltext, op, rtext), kind

    def _cast(self, text):
        if _is_atom_text(text):
            return '(float)' + text
        return '(float)(%s)' % text

    # -- kind-aware node printing ----------------------------------------------------

    def _printk(self, expr):
        if expr.is_Add:
            return self._printk_add(expr)
        if expr.is_Mul:
            return self._printk_mul(expr)
        if expr.is_Pow:
            return self._printk_pow(expr)
        if isinstance(expr, Integer):
            return str(expr.value), 'w'
        if isinstance(expr, (Rational, Float)):
            return self._double_literal(float(expr.value)), 'w'
        if expr.is_Indexed:
            return self.index_printer(self, expr), 'A'
        if isinstance(expr, AppliedFunction):
            return self._printk_function(expr)
        if expr.is_Symbol:
            return expr.name, self.symbol_kinds.get(expr.name, 'w')
        if getattr(expr, 'is_DiscreteFunction', False):
            return self._printk(expr.indexify())
        raise TypeError("cannot print %r" % (expr,))

    @staticmethod
    def _double_literal(value):
        if value == int(value):
            return '%.1f' % value
        return repr(value)

    def _printk_add(self, expr):
        text, kind = self._printk(expr.args[0])
        for arg in expr.args[1:]:
            t, k = self._printk(arg)
            op = '+'
            if t.startswith('-'):
                op, t = '-', t[1:]
            text, kind = self._combine(text, kind, t, k, op)
        return text, kind

    def _printk_operand(self, arg):
        """A Mul/Pow operand, parenthesized like the base printer."""
        text, kind = self._printk(arg)
        if arg.is_Add or text.startswith('-'):
            return '(%s)' % text, kind
        return text, kind

    def _printk_mul(self, expr):
        args = list(expr.args)
        negate = False
        if args and isinstance(args[0], Integer) and args[0].value == -1:
            args.pop(0)
            negate = True
        num, den = [], []
        for arg in args:
            if arg.is_Pow and isinstance(arg.exp, (Integer, Rational)) \
                    and arg.exp.value < 0:
                den.append(self._printk_pow_positive(arg.base,
                                                     -arg.exp.value))
            elif arg.is_Pow and isinstance(arg.exp, Integer) \
                    and 2 <= arg.exp.value <= 3:
                # printed inline (``a*b*b``): each factor folds into the
                # running product, left to right, as Python evaluates it
                base = self._printk_operand(arg.base)
                if arg.base.is_Mul or arg.base.is_Pow:
                    base = ('(%s)' % self._printk(arg.base)[0], base[1])
                num.extend([base] * arg.exp.value)
            else:
                num.append(self._printk_operand(arg))
        if not num:
            num = [(self._double_literal(1.0), 'w')]
        text, kind = num[0]
        for t, k in num[1:]:
            text, kind = self._combine(text, kind, t, k, '*')
        for t, k in den:
            if not _is_atom_text(t):
                t = '(%s)' % t
            text, kind = self._combine(text, kind, t, k, '/')
        if negate:
            # exact sign flip: -(a*b) and (-a)*b are bitwise identical
            text = '-' + text
        return text, kind

    def _printk_pow_positive(self, base, expval):
        frac = Fraction(expval)
        btext, bkind = self._printk_operand(base)
        if base.is_Mul or base.is_Pow:
            btext = '(%s)' % self._printk(base)[0]
        if frac == 1:
            return btext, bkind
        if frac.denominator == 1 and 2 <= frac.numerator <= 3:
            text, kind = btext, bkind
            for _ in range(int(frac.numerator) - 1):
                text, kind = self._combine(text, kind, btext, bkind, '*')
            return text, kind
        if frac == Fraction(1, 2):
            return self._call_math('sqrt', [(btext, bkind)])
        return self._call_math('pow', [(btext, bkind),
                                       (self._double_literal(float(frac)),
                                        'w')])

    def _printk_pow(self, expr):
        base, exp = expr.base, expr.exp
        if isinstance(exp, (Integer, Rational, Float)):
            if exp.value > 0:
                return self._printk_pow_positive(base, exp.value)
            itext, ikind = self._printk_pow_positive(base, -exp.value)
            if not _is_atom_text(itext):
                itext = '(%s)' % itext
            return self._combine(self._double_literal(1.0), 'w',
                                 itext, ikind, '/')
        return self._call_math('pow', [self._printk_operand(base),
                                       self._printk_operand(exp)])

    def _printk_function(self, expr):
        cname, _ = FUNCTION_REGISTRY[expr.fname]
        return self._call_math(cname.rstrip('f') if cname.endswith('f')
                               else cname,
                               [self._printk(a) for a in expr.args])

    def _call_math(self, stem, args):
        """A libm call; float variant iff every operand is float32.

        Matches NumPy: ``np.sqrt`` on a float32 array stays float32
        (``sqrtf``); on anything scalar it returns a *strong* float64,
        so the double variant is used and the result kind is ``'s'`` /
        ``'D'``.
        """
        kinds = [k for _, k in args]
        if self.single and all(k == 'A' for k in kinds):
            name, kind = stem + 'f', 'A'
        elif any(k in ('A', 'D') for k in kinds):
            name, kind = stem, 'A' if not self.single else 'D'
        else:
            name, kind = stem, 's'
        return ('%s(%s)' % (name, ', '.join(t for t, _ in args)), kind)


def ccode(expr):
    """Render ``expr`` as single-precision C source."""
    return CPrinter().doprint(expr)


def pycode(expr, index_printer=None):
    """Render ``expr`` as Python/NumPy source."""
    return PyPrinter(index_printer=index_printer).doprint(expr)
