"""Exact symbolic scalars.

An :class:`Expr` is a reduced fraction of two sparse integer polynomials
(:mod:`diracq.poly`) over exactly the generators the value involves:
coordinate and parameter symbols, the constant ``pi``, and one generator per
transcendental atom ``exp(u)``, ``sin(u)`` or ``cos(u)``.  Arithmetic,
differentiation, equality, substitution of rational values (``Expr.subs``),
evaluation at a point and printing run on these polynomials.  sympy is
imported only where a tree is needed: ``Expr.node``, ``Expr(<sympy tree>)``
and building an atom; mpmath only to evaluate a value with ``pi`` or an
atom.  A value prints each generator by its name, and a value of symbols
alone prints exactly as sympy's ``sstr`` prints its tree.

The fields and their generators:

* A :class:`Generator` is interned: one per symbol name, one ``pi`` and one
  per atom.  There is one field per sorted tuple of generators, kept in a
  registry.  Generators are sorted by a fixed key (symbols by name, then
  ``pi``, then atoms by text), so the canonical form of a value does not
  depend on the order in which generators were met, and a constant lives in
  the field with no generators.  A binary operation embeds its operands in
  the field of the union of their generators, and the reduced result moves
  to the field of the generators it still involves, so ``(x + y) - y`` is
  ``x`` in the field of ``x``.  The union of two fields and the positions of
  their generators in it are computed once per pair of fields, and meeting a
  new generator changes no existing field.
* The canonical form is a numerator coprime to its denominator, whose
  lex-leading coefficient is positive; a reduced fraction in that form is
  unique.  Where the algebra rules out a common factor, arithmetic skips the
  gcd and lands on that same form: a product of two polynomials is the ring
  product, and no generator drops from it; a sum with a polynomial is
  ``(n + p*d)/d``, coprime because ``n/d`` is (Henrici, J. ACM 3, 1956;
  Knuth, TAOCP vol. 2, 4.5.1), though a generator can still cancel; a
  rational constant meets the other operand through integer gcds alone, and
  ``1 * x`` is ``x``.  Any other product, and a sum of two fractions, takes
  one full :func:`~diracq.poly.cancel`.
* An atom is registered under its head and its argument, so
  ``exp((x*y + x)/(y + 1))`` is the generator ``exp(x)``.  Where sympy
  evaluates the atom (``sin(0) = 0``, ``sin(-x) = -sin(x)``,
  ``cos(2*pi/3) = -1/2``) the value is that evaluation; ``sp.E`` is the atom
  ``exp(1)``, and an atom prints as its head and argument.  Atoms are
  opaque: ``sin(x)**2 + cos(x)**2`` is *not* the generator ``1``.

The derivative is a derivation of the field: ``d/dx`` is the partial
derivative in ``x`` plus, over the atom generators ``g``, ``dF/dg * dg/dx``
with ``exp(u)' = exp(u) u'``, ``sin(u)' = cos(u) u'`` and
``cos(u)' = -sin(u) u'``.

Equality takes three steps: equal field elements are equal; a difference
that involves no atom generator is nonzero, which is exact because ``pi`` is
transcendental over Q; anything else is sampled at random rational points
(:func:`_probabilistic_equal`), where an interval of the difference that
excludes 0 proves the sides differ.  So every False is a proof, and only a
True that needed an atom rests on sampling.  A zero denominator is an
:class:`ExprError` when the value is built.

A :class:`ComplexExpr` is ``(re + i*im) * exp(-2*pi*i*phase)``: an exact
amplitude pair and a real phase, taken mod Z and zero unless given, so that
``exp(-2 pi i w)`` is kept as its exponent ``w`` rather than as cos/sin
atoms.  A product adds phases, ``conj`` and the inverse negate them, and the
derivative follows the log-derivative rule ``d(a e) = (da - 2 pi i a dw) e``.
Two phases whose difference is an integer are the same phase, and a zero
amplitude takes any phase.  A sum or a comparison of values whose phases
differ by anything else expands both to the cos/sin form (``expand``); it is
the only place a phase becomes atoms.

There is one scalar protocol: :func:`equal` and :func:`is_zero` take real or
complex values alike, and mixed ``Expr``/``ComplexExpr`` arithmetic returns a
``ComplexExpr``.  A comparison that involves a complex value aligns both
sides to one phase and compares the amplitudes part by part, so on phased
values it stays exact; a real value is a complex one with zero imaginary
part and phase.

Semantics are generic-point: two rational functions are equal when they agree
off their pole sets, so ``x/x`` is ``1``.  Values are immutable and all
operations are pure functions.
"""

from __future__ import annotations

import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Mapping

from . import poly

__all__ = [
    "Expr",
    "ComplexExpr",
    "Generator",
    "Point",
    "ExprError",
    "SingularPointError",
    "UnknownSymbolError",
    "symbol",
    "atom",
    "rational",
    "as_expr",
    "PI",
    "ZERO",
    "ONE",
    "I",
    "differentiate",
    "normalize",
    "equal",
    "is_zero",
    "evaluate",
    "random_rational",
    "equality_config",
]

# digits of a transcendental value, relative to max(1, |value|), and the
# binary precisions of its interval evaluation: 128 bits, doubling to 2**16
_EVAL_DIGITS = 30
_PRECS = [128 << k for k in range(10)]

_HEADS = ("exp", "sin", "cos")


def _sympy():
    """sympy, imported on first use."""
    import sympy
    return sympy


def __getattr__(name: str):
    # sympy's namespace and its atom heads, served without importing sympy
    # with this module
    if name == "sp":
        return _sympy()
    if name == "_ATOM_HEADS":
        return tuple(getattr(_sympy(), head) for head in _HEADS)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ExprError(Exception):
    """Raised on malformed symbolic input (zero denominators, bad nodes)."""


class SingularPointError(ExprError):
    """Raised when an evaluation point lies on a pole."""


class UnknownSymbolError(ExprError):
    """Raised when a symbol is not declared in the active chart."""

    def __init__(self, name: str):
        super().__init__(f"unknown symbol {name!r}")
        self.name = name


def _zero_division() -> ExprError:
    return ExprError("division by the zero expression")


# ---------------------------------------------------------------------------
# the generators


class Generator:
    """A generator of the scalar fields: a coordinate or parameter symbol,
    the constant ``pi``, or a transcendental atom ``head(arg)``.  Generators
    are interned, so two are equal only when they are the same object.
    ``key`` sorts them: symbols by name, then ``pi``, then atoms by text.
    ``_sympy_`` gives the sympy tree, so a generator can enter a sympy
    expression."""

    __slots__ = ("name", "key", "head", "arg", "free_symbols", "value",
                 "_tree")

    def __init__(self, name: str, key: tuple, tree=None, head=None, arg=None):
        self.name, self.key, self._tree = name, key, tree
        self.head, self.arg = head, arg
        self.free_symbols = (arg.free_symbols if head else
                             frozenset() if key[0] else frozenset((self,)))
        self.value = _make(_field((self,)), {(1,): 1}, {(0,): 1})

    @property
    def tree(self):
        """The sympy tree: a real ``Symbol``, ``pi`` or the atom."""
        if self._tree is None:
            sp = _sympy()
            self._tree = sp.pi if self.key[0] else sp.Symbol(self.name,
                                                             real=True)
        return self._tree

    def _sympy_(self):
        return self.tree

    def __str__(self) -> str:
        return self.name

    __repr__ = __str__


_SYMBOLS: dict = {}                 # name -> its symbol generator


def symbol(name: str) -> Generator:
    """The (real) symbol used for a coordinate or parameter."""
    gen = _SYMBOLS.get(name)
    if gen is None:
        gen = _SYMBOLS[name] = Generator(name, (0, name, name))
    return gen


def _require_symbol(sym) -> None:
    """A derivative, substitution or integral is taken in a symbol
    generator; anything else (a sympy ``Symbol``, ``pi``) would match no
    generator and silently act as a constant."""
    if sym.__class__ is not Generator or sym.key[0]:
        raise ExprError(f"{sym!r} is not a symbol from diracq.expr.symbol")


# ---------------------------------------------------------------------------
# the fields


class _Field:
    """The fraction field over a sorted tuple of generators: ``one`` is its
    polynomial ``1``, and ``atomic`` says that some generator is an atom."""

    __slots__ = ("gens", "ngens", "one", "atomic")

    def __init__(self, gens: tuple):
        self.gens, self.ngens = gens, len(gens)
        self.one = {(0,) * len(gens): 1}
        self.atomic = any(gen.head for gen in gens)


_FIELDS: dict = {}                  # sorted generator tuple -> its field
_ATOMS: dict = {}                   # (head, argument) -> head(argument)
# (id(field), id(field)) -> (union field, spreader, spreader); fields are
# never freed, so an id names one field for the life of the process
_UNIONS: dict = {}


def _field(gens: tuple) -> _Field:
    """The field of the generators ``gens``, sorted by their ``key``."""
    field = _FIELDS.get(gens)
    if field is None:
        field = _FIELDS[gens] = _Field(gens)
    return field


_CONSTANTS = _field(())


def _make(field: _Field, num: dict, den: dict) -> "Expr":
    out = object.__new__(Expr)
    out.field, out.num, out.den, out._node, out._hash = (field, num, den,
                                                         None, None)
    return out


def _spreader(field, union):
    """``None`` when ``field`` is ``union``; otherwise a function taking a
    monomial of ``field``, extended by a trailing ``0``, to the monomial of
    ``union`` (a generator ``field`` lacks reads that ``0``)."""
    if field is union:
        return None
    return itemgetter(*(field.gens.index(gen) if gen in field.gens
                        else -1 for gen in union.gens))


def _spread(p: dict, spreader) -> dict:
    """``p`` in the union field, whose monomials ``spreader`` gives."""
    if spreader is None:
        return p
    return {spreader(monom + (0,)): coeff for monom, coeff in p.items()}


def _common(a, b):
    """The field of the union of the generators of ``a`` and ``b``, and the
    numerators and denominators of both in it.  Neither is a constant, so
    a field that is not the union has fewer generators than it, the union
    has two or more, and each ``itemgetter`` spreader returns a tuple."""
    if a.field is b.field:
        return a.field, a.num, a.den, b.num, b.den
    key = (id(a.field), id(b.field))
    union = _UNIONS.get(key)
    if union is None:
        field = _field(tuple(sorted({*a.field.gens, *b.field.gens},
                                    key=attrgetter("key"))))
        union = _UNIONS[key] = (field, _spreader(a.field, field),
                                _spreader(b.field, field))
    field, spread_a, spread_b = union
    return (field, _spread(a.num, spread_a), _spread(a.den, spread_a),
            _spread(b.num, spread_b), _spread(b.den, spread_b))


def _constant(p: int, q: int = 1) -> "Expr":
    """The constant ``p / q`` for coprime ``p`` and ``q > 0``; a zero
    numerator is the empty polynomial."""
    return _make(_CONSTANTS, {(): p} if p else {}, {(): q})


def _rational(p: int, q: int) -> "Expr":
    """The constant ``p / q`` for ``q > 0``."""
    g = math.gcd(p, q)
    return _constant(p // g, q // g)


def _own_field(field, num, den) -> "Expr":
    """``num / den``, coprime with a positive leading coefficient below, in
    the field of exactly the generators it involves."""
    if not num:
        return _constant(0)
    used = [i for i, col in enumerate(zip(*num, *den)) if any(col)]
    if len(used) < field.ngens:
        field = _field(tuple(field.gens[i] for i in used))
        num, den = ({tuple(monom[i] for i in used): coeff
                     for monom, coeff in p.items()} for p in (num, den))
    return _make(field, num, den)


def _reduced(field, num, den) -> "Expr":
    """``num / den`` in lowest terms with a positive leading coefficient
    below, in the field of exactly the generators it involves."""
    if not den:
        raise _zero_division()
    if num and den != field.one:
        num, den = poly.cancel(num, den)
    return _own_field(field, num, den)


def _positive_below(num, den):
    """``num / den`` with the sign moved so that ``den`` leads positively."""
    if poly.leading_coeff(den) < 0:
        return poly.neg(num), poly.neg(den)
    return num, den


def _add_constant(p: int, q: int, b: "Expr") -> "Expr":
    """``p/q + b`` for a rational ``p/q`` in lowest terms with ``q > 0``.
    By Henrici's rule only a divisor of the integer ``g = gcd(q, b.den)``
    can cancel, and a constant cancels no generator of ``b``."""
    bn, bd = b.num, b.den
    if not b.field.ngens:
        return _rational(p * bd[()] + bn[()] * q, q * bd[()])
    if q == 1:
        return _make(b.field, poly.add(bn, poly.mul_ground(bd, p)), bd)
    g = math.gcd(q, *bd.values())
    num = poly.add(poly.mul_ground(bn, q // g),
                   poly.mul_ground(poly.quo_ground(bd, g), p))
    e = math.gcd(g, *num.values())
    return _make(b.field, poly.quo_ground(num, e),
                 poly.mul_ground(poly.quo_ground(bd, e), q // g))


def _mul_constant(p: int, q: int, b: "Expr") -> "Expr":
    """``p/q * b`` for a nonzero rational ``p/q`` in lowest terms with
    ``q > 0``: only ``p`` against ``b.den`` and ``q`` against ``b.num`` can
    cancel, and no generator of ``b`` drops."""
    bn, bd = b.num, b.den
    if not b.field.ngens:
        return _rational(p * bn[()], q * bd[()])
    if q == 1 and p in (1, -1):
        return b if p == 1 else -b
    if q != 1:
        g = math.gcd(q, *bn.values())
        bn, q = poly.quo_ground(bn, g), q // g
        bd = poly.mul_ground(bd, q)
    if bd != b.field.one:
        g = math.gcd(p, *bd.values())
        bd, p = poly.quo_ground(bd, g), p // g
    return _make(b.field, poly.mul_ground(bn, p), bd)


def _add(a: "Expr", b: "Expr") -> "Expr":
    """``a + b`` for nonzero ``a`` and ``b``."""
    if not b.field.ngens:
        a, b = b, a                             # a constant first
    if not a.field.ngens:
        return _add_constant(a.num[()], a.den[()], b)
    field, an, ad, bn, bd = _common(a, b)
    one = field.one
    if bd == one:
        an, ad, bn, bd = bn, bd, an, ad         # a polynomial first
    if ad == one:
        # gcd(an*bd + bn, bd) = gcd(bn, bd) = 1: nothing cancels, but a
        # generator can, as in (1 + x*y)/y - x = 1/y
        if bd == one:
            return _own_field(field, poly.add(an, bn), ad)
        return _own_field(field, poly.add(poly.mul(an, bd), bn), bd)
    if ad == bd:
        return _reduced(field, poly.add(an, bn), ad)
    return _reduced(field, poly.add(poly.mul(an, bd), poly.mul(bn, ad)),
                    poly.mul(ad, bd))


def _mul(a: "Expr", b: "Expr") -> "Expr":
    """``a * b`` for nonzero ``a`` and ``b``."""
    if not b.field.ngens:
        a, b = b, a                             # a constant first
    if not a.field.ngens:
        return _mul_constant(a.num[()], a.den[()], b)
    field, an, ad, bn, bd = _common(a, b)
    if ad == bd == field.one:
        # the ring product: degrees add, so every generator stays
        return _make(field, poly.mul(an, bn), ad)
    return _reduced(field, poly.mul(an, bn), poly.mul(ad, bd))


def _div(a: "Expr", b: "Expr") -> "Expr":
    if not b.num:
        raise _zero_division()
    if not a.num:
        return a
    return _mul(a, _make(b.field, *_positive_below(b.den, b.num)))


def _power(e: "Expr", n: int) -> "Expr":
    """``e ** n`` in reduced form."""
    if n == 0:
        return ONE
    num, den = e.num, e.den
    if n < 0:
        if not num:
            raise _zero_division()
        num, den, n = den, num, -n
    return _make(e.field, *_positive_below(poly.power(num, n),
                                           poly.power(den, n)))


def _new_atom(head: str, arg: "Expr") -> "Expr":
    """The value of ``head(arg)`` where sympy evaluates the atom into the
    field; otherwise a new atom generator named ``head(arg)``."""
    sp = _sympy()
    func = getattr(sp, head)
    tree = func(arg.node)
    if not (tree is sp.E or (isinstance(tree, func)
                             and tree.args[0] == arg.node)):
        try:
            return _convert(tree)          # sympy evaluated the atom
        except ExprError:                  # to a value outside the field
            tree = func(arg.node, evaluate=False)
    text = f"{head}({arg})"
    return Generator(text, (2, text, sp.srepr(tree)), tree, head, arg).value


def atom(head, arg) -> "Expr":
    """``head(arg)`` for ``head`` one of ``"exp"``, ``"sin"``, ``"cos"``, or
    sympy's function of that name."""
    name = head if isinstance(head, str) else head.__name__
    if name not in _HEADS:
        raise ExprError(f"unknown atom head {name!r}")
    key = (name, as_expr(arg))
    value = _ATOMS.get(key)
    if value is None:
        value = _ATOMS[key] = _new_atom(*key)
    return value


def _convert(node) -> "Expr":
    """The value of a sympy tree."""
    sp = _sympy()
    if node.is_Rational:
        return _constant(int(node.p), int(node.q))
    if node.is_Symbol:
        return symbol(node.name).value
    if node is sp.pi:
        return PI
    if node.is_Add:
        out = ZERO
        for arg in node.args:
            out = out + _convert(arg)
        return out
    if node.is_Mul:
        out = ONE
        for arg in node.args:
            out = out * _convert(arg)
        return out
    if node.is_Pow and node.exp.is_Integer:
        return _convert(node.base) ** int(node.exp)
    if node is sp.E:
        return atom("exp", ONE)
    if isinstance(node, (sp.exp, sp.sin, sp.cos)):
        return atom(node.func.__name__, _convert(node.args[0]))
    if node in (sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise _zero_division()
    raise ExprError(f"cannot interpret {node} as an exact scalar")


def _element(value) -> "Expr":
    """``value`` as a reduced value."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, Generator):
        return value.value
    if isinstance(value, bool):
        raise ExprError("booleans are not scalars")
    if isinstance(value, int):
        return _constant(value)
    if isinstance(value, Fraction):
        return _constant(value.numerator, value.denominator)
    sympy = sys.modules.get("sympy")       # a sympy tree needs sympy loaded
    if sympy is not None and isinstance(value, sympy.Expr):
        return _convert(value)
    raise ExprError(f"cannot interpret {value!r} as an exact scalar")


def _partial(e: "Expr", i: int) -> "Expr":
    """The partial derivative of ``e`` in its ``i``-th generator."""
    num, den = e.num, e.den
    dnum, dden = poly.derivative(num, i), poly.derivative(den, i)
    if not dden:
        return _reduced(e.field, dnum, den)
    return _reduced(e.field,
                    poly.add(poly.mul(dnum, den), poly.neg(poly.mul(num, dden))),
                    poly.mul(den, den))


def _atom_derivative(gen: Generator, sym: Generator) -> "Expr":
    """``d gen / d sym`` for an atom generator, by the chain rule."""
    inner = gen.arg.diff(sym)
    if not inner.num:
        return ZERO
    if gen.head == "exp":
        return gen.value * inner
    if gen.head == "sin":
        return atom("cos", gen.arg) * inner
    return -atom("sin", gen.arg) * inner


# ---------------------------------------------------------------------------
# printing


def _power_text(name: str, e: int) -> str:
    return name if e == 1 else f"{name}**{e}"


def _factors(names, monom) -> list:
    return [_power_text(name, e) for name, e in zip(names, monom) if e]


def _product_text(p: int, q: int, up: list, down: list) -> str:
    """sympy's text of the product ``p/q * up / down``: the sign, then the
    numerator factors (``|p|`` first) over the denominator factors (``q``
    first)."""
    if abs(p) != 1:
        up = [str(abs(p)), *up]
    if q != 1:
        down = [str(q), *down]
    text = ("-" if p < 0 else "") + ("*".join(up) or "1")
    if not down:
        return text
    if len(down) == 1:
        return f"{text}/{down[0]}"
    return f"{text}/({'*'.join(down)})"


def _sum_text(names, p: dict, d: int = 1) -> str:
    """sympy's text of ``p / d`` for a polynomial ``p`` of two or more
    terms, the integer ``d`` spread over the terms: descending lex order,
    except that ``c - k*x**e`` with a positive constant ``c`` keeps the
    constant first."""
    terms = sorted(p.items(), reverse=True)
    if len(terms) == 2:
        (m1, c1), (m0, c0) = terms
        if (c0 > 0 > c1 and not any(m0)
                and sum(1 for e in m1 if e) == 1):
            terms.reverse()
    text = ""
    for monom, coeff in terms:
        g = math.gcd(coeff, d)
        term = _product_text(coeff // g, d // g, _factors(names, monom), [])
        if text:
            term = f" - {term[1:]}" if term[0] == "-" else f" + {term}"
        text += term
    return text


def _text(field: _Field, num: dict, den: dict) -> str:
    """The text of ``num / den``, generators by name; over a field of
    symbols, the text ``sstr`` gives its tree."""
    names = [gen.name for gen in field.gens]
    if not field.ngens:
        p, q = num.get((), 0), den[()]
        return str(p) if q == 1 else f"{p}/{q}"
    if len(num) > 1:
        up = [f"({_sum_text(names, num)})"]
        p = 1
    else:
        (monom, p), = num.items()
        up = _factors(names, monom)
    if len(den) > 1:
        return _product_text(p, 1, up, [f"({_sum_text(names, den)})"])
    (monom, q), = den.items()
    if not any(monom):
        if len(num) > 1:
            return _sum_text(names, num, q)     # sympy spreads 1/q
        return _product_text(p, q, up, [])
    down = _factors(names, monom)
    if p == q == 1 and not up and len(down) == 1 and max(monom) > 1:
        name, e = next((n, e) for n, e in zip(names, monom) if e)
        return f"{name}**(-{e})"            # the power x**(-2), no product
    return _product_text(p, q, up, down)


class Expr:
    """Immutable exact scalar, a reduced fraction over the generators it
    involves: built from a sympy tree, an ``int``, a ``Fraction``, a
    :class:`Generator` or another ``Expr``; arithmetic via the usual
    operators.  A zero operand costs nothing: ``+``, ``-``, ``*`` and unary
    ``-`` return the other operand as it is, its negation or the zero.
    ``num`` and ``den`` are the polynomials over ``field.gens``."""

    __slots__ = ("field", "num", "den", "_node", "_hash")

    def __new__(cls, value):
        return _element(value)

    @property
    def node(self):
        """The sympy tree of the reduced numerator over the denominator."""
        if self._node is None:
            sp = _sympy()
            trees = [gen.tree for gen in self.field.gens]

            def tree(p):
                return sp.Add(*[sp.Mul(sp.Integer(coeff),
                                       *[sp.Pow(t, e)
                                         for t, e in zip(trees, monom) if e])
                                for monom, coeff in p.items()])

            self._node = tree(self.num) / tree(self.den)
        return self._node

    @property
    def support(self) -> frozenset:
        """The generators the value involves."""
        return frozenset(self.field.gens)

    @property
    def is_rational(self) -> bool:
        """A rational number: every derivative of it is 0."""
        return not self.field.ngens

    @property
    def is_integer(self) -> bool:
        return not self.field.ngens and self.den[()] == 1

    def as_numer_denom(self) -> tuple["Expr", "Expr"]:
        """The reduced numerator and denominator; the denominator's leading
        coefficient is positive."""
        one = self.field.one
        return (_reduced(self.field, self.num, one),
                _reduced(self.field, self.den, one))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Expr":
        if not isinstance(other, Expr):
            if isinstance(other, ComplexExpr):
                return NotImplemented
            other = Expr(other)
        if not (self.num and other.num):
            return other if other.num else self
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other) -> "Expr":
        if not isinstance(other, Expr):
            if isinstance(other, ComplexExpr):
                return NotImplemented
            other = Expr(other)
        if not (self.num and other.num):
            return -other if other.num else self
        return _add(self, -other)

    def __rsub__(self, other) -> "Expr":
        return as_expr(other) - self

    def __mul__(self, other) -> "Expr":
        if not isinstance(other, Expr):
            if isinstance(other, ComplexExpr):
                return NotImplemented
            other = Expr(other)
        if not (self.num and other.num):
            return other if self.num else self
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        if isinstance(other, ComplexExpr):
            return NotImplemented
        return _div(self, _element(other))

    def __rtruediv__(self, other) -> "Expr":
        return _div(_element(other), self)

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int):
            raise ExprError("only integer exponents are supported")
        return _power(self, exponent)

    def __neg__(self) -> "Expr":
        if not self.num:
            return self
        return _make(self.field, poly.neg(self.num), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        # one field: the terms decide
        return (self.field is other.field and self.num == other.num
                and self.den == other.den)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field, frozenset(self.num.items()),
                               frozenset(self.den.items())))
        return self._hash

    # -- calculus -----------------------------------------------------------

    def diff(self, sym: Generator) -> "Expr":
        """The derivative in the symbol ``sym``."""
        _require_symbol(sym)
        out = ZERO
        for i, gen in enumerate(self.field.gens):
            if gen is sym:
                out = out + _partial(self, i)
            elif gen.head:
                d = _atom_derivative(gen, sym)
                if d.num:
                    out = out + _partial(self, i) * d
        return out

    def subs(self, mapping: Mapping) -> "Expr":
        """Rational values for symbols, substituted in the field: ``x = p/q``
        scales the numerator and the denominator by ``q`` to the degree of
        ``x``.  An atom argument that involves a substituted symbol is an
        :class:`ExprError`."""
        for sym in mapping:
            _require_symbol(sym)
        gens = self.field.gens
        if any(not gen.free_symbols.isdisjoint(mapping)
               for gen in gens if gen.head):
            raise ExprError("an atom argument involves a substituted symbol")
        num, den = self.num, self.den
        for sym, value in mapping.items():
            if sym in gens:
                i, value = gens.index(sym), Fraction(value)
                d = max(monom[i] for p in (num, den) for monom in p)
                num, den = (poly.at(p, i, value.numerator, value.denominator, d)
                            for p in (num, den))
        return _reduced(self.field, num, den)

    def integral_from_zero(self, sym: Generator) -> "Expr":
        """The antiderivative in ``sym`` that vanishes at ``sym = 0``, for a
        numerator polynomial in ``sym`` over a denominator free of it."""
        _require_symbol(sym)
        gens = self.field.gens
        if any(sym in gen.free_symbols for gen in gens if gen.head):
            raise ExprError(f"an atom argument involves {sym}")
        if sym not in gens:
            return self * sym.value
        i = gens.index(sym)
        if any(monom[i] for monom in self.den):
            raise ExprError(f"the denominator involves {sym}")
        scale = math.lcm(*(monom[i] + 1 for monom in self.num))
        num = {monom[:i] + (monom[i] + 1,) + monom[i + 1:]:
               coeff * (scale // (monom[i] + 1))
               for monom, coeff in self.num.items()}
        return _reduced(self.field, num, poly.mul_ground(self.den, scale))

    @property
    def free_symbols(self) -> frozenset:
        """The symbols of the value and of its atoms' arguments."""
        return frozenset().union(*(gen.free_symbols
                                   for gen in self.field.gens))

    def __str__(self) -> str:
        return _text(self.field, self.num, self.den)

    def __repr__(self) -> str:
        return f"Expr({self})"


ZERO = _constant(0)
ONE = _constant(1)
PI = Generator("pi", (1, "pi", "pi")).value


def rational(p: int, q: int = 1) -> Expr:
    if q == 0:
        raise _zero_division()
    return Expr(Fraction(p, q))


def as_expr(value) -> Expr:
    return value if isinstance(value, Expr) else Expr(value)


# ---------------------------------------------------------------------------
# normalize / differentiate / evaluate / equal


def normalize(e: Expr) -> Expr:
    """The canonical form.  A field element is already reduced (zero is
    represented uniquely), so this is the identity on values."""
    return as_expr(e)


def differentiate(e: Expr, sym: Generator) -> Expr:
    """Partial derivative, with the chain rule through transcendental atoms."""
    return as_expr(e).diff(sym)


@dataclass(frozen=True)
class Point:
    """Exact rational values for every coordinate and parameter of a chart."""

    chart: str
    values: Mapping[str, Fraction]


def _enclosure(e: Expr, values: Mapping, iv, memo: dict):
    """An ``iv`` interval that holds ``e`` at ``values``, or ``None`` where a
    denominator's holds 0, which is a pole once it is narrower than
    ``10**-_EVAL_DIGITS``; ``memo`` keeps the generators' intervals."""
    intervals = []
    for gen in e.field.gens:
        if gen not in memo:
            if not gen.head:
                memo[gen] = iv.pi if gen.key[0] else (
                    iv.mpf(values[gen].numerator) / values[gen].denominator)
            elif (arg := _enclosure(gen.arg, values, iv, memo)) is None:
                return None
            else:
                memo[gen] = getattr(iv, gen.head)(arg)
        intervals.append(memo[gen])
    num, den = (sum((coeff * math.prod(map(pow, intervals, monom))
                     for monom, coeff in p.items()), iv.mpf(0))
                for p in (e.num, e.den))
    if 0 in den and den.delta < 10 ** -_EVAL_DIGITS:
        raise SingularPointError("a denominator is 0 to 30 digits")
    return None if 0 in den else num / den


def _refine(e: Expr, point: Point, width):
    """``e`` at ``point``: over symbols alone the exact :class:`Fraction`;
    with ``pi`` or an atom, an ``mpmath.iv`` interval that holds it.  Its
    precision doubles from 128 bits until it is narrower than ``width *
    max(1, |midpoint|)`` or has 2**16 bits.  A denominator whose interval
    still holds 0 there is a pole."""
    values = {symbol(name): Fraction(v) for name, v in point.values.items()}
    if missing := e.free_symbols - values.keys():
        raise UnknownSymbolError(", ".join(sorted(map(str, missing))))
    pole = f"singular at point {point.values}"
    if not any(gen.key[0] for gen in e.field.gens):
        try:
            value = e.subs(values)
        except ExprError:                      # a zero denominator
            raise SingularPointError(pole) from None
        return Fraction(value.num.get((), 0), value.den[()])
    import mpmath
    iv, old = mpmath.iv, mpmath.iv.prec
    try:
        for prec in _PRECS:
            iv.prec = prec
            value = _enclosure(e, values, iv, {})
            if value is not None and (
                    prec == _PRECS[-1]
                    or value.delta < width * max(1, abs(value.mid))):
                return value
        raise SingularPointError(pole)
    finally:
        iv.prec = old


def evaluate(e: Expr, point: Point):
    """``e`` at ``point`` (:func:`_refine`): the exact :class:`Fraction`, or
    the ``mpmath.mpf`` midpoint of its interval to ``_EVAL_DIGITS`` digits."""
    value = _refine(as_expr(e), point, 10 ** -_EVAL_DIGITS)
    if isinstance(value, Fraction):
        return value
    import mpmath
    # from the endpoints, since value.mid would round to iv's restored prec
    with mpmath.workdps(_EVAL_DIGITS):
        return (mpmath.mpf(value.a) + mpmath.mpf(value.b)) / 2


# -- probabilistic equality --------------------------------------------------

# sample points per sampled test, the width, relative to max(1, |midpoint|),
# below which an interval of a difference that holds 0 agrees, bound on
# sampled numerators and denominators, and resamples allowed at a pole
_TRIALS = 20
_TOLERANCE = 1e-9
_BOUND = 10**4
_RETRIES = 8

_seed = 0


@contextmanager
def equality_config(*, seed: int):
    """Scope the seed of the sampled equality test (the CLI's ``--seed``)."""
    global _seed
    old, _seed = _seed, seed
    try:
        yield
    finally:
        _seed = old


def random_rational(rng: random.Random, bound: int | None = None) -> Fraction:
    """A random rational with numerator/denominator bounded by ``bound``."""
    bound = bound or _BOUND
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def _probabilistic_equal(lhs, rhs, *, trials: int, seed: int,
                         tolerance: float) -> bool:
    """Compare two scalars, or the trees ``Expr`` takes, at ``trials``
    random rational points of the symbols of their difference.

    A difference that is a rational function is decided exactly, in
    ``Fraction``.  Otherwise its interval at a point is refined until it is
    narrower than ``tolerance * max(1, |midpoint|)`` (:func:`_refine`); if
    it then excludes 0, that is a proof that the sides differ, and if it
    holds 0, the point agrees; so only a True rests on sampling.  Sample
    points on a pole are resampled a bounded number of times.
    """
    diff = as_expr(lhs) - as_expr(rhs)
    symbols = sorted(map(str, diff.free_symbols))
    rng = random.Random(seed)
    for _ in range(trials):
        for _attempt in range(_RETRIES + 1):
            point = Point("sample", {s: random_rational(rng) for s in symbols})
            try:
                value = _refine(diff, point, tolerance)
            except SingularPointError:
                continue
            break
        else:
            raise SingularPointError(
                "could not find a pole-free sample point for equality testing")
        if value != 0 if isinstance(value, Fraction) else 0 not in value:
            return False
    return True


def equal(e1, e2) -> bool:
    """Semantic equality of real or complex scalars.  Complex values are
    aligned to one phase (:func:`_align`) and compared part by part.  Real
    values: equal field elements are equal; a difference free of atom
    generators is nonzero; otherwise the sampled test decides, whose False
    is a proof (:func:`_probabilistic_equal`)."""
    if isinstance(e1, ComplexExpr) or isinstance(e2, ComplexExpr):
        z1, z2 = _align(ComplexExpr.of(e1), ComplexExpr.of(e2))
        return equal(z1.re, z2.re) and equal(z1.im, z2.im)
    lhs, rhs = as_expr(e1), as_expr(e2)
    if lhs == rhs:
        return True
    if not (lhs.field.atomic or rhs.field.atomic) or not (lhs - rhs).field.atomic:
        return False
    return _probabilistic_equal(lhs, rhs, trials=_TRIALS, seed=_seed,
                                tolerance=_TOLERANCE)


def is_zero(e) -> bool:
    return equal(e, ZERO)


# ---------------------------------------------------------------------------
# complex scalars


def _zero_amplitude(z: "ComplexExpr") -> bool:
    return z.re == ZERO and z.im == ZERO


def _align(z1: "ComplexExpr", z2: "ComplexExpr"):
    """``z1`` and ``z2`` over one common phase, read off the first.  Phases
    that differ by an integer are one phase, a zero amplitude takes the
    other's phase, and phases that differ by anything else both expand to
    phase zero."""
    if z1.phase == z2.phase or _zero_amplitude(z2):
        return z1, z2
    if _zero_amplitude(z1):
        return ComplexExpr(z1.re, z1.im, z2.phase), z2
    if (z1.phase - z2.phase).is_integer:
        return z1, z2
    return z1.expand(), z2.expand()


class ComplexExpr:
    """Complex scalar ``(re + i*im) * exp(-2*pi*i*phase)``: an exact
    amplitude pair and a real phase taken mod Z, zero unless given.  Its
    parts follow the ``Expr`` zero rule, so a zero part costs nothing: a
    product with a factor of zero imaginary part makes two real products.
    A value is never changed after it is built; equality and the hash are
    those of the triple ``(re, im, phase)``."""

    __slots__ = ("re", "im", "phase")

    def __init__(self, re: Expr, im: Expr, phase: Expr = ZERO):
        self.re, self.im = re, im
        # exp(-2 pi i n) = 1 for an integer n
        self.phase = ZERO if phase is not ZERO and phase.is_integer else phase

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.re, self.im, self.phase) == (other.re, other.im, other.phase)

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.phase))

    def __repr__(self) -> str:
        return f"ComplexExpr(re={self.re!r}, im={self.im!r}, phase={self.phase!r})"

    @staticmethod
    def of(value) -> "ComplexExpr":
        if isinstance(value, ComplexExpr):
            return value
        return ComplexExpr(as_expr(value), ZERO)

    def expand(self) -> "ComplexExpr":
        """The same value with phase zero: the amplitude times
        ``cos(2 pi phase) - i sin(2 pi phase)``."""
        if self.phase == ZERO:
            return self
        angle = 2 * PI * self.phase
        c, s = atom("cos", angle), atom("sin", angle)
        return ComplexExpr(self.re * c + self.im * s, self.im * c - self.re * s)

    def conj(self) -> "ComplexExpr":
        return ComplexExpr(self.re, -self.im, -self.phase)

    def __add__(self, other) -> "ComplexExpr":
        a, b = _align(self, ComplexExpr.of(other))
        return ComplexExpr(a.re + b.re, a.im + b.im, a.phase)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexExpr":
        a, b = _align(self, ComplexExpr.of(other))
        return ComplexExpr(a.re - b.re, a.im - b.im, a.phase)

    def __rsub__(self, other) -> "ComplexExpr":
        return ComplexExpr.of(other) - self

    def __mul__(self, other) -> "ComplexExpr":
        if not isinstance(other, ComplexExpr):
            other = as_expr(other)
            return ComplexExpr(self.re * other, self.im * other, self.phase)
        return ComplexExpr(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re,
                           self.phase + other.phase)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexExpr":
        other = ComplexExpr.of(other)
        if other.im == ZERO and other.phase == ZERO:
            return ComplexExpr(self.re / other.re, self.im / other.re, self.phase)
        norm = other.re * other.re + other.im * other.im
        num = self * other.conj()
        return ComplexExpr(num.re / norm, num.im / norm, num.phase)

    def __rtruediv__(self, other) -> "ComplexExpr":
        return ComplexExpr.of(other) / self

    def __neg__(self) -> "ComplexExpr":
        return ComplexExpr(-self.re, -self.im, self.phase)

    def diff(self, sym: Generator) -> "ComplexExpr":
        """The log-derivative rule ``d(a e) = (da - 2 pi i a dw) e`` for
        ``e = exp(-2 pi i w)``."""
        re, im = self.re.diff(sym), self.im.diff(sym)
        if self.phase != ZERO:
            k = 2 * PI * self.phase.diff(sym)
            re, im = re + k * self.im, im - k * self.re
        return ComplexExpr(re, im, self.phase)

    def subs(self, mapping: Mapping) -> "ComplexExpr":
        return ComplexExpr(self.re.subs(mapping), self.im.subs(mapping),
                           self.phase.subs(mapping))

    def __str__(self) -> str:
        amplitude = f"({self.re}) + i*({self.im})"
        if self.phase == ZERO:
            return amplitude
        return f"({amplitude})*exp(-2*pi*i*({self.phase}))"


I = ComplexExpr(ZERO, ONE)
