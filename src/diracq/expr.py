"""Exact symbolic scalars.

An :class:`Expr` is a reduced element of a sparse fraction field over the
integers (``sympy.polys.fields.FracField`` over ``ZZ``) whose generators are
exactly the generators the value involves: coordinate and parameter symbols,
the constant ``pi``, and one generator per transcendental atom ``exp(u)``,
``sin(u)`` or ``cos(u)``.  Arithmetic, differentiation and equality run in
these fields, and so does substitution of rational values (``Expr.subs``); a
sympy tree is built only on demand (``Expr.node``: printing, parsing, and
evaluation at a point by the one evaluator of trees that :func:`evaluate` and
the sampled fallback of :func:`equal` share).

The fields and their generators:

* There is one field per sorted tuple of generators, kept in a registry.
  Generators are sorted by a fixed key, so the canonical form of a value does
  not depend on the order in which generators were met, and a constant lives
  in the field with no generators.  A binary operation embeds its operands in
  the field of the union of their generators, and the reduced result moves to
  the field of the generators it still involves, so ``(x + y) - y`` is ``x``
  in the field of ``x``.  The union of two fields and the positions of their
  generators in it are computed once per pair of fields.  A value keeps its
  element (only its tree is cached on demand), and meeting a new generator
  changes no existing field.
* The canonical form is a numerator coprime to its denominator, whose
  leading coefficient is positive.  Where the algebra rules out a common
  factor, arithmetic skips the gcd and lands on that same form: a product
  of two polynomials is the ring product, and no generator drops from it; a
  sum with a polynomial is ``(n + p*d)/d``, coprime because ``n/d`` is
  (Henrici, J. ACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1), though a generator
  can still cancel; a rational constant meets the other operand through
  integer gcds alone, and ``1 * x`` is ``x``.  Any other product, and a sum
  of two fractions, takes one full ``cancel``: the Henrici sum, the
  cross-cancelled product and a polynomial-times-fraction rule measured no
  faster.
* An atom is registered under its head and the canonical tree of its
  argument, so ``exp((x*y + x)/(y + 1))`` is the generator ``exp(x)``.  Where
  sympy evaluates the atom (``sin(0) = 0``, ``sin(-x) = -sin(x)``,
  ``cos(2*pi/3) = -1/2``) the value is that evaluation; ``sp.E`` is the atom
  ``exp(1)``.  Atoms are opaque: ``sin(x)**2 + cos(x)**2`` is *not* the
  generator ``1``.

The derivative is a derivation of the field: ``d/dx`` is the partial
derivative in ``x`` plus, over the atom generators ``g``, ``dF/dg * dg/dx``
with ``exp(u)' = exp(u) u'``, ``sin(u)' = cos(u) u'`` and
``cos(u)' = -sin(u) u'``.

Equality takes three steps: equal field elements are equal; a difference
that involves no atom generator is nonzero, which is exact because ``pi`` is
transcendental over Q; anything else is decided probabilistically by
exact-rational seeding of high-precision evaluation
(:func:`_probabilistic_equal`).  A zero denominator is an
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
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Union

import mpmath
import sympy as sp
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracField

__all__ = [
    "Expr",
    "ComplexExpr",
    "Point",
    "ExprError",
    "SingularPointError",
    "UnknownSymbolError",
    "symbol",
    "atom",
    "rational",
    "integer",
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

Scalar = Union["Expr", "ComplexExpr", int, Fraction]

# Working precision for transcendental evaluation: ~100 bits, comfortably
# above the required 64 fractional bits.
_EVAL_DIGITS = 30

_ATOM_HEADS = (sp.exp, sp.sin, sp.cos)
_INFINITIES = (sp.zoo, sp.nan, sp.oo, -sp.oo)


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


def symbol(name: str) -> sp.Symbol:
    """The (real) sympy symbol used for a coordinate or parameter."""
    return sp.Symbol(name, real=True)


# ---------------------------------------------------------------------------
# the fields and their generators


def _generator_key(tree: sp.Expr):
    """Symbols first, then ``pi``, then atoms; by text, then by full form."""
    key = _KEYS.get(tree)
    if key is None:
        kind = 0 if tree.is_Symbol else 1 if tree is sp.pi else 2
        key = _KEYS[tree] = (kind, str(tree), sp.srepr(tree))
    return key


_FIELDS: dict = {}                  # sorted generator tuple -> its field
_GENERATORS: dict = {}              # generator tree -> its Expr
_ATOM_ARGS: dict = {}               # atom generator tree -> (head, argument)
_ATOMS: dict = {}                   # (head, argument tree) -> head(argument)
_KEYS: dict = {}                    # generator tree -> its sort key
# (id(field), id(field)) -> (union field, spreader, spreader); fields are
# never freed, so an id names one field for the life of the process
_UNIONS: dict = {}


def _field(gens: tuple) -> FracField:
    """The field of the generators ``gens``, sorted by :func:`_generator_key`."""
    field = _FIELDS.get(gens)
    if field is None:
        field = _FIELDS[gens] = FracField(gens, ZZ)
    return field


_CONSTANTS = _field(())


def _is_one(poly) -> bool:
    """``poly == 1``, read off its terms (``PolyElement.is_one`` builds a new
    ring element on every call)."""
    return len(poly) == 1 and poly.get(poly.ring.zero_monom) == 1


def _spreader(field, union):
    """``None`` when ``field`` is ``union``; otherwise a function taking a
    monomial of ``field``, extended by a trailing ``0``, to the monomial of
    ``union`` (a generator ``field`` lacks reads that ``0``)."""
    if field is union:
        return None
    return itemgetter(*(field.symbols.index(tree) if tree in field.symbols
                        else -1 for tree in union.symbols))


def _spread(poly, spreader, ring):
    """``poly`` in ``ring``, whose monomials ``spreader`` gives."""
    if spreader is None:
        return poly
    return ring.dtype({spreader(monom + (0,)): coeff
                       for monom, coeff in poly.items()})


def _common(a, b):
    """The field of the union of the generators of ``a`` and ``b``, and the
    numerators and denominators of both in it.  Neither is a constant, so
    a field that is not the union has fewer generators than it, the union
    has two or more, and each ``itemgetter`` spreader returns a tuple."""
    if a.field is b.field:
        return a.field, a.numer, a.denom, b.numer, b.denom
    key = (id(a.field), id(b.field))
    union = _UNIONS.get(key)
    if union is None:
        field = _field(tuple(sorted({*a.field.symbols, *b.field.symbols},
                                    key=_generator_key)))
        union = _UNIONS[key] = (field, _spreader(a.field, field),
                                _spreader(b.field, field))
    field, spread_a, spread_b = union
    ring = field.ring
    return (field, _spread(a.numer, spread_a, ring),
            _spread(a.denom, spread_a, ring), _spread(b.numer, spread_b, ring),
            _spread(b.denom, spread_b, ring))


def _generator(tree: sp.Expr) -> "Expr":
    value = _GENERATORS.get(tree)
    if value is None:
        value = _GENERATORS[tree] = _wrap(_field((tree,)).gens[0])
    return value


def _constant(p: int, q: int = 1):
    """The constant ``p / q`` for coprime ``p`` and ``q > 0``: its two ring
    elements are built directly, and a zero numerator is the empty one."""
    new, integer = _CONSTANTS.ring.dtype, ZZ.dtype
    return _CONSTANTS.raw_new(new({(): integer(p)} if p else {}),
                              new({(): integer(q)}))


def _rational(p: int, q: int):
    """The constant ``p / q`` for ``q > 0``."""
    g = math.gcd(p, q)
    return _constant(p // g, q // g)


def _own_field(field, num, den):
    """``num / den``, coprime with a positive leading coefficient below, in
    the field of exactly the generators it involves."""
    if not num:
        return _CONSTANTS.zero
    used = [i for i, col in enumerate(zip(*num, *den)) if any(col)]
    if len(used) < field.ngens:
        field = _field(tuple(field.symbols[i] for i in used))
        num, den = (field.ring.dtype({tuple(monom[i] for i in used): coeff
                                      for monom, coeff in poly.items()})
                    for poly in (num, den))
    return field.raw_new(num, den)


def _reduced(field, num, den):
    """``num / den`` in lowest terms with a positive leading coefficient
    below, in the field of exactly the generators it involves."""
    if not den:
        raise _zero_division()
    if num and not _is_one(den):
        num, den = num.cancel(den)
    return _own_field(field, num, den)


def _positive_below(num, den):
    """``num / den`` with the sign moved so that ``den`` leads positively."""
    if den.LC < 0:
        return -num, -den
    return num, den


def _add_constant(p: int, q: int, b):
    """``p/q + b`` for a rational ``p/q`` in lowest terms with ``q > 0``.
    By Henrici's rule only a divisor of the integer ``g = gcd(q, b.denom)``
    can cancel, and a constant cancels no generator of ``b``."""
    bn, bd = b.numer, b.denom
    if not b.field.ngens:
        return _rational(p * bd[()] + bn[()] * q, q * bd[()])
    if q == 1:
        return b.field.raw_new(bn + bd.mul_ground(p), bd)
    g = math.gcd(q, *bd.itercoeffs())
    num = bn.mul_ground(q // g) + bd.quo_ground(g).mul_ground(p)
    e = math.gcd(g, *num.itercoeffs())
    return b.field.raw_new(num.quo_ground(e),
                           bd.quo_ground(e).mul_ground(q // g))


def _mul_constant(p: int, q: int, b):
    """``p/q * b`` for a nonzero rational ``p/q`` in lowest terms with
    ``q > 0``: only ``p`` against ``b.denom`` and ``q`` against
    ``b.numer`` can cancel, and no generator of ``b`` drops."""
    bn, bd = b.numer, b.denom
    if not b.field.ngens:
        return _rational(p * bn[()], q * bd[()])
    if q == 1 and p in (1, -1):
        return b if p == 1 else -b
    if q != 1:
        g = math.gcd(q, *bn.itercoeffs())
        bn, q = bn.quo_ground(g), q // g
        bd = bd.mul_ground(q)
    if not _is_one(bd):
        g = math.gcd(p, *bd.itercoeffs())
        bd, p = bd.quo_ground(g), p // g
    return b.field.raw_new(bn.mul_ground(p), bd)


def _add(a, b):
    """``a + b`` for nonzero ``a`` and ``b``."""
    if not b.field.ngens:
        a, b = b, a                             # a constant first
    if not a.field.ngens:
        return _add_constant(a.numer[()], a.denom[()], b)
    field, an, ad, bn, bd = _common(a, b)
    if _is_one(bd):
        an, ad, bn, bd = bn, bd, an, ad         # a polynomial first
    if _is_one(ad):
        # gcd(an*bd + bn, bd) = gcd(bn, bd) = 1: nothing cancels, but a
        # generator can, as in (1 + x*y)/y - x = 1/y
        if _is_one(bd):
            return _own_field(field, an + bn, ad)
        return _own_field(field, an * bd + bn, bd)
    if ad == bd:
        return _reduced(field, an + bn, ad)
    return _reduced(field, an * bd + bn * ad, ad * bd)


def _mul(a, b):
    """``a * b`` for nonzero ``a`` and ``b``."""
    if not b.field.ngens:
        a, b = b, a                             # a constant first
    if not a.field.ngens:
        return _mul_constant(a.numer[()], a.denom[()], b)
    field, an, ad, bn, bd = _common(a, b)
    if _is_one(ad) and _is_one(bd):
        # the ring product: degrees add, so every generator stays
        return field.raw_new(an * bn, ad)
    return _reduced(field, an * bn, ad * bd)


def _div(a, b):
    if not b:
        raise _zero_division()
    if not a:
        return a
    num, den = _positive_below(b.denom, b.numer)
    return _mul(a, b.field.raw_new(num, den))


def _power(elem, n: int):
    """``elem ** n`` in reduced form.  The powers are copied into new ring
    elements: sympy's ``square`` caches a polynomial's hash and then
    doubles its terms in place, so an uncopied power would hash unlike an
    equal value built otherwise."""
    if n == 0:
        return _CONSTANTS.one
    num, den = elem.numer, elem.denom
    if n < 0:
        if not elem:
            raise _zero_division()
        num, den, n = den, num, -n
    ring = elem.field.ring
    return elem.field.raw_new(*_positive_below(ring.dtype(num ** n),
                                               ring.dtype(den ** n)))


def _new_atom(head, arg: "Expr") -> "Expr":
    """The value of ``head(arg)`` where sympy evaluates the atom into the
    field; otherwise its generator, registered as an atom."""
    tree = head(arg.node)
    if not (tree is sp.E or (isinstance(tree, head)
                             and tree.args[0] == arg.node)):
        try:
            return _convert(tree)          # sympy evaluated the atom
        except ExprError:                  # to a value outside the field
            tree = head(arg.node, evaluate=False)
    _ATOM_ARGS[tree] = (head, arg)
    return _generator(tree)


def atom(head, arg) -> "Expr":
    """``head(arg)`` for ``head`` one of ``sp.exp``, ``sp.sin``, ``sp.cos``."""
    arg = as_expr(arg)
    key = (head, arg.node)
    if key not in _ATOMS:
        _ATOMS[key] = _new_atom(head, arg)
    return _ATOMS[key]


def _convert(node: sp.Expr) -> "Expr":
    if node.is_Rational:
        return _wrap(_constant(int(node.p), int(node.q)))
    if node.is_Symbol or node is sp.pi:
        return _generator(node)
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
        return atom(sp.exp, ONE)
    if isinstance(node, _ATOM_HEADS):
        return atom(node.func, _convert(node.args[0]))
    if node in _INFINITIES:
        raise _zero_division()
    raise ExprError(f"cannot interpret {node} as an exact scalar")


def _element(value):
    """``value`` as a reduced field element."""
    if isinstance(value, Expr):
        return value.elem
    if isinstance(value, bool):
        raise ExprError("booleans are not scalars")
    if isinstance(value, int):
        return _constant(value)
    if isinstance(value, Fraction):
        return _constant(value.numerator, value.denominator)
    if isinstance(value, sp.Expr):
        return _convert(value).elem
    raise ExprError(f"cannot interpret {value!r} as an exact scalar")


def _wrap(elem) -> "Expr":
    out = object.__new__(Expr)
    out.elem, out._node = elem, None
    return out


def _derivative(poly, i: int):
    out = {}
    for monom, coeff in poly.items():
        k = monom[i]
        if k:
            out[monom[:i] + (k - 1,) + monom[i + 1:]] = coeff * k
    return poly.ring.dtype(out)


def _at(poly, i: int, p: int, q: int, d: int):
    """``q**d`` times ``poly`` with its ``i``-th generator set to ``p/q``,
    for ``d`` at least the degree of ``poly`` in that generator."""
    out: dict = {}
    for monom, coeff in poly.items():
        key = monom[:i] + (0,) + monom[i + 1:]
        out[key] = out.get(key, 0) + coeff * p ** monom[i] * q ** (d - monom[i])
    return poly.ring.dtype({m: c for m, c in out.items() if c})


def _partial(elem, i: int) -> "Expr":
    """The partial derivative of ``elem`` in its ``i``-th generator."""
    num, den = elem.numer, elem.denom
    dnum, dden = _derivative(num, i), _derivative(den, i)
    if not dden:
        return _wrap(_reduced(elem.field, dnum, den))
    return _wrap(_reduced(elem.field, dnum * den - num * dden, den * den))


def _atom_derivative(tree: sp.Expr, sym: sp.Symbol) -> "Expr":
    """``d tree / d sym`` for an atom generator, by the chain rule."""
    head, arg = _ATOM_ARGS[tree]
    inner = arg.diff(sym)
    if inner == ZERO:
        return ZERO
    if head is sp.exp:
        return _GENERATORS[tree] * inner
    if head is sp.sin:
        return atom(sp.cos, arg) * inner
    return -atom(sp.sin, arg) * inner


class Expr:
    """Immutable exact scalar, a reduced element of the field of the
    generators it involves: built from a sympy tree, an ``int``, a
    ``Fraction`` or another ``Expr``; arithmetic via the usual operators.
    A zero operand costs nothing: ``+``, ``-``, ``*`` and unary ``-``
    return the other operand as it is, its negation or the zero."""

    __slots__ = ("elem", "_node")

    def __init__(self, value):
        self.elem = _element(value)
        self._node = None

    @property
    def node(self) -> sp.Expr:
        """The sympy tree of the reduced numerator over the denominator."""
        if self._node is None:
            self._node = self.elem.as_expr()
        return self._node

    @property
    def support(self) -> frozenset:
        """The generator trees the value involves."""
        return frozenset(self.elem.field.symbols)

    @property
    def is_rational(self) -> bool:
        """A rational number: every derivative of it is 0."""
        return not self.elem.field.ngens

    @property
    def is_integer(self) -> bool:
        return not self.elem.field.ngens and _is_one(self.elem.denom)

    def as_numer_denom(self) -> tuple["Expr", "Expr"]:
        """The reduced numerator and denominator; the denominator's leading
        coefficient is positive."""
        elem = self.elem
        one = elem.field.ring.one
        return (_wrap(_reduced(elem.field, elem.numer, one)),
                _wrap(_reduced(elem.field, elem.denom, one)))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Expr":
        if not isinstance(other, Expr):
            if isinstance(other, ComplexExpr):
                return NotImplemented
            other = Expr(other)
        if not (self.elem.numer and other.elem.numer):
            return other if other.elem.numer else self
        return _wrap(_add(self.elem, other.elem))

    __radd__ = __add__

    def __sub__(self, other) -> "Expr":
        if not isinstance(other, Expr):
            if isinstance(other, ComplexExpr):
                return NotImplemented
            other = Expr(other)
        if not (self.elem.numer and other.elem.numer):
            return -other if other.elem.numer else self
        return _wrap(_add(self.elem, -other.elem))

    def __rsub__(self, other) -> "Expr":
        return as_expr(other) - self

    def __mul__(self, other) -> "Expr":
        if not isinstance(other, Expr):
            if isinstance(other, ComplexExpr):
                return NotImplemented
            other = Expr(other)
        if not (self.elem.numer and other.elem.numer):
            return other if self.elem.numer else self
        return _wrap(_mul(self.elem, other.elem))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        if isinstance(other, ComplexExpr):
            return NotImplemented
        return _wrap(_div(self.elem, _element(other)))

    def __rtruediv__(self, other) -> "Expr":
        return _wrap(_div(_element(other), self.elem))

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int):
            raise ExprError("only integer exponents are supported")
        return _wrap(_power(self.elem, exponent))

    def __neg__(self) -> "Expr":
        return _wrap(-self.elem) if self.elem.numer else self

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        a, b = self.elem, other.elem
        # one field, one ring: the terms decide
        return (a.field is b.field and dict.__eq__(a.numer, b.numer)
                and dict.__eq__(a.denom, b.denom))

    def __hash__(self) -> int:
        return hash(self.elem)

    # -- calculus -----------------------------------------------------------

    def diff(self, sym: sp.Symbol) -> "Expr":
        elem = self.elem
        out = ZERO
        for i, tree in enumerate(elem.field.symbols):
            if tree == sym:
                out = out + _partial(elem, i)
            elif tree in _ATOM_ARGS:
                d = _atom_derivative(tree, sym)
                if d != ZERO:
                    out = out + _partial(elem, i) * d
        return out

    def subs(self, mapping: Mapping[sp.Symbol, int | Fraction]) -> "Expr":
        """Rational values for symbols, substituted in the field: ``x = p/q``
        scales the numerator and the denominator by ``q`` to the degree of
        ``x``.  An atom argument that involves a substituted symbol is an
        :class:`ExprError`."""
        gens = self.elem.field.symbols
        if any(not tree.free_symbols.isdisjoint(mapping)
               for tree in gens if tree in _ATOM_ARGS):
            raise ExprError("an atom argument involves a substituted symbol")
        num, den = self.elem.numer, self.elem.denom
        for sym, value in mapping.items():
            if sym in gens:
                i, value = gens.index(sym), Fraction(value)
                d = max(monom[i] for poly in (num, den) for monom in poly)
                num, den = (_at(poly, i, value.numerator, value.denominator, d)
                            for poly in (num, den))
        return _wrap(_reduced(self.elem.field, num, den))

    def integral_from_zero(self, sym: sp.Symbol) -> "Expr":
        """The antiderivative in ``sym`` that vanishes at ``sym = 0``, for a
        numerator polynomial in ``sym`` over a denominator free of it."""
        elem = self.elem
        gens = elem.field.symbols
        if any(sym in tree.free_symbols for tree in gens
               if tree in _ATOM_ARGS):
            raise ExprError(f"an atom argument involves {sym}")
        if sym not in gens:
            return self * Expr(sym)
        i = gens.index(sym)
        if any(monom[i] for monom in elem.denom):
            raise ExprError(f"the denominator involves {sym}")
        scale = math.lcm(*(monom[i] + 1 for monom in elem.numer))
        num = elem.numer.ring.dtype({
            monom[:i] + (monom[i] + 1,) + monom[i + 1:]:
                coeff * (scale // (monom[i] + 1))
            for monom, coeff in elem.numer.items()})
        return _wrap(_reduced(elem.field, num, elem.denom * scale))

    @property
    def free_symbols(self) -> frozenset:
        """The symbols of the value and of its atoms' arguments."""
        return frozenset().union(*(tree.free_symbols
                                   for tree in self.elem.field.symbols))

    def __str__(self) -> str:
        return sp.sstr(self.node)

    def __repr__(self) -> str:
        return f"Expr({sp.sstr(self.node)})"


ZERO = _wrap(_CONSTANTS.zero)
ONE = _wrap(_CONSTANTS.one)
PI = _generator(sp.pi)


def rational(p: int, q: int = 1) -> Expr:
    if q == 0:
        raise _zero_division()
    return Expr(Fraction(p, q))


def integer(n: int) -> Expr:
    return Expr(n)


def as_expr(value) -> Expr:
    return value if isinstance(value, Expr) else Expr(value)


# ---------------------------------------------------------------------------
# normalize / differentiate / evaluate / equal


def normalize(e: Expr) -> Expr:
    """The canonical form.  A field element is already reduced (zero is
    represented uniquely), so this is the identity on values."""
    return as_expr(e)


def differentiate(e: Expr, sym: sp.Symbol) -> Expr:
    """Partial derivative, with the chain rule through transcendental atoms."""
    return as_expr(e).diff(sym)


@dataclass(frozen=True)
class Point:
    """Exact rational values for every coordinate and parameter of a chart."""

    chart: str
    values: Mapping[str, Fraction]


def _rational_value(tree: sp.Expr, point: Mapping) -> Fraction:
    """``tree``, a rational function, at ``point`` (symbol -> ``Fraction``).
    A pole raises ``ZeroDivisionError``, and a tree that is not a rational
    function :class:`ExprError`."""
    if tree.is_Rational:
        return Fraction(int(tree.p), int(tree.q))
    if tree.is_Symbol:
        return point[tree]
    if tree.is_Add:
        return sum(_rational_value(arg, point) for arg in tree.args)
    if tree.is_Mul:
        return math.prod(_rational_value(arg, point) for arg in tree.args)
    if tree.is_Pow and tree.exp.is_Integer:
        return _rational_value(tree.base, point) ** int(tree.exp)
    raise ExprError(f"cannot evaluate {tree} exactly")


def _tree_value(tree: sp.Expr, point: Mapping):
    """``tree`` at ``point`` (symbol -> ``Fraction``): an exact ``Fraction``
    for a rational function, else an ``mpmath.mpf`` through sympy's
    ``evalf``.  ``point`` gives every symbol of ``tree``; a pole raises
    ``ZeroDivisionError``."""
    try:
        return _rational_value(tree, point)
    except ExprError:
        pass
    value = tree.subs({s: sp.Rational(v.numerator, v.denominator)
                       for s, v in point.items()},
                      simultaneous=True).evalf(_EVAL_DIGITS)
    if value.has(*_INFINITIES):
        raise ZeroDivisionError(f"{tree} has a pole at the point")
    with mpmath.workdps(_EVAL_DIGITS):
        return mpmath.mpf(sp.Float(value, _EVAL_DIGITS)._mpf_)


def evaluate(e: Expr, point: Point):
    """Exact :class:`Fraction` on the rational fragment, high-precision
    ``mpmath.mpf`` otherwise.  Poles raise :class:`SingularPointError`."""
    e = as_expr(e)
    values = {symbol(name): Fraction(v) for name, v in point.values.items()}
    missing = e.free_symbols - values.keys()
    if missing:
        names = ", ".join(sorted(str(s) for s in missing))
        raise UnknownSymbolError(names)
    try:
        return _tree_value(e.node, values)
    except ZeroDivisionError as err:
        raise SingularPointError(f"singular at point {point.values}") from err


# -- probabilistic equality --------------------------------------------------

# sample points per sampled test, relative tolerance of a transcendental
# comparison, bound on sampled numerators and denominators, and resamples
# allowed at a pole
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


def _probabilistic_equal(lhs: sp.Expr, rhs: sp.Expr, *, trials: int, seed: int,
                         tolerance: float) -> bool:
    """Compare two scalars, the trees of ``Expr`` values, at ``trials``
    random rational points of the symbols of their difference.

    A difference that is a rational function is decided exactly, in
    ``Fraction``; otherwise the comparison is high-precision floating point
    with a tolerance relative to the larger side, where a side with a
    symbol the difference lost is left out.  Sample points on a pole are
    resampled a bounded number of times.  In the rational case a pole of
    either side is a pole of the difference: the terms the difference drops
    are polynomial, or are the whole of both sides, which leaves no symbol
    to sample.
    """
    diff = lhs - rhs
    symbols = sorted(diff.free_symbols, key=str)
    sides = [side for side in (lhs, rhs)
             if side.free_symbols <= diff.free_symbols]
    rng = random.Random(seed)
    for _ in range(trials):
        for _attempt in range(_RETRIES + 1):
            point = {s: random_rational(rng) for s in symbols}
            try:
                value = _tree_value(diff, point)
                bound = 0 if isinstance(value, Fraction) else tolerance * max(
                    [1.0, *(abs(float(_tree_value(side, point)))
                            for side in sides)])
            except ZeroDivisionError:
                continue
            break
        else:
            raise SingularPointError(
                "could not find a pole-free sample point for equality testing")
        if abs(value) > bound:
            return False
    return True


def _has_atom(e: Expr) -> bool:
    return any(tree in _ATOM_ARGS for tree in e.elem.field.symbols)


def equal(e1, e2) -> bool:
    """Semantic equality of real or complex scalars.  Complex values are
    aligned to one phase (:func:`_align`) and compared part by part.  Real
    values: equal field elements are equal; a difference free of atom
    generators is nonzero; otherwise the probabilistic fallback (exact
    rational sampling / high-precision evaluation) decides."""
    if isinstance(e1, ComplexExpr) or isinstance(e2, ComplexExpr):
        z1, z2 = _align(ComplexExpr.of(e1), ComplexExpr.of(e2))
        return equal(z1.re, z2.re) and equal(z1.im, z2.im)
    lhs, rhs = as_expr(e1), as_expr(e2)
    if lhs == rhs:
        return True
    if not (_has_atom(lhs) or _has_atom(rhs)) or not _has_atom(lhs - rhs):
        return False
    return _probabilistic_equal(lhs.node, rhs.node, trials=_TRIALS, seed=_seed,
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
        c, s = atom(sp.cos, angle), atom(sp.sin, angle)
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

    def diff(self, sym: sp.Symbol) -> "ComplexExpr":
        """The log-derivative rule ``d(a e) = (da - 2 pi i a dw) e`` for
        ``e = exp(-2 pi i w)``."""
        re, im = self.re.diff(sym), self.im.diff(sym)
        if self.phase != ZERO:
            k = 2 * PI * self.phase.diff(sym)
            re, im = re + k * self.im, im - k * self.re
        return ComplexExpr(re, im, self.phase)

    def subs(self, mapping: Mapping[sp.Symbol, int | Fraction]) -> "ComplexExpr":
        return ComplexExpr(self.re.subs(mapping), self.im.subs(mapping),
                           self.phase.subs(mapping))

    def __str__(self) -> str:
        amplitude = f"({self.re}) + i*({self.im})"
        if self.phase == ZERO:
            return amplitude
        return f"({amplitude})*exp(-2*pi*i*({self.phase}))"


I = ComplexExpr(ZERO, ONE)
