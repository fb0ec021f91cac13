"""Exact symbolic scalars.

An :class:`Expr` is a rational function over the rationals in coordinate and
parameter symbols, extended by the opaque transcendental atoms ``exp``, ``sin``
and ``cos`` (and the constant ``pi``).  The rational fragment has a canonical
reduced numerator/denominator form; transcendental atoms are treated as extra
generators that are closed under differentiation but never rewritten (in
particular ``sin(x)**2 + cos(x)**2`` is *not* folded to ``1``).

Equality is a zero test of the numerator of the difference in sympy's sparse
polynomial ring over the atoms as generators, after the atom arguments are
cancelled; no canonical tree is built.  A nonzero numerator decides
inequality on the rational fragment.  Only when an atom remains is the
canonical form (``sympy.cancel``, also used by :func:`normalize`) computed,
and equality decided probabilistically by exact-rational seeding of
high-precision evaluation.

A :class:`ComplexExpr` is ``(re + i*im) * exp(-2*pi*i*phase)``: an exact
amplitude pair and a real phase, taken mod Z and zero unless given, so that
``exp(-2 pi i w)`` is kept as its exponent ``w`` rather than as cos/sin
atoms.  A product adds phases, ``conj`` and the inverse negate them, and the
derivative follows the log-derivative rule ``d(a e) = (da - 2 pi i a dw) e``.
Two phases whose difference normalizes to an integer are the same phase, and
a literal zero takes any phase.  A sum or a comparison of values whose phases
differ by anything else expands both to the cos/sin form (``expand``); it is
the only place a phase becomes atoms.  Equality of complex values compares
amplitudes over the common phase, so on phased values it stays exact.

Semantics are generic-point: two rational functions are equal when they agree
off their pole sets, so ``x/x`` normalizes to ``1``.  Values are immutable and
all operations are pure functions.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

import mpmath
import sympy as sp
from sympy.polys.rings import sring

__all__ = [
    "Expr",
    "ComplexExpr",
    "Point",
    "ExprError",
    "SingularPointError",
    "UnknownSymbolError",
    "symbol",
    "rational",
    "integer",
    "as_expr",
    "complex_equal",
    "complex_is_zero",
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


class ExprError(Exception):
    """Raised on malformed symbolic input (zero denominators, bad nodes)."""


class SingularPointError(ExprError):
    """Raised when an evaluation point lies on a pole."""


class UnknownSymbolError(ExprError):
    """Raised when a symbol is not declared in the active chart."""

    def __init__(self, name: str):
        super().__init__(f"unknown symbol {name!r}")
        self.name = name


def symbol(name: str) -> sp.Symbol:
    """The (real) sympy symbol used for a coordinate or parameter."""
    return sp.Symbol(name, real=True)


def _check_tree(node: sp.Expr) -> None:
    if node.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise ExprError("division by the zero expression")


def _coerce(value) -> sp.Expr:
    if isinstance(value, Expr):
        return value.node
    if isinstance(value, bool):
        raise ExprError("booleans are not scalars")
    if isinstance(value, int):
        return sp.Integer(value)
    if isinstance(value, Fraction):
        return sp.Rational(value.numerator, value.denominator)
    if isinstance(value, sp.Expr):
        return value
    raise ExprError(f"cannot interpret {value!r} as an exact scalar")


@dataclass(frozen=True)
class Expr:
    """Immutable exact scalar; arithmetic via the usual operators."""

    node: sp.Expr

    def __post_init__(self):
        _check_tree(self.node)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Expr":
        if isinstance(other, ComplexExpr):
            return NotImplemented
        return Expr(self.node + _coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "Expr":
        if isinstance(other, ComplexExpr):
            return NotImplemented
        return Expr(self.node - _coerce(other))

    def __rsub__(self, other) -> "Expr":
        return Expr(_coerce(other) - self.node)

    def __mul__(self, other) -> "Expr":
        if isinstance(other, ComplexExpr):
            return NotImplemented
        return Expr(self.node * _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        if isinstance(other, ComplexExpr):
            return NotImplemented
        return Expr(self.node / _coerce(other))

    def __rtruediv__(self, other) -> "Expr":
        return Expr(_coerce(other) / self.node)

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int):
            raise ExprError("only integer exponents are supported")
        return Expr(self.node ** exponent)

    def __neg__(self) -> "Expr":
        return Expr(-self.node)

    # -- calculus -----------------------------------------------------------

    def diff(self, sym: sp.Symbol) -> "Expr":
        return Expr(sp.diff(self.node, sym))

    def subs(self, mapping: Mapping[sp.Symbol, sp.Expr]) -> "Expr":
        out = self.node.subs(mapping, simultaneous=True)
        _check_tree(out)
        return Expr(out)

    @property
    def free_symbols(self) -> frozenset:
        return frozenset(self.node.free_symbols)

    def is_rational_fragment(self) -> bool:
        """True when no transcendental atom or constant (pi, e) occurs."""
        return not self.node.has(*_ATOM_HEADS, sp.pi, sp.E)

    def __str__(self) -> str:
        return sp.sstr(self.node)

    def __repr__(self) -> str:
        return f"Expr({sp.sstr(self.node)})"


ZERO = Expr(sp.Integer(0))
ONE = Expr(sp.Integer(1))
PI = Expr(sp.pi)


def rational(p: int, q: int = 1) -> Expr:
    if q == 0:
        raise ExprError("division by the zero expression")
    return Expr(sp.Rational(p, q))


def integer(n: int) -> Expr:
    return Expr(sp.Integer(n))


def as_expr(value) -> Expr:
    return value if isinstance(value, Expr) else Expr(_coerce(value))


# ---------------------------------------------------------------------------
# normalize / differentiate / evaluate / equal


def _cancel_atoms(node: sp.Expr) -> sp.Expr:
    """``node`` with the argument of every ``exp``/``sin``/``cos`` atom
    cancelled, inner atoms first.  A tree without atoms comes back as is."""
    atoms = node.atoms(*_ATOM_HEADS)
    if not atoms:
        return node
    return node.xreplace({a: a.func(sp.cancel(_cancel_atoms(a.args[0])))
                          for a in atoms})


def _canonical(node: sp.Expr) -> sp.Expr:
    """Canonical form: atom arguments cancelled, then one rational
    cancellation over the atoms-as-generators field."""
    out = sp.cancel(_cancel_atoms(node))
    _check_tree(out)
    return out


def normalize(e: Expr) -> Expr:
    """Canonical reduced form of the rational fragment.

    Idempotent; zero is represented uniquely; sums and products are flattened
    and sorted under sympy's fixed total node order.
    """
    return Expr(_canonical(as_expr(e).node))


def differentiate(e: Expr, sym: sp.Symbol) -> Expr:
    """Partial derivative, with the chain rule through transcendental atoms."""
    return as_expr(e).diff(sym)


@dataclass(frozen=True)
class Point:
    """Exact rational values for every coordinate and parameter of a chart."""

    chart: str
    values: Mapping[str, Fraction]

    def substitution(self) -> dict:
        return {
            symbol(name): sp.Rational(v.numerator, v.denominator)
            for name, v in self.values.items()
        }


def _to_mpf(value: sp.Expr) -> mpmath.mpf:
    with mpmath.workdps(_EVAL_DIGITS):
        f = sp.Float(value, _EVAL_DIGITS)
        return mpmath.mpf(f._mpf_)


def evaluate(e: Expr, point: Point):
    """Exact :class:`Fraction` on the rational fragment, high-precision
    ``mpmath.mpf`` otherwise.  Poles raise :class:`SingularPointError`."""
    e = as_expr(e)
    subs = point.substitution()
    missing = {s for s in e.free_symbols if s not in subs}
    if missing:
        names = ", ".join(sorted(str(s) for s in missing))
        raise UnknownSymbolError(names)
    try:
        ex = e.node.subs(subs, simultaneous=True)
    except ZeroDivisionError as err:  # sympy raises on 0**-1 directly
        raise SingularPointError(f"singular at point {point.values}") from err
    if ex.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise SingularPointError(f"singular at point {point.values}")
    if e.is_rational_fragment():
        if not ex.is_Rational:
            raise ExprError(f"expected a rational value, got {ex}")
        return Fraction(int(ex.p), int(ex.q))
    val = ex.evalf(_EVAL_DIGITS)
    if not val.is_number or val.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise SingularPointError(f"singular at point {point.values}")
    return _to_mpf(val)


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


def _sample_point(rng: random.Random, symbols) -> dict:
    return {s: sp.Rational(random_rational(rng)) for s in symbols}


def _probabilistic_equal(lhs: sp.Expr, rhs: sp.Expr, *, trials: int, seed: int,
                         tolerance: float) -> bool:
    """Compare two scalars at ``trials`` random rational points.

    Exact rational arithmetic decides the rational fragment; otherwise the
    comparison is high-precision floating point with a relative tolerance.
    Sample points on a pole are resampled a bounded number of times.
    """
    diff = lhs - rhs
    symbols = sorted(diff.free_symbols, key=str)
    rng = random.Random(seed)
    rational_only = not diff.has(*_ATOM_HEADS) and not diff.has(sp.pi)
    for _ in range(trials):
        for _attempt in range(_RETRIES + 1):
            subs = _sample_point(rng, symbols)
            try:
                value = diff.subs(subs, simultaneous=True)
                sides = (lhs.subs(subs, simultaneous=True),
                         rhs.subs(subs, simultaneous=True))
            except ZeroDivisionError:
                continue
            if any(v.has(sp.zoo, sp.nan, sp.oo, -sp.oo) for v in (value, *sides)):
                continue
            break
        else:
            raise SingularPointError(
                "could not find a pole-free sample point for equality testing")
        if rational_only:
            if value != 0:
                return False
            continue
        approx = value.evalf(_EVAL_DIGITS)
        if not approx.is_number:
            raise ExprError(f"cannot evaluate {diff} numerically")
        scale = max(
            1.0,
            *(abs(float(v.evalf(_EVAL_DIGITS))) for v in sides if v.is_number),
        )
        if abs(float(approx)) > tolerance * scale:
            return False
    return True


def equal(e1, e2) -> bool:
    """Semantic equality: a zero test of the numerator of ``e1 - e2`` over
    the atoms-as-generators ring, then, when an atom remains, the canonical
    form and the probabilistic fallback (exact rational sampling /
    high-precision evaluation)."""
    lhs, rhs = as_expr(e1).node, as_expr(e2).node
    diff = _cancel_atoms(lhs - rhs)
    _, (num, den) = sring(list(diff.as_numer_denom()))
    if not den:
        raise ExprError("division by the zero expression")
    if not num:
        return True
    # pi is transcendental over Q, so polynomial identities in pi are decided
    # exactly along with the plain rational fragment.  The atom test reads the
    # tree, not the ring: sring turns exp(2) into the generator E.
    if not diff.has(*_ATOM_HEADS):
        return False
    # cancellation can clear an atom, as in (x*exp(y) + x)/(exp(y) + 1) - x
    canonical = _canonical(diff)
    if not canonical.has(*_ATOM_HEADS):
        return canonical == 0
    return _probabilistic_equal(lhs, rhs, trials=_TRIALS, seed=_seed,
                                tolerance=_TOLERANCE)


def is_zero(e) -> bool:
    return equal(e, ZERO)


# ---------------------------------------------------------------------------
# complex scalars


def _phase_sum(a: Expr, b: Expr) -> Expr:
    if a.node == 0:
        return b
    return a if b.node == 0 else a + b


def _literal_zero(z: "ComplexExpr") -> bool:
    return z.re.node == 0 and z.im.node == 0


def _align(z1: "ComplexExpr", z2: "ComplexExpr"):
    """``z1`` and ``z2`` over one common phase, read off the first.  Phases
    that differ by an integer are one phase, a literal zero takes the other's
    phase, and phases that differ by anything else both expand to zero."""
    if z1.phase.node == z2.phase.node or _literal_zero(z2):
        return z1, z2
    if _literal_zero(z1):
        return ComplexExpr(z1.re, z1.im, z2.phase), z2
    if normalize(z1.phase - z2.phase).node.is_Integer:
        return z1, z2
    return z1.expand(), z2.expand()


@dataclass(frozen=True)
class ComplexExpr:
    """Complex scalar ``(re + i*im) * exp(-2*pi*i*phase)``: an exact
    amplitude pair and a real phase taken mod Z, zero unless given."""

    re: Expr
    im: Expr
    phase: Expr = ZERO

    def __post_init__(self):
        # exp(-2 pi i n) = 1 for an integer n
        if self.phase.node.is_Integer and self.phase is not ZERO:
            object.__setattr__(self, "phase", ZERO)

    @staticmethod
    def of(value) -> "ComplexExpr":
        if isinstance(value, ComplexExpr):
            return value
        return ComplexExpr(as_expr(value), ZERO)

    def expand(self) -> "ComplexExpr":
        """The same value with phase zero: the amplitude times
        ``cos(2 pi phase) - i sin(2 pi phase)``."""
        if self.phase.node == 0:
            return self
        angle = (2 * PI * self.phase).node
        c, s = Expr(sp.cos(angle)), Expr(sp.sin(angle))
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
        return ComplexExpr(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            _phase_sum(self.phase, other.phase),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexExpr":
        other = ComplexExpr.of(other)
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
        if self.phase.node != 0:
            k = 2 * PI * self.phase.diff(sym)
            re, im = re + k * self.im, im - k * self.re
        return ComplexExpr(re, im, self.phase)

    def subs(self, mapping: Mapping[sp.Symbol, sp.Expr]) -> "ComplexExpr":
        return ComplexExpr(self.re.subs(mapping), self.im.subs(mapping),
                           self.phase.subs(mapping))

    def __str__(self) -> str:
        amplitude = f"({self.re}) + i*({self.im})"
        if self.phase.node == 0:
            return amplitude
        return f"({amplitude})*exp(-2*pi*i*({self.phase}))"


I = ComplexExpr(ZERO, ONE)


def complex_equal(z1, z2) -> bool:
    z1, z2 = _align(ComplexExpr.of(z1), ComplexExpr.of(z2))
    return equal(z1.re, z2.re) and equal(z1.im, z2.im)


def complex_is_zero(z) -> bool:
    return complex_equal(z, ComplexExpr(ZERO, ZERO))
