"""Tensor calculus on a single coordinate chart.

Vector fields, k-forms and k-vectors carry exact real
(:class:`~diracq.expr.Expr`) or complex (:class:`~diracq.expr.ComplexExpr`)
coefficients over the coordinate frame; a complex tensor is one with complex
coefficients.  Antisymmetric objects store one coefficient per strictly
increasing index tuple, with the determinant pairing convention
``(dx1 ^ dx2)(X, Y) = X1*Y2 - X2*Y1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .expr import (
    ComplexExpr,
    Expr,
    ExprError,
    Generator,
    UnknownSymbolError,
    ZERO,
    as_expr,
    is_zero,
    symbol,
)

__all__ = [
    "Chart",
    "VectorField",
    "KForm",
    "KVector",
    "AlphaDensity",
    "ChartMismatchError",
    "exterior_derivative",
    "interior_product",
    "lie_derivative_form",
    "contravariant_derivative",
    "lie_derivative_density",
    "real_part",
    "imag_part",
    "conjugate",
]


class ChartMismatchError(ExprError):
    pass


def _require_same_chart(*objects) -> "Chart":
    chart = objects[0].chart
    for obj in objects[1:]:
        if obj.chart != chart:
            raise ChartMismatchError(
                f"chart mismatch: {obj.chart.name} vs {chart.name}")
    return chart


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart with ordered coordinates and parameters."""

    name: str
    coord_names: tuple[str, ...]
    param_names: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.coord_names) < 1:
            raise ExprError("a chart needs at least one coordinate")
        names = self.coord_names + self.param_names
        if len(set(names)) != len(names):
            raise ExprError("coordinate/parameter names must be distinct")

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    @cached_property
    def coords(self) -> tuple[Generator, ...]:
        return tuple(symbol(n) for n in self.coord_names)

    def diff(self, e: Expr, name: Union[str, Generator]) -> Expr:
        sym = symbol(name) if isinstance(name, str) else name
        if str(sym) not in self.coord_names:
            raise UnknownSymbolError(str(sym))
        return as_expr(e).diff(sym)

    def extend(self, extra: str) -> "Chart":
        """The product chart with one extra coordinate appended."""
        if extra in self.coord_names + self.param_names:
            raise ExprError(f"coordinate {extra!r} already declared")
        return Chart(f"{self.name}x{extra}",
                     self.coord_names + (extra,), self.param_names)

    def basis_vector(self, i: int) -> "VectorField":
        comps = [ZERO] * self.dim
        comps[i] = as_expr(1)
        return VectorField(self, tuple(comps))

    def basis_covector(self, i: int) -> "KForm":
        return KForm(self, 1, {(i,): as_expr(1)})

    def scalar_form(self, e) -> "KForm":
        return KForm(self, 0, {(): as_expr(e)})


def _is_number(value) -> bool:
    """A rational number, real or complex: every derivative of it is 0, so
    the differential operators skip it instead of differentiating."""
    if isinstance(value, ComplexExpr):
        return all(part.is_rational
                   for part in (value.re, value.im, value.phase))
    return value.is_rational


def _apply_scalar(components: Sequence, chart: Chart, f):
    """Directional derivative sum(X_i * d f / dx_i); f real or complex.  A
    zero component adds nothing and is not differentiated along."""
    f = _scalar(f)
    if _is_number(f):
        return ZERO
    out = ZERO
    for comp, sym in zip(components, chart.coords):
        if _nonzero(comp):
            out = out + comp * f.diff(sym)
    return out


@dataclass(frozen=True)
class VectorField:
    """Real or complex components over the coordinate vector fields."""

    chart: Chart
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ExprError("component count must match the chart dimension")
        object.__setattr__(self, "components",
                           tuple(_scalar(c) for c in self.components))

    def apply(self, f):
        return _apply_scalar(self.components, self.chart, f)

    def lie_bracket(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        comps = tuple(self.apply(c) - other.apply(d)
                      for d, c in zip(self.components, other.components))
        return VectorField(self.chart, comps)

    def divergence(self):
        out = ZERO
        for comp, sym in zip(self.components, self.chart.coords):
            if not _is_number(comp):
                out = out + comp.diff(sym)
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        return VectorField(self.chart, tuple(a + b for a, b in
                                             zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return self.map_coeffs(lambda c: -c)

    def map_coeffs(self, fn) -> "VectorField":
        """The field with ``fn`` applied to every component."""
        return VectorField(self.chart, tuple(fn(c) for c in self.components))

    def scale(self, factor) -> "VectorField":
        factor = _scalar(factor)
        return self.map_coeffs(lambda c: factor * c)

    def is_zero_field(self) -> bool:
        return all(is_zero(c) for c in self.components)

    def __str__(self) -> str:
        terms = [f"({c})*d_{n}" for c, n in zip(self.components, self.chart.coord_names)
                 if _nonzero(c)]
        return " + ".join(terms) if terms else "0"


def _det(rows: list[list[Expr]]) -> Expr:
    n = len(rows)
    if n == 0:
        return as_expr(1)
    if n == 1:
        return rows[0][0]
    out = ZERO
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def sort_sign(indices: Iterable[int]):
    """The sorted index tuple and the sign (+1 or -1) of the permutation
    sorting it, or None when an index repeats."""
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        return None
    inversions = sum(1 for a, b in itertools.combinations(indices, 2) if a > b)
    return tuple(sorted(indices)), -1 if inversions % 2 else 1


def _scalar(value):
    """A real or complex exact scalar; a complex one whose imaginary part and
    phase are 0 is stored as its real part, so real tensors stay real."""
    if isinstance(value, ComplexExpr):
        return value.re if value.im == ZERO and value.phase == ZERO else value
    return as_expr(value)


def real_part(value):
    """The real part of a real or complex scalar; with ``map_coeffs``, of a
    tensor or section.  A phase is expanded to cos/sin first."""
    return ComplexExpr.of(value).expand().re


def imag_part(value):
    return ComplexExpr.of(value).expand().im


def conjugate(value):
    return ComplexExpr.of(value).conj()


def _nonzero(value) -> bool:
    """Not the zero of the field: exact off the atoms, so a coefficient
    such as ``x/x - 1`` is zero, but ``sin(x)**2 + cos(x)**2 - 1`` is not."""
    if isinstance(value, ComplexExpr):
        return value.re != ZERO or value.im != ZERO
    return as_expr(value) != ZERO


class _Alternating:
    """Alternating coefficient store shared by k-forms, k-vectors and A-forms.

    One real or complex coefficient per strictly increasing index tuple over
    ``base`` (a chart, or an algebroid presentation in subclasses); zeros of
    the field are dropped.  Subclasses name the basis elements in ``_basis``.
    """

    error = ExprError

    def __init__(self, base, degree: int, coeffs: Mapping):
        size = self._size(base)
        clean = {}
        for key, value in coeffs.items():
            key = tuple(key)
            if len(key) != degree or list(key) != sorted(set(key)):
                raise self.error(f"index tuple {key} is not strictly increasing")
            if any(i < 0 or i >= size for i in key):
                raise self.error(f"index tuple {key} out of range")
            value = _scalar(value)
            if _nonzero(value):
                clean[key] = value
        self.base = base
        self.degree = degree
        self.coeffs = clean

    @staticmethod
    def _size(base) -> int:
        return base.dim

    @property
    def chart(self) -> Chart:
        return self.base

    def _check_base(self, other) -> None:
        _require_same_chart(self, other)

    def _basis(self, i: int) -> str:
        raise NotImplementedError

    def _entries(self, argument) -> Sequence:
        """The entries of one evaluation argument, by coordinate index."""
        raise NotImplementedError

    def evaluate(self, arguments: Sequence):
        """The value on ``degree`` arguments: over the stored index tuples,
        the coefficient times the determinant of the arguments' entries."""
        if len(arguments) != self.degree:
            raise ExprError("argument count must equal the degree")
        entries = [self._entries(argument) for argument in arguments]
        if self.degree == 0:
            return self.coeff(())
        out = ZERO
        for key, c in self.coeffs.items():
            rows = [[row[i] for i in key] for row in entries]
            out = out + c * _det(rows)
        return out

    def __call__(self, *arguments):
        return self.evaluate(arguments)

    def coeff(self, key: Iterable[int]):
        return self.coeffs.get(tuple(key), ZERO)

    def coeff_signed(self, indices: Iterable[int]):
        """Value on a possibly unsorted index tuple, with alternation."""
        found = sort_sign(indices)
        if found is None:
            return ZERO
        key, sign = found
        value = self.coeff(key)
        return value if sign > 0 else -value

    def __eq__(self, other) -> bool:
        return (type(self) is type(other) and self.base == other.base
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((type(self).__name__, self.base, self.degree,
                     tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def _combine(self, other, sign: int):
        self._check_base(other)
        if self.degree != other.degree:
            raise self.error("degree mismatch")
        keys = set(self.coeffs) | set(other.coeffs)
        if sign > 0:
            coeffs = {k: self.coeff(k) + other.coeff(k) for k in keys}
        else:
            coeffs = {k: self.coeff(k) - other.coeff(k) for k in keys}
        return type(self)(self.base, self.degree, coeffs)

    def __add__(self, other):
        return self._combine(other, +1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.map_coeffs(lambda v: -v)

    def map_coeffs(self, fn):
        """The tensor with ``fn`` applied to every stored coefficient."""
        return type(self)(self.base, self.degree,
                          {k: fn(v) for k, v in self.coeffs.items()})

    def scale(self, factor):
        factor = _scalar(factor)
        return self.map_coeffs(lambda v: factor * v)

    def wedge(self, other):
        self._check_base(other)
        out: dict[tuple[int, ...], object] = {}
        for key1, c1 in self.coeffs.items():
            for key2, c2 in other.coeffs.items():
                found = sort_sign(key1 + key2)
                if found is None:
                    continue
                key, sign = found
                term = c1 * c2 if sign > 0 else -(c1 * c2)
                out[key] = out.get(key, ZERO) + term
        return type(self)(self.base, self.degree + other.degree, out)

    def is_zero_tensor(self) -> bool:
        return all(is_zero(c) for c in self.coeffs.values())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs):
            basis = "/\\".join(self._basis(i) for i in key) or "1"
            parts.append(f"({self.coeffs[key]})*{basis}")
        return " + ".join(parts)


class KForm(_Alternating):
    """Differential k-form with exact coefficients."""

    def _basis(self, i: int) -> str:
        return "d" + self.chart.coord_names[i]

    @staticmethod
    def _entries(vector: VectorField) -> Sequence:
        return vector.components


class KVector(_Alternating):
    """Antisymmetric k-vector (wedge of coordinate vector fields)."""

    def _basis(self, i: int) -> str:
        return "d_" + self.chart.coord_names[i]

    def _entries(self, alpha: KForm) -> Sequence:
        if alpha.degree != 1:
            raise ExprError("k-vectors evaluate on 1-forms")
        return [alpha.coeff((i,)) for i in range(self.chart.dim)]

    def sharp(self, alpha: KForm) -> VectorField:
        """For a bivector: the map ``alpha -> (beta -> Pi(beta, alpha))``."""
        if self.degree != 2:
            raise ExprError("sharp is defined for bivectors")
        _require_same_chart(self, alpha)
        comps = tuple(
            self.evaluate([self.chart.basis_covector(i), alpha])
            for i in range(self.chart.dim))
        return VectorField(self.chart, comps)


# ---------------------------------------------------------------------------
# differential operators


def exterior_derivative(phi: KForm) -> KForm:
    """Coordinate exterior derivative; the d of a top form is the empty
    (k+1)-form."""
    chart = phi.chart
    out: dict[tuple[int, ...], Expr] = {}
    for key, c in phi.coeffs.items():
        if _is_number(c):
            continue
        for i in range(chart.dim):
            found = sort_sign((i,) + key)
            if found is None:
                continue
            merged, sign = found
            term = c.diff(chart.coords[i])
            out[merged] = out.get(merged, ZERO) + (term if sign > 0 else -term)
    return KForm(chart, phi.degree + 1, out)


def interior_product(x: VectorField, phi: KForm) -> KForm:
    """Contraction in the first slot; degree 0 input is an error."""
    if phi.degree == 0:
        raise ExprError("cannot contract 0-form")
    _require_same_chart(x, phi)
    out: dict[tuple[int, ...], Expr] = {}
    for key, c in phi.coeffs.items():
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            term = c * x.components[idx]
            if pos % 2 == 1:
                term = -term
            out[rest] = out.get(rest, ZERO) + term
    return KForm(phi.chart, phi.degree - 1, out)


def lie_derivative_form(x: VectorField, phi: KForm) -> KForm:
    """Cartan formula ``L_X = i_X d + d i_X``."""
    _require_same_chart(x, phi)
    out = interior_product(x, exterior_derivative(phi))
    if phi.degree > 0:
        out = out + exterior_derivative(interior_product(x, phi))
    return out


def contravariant_derivative(pi: KVector, q: KVector) -> KVector:
    """Contravariant exterior derivative associated with a bivector: ``d_A``
    of the cotangent presentation of ``pi`` (frame dx_i, anchor pi#, bracket
    ``{a, b} = L_{pi#a} b - i_{pi#b} da``) on the coefficients of ``q``.
    The bivector need not be Poisson."""
    if pi.degree != 2:
        raise ExprError("the bivector must have degree 2")
    chart = _require_same_chart(pi, q)
    from .algebroid import AForm, _cotangent_presentation, d_A
    out = d_A(AForm(_cotangent_presentation(chart, pi), q.degree, q.coeffs))
    return KVector(chart, out.degree, out.coeffs)


# ---------------------------------------------------------------------------
# densities


@dataclass(frozen=True)
class AlphaDensity:
    """``coeff * |dx_1 ^ ... ^ dx_n|**alpha`` on a chart; alpha > 0."""

    chart: Chart
    alpha: Fraction
    coeff: ComplexExpr

    def __post_init__(self):
        if self.alpha <= 0:
            raise ExprError("the density exponent must be positive")

    def scale(self, factor) -> "AlphaDensity":
        return AlphaDensity(self.chart, self.alpha,
                            ComplexExpr.of(factor) * self.coeff)

    def __add__(self, other: "AlphaDensity") -> "AlphaDensity":
        _require_same_chart(self, other)
        if self.alpha != other.alpha:
            raise ExprError("cannot add densities of different exponents")
        return AlphaDensity(self.chart, self.alpha, self.coeff + other.coeff)

    def __sub__(self, other: "AlphaDensity") -> "AlphaDensity":
        return self + other.scale(-1)

    def tensor(self, other: "AlphaDensity") -> "AlphaDensity":
        _require_same_chart(self, other)
        return AlphaDensity(self.chart, self.alpha + other.alpha,
                            self.coeff * other.coeff)

    def conj(self) -> "AlphaDensity":
        return AlphaDensity(self.chart, self.alpha, self.coeff.conj())

    def __str__(self) -> str:
        measure = "".join("d" + n for n in self.chart.coord_names)
        return f"({self.coeff})*|{measure}|^({self.alpha})"


def lie_derivative_density(x: VectorField, kappa: AlphaDensity) -> AlphaDensity:
    """``L_X (f |dx|^a) = (Xf + a f div X) |dx|^a`` in chart coordinates."""
    _require_same_chart(x, kappa)
    alpha_scalar = as_expr(Fraction(kappa.alpha))
    coeff = x.apply(kappa.coeff) + kappa.coeff * (alpha_scalar * x.divergence())
    return AlphaDensity(kappa.chart, kappa.alpha, coeff)
