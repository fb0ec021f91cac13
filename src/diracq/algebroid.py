"""Lie algebroid presentations on a chart and their exterior calculus.

A presentation holds a frame of abstract sections through their anchors and
structure functions; A-differential forms store one coefficient per strictly
increasing frame-index tuple.  The Dirac presentation of a verified structure
is built once by solving the frame brackets back into the frame, and the
pull-back presentation over ``M x R`` carries the homotopy operator used for
the chart-level Poincare lemma.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .chart import (
    Chart,
    KForm,
    KVector,
    VectorField,
    _Alternating,
    _nonzero,
)
from .dirac import (
    DiracStructure,
    Section,
    courant_bracket,
    courant_form,
)
from .expr import ComplexExpr, Expr, ExprError, ZERO, as_expr, is_zero, symbol

__all__ = [
    "AlgebroidPresentation",
    "AForm",
    "AConnection",
    "AlgebroidError",
    "tangent_algebroid",
    "cotangent_algebroid",
    "dirac_presentation",
    "d_A",
    "wedge",
    "d_D_pair",
    "curvature",
    "pullback_over_line",
    "homotopy_S",
    "pr_pullback",
    "iota_restrict",
    "rho_pullback_form",
    "aform_equal",
]


class AlgebroidError(ExprError):
    pass


@dataclass(frozen=True)
class AlgebroidPresentation:
    """Frame, anchor fields and structure functions of a Lie algebroid.

    ``structure[(i, j)]`` (i < j) holds the coefficients of ``[[e_i, e_j]]``
    in the frame; antisymmetry is implied by storage.
    """

    chart: Chart
    anchors: tuple[VectorField, ...]
    structure: Mapping[tuple[int, int], tuple[Expr, ...]]
    labels: tuple[str, ...]
    pullback_base: "AlgebroidPresentation | None" = None
    t_index: int | None = None

    @property
    def rank(self) -> int:
        return len(self.anchors)

    def bracket_coefficients(self, i: int, j: int) -> tuple[Expr, ...]:
        if i == j:
            return (ZERO,) * self.rank
        if i < j:
            return self.structure.get((i, j), (ZERO,) * self.rank)
        return tuple(-c for c in self.structure.get((j, i), (ZERO,) * self.rank))

    def validate(self) -> None:
        """Anchor compatibility and the Jacobi identity on frame triples."""
        r = self.rank
        for i in range(r):
            for j in range(i + 1, r):
                coeffs = self.bracket_coefficients(i, j)
                anchored = VectorField(self.chart, (ZERO,) * self.chart.dim)
                for c, a in zip(coeffs, self.anchors):
                    anchored = anchored + a.scale(c)
                direct = self.anchors[i].lie_bracket(self.anchors[j])
                for comp_a, comp_b in zip(anchored.components, direct.components):
                    if not is_zero(comp_a - comp_b):
                        raise AlgebroidError(
                            f"anchor incompatible with the bracket on "
                            f"({self.labels[i]},{self.labels[j]})")
        for i, j, k in itertools.combinations(range(r), 3):
            residual = [ZERO] * r
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.bracket_coefficients(b, c)
                for m in range(r):
                    residual[m] = residual[m] + self.anchors[a].apply(inner[m])
                    outer = self.bracket_coefficients(a, m)
                    for l in range(r):
                        residual[l] = residual[l] + inner[m] * outer[l]
            if any(not is_zero(x) for x in residual):
                raise AlgebroidError(
                    f"Jacobi identity fails on frame triple ({i+1},{j+1},{k+1})")

    def __str__(self) -> str:
        return f"<algebroid rank {self.rank} on {self.chart.name}>"


class AForm(_Alternating):
    """A-differential form: coefficients over increasing frame-index tuples."""

    error = AlgebroidError

    @staticmethod
    def _size(base) -> int:
        return base.rank

    @property
    def algebroid(self) -> AlgebroidPresentation:
        return self.base

    @property
    def chart(self) -> Chart:
        return self.base.chart

    def _check_base(self, other) -> None:
        if other.base is not self.base:
            raise AlgebroidError("forms live over different presentations")

    def _basis(self, i: int) -> str:
        return self.algebroid.labels[i] + "*"

    def evaluate_coefficients(self, coeffs: Sequence) -> object:
        """Value on a section given by frame coefficients (degree 1 only)."""
        if self.degree != 1:
            raise AlgebroidError("coefficient evaluation needs degree 1")
        out = ZERO
        for i, c in enumerate(coeffs):
            out = out + c * self.coeff((i,))
        return out

    is_zero_form = _Alternating.is_zero_tensor


def aform_from_scalar(algebroid: AlgebroidPresentation, value) -> AForm:
    return AForm(algebroid, 0, {(): value})


def aform_equal(a: AForm, b: AForm) -> bool:
    if a.degree != b.degree:
        return False
    keys = set(a.coeffs) | set(b.coeffs)
    return all(is_zero(a.coeff(k) - b.coeff(k)) for k in keys)


def _koszul(rank: int, degree: int, anchor_term, bracket_term) -> dict:
    """Coefficients of the Koszul alternating sum on increasing frame tuples
    ``key`` of length ``degree + 1``: the signed ``anchor_term(i, rest)``
    over the slots of ``key``, plus the signed ``bracket_term(a, b, rest)``
    over its pairs ``a < b``, ``rest`` being the remaining indices."""
    out: dict[tuple[int, ...], object] = {}
    for key in itertools.combinations(range(rank), degree + 1):
        total = ZERO
        for pos, idx in enumerate(key):
            term = anchor_term(idx, key[:pos] + key[pos + 1:])
            total = total + term if pos % 2 == 0 else total - term
        for pa, pb in itertools.combinations(range(len(key)), 2):
            rest = tuple(key[p] for p in range(len(key)) if p not in (pa, pb))
            term = bracket_term(key[pa], key[pb], rest)
            total = total + term if (pa + pb) % 2 == 0 else total - term
        out[key] = total
    return out


def d_A(theta: AForm | object, algebroid: AlgebroidPresentation | None = None) -> AForm:
    """The A-exterior derivative: the alternating anchor/bracket sum
    evaluated on frame tuples."""
    if not isinstance(theta, AForm):
        if algebroid is None:
            raise AlgebroidError("need a presentation for scalar input")
        theta = aform_from_scalar(algebroid, theta)
    A = theta.algebroid

    def bracket_term(a: int, b: int, rest: tuple[int, ...]):
        term = ZERO
        for m, c in enumerate(A.bracket_coefficients(a, b)):
            term = term + c * theta.coeff_signed((m,) + rest)
        return term

    return AForm(A, theta.degree + 1, _koszul(
        A.rank, theta.degree,
        lambda i, rest: A.anchors[i].apply(theta.coeff(rest)), bracket_term))


def wedge(a: AForm, b: AForm) -> AForm:
    return a.wedge(b)


# ---------------------------------------------------------------------------
# stock presentations


def tangent_algebroid(chart: Chart) -> AlgebroidPresentation:
    """Anchor the identity, vanishing structure functions."""
    anchors = tuple(chart.basis_vector(i) for i in range(chart.dim))
    return AlgebroidPresentation(chart, anchors, {},
                                 labels=tuple("d_" + n for n in chart.coord_names))


def _cotangent_presentation(chart: Chart, pi: KVector) -> AlgebroidPresentation:
    """Frame dx_i, anchor pi#, bracket ``{a,b} = L_{pi#a} b - i_{pi#b} da``
    (the form part of the Courant bracket on the graph sections of pi);
    Jacobi is not checked, so pi need not be Poisson."""
    if pi.degree != 2 or pi.chart != chart:
        raise AlgebroidError("expected a bivector on the same chart")
    n = chart.dim
    graph = [Section(pi.sharp(chart.basis_covector(i)), chart.basis_covector(i))
             for i in range(n)]
    structure = {}
    for i, j in itertools.combinations(range(n), 2):
        form = courant_form(graph[i], graph[j])
        structure[(i, j)] = tuple(form.coeff((k,)) for k in range(n))
    return AlgebroidPresentation(chart, tuple(e.X for e in graph), structure,
                                 labels=tuple("d" + c for c in chart.coord_names))


def cotangent_algebroid(chart: Chart, pi: KVector) -> AlgebroidPresentation:
    """The validated cotangent presentation of a Poisson bivector."""
    pres = _cotangent_presentation(chart, pi)
    pres.validate()
    return pres


def dirac_presentation(dirac: DiracStructure) -> AlgebroidPresentation:
    """The Lie algebroid of a verified Dirac structure, with the structure
    functions that (D3) solved for when it expressed the frame brackets back
    in the frame.  Cached on the structure."""
    if dirac.presentation is not None:
        return dirac.presentation
    dirac.require_verified()
    frame = dirac.frame
    pres = AlgebroidPresentation(
        dirac.chart,
        tuple(e.X for e in frame),
        dirac.verify().structure,
        labels=tuple(f"e{i+1}" for i in range(dirac.dim)),
    )
    pres.validate()
    dirac.presentation = pres
    return pres


# ---------------------------------------------------------------------------
# the Dirac differential through pairs (phi, Q)


def d_D_pair(phi: KForm, q: KVector, dirac: DiracStructure) -> AForm:
    """Evaluate ``d_D`` of the D-form represented by a pair of an ordinary
    form and a multivector through the Courant bracket of frame sections,
    cross-checked against ``d_A`` on the Dirac presentation."""
    if phi.degree != q.degree:
        raise AlgebroidError("degree mismatch between the form and multivector")
    pres = dirac_presentation(dirac)
    frame = dirac.frame

    def anchor_term(i: int, rest: tuple[int, ...]):
        return frame[i].X.apply(_pair_value(phi, q, [frame[k] for k in rest]))

    def bracket_term(a: int, b: int, rest: tuple[int, ...]):
        bracket = courant_bracket(frame[a], frame[b])
        return _pair_value(phi, q, [bracket] + [frame[k] for k in rest])

    result = AForm(pres, phi.degree + 1,
                   _koszul(dirac.dim, phi.degree, anchor_term, bracket_term))
    if not aform_equal(result, d_A(_pair_as_aform(phi, q, dirac))):
        raise AlgebroidError("pair differential disagrees with d_A")
    return result


def _pair_value(phi: KForm, q: KVector, sections: Sequence[Section]):
    """The pair on sections: ``phi(X_1..X_l) + (xi_1 ^ ... ^ xi_l)(Q)``."""
    return (phi.evaluate([s.X for s in sections])
            + q.evaluate([s.xi for s in sections]))


def _pair_as_aform(phi: KForm, q: KVector, dirac: DiracStructure) -> AForm:
    frame = dirac.frame
    return AForm(dirac_presentation(dirac), phi.degree, {
        key: _pair_value(phi, q, [frame[i] for i in key])
        for key in itertools.combinations(range(dirac.dim), phi.degree)})


def rho_pullback_form(sigma: KForm, dirac: DiracStructure) -> AForm:
    """Pull an ordinary form back through the tangent projection of D:
    evaluate it on the anchor images of frame tuples (the pair (sigma, 0))."""
    return _pair_as_aform(sigma, KVector(sigma.chart, sigma.degree, {}), dirac)


# ---------------------------------------------------------------------------
# connections


@dataclass(frozen=True)
class AConnection:
    """Connection 1-section: an m x m matrix of A-1-forms."""

    algebroid: AlgebroidPresentation
    theta: tuple[tuple[AForm, ...], ...]

    def __post_init__(self):
        m = len(self.theta)
        for row in self.theta:
            if len(row) != m:
                raise AlgebroidError("the connection 1-section must be square")
            for entry in row:
                if entry.degree != 1 or entry.algebroid is not self.algebroid:
                    raise AlgebroidError("entries must be A-1-forms")

    @property
    def bundle_rank(self) -> int:
        return len(self.theta)


def curvature(conn: AConnection):
    """Curvature 2-section ``d_A theta + theta ^ theta``, verified against
    the covariant-derivative commutator on frame pairs applied to basis
    sections."""
    A = conn.algebroid
    m = conn.bundle_rank
    kappa = [[d_A(conn.theta[j][k]) for k in range(m)] for j in range(m)]
    for j in range(m):
        for k in range(m):
            for l in range(m):
                kappa[j][k] = kappa[j][k] + wedge(conn.theta[j][l],
                                                  conn.theta[l][k])
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            op = _operator_curvature(conn, a, b)
            for j in range(m):
                for k in range(m):
                    expected = kappa[j][k].coeff_signed((a, b))
                    if not is_zero(op[j][k] - expected):
                        raise AlgebroidError(
                            "curvature 2-section disagrees with the "
                            f"operator definition on (e{a+1},e{b+1})")
    return tuple(tuple(row) for row in kappa)


def _covariant(conn: AConnection, index: int, comps: list) -> list:
    """Covariant derivative along frame element ``index`` of a section given
    by scalar components."""
    A = conn.algebroid
    m = conn.bundle_rank
    out = []
    for j in range(m):
        value = A.anchors[index].apply(comps[j])
        for k in range(m):
            value = value + conn.theta[j][k].coeff((index,)) * comps[k]
        out.append(value)
    return out


def _operator_curvature(conn: AConnection, a: int, b: int):
    A = conn.algebroid
    m = conn.bundle_rank
    coeffs_ab = A.bracket_coefficients(a, b)
    columns = []
    for k in range(m):
        basis = [ZERO] * m
        basis[k] = as_expr(1)
        first = _covariant(conn, a, _covariant(conn, b, basis))
        second = _covariant(conn, b, _covariant(conn, a, basis))
        third = [ZERO] * m
        for mm in range(A.rank):
            if not _nonzero(coeffs_ab[mm]):
                continue
            step = _covariant(conn, mm, basis)
            third = [t + coeffs_ab[mm] * s for t, s in zip(third, step)]
        columns.append([f - s - t for f, s, t in zip(first, second, third)])
    return [[columns[k][j] for k in range(m)] for j in range(m)]


# ---------------------------------------------------------------------------
# pull-back over the line and the homotopy operator


def pullback_over_line(dirac: DiracStructure, t_name: str = "t") -> AlgebroidPresentation:
    """The pull-back algebroid of D along the projection ``M x R -> M``:
    rank n+1, lifted frame plus the pure d/dt element."""
    base = dirac_presentation(dirac)
    ext = dirac.chart.extend(t_name)
    n = dirac.dim

    def lift(v: VectorField) -> VectorField:
        return VectorField(ext, v.components + (ZERO,))

    anchors = tuple(lift(a) for a in base.anchors) + (ext.basis_vector(n),)
    structure = {}
    for (i, j), coeffs in base.structure.items():
        structure[(i, j)] = tuple(coeffs) + (ZERO,)
    pres = AlgebroidPresentation(
        ext, anchors, structure,
        labels=base.labels + ("dt",),
        pullback_base=base,
        t_index=n,
    )
    pres.validate()
    return pres


def pr_pullback(theta: AForm, line: AlgebroidPresentation) -> AForm:
    """pr* of a D-form: the same coefficients, no dt components."""
    if line.pullback_base is not theta.algebroid:
        raise AlgebroidError("the presentation is not the pull-back of this base")
    return AForm(line, theta.degree, dict(theta.coeffs))


def iota_restrict(omega: AForm) -> AForm:
    """iota* along ``p -> (p, 0)``: drop dt components, evaluate at t = 0."""
    line = omega.algebroid
    if line.pullback_base is None:
        raise AlgebroidError("not a pull-back presentation")
    t_sym = symbol(line.chart.coord_names[line.t_index])
    out = {}
    for key, value in omega.coeffs.items():
        if line.t_index in key:
            continue
        out[key] = value.subs({t_sym: 0})
    return AForm(line.pullback_base, omega.degree, out)


def homotopy_S(omega: AForm) -> AForm:
    """The degree-lowering operator integrating dt-components from 0 to t.

    A coefficient's numerator must be polynomial in t over a denominator
    free of t, so the integral stays in the field.
    """
    line = omega.algebroid
    if line.pullback_base is None or line.t_index is None:
        raise AlgebroidError("not a pull-back presentation")
    t_sym = symbol(line.chart.coord_names[line.t_index])
    out: dict[tuple[int, ...], Expr] = {}
    for key, value in omega.coeffs.items():
        if line.t_index not in key:
            continue
        if isinstance(value, ComplexExpr):
            raise AlgebroidError("homotopy integration expects real coefficients")
        rest = tuple(i for i in key if i != line.t_index)
        try:
            integral = value.integral_from_zero(t_sym)
        except ExprError as err:
            raise AlgebroidError(
                f"unsupported integrand (not polynomial in {t_sym}): {value}"
            ) from err
        # moving the dt slot from its sorted position to the front
        sign = (-1) ** len(rest)
        out[rest] = integral if sign > 0 else -integral
    return AForm(line, omega.degree - 1, out)
