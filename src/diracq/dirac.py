"""Sections of TM + T*M, the two pairings, the Courant bracket, and Dirac
structures on a chart with their verification machinery.

A Dirac structure is presented by a frame of ``n = dim M`` sections spanning
it generically; it builds its factored spans and its two kernels,
``V = D n TM`` and ``D n T*M``, once each.  Verification checks isotropy of
the symmetric pairing, generic rank, closure of the frame under the Courant
bracket (via :func:`membership`), and the integrability identity on frame
triples.  Rank and membership are generic-point statements; pivot loci where
they may degenerate are reported, not handled fiberwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import linalg
from .chart import (
    Chart,
    KForm,
    KVector,
    VectorField,
    _require_same_chart,
    exterior_derivative,
    interior_product,
    lie_derivative_form,
)
from .expr import Expr, ExprError, ZERO, as_expr, is_zero

__all__ = [
    "Section",
    "DiracStructure",
    "DiracReport",
    "DiracConstructionError",
    "AdmissibleRangeError",
    "VerificationError",
    "pairing_plus",
    "pairing_minus",
    "courant_bracket",
    "courant_form",
    "graph_presymplectic",
    "graph_poisson",
    "regular_distribution",
    "verify_dirac",
    "membership",
    "omega_on_frame",
    "pi_sharp",
    "pi_sharp_morphism",
]


class DiracConstructionError(ExprError):
    pass


class AdmissibleRangeError(ExprError):
    pass


class VerificationError(ExprError):
    pass


@dataclass(frozen=True)
class Section:
    """A pair (vector field, 1-form) on one chart; with complex coefficients,
    a section of the complexified bundle."""

    X: VectorField
    xi: KForm

    def __post_init__(self):
        _require_same_chart(self.X, self.xi)
        if self.xi.degree != 1:
            raise ExprError("the form part of a section must have degree 1")

    @property
    def chart(self) -> Chart:
        return self.X.chart

    def __add__(self, other: "Section") -> "Section":
        return Section(self.X + other.X, self.xi + other.xi)

    def __sub__(self, other: "Section") -> "Section":
        return Section(self.X - other.X, self.xi - other.xi)

    def __neg__(self) -> "Section":
        return Section(-self.X, -self.xi)

    def scale(self, factor) -> "Section":
        return Section(self.X.scale(factor), self.xi.scale(factor))

    def map_coeffs(self, fn) -> "Section":
        """The section with ``fn`` applied to every coefficient."""
        return Section(self.X.map_coeffs(fn), self.xi.map_coeffs(fn))

    def is_zero_section(self) -> bool:
        return self.X.is_zero_field() and self.xi.is_zero_tensor()

    @property
    def components(self) -> list[Expr]:
        """Coefficients on the coordinate vectors, then the covectors."""
        return list(self.X.components) + covector_components(self.xi)

    def __str__(self) -> str:
        return f"({self.X}, {self.xi})"


def covector_components(xi: KForm) -> list[Expr]:
    """Coefficients of a 1-form on the coordinate covectors."""
    return [xi.coeff((i,)) for i in range(xi.chart.dim)]


def zero_section(chart: Chart) -> Section:
    return Section(VectorField(chart, (ZERO,) * chart.dim), KForm(chart, 1, {}))


def _pairing(a: Section, b: Section, sign: int) -> Expr:
    """``(xi(Y) + sign * eta(X)) / 2`` for ``a = (X, xi)``, ``b = (Y, eta)``."""
    _require_same_chart(a, b)
    first, second = a.xi.evaluate([b.X]), b.xi.evaluate([a.X])
    return as_expr(1) / 2 * (first + second if sign > 0 else first - second)


def pairing_plus(a: Section, b: Section) -> Expr:
    """Symmetric pairing ((xi(Y) + eta(X)) / 2)."""
    return _pairing(a, b, +1)


def pairing_minus(a: Section, b: Section) -> Expr:
    """Skew pairing ((xi(Y) - eta(X)) / 2); the Lambda pairing on D."""
    return _pairing(a, b, -1)


def courant_form(a: Section, b: Section) -> KForm:
    """Form part ``L_X eta - i_Y d xi`` of the Courant bracket of
    ``(X, xi)`` and ``(Y, eta)``."""
    return lie_derivative_form(a.X, b.xi) - interior_product(
        b.X, exterior_derivative(a.xi))


def courant_bracket(a: Section, b: Section) -> Section:
    """``[[ (X,xi), (Y,eta) ]] = ([X,Y], L_X eta - i_Y d xi)``."""
    _require_same_chart(a, b)
    return Section(a.X.lie_bracket(b.X), courant_form(a, b))


# ---------------------------------------------------------------------------
# Dirac structures


@dataclass
class DiracReport:
    d1_ok: bool
    d1_witness: str | None
    d2_rank: int
    d2_ok: bool
    d3_ok: bool
    d3_witness: str | None
    lemma_ok: bool
    lemma_witness: str | None
    kernel_ok: bool
    annihilator_ok: bool
    dim_characteristic: int
    dim_cotangent_kernel: int
    dim_admissible_covectors: int
    dim_tangent_kernel: int
    # the pivot entries of the stacked frame
    degeneracy: tuple
    # frame coefficients of [[e_i, e_j]] (i < j), solved for by D3
    structure: dict[tuple[int, int], tuple[Expr, ...]]

    @property
    def degeneracy_locus(self) -> tuple[str, ...]:
        """The non-constant pivots, printed and sorted: their zero set is
        where the generic rank can drop."""
        return tuple(sorted({str(p) for p in self.degeneracy
                             if as_expr(p).free_symbols}))

    @property
    def passed(self) -> bool:
        return (self.d1_ok and self.d2_ok and self.d3_ok and self.lemma_ok
                and self.kernel_ok and self.annihilator_ok)


class DiracStructure:
    """A frame of n sections presented as spanning D, plus cached
    verification state (computed once, idempotently) and three memos that
    live as long as the structure: ``admissible``, the results of
    ``hamiltonian.admissible_vector_field`` (``f`` -> its result);
    ``lambda_form``, the skew pairing as a D-2-form once
    ``prequant.lambda_Dform`` has built and checked it (``None`` before, and
    after a failed check); and ``presentation``, the Lie algebroid of the
    structure once ``algebroid.dirac_presentation`` has built and validated
    it (``None`` before)."""

    def __init__(self, chart: Chart, frame: Sequence[Section]):
        if len(frame) != chart.dim:
            raise DiracConstructionError(
                f"a Dirac frame on {chart.name} needs {chart.dim} sections")
        for section in frame:
            if section.chart != chart:
                raise DiracConstructionError("frame sections must share the chart")
        self.chart = chart
        self.frame = tuple(frame)
        self._report: DiracReport | None = None
        self.admissible: dict = {}
        self.lambda_form = None
        self.presentation = None

    @property
    def dim(self) -> int:
        return self.chart.dim

    # -- linear data --------------------------------------------------------

    @cached_property
    def vectors(self) -> linalg.Echelon:
        """The factored span of the frame vector parts."""
        return linalg.echelon([e.X.components for e in self.frame], self.dim)

    @cached_property
    def forms(self) -> linalg.Echelon:
        """The factored span of the frame form parts."""
        return linalg.echelon([covector_components(e.xi) for e in self.frame],
                              self.dim)

    @cached_property
    def stacked(self) -> linalg.Echelon:
        """The factored span of the frame in TM + T*M."""
        return linalg.echelon([e.components for e in self.frame], 2 * self.dim)

    def section_from_coefficients(self, coeffs: Sequence) -> Section:
        out = zero_section(self.chart)
        for c, e in zip(coeffs, self.frame):
            out = out + e.scale(c)
        return out

    @cached_property
    def tangent_kernel(self) -> tuple[VectorField, ...]:
        """Vector fields spanning the kernel V = D n TM: the vector parts of
        the frame combinations with zero form part."""
        return tuple(self.section_from_coefficients(z).X
                     for z in self.forms.kernel)

    @cached_property
    def cotangent_kernel(self) -> tuple[KForm, ...]:
        """1-forms spanning D n T*M: the form parts of the frame
        combinations with zero vector part."""
        return tuple(self.section_from_coefficients(z).xi
                     for z in self.vectors.kernel)

    @cached_property
    def tangent_span(self) -> linalg.Echelon:
        """The factored span of the tangent kernel V."""
        return linalg.echelon([v.components for v in self.tangent_kernel],
                              self.dim)

    # -- verification -------------------------------------------------------

    def verify(self) -> DiracReport:
        if self._report is None:
            self._report = verify_dirac(self)
        return self._report

    def require_verified(self) -> None:
        report = self.verify()
        if not report.passed:
            raise VerificationError("the frame does not present a Dirac structure")

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self.frame) + "}"


def membership(dirac: DiracStructure, section: Section) -> linalg.SolveResult:
    """Express ``section`` in the frame span, reading the 2n x n system from
    the structure's factored frame: its frame coefficients, or an
    inconsistency witness; both are real or complex, as the section is."""
    _require_same_chart(dirac.frame[0], section)
    span = dirac.stacked
    if span.rank < dirac.dim:
        raise VerificationError(f"frame is generically rank-deficient "
                                f"(rank {span.rank} < {dirac.dim})")
    return linalg.solve(span, section.components)


def verify_dirac(dirac: DiracStructure) -> DiracReport:
    """Check (D1) isotropy, (D2) generic rank, (D3) bracket closure, and the
    integrability identity on frame triples, plus the kernel equations and
    the annihilator duality of the two projections."""
    frame = dirac.frame
    n = dirac.dim

    d1_ok, d1_witness = True, None
    for i in range(n):
        for j in range(i, n):
            value = pairing_plus(frame[i], frame[j])
            if not is_zero(value):
                d1_ok, d1_witness = False, f"<e{i+1},e{j+1}>+ = {value}"
                break
        if not d1_ok:
            break

    d2_rank = dirac.stacked.rank
    d2_ok = d2_rank == n

    d3_ok, d3_witness = True, None
    structure = {}
    if d2_ok:
        for i in range(n):
            for j in range(i + 1, n):
                bracket = courant_bracket(frame[i], frame[j])
                cert = membership(dirac, bracket)
                if not cert.ok:
                    d3_ok = False
                    d3_witness = f"[[e{i+1},e{j+1}]] not in span: residual {cert.witness}"
                    break
                structure[(i, j)] = tuple(cert.solution)
            if not d3_ok:
                break
    else:
        d3_ok, d3_witness = False, "rank deficient frame"

    lemma_ok, lemma_witness = True, None
    lie = {}                            # (i, j) -> L_{X_i} xi_j, built once

    def term(i, j, k):
        if (i, j) not in lie:
            lie[(i, j)] = lie_derivative_form(frame[i].X, frame[j].xi)
        return lie[(i, j)].evaluate([frame[k].X])

    # the three rotations of a triple share one cyclic sum: only the least
    # is visited, and it comes first in product order, so the first failing
    # triple is the same as over all n^3
    for i, j, k in itertools.product(range(n), repeat=3):
        if (i, j, k) > (j, k, i) or (i, j, k) > (k, i, j):
            continue
        total = term(i, j, k) + term(j, k, i) + term(k, i, j)
        if not is_zero(total):
            lemma_ok = False
            lemma_witness = f"triple (e{i+1},e{j+1},e{k+1}) residual {total}"
            break

    rho_tm_rank = dirac.vectors.rank
    rho_cotm_rank = dirac.forms.rank
    # D n T*M and D n TM are the spans of the kernel forms and fields; on a
    # rank-deficient frame they are smaller than the number of combinations.
    dim_cot_kernel = linalg.echelon(
        [covector_components(eta) for eta in dirac.cotangent_kernel], n).rank
    dim_tan_kernel = dirac.tangent_span.rank
    kernel_ok = (rho_tm_rank + dim_cot_kernel == n
                 and rho_cotm_rank + dim_tan_kernel == n)

    annihilator_ok = True
    for eta in dirac.cotangent_kernel:
        for e in frame:
            if not is_zero(eta.evaluate([e.X])):
                annihilator_ok = False

    return DiracReport(
        d1_ok=d1_ok, d1_witness=d1_witness,
        d2_rank=d2_rank, d2_ok=d2_ok,
        d3_ok=d3_ok, d3_witness=d3_witness,
        lemma_ok=lemma_ok, lemma_witness=lemma_witness,
        kernel_ok=kernel_ok,
        annihilator_ok=annihilator_ok,
        dim_characteristic=rho_tm_rank,
        dim_cotangent_kernel=dim_cot_kernel,
        dim_admissible_covectors=rho_cotm_rank,
        dim_tangent_kernel=dim_tan_kernel,
        degeneracy=tuple(dirac.stacked.degeneracy),
        structure=structure,
    )


# ---------------------------------------------------------------------------
# constructors


def graph_presymplectic(omega: KForm) -> DiracStructure:
    """The graph of ``X -> i_X omega``.  It is Dirac iff omega is closed;
    ``verify()`` judges that (D3, whose witness carries ``d omega``)."""
    if omega.degree != 2:
        raise DiracConstructionError("a presymplectic form must have degree 2")
    chart = omega.chart
    frame = [Section(chart.basis_vector(i),
                     interior_product(chart.basis_vector(i), omega))
             for i in range(chart.dim)]
    return DiracStructure(chart, frame)


def graph_poisson(pi: KVector) -> DiracStructure:
    """The graph of ``alpha -> pi#(alpha)``.  It is Dirac iff ``[pi, pi] = 0``;
    ``verify()`` judges that (D3)."""
    if pi.degree != 2:
        raise DiracConstructionError("a Poisson bivector must have degree 2")
    chart = pi.chart
    frame = [Section(pi.sharp(chart.basis_covector(i)), chart.basis_covector(i))
             for i in range(chart.dim)]
    return DiracStructure(chart, frame)


def regular_distribution(fields: Sequence[VectorField]) -> DiracStructure:
    """``F + F°`` for generically independent fields.  It is Dirac iff F is
    involutive; ``verify()`` judges that (D3)."""
    if not fields:
        raise DiracConstructionError("the distribution needs at least one field")
    chart = fields[0].chart
    for f in fields:
        _require_same_chart(fields[0], f)
    n = chart.dim
    span = linalg.echelon([f.components for f in fields], n)
    if span.rank != len(fields):
        raise DiracConstructionError("the fields are generically dependent")
    frame = [Section(f, KForm(chart, 1, {})) for f in fields]
    frame += [Section(VectorField(chart, (ZERO,) * n),
                      KForm(chart, 1, {(i,): c for i, c in enumerate(eta)}))
              for eta in span.cokernel]
    return DiracStructure(chart, frame)


# ---------------------------------------------------------------------------
# the induced 2-form and bivector pairings


def omega_on_frame(dirac: DiracStructure) -> dict[tuple[int, int], Expr]:
    """The presymplectic 2-cocycle on the characteristic distribution,
    tabulated on frame images: ``Omega(X_i, X_j) = xi_i(X_j)``.

    Antisymmetry and the 2-cocycle identity on frame triples are checked.
    """
    dirac.require_verified()
    frame = dirac.frame
    n = dirac.dim
    table = {(i, j): frame[i].xi.evaluate([frame[j].X])
             for i in range(n) for j in range(n)}
    for i in range(n):
        for j in range(n):
            if not is_zero(table[(i, j)] + table[(j, i)]):
                raise VerificationError("Omega fails antisymmetry on the frame")
    for i, j, k in itertools.combinations(range(n), 3):
        xi, xj, xk = (frame[m].X for m in (i, j, k))
        residual = (xi.apply(table[(j, k)]) - xj.apply(table[(i, k)])
                    + xk.apply(table[(i, j)])
                    + frame[k].xi.evaluate([xi.lie_bracket(xj)])
                    + frame[i].xi.evaluate([xj.lie_bracket(xk)])
                    + frame[j].xi.evaluate([xk.lie_bracket(xi)]))
        if not is_zero(residual):
            raise VerificationError(
                f"Omega fails the 2-cocycle identity on ({i+1},{j+1},{k+1})")
    return table


def pi_sharp(dirac: DiracStructure, eta: KForm) -> VectorField:
    """``Pi#(eta)``: the vector part of the section of a verified structure
    over the admissible 1-form ``eta``, free frame coefficients zeroed."""
    dirac.require_verified()
    if eta.degree != 1:
        raise ExprError("expected a 1-form")
    result = linalg.solve(dirac.forms, covector_components(eta))
    if not result.ok:
        raise AdmissibleRangeError("not in admissible covector range")
    return dirac.section_from_coefficients(result.solution).X


def pi_sharp_morphism(dirac: DiracStructure) -> bool:
    """The bracket morphism law on all frame covectors:
    ``Pi#({xi_i, xi_j}) - [X_i, X_j]``, with ``{xi_i, xi_j}`` the Courant
    form part, lies in the tangent kernel (it is zero when V = 0)."""
    frame = dirac.frame
    return all(
        linalg.solve(dirac.tangent_span,
                     (pi_sharp(dirac, courant_form(a, b))
                      - a.X.lie_bracket(b.X)).components).ok
        for a in frame for b in frame)
