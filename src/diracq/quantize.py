"""Polarizations, the half-density connection, the extended operator of an
admissible function, and the self-adjointness integrand, all at chart level.

A section of the complexified bundle is a :class:`~diracq.dirac.Section`
with complex coefficients; the Courant bracket and the pairings extend to it
complex-bilinearly through the coefficient arithmetic.  A span of sections
over the complex numbers is factored by :func:`~diracq.linalg.echelon` on
the components as they are, real or complex, and a section is expressed in
it by :func:`~diracq.linalg.solve`: there is no separate complex path.

The model Hilbert space is never constructed; its defining invariances are
probed on explicit candidate sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .chart import (
    AlphaDensity,
    conjugate,
    imag_part,
    lie_derivative_density,
    real_part,
)
from .dirac import (
    DiracStructure,
    Section,
    courant_bracket,
    membership,
    pairing_minus,
)
from .expr import (
    ComplexExpr,
    ExprError,
    ZERO,
    as_expr,
    is_zero,
    symbol,
)
from .hamiltonian import ComplementH, differential, hamiltonian_H
from .prequant import (
    BundleAtlas,
    LineSection,
    PatchOperator,
    TWO_PI_I,
    line_section_from_patch,
    nabla_operator,
    prequant_condition,
)

__all__ = [
    "Polarization",
    "PolarizationReport",
    "QuantizeError",
    "polarization_check",
    "sp_membership",
    "delta_connection",
    "fhat_halfdensity",
    "lemma51_residual",
    "selfadjoint_integrand",
    "projectability_probe",
    "hzero_invariance_probe",
    "integrate_density",
]


class QuantizeError(ExprError):
    pass


def dirac_complex_coefficients(dirac: DiracStructure, psi: Section) -> tuple:
    """Frame coefficients, real or complex, of a section of the
    complexified structure: one solve against the structure's real frame;
    the zero section has zero coefficients without one."""
    if psi.is_zero_section():
        return (ZERO,) * dirac.dim
    cert = membership(dirac, psi)
    if not cert.ok:
        raise QuantizeError(f"section does not lie in the complexified "
                            f"structure: residual {cert.witness}")
    return tuple(cert.solution)


# ---------------------------------------------------------------------------
# polarizations


@dataclass
class PolarizationReport:
    isotropy_ok: bool
    isotropy_witness: str | None
    involutive_ok: bool
    involutive_witness: str | None
    containment_ok: bool
    containment_witness: str | None
    q_rank: int | None = None

    @property
    def passed(self) -> bool:
        return self.isotropy_ok and self.involutive_ok and self.containment_ok


@dataclass
class Polarization:
    """Complex subbundle of the complexified complement, presented by a
    frame of complex sections."""

    dirac: DiracStructure
    complement: ComplementH
    frame: tuple[Section, ...]
    _report: PolarizationReport | None = field(
        default=None, init=False, repr=False, compare=False)

    @cached_property
    def span(self) -> linalg.Echelon:
        """The factored span of the complex frame."""
        return linalg.echelon([psi.components for psi in self.frame],
                              2 * self.dirac.dim)

    @cached_property
    def q_bundle(self) -> tuple[Section, ...]:
        """Real frame of the subbundle whose complexification is the
        intersection of the polarization with its conjugate."""
        frame = self.frame
        n = self.dirac.dim
        kernel = linalg.echelon(
            [psi.components for psi in frame]
            + [(-psi.map_coeffs(conjugate)).components for psi in frame],
            2 * n).kernel
        candidates: list[Section] = []
        for vec in kernel:
            combo = frame[0].scale(vec[0])
            for psi, c in zip(frame[1:], vec[1:]):
                combo = combo + psi.scale(c)
            for part in (combo.map_coeffs(real_part),
                         combo.map_coeffs(imag_part)):
                if not part.is_zero_section():
                    candidates.append(part)
        span = linalg.echelon([c.components for c in candidates], 2 * n)
        return tuple(candidates[col] for _, col in span.pivots)

    def check(self) -> PolarizationReport:
        if self._report is None:
            self._report = polarization_check(self)
        return self._report


def polarization_check(pol: Polarization) -> PolarizationReport:
    """Isotropy of the complex skew pairing, bracket closure by complex
    solves against the frame span, and containment in the complexified
    complement."""
    frame = pol.frame
    iso_ok, iso_witness = True, None
    for i in range(len(frame)):
        for j in range(i, len(frame)):
            value = ComplexExpr.of(pairing_minus(frame[i], frame[j]))
            if not is_zero(value):
                iso_ok, iso_witness = False, f"Lambda(psi{i+1},psi{j+1}) = {value}"
                break
        if not iso_ok:
            break
    inv_ok, inv_witness = True, None
    for i in range(len(frame)):
        for j in range(i, len(frame)):
            bracket = courant_bracket(frame[i], frame[j])
            result = linalg.solve(pol.span, bracket.components)
            if not result.ok:
                inv_ok = False
                inv_witness = f"[[psi{i+1},psi{j+1}]] leaves the span: {result.witness}"
                break
        if not inv_ok:
            break
    cont_ok, cont_witness = True, None
    h_span = linalg.echelon([s.components for s in pol.complement.sections],
                            2 * pol.dirac.dim)
    for i, psi in enumerate(frame):
        if not linalg.solve(h_span, psi.components).ok:
            cont_ok = False
            cont_witness = f"psi{i+1} leaves the complexified complement"
            break
    q_rank = len(pol.q_bundle) if iso_ok and inv_ok else None
    return PolarizationReport(iso_ok, iso_witness, inv_ok, inv_witness,
                              cont_ok, cont_witness, q_rank)


def sp_membership(f, pol: Polarization) -> tuple[bool, str | None]:
    """Does ``[[(H_f, df), psi]]`` stay in the polarization for every frame
    element?  The defining test for the represented subalgebra."""
    dirac = pol.dirac
    f = as_expr(f)
    h_f, _ = hamiltonian_H(dirac, pol.complement, f)
    section = Section(h_f, differential(dirac, f))
    for i, psi in enumerate(pol.frame):
        bracket = courant_bracket(section, psi)
        result = linalg.solve(pol.span, bracket.components)
        if not result.ok:
            return False, f"[[(H_f,df), psi{i+1}]] leaves the span: {result.witness}"
    return True, None


def projectability_probe(pol: Polarization,
                         functions: Sequence) -> tuple[bool, str | None]:
    """For sample functions in the represented subalgebra, brackets against
    the real subbundle ``pol.q_bundle`` stay inside it (fiber tangency at
    chart level)."""
    dirac = pol.dirac
    q_sections = pol.q_bundle
    if not q_sections:
        return True, None
    span = linalg.echelon([s.components for s in q_sections], 2 * dirac.dim)
    for f in functions:
        f = as_expr(f)
        h_f, _ = hamiltonian_H(dirac, pol.complement, f)
        section = Section(h_f, differential(dirac, f))
        for idx, q_sec in enumerate(q_sections):
            bracket = courant_bracket(section, q_sec)
            if not linalg.solve(span, bracket.components).ok:
                return False, f"bracket with Q-section {idx+1} leaves Q"
    return True, None


# ---------------------------------------------------------------------------
# half-density sections and the delta connection


def half_density_section(atlas: BundleAtlas, patch_coeff) -> LineSection:
    """The section ``s (x) kappa_0`` with coefficient ``patch_coeff`` on the
    first patch, given by its line coefficients against the reference
    half-density ``kappa_0``, whose coefficient is 1 on every patch."""
    return line_section_from_patch(atlas, atlas.patches[0], patch_coeff)


def _delta_operator(atlas: BundleAtlas, psi: Section) -> PatchOperator:
    """``delta_psi``: ``nabla_psi`` shifted by ``1/2 div rho(psi)``, with
    psi's frame coefficients solved once per atlas."""
    op = atlas.operators.get(psi)
    if op is None:
        op = atlas.operators[psi] = nabla_operator(
            atlas, psi.X, dirac_complex_coefficients(atlas.dirac, psi),
            psi.X.divergence() / 2)
    return op


def delta_connection(psi: Section, v: LineSection,
                     atlas: BundleAtlas) -> LineSection:
    """``delta_psi (s (x) kappa_0) = (nabla_psi s) (x) kappa_0
    + s (x) L_{rho(psi)} kappa_0`` on each patch; the image is memoized on
    the atlas."""
    return _delta_operator(atlas, psi).image(atlas, v)


def _fhat_halfdensity_operator(atlas: BundleAtlas, complement: ComplementH,
                               f) -> PatchOperator:
    """``fhat_f`` shifted by ``-L_{H_f} kappa_0 / kappa_0``, kept on the
    atlas once its multipliers match those of ``-delta_{(H_f, df)} - 2 pi i
    f`` on every patch.  Both act by the field ``-H_f``, so the two then
    agree on every section; a mismatch is raised and nothing is kept."""
    key = ("half-density", complement, f)
    op = atlas.operators.get(key)
    if op is None:
        dirac = atlas.dirac
        h_f, coeffs = hamiltonian_H(dirac, complement, f)
        kappa_0 = AlphaDensity(dirac.chart, Fraction(1, 2), ComplexExpr.of(1))
        transport = lie_derivative_density(h_f, kappa_0).coeff  # over kappa_0 = 1
        op = nabla_operator(atlas, -h_f, tuple(-c for c in coeffs),
                            -TWO_PI_I * f - transport)
        delta = _delta_operator(atlas, Section(h_f, differential(dirac, f)))
        for patch in atlas.patches:
            if not is_zero(op.multipliers[patch] + delta.multipliers[patch]
                           + TWO_PI_I * f):
                raise QuantizeError("tensor-split operator disagrees with "
                                    "the delta-connection form")
        atlas.operators[key] = op
    return op


def fhat_halfdensity(f, atlas: BundleAtlas, complement: ComplementH,
                     v: LineSection) -> LineSection:
    """``fhat (s (x) kappa_0) = (fhat s) (x) kappa_0 - s (x) L_{H_f}
    kappa_0``, built once per atlas, complement and ``f`` and verified
    against ``-delta_{(H_f, df)} - 2 pi i f``; the image is memoized on the
    atlas."""
    op = _fhat_halfdensity_operator(atlas, complement, as_expr(f))
    return op.image(atlas, v)


def lemma51_residual(psi: Section, f, v: LineSection,
                     atlas: BundleAtlas, complement: ComplementH) -> LineSection:
    """``delta_psi(fhat v) - fhat(delta_psi v) + delta_{[[psi,(H_f,df)]]} v``;
    requires the prequantization condition (the hypothesis of the identity)."""
    if not prequant_condition(atlas).ok:
        raise QuantizeError(
            "prequantization condition fails; the commutation identity "
            "is not applicable")
    f = as_expr(f)
    dirac = atlas.dirac
    h_f, _ = hamiltonian_H(dirac, complement, f)
    section_f = Section(h_f, differential(dirac, f))
    lhs = delta_connection(psi, fhat_halfdensity(f, atlas, complement, v), atlas)
    rhs = fhat_halfdensity(f, atlas, complement, delta_connection(psi, v, atlas))
    correction = delta_connection(courant_bracket(psi, section_f), v, atlas)
    return lhs - rhs + correction


def selfadjoint_integrand(f, v1: LineSection, v2: LineSection,
                          atlas: BundleAtlas, complement: ComplementH) -> AlphaDensity:
    """The pointwise 1-density behind formal self-adjointness, on the first
    patch: ``<fhat v1, v2> + <v1, fhat v2> + L_{H_f}(h(s1,s2) conj(k1) k2)``."""
    if not atlas.hermitian:
        raise QuantizeError("Hermitian data required")
    f = as_expr(f)
    dirac = atlas.dirac
    chart = dirac.chart
    patch = atlas.patches[0]
    h_f, _ = hamiltonian_H(dirac, complement, f)
    w1, w2 = v1[patch], v2[patch]
    f1 = fhat_halfdensity(f, atlas, complement, v1)[patch]
    f2 = fhat_halfdensity(f, atlas, complement, v2)[patch]
    pairing_density = AlphaDensity(chart, Fraction(1), w1.conj() * w2)
    transport = lie_derivative_density(h_f, pairing_density)
    coeff = f1.conj() * w2 + w1.conj() * f2 + transport.coeff
    return AlphaDensity(chart, Fraction(1), coeff)


def hzero_invariance_probe(pol: Polarization, atlas: BundleAtlas,
                           complement: ComplementH, f,
                           v: LineSection) -> tuple[bool, bool]:
    """(candidate is flat along the polarization, image stays flat)."""
    flat = all(delta_connection(psi, v, atlas).is_zero_section()
               for psi in pol.frame)
    if not flat:
        return False, False
    image = fhat_halfdensity(as_expr(f), atlas, complement, v)
    invariant = all(delta_connection(psi, image, atlas).is_zero_section()
                    for psi in pol.frame)
    return True, invariant


# ---------------------------------------------------------------------------
# exact integration

_NOT_POLYNOMIAL = "the integrand is not polynomial in the coordinates"


def integrate_density(kappa: AlphaDensity,
                      box: Mapping[str, tuple[Fraction, Fraction]]):
    """Integrate a 1-density over a rational coordinate box, exactly.

    The coefficient must be polynomial in the coordinates: each coordinate
    is integrated in turn in the scalar field
    (:meth:`~diracq.expr.Expr.integral_from_zero`) between its endpoints.
    The value is a ``Fraction`` when it is a rational real number and a
    :class:`ComplexExpr` otherwise.  Any other coefficient, a coordinate in
    a denominator or in an atom argument, raises :class:`QuantizeError`.
    """
    if kappa.alpha != 1:
        raise QuantizeError("only 1-densities integrate over the chart")
    chart = kappa.chart
    if set(box) != set(chart.coord_names):
        raise QuantizeError("the box must cover exactly the chart coordinates")
    coeff = kappa.coeff.expand()
    parts = (coeff.re, coeff.im)
    free = {str(s) for part in parts for s in part.free_symbols}
    extra = free - set(chart.coord_names)
    if extra:
        raise QuantizeError(f"unbound parameters in the integrand: {sorted(extra)}")
    try:
        for name in chart.coord_names:
            lo, hi = map(Fraction, box[name])
            sym = symbol(name)
            antiderivatives = [part.integral_from_zero(sym) for part in parts]
            parts = [f.subs({sym: hi}) - f.subs({sym: lo})
                     for f in antiderivatives]
    except ExprError as err:      # a denominator or an atom argument
        raise QuantizeError(_NOT_POLYNOMIAL) from err
    re, im = parts
    if im == ZERO and re.is_rational:
        return Fraction(re.num.get((), 0), re.den[()])
    return ComplexExpr(re, im)
