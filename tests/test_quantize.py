from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from diracq import quantize
from diracq.algebroid import AForm, d_A, dirac_presentation, rho_pullback_form
from diracq.chart import (
    AlphaDensity,
    Chart,
    VectorField,
    imag_part,
    lie_derivative_density,
    real_part,
)
from diracq.checks import run_checks
from diracq.dirac import Section, courant_bracket, pairing_minus, zero_section
from diracq.dsl import parse_model
from diracq.expr import (
    I,
    ONE,
    ZERO,
    ComplexExpr,
    Expr,
    as_expr,
    equal,
    is_zero,
)
from diracq.hamiltonian import default_complement, differential, hamiltonian_H
from diracq.prequant import TWO_PI_I, BundleAtlas, build_prequantization
from diracq.quantize import (
    Polarization,
    QuantizeError,
    delta_connection,
    fhat_halfdensity,
    half_density_section,
    hzero_invariance_probe,
    integrate_density,
    lemma51_residual,
    polarization_check,
    selfadjoint_integrand,
    sp_membership,
)
from diracq.randgen import (
    random_kform,
    random_polynomial,
    random_vector_field,
    rng_for,
)


@pytest.fixture
def std_atlas(standard_dirac, r2):
    p = Expr(r2.coords[1])
    sigma = rho_pullback_form(r2.basis_covector(0).scale(-p), standard_dirac)
    return BundleAtlas(standard_dirac, ("U",), {}, {"U": sigma}, hermitian=True)


@pytest.fixture
def std_complement(standard_dirac):
    return default_complement(standard_dirac)


@pytest.fixture
def horizontal_polarization(standard_dirac, std_complement):
    # spanned by (d_q, dp)
    frame = (standard_dirac.frame[0],)
    return Polarization(standard_dirac, std_complement, frame)


@pytest.fixture
def vertical_polarization(standard_dirac, std_complement):
    # spanned by (d_p, -dq)
    frame = (standard_dirac.frame[1],)
    return Polarization(standard_dirac, std_complement, frame)


@pytest.fixture
def holomorphic_polarization(standard_dirac, std_complement, r2):
    psi = Section(r2.basis_vector(0), r2.basis_covector(1)) \
        + Section(-r2.basis_vector(1), r2.basis_covector(0)).scale(I)
    return Polarization(standard_dirac, std_complement, (psi,))


class TestPolarizationCheck:
    def test_standard_passes(self, horizontal_polarization):
        report = polarization_check(horizontal_polarization)
        assert report.passed
        assert len(horizontal_polarization.q_bundle) == 1

    def test_full_frame_fails_isotropy(self, standard_dirac, std_complement):
        frame = standard_dirac.frame
        report = polarization_check(
            Polarization(standard_dirac, std_complement, frame))
        assert not report.isotropy_ok
        assert "1" in report.isotropy_witness

    def test_holomorphic_passes(self, holomorphic_polarization):
        report = polarization_check(holomorphic_polarization)
        assert report.isotropy_ok and report.involutive_ok
        assert len(holomorphic_polarization.q_bundle) == 0

    def test_report_is_not_a_constructor_argument(self, horizontal_polarization):
        pol = horizontal_polarization
        with pytest.raises(TypeError):
            Polarization(pol.dirac, pol.complement, pol.frame,
                         _report=polarization_check(pol))
        report = pol.check()
        assert pol.check() is report
        assert "q_bundle" not in vars(pol)      # the report builds no Q-bundle
        assert pol == Polarization(pol.dirac, pol.complement, pol.frame)

    def test_complex_lambda_bilinear(self, standard_dirac):
        e1, e2 = standard_dirac.frame
        value = pairing_minus(e1, e2.scale(I))
        assert is_zero(value.re) and equal(value.im, 1)


class TestStandardPolarizationR4:
    def test_coordinate_pairs_define_a_polarization(self):
        # (d_q_j, dp_j) on the standard symplectic 4-space
        from diracq.chart import KForm
        from diracq.dirac import graph_presymplectic
        chart = Chart("S4", ("q1", "q2", "p1", "p2"))
        omega = KForm(chart, 2, {(0, 2): 1, (1, 3): 1})
        dirac = graph_presymplectic(omega)
        complement = default_complement(dirac)
        frame = (dirac.frame[0], dirac.frame[1])
        pol = Polarization(dirac, complement, frame)
        report = polarization_check(pol)
        assert report.passed
        assert len(pol.q_bundle) == 2


class TestSPMembership:
    def test_momentum_in_horizontal(self, horizontal_polarization, r2):
        ok, _ = sp_membership(Expr(r2.coords[1]), horizontal_polarization)
        assert ok

    def test_q_squared_not_in_horizontal(self, horizontal_polarization, r2):
        ok, witness = sp_membership(Expr(r2.coords[0]) ** 2,
                                    horizontal_polarization)
        assert not ok and witness is not None

    def test_constant_always_member(self, horizontal_polarization):
        ok, _ = sp_membership(as_expr(5), horizontal_polarization)
        assert ok

    def test_vertical_accepts_position_polynomials(self, vertical_polarization, r2):
        for f in (Expr(r2.coords[0]), Expr(r2.coords[1]),
                  Expr(r2.coords[0]) ** 2):
            ok, _ = sp_membership(f, vertical_polarization)
            assert ok


class TestQBundle:
    def test_holomorphic_intersection_trivial(self, holomorphic_polarization):
        assert holomorphic_polarization.q_bundle == ()

    def test_real_polarization_recovers_itself(self, horizontal_polarization,
                                               standard_dirac):
        sections = horizontal_polarization.q_bundle
        assert len(sections) == 1
        from diracq.dirac import membership
        assert membership(standard_dirac, sections[0]).ok

    def test_mixed_rank_two(self):
        # symplectic 4-space: one real direction plus one properly complex one
        from diracq.chart import KForm
        from diracq.dirac import graph_presymplectic
        chart = Chart("S4", ("x1", "x2", "x3", "x4"))
        omega = KForm(chart, 2, {(0, 1): 1, (2, 3): 1})
        dirac = graph_presymplectic(omega)
        complement = default_complement(dirac)
        e1, _, e3, e4 = dirac.frame
        pol = Polarization(dirac, complement, (e1, e3 + e4.scale(I)))
        report = polarization_check(pol)
        assert report.isotropy_ok and report.involutive_ok
        sections = pol.q_bundle
        assert len(sections) == 1
        from diracq.dirac import membership
        cert = membership(dirac, sections[0])
        assert cert.ok


class TestDeltaConnection:
    def test_flat_data(self, standard_dirac, r2):
        pres = dirac_presentation(standard_dirac)
        atlas = BundleAtlas(standard_dirac, ("U",), {},
                            {"U": AForm(pres, 1, {})}, hermitian=True)
        v = half_density_section(atlas, 1)
        psi = standard_dirac.frame[0]
        assert delta_connection(psi, v, atlas).is_zero_section()

    def test_zero_anchor_zero_sigma(self, standard_dirac, r2):
        pres = dirac_presentation(standard_dirac)
        atlas = BundleAtlas(standard_dirac, ("U",), {},
                            {"U": AForm(pres, 1, {})}, hermitian=True)
        # (0, xi) with anchor zero only lies in D for xi = 0 here
        psi = zero_section(r2)
        v = half_density_section(atlas, ComplexExpr.of(Expr(r2.coords[0])))
        assert delta_connection(psi, v, atlas).is_zero_section()

    def test_function_scaling_leibniz(self, std_atlas, standard_dirac, r2):
        rng = rng_for(50, "delta")
        psi = standard_dirac.frame[0]
        for _ in range(3):
            u = random_polynomial(rng, r2, 2, 2)
            v = half_density_section(std_atlas,
                                     ComplexExpr.of(random_polynomial(rng, r2, 2, 2)))
            scaled = half_density_section(std_atlas, ComplexExpr.of(u) * v["U"])
            lhs = delta_connection(psi, scaled, std_atlas)["U"]
            rhs = ComplexExpr.of(u) * delta_connection(psi, v, std_atlas)["U"] \
                + psi.X.apply(u) * v["U"]
            assert is_zero(lhs - rhs)


class TestFhat:
    def test_constant(self, std_atlas, std_complement):
        import sympy as sp
        v = half_density_section(std_atlas, 1)
        out = fhat_halfdensity(as_expr(2), std_atlas, std_complement, v)
        expected = ComplexExpr(as_expr(0), Expr(-4 * sp.pi))
        assert is_zero(out["U"] - expected)

    def test_position_function(self, std_atlas, std_complement, r2):
        import sympy as sp
        q = Expr(r2.coords[0])
        v = half_density_section(std_atlas, 1)
        out = fhat_halfdensity(q, std_atlas, std_complement, v)
        expected = ComplexExpr(as_expr(0), Expr(-2 * sp.pi * r2.coords[0]))
        assert is_zero(out["U"] - expected)

    def test_commutator_matches_bracket(self, std_atlas, std_complement,
                                        standard_dirac, r2):
        from diracq.hamiltonian import bracket_omega
        q, p = (Expr(s) for s in r2.coords)
        v = half_density_section(std_atlas,
                                 ComplexExpr.of(Expr(r2.coords[0]) ** 2 + 1))
        fg = bracket_omega(standard_dirac, std_complement, q, p)
        lhs_qp = fhat_halfdensity(
            q, std_atlas, std_complement,
            fhat_halfdensity(p, std_atlas, std_complement, v))
        lhs_pq = fhat_halfdensity(
            p, std_atlas, std_complement,
            fhat_halfdensity(q, std_atlas, std_complement, v))
        rhs = fhat_halfdensity(fg, std_atlas, std_complement, v)
        residual = {pp: lhs_qp[pp] - lhs_pq[pp] - rhs[pp]
                    for pp in std_atlas.patches}
        assert all(is_zero(z) for z in residual.values())


class TestLemma51:
    def test_self_section(self, std_atlas, std_complement, standard_dirac, r2):
        from diracq.hamiltonian import hamiltonian_H, differential
        q = Expr(r2.coords[0])
        h_q, _ = hamiltonian_H(standard_dirac, std_complement, q)
        psi = Section(h_q, differential(standard_dirac, q))
        v = half_density_section(std_atlas, ComplexExpr.of(Expr(r2.coords[1])))
        residual = lemma51_residual(psi, q, v, std_atlas, std_complement)
        assert residual.is_zero_section()

    def test_frame_section_momentum(self, std_atlas, std_complement,
                                    standard_dirac, r2):
        psi = standard_dirac.frame[0]
        v = half_density_section(std_atlas, 1)
        residual = lemma51_residual(psi, Expr(r2.coords[1]), v, std_atlas,
                                    std_complement)
        assert residual.is_zero_section()

    def test_refuses_without_condition(self, standard_dirac, std_complement, r2):
        p = Expr(r2.coords[1])
        sigma = rho_pullback_form(r2.basis_covector(0).scale(-2 * p),
                                  standard_dirac)
        atlas = BundleAtlas(standard_dirac, ("U",), {}, {"U": sigma},
                            hermitian=True)
        v = half_density_section(atlas, 1)
        psi = standard_dirac.frame[0]
        with pytest.raises(QuantizeError, match="prequantization condition"):
            lemma51_residual(psi, Expr(r2.coords[0]), v, atlas, std_complement)


class TestMemos:
    def _doubled(self, standard_dirac, r2):
        p = Expr(r2.coords[1])
        sigma = rho_pullback_form(r2.basis_covector(0).scale(-2 * p),
                                  standard_dirac)
        return BundleAtlas(standard_dirac, ("U",), {}, {"U": sigma},
                           hermitian=True)

    def test_images_equal_a_fresh_computation(self, std_atlas, std_complement,
                                              standard_dirac, r2):
        q, p = (Expr(c) for c in r2.coords)
        v = half_density_section(std_atlas, ComplexExpr(q * p, q + 1))
        psi = standard_dirac.frame[1]
        fresh = BundleAtlas(standard_dirac, ("U",), {}, dict(std_atlas.sigma),
                            hermitian=True)
        w = half_density_section(fresh, v["U"])
        for _ in range(2):
            assert delta_connection(psi, v, std_atlas)["U"] \
                == delta_connection(psi, w, fresh)["U"]
            assert fhat_halfdensity(q, std_atlas, std_complement, v)["U"] \
                == fhat_halfdensity(q, fresh, std_complement, w)["U"]
        expected = ComplexExpr.of(psi.X.apply(v["U"])) \
            + TWO_PI_I * (std_atlas.sigma["U"].evaluate_coefficients((0, 1))
                          * v["U"]) \
            + psi.X.divergence() / 2 * v["U"]
        assert is_zero(delta_connection(psi, v, std_atlas)["U"]
                       - expected)

    def test_atlases_over_one_structure_share_nothing(
            self, std_atlas, std_complement, standard_dirac, r2):
        doubled = self._doubled(standard_dirac, r2)
        p = Expr(r2.coords[1])             # sigma(H_p, dp) is not zero
        psi = standard_dirac.frame[0]
        ours, theirs = (
            (delta_connection(psi, v, atlas)["U"],
             fhat_halfdensity(p, atlas, std_complement, v)["U"])
            for atlas, v in ((a, half_density_section(a, 1))
                             for a in (std_atlas, doubled)))
        assert not is_zero(ours[0] - theirs[0])
        assert not is_zero(ours[1] - theirs[1])
        assert std_atlas.operators[psi] is not doubled.operators[psi]

    def test_lemma51_refusal_is_raised_again(self, std_complement,
                                            standard_dirac, r2):
        atlas = self._doubled(standard_dirac, r2)
        v = half_density_section(atlas, 1)
        for _ in range(2):
            with pytest.raises(QuantizeError, match="prequantization condition"):
                lemma51_residual(standard_dirac.frame[0], Expr(r2.coords[0]),
                                 v, atlas, std_complement)

    def test_failed_cross_check_is_never_stored(self, std_atlas, std_complement,
                                                r2, monkeypatch):
        q = Expr(r2.coords[0])
        v = half_density_section(std_atlas, ComplexExpr.of(Expr(r2.coords[1])))
        honest = quantize.lie_derivative_density
        monkeypatch.setattr(quantize, "lie_derivative_density",
                            lambda x, kappa: AlphaDensity(
                                kappa.chart, kappa.alpha, ComplexExpr.of(1)))
        for _ in range(2):
            with pytest.raises(QuantizeError, match="tensor-split"):
                fhat_halfdensity(q, std_atlas, std_complement, v)
        assert ("half-density", std_complement, q) not in std_atlas.operators
        calls = []

        def counted(x, kappa):
            calls.append(kappa)
            return honest(x, kappa)

        monkeypatch.setattr(quantize, "lie_derivative_density", counted)
        for _ in range(2):
            fhat_halfdensity(q, std_atlas, std_complement, v)
        assert len(calls) == 1           # one cross-check for one operator
        fhat_halfdensity(q, std_atlas, std_complement,
                         half_density_section(std_atlas, 1))
        assert len(calls) == 1

    def test_halfdensity_operator_is_built_once_per_function(
            self, standard_dirac, std_complement, r2):
        pres = dirac_presentation(standard_dirac)
        q, p = (Expr(c) for c in r2.coords)
        base = rho_pullback_form(r2.basis_covector(0).scale(-p), standard_dirac)
        atlas = build_prequantization(
            standard_dirac, ["U1", "U2", "U3"],
            {"U1": base, "U2": base - d_A(q, pres), "U3": base},
            {("U1", "U2"): q, ("U2", "U3"): -q, ("U1", "U3"): as_expr(0)})
        sections = [half_density_section(atlas, ComplexExpr(q * p, q + 1)),
                    half_density_section(atlas, 1)]
        for f in (q, p, q * p + p ** 2):
            key = ("half-density", std_complement, f)
            fhat_halfdensity(f, atlas, std_complement, sections[0])
            op = atlas.operators[key]
            fhat_halfdensity(f, atlas, std_complement, sections[1])
            assert atlas.operators[key] is op and len(op.images) == 2
            h_f, coeffs = hamiltonian_H(standard_dirac, std_complement, f)
            assert op.rho == -h_f
            delta = atlas.operators[Section(h_f, differential(standard_dirac, f))]
            for patch in atlas.patches:
                by_definition = -(TWO_PI_I * atlas.sigma[patch]
                                  .evaluate_coefficients(coeffs)
                                  + h_f.divergence() / 2) - TWO_PI_I * f
                assert is_zero(op.multipliers[patch] - by_definition)
                assert is_zero(op.multipliers[patch]
                               - (-delta.multipliers[patch] - TWO_PI_I * f))
        assert sum(k[0] == "half-density" for k in atlas.operators
                   if isinstance(k, tuple)) == 3


class TestSelfAdjoint:
    def test_constant_real(self, std_atlas, std_complement, r2):
        v1 = half_density_section(std_atlas, ComplexExpr.of(Expr(r2.coords[0])))
        v2 = half_density_section(std_atlas, ComplexExpr(Expr(r2.coords[1]),
                                                         as_expr(1)))
        density = selfadjoint_integrand(as_expr(3), v1, v2, std_atlas,
                                        std_complement)
        assert is_zero(density.coeff)

    def test_polynomial_sections(self, std_atlas, std_complement, r2):
        rng = rng_for(51, "sa")
        q = Expr(r2.coords[0])
        for _ in range(3):
            v1 = half_density_section(
                std_atlas, ComplexExpr(random_polynomial(rng, r2, 2, 2),
                                       random_polynomial(rng, r2, 2, 2)))
            v2 = half_density_section(
                std_atlas, ComplexExpr(random_polynomial(rng, r2, 2, 2),
                                       random_polynomial(rng, r2, 2, 2)))
            density = selfadjoint_integrand(q, v1, v2, std_atlas, std_complement)
            assert is_zero(density.coeff)

    def test_imaginary_sigma_breaks_it(self, standard_dirac, std_complement, r2):
        pres = dirac_presentation(standard_dirac)
        q, p = (Expr(s) for s in r2.coords)
        sigma = AForm(pres, 1, {(0,): ComplexExpr(-p, q)})
        atlas = BundleAtlas(standard_dirac, ("U",), {}, {"U": sigma},
                            hermitian=True)
        v1 = half_density_section(atlas, ComplexExpr.of(q))
        v2 = half_density_section(atlas, ComplexExpr.of(p))
        density = selfadjoint_integrand(p, v1, v2, atlas, std_complement)
        assert not is_zero(density.coeff)


class TestHZeroProbe:
    def test_vertical_polarization_invariance(self, std_atlas, std_complement,
                                              vertical_polarization, r2):
        q = Expr(r2.coords[0])
        # sections depending only on q are flat along the vertical direction
        v = half_density_section(std_atlas, ComplexExpr.of(q ** 2 + 1))
        for f in (q, Expr(r2.coords[1]), q + Expr(r2.coords[1])):
            flat, invariant = hzero_invariance_probe(
                vertical_polarization, std_atlas, std_complement, f, v)
            assert flat and invariant

    def test_non_flat_candidate_detected(self, std_atlas, std_complement,
                                         vertical_polarization, r2):
        v = half_density_section(std_atlas, ComplexExpr.of(Expr(r2.coords[1])))
        flat, _ = hzero_invariance_probe(vertical_polarization, std_atlas,
                                         std_complement, Expr(r2.coords[0]), v)
        assert not flat


class TestIntegrateDensity:
    def test_unit_box(self):
        chart = Chart("B", ("x", "y"))
        kappa = AlphaDensity(chart, Fraction(1), ComplexExpr.of(1))
        value = integrate_density(kappa, {"x": (0, 1), "y": (0, 1)})
        assert abs(value - 1) < 1e-8

    def test_linear(self):
        chart = Chart("L", ("x",))
        kappa = AlphaDensity(chart, Fraction(1),
                             ComplexExpr.of(Expr(chart.coords[0])))
        value = integrate_density(kappa, {"x": (0, 1)})
        assert value == Fraction(1, 2)

    def test_polynomial_is_exact(self, r2):
        q, p = (Expr(c) for c in r2.coords)
        kappa = AlphaDensity(r2, Fraction(1), ComplexExpr.of(p * q ** 2 + 3 * p - q))
        value = integrate_density(kappa, {"q": (0, 1), "p": (0, 1)})
        assert value == Fraction(7, 6)

    def test_rational_endpoints_build_no_tree(self, monkeypatch):
        def build(self):
            raise AssertionError("a sympy tree was built")

        chart = Chart("L", ("x",))
        kappa = AlphaDensity(chart, Fraction(1),
                             ComplexExpr.of(Expr(chart.coords[0]) ** 2))
        monkeypatch.setattr(Expr, "node", property(build))
        value = integrate_density(kappa, {"x": (Fraction(1, 3), Fraction(1, 2))})
        assert value == Fraction(19, 648) and isinstance(value, Fraction)

    def test_complex_value(self):
        chart = Chart("L", ("x",))
        kappa = AlphaDensity(chart, Fraction(1), I * Expr(chart.coords[0]))
        value = integrate_density(kappa, {"x": (0, 1)})
        assert isinstance(value, ComplexExpr) and value == I / 2

    def test_divergence_form_matches_boundary(self):
        chart = Chart("L", ("x",))
        x = Expr(chart.coords[0])
        field = VectorField(chart, (x ** 2 - x ** 4,))
        kappa = AlphaDensity(chart, Fraction(1), ComplexExpr.of(1))
        transported = lie_derivative_density(field, kappa)
        value = integrate_density(transported, {"x": (-1, 1)})
        boundary = (1 - 1) - ((-1) ** 2 - (-1) ** 4)  # F(1) - F(-1), F = x^2 - x^4
        assert abs(value - boundary) < 1e-6

    def test_singularity_detected(self):
        chart = Chart("L", ("x",))
        kappa = AlphaDensity(chart, Fraction(1),
                             ComplexExpr.of(1 / Expr(chart.coords[0])))
        with pytest.raises(QuantizeError, match="not polynomial"):
            integrate_density(kappa, {"x": (-1, 1)})

    def test_non_polynomial_rejected(self, r2):
        chart = Chart("L", ("x",))
        x = Expr(chart.coords[0])
        kappa = AlphaDensity(chart, Fraction(1), ComplexExpr.of(1 / (1 + x ** 2)))
        with pytest.raises(QuantizeError, match="not polynomial"):
            integrate_density(kappa, {"x": (0, 1)})
        phased = AlphaDensity(r2, Fraction(1),
                              ComplexExpr(ONE, ZERO, Expr(r2.coords[0])))
        with pytest.raises(QuantizeError, match="not polynomial"):
            integrate_density(phased, {"q": (0, 1), "p": (0, 1)})

    def test_alpha_must_be_one(self, r2):
        kappa = AlphaDensity(r2, Fraction(1, 2), ComplexExpr.of(1))
        with pytest.raises(QuantizeError):
            integrate_density(kappa, {"q": (0, 1), "p": (0, 1)})


def _complex_sections(rng, chart):
    """A random complex section ``a1 + i*a2`` and its real parts."""
    def real():
        return Section(random_vector_field(rng, chart, degree=2),
                       random_kform(rng, chart, 1))
    a1, a2 = real(), real()
    return a1 + a2.scale(I), a1, a2


def test_complex_courant_expands_bilinearly(standard_dirac, r2):
    """The Courant bracket and the skew pairing of complex sections equal the
    re/im expansion through real brackets:
    [[a1 + i a2, b1 + i b2]] = [[a1,b1]] - [[a2,b2]] + i([[a1,b2]] + [[a2,b1]]).
    """
    e1, e2 = standard_dirac.frame
    bracket = courant_bracket(e1, e2.scale(I))
    plain = courant_bracket(e1, e2)
    assert bracket.map_coeffs(real_part).is_zero_section() \
        == plain.map_coeffs(imag_part).is_zero_section()
    rng = rng_for(52, "complex-bilinear")
    for _ in range(4):
        a, a1, a2 = _complex_sections(rng, r2)
        b, b1, b2 = _complex_sections(rng, r2)
        bracket = courant_bracket(a, b)
        expected = (courant_bracket(a1, b1) - courant_bracket(a2, b2)) \
            + (courant_bracket(a1, b2) + courant_bracket(a2, b1)).scale(I)
        assert (bracket - expected).is_zero_section()
        pairing = pairing_minus(a, b)
        expected = ComplexExpr(
            pairing_minus(a1, b1) - pairing_minus(a2, b2),
            pairing_minus(a1, b2) + pairing_minus(a2, b1))
        assert is_zero(pairing - expected)


def _split_coefficients(dirac, psi):
    """The frame coefficients of ``psi`` by two real solves, one for its
    real part and one for its imaginary part."""
    parts = []
    for part in (psi.map_coeffs(real_part), psi.map_coeffs(imag_part)):
        if part.is_zero_section():
            parts.append((as_expr(0),) * dirac.dim)
            continue
        cert = quantize.membership(dirac, part)
        assert cert.ok
        parts.append(tuple(cert.solution))
    return tuple(ComplexExpr(a, b) for a, b in zip(*parts))


@pytest.mark.parametrize("dirac_name", ["standard_dirac", "presymplectic_r4"])
def test_complex_coefficients_match_the_real_imaginary_split(request,
                                                             dirac_name):
    dirac = request.getfixturevalue(dirac_name)
    chart = dirac.chart
    x = [Expr(c) for c in chart.coords]
    scalars = [ComplexExpr(x[0], x[-1]), as_expr(3) * x[1],
               ComplexExpr(as_expr(1), as_expr(0), x[0] / 2), I,
               ComplexExpr(x[1], as_expr(-1), x[0] * x[1])]
    zeros = [as_expr(0)] * (dirac.dim - 1)
    cases = [(zero_section(chart), [as_expr(0)] + zeros),
             (dirac.frame[0], [as_expr(1)] + zeros)]
    for shift in range(3):
        chosen = (scalars[shift:] + scalars[:shift])[:dirac.dim]
        psi = zero_section(chart)
        for e, c in zip(dirac.frame, chosen):
            psi = psi + e.scale(c)
        cases.append((psi, chosen))
    for psi, chosen in cases:
        coeffs = quantize.dirac_complex_coefficients(dirac, psi)
        reference = _split_coefficients(dirac, psi)
        assert len(coeffs) == len(reference) == dirac.dim
        assert all(equal(a, b) for a, b in zip(coeffs, reference))
        assert all(equal(a, c) for a, c in zip(coeffs, chosen))


def test_quadrature_check_makes_no_float_quadrature(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("mpmath.quad called")

    monkeypatch.setattr(mpmath, "quad", refused)
    text = (Path(__file__).resolve().parent.parent / "models"
            / "standard_r2.dq").read_text()
    report = run_checks(parse_model(text, "standard_r2"),
                        suites=["quantize"], seed=7)
    row, = (c for c in report.checks if c.name == "quantize/quadrature")
    assert (row.status, row.witness) == ("pass", "volume 1.0")


def test_zero_parts_need_no_membership_solve(monkeypatch):
    """A real section has the zero section as its imaginary part; its frame
    coefficients are zero without a membership solve."""
    solve = quantize.membership
    zero_targets = []

    def counted(dirac, section):
        zero_targets.append(section.is_zero_section())
        return solve(dirac, section)

    monkeypatch.setattr(quantize, "membership", counted)
    text = (Path(__file__).resolve().parent.parent / "models"
            / "standard_r2.dq").read_text()
    report = run_checks(parse_model(text, "standard_r2"),
                        suites=["quantize"], seed=7)
    assert report.exit_code == 0
    assert zero_targets and not any(zero_targets)
