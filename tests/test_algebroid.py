from __future__ import annotations

import itertools

import pytest
import sympy as sp

from diracq.algebroid import (
    AForm,
    AlgebroidPresentation,
    AlgebroidError,
    aform_equal,
    cotangent_algebroid,
    d_A,
    d_D_pair,
    dirac_presentation,
    homotopy_S,
    iota_restrict,
    pr_pullback,
    pullback_over_line,
    rho_pullback_form,
    tangent_algebroid,
    wedge,
)
from diracq.chart import Chart, KForm, KVector, VectorField, exterior_derivative
from diracq.expr import Expr, as_expr, equal, is_zero, symbol
from diracq.randgen import random_kform, random_kvector, random_polynomial, rng_for


def random_aform(rng, presentation, degree, poly_degree=2):
    coeffs = {}
    for key in itertools.combinations(range(presentation.rank), degree):
        coeffs[key] = random_polynomial(rng, presentation.chart,
                                        degree=poly_degree, terms=2)
    return AForm(presentation, degree, coeffs)


class TestDA:
    def test_tangent_reduces_to_de_rham(self, r2):
        pres = tangent_algebroid(r2)
        q = Expr(r2.coords[0])
        theta = AForm(pres, 1, {(1,): q})  # the frame picture of q dp
        out = d_A(theta)
        assert equal(out.coeff((0, 1)), 1)
        chart = Chart("R3", ("x1", "x2", "x3"))
        pres = tangent_algebroid(chart)
        rng = rng_for(21, "de-rham")
        for degree, other in ((0, 1), (1, 1), (1, 2), (2, 1)):
            phi = random_kform(rng, chart, degree)
            psi = random_kform(rng, chart, other)
            a = AForm(pres, degree, phi.coeffs)
            b = AForm(pres, other, psi.coeffs)
            assert aform_equal(d_A(a), AForm(pres, degree + 1,
                                             exterior_derivative(phi).coeffs))
            assert aform_equal(wedge(a, b), AForm(pres, degree + other,
                                                  phi.wedge(psi).coeffs))

    def test_cotangent_zero_form(self, r2):
        pi = KVector(r2, 2, {(0, 1): 1})
        pres = cotangent_algebroid(r2, pi)
        q, p = (Expr(s) for s in r2.coords)
        f = q ** 2 * p
        out = d_A(f, pres)
        for i in range(2):
            expected = pres.anchors[i].apply(f)
            assert equal(out.coeff((i,)), expected)

    def test_dd_zero_on_both_presentations(self, r2, g_chart):
        rng = rng_for(17, "dd")
        pi_std = KVector(r2, 2, {(0, 1): 1})
        x1, x2 = (Expr(s) for s in g_chart.coords)
        pi_g = KVector(g_chart, 2, {(0, 1): x1 ** 2 + x2 ** 2})
        for pres in (tangent_algebroid(r2), cotangent_algebroid(r2, pi_std),
                     cotangent_algebroid(g_chart, pi_g)):
            f = random_polynomial(rng, pres.chart, 3, 2)
            assert d_A(d_A(f, pres)).is_zero_form()

    def test_graded_leibniz(self, standard_dirac):
        pres = dirac_presentation(standard_dirac)
        rng = rng_for(18, "leibniz")
        for _ in range(5):
            a = random_aform(rng, pres, 1)
            b = random_aform(rng, pres, 1)
            lhs = d_A(wedge(a, b))
            rhs = wedge(d_A(a), b) - wedge(a, d_A(b))
            assert aform_equal(lhs, rhs)


class TestDiracPresentation:
    def test_structure_functions_cached(self, standard_dirac):
        pres1 = dirac_presentation(standard_dirac)
        pres2 = dirac_presentation(standard_dirac)
        assert pres1 is pres2

    def test_jacobi_and_anchor_validated(self, g_poisson):
        pres = dirac_presentation(g_poisson)
        pres.validate()

    def test_a_non_poisson_bivector_breaks_the_anchor(self):
        chart = Chart("R3", ("x", "y", "z"))
        x, y, z = (Expr(s) for s in chart.coords)
        pi = KVector(chart, 2, {(0, 1): x, (1, 2): y, (0, 2): -z})
        with pytest.raises(AlgebroidError, match=r"anchor incompatible "
                           r"with the bracket on \(dx,dy\)"):
            cotangent_algebroid(chart, pi)

    def test_constants_that_break_jacobi(self):
        chart = Chart("R1", ("x",))
        e = [tuple(as_expr(int(i == m)) for i in range(3)) for m in range(3)]
        pres = AlgebroidPresentation(
            chart, (VectorField(chart, (as_expr(0),)),) * 3,
            {(0, 1): e[2], (0, 2): e[0], (1, 2): e[1]},
            labels=("e1", "e2", "e3"))
        with pytest.raises(AlgebroidError, match=r"Jacobi identity fails on "
                           r"frame triple \(1,2,3\)"):
            pres.validate()


class TestDDPair:
    def test_function_gives_anchor_derivative(self, standard_dirac, r2):
        q = Expr(r2.coords[0])
        out = d_D_pair(r2.scalar_form(q), KVector(r2, 0, {}), standard_dirac)
        assert equal(out.coeff((0,)), 1)
        assert is_zero(out.coeff((1,)))

    def test_multivector_branch(self, standard_dirac, r2):
        rng = rng_for(19, "pair")
        q = random_kvector(rng, r2, 1)
        out = d_D_pair(KForm(r2, 1, {}), q, standard_dirac)
        assert out is not None

    def test_p_dq_value(self, standard_dirac, r2):
        p = Expr(r2.coords[1])
        phi = r2.basis_covector(0).scale(p)
        out = d_D_pair(phi, KVector(r2, 1, {}), standard_dirac)
        assert equal(out.coeff((0, 1)), -1)

    def test_agrees_with_direct_formula_randomly(self, standard_dirac,
                                                 g_poisson, presymplectic_r4):
        rng = rng_for(20, "dd-pair")
        for dirac in (standard_dirac, g_poisson, presymplectic_r4):
            chart = dirac.chart
            for degree in (0, 1):
                phi = random_kform(rng, chart, degree)
                q = random_kvector(rng, chart, degree)
                d_D_pair(phi, q, dirac)  # raises on mismatch


class TestPullbackLine:
    def test_rank_and_anchor(self, standard_dirac):
        line = pullback_over_line(standard_dirac)
        assert line.rank == 3
        t_anchor = line.anchors[-1]
        assert equal(t_anchor.components[2], 1)
        assert is_zero(t_anchor.components[0]) and is_zero(t_anchor.components[1])

    def test_structure_inherited(self, g_poisson):
        base = dirac_presentation(g_poisson)
        line = pullback_over_line(g_poisson)
        for key, coeffs in base.structure.items():
            lifted = line.structure[key]
            assert len(lifted) == line.rank
            for a, b in zip(coeffs, lifted):
                assert equal(a, b)
            assert is_zero(lifted[-1])

    def test_homotopy_t_dt(self, standard_dirac):
        line = pullback_over_line(standard_dirac)
        t = Expr(symbol("t"))
        omega = AForm(line, 1, {(2,): t})
        out = homotopy_S(omega)
        assert equal(out.coeff(()), t ** 2 / 2)

    def test_homotopy_drops_t_free_terms(self, standard_dirac):
        line = pullback_over_line(standard_dirac)
        omega = AForm(line, 1, {(0,): Expr(symbol("t")) ** 2})
        assert homotopy_S(omega).is_zero_form()

    def test_homotopy_identity_mixed_term(self, standard_dirac):
        line = pullback_over_line(standard_dirac)
        t = Expr(symbol("t"))
        omega = AForm(line, 2, {(0, 2): -t})  # t * dt ^ gamma_1
        lhs = d_A(homotopy_S(omega)) + homotopy_S(d_A(omega))
        rhs = omega - pr_pullback(iota_restrict(omega), line)
        assert aform_equal(lhs, rhs)

    def test_unsupported_integrand(self, standard_dirac):
        line = pullback_over_line(standard_dirac)
        t = symbol("t")
        omega = AForm(line, 1, {(2,): Expr(sp.exp(t))})
        with pytest.raises(AlgebroidError, match="unsupported integrand"):
            homotopy_S(omega)

    def test_pullback_commutes_with_differential(self, standard_dirac, r2):
        line = pullback_over_line(standard_dirac)
        rng = rng_for(22, "pr")
        pres = dirac_presentation(standard_dirac)
        for degree in (0, 1):
            theta = random_aform(rng, pres, degree)
            assert aform_equal(pr_pullback(d_A(theta), line),
                               d_A(pr_pullback(theta, line)))


class TestRhoPullback:
    def test_omega_matches_lambda(self, standard_dirac, r2):
        from diracq.dirac import pairing_minus
        omega = r2.basis_covector(0).wedge(r2.basis_covector(1))
        out = rho_pullback_form(omega, standard_dirac)
        frame = standard_dirac.frame
        assert equal(out.coeff((0, 1)), pairing_minus(frame[0], frame[1]))

    def test_zero_form(self, standard_dirac, r2):
        out = rho_pullback_form(KForm(r2, 2, {}), standard_dirac)
        assert out.is_zero_form()

    def test_commutes_with_d(self, standard_dirac, r2):
        p = Expr(r2.coords[1])
        alpha = r2.basis_covector(0).scale(p)
        lhs = rho_pullback_form(exterior_derivative(alpha), standard_dirac)
        rhs = d_A(rho_pullback_form(alpha, standard_dirac))
        assert aform_equal(lhs, rhs)
