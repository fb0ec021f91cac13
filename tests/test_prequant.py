from __future__ import annotations

from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import diracq.expr as expr_module
import diracq.prequant as prequant_module
from diracq.algebroid import AForm, aform_equal, d_A, dirac_presentation, rho_pullback_form
from diracq.chart import Chart, KForm, KVector, VectorField, exterior_derivative
from diracq.checks import run_checks
from diracq.dirac import graph_poisson, regular_distribution
from diracq.dsl import SUITES, parse_model
from diracq.expr import ComplexExpr, Expr, as_expr, equal, is_zero
from diracq.hamiltonian import default_complement, hamiltonian_H
from diracq.prequant import (
    TWO_PI_I,
    AtlasError,
    BundleAtlas,
    IntegralityError,
    LineSection,
    build_prequantization,
    dirac_chern_check,
    hermitian_check,
    lambda_Dform,
    line_section_from_patch,
    prequant_condition,
    prequant_operator,
    transition_exp,
)
from diracq.randgen import random_polynomial, rng_for

from helpers import perfbench_module

MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture
def std_atlas(standard_dirac, r2):
    p = Expr(r2.coords[1])
    sigma = rho_pullback_form(r2.basis_covector(0).scale(-p), standard_dirac)
    return BundleAtlas(standard_dirac, ("U",), {}, {"U": sigma},
                       hermitian=True)


@pytest.fixture
def std_complement(standard_dirac):
    return default_complement(standard_dirac)


class TestCurvature2Section:
    def test_momentum_primitive(self, std_atlas, standard_dirac, r2):
        tau = std_atlas.curvature
        omega = r2.basis_covector(0).wedge(r2.basis_covector(1))
        assert aform_equal(tau, rho_pullback_form(omega, standard_dirac))

    def test_zero_sigma(self, standard_dirac):
        pres = dirac_presentation(standard_dirac)
        atlas = BundleAtlas(standard_dirac, ("U",), {},
                            {"U": AForm(pres, 1, {})}, hermitian=True)
        assert atlas.curvature.is_zero_form()

    def test_exact_sigma(self, standard_dirac, r2):
        pres = dirac_presentation(standard_dirac)
        u = random_polynomial(rng_for(40, "u"), r2, 3, 2)
        atlas = BundleAtlas(standard_dirac, ("U",), {}, {"U": d_A(u, pres)})
        assert atlas.curvature.is_zero_form()


class TestDiracChern:
    def test_same_atlas_gives_zero(self, std_atlas):
        assert dirac_chern_check(std_atlas, std_atlas).is_zero_form()

    def test_exact_shift(self, std_atlas, standard_dirac, r2):
        pres = dirac_presentation(standard_dirac)
        u = Expr(r2.coords[0]) ** 2 * Expr(r2.coords[1])
        shifted = BundleAtlas(standard_dirac, ("U",), {},
                              {"U": std_atlas.sigma["U"] + d_A(u, pres)},
                              hermitian=True)
        hat = dirac_chern_check(std_atlas, shifted)
        assert aform_equal(hat, d_A(u, pres))

    def test_closed_non_exact_shift(self, std_atlas, standard_dirac, r2):
        q, p = (Expr(s) for s in r2.coords)
        denom = q ** 2 + p ** 2
        alpha = KForm(r2, 1, {(0,): -p / denom, (1,): q / denom})
        assert exterior_derivative(alpha).is_zero_tensor()
        pulled = rho_pullback_form(alpha, standard_dirac)
        shifted = BundleAtlas(standard_dirac, ("U",), {},
                              {"U": std_atlas.sigma["U"] + pulled},
                              hermitian=True)
        hat = dirac_chern_check(std_atlas, shifted)
        assert aform_equal(hat, pulled)
        assert aform_equal(shifted.curvature, std_atlas.curvature)


class TestLambda:
    def test_standard_value(self, standard_dirac):
        lam = lambda_Dform(standard_dirac)
        assert equal(lam.coeff((0, 1)), 1)

    def test_poisson_value(self, g_poisson, g_chart):
        lam = lambda_Dform(g_poisson)
        x1, x2 = (Expr(s) for s in g_chart.coords)
        # Lambda on the graph frame equals the bivector on the coframe
        assert equal(lam.coeff((0, 1)), x1 ** 2 + x2 ** 2)

    def test_foliation_vanishes(self, r2):
        chart = Chart("F", ("x1", "x2"))
        for dirac in (regular_distribution([chart.basis_vector(0)]),
                      graph_poisson(KVector(r2, 2, {}))):
            assert lambda_Dform(dirac).is_zero_form()

    def test_closed_for_all_shipped(self, standard_dirac, presymplectic_r4,
                                    g_poisson):
        for dirac in (standard_dirac, presymplectic_r4, g_poisson):
            assert d_A(lambda_Dform(dirac)).is_zero_form()


class TestPrequantCondition:
    def test_momentum_primitive_passes(self, std_atlas):
        assert prequant_condition(std_atlas).ok

    def test_doubled_sigma_fails_with_unit_residual(self, standard_dirac, r2):
        p = Expr(r2.coords[1])
        sigma = rho_pullback_form(r2.basis_covector(0).scale(-2 * p),
                                  standard_dirac)
        atlas = BundleAtlas(standard_dirac, ("U",), {}, {"U": sigma},
                            hermitian=True)
        result = prequant_condition(atlas)
        assert not result.ok
        assert equal(result.residual.coeff((0, 1)), 1)

    def test_foliation_zero_sigma_passes(self):
        chart = Chart("F", ("x1", "x2"))
        dirac = regular_distribution([chart.basis_vector(0)])
        pres = dirac_presentation(dirac)
        atlas = BundleAtlas(dirac, ("U",), {}, {"U": AForm(pres, 1, {})},
                            hermitian=True)
        assert prequant_condition(atlas).ok


class TestPrequantOperator:
    def test_constant_scales(self, std_atlas, std_complement):
        s = line_section_from_patch(std_atlas, "U", 1)
        out = prequant_operator(as_expr(3), std_atlas, std_complement, s)
        expected = ComplexExpr(as_expr(0), -6 * Expr(__import__("sympy").pi))
        assert is_zero(out["U"] - expected)

    def test_position_on_unit_section(self, std_atlas, std_complement, r2):
        q = Expr(r2.coords[0])
        s = line_section_from_patch(std_atlas, "U", 1)
        out = prequant_operator(q, std_atlas, std_complement, s)
        import sympy as sp
        expected = ComplexExpr(as_expr(0), Expr(-2 * sp.pi * r2.coords[0]))
        assert is_zero(out["U"] - expected)

    def test_commutator_equals_bracket_operator(self, std_atlas,
                                                std_complement, standard_dirac,
                                                r2):
        from diracq.hamiltonian import bracket_omega
        rng = rng_for(41, "comm")
        s = line_section_from_patch(std_atlas, "U", 1)
        for _ in range(5):
            f = random_polynomial(rng, r2, 3, 2)
            g = random_polynomial(rng, r2, 3, 2)
            fg = bracket_omega(standard_dirac, std_complement, f, g)
            lhs = prequant_operator(
                f, std_atlas, std_complement,
                prequant_operator(g, std_atlas, std_complement, s)) \
                - prequant_operator(
                    g, std_atlas, std_complement,
                    prequant_operator(f, std_atlas, std_complement, s))
            rhs = prequant_operator(fg, std_atlas, std_complement, s)
            assert (lhs - rhs).is_zero_section()

    def test_commutator_residual_appears_when_condition_fails(
            self, standard_dirac, std_complement, r2):
        from diracq.hamiltonian import bracket_omega
        p = Expr(r2.coords[1])
        sigma = rho_pullback_form(r2.basis_covector(0).scale(-2 * p),
                                  standard_dirac)
        atlas = BundleAtlas(standard_dirac, ("U",), {}, {"U": sigma},
                            hermitian=True)
        s = line_section_from_patch(atlas, "U", 1)
        q = Expr(r2.coords[0])
        fg = bracket_omega(standard_dirac, std_complement, q, p)
        lhs = prequant_operator(
            q, atlas, std_complement,
            prequant_operator(p, atlas, std_complement, s)) \
            - prequant_operator(
                p, atlas, std_complement,
                prequant_operator(q, atlas, std_complement, s))
        rhs = prequant_operator(fg, atlas, std_complement, s)
        assert not (lhs - rhs).is_zero_section()


def _doubled(standard_dirac, r2):
    """The standard structure with twice the momentum primitive: it fails
    the prequantization condition."""
    p = Expr(r2.coords[1])
    sigma = rho_pullback_form(r2.basis_covector(0).scale(-2 * p),
                              standard_dirac)
    return BundleAtlas(standard_dirac, ("U",), {}, {"U": sigma},
                       hermitian=True)


class TestMemos:
    def test_image_equals_a_fresh_computation(self, std_atlas, std_complement,
                                              standard_dirac, r2):
        q, p = (Expr(c) for c in r2.coords)
        z = ComplexExpr(q * p + 1, q)
        s = line_section_from_patch(std_atlas, "U", z)
        first = prequant_operator(q, std_atlas, std_complement, s)
        again = prequant_operator(q, std_atlas, std_complement, s)
        assert again.coeffs == first.coeffs
        h_q, coeffs = hamiltonian_H(standard_dirac, std_complement, q)
        nabla = ComplexExpr.of(h_q.apply(z)) \
            + TWO_PI_I * (std_atlas.sigma["U"].evaluate_coefficients(coeffs) * z)
        expected = -nabla - TWO_PI_I * (ComplexExpr.of(q) * z)
        assert is_zero(first["U"] - expected)
        fresh = BundleAtlas(standard_dirac, ("U",), {}, dict(std_atlas.sigma),
                            hermitian=True)
        image = prequant_operator(q, fresh, std_complement,
                                  line_section_from_patch(fresh, "U", z))
        assert image.coeffs == first.coeffs
        assert list(std_atlas.operators) == [(std_complement, q)]

    def test_atlases_over_one_structure_share_nothing(
            self, std_atlas, std_complement, standard_dirac, r2):
        doubled = _doubled(standard_dirac, r2)
        p = Expr(r2.coords[1])             # sigma(H_p, dp) is not zero
        images = [prequant_operator(p, atlas, std_complement,
                                    line_section_from_patch(atlas, "U", 1))
                  for atlas in (std_atlas, doubled)]
        assert not (images[0] - LineSection(std_atlas, images[1].coeffs)
                    ).is_zero_section()
        key = (std_complement, p)
        assert std_atlas.operators[key] is not doubled.operators[key]
        assert prequant_condition(std_atlas).ok
        assert not prequant_condition(doubled).ok

    def test_condition_and_skew_pairing_are_kept(self, standard_dirac, r2):
        doubled = _doubled(standard_dirac, r2)
        assert "curvature" not in vars(doubled)
        assert standard_dirac.lambda_form is None
        result = prequant_condition(doubled)
        assert not result.ok
        assert vars(doubled)["curvature"] is doubled.curvature
        assert lambda_Dform(standard_dirac) is standard_dirac.lambda_form

    def test_a_failed_condition_is_raised_again(self, standard_dirac, r2):
        pres = dirac_presentation(standard_dirac)
        q = Expr(r2.coords[0])
        atlas = BundleAtlas(standard_dirac, ("U",), {},
                            {"U": AForm(pres, 1, {(1,): ComplexExpr(as_expr(0), q)})},
                            hermitian=True)
        for _ in range(2):
            with pytest.raises(AtlasError, match="non-real curvature"):
                prequant_condition(atlas)
        assert "curvature" not in vars(atlas)

    def test_a_cech_run_differentiates_each_sigma_once(self, monkeypatch):
        # to check it is a local primitive of Lambda; the curvature that
        # every row reads keeps that differential
        differentiated = []
        d_A_module = prequant_module.d_A

        def counted(form, *args):
            if isinstance(form, AForm) and form.degree == 1:
                differentiated.append(form)
            return d_A_module(form, *args)

        monkeypatch.setattr(prequant_module, "d_A", counted)
        model = parse_model((MODELS / "cech_three_patch.dq").read_text())
        run_checks(model, suites=list(SUITES), seed=7)
        assert len(differentiated) == len(model.patches) == 3


class TestHermitian:
    def test_real_sigma_residual_zero(self, std_atlas, std_complement, r2):
        rng = rng_for(42, "herm")
        for f in (Expr(r2.coords[0]), random_polynomial(rng, r2, 3, 2)):
            s1 = line_section_from_patch(
                std_atlas, "U", ComplexExpr(random_polynomial(rng, r2, 2, 2),
                                            random_polynomial(rng, r2, 2, 2)))
            s2 = line_section_from_patch(
                std_atlas, "U", ComplexExpr(random_polynomial(rng, r2, 2, 2),
                                            random_polynomial(rng, r2, 2, 2)))
            residuals = hermitian_check(std_atlas, std_complement, f, s1, s2)
            assert all(is_zero(v) for v in residuals.values())

    def test_imaginary_sigma_detected(self, standard_dirac, std_complement, r2):
        pres = dirac_presentation(standard_dirac)
        q, p = (Expr(s) for s in r2.coords)
        sigma = AForm(pres, 1, {(0,): ComplexExpr(-p, q)})
        atlas = BundleAtlas(standard_dirac, ("U",), {}, {"U": sigma},
                            hermitian=True)
        s1 = line_section_from_patch(atlas, "U", ComplexExpr(q, p))
        s2 = line_section_from_patch(atlas, "U", ComplexExpr(q * p, as_expr(1)))
        residuals = hermitian_check(atlas, std_complement, p, s1, s2)
        assert not all(is_zero(v) for v in residuals.values())

    @staticmethod
    def _by_definition(atlas, complement, f, s1, s2):
        """``H_f h(s1, s2) - h(nabla s1, s2) - h(s1, nabla s2)`` with
        ``nabla = nabla_{(H_f, df)}``, written out patch by patch."""
        h_f, coeffs = hamiltonian_H(atlas.dirac, complement, f)
        out = {}
        for patch in atlas.patches:
            z1, z2 = s1[patch], s2[patch]
            sigma = atlas.sigma[patch].evaluate_coefficients(coeffs)
            n1, n2 = (ComplexExpr.of(h_f.apply(z)) + TWO_PI_I * (sigma * z)
                      for z in (z1, z2))
            out[patch] = ComplexExpr.of(h_f.apply(z1.conj() * z2)) \
                - n1.conj() * z2 - z1.conj() * n2
        return out

    def test_residuals_equal_the_definition(self, std_atlas, standard_dirac,
                                            std_complement, r2):
        pres = dirac_presentation(standard_dirac)
        q, p = (Expr(s) for s in r2.coords)
        imaginary = BundleAtlas(standard_dirac, ("U",), {},
                                {"U": AForm(pres, 1, {(0,): ComplexExpr(-p, q)})},
                                hermitian=True)
        for atlas in (std_atlas, imaginary):
            s1 = line_section_from_patch(atlas, "U", ComplexExpr(q, p))
            s2 = line_section_from_patch(atlas, "U", ComplexExpr(q * p, as_expr(1)))
            for f in (p, q * p + q):
                residuals = hermitian_check(atlas, std_complement, f, s1, s2)
                expected = self._by_definition(atlas, std_complement, f, s1, s2)
                assert set(residuals) == set(expected)
                assert all(is_zero(residuals[k] - expected[k]) for k in expected)

    def test_a_shared_pairing_is_differentiated_once(
            self, standard_dirac, std_complement, r2, monkeypatch):
        # the phases of conj(z1) and z2 cancel, so the pairing is one value
        # on all three patches of this Cech atlas
        pres = dirac_presentation(standard_dirac)
        q, p = (Expr(c) for c in r2.coords)
        base = rho_pullback_form(r2.basis_covector(0).scale(-p), standard_dirac)
        atlas = build_prequantization(
            standard_dirac, ["U1", "U2", "U3"],
            {"U1": base, "U2": base - d_A(q, pres), "U3": base},
            {("U1", "U2"): q, ("U2", "U3"): -q, ("U1", "U3"): as_expr(0)})
        s1 = line_section_from_patch(atlas, "U1", ComplexExpr(q, p))
        s2 = line_section_from_patch(atlas, "U1", ComplexExpr(q * p, as_expr(1)))
        pairing = atlas.hermitian_product(s1["U1"], s2["U1"])
        assert all(atlas.hermitian_product(s1[k], s2[k]) == pairing
                   for k in atlas.patches)
        f = q * p + q
        expected = self._by_definition(atlas, std_complement, f, s1, s2)
        applied = []
        apply = VectorField.apply
        monkeypatch.setattr(VectorField, "apply",
                            lambda field, g: applied.append(g) or apply(field, g))
        residuals = hermitian_check(atlas, std_complement, f, s1, s2)
        assert applied.count(pairing) == 1
        assert set(residuals) == set(expected)
        assert all(is_zero(residuals[k] - expected[k]) for k in expected)

    def test_same_section_constant_function(self, std_atlas, std_complement):
        s = line_section_from_patch(std_atlas, "U", ComplexExpr.of(2))
        residuals = hermitian_check(std_atlas, std_complement, as_expr(7), s, s)
        assert all(is_zero(v) for v in residuals.values())


def assert_glues(section) -> None:
    """The coefficients satisfy ``s_k = g_jk s_j`` on every overlap."""
    atlas = section.atlas
    for j, k in atlas.overlaps():
        assert equal(section[k], atlas.transition(j, k) * section[j]), (j, k)


class TestCechConstruction:
    def _sigmas(self, standard_dirac, r2):
        pres = dirac_presentation(standard_dirac)
        p, q = Expr(r2.coords[1]), Expr(r2.coords[0])
        base = rho_pullback_form(r2.basis_covector(0).scale(-p), standard_dirac)
        return pres, base, q

    def test_linear_cochain_passes(self, standard_dirac, r2):
        pres, base, q = self._sigmas(standard_dirac, r2)
        sigma = {"U1": base, "U2": base - d_A(q, pres), "U3": base}
        w = {("U1", "U2"): q, ("U2", "U3"): -q, ("U1", "U3"): as_expr(0)}
        atlas = build_prequantization(standard_dirac, ["U1", "U2", "U3"],
                                      sigma, w)
        assert atlas.hermitian
        g12 = atlas.transition("U1", "U2")
        expected = transition_exp(q)
        assert is_zero(g12 - expected)
        assert prequant_condition(atlas).ok

    def test_fractional_cochain_obstructed(self, standard_dirac, r2):
        pres, base, _ = self._sigmas(standard_dirac, r2)
        sigma = {"U1": base, "U2": base, "U3": base}
        w = {("U1", "U2"): as_expr(1) / 3, ("U2", "U3"): as_expr(0),
             ("U1", "U3"): as_expr(0)}
        with pytest.raises(IntegralityError) as err:
            build_prequantization(standard_dirac, ["U1", "U2", "U3"], sigma, w)
        assert "1/3" in str(err.value.witness)

    def test_cochain_must_match_sigma_difference(self, standard_dirac, r2):
        pres, base, q = self._sigmas(standard_dirac, r2)
        sigma = {"U1": base, "U2": base}
        w = {("U1", "U2"): q}  # but sigma_1 - sigma_2 = 0 != d_D q
        with pytest.raises(AtlasError):
            build_prequantization(standard_dirac, ["U1", "U2"], sigma, w)

    def test_cocycle_failure_names_its_triple(self, standard_dirac):
        # (U1,U2) is not an overlap, so only {U1,U3,U4} and {U2,U3,U4} are
        # declared triples; g13 * g34 = 1 != g14 breaks the first one only.
        pres = dirac_presentation(standard_dirac)
        patches = ("U1", "U2", "U3", "U4")
        one = ComplexExpr.of(1)
        transitions = {("U1", "U3"): one, ("U1", "U4"): ComplexExpr.of(2),
                       ("U2", "U3"): one, ("U2", "U4"): one, ("U3", "U4"): one}
        with pytest.raises(AtlasError, match=r"cocycle fails on triple \(U1,U3,U4\)"):
            BundleAtlas(standard_dirac, patches, transitions,
                        {name: AForm(pres, 1, {}) for name in patches})

    def test_reverse_transition_must_be_the_inverse(self, standard_dirac):
        pres = dirac_presentation(standard_dirac)
        patches = ("U1", "U2", "U3")
        sigma = {name: AForm(pres, 1, {}) for name in patches}
        one = ComplexExpr.of(1)
        transitions = {("U1", "U2"): one, ("U2", "U3"): one, ("U1", "U3"): one}
        BundleAtlas(standard_dirac, patches,
                    {**transitions, ("U2", "U1"): one}, sigma)
        with pytest.raises(AtlasError, match="not inverse"):
            BundleAtlas(standard_dirac, patches,
                        {**transitions, ("U2", "U1"): ComplexExpr.of(2)}, sigma)

    def test_a_patch_has_no_transition_to_itself(self, std_atlas):
        # g_UU = exp(-2 pi i / 2) = -1 passes the inverse and cocycle tests
        with pytest.raises(AtlasError, match=r"\(U,U\) joins a patch to itself"):
            BundleAtlas(std_atlas.dirac, ("U",),
                        {("U", "U"): transition_exp(as_expr(1) / 2)},
                        dict(std_atlas.sigma))

    def test_gluing_of_line_sections(self, standard_dirac, r2):
        pres, base, q = self._sigmas(standard_dirac, r2)
        sigma = {"U1": base, "U2": base - d_A(q, pres)}
        w = {("U1", "U2"): q}
        atlas = build_prequantization(standard_dirac, ["U1", "U2"], sigma, w)
        section = line_section_from_patch(atlas, "U1", ComplexExpr.of(Expr(r2.coords[0])))
        assert_glues(section)


class TestExactPhases:
    """A cochain atlas keeps its transitions as phases, so no identity on
    it needs the sampled equality."""

    def test_cech_corpus_model_never_samples(self, monkeypatch):
        calls = []
        sampled = expr_module._probabilistic_equal

        def counted(*args, **kwargs):
            calls.append(args)
            return sampled(*args, **kwargs)

        monkeypatch.setattr(expr_module, "_probabilistic_equal", counted)
        model = parse_model((MODELS / "cech_three_patch.dq").read_text())
        report = run_checks(model, suites=list(SUITES), seed=7)
        assert not any(c.status in ("fail", "error") for c in report.checks)
        assert calls == []

    def test_transition_is_a_phase(self, r2):
        q = Expr(r2.coords[0])
        g = transition_exp(q)
        assert g == ComplexExpr(as_expr(1), as_expr(0), q)
        assert is_zero(g.expand() - ComplexExpr(
            Expr(sp.cos(2 * sp.pi * q.node)), Expr(-sp.sin(2 * sp.pi * q.node))))

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), round_index=st.integers(0, 9))
    def test_generated_cech_round_matches_the_oracle(self, seed, round_index):
        families = perfbench_module("families")
        oracle = perfbench_module("oracle")
        for op in families.cech_round(seed, round_index):
            model = parse_model(op["text"], name=op["name"])
            report = run_checks(model, suites=op["suites"], seed=7, trials=2)
            checks = report.to_dict()["checks"]
            assert not any(c["status"] == "error" for c in checks), op["name"]
            assert oracle.judge(checks, oracle.expect_generated(op)) is None, \
                op["name"]
