from __future__ import annotations

import itertools
from pathlib import Path

import pytest

import diracq.dirac as dirac_module
from diracq import linalg
from diracq.chart import Chart, KForm, KVector, VectorField, lie_derivative_form
from diracq.checks import Resolver, run_checks
from diracq.dirac import (
    AdmissibleRangeError,
    DiracConstructionError,
    DiracStructure,
    Section,
    courant_bracket,
    graph_poisson,
    graph_presymplectic,
    membership,
    omega_on_frame,
    pairing_minus,
    pairing_plus,
    pi_sharp,
    pi_sharp_morphism,
    regular_distribution,
)
from diracq.dsl import SUITES, parse_model
from diracq.expr import Expr, ZERO, as_expr, equal, is_zero
from diracq.randgen import random_polynomial, rng_for


def section_equal(a: Section, b: Section) -> bool:
    diff = a - b
    return diff.is_zero_section()


@pytest.fixture
def std_sections(r2):
    e1 = Section(r2.basis_vector(0), r2.basis_covector(1))       # (d_q, dp)
    e2 = Section(r2.basis_vector(1), -r2.basis_covector(0))      # (d_p, -dq)
    return e1, e2


class TestPairings:
    def test_plus_on_symplectic_frame(self, std_sections):
        e1, e2 = std_sections
        assert is_zero(pairing_plus(e1, e2))

    def test_plus_self(self, r2, std_sections):
        # (d_q, dq) pairs with itself to (1 + 1)/2 = 1
        a = Section(r2.basis_vector(0), r2.basis_covector(0))
        assert equal(pairing_plus(a, a), 1)
        # frame sections of a Dirac structure are isotropic
        e1, _ = std_sections
        assert is_zero(pairing_plus(e1, e1))

    def test_plus_symmetric(self, r2):
        rng = rng_for(1, "pair")
        for _ in range(4):
            a = Section(VectorField(r2, (random_polynomial(rng, r2, 2, 2),
                                         random_polynomial(rng, r2, 2, 2))),
                        KForm(r2, 1, {(0,): random_polynomial(rng, r2, 2, 2)}))
            b = Section(VectorField(r2, (random_polynomial(rng, r2, 2, 2),
                                         random_polynomial(rng, r2, 2, 2))),
                        KForm(r2, 1, {(1,): random_polynomial(rng, r2, 2, 2)}))
            assert equal(pairing_plus(a, b), pairing_plus(b, a))
            assert equal(pairing_minus(a, b), -pairing_minus(b, a))

    def test_minus_values(self, std_sections):
        e1, e2 = std_sections
        assert equal(pairing_minus(e1, e2), 1)
        assert is_zero(pairing_minus(e1, e1))


class TestCourantBracket:
    def test_rescaled_section(self, r2, std_sections):
        e1, _ = std_sections
        q = Expr(r2.coords[0])
        scaled = Section(e1.X.scale(q), e1.xi.scale(q))
        # oracle: [d_q, q d_q] = d_q, L_{d_q}(q dp) = dp, i_{q d_q} d(dp) = 0
        assert section_equal(courant_bracket(e1, scaled), e1)

    def test_self_bracket(self, std_sections):
        e1, _ = std_sections
        assert courant_bracket(e1, e1).is_zero_section()

    def test_constant_sections(self, r2):
        a = Section(r2.basis_vector(0), KForm(r2, 1, {}))
        b = Section(r2.basis_vector(1), KForm(r2, 1, {}))
        assert courant_bracket(a, b).is_zero_section()


class TestGraphPresymplectic:
    def test_standard_frame(self, standard_dirac, std_sections):
        e1, e2 = std_sections
        assert section_equal(standard_dirac.frame[0], e1)
        assert section_equal(standard_dirac.frame[1], e2)

    def test_degenerate_4d_matrix(self, presymplectic_r4):
        # columns of the flat map in the coordinate coframe
        expected = [[0, -1, 0, -1], [1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]
        for row in range(4):
            for col in range(4):
                got = presymplectic_r4.frame[col].xi.coeff((row,))
                assert equal(got, expected[row][col])

    def test_zero_form_gives_tangent(self, r2):
        dirac = graph_presymplectic(KForm(r2, 2, {}))
        for i, section in enumerate(dirac.frame):
            assert section.xi.is_zero_tensor()
            assert equal(section.X.components[i], 1)

    def test_non_closed_rejected(self):
        # the graph is built; verify() rejects it, since d(omega) != 0
        chart = Chart("R3", ("x1", "x2", "x3"))
        omega = KForm(chart, 2, {(0, 1): Expr(chart.coords[2]) ** 2})
        report = graph_presymplectic(omega).verify()
        assert report.d3_ok is False
        assert "not in span" in report.d3_witness


class TestGraphPoisson:
    def test_standard_frame(self, r2):
        dirac = graph_poisson(KVector(r2, 2, {(0, 1): 1}))
        assert section_equal(dirac.frame[0],
                             Section(-r2.basis_vector(1), r2.basis_covector(0)))
        assert section_equal(dirac.frame[1],
                             Section(r2.basis_vector(0), r2.basis_covector(1)))

    def test_g_coefficient_frame(self, g_poisson, g_chart):
        big_g = Expr(g_chart.coords[0]) ** 2 + Expr(g_chart.coords[1]) ** 2
        # (G(b d_1 - a d_2), a dx1 + b dx2) with (a, b) = (1, 0) and (0, 1)
        assert section_equal(
            g_poisson.frame[0],
            Section(g_chart.basis_vector(1).scale(-big_g), g_chart.basis_covector(0)))
        assert section_equal(
            g_poisson.frame[1],
            Section(g_chart.basis_vector(0).scale(big_g), g_chart.basis_covector(1)))

    def test_zero_bivector_gives_cotangent(self, r2):
        dirac = graph_poisson(KVector(r2, 2, {}))
        for i, section in enumerate(dirac.frame):
            assert section.X.is_zero_field()
            assert equal(section.xi.coeff((i,)), 1)

    def test_non_poisson_rejected(self):
        chart = Chart("R4", ("x1", "x2", "x3", "x4"))
        x1, x3 = chart.coords[0], chart.coords[2]
        pi = KVector(chart, 2, {(0, 1): 1, (2, 3): Expr(x1)})
        report = graph_poisson(pi).verify()
        assert report.d3_ok is False
        assert "not in span" in report.d3_witness


class TestRegularDistribution:
    def test_single_line(self):
        chart = Chart("F", ("x1", "x2"))
        dirac = regular_distribution([chart.basis_vector(0)])
        assert dirac.verify().passed
        assert section_equal(dirac.frame[1],
                             Section(VectorField(chart, (ZERO, ZERO)),
                                     chart.basis_covector(1)))

    def test_plane_in_r3(self):
        chart = Chart("F3", ("x1", "x2", "x3"))
        dirac = regular_distribution([chart.basis_vector(0), chart.basis_vector(1)])
        assert dirac.verify().passed
        assert equal(dirac.frame[2].xi.coeff((2,)), 1)

    def test_sheared_line_annihilator(self):
        chart = Chart("F2", ("x1", "x2"))
        x1 = Expr(chart.coords[0])
        field = VectorField(chart, (as_expr(1), x1))
        dirac = regular_distribution([field])
        eta = dirac.frame[1].xi
        assert is_zero(eta.evaluate([field]))
        assert dirac.verify().passed

    def test_non_involutive_rejected(self):
        chart = Chart("H", ("x", "y", "z"))
        x = Expr(chart.coords[0])
        f1 = chart.basis_vector(0)
        f2 = VectorField(chart, (ZERO, as_expr(1), x))  # d_y + x d_z
        report = regular_distribution([f1, f2]).verify()
        assert report.d3_ok is False
        assert "not in span" in report.d3_witness


def test_constructors_keep_their_structural_errors():
    chart = Chart("R2", ("x1", "x2"))
    with pytest.raises(DiracConstructionError, match="degree 2"):
        graph_presymplectic(chart.basis_covector(0))
    with pytest.raises(DiracConstructionError, match="degree 2"):
        graph_poisson(KVector(chart, 1, {(0,): 1}))
    with pytest.raises(DiracConstructionError, match="at least one field"):
        regular_distribution([])
    with pytest.raises(DiracConstructionError, match="dependent"):
        regular_distribution([chart.basis_vector(0),
                              chart.basis_vector(0).scale(2)])


class TestVerify:
    def test_standard_passes(self, standard_dirac):
        report = standard_dirac.verify()
        assert report.passed
        assert report.d2_rank == 2

    def test_isotropy_failure_witness(self):
        chart = Chart("L", ("x",))
        bad = DiracStructure(chart, [Section(chart.basis_vector(0),
                                             chart.basis_covector(0))])
        report = bad.verify()
        assert not report.d1_ok
        assert "1" in report.d1_witness

    def test_r3_frame_closure(self):
        chart = Chart("R3", ("x1", "x2", "x3"))
        x1 = Expr(chart.coords[0])
        e1 = Section(chart.basis_vector(0), KForm(chart, 1, {}))
        e2 = Section(chart.basis_vector(1), chart.basis_covector(2).scale(x1))
        e3 = Section(VectorField(chart, (ZERO, ZERO, ZERO)), chart.basis_covector(2))
        dirac = DiracStructure(chart, [e1, e2, e3])
        bracket = courant_bracket(e1, e2)
        assert section_equal(bracket, e3)
        assert membership(dirac, bracket).ok
        assert dirac.verify().d3_ok

    def test_kernel_dimensions_presymplectic(self, presymplectic_r4):
        report = presymplectic_r4.verify()
        assert report.passed
        assert report.dim_characteristic == 4
        assert report.dim_tangent_kernel == 2
        assert report.dim_admissible_covectors == 2
        assert report.dim_cotangent_kernel == 0

    def test_kernel_equations_fail_on_rank_deficient_frame(self):
        # the isotropic frame (d_x1, 0), (2 d_x1, 0) spans one line: both
        # kernel combinations exist, but D n T*M = 0 and D n TM has dim 1
        model = parse_model("chart R2 dim 2 coords x1 x2\n"
                            "section s1 = (d_x1, 0*dx1)\n"
                            "section s2 = (2*d_x1, 0*dx1)\n"
                            "dirac D = frame(s1, s2)\n")
        records = {c.name: c for c in run_checks(model, ["dirac"], seed=7).checks}
        kernel = records["dirac/kernel-equations"]
        assert records["dirac/D1-isotropy"].status == "pass"
        assert kernel.status == "fail"
        assert "dim D^T*M=0" in kernel.witness
        assert "dim D^TM=1" in kernel.witness

    def test_integrability_builds_each_lie_derivative_once(
            self, presymplectic_r4, monkeypatch):
        calls = []

        def counted(X, xi):
            calls.append((X, xi))
            return lie_derivative_form(X, xi)

        monkeypatch.setattr(dirac_module, "lie_derivative_form", counted)
        n = presymplectic_r4.dim
        assert presymplectic_r4.verify().lemma_ok
        # n^2 for the identity, one per D3 bracket
        assert len(calls) == n * n + n * (n - 1) // 2

    def test_integrability_witness_is_the_first_failing_triple(self):
        chart = Chart("R3", ("x1", "x2", "x3"))
        frame = graph_presymplectic(KForm(chart, 2, {(1, 2): Expr(
            chart.coords[0])})).frame
        dirac = DiracStructure(chart, frame)
        first = None
        for i, j, k in itertools.product(range(3), repeat=3):
            total = sum((lie_derivative_form(frame[a].X, frame[b].xi)
                         .evaluate([frame[c].X])
                         for a, b, c in ((i, j, k), (j, k, i), (k, i, j))),
                        ZERO)
            if not is_zero(total):
                first = f"triple (e{i+1},e{j+1},e{k+1}) residual {total}"
                break
        report = dirac.verify()
        assert first is not None and not report.lemma_ok
        assert report.lemma_witness == first

    def test_degeneracy_locus_is_printed_only_when_read(self, monkeypatch):
        chart = Chart("M", ("q", "p"))
        q, p = (Expr(c) for c in chart.coords)
        dirac = graph_poisson(KVector(chart, 2, {(0, 1): q * p + 1}))
        node = Expr.node

        def no_tree(self):
            raise AssertionError("a sympy tree was built")

        monkeypatch.setattr(Expr, "node", property(no_tree))
        report = dirac.verify()
        monkeypatch.setattr(Expr, "node", node)
        assert report.passed
        assert report.degeneracy_locus == ("-p**2*q**2 - 2*p*q - 1",
                                           "-p*q - 1")


class TestMembership:
    def test_frame_element(self, standard_dirac):
        cert = membership(standard_dirac, standard_dirac.frame[0])
        assert cert.ok
        assert equal(cert.solution[0], 1) and is_zero(cert.solution[1])

    def test_negative(self, standard_dirac, r2):
        cert = membership(standard_dirac,
                          Section(r2.basis_vector(0), r2.basis_covector(0)))
        assert not cert.ok
        assert cert.witness is not None

    def test_round_trip_random_coefficients(self, standard_dirac, r2):
        rng = rng_for(12, "member")
        coeffs = (random_polynomial(rng, r2, 2, 2),
                  random_polynomial(rng, r2, 2, 2))
        section = standard_dirac.section_from_coefficients(coeffs)
        cert = membership(standard_dirac, section)
        assert cert.ok
        for got, want in zip(cert.solution, coeffs):
            assert equal(got, want)


class TestOmegaAndPi:
    def test_omega_values(self, standard_dirac):
        table = omega_on_frame(standard_dirac)
        assert equal(table[(0, 1)], 1)
        assert is_zero(table[(0, 0)])

    def test_omega_zero_distribution(self, r2):
        dirac = graph_poisson(KVector(r2, 2, {}))
        table = omega_on_frame(dirac)
        assert all(is_zero(v) for v in table.values())

    def test_pi_sharp_solves(self, standard_dirac, r2):
        out = pi_sharp(standard_dirac, r2.basis_covector(0))
        assert equal(out.components[1], -1) and is_zero(out.components[0])
        out2 = pi_sharp(standard_dirac, r2.basis_covector(1))
        assert equal(out2.components[0], 1) and is_zero(out2.components[1])

    def test_pi_sharp_range_error(self):
        chart = Chart("F", ("x1", "x2"))
        dirac = regular_distribution([chart.basis_vector(0)])
        with pytest.raises(AdmissibleRangeError):
            pi_sharp(dirac, chart.basis_covector(0))

    def test_morphism_law(self, standard_dirac, g_poisson, presymplectic_r4):
        for dirac in (standard_dirac, g_poisson, presymplectic_r4):
            assert pi_sharp_morphism(dirac)

    def test_lambda_equals_omega_on_frames(self, standard_dirac):
        table = omega_on_frame(standard_dirac)
        frame = standard_dirac.frame
        for i in range(2):
            for j in range(2):
                assert equal(pairing_minus(frame[i], frame[j]), table[(i, j)])


def test_constructed_structures_verify(standard_dirac, presymplectic_r4,
                                       g_poisson):
    chart = Chart("F3", ("x1", "x2", "x3"))
    foliation = regular_distribution([chart.basis_vector(0),
                                      chart.basis_vector(1)])
    for dirac in (standard_dirac, presymplectic_r4, g_poisson, foliation):
        assert dirac.verify().passed


def test_tangent_kernel_is_factored_once(monkeypatch):
    """Every suite on the degenerate presymplectic model factors the columns
    of V = D n TM once, in ``DiracStructure.tangent_span``: verification and
    the morphism row read the same span.  (On the foliation model V equals
    the declared distribution and the complement is empty, so the
    constructor and the complement's overlap check factor the same values.)"""
    text = (Path(__file__).resolve().parent.parent / "models"
            / "presymplectic_r4.dq").read_text()
    kernel = [list(v.components)
              for v in Resolver(parse_model(text)).dirac().tangent_kernel]
    assert len(kernel) == 2
    factored = []
    factor = linalg.echelon

    def counted(columns, height):
        factored.append([list(c) for c in columns])
        return factor(columns, height)

    monkeypatch.setattr(linalg, "echelon", counted)
    report = run_checks(parse_model(text), list(SUITES), seed=7)
    assert report.exit_code == 0
    assert factored.count(kernel) == 1
