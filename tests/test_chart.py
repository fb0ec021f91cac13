from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
import sympy as sp

from diracq.chart import (
    AlphaDensity,
    Chart,
    KForm,
    KVector,
    VectorField,
    contravariant_derivative,
    exterior_derivative,
    interior_product,
    lie_derivative_density,
    lie_derivative_form,
    sort_sign,
)
from diracq.expr import (
    ComplexExpr,
    Expr,
    ExprError,
    ZERO,
    as_expr,
    equal,
    is_zero,
)
from diracq.randgen import random_kform, random_kvector, random_polynomial, random_vector_field, rng_for


def form_equal(a: KForm, b: KForm) -> bool:
    keys = set(a.coeffs) | set(b.coeffs)
    return all(is_zero(a.coeff(k) - b.coeff(k)) for k in keys)


class TestExteriorDerivative:
    def test_x_dy(self):
        chart = Chart("R2", ("x", "y"))
        phi = chart.basis_covector(1).scale(Expr(chart.coords[0]))
        assert form_equal(exterior_derivative(phi),
                          chart.basis_covector(0).wedge(chart.basis_covector(1)))

    def test_d_squared_zero(self, r2):
        q, p = (s.tree for s in r2.coords)
        f = Expr(q ** 2 * p + sp.sin(q))
        df = exterior_derivative(r2.scalar_form(f))
        assert exterior_derivative(df).is_zero_tensor()

    def test_p_dq(self, r2):
        phi = r2.basis_covector(0).scale(Expr(r2.coords[1]))
        expected = r2.basis_covector(1).wedge(r2.basis_covector(0))
        assert form_equal(exterior_derivative(phi), expected)

    def test_constant_coefficients_are_not_differentiated(self, r2,
                                                          monkeypatch):
        calls = []
        diff = Expr.diff

        def counting(self, sym):
            calls.append(sym)
            return diff(self, sym)

        monkeypatch.setattr(Expr, "diff", counting)
        phi = KForm(r2, 1, {(0,): 1, (1,): Fraction(-3, 2)})
        assert exterior_derivative(phi).is_zero_tensor()
        assert calls == []

    def test_numbers_are_not_differentiated_by_apply_and_divergence(
            self, r2, monkeypatch):
        calls = []
        diff = Expr.diff

        def counting(self, sym):
            calls.append(sym)
            return diff(self, sym)

        monkeypatch.setattr(Expr, "diff", counting)
        q, p = (Expr(s) for s in r2.coords)
        x = VectorField(r2, (p, as_expr(2)))
        assert is_zero(x.apply(3))
        assert is_zero(x.apply(ComplexExpr(as_expr(1), as_expr(-2))))
        constant = VectorField(r2, (as_expr(1), as_expr(Fraction(-3, 2))))
        assert is_zero(constant.divergence())
        assert calls == []
        # a complex scalar with a literally zero imaginary part is real
        assert equal(x.apply(ComplexExpr(q * p, ZERO)), p * p + 2 * q)
        assert len(calls) == r2.dim

    def test_top_degree_gives_empty(self, r2):
        omega = r2.basis_covector(0).wedge(r2.basis_covector(1))
        assert exterior_derivative(omega).coeffs == {}


class TestInteriorProduct:
    def test_first_slot(self, r2):
        omega = r2.basis_covector(0).wedge(r2.basis_covector(1))
        assert form_equal(interior_product(r2.basis_vector(0), omega),
                          r2.basis_covector(1))

    def test_antisymmetry_slot(self, r2):
        omega = r2.basis_covector(0).wedge(r2.basis_covector(1))
        assert form_equal(interior_product(r2.basis_vector(1), omega),
                          -r2.basis_covector(0))

    def test_double_contraction_vanishes(self, r2):
        rng = rng_for(3, "ixix")
        x = random_vector_field(rng, r2)
        phi = random_kform(rng, r2, 2)
        assert interior_product(x, interior_product(x, phi)).is_zero_tensor()

    def test_zero_form_errors(self, r2):
        with pytest.raises(ExprError):
            interior_product(r2.basis_vector(0), r2.scalar_form(as_expr(1)))


class TestLieDerivative:
    def test_constant_direction(self, r2):
        phi = r2.basis_covector(0).scale(Expr(r2.coords[1]))  # p dq
        assert lie_derivative_form(r2.basis_vector(0), phi).is_zero_tensor()

    def test_euler_field(self, r2):
        q = r2.coords[0]
        x = VectorField(r2, (Expr(q), ZERO))
        # hand-expanded Cartan formula: L_{q dq} dq = d(i_{q dq} dq) = dq
        assert form_equal(lie_derivative_form(x, r2.basis_covector(0)),
                          r2.basis_covector(0))

    def test_zero_form_is_directional_derivative(self, r2):
        q, p = (Expr(s) for s in r2.coords)
        f = r2.scalar_form(q * p)
        out = lie_derivative_form(r2.basis_vector(0), f)
        assert equal(out.coeff(()), p)

    def test_commutes_with_d(self, r2):
        rng = rng_for(9, "lxd")
        for _ in range(5):
            x = random_vector_field(rng, r2)
            phi = random_kform(rng, r2, 1)
            lhs = lie_derivative_form(x, exterior_derivative(phi))
            rhs = exterior_derivative(lie_derivative_form(x, phi))
            assert form_equal(lhs, rhs)

    def test_wedge_leibniz(self):
        chart = Chart("R3", ("x1", "x2", "x3"))
        rng = rng_for(2, "wedge")
        for _ in range(5):
            phi = random_kform(rng, chart, 1)
            psi = random_kform(rng, chart, 1)
            lhs = exterior_derivative(phi.wedge(psi))
            rhs = exterior_derivative(phi).wedge(psi) \
                - phi.wedge(exterior_derivative(psi))
            assert form_equal(lhs, rhs)


class TestSortSign:
    def test_matches_inversion_parity(self):
        for n in range(6):
            for perm in itertools.permutations(range(n)):
                inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                                 if perm[i] > perm[j])
                assert sort_sign(perm) == (tuple(range(n)),
                                           (-1) ** inversions)

    def test_sparse_indices(self):
        assert sort_sign((4, 0, 7)) == ((0, 4, 7), -1)
        assert sort_sign((7, 0, 4)) == ((0, 4, 7), 1)

    def test_repeated_index(self):
        for seq in ((0, 0), (1, 0, 1), (2, 3, 4, 2), (5, 1, 3, 3, 0)):
            assert sort_sign(seq) is None


class TestContravariantDerivative:
    def test_zero_vector_of_coordinate(self, r2):
        pi = KVector(r2, 2, {(0, 1): 1})
        q = r2.coords[0]
        out = contravariant_derivative(pi, KVector(r2, 0, {(): Expr(q)}))
        # oracle: direct evaluation of the defining sum on basis covectors
        for i in range(2):
            expected = pi.sharp(r2.basis_covector(i)).apply(Expr(q))
            assert equal(out.evaluate([r2.basis_covector(i)]), expected)

    def test_squares_to_zero_constant(self, r2):
        pi = KVector(r2, 2, {(0, 1): 1})
        q, p = (Expr(s) for s in r2.coords)
        f = KVector(r2, 0, {(): q ** 2 * p})
        assert contravariant_derivative(
            pi, contravariant_derivative(pi, f)).is_zero_tensor()

    def test_squares_to_zero_poisson(self, g_chart):
        x1, x2 = (Expr(s) for s in g_chart.coords)
        pi = KVector(g_chart, 2, {(0, 1): x1 ** 2 + x2 ** 2})
        rng = rng_for(4, "delsq")
        for degree in (0, 1):
            q = random_kvector(rng, g_chart, degree)
            out = contravariant_derivative(pi, contravariant_derivative(pi, q))
            assert out.is_zero_tensor()

    def test_zero_bivector(self, r2):
        pi = KVector(r2, 2, {})
        rng = rng_for(5, "zero")
        q = random_kvector(rng, r2, 1)
        assert contravariant_derivative(pi, q).is_zero_tensor()


class TestApply:
    """``X.apply(f)`` skips literally zero components; the sum is unchanged."""

    @staticmethod
    def full_sum(field: VectorField, f):
        out = ZERO
        for comp, sym in zip(field.components, field.chart.coords):
            out = out + comp * f.diff(sym)
        return out

    @pytest.fixture
    def r3(self) -> Chart:
        return Chart("R3", ("x", "y", "z"))

    def fields(self, r3):
        x, y, z = (Expr(s) for s in r3.coords)
        return [VectorField(r3, (ZERO, x * y, ZERO)),
                VectorField(r3, (z, ZERO, ComplexExpr(y, x))),
                VectorField(r3, (ComplexExpr(ZERO, ZERO, x), x, ZERO)),
                VectorField(r3, (ZERO, ZERO, ZERO))]

    def test_real_function(self, r3):
        rng = rng_for(3, "apply-zero-components")
        for _ in range(3):
            f = random_polynomial(rng, r3, 3, 2)
            for field in self.fields(r3):
                assert is_zero(field.apply(f) - self.full_sum(field, f))

    def test_phased_function(self, r3):
        x, y, z = (Expr(s) for s in r3.coords)
        f = ComplexExpr(x * z, y, x * y)
        for field in self.fields(r3):
            assert is_zero(field.apply(f) - self.full_sum(field, f))

    def test_zero_components_are_not_differentiated_along(self, r3,
                                                          monkeypatch):
        seen = []
        diff = Expr.diff
        monkeypatch.setattr(Expr, "diff", lambda self, sym: (
            seen.append(sym) or diff(self, sym)))
        x, y, _ = (Expr(s) for s in r3.coords)
        VectorField(r3, (ZERO, x, ZERO)).apply(x * y)
        assert seen == [r3.coords[1]]


class TestDensities:
    def test_scaling_flow(self):
        chart = Chart("L", ("x",))
        x = VectorField(chart, (Expr(chart.coords[0]),))
        kappa = AlphaDensity(chart, Fraction(1, 2), ComplexExpr.of(1))
        out = lie_derivative_density(x, kappa)
        assert equal(out.coeff.re, as_expr(Fraction(1, 2)))
        assert is_zero(out.coeff.im)

    def test_divergence_free(self):
        chart = Chart("L", ("x",))
        f = Expr(chart.coords[0]) ** 3
        kappa = AlphaDensity(chart, Fraction(1, 2), ComplexExpr.of(f))
        out = lie_derivative_density(chart.basis_vector(0), kappa)
        assert equal(out.coeff.re, f.diff(chart.coords[0]))

    def test_tensor_derivation(self, r2):
        rng = rng_for(6, "density")
        for _ in range(4):
            x = random_vector_field(rng, r2)
            k1 = AlphaDensity(r2, Fraction(1, 2),
                              ComplexExpr.of(random_polynomial(rng, r2, 2, 2)))
            k2 = AlphaDensity(r2, Fraction(1, 2),
                              ComplexExpr.of(random_polynomial(rng, r2, 2, 2)))
            lhs = lie_derivative_density(x, k1.tensor(k2))
            rhs = lie_derivative_density(x, k1).tensor(k2).coeff \
                + k1.tensor(lie_derivative_density(x, k2)).coeff
            assert is_zero(lhs.coeff.re - rhs.re) and is_zero(lhs.coeff.im - rhs.im)

    def test_positive_exponent_required(self, r2):
        with pytest.raises(ExprError):
            AlphaDensity(r2, Fraction(0), ComplexExpr.of(1))


def test_d_squared_on_random_forms_dims_2_to_4():
    rng = rng_for(8, "dd")
    for dim in (2, 3, 4):
        chart = Chart(f"C{dim}", tuple(f"x{i}" for i in range(1, dim + 1)))
        for degree in range(0, dim):
            phi = random_kform(rng, chart, degree)
            assert exterior_derivative(exterior_derivative(phi)).is_zero_tensor()


def test_chart_mismatch_raises(r2):
    other = Chart("N", ("u", "v"))
    with pytest.raises(ExprError):
        lie_derivative_form(other.basis_vector(0), r2.basis_covector(0))


def test_unknown_coordinate_diff(r2):
    with pytest.raises(ExprError, match="unknown symbol"):
        r2.diff(as_expr(1), "z")


class TestSemanticZeros:
    """The coefficient store reads the field element: a coefficient that is
    zero in the field is dropped, whatever tree it was written as."""

    def test_zero_coefficient_is_dropped(self):
        chart = Chart("M", ("x",))
        x = Expr(chart.coords[0])
        for zero in (x / x - 1, (x * x - 1) / (x - 1) - x - 1):
            form = KForm(chart, 1, {(0,): zero})
            assert form.coeffs == {}
            assert form == KForm(chart, 1, {})

    def test_zero_component_prints_zero(self):
        chart = Chart("M", ("x",))
        x = chart.coords[0].tree
        field = VectorField(chart, (Expr((x + 1) ** 2 - x ** 2 - 2 * x - 1),))
        assert str(field) == "0"
