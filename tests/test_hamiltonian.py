from __future__ import annotations

from pathlib import Path

import pytest

import sympy as sp

from diracq import hamiltonian, linalg
from diracq.chart import Chart, KForm
from diracq.checks import Resolver
from diracq.dirac import (
    Section,
    graph_presymplectic,
    membership,
    regular_distribution,
)
from diracq.dsl import parse_model
from diracq.expr import Expr, as_expr, atom, equal, is_zero, symbol
from diracq.hamiltonian import (
    ComplementError,
    ComplementH,
    NotAdmissibleError,
    admissible_vector_field,
    bracket_omega,
    bracket_prime,
    default_complement,
    differential,
    field_residual,
    hamiltonian_H,
    jacobiator,
    kills_tangent_kernel,
)
from diracq.randgen import random_polynomial, rng_for


@pytest.fixture
def r4_data(r4, presymplectic_r4):
    x1 = Expr(r4.coords[0])
    k = Expr(symbol("k"))
    f = x1 ** 2 + k * (Expr(r4.coords[1]) + Expr(r4.coords[3]))
    h1 = Section(r4.basis_vector(0),
                 r4.basis_covector(1) + r4.basis_covector(3))
    h2 = Section(-r4.basis_vector(3), r4.basis_covector(0))
    return f, ComplementH(presymplectic_r4, [h1, h2])


class TestAdmissibleVectorField:
    def test_example_family_member(self, presymplectic_r4, r4, r4_data):
        f, _ = r4_data
        result = admissible_vector_field(presymplectic_r4, f)
        assert result.ok
        x = result.vector_field
        k = Expr(symbol("k"))
        x1 = Expr(r4.coords[0])
        # any member of the solution family: k d_1 + a d_2 + b d_3 - (2x1+a) d_4
        assert equal(x.components[0], k)
        assert is_zero(x.components[1] + x.components[3] + 2 * x1)
        # the particular representative zeroes the trailing free slots
        assert is_zero(x.components[2]) and is_zero(x.components[3])
        df = KForm(r4, 1, {(0,): 2 * x1, (1,): k, (3,): k})
        assert membership(presymplectic_r4, Section(x, df)).ok

    def test_symplectic_coordinate(self, standard_dirac, r2):
        result = admissible_vector_field(standard_dirac, Expr(r2.coords[0]))
        assert result.ok
        assert is_zero(result.vector_field.components[0])
        assert equal(result.vector_field.components[1], -1)

    def test_foliation_negative(self):
        chart = Chart("F", ("x1", "x2"))
        dirac = regular_distribution([chart.basis_vector(0)])
        result = admissible_vector_field(dirac, Expr(chart.coords[0]))
        assert not result.ok
        assert result.witness is not None


class TestHamiltonianH:
    def test_paper_value_on_r4(self, presymplectic_r4, r4, r4_data):
        f, complement = r4_data
        h_f, coeffs = hamiltonian_H(presymplectic_r4, complement, f)
        k = Expr(symbol("k"))
        x1 = Expr(r4.coords[0])
        assert equal(h_f.components[0], k)
        assert is_zero(h_f.components[1])
        assert is_zero(h_f.components[2])
        assert equal(h_f.components[3], -2 * x1)
        # the frame coefficients reproduce (H_f, df)
        section = presymplectic_r4.section_from_coefficients(coeffs)
        assert all(is_zero(a - b) for a, b in
                   zip(section.X.components, h_f.components))

    def test_foliation_hamiltonian_vanishes(self):
        chart = Chart("F", ("x1", "x2"))
        dirac = regular_distribution([chart.basis_vector(0)])
        complement = default_complement(dirac)
        assert len(complement) == 0
        h_f, _ = hamiltonian_H(dirac, complement, Expr(chart.coords[1]))
        assert h_f.is_zero_field()

    def test_g_poisson_formula(self, g_poisson, g_chart):
        complement = default_complement(g_poisson)
        x1, x2 = (Expr(s) for s in g_chart.coords)
        big_g = x1 ** 2 + x2 ** 2
        h, _ = hamiltonian_H(g_poisson, complement, x1)
        assert is_zero(h.components[0])
        assert equal(h.components[1], -big_g)

    def test_not_admissible_raises(self):
        chart = Chart("F", ("x1", "x2"))
        dirac = regular_distribution([chart.basis_vector(0)])
        complement = default_complement(dirac)
        with pytest.raises(NotAdmissibleError):
            hamiltonian_H(dirac, complement, Expr(chart.coords[0]))

    def test_overlapping_complement_rejected(self, presymplectic_r4, r4):
        # d_x3 spans a tangent-kernel direction, so it overlaps V alone, and
        # h1 and h1 + (d_x3, 0) have vector parts that differ by it
        d_x3 = Section(r4.basis_vector(2), KForm(r4, 1, {}))
        h1 = Section(r4.basis_vector(0),
                     r4.basis_covector(1) + r4.basis_covector(3))
        for sections in ([d_x3], [h1, h1 + d_x3]):
            with pytest.raises(ComplementError,
                               match="overlaps the tangent kernel"):
                ComplementH(presymplectic_r4, sections)


class TestBrackets:
    def test_prime_canonical_pair(self, standard_dirac, r2):
        q, p = (Expr(s) for s in r2.coords)
        assert equal(bracket_prime(standard_dirac, q, p), 1)
        assert is_zero(bracket_prime(standard_dirac, q, q))

    def test_prime_field_identity(self, standard_dirac, r2):
        q, p = (Expr(s) for s in r2.coords)
        f, g = q ** 2, p
        fg = bracket_prime(standard_dirac, f, g)
        x_fg = admissible_vector_field(standard_dirac, fg).vector_field
        x_f = admissible_vector_field(standard_dirac, f).vector_field
        x_g = admissible_vector_field(standard_dirac, g).vector_field
        residual = x_fg + x_f.lie_bracket(x_g)
        assert residual.is_zero_field()

    def test_omega_bracket_values(self, standard_dirac, r2):
        complement = default_complement(standard_dirac)
        q, p = (Expr(s) for s in r2.coords)
        assert equal(bracket_omega(standard_dirac, complement, q, p), 1)
        assert is_zero(bracket_omega(standard_dirac, complement, q, as_expr(5)))

    def test_g_poisson_bracket(self, g_poisson, g_chart):
        complement = default_complement(g_poisson)
        x1, x2 = (Expr(s) for s in g_chart.coords)
        value = bracket_omega(g_poisson, complement, x1, x2)
        assert equal(value, x1 ** 2 + x2 ** 2)

    def test_jacobi_canonical_triple(self, standard_dirac, r2):
        complement = default_complement(standard_dirac)
        q, p = (Expr(s) for s in r2.coords)
        assert is_zero(jacobiator(standard_dirac, complement, q, p, q * p))
        assert field_residual(standard_dirac, complement,
                              q, p).is_zero_field()

    def test_jacobi_r4_polynomials(self, presymplectic_r4, r4_data):
        f, complement = r4_data
        x1 = Expr(presymplectic_r4.chart.coords[0])
        g = x1 ** 2
        h = x1 * (Expr(presymplectic_r4.chart.coords[1])
                  + Expr(presymplectic_r4.chart.coords[3]))
        assert is_zero(jacobiator(presymplectic_r4, complement, f, g, h))
        assert field_residual(presymplectic_r4, complement,
                              f, g).is_zero_field()


class TestWellDefinedness:
    def test_kernel_shift_does_not_change_prime(self, presymplectic_r4, r4_data):
        f, _ = r4_data
        dirac = presymplectic_r4
        g = Expr(dirac.chart.coords[0])
        base = bracket_prime(dirac, f, g)
        x_g = admissible_vector_field(dirac, g).vector_field
        rng = rng_for(30, "shift")
        for v in dirac.tangent_kernel:
            scale = random_polynomial(rng, dirac.chart, 2, 2)
            shifted = x_g + v.scale(scale)
            assert equal(shifted.apply(f), base)

    def test_prime_refuses_a_function_whose_differential_feels_the_kernel(
            self):
        # V = span(d_x1): dx1 does not vanish on it, dx2 does
        chart = Chart("F", ("x1", "x2"))
        dirac = regular_distribution([chart.basis_vector(0)])
        x1, x2 = (Expr(c) for c in chart.coords)
        assert not kills_tangent_kernel(dirac, x1)
        assert kills_tangent_kernel(dirac, x2)
        with pytest.raises(NotAdmissibleError,
                           match="bracket not well-defined"):
            bracket_prime(dirac, x1, x2)

    def test_complement_independence(self, presymplectic_r4, r4, r4_data):
        f, paper_complement = r4_data
        auto = default_complement(presymplectic_r4)
        g = Expr(r4.coords[0])
        lhs = bracket_omega(presymplectic_r4, paper_complement, f, g)
        rhs = bracket_omega(presymplectic_r4, auto, f, g)
        assert equal(lhs, rhs)

    def test_leibniz_random(self, standard_dirac, r2):
        complement = default_complement(standard_dirac)
        rng = rng_for(31, "leibniz")
        for _ in range(5):
            f = random_polynomial(rng, r2, 3, 2)
            g = random_polynomial(rng, r2, 3, 2)
            h = random_polynomial(rng, r2, 3, 2)
            lhs = bracket_omega(standard_dirac, complement, f, g * h)
            rhs = bracket_omega(standard_dirac, complement, f, g) * h \
                + g * bracket_omega(standard_dirac, complement, f, h)
            assert equal(lhs, rhs)

    def test_prime_equals_omega_bracket(self, g_poisson, g_chart):
        complement = default_complement(g_poisson)
        rng = rng_for(32, "primeomega")
        for _ in range(5):
            f = random_polynomial(rng, g_chart, 3, 2)
            g = random_polynomial(rng, g_chart, 3, 2)
            assert equal(bracket_prime(g_poisson, f, g),
                         bracket_omega(g_poisson, complement, f, g))


def test_solves_reuse_the_factored_spans(monkeypatch):
    """Once the structure is verified and its complement fixed, solving for
    H_f, X_f and frame coefficients runs no further elimination."""
    text = (Path(__file__).resolve().parent.parent / "models"
            / "standard_r2.dq").read_text()
    dirac = Resolver(parse_model(text, "standard_r2")).dirac()
    dirac.verify()
    complement = default_complement(dirac)
    eliminations = []
    factor = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda *args, **kwargs: (
        eliminations.append(args) or factor(*args, **kwargs)))
    rng = rng_for(5, "factor-once")
    for _ in range(20):
        f = random_polynomial(rng, dirac.chart, 3, 2)
        h_f, _ = hamiltonian_H(dirac, complement, f)
        assert admissible_vector_field(dirac, f).ok
        assert membership(dirac, Section(h_f, differential(dirac, f))).ok
    assert eliminations == []


class TestMemo:
    """A complement solves for H_f once per function tree and keeps each
    ordered bracket; a fresh complement gives the same values."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = linalg.solve
        monkeypatch.setattr(linalg, "solve", lambda *args, **kwargs: (
            calls.append(args) or solve(*args, **kwargs)))
        return calls

    @pytest.fixture
    def functions(self, r2):
        rng = rng_for(11, "memo")
        return [random_polynomial(rng, r2, 3, 2) for _ in range(4)]

    def test_one_solve_per_function(self, standard_dirac, functions, solves):
        complement = default_complement(standard_dirac)
        before = len(solves)
        for _ in range(3):
            for f in functions:
                hamiltonian_H(standard_dirac, complement, f)
                hamiltonian_H(standard_dirac, complement, Expr(f.node))
        distinct = len({f.node for f in functions})
        assert len(solves) - before == distinct
        for f in functions:
            for g in functions:
                bracket_omega(standard_dirac, complement, f, g)
        assert len(solves) - before == distinct
        other = default_complement(standard_dirac)
        before = len(solves)
        hamiltonian_H(standard_dirac, other, functions[0])
        assert len(solves) - before == 1

    def test_memo_equals_a_fresh_complement(self, presymplectic_r4, r4_data):
        f, complement = r4_data
        g = f * f + Expr(symbol("x1"))
        for _ in range(2):
            memo_f = hamiltonian_H(presymplectic_r4, complement, f)
            memo_fg = bracket_omega(presymplectic_r4, complement, f, g)
        fresh = ComplementH(presymplectic_r4, complement.sections)
        assert fresh.hamiltonians == {} and fresh.brackets == {}
        assert bracket_omega(presymplectic_r4, fresh, f, g) == memo_fg
        assert hamiltonian_H(presymplectic_r4, fresh, f) == memo_f

    def test_reverse_bracket_is_computed(self, standard_dirac, functions,
                                         monkeypatch):
        f, g = functions[:2]
        complement = default_complement(standard_dirac)
        fg = bracket_omega(standard_dirac, complement, f, g)
        assert set(complement.brackets) == {(f, g)}
        solved = []
        solve_h = hamiltonian.hamiltonian_H
        monkeypatch.setattr(hamiltonian, "hamiltonian_H", lambda *args: (
            solved.append(args[2]) or solve_h(*args)))
        gf = bracket_omega(standard_dirac, complement, g, f)
        assert solved == [f, g]
        assert is_zero(fg + gf)
        assert complement.brackets[(g, f)] == gf
        bracket_omega(standard_dirac, complement, g, f)
        assert solved == [f, g]

    def test_memo_hit_survives_new_generators(self, standard_dirac,
                                              functions, solves):
        complement = default_complement(standard_dirac)
        f = functions[0]
        known = hamiltonian_H(standard_dirac, complement, f)
        before = len(solves)
        # a symbol and an atom no other test uses
        atom(sp.exp, Expr(symbol("memo_fresh_a")) + Expr(symbol("memo_fresh_b")))
        assert hamiltonian_H(standard_dirac, complement, f) is known
        assert hamiltonian_H(standard_dirac, complement, Expr(f.node)) is known
        assert len(solves) == before

    def test_equal_functions_share_an_entry(self, standard_dirac, r2, solves):
        complement = default_complement(standard_dirac)
        q, p = (Expr(s) for s in r2.coords)
        before = len(solves)
        hamiltonian_H(standard_dirac, complement, q * p)
        hamiltonian_H(standard_dirac, complement, (q * q * p + q * p) / (q + 1))
        assert len(solves) - before == 1
        assert list(complement.hamiltonians) == [q * p]

    def test_failures_are_not_kept(self, solves):
        chart = Chart("F", ("x1", "x2"))
        dirac = regular_distribution([chart.basis_vector(0)])
        complement = default_complement(dirac)
        before = len(solves)
        x1 = Expr(chart.coords[0])
        for _ in range(2):
            with pytest.raises(NotAdmissibleError):
                hamiltonian_H(dirac, complement, x1)
            with pytest.raises(NotAdmissibleError):
                bracket_omega(dirac, complement, x1, x1)
        assert len(solves) - before == 4
        assert complement.hamiltonians == {} and complement.brackets == {}

    def test_memo_keeps_the_owner_check(self, standard_dirac, r2, functions):
        complement = default_complement(standard_dirac)
        f, g = functions[:2]
        bracket_omega(standard_dirac, complement, f, g)
        other = graph_presymplectic(
            r2.basis_covector(0).wedge(r2.basis_covector(1)))
        other.verify()
        with pytest.raises(ComplementError):
            hamiltonian_H(other, complement, f)
        with pytest.raises(ComplementError):
            bracket_omega(other, complement, f, g)


class TestAdmissibleMemo:
    """X_f depends on the structure and f alone: one solve per distinct f
    per structure, a negative result included."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = linalg.solve
        monkeypatch.setattr(linalg, "solve", lambda *args, **kwargs: (
            calls.append(args) or solve(*args, **kwargs)))
        return calls

    def test_one_solve_per_function_per_structure(self, standard_dirac, r2,
                                                  solves):
        rng = rng_for(5, "admissible-memo")
        functions = [random_polynomial(rng, r2, 3, 2) for _ in range(4)]
        q = Expr(r2.coords[0])
        standard_dirac.verify()
        before = len(solves)
        for _ in range(3):
            for f in functions:
                first = admissible_vector_field(standard_dirac, f)
                again = admissible_vector_field(standard_dirac, f * q / q)
                assert again is first and first.ok
        assert len(solves) - before == len(set(functions))
        for f in functions:
            for g in functions:
                bracket_prime(standard_dirac, f, g)
        assert len(solves) - before == len(set(functions))
        other = graph_presymplectic(
            r2.basis_covector(0).wedge(r2.basis_covector(1)))
        other.verify()
        before = len(solves)
        admissible_vector_field(other, functions[0])
        assert len(solves) - before == 1

    def test_negative_result_is_kept(self, solves):
        chart = Chart("F", ("x1", "x2"))
        dirac = regular_distribution([chart.basis_vector(0)])
        dirac.verify()
        x1 = Expr(chart.coords[0])
        before = len(solves)
        results = [admissible_vector_field(dirac, x1) for _ in range(3)]
        assert len(solves) - before == 1
        assert not results[0].ok and all(r is results[0] for r in results)
