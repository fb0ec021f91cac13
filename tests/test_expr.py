from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from diracq.checks import run_checks
from diracq.dsl import parse_model
from diracq.expr import (
    ComplexExpr,
    Expr,
    ExprError,
    I,
    ONE,
    PI,
    Point,
    ZERO,
    SingularPointError,
    as_expr,
    atom,
    differentiate,
    equal,
    equality_config,
    evaluate,
    is_zero,
    normalize,
    random_rational,
    rational,
    symbol,
)
import diracq.expr as expr_module
from diracq import poly
from diracq.expr import _ATOM_HEADS, _probabilistic_equal
from diracq.randgen import random_mixed_expr, random_rational_expr

from helpers import fd_matches

MODELS = Path(__file__).resolve().parent.parent / "models"

gx, gy = symbol("x"), symbol("y")
x, y = gx.tree, gy.tree                 # their sympy symbols, for trees
ex = lambda node: Expr(sp.sympify(node, locals={"x": x, "y": y}))


class TestDifferentiate:
    def test_polynomial_rule(self):
        assert differentiate(ex("x**2 + 3"), gx) == ex("2*x")

    def test_chain_rule_exp(self):
        assert differentiate(Expr(sp.exp(x ** 2)), gx) == Expr(2 * x * sp.exp(x ** 2))

    def test_only_a_symbol_generator_is_a_variable(self):
        e = ex("x*y")
        for sym in (x, PI.field.gens[0]):       # a sympy Symbol, pi
            for act in (lambda: e.diff(sym), lambda: e.subs({sym: 1}),
                        lambda: e.integral_from_zero(sym)):
                with pytest.raises(ExprError, match="is not a symbol"):
                    act()

    def test_quotient_matches_finite_differences(self):
        rng = random.Random(11)
        assert fd_matches(ex("y/x"), "x", rng, points=5)


class TestNormalize:
    def test_algebraic_identity_collapses(self):
        e = ex("(x+1)*(x-1)") - ex("x**2") + 1
        assert normalize(e).node == 0

    def test_generic_point_cancellation(self):
        assert normalize(ex("x") / ex("x")).node == 1

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(30):
            e = random_rational_expr(rng, ["x", "y"], depth=4)
            once = normalize(e)
            assert normalize(once) == once

    def test_zero_unique(self):
        assert normalize(ex("x - x")).node is sp.S.Zero

    def test_division_by_zero_expression(self):
        with pytest.raises(ExprError):
            normalize(as_expr(1) / (ex("x") - ex("x")))

    def test_exp_product_power_form(self):
        e = Expr(sp.exp(x)) * Expr(sp.exp(x))
        assert equal(e, Expr(sp.exp(2 * x)))


class TestEqual:
    def test_trig_identity_probabilistic(self):
        assert equal(Expr(sp.sin(x)) ** 2 + Expr(sp.cos(x)) ** 2, 1)

    def test_distinct_symbols(self):
        assert not equal(ex("x"), ex("y"))

    def test_cancellation(self):
        assert equal((ex("x**2") - ex("y**2")) / (ex("x") - ex("y")),
                     ex("x") + ex("y"))

    def test_trig_inequality_detected(self):
        assert not equal(Expr(sp.sin(x)), Expr(sp.cos(x)))

    def test_pi_is_decided_canonically(self):
        two_pi = 2 * Expr(sp.pi)
        assert equal(two_pi * ex("x") - ex("x") * 2 * Expr(sp.pi), 0)
        assert not equal(Expr(sp.pi), as_expr(Fraction(355, 113)))

    def test_e_is_not_sampled_as_a_rational_function(self):
        e = Expr(sp.exp(1))
        assert not equal(e, 2)
        assert not is_zero(e * ex("x") - ex("x"))
        assert not _probabilistic_equal(sp.E, sp.Integer(2), trials=20,
                                        seed=7, tolerance=1e-9)

    def test_symbol_the_difference_loses_is_left_out_of_the_scale(self):
        # only x is sampled: y stays free in both sides, which therefore
        # give no magnitude to the tolerance
        lhs = y + sp.sin(x) ** 2 + sp.cos(x) ** 2
        assert _probabilistic_equal(lhs, y + 1, trials=20, seed=7,
                                    tolerance=1e-9)
        assert not _probabilistic_equal(lhs, y + 2, trials=20, seed=7,
                                        tolerance=1e-9)


SAMPLED = "sampled"


def _outcome(decide, e1, e2):
    try:
        return decide(e1, e2)
    except ExprError:
        return ExprError


def _canonical(node):
    """sympy's canonical form of a tree: the argument of every atom
    cancelled, inner atoms first, then one cancellation over the atoms as
    generators."""
    atoms = node.atoms(*_ATOM_HEADS)
    node = node.xreplace({a: a.func(_canonical(a.args[0])) for a in atoms})
    return sp.cancel(node)


def _reference_equal(e1, e2):
    """The rule equal must follow: a zero canonical difference is equal, a
    nonzero one without an atom is not, anything else is sampled."""
    diff = _canonical(as_expr(e1).node - as_expr(e2).node)
    if diff == 0:
        return True
    return SAMPLED if diff.has(*_ATOM_HEADS) else False


class TestZeroTest:
    """equal decides zero on the numerator in the atoms-as-generators ring
    and samples only where the canonical form keeps an atom."""

    @pytest.fixture(autouse=True)
    def stub_sampling(self, monkeypatch):
        monkeypatch.setattr(expr_module, "_probabilistic_equal",
                            lambda *args, **kwargs: SAMPLED)

    def test_agrees_with_canonical_rule_on_generated_pairs(self):
        rng = random.Random(41)
        outcomes = set()
        for i in range(600):
            make = random_rational_expr if i % 3 else random_mixed_expr
            e1 = make(rng, ["x", "y"], depth=3)
            if i % 2 == 0:
                disguise = random_rational_expr(rng, ["x", "y"], depth=2)
                if normalize(disguise + 1).node == 0:
                    continue
                e2 = (e1 * disguise + e1) / (disguise + 1)
            else:
                e2 = make(rng, ["x", "y"], depth=3)
            expected = _outcome(_reference_equal, e1, e2)
            assert _outcome(equal, e1, e2) == expected, (e1, e2)
            outcomes.add(expected)
        assert {True, False, SAMPLED} <= outcomes

    @pytest.mark.parametrize("lhs, rhs, expected", [
        # sring maps exp(2) to the generator E: the atom test reads the tree
        (sp.exp(2) - x ** 3, 0, SAMPLED),
        (sp.exp(x * y / y), sp.exp(x), True),
        (sp.exp((x * y + x) / (y + 1)), sp.exp(x), True),
        (sp.exp(2 * x), sp.exp(x) ** 2, True),
        ((x * sp.exp(y) + x) / (sp.exp(y) + 1), x, True),
        ((x * sp.exp(y) + x) / (sp.exp(y) + 1), y, False),
        (sp.pi * x, x, False),
    ])
    def test_fixed_cases(self, lhs, rhs, expected):
        e1, e2 = Expr(sp.sympify(lhs)), Expr(sp.sympify(rhs))
        assert _reference_equal(e1, e2) == expected
        assert equal(e1, e2) == expected

    def test_zero_denominator_raises(self):
        with pytest.raises(ExprError, match="division by the zero expression"):
            e = Expr(1 / ((x + 1) ** 2 - x ** 2 - 2 * x - 1))
            equal(e, 0)


def test_rational_equality_makes_no_cancel_call(monkeypatch):
    calls = []
    cancel = sp.cancel

    def counting(*args, **kwargs):
        calls.append(args)
        return cancel(*args, **kwargs)

    monkeypatch.setattr(sp, "cancel", counting)
    e1, e2 = ex("(x**2 - y**2)/(x - y)"), ex("x + y")
    assert equal(e1, e2)
    assert not equal(e1, ex("x - y"))
    assert is_zero(e1 - e2)
    assert not is_zero(e1)
    assert equal(2 * Expr(sp.pi) * ex("x"), ex("x") * 2 * Expr(sp.pi))
    assert calls == []


class TestEvaluate:
    def test_exact_rational(self):
        assert evaluate(ex("x**2") + ex("y"),
                        Point("M", {"x": Fraction(2), "y": Fraction(3)})) == 7

    def test_pole_is_singular(self):
        with pytest.raises(SingularPointError):
            evaluate(1 / ex("x"), Point("M", {"x": Fraction(0)}))

    def test_exact_rational_function(self):
        value = evaluate(1 / ex("x") + ex("y") ** -2,
                         Point("M", {"x": 2, "y": Fraction(-1, 3)}))
        assert value == Fraction(19, 2) and isinstance(value, Fraction)

    def test_common_zero_of_numerator_and_denominator_is_singular(self):
        with pytest.raises(SingularPointError):
            evaluate(ex("x/y"), Point("M", {"x": Fraction(0), "y": Fraction(0)}))

    def test_transcendental_constant(self):
        value = evaluate(Expr(sp.exp(1)), Point("M", {}))
        with mpmath.workdps(25):
            assert abs(value - mpmath.e) < mpmath.mpf("1e-15")

    def test_missing_symbol(self):
        with pytest.raises(ExprError):
            evaluate(ex("x"), Point("M", {}))


class TestSubs:
    """Substitution stays in the field: once the values are built, no sympy
    tree is."""

    @pytest.fixture
    def no_tree(self, monkeypatch):
        def build(self):
            raise AssertionError("a sympy tree was built")

        return lambda: monkeypatch.setattr(Expr, "node", property(build))

    def test_rational_value_is_exact(self, no_tree):
        value = (Expr(x) ** 2 + Expr(y)) / (Expr(x) - 1)
        no_tree()
        assert value.subs({gx: Fraction(1, 2)}) == -2 * Expr(y) - rational(1, 2)
        assert value.subs({gx: Fraction(-2, 3), gy: 3}) == rational(-31, 15)

    def test_integer_value(self, no_tree):
        value = Expr(x) ** 3 / (Expr(y) + 2)
        no_tree()
        assert value.subs({gx: -2}) == -8 / (Expr(y) + 2)

    def test_unsubstituted_atoms_stay(self, no_tree):
        value, exp_y = Expr(x) * atom(sp.exp, Expr(y)), atom(sp.exp, Expr(y))
        no_tree()
        assert value.subs({gx: Fraction(3, 4)}) == rational(3, 4) * exp_y

    def test_pole_is_an_error(self, no_tree):
        value = 1 / (2 * Expr(x) - 1)
        no_tree()
        with pytest.raises(ExprError):
            value.subs({gx: Fraction(1, 2)})

    def test_atom_argument_involving_the_symbol_is_an_error(self, no_tree):
        value = Expr(y) + atom(sp.sin, Expr(x) * Expr(y))
        no_tree()
        with pytest.raises(ExprError, match="atom argument"):
            value.subs({gx: 0})
        with pytest.raises(ExprError, match="atom argument"):
            value.subs({gy: Fraction(1, 2)})


@st.composite
def rational_exprs(draw):
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return random_rational_expr(random.Random(seed), ["x", "y"], depth=3)


class TestInvariants:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rational_exprs())
    def test_normalize_preserves_value(self, e):
        assert equal(e, normalize(e))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(rational_exprs(), rational_exprs())
    def test_product_rule(self, e1, e2):
        lhs = differentiate(e1 * e2, gx)
        rhs = differentiate(e1, gx) * e2 + e1 * differentiate(e2, gx)
        assert equal(lhs, rhs)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(rational_exprs())
    def test_mixed_partials_commute(self, e):
        assert equal(differentiate(differentiate(e, gx), gy),
                     differentiate(differentiate(e, gy), gx))

    def test_probabilistic_agrees_with_canonical(self):
        rng = random.Random(23)
        checked = 0
        while checked < 200:
            e1 = random_rational_expr(rng, ["x", "y"], depth=3)
            if checked % 2 == 0:
                disguise = random_rational_expr(rng, ["x", "y"], depth=2)
                try:
                    e2 = (e1 * disguise + e1) / (disguise + 1)
                except Exception:
                    continue
            else:
                e2 = random_rational_expr(rng, ["x", "y"], depth=3)
            canonical = normalize(e1 - e2).node == 0
            probabilistic = _probabilistic_equal(e1.node, e2.node, trials=20,
                                                 seed=7, tolerance=1e-9)
            assert canonical == probabilistic
            checked += 1


@pytest.mark.parametrize("seed", range(1, 13))
def test_sampled_zeros_cancel_in_enough_digits(seed):
    """Zero functions whose sampled terms are far larger than their sum:
    ``exp(2x)`` and ``exp(x)**2`` are different field elements, and so are
    the two sides of the second identity, so both are sampled."""
    X = Expr(gx)
    with equality_config(seed=seed):
        assert is_zero(atom("exp", 2 * X) - atom("exp", X) ** 2)
        assert is_zero(atom("exp", PI * X + rational(1, 3))
                       - atom("exp", PI * X / 3 + rational(1, 9)) ** 3)


def test_rational_sampling_resamples_at_poles(monkeypatch):
    monkeypatch.setattr(expr_module, "_BOUND", 1)       # x in {-1, 0, 1}
    assert not _probabilistic_equal(ex("1/x").node, ex("2/x").node,
                                    trials=20, seed=7, tolerance=1e-9)
    everywhere = ex("1/(x**3 - x)")                     # poles at -1, 0, 1
    with pytest.raises(SingularPointError):
        _probabilistic_equal(everywhere.node, (2 * everywhere).node,
                             trials=20, seed=7, tolerance=1e-9)


class TestComplexExpr:
    def test_double_conjugation(self):
        z = ComplexExpr(ex("x"), ex("y"))
        assert z.conj().conj() == z

    def test_arithmetic_is_componentwise_consistent(self):
        z = ComplexExpr(ex("x"), as_expr(1))
        w = ComplexExpr(as_expr(2), ex("y"))
        product = z * w
        assert equal(product.re, 2 * ex("x") - ex("y"))
        assert equal(product.im, ex("x*y") + 2)

    def test_division_round_trip(self):
        z = ComplexExpr(ex("x"), as_expr(3))
        w = ComplexExpr(as_expr(1), ex("y"))
        assert equal((z / w) * w, z)

    def test_i_squares_to_minus_one(self):
        assert equal(I * I, -1)

    def test_value_semantics_of_the_triple(self):
        z = ComplexExpr(ex("x"), ONE, as_expr(4))       # an integer phase is 0
        assert z.phase is ZERO
        assert z == ComplexExpr(ex("x"), ONE) and z != ComplexExpr(ex("x"), ZERO)
        assert hash(z) == hash((ex("x"), ONE, ZERO))
        assert z != (ex("x"), ONE, ZERO) and z != ex("x")
        assert repr(ComplexExpr(ONE, ZERO, ex("y"))) \
            == "ComplexExpr(re=Expr(1), im=Expr(0), phase=Expr(y))"
        assert {z: 1}[ComplexExpr(ex("x"), ONE, ZERO)] == 1

    def test_constants_are_reduced_ring_elements(self):
        for value in (0, 5, -7, Fraction(-3, 4), 10**30):
            e = as_expr(value)
            assert e.field.gens == ()
            assert Fraction(e.num[()] if value else 0, e.den[()]) == value
        assert not as_expr(0).num and as_expr(0) == ZERO


class TestPhase:
    """``ComplexExpr(re, im, w)`` is ``(re + i im) exp(-2 pi i w)``."""

    def test_product_adds_phases(self):
        z = ComplexExpr(ex("x"), ONE, ex("x"))
        w = ComplexExpr(ONE, ex("y"), ex("y"))
        product = z * w
        assert equal(product.phase, ex("x + y"))
        assert equal(product.re, ex("x - y"))
        assert equal(product.im, ex("x*y + 1"))
        assert (z * ex("y")).phase == z.phase

    def test_conj_and_division_negate_phases(self):
        z = ComplexExpr(ex("x"), ex("y"), ex("x*y"))
        w = ComplexExpr(ONE, ex("x"), ex("y"))
        assert equal(z.conj().phase, ex("-x*y"))
        assert equal((z / w).phase, ex("x*y - y"))
        assert equal((1 / w).phase, ex("-y"))
        assert (z.conj() * z).phase == ZERO
        assert equal((z / w) * w, z)

    def test_real_divisor_matches_the_conjugate_formula(self):
        d = ex("x**2 + y + 1")
        for z in (ComplexExpr(ex("x*y"), ex("x - y"), ex("x*y")),
                  ComplexExpr(ex("x*y"), ex("x - y"))):
            num, norm = z * ComplexExpr.of(d).conj(), d * d
            expected = ComplexExpr(num.re / norm, num.im / norm, num.phase)
            assert z / d == expected
            assert z / ComplexExpr.of(d) == expected

    def test_diff_follows_the_log_derivative_rule(self):
        z = ComplexExpr(ex("x"), ex("y"), ex("x**2*y"))
        d = z.diff(gx)
        # d(a e) = (da - 2 pi i a dw) e, with a = x + i y and dw = 2 x y
        dw = ex("2*x*y")
        assert d.phase == z.phase
        assert equal(d.re, 1 + 2 * PI * dw * ex("y"))
        assert equal(d.im, -2 * PI * dw * ex("x"))
        # the same derivative as that of the cos/sin form
        expanded = z.expand()
        assert equal(d.expand(), ComplexExpr(expanded.re.diff(gx),
                                                     expanded.im.diff(gx)))

    def test_phases_that_differ_by_an_integer_are_equal(self, monkeypatch):
        calls = []
        monkeypatch.setattr(expr_module, "_probabilistic_equal",
                            lambda *a, **k: calls.append(a))
        z1 = ComplexExpr(ex("x"), ONE, ex("x*y"))
        z2 = ComplexExpr(ex("x"), ONE, ex("x*y + 2"))
        assert equal(z1, z2)
        total = z1 + z2
        assert total.phase == z1.phase and equal(total.re, 2 * ex("x"))
        assert ComplexExpr(ONE, ZERO, as_expr(-3)) == ComplexExpr.of(1)
        assert not equal(z1, ComplexExpr(ex("x"), ex("2"), ex("x*y")))
        assert calls == []

    def test_literal_zero_takes_any_phase(self):
        z = ComplexExpr(ex("x"), ONE, ex("x*y"))
        for zero in (ComplexExpr(ZERO, ZERO), ComplexExpr(ZERO, ZERO, ex("y"))):
            assert (z + zero) == z and (zero + z) == z
            assert (z - zero).phase == z.phase

    def test_mixed_phases_expand_to_cos_sin(self):
        z1 = ComplexExpr(ONE, ZERO, ex("x/2"))
        z2 = ComplexExpr(ex("y"), ZERO, ex("x/3"))
        total = z1 + z2
        assert total.phase == ZERO
        a1, a2 = sp.pi * x, 2 * sp.pi * x / 3
        expected = ComplexExpr(Expr(sp.cos(a1) + y * sp.cos(a2)),
                               Expr(-sp.sin(a1) - y * sp.sin(a2)))
        assert equal(total, expected)
        # a constant phase difference of 1/2 is the sign -1
        assert equal(ComplexExpr(ONE, ZERO, as_expr(1) / 2), -1)


class TestOneProtocol:
    """``equal`` and ``is_zero`` take real and complex values alike."""

    def test_mixed_real_and_complex_arguments(self):
        assert equal(ComplexExpr.of(ex("x")), ex("x"))
        assert equal(ex("x"), ComplexExpr(ex("x"), ZERO))
        assert not equal(ex("x"), ComplexExpr(ex("x"), ONE))
        assert not equal(ComplexExpr(ex("x"), ONE), ex("x"))
        assert is_zero(ComplexExpr(ZERO, ZERO))
        assert not is_zero(I)

    def test_phases_that_differ_by_an_integer(self, monkeypatch):
        calls = []
        monkeypatch.setattr(expr_module, "_probabilistic_equal",
                            lambda *a, **k: calls.append(a))
        z1 = ComplexExpr(ex("x"), ONE, ex("x*y"))
        z2 = ComplexExpr(ex("x"), ONE, ex("x*y - 3"))
        assert is_zero(z1 - z2) and equal(z2, z1)
        # an integer phase is the phase 0, so the value compares with reals
        assert equal(ComplexExpr(ex("y"), ZERO, as_expr(2)), ex("y"))
        assert equal(ex("y"), ComplexExpr(ex("y"), ZERO, as_expr(-1)))
        assert calls == []

    def test_zero_amplitude_with_any_phase(self):
        for phase in (ex("y"), ex("x*y/3"), as_expr(1) / 2):
            zero = ComplexExpr(ZERO, ZERO, phase)
            assert is_zero(zero)
            assert equal(zero, ZERO) and equal(0, zero)
            assert equal(zero + ex("x"), ex("x"))

    def test_half_turn_plus_one_is_zero(self):
        assert is_zero(ComplexExpr(ONE, ZERO, as_expr(1) / 2) + 1)
        assert not is_zero(ComplexExpr(ONE, ZERO, as_expr(1) / 2) - 1)


class TestFieldOfItsGenerators:
    """A value is a reduced element of the field of exactly the generators
    it involves."""

    def test_cancelled_generator_leaves_the_field(self):
        e = (ex("x") + ex("y")) - ex("y")
        assert e == ex("x") and hash(e) == hash(ex("x"))
        assert e.support == {gx}
        assert e.field.gens == (gx,)

    def test_constants_are_rational(self):
        for one in (ex("x") / ex("x"), ex("x") ** 0):
            assert one.is_rational and one.field.gens == ()
        assert (ex("x") / ex("x")) == ONE and hash(ex("x") ** 0) == hash(ONE)

    def test_numerator_involves_only_its_generators(self):
        num, den = (ex("x") / ex("y")).as_numer_denom()
        assert num == ex("x") and num.field.gens == (gx,)
        assert den == ex("y") and den.field.gens == (gy,)

    def test_hashing_and_symbol_queries_build_no_tree(self, monkeypatch):
        values = [ex("x") * ex("y") + 3, ex("x") / (ex("y") + 1), PI * 2,
                  Expr(sp.exp(x)) - 1, rational(2, 3)]

        def no_tree(self):
            raise AssertionError("a sympy tree was built")

        monkeypatch.setattr(Expr, "node", property(no_tree))
        assert len({*values, *values}) == len(values)
        assert hash(values[0]) == hash(3 + ex("y") * ex("x"))
        assert [v.free_symbols for v in values] == [{gx, gy}, {gx, gy}, set(),
                                                    {gx}, set()]

    def test_unrelated_generators_leave_values_alone(self):
        model = parse_model((MODELS / "cech_three_patch.dq").read_text())
        suites = ["prequant", "quantize"]
        existing = ex("x") * ex("y") / (ex("x") + 1)
        field = existing.field
        before = run_checks(model, suites=suites, seed=7).to_json()
        for i in range(150):
            atom(sp.exp, Expr(symbol(f"unrelated_{i}")))
            atom(sp.sin, Expr(symbol(f"unrelated_{i}")) / (i + 2))
        assert existing.field is field
        after = run_checks(model, suites=suites, seed=7).to_json()
        assert after == before


z = symbol("z").tree
exz = lambda node: Expr(sp.sympify(node, locals={"x": x, "y": y, "z": z}))

OPERATIONS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
              "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def _full_cancel(op, a, b):
    """``a op b`` the slow way: both embedded in the field of the union of
    their generators, combined there, and reduced by one full ``cancel``."""
    gens = tuple(sorted({*a.field.gens, *b.field.gens},
                        key=lambda gen: gen.key))

    def embed(p, field):
        return {tuple(m[field.gens.index(g)] if g in field.gens else 0
                      for g in gens): c for m, c in p.items()}

    an, ad = embed(a.num, a.field), embed(a.den, a.field)
    bn, bd = embed(b.num, b.field), embed(b.den, b.field)
    num, den = {"+": (poly.add(poly.mul(an, bd), poly.mul(bn, ad)),
                      poly.mul(ad, bd)),
                "-": (poly.add(poly.mul(an, bd), poly.neg(poly.mul(bn, ad))),
                      poly.mul(ad, bd)),
                "*": (poly.mul(an, bn), poly.mul(ad, bd)),
                "/": (poly.mul(an, bd), poly.mul(ad, bn))}[op]
    if num:
        num, den = poly.cancel(num, den)
    return expr_module._own_field(expr_module._field(gens), num, den)


def _same_element(got, want) -> bool:
    return (got.field is want.field and got.num == want.num
            and got.den == want.den and hash(got) == hash(want))


class TestFastPaths:
    """The arithmetic's shortcuts give exactly the canonical element that a
    full cancel in the union field gives: same field, numerator,
    denominator and hash."""

    @staticmethod
    def _value(rng):
        names = rng.choice([["x", "y"], ["y", "z"], ["x"], ["z"]])
        kind = rng.random()
        if kind < 0.15:
            return rational(rng.randint(-3, 3), rng.randint(1, 3))
        if kind < 0.3:
            return random_mixed_expr(rng, names, depth=2)
        return random_rational_expr(rng, names, depth=rng.randint(1, 3))

    def test_operations_match_the_full_cancel_on_generated_pairs(self):
        rng = random.Random(61)
        for _ in range(400):
            a, b = self._value(rng), self._value(rng)
            for op, apply in OPERATIONS.items():
                if op == "/" and b == ZERO:
                    continue
                want = _full_cancel(op, a, b)
                assert _same_element(apply(a, b), want), (op, a, b)

    @pytest.mark.parametrize("op, lhs, rhs", [
        ("/", "5", "-62"),
        ("/", "x + y", "-2"),
        ("/", "x/(y + 1)", "-3/4"),
        ("/", "x", "1 - y"),
        ("/", "2", "-x**2 + y"),
        ("/", "(x + 1)/y", "-x*y + z"),
        ("-", "(1 + x*y)/y", "x"),
        ("-", "x + y", "y"),
        ("+", "x/3 + 1/2", "-x/3"),
        ("*", "2/3", "-3/4"),
        ("+", "2/3", "1/3"),
        ("*", "2", "x/(2*y + 4)"),
        ("*", "x + z", "y - x"),
        ("*", "x/(y + 1)", "(y + 1)/z"),
        ("*", "(x + 1)/y", "y/(x + 1)"),
        ("+", "x/(y + 1)", "z/(y + 1)"),
    ])
    def test_named_cases_then_unit_operations(self, op, lhs, rhs):
        a, b = exz(lhs), exz(rhs)
        got = OPERATIONS[op](a, b)
        assert _same_element(got, _full_cancel(op, a, b))
        for again in (1 * got, got * 1, got + 0, 0 + got, got / 1):
            assert _same_element(again, got)

    def test_generator_cancelling_sums_leave_the_field(self):
        assert (exz("(1 + x*y)/y") - exz("x")).field.gens == (gy,)
        assert (exz("x + y") - exz("y")).field.gens == (gx,)

    @pytest.mark.parametrize("base", ["x + y", "(x + 1)/(y - 2)",
                                      "x - y**2 + 3"])
    def test_powers_hash_like_equal_products(self, base):
        e = exz(base)
        for n in (2, 3, -2):
            product = e
            for _ in range(abs(n) - 1):
                product = product * e
            if n < 0:
                product = 1 / product
            assert e ** n == product and hash(e ** n) == hash(product)


def _zero_forms():
    """Every form a zero operand takes, the last one not the ``ZERO``
    object."""
    built = exz("x") - exz("x")
    assert built is not ZERO
    return [0, Fraction(0), ZERO, sp.S.Zero, built]


class TestZeroOperands:
    """A zero operand costs nothing: ``+``, ``-``, ``*`` and unary ``-``
    return the other operand, its negation or the zero, without entering
    the field arithmetic, and land on the full cancel's element."""

    def test_every_zero_form_on_both_sides_matches_the_full_cancel(self):
        rng = random.Random(67)
        for _ in range(80):
            a = TestFastPaths._value(rng)
            for zero in _zero_forms():
                z = as_expr(zero)
                for op in ("+", "-", "*"):
                    apply = OPERATIONS[op]
                    for got, want in ((apply(a, zero), _full_cancel(op, a, z)),
                                      (apply(zero, a), _full_cancel(op, z, a))):
                        assert isinstance(got, Expr), (op, a, zero)
                        assert _same_element(got, want), (op, a, zero)
            assert _same_element(-a, _full_cancel("-", ZERO, a))
            assert _same_element(-(a - a), ZERO)

    def test_adding_zero_returns_the_operand_itself(self):
        e = exz("x/(y + 1)")
        for zero in _zero_forms():
            assert e + zero is e and zero + e is e and e - zero is e
        assert -ZERO is ZERO and ZERO * e is ZERO

    def test_zero_operands_skip_the_field_arithmetic(self, monkeypatch):
        def never(a, b):
            raise AssertionError("field arithmetic ran on a zero operand")

        e, zeros = exz("x*y - 2"), _zero_forms()
        monkeypatch.setattr(expr_module, "_add", never)
        monkeypatch.setattr(expr_module, "_mul", never)
        for zero in zeros:
            assert e + zero == e and zero + e == e
            assert e - zero == e and zero - e == -e
            assert e * zero == ZERO and zero * e == ZERO
        assert -ZERO == ZERO

    @staticmethod
    def _complex(rng):
        names = rng.choice([["x", "y"], ["y", "z"], ["x"]])
        parts = [random_rational_expr(rng, names, depth=rng.randint(1, 2))
                 for _ in range(2)]
        phase = rng.choice([ZERO, rational(1, 3), rational(-5, 2),
                            random_rational_expr(rng, names, depth=1)])
        return ComplexExpr(*parts, phase)

    def test_products_with_a_real_amplitude_match_the_four_products(self, monkeypatch):
        rng = random.Random(73)
        products = []

        def counted(a, b):
            products.append((a, b))
            return field_mul(a, b)

        field_mul = expr_module._mul
        monkeypatch.setattr(expr_module, "_mul", counted)
        for i in range(120):
            z1, z2 = self._complex(rng), self._complex(rng)
            if i % 3 != 1:
                z1 = ComplexExpr(z1.re, ZERO, z1.phase)
            if i % 3 != 0:
                z2 = ComplexExpr(z2.re, ZERO, z2.phase)
            want = ComplexExpr(z1.re * z2.re - z1.im * z2.im,
                               z1.re * z2.im + z1.im * z2.re,
                               z1.phase + z2.phase)
            products.clear()
            got = z1 * z2
            # only the products of two nonzero parts reach the field
            assert len(products) == sum(
                bool(a.num and b.num)
                for a in (z1.re, z1.im) for b in (z2.re, z2.im)) <= 2
            assert got == want and equal(got, want), (z1, z2)
            assert z1 * z2.re == ComplexExpr(z1.re * z2.re, z1.im * z2.re,
                                             z1.phase)


def test_random_rational_respects_bound():
    rng = random.Random(1)
    for _ in range(100):
        q = random_rational(rng)
        assert abs(q.numerator) <= 10 ** 4 and 1 <= q.denominator <= 10 ** 4
