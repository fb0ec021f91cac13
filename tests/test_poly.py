"""The scalar kernel against sympy as an oracle: ``poly.cancel`` against
``PolyElement.cancel``, the printer against ``sstr`` of the tree, and
checks that the paths users take never import sympy or mpmath, and that
evaluation and printing never import sympy."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.rings import ring

from diracq import poly
from diracq.expr import ONE, Expr, symbol

ROOT = Path(__file__).resolve().parent.parent
NGENS = 3
RING = ring(",".join(f"g{i}" for i in range(NGENS)), ZZ)[0]

monomials = st.tuples(*[st.integers(0, 3)] * NGENS)
nonzero = st.integers(-30, 30).filter(bool)
polys = st.dictionaries(monomials, nonzero, min_size=1, max_size=5)


def _ring_element(p: dict):
    return RING(dict(p))


@st.composite
def fraction_pairs(draw):
    """Numerator and denominator sharing a polynomial factor, an integer
    content and a sign, each drawn or not."""
    num, den = draw(polys), draw(polys)
    if draw(st.booleans()):
        common = draw(polys)
        num, den = poly.mul(num, common), poly.mul(den, common)
    if draw(st.booleans()):
        num = poly.mul_ground(num, draw(nonzero))
        den = poly.mul_ground(den, draw(nonzero))
    return num, den


class TestCancel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(fraction_pairs())
    def test_matches_sympys_cancel(self, pair):
        num, den = pair
        want_num, want_den = _ring_element(num).cancel(_ring_element(den))
        assert poly.cancel(num, den) == (dict(want_num), dict(want_den))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(polys, polys)
    def test_exact_division_recovers_the_factor(self, p, q):
        assert poly.exquo(poly.mul(p, q), q) == p
        if any(any(m) for m in q):          # not a constant
            shifted = poly.add(poly.mul(p, q), {(0,) * NGENS: 1})
            assert poly.exquo(shifted, q) is None

    def test_deflated_gcd(self):
        # exponents all even in the first generator: the gcd runs on x**2
        a, b = {(2, 0, 0): 1, (0, 0, 0): -1}, {(2, 0, 0): 1, (0, 1, 0): 2}
        num, den = poly.mul(a, b), poly.mul(a, {(4, 0, 0): 3, (0, 0, 1): 1})
        assert poly.cancel(num, den) == (b, {(4, 0, 0): 3, (0, 0, 1): 1})


NAMES = ("x1", "x2", "x10", "y")
GENS = [Expr(symbol(name)) for name in NAMES]
name_monomials = st.tuples(*[st.integers(0, 3)] * len(NAMES))
name_polys = st.dictionaries(name_monomials, st.integers(-12, 12).filter(bool),
                             min_size=1, max_size=4)


def _value(p: dict) -> Expr:
    out = Expr(0)
    for monom, coeff in p.items():
        term = Expr(coeff)
        for gen, e in zip(GENS, monom):
            term = term * gen ** e
        out = out + term
    return out


@st.composite
def symbol_values(draw):
    """A quotient of polynomials in x1, x2, x10 and y, times a rational."""
    num, den = _value(draw(name_polys)), _value(draw(name_polys))
    scale = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return num / den * Expr(scale)


class TestPrinter:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(symbol_values())
    def test_matches_sympys_text(self, value):
        assert str(value) == sp.sstr(value.node)

    def test_named_forms(self):
        x1, x2, x10, y = GENS
        for value in (1 - x1, (1 - x1) / 2, ONE / 2 - x1 / 3, x1 ** -2,
                      -ONE / x1 ** 2, (2 * x1 + 4 * y) / 3, 3 / (2 * x1 + 2),
                      x10 * x2, x2 - x10, (1 - x1) / (y + 1), -x1 / (1 - y),
                      Expr(Fraction(-3, 4)), x1 * x2 ** 2 / (3 * y ** 3)):
            assert str(value) == sp.sstr(value.node)


def _run(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_LOADED = "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))"


def test_the_cli_on_the_corpus_imports_no_sympy():
    models = sorted(str(p) for p in (ROOT / "models").glob("*.dq"))
    assert len(models) == 7
    script = f"""
import contextlib, io, sys
from diracq.cli import main
for model in {models!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        main(["check", model, "--suite", "all", "--json"])
    {_LOADED}
"""
    assert _run(script).splitlines() == ["[]"] * 7


def test_evaluation_and_printing_build_no_tree():
    """A rational value evaluates without sympy or mpmath, and a value with
    ``pi`` evaluates and prints without sympy."""
    script = f"""
import sys
from fractions import Fraction
from diracq.expr import PI, Expr, Point, evaluate, symbol
x = Expr(symbol("x"))
point = Point("M", {{"x": Fraction(1, 3)}})
assert evaluate((x ** 2 + 1) / (x - 2), point) == Fraction(-2, 3)
{_LOADED}
value = 2 * PI * x + 1
text, number = str(value), evaluate(value, point)
print(sorted({{'sympy'}} & set(sys.modules)))
import mpmath
with mpmath.workdps(40):
    print(text, abs(number - (2 * mpmath.pi / 3 + 1)) < mpmath.mpf(10) ** -25)
"""
    assert _run(script).splitlines() == ["[]", "[]", "2*x*pi + 1 True"]


def test_generated_rounds_import_no_sympy():
    script = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location(
    "families", {str(ROOT / "perfbench" / "families.py")!r})
families = importlib.util.module_from_spec(spec)
sys.modules["families"] = families
spec.loader.exec_module(families)
from diracq.checks import run_checks
from diracq.dsl import parse_model
for make in (families.rational_round, families.cech_round):
    for seed in (1, 2, 3):
        for op in make(seed, 0):
            run_checks(parse_model(op["text"]), suites=op["suites"], seed=7,
                       trials=6)
        {_LOADED}
"""
    assert _run(script).splitlines() == ["[]"] * 6
