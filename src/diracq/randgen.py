"""Deterministic random generators for property suites.

Everything is driven by an explicit :class:`random.Random` so CLI runs with a
fixed seed reproduce byte-identical reports.
"""

from __future__ import annotations

import itertools
import random

from .chart import Chart, KForm, KVector, VectorField
from .expr import ZERO, Expr, as_expr, atom, symbol

__all__ = [
    "rng_for",
    "random_polynomial",
    "random_vector_field",
    "random_kform",
    "random_kvector",
    "random_rational_expr",
    "random_mixed_expr",
]


def rng_for(seed: int, label: str) -> random.Random:
    # str seeds hash stably (sha512) across runs and processes
    return random.Random(f"{seed}:{label}")


def random_polynomial(rng: random.Random, chart: Chart, degree: int = 3,
                      terms: int = 3) -> Expr:
    """Small random polynomial in the chart coordinates, nonzero integer
    coefficients in ``[-5, 5]``, total degree bounded."""
    symbols = [Expr(s) for s in chart.coords]
    out = ZERO
    for _ in range(terms):
        coeff = rng.randint(-5, 5)
        if coeff == 0:
            coeff = 1
        monomial = as_expr(coeff)
        for _ in range(rng.randint(0, degree)):
            monomial = monomial * rng.choice(symbols)
        out = out + monomial
    return out


def random_vector_field(rng: random.Random, chart: Chart,
                        degree: int = 2) -> VectorField:
    return VectorField(chart, tuple(
        random_polynomial(rng, chart, degree=degree, terms=2)
        for _ in range(chart.dim)))


def _random_alternating(cls, rng: random.Random, chart: Chart, degree: int,
                        poly_degree: int):
    """A ``KForm`` or ``KVector`` with random polynomial coefficients."""
    return cls(chart, degree, {
        key: random_polynomial(rng, chart, degree=poly_degree, terms=2)
        for key in itertools.combinations(range(chart.dim), degree)})


def random_kform(rng: random.Random, chart: Chart, degree: int,
                 poly_degree: int = 2) -> KForm:
    return _random_alternating(KForm, rng, chart, degree, poly_degree)


def random_kvector(rng: random.Random, chart: Chart, degree: int,
                   poly_degree: int = 2) -> KVector:
    return _random_alternating(KVector, rng, chart, degree, poly_degree)


def random_rational_expr(rng: random.Random, names: list[str],
                         depth: int = 4) -> Expr:
    """Random expression in the rational fragment, bounded depth, with
    denominators kept away from the constant zero.  It is built as a sympy
    tree, so this imports sympy."""
    import sympy as sp

    def leaf() -> sp.Expr:
        if rng.random() < 0.5:
            return sp.Integer(rng.randint(-6, 6))
        return symbol(rng.choice(names)).tree

    def build(d: int) -> sp.Expr:
        if d <= 0:
            return leaf()
        op = rng.choice("++**-/^")
        left = build(d - 1)
        right = build(d - 1)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "^":
            return left ** rng.randint(1, 3)
        divisor = right if right != 0 else right + 1
        return left / divisor

    while True:
        try:
            return Expr(build(depth))
        except Exception:
            continue


def random_mixed_expr(rng: random.Random, names: list[str],
                      depth: int = 3) -> Expr:
    """Rational skeleton with a transcendental atom spliced in sometimes."""
    base = random_rational_expr(rng, names, depth)
    roll = rng.random()
    if roll < 0.25:
        return base
    inner = random_rational_expr(rng, names, 2)
    head = rng.choice(("sin", "cos", "exp"))
    transcendental = atom(head, inner)
    combinators = [lambda: base + transcendental,
                   lambda: base * transcendental,
                   lambda: transcendental - base]
    return rng.choice(combinators)()
