"""Shared independent oracles for the test suite."""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

from diracq.expr import (
    Expr,
    Point,
    SingularPointError,
    evaluate,
    random_rational,
    symbol,
)


def perfbench_module(name: str):
    """A module of ``perfbench/``, loaded from its file (read only: the
    directory is not put on ``sys.path``)."""
    key = f"_perfbench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[key]


def _as_mpf(value):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return value


def fd_derivative(e: Expr, name: str, values: dict[str, Fraction],
                  h: Fraction = Fraction(1, 10 ** 6)):
    """Central finite difference, evaluated in high precision."""
    up = dict(values)
    down = dict(values)
    up[name] = values[name] + h
    down[name] = values[name] - h
    f_up = _as_mpf(evaluate(e, Point("fd", up)))
    f_down = _as_mpf(evaluate(e, Point("fd", down)))
    return (f_up - f_down) / (2 * _as_mpf(Fraction(h)))


def sample_values(rng: random.Random, names, bound: int = 10) -> dict[str, Fraction]:
    return {n: random_rational(rng, bound) for n in names}


def fd_matches(e: Expr, name: str, rng: random.Random, points: int = 5,
               rel_tol: float = 1e-6, bound: int = 10) -> bool:
    """Does the symbolic derivative match central finite differences at
    random pole-free rational points?

    Mismatches that shrink quadratically when the step shrinks are finite
    difference truncation near a pole, so such points are resampled; a
    wrong symbolic derivative gives a step-independent mismatch.
    """
    sym = symbol(name)
    names = sorted({str(s) for s in e.free_symbols} | {name})
    deriv = e.diff(sym)
    done = 0
    attempts = 0
    with mpmath.workdps(40):
        while done < points and attempts < 60 * points:
            attempts += 1
            values = sample_values(rng, names, bound)
            try:
                approx = fd_derivative(e, name, values)
                exact = _as_mpf(evaluate(deriv, Point("fd", values)))
            except SingularPointError:
                continue
            scale = max(1, abs(exact))
            gap = abs(approx - exact)
            if gap <= rel_tol * scale:
                done += 1
                continue
            try:
                finer = fd_derivative(e, name, values, h=Fraction(1, 10 ** 7))
            except SingularPointError:
                continue
            if abs(finer - exact) < gap / 4:
                continue  # truncation-dominated sample; resample
            return False
    return done == points
