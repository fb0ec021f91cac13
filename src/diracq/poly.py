"""Sparse multivariate polynomials with integer coefficients.

A polynomial is a ``dict`` from exponent tuple to nonzero ``int``.  Every key
of one polynomial has the same length, the number of generators, and the zero
polynomial is the empty ``dict``.  Exponent tuples compare lexicographically,
so ``max(p)`` is the leading monomial of ``p`` in the lex order.  No function
here changes its arguments, and a returned polynomial is never changed
afterwards, so polynomials can be shared freely.

:func:`cancel` reduces a fraction by the gcd of numerator and denominator:
the heuristic gcd of Liao and Fateman (evaluate, take an integer gcd,
interpolate, verify by exact division), after the monomial and deflation
shortcuts.  Like the algorithm it ports, it has no fallback: after
``HEU_GCD_MAX`` evaluation points it raises :class:`HeuristicGCDFailed`.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

__all__ = [
    "HeuristicGCDFailed",
    "add",
    "neg",
    "mul",
    "mul_ground",
    "quo_ground",
    "power",
    "derivative",
    "at",
    "leading_coeff",
    "exquo",
    "cancel",
]

HEU_GCD_MAX = 6

_ADDERS: dict = {}          # number of generators -> monomial adder
_SUBTRACTORS: dict = {}     # number of generators -> monomial subtractor
_NEGATORS: dict = {}        # number of generators -> monomial negator


class HeuristicGCDFailed(ArithmeticError):
    """The heuristic gcd found no gcd at any of its evaluation points."""


def _monomial_op(table: dict, n: int, op: str):
    """A function combining two exponent tuples of length ``n`` entrywise
    by ``op`` (or negating one, for ``op`` ``"neg"``), written out for that
    length once."""
    fn = table.get(n)
    if fn is None:
        if op == "neg":
            body = "".join(f"-a[{i}], " for i in range(n))
            fn = table[n] = eval(f"lambda a: ({body})")
        else:
            body = "".join(f"a[{i}] {op} b[{i}], " for i in range(n))
            fn = table[n] = eval(f"lambda a, b: ({body})")
    return fn


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    get = out.get
    for monom, coeff in q.items():
        value = get(monom, 0) + coeff
        if value:
            out[monom] = value
        else:
            del out[monom]
    return out


def neg(p: dict) -> dict:
    return {monom: -coeff for monom, coeff in p.items()}


def mul(p: dict, q: dict) -> dict:
    if not p or not q:
        return {}
    monomial_mul = _monomial_op(_ADDERS, len(next(iter(p))), "+")
    out: dict = {}
    get = out.get
    q_terms = list(q.items())
    for m1, c1 in p.items():
        for m2, c2 in q_terms:
            monom = monomial_mul(m1, m2)
            out[monom] = get(monom, 0) + c1 * c2
    for monom in [monom for monom, coeff in out.items() if not coeff]:
        del out[monom]
    return out


def mul_ground(p: dict, c: int) -> dict:
    """``c * p`` for a nonzero integer ``c``."""
    return {monom: coeff * c for monom, coeff in p.items()}


def quo_ground(p: dict, c: int) -> dict:
    """``p / c`` for an integer ``c`` that divides every coefficient."""
    return {monom: coeff // c for monom, coeff in p.items()}


def power(p: dict, n: int) -> dict:
    """``p ** n`` for ``n >= 1``."""
    if len(p) == 1:
        (monom, coeff), = p.items()
        return {tuple(e * n for e in monom): coeff ** n}
    out = None
    while True:
        if n & 1:
            out = p if out is None else mul(out, p)
        n >>= 1
        if not n:
            return out
        p = mul(p, p)


def derivative(p: dict, i: int) -> dict:
    """The partial derivative of ``p`` in its ``i``-th generator."""
    out = {}
    for monom, coeff in p.items():
        k = monom[i]
        if k:
            out[monom[:i] + (k - 1,) + monom[i + 1:]] = coeff * k
    return out


def at(p: dict, i: int, num: int, den: int, d: int) -> dict:
    """``den**d`` times ``p`` with its ``i``-th generator set to
    ``num/den``, for ``d`` at least the degree of ``p`` in that generator.
    The generator stays, with exponent 0 in every term."""
    out: dict = {}
    for monom, coeff in p.items():
        key = monom[:i] + (0,) + monom[i + 1:]
        out[key] = out.get(key, 0) + coeff * num ** monom[i] * den ** (d - monom[i])
    return {monom: coeff for monom, coeff in out.items() if coeff}


def leading_coeff(p: dict) -> int:
    """The coefficient of the lex-leading monomial of a nonzero ``p``."""
    return p[max(p)]


def exquo(p: dict, q: dict):
    """``p / q`` when the nonzero ``q`` divides ``p`` exactly in the integer
    polynomials, else ``None``: lex division, stopped at the first leading
    term of the remainder that the leading term of ``q`` does not divide.
    The remainder's monomials wait in a heap, negated so that the least is
    the lex-leading one; a monomial that cancelled stays there until popped,
    and every monomial added later is below the one being divided."""
    lead = max(q)
    lead_coeff = q[lead]
    rest = [(monom, coeff) for monom, coeff in q.items() if monom != lead]
    n = len(lead)
    monomial_mul = _monomial_op(_ADDERS, n, "+")
    monomial_div = _monomial_op(_SUBTRACTORS, n, "-")
    negate = _monomial_op(_NEGATORS, n, "neg")
    remainder = dict(p)
    get = remainder.get
    heap = [negate(monom) for monom in remainder]
    heapify(heap)
    out = {}
    while remainder:
        monom = negate(heappop(heap))
        coeff = remainder.pop(monom, 0)
        if not coeff:
            continue
        shift = monomial_div(monom, lead)
        if n and min(shift) < 0:
            return None
        factor, inexact = divmod(coeff, lead_coeff)
        if inexact:
            return None
        out[shift] = factor
        for m, c in rest:
            m = monomial_mul(shift, m)
            value = get(m)
            if value is None:
                remainder[m] = -factor * c
                heappush(heap, negate(m))
            elif value == factor * c:
                del remainder[m]
            else:
                remainder[m] = value - factor * c
    return out


def cancel(p: dict, q: dict) -> tuple[dict, dict]:
    """``p / q`` in lowest terms, ``(p / h, q / h)`` for ``h = gcd(p, q)``,
    with the sign chosen so that the denominator leads positively.  Both
    arguments are nonzero; a reduced fraction in that form is unique."""
    if len(p) == 1:
        p, q = _monomial_cofactors(p, q)
    elif len(q) == 1:
        q, p = _monomial_cofactors(q, p)
    else:
        exponents, (p, q) = _deflate(p, q)
        _, p, q = _heugcd(p, q)
        if exponents is not None:
            p, q = _inflate(p, exponents), _inflate(q, exponents)
    if leading_coeff(q) < 0:
        return neg(p), neg(q)
    return p, q


def _monomial_cofactors(p: dict, q: dict) -> tuple[dict, dict]:
    """``p / h`` and ``q / h`` for the one-term ``p`` and ``h = gcd(p, q)``:
    the entrywise least exponents and the integer gcd of the coefficients."""
    (monom, coeff), = p.items()
    low, content = monom, coeff
    for m, c in q.items():
        low = tuple(map(min, low, m))
        content = math.gcd(content, c)
    monomial_div = _monomial_op(_SUBTRACTORS, len(monom), "-")
    return ({monomial_div(monom, low): coeff // content},
            {monomial_div(m, low): c // content for m, c in q.items()})


def _deflate(p: dict, q: dict):
    """``(J, (p', q'))`` with ``p = p'(x**J)`` and ``q = q'(x**J)`` for the
    largest exponent vector ``J``; ``J`` is ``None`` when it is all ones."""
    steps = [math.gcd(*column) or 1 for column in zip(*p, *q)]
    if all(s == 1 for s in steps):
        return None, (p, q)
    return steps, tuple({tuple(e // s for e, s in zip(monom, steps)): coeff
                         for monom, coeff in poly.items()} for poly in (p, q))


def _inflate(p: dict, steps) -> dict:
    return {tuple(e * s for e, s in zip(monom, steps)): coeff
            for monom, coeff in p.items()}


def _content(p: dict) -> int:
    return math.gcd(*p.values())


def _evaluate_first(p: dict, x: int):
    """``p`` with its first generator set to ``x``: an ``int`` for a
    polynomial in one generator (by Horner's rule), else a polynomial in
    the others."""
    if len(next(iter(p))) == 1:
        coeffs = [0] * (max(p)[0] + 1)
        for (e,), coeff in p.items():
            coeffs[e] = coeff
        value = 0
        for coeff in reversed(coeffs):
            value = value * x + coeff
        return value
    powers: dict = {}
    out: dict = {}
    get = out.get
    for monom, coeff in p.items():
        e = monom[0]
        power_ = powers.get(e)
        if power_ is None:
            power_ = powers[e] = x ** e
        rest = monom[1:]
        value = get(rest, 0) + coeff * power_
        if value:
            out[rest] = value
        else:
            del out[rest]
    return out


def _interpolate(h, x: int, n: int) -> dict:
    """The polynomial in ``n`` generators whose first generator at ``x``
    gives ``h``, read off the balanced base-``x`` digits of ``h``, with a
    positive leading coefficient."""
    out: dict = {}
    half = x // 2
    i = 0
    if n == 1:
        while h:
            digit = h % x
            if digit > half:
                digit -= x
            h = (h - digit) // x
            if digit:
                out[(i,)] = digit
            i += 1
    else:
        while h:
            rest = {}
            for monom, coeff in h.items():
                digit = coeff % x
                if digit > half:
                    digit -= x
                if digit:
                    out[(i,) + monom] = digit
                high = (coeff - digit) // x
                if high:
                    rest[monom] = high
            h = rest
            i += 1
    if out and leading_coeff(out) < 0:
        return neg(out)
    return out


def _primitive(p: dict) -> dict:
    content = _content(p)
    return p if content == 1 else quo_ground(p, content)


def _heugcd(f: dict, g: dict):
    """``(h, f / h, g / h)`` for ``h = gcd(f, g)`` and nonzero ``f`` and
    ``g`` in one or more generators (Liao and Fateman): evaluate the first generator at an integer
    ``x``, take the gcd of the images (recursively over the remaining
    generators), interpolate ``h`` or a cofactor from it, and keep it when
    exact divisions confirm it; up to ``HEU_GCD_MAX`` points ``x``."""
    n = len(next(iter(f)))
    common = math.gcd(_content(f), _content(g))
    if common != 1:
        f, g = quo_ground(f, common), quo_ground(g, common)
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * math.isqrt(bound)),
            2 * min(f_norm // abs(leading_coeff(f)),
                    g_norm // abs(leading_coeff(g))) + 4)
    for _ in range(HEU_GCD_MAX):
        ff, gg = _evaluate_first(f, x), _evaluate_first(g, x)
        if ff and gg:
            if n == 1:
                h = math.gcd(ff, gg)
                cff, cfg = ff // h, gg // h
            else:
                h, cff, cfg = _heugcd(ff, gg)
            h = _primitive(_interpolate(h, x, n))
            cff_ = exquo(f, h)
            if cff_ is not None:
                cfg_ = exquo(g, h)
                if cfg_ is not None:
                    return mul_ground(h, common), cff_, cfg_
            cff = _interpolate(cff, x, n)
            h = exquo(f, cff)
            if h is not None:
                cfg_ = exquo(g, h)
                if cfg_ is not None:
                    return mul_ground(h, common), cff, cfg_
            cfg = _interpolate(cfg, x, n)
            h = exquo(g, cfg)
            if h is not None:
                cff_ = exquo(f, h)
                if cff_ is not None:
                    return mul_ground(h, common), cff_, cfg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    raise HeuristicGCDFailed("no luck")
