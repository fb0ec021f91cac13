"""Seeded generators for the in-process workloads.

Each generator takes the workload seed and a round index and returns
operations: DSL text for the program, the suites to run, and a spec of the
generator's own data (integer polynomial coefficients, rational constants)
from which the oracle derives the expected verdicts without diracq.

Polynomials are dicts ``{exponent tuple: int coefficient}``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# polynomials over Z in n variables


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def random_poly(rng: random.Random, n: int, degree: int, terms: int) -> dict:
    """Nonzero polynomial with ``terms`` random monomials of total degree at
    most ``degree``."""
    poly: dict = {}
    while not poly:
        for _ in range(terms):
            exps = [0] * n
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(n)] += 1
            coeff = rng.choice([c for c in range(-4, 5) if c])
            key = tuple(exps)
            poly[key] = poly.get(key, 0) + coeff
            if poly[key] == 0:
                del poly[key]
    return poly


def p_add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + scale * c
        if out[k] == 0:
            del out[k]
    return out


def p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ka, ca), (kb, cb) in itertools.product(a.items(), b.items()):
        k = tuple(x + y for x, y in zip(ka, kb))
        out[k] = out.get(k, 0) + ca * cb
        if out[k] == 0:
            del out[k]
    return out


def p_diff(a: dict, i: int) -> dict:
    out: dict = {}
    for k, c in a.items():
        if k[i]:
            kk = list(k)
            kk[i] -= 1
            out[tuple(kk)] = c * k[i]
    return out


def p_var(n: int, i: int) -> dict:
    return {tuple(int(j == i) for j in range(n)): 1}


def p_const(n: int, c: int) -> dict:
    return {(0,) * n: c} if c else {}


def p_text(a: dict, names: list[str]) -> str:
    """DSL spelling; ``0`` for the zero polynomial."""
    if not a:
        return "0"
    parts = []
    for k in sorted(a, reverse=True):
        c = a[k]
        mono = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                        for i, e in enumerate(k) if e)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or str(abs(c)))
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# DSL assembly


def _chart(name: str, n: int) -> tuple[list[str], str]:
    names = [f"x{i + 1}" for i in range(n)]
    return names, f"chart {name} dim {n} coords {' '.join(names)}"


def _two_form_text(omega: dict, names: list[str]) -> str:
    terms = [f"({p_text(c, names)})*d{names[i]} /\\ d{names[j]}"
             for (i, j), c in sorted(omega.items()) if c]
    return " + ".join(terms) if terms else "0*dx1 /\\ dx2"


def _bivector_text(pi: dict, names: list[str]) -> str:
    terms = [f"({p_text(c, names)})*d_{names[i]} /\\ d_{names[j]}"
             for (i, j), c in sorted(pi.items()) if c]
    return " + ".join(terms)


def _scalars_text(scalars: dict, names: list[str]) -> list[str]:
    return [f"scalar {k} = {p_text(v, names)}" for k, v in scalars.items()]


def exact_two_form(alpha: list[dict], n: int) -> dict:
    """Coefficients ``{(i, j): d(alpha)_ij}`` for i < j."""
    return {(i, j): p_add(p_diff(alpha[j], i), p_diff(alpha[i], j), -1)
            for i, j in itertools.combinations(range(n), 2)}


def _op(name: str, spec: dict, suites: list[str], lines: list[str]) -> dict:
    return {"name": name, "suites": suites, "spec": spec,
            "text": "\n".join(lines) + "\n"}


# ---------------------------------------------------------------------------
# rational families


RATIONAL_SUITES = ["dirac", "poisson", "poincare"]


def form_graph_op(name: str, n: int, alpha: list[dict], scalars: dict,
                  suites=RATIONAL_SUITES) -> dict:
    names, chart = _chart(name, n)
    omega = exact_two_form(alpha, n)
    spec = {"kind": "form", "n": n, "omega": omega, "scalars": scalars}
    lines = [chart, *_scalars_text(scalars, names),
             f"form omega = {_two_form_text(omega, names)}",
             "dirac D = graph_presymplectic(omega)", "complement H = auto"]
    return _op(name, spec, suites, lines)


def poisson_op(name: str, n: int, pi: dict, scalars: dict,
               suites=RATIONAL_SUITES) -> dict:
    names, chart = _chart(name, n)
    spec = {"kind": "poisson", "n": n, "pi": pi, "scalars": scalars}
    lines = [chart, *_scalars_text(scalars, names),
             f"bivector W = {_bivector_text(pi, names)}",
             "dirac D = graph_poisson(W)", "complement H = auto"]
    return _op(name, spec, suites, lines)


def distribution_op(name: str, n: int, fields: list[list[dict]],
                    scalars: dict, suites=RATIONAL_SUITES) -> dict:
    names, chart = _chart(name, n)
    spec = {"kind": "distribution", "n": n, "fields": fields,
            "scalars": scalars}
    lines = [chart, *_scalars_text(scalars, names)]
    for k, comps in enumerate(fields):
        body = " + ".join(f"({p_text(c, names)})*d_{names[i]}"
                          for i, c in enumerate(comps) if c)
        lines.append(f"vector X{k + 1} = {body}")
    lines += [f"dirac D = regular_distribution("
              f"{', '.join(f'X{k + 1}' for k in range(len(fields)))})",
              "complement H = auto"]
    return _op(name, spec, suites, lines)


def frame_op(name: str, n: int, omega: dict) -> dict:
    """The graph of a 2-form presented through ``frame(...)``: sections
    ``(d_i, i_{d_i} omega)``."""
    names, chart = _chart(name, n)
    spec = {"kind": "form", "n": n, "omega": omega, "scalars": {},
            "frame": True}
    lines = [chart]
    for i in range(n):
        # i_{d_i} omega = sum_j omega_ij dx_j
        parts = []
        for j in range(n):
            if i == j:
                continue
            c = omega.get((i, j)) if i < j else \
                {k: -v for k, v in omega.get((j, i), {}).items()}
            if c:
                parts.append(f"({p_text(c, names)})*d{names[j]}")
        lines.append(f"section s{i + 1} = (d_{names[i]}, "
                     f"{' + '.join(parts) if parts else '0*d' + names[0]})")
    lines.append(f"dirac D = frame({', '.join(f's{i + 1}' for i in range(n))})")
    return _op(name, spec, ["dirac"], lines)


def _nz(rng) -> int:
    return rng.choice([-3, -2, -1, 1, 2, 3])


def _mono(n: int, coeff: int, *factors: int) -> dict:
    exps = [0] * n
    for i in factors:
        exps[i] += 1
    return {tuple(exps): coeff}


def _poly(n: int, *terms) -> dict:
    out: dict = {}
    for term in terms:
        out = p_add(out, term)
    return out


def _scalars(n: int, a: int = 0, b: int = 1) -> dict:
    """The declared functions f1 = x_a^2 + x_b and f2 = x_a x_b + 1, the
    same for every seed: they enter the Poisson suite's brackets, so seeded
    ones would make a round's cost vary with the seed."""
    return {"f1": _poly(n, _mono(n, 1, a, a), _mono(n, 1, b)),
            "f2": _poly(n, _mono(n, 1, a, b), _mono(n, 1))}


def rational_round(seed: int, round_index: int) -> list[dict]:
    """One round of the rational-families workload (see README).

    Every member has a fixed monomial support with random nonzero
    coefficients, so the cost of a round varies little with the seed."""
    rng = _rng("rational-families", seed, round_index)
    r = round_index
    # graphs of omega = d(alpha): alpha = k x1 dx2 gives the constant
    # omega = k dx1 ^ dx2 on R^2; alpha = (k0 x1 + k1 x1^2) dx2 gives
    # omega = (k0 + 2 k1 x1) dx1 ^ dx2, on R^3 a degenerate form whose
    # kernel is d_x3
    exact2 = form_graph_op(f"exact2r{r}", 2, [{}, _mono(2, _nz(rng), 0)],
                           _scalars(2))
    n = 3
    alpha = [{}, _poly(n, _mono(n, _nz(rng), 0), _mono(n, _nz(rng), 0, 0)),
             {}]
    scalars = _scalars(n)
    scalars["f3"] = _poly(n, _mono(n, 1, 1, 1), _mono(n, -1, 0))
    exact3 = form_graph_op(f"exact3r{r}", n, alpha, scalars)
    # R^4: alpha = k1 x2 dx1 + k2 x4 dx2 + k3 x1 dx3 + k4 x3 dx4 gives a
    # constant omega on dx1^dx2, dx1^dx3, dx2^dx4, dx3^dx4 with Pfaffian
    # k2 k3 - k1 k4, kept nonzero
    while True:
        k = [_nz(rng) for _ in range(4)]
        alpha = [_mono(4, k[0], 1), _mono(4, k[1], 3), _mono(4, k[2], 0),
                 _mono(4, k[3], 2)]
        if _pfaffian4(exact_two_form(alpha, 4)):
            break
    exact4 = form_graph_op(f"exact4r{r}", 4, alpha, _scalars(4, 0, 2))
    # Lie-Poisson bivectors on R^3, written through v = (pi^23, pi^31,
    # pi^12): the constant bivector v = b, and the linear v = diag(a) x
    # (a Bianchi class A algebra such as so(3)* or so(2,1)*); both have
    # curl v = 0, so v . curl v = 0
    lie = {}
    for kind in ("const", "lin"):
        v = [_mono(3, _nz(rng), *((i,) if kind == "lin" else ()))
             for i in range(3)]
        pi = {(1, 2): v[0], (0, 2): {e: -c for e, c in v[1].items()},
              (0, 1): v[2]}
        lie[kind] = poisson_op(f"{kind}pir{r}", 3, pi, _scalars(3))
    # regular distribution on R^3: X = d_x1 + (d_1 G) d_x3 with
    # G = g1 x1 x2 + g2 x2^2; x2 and x3 - G are first integrals
    g = _poly(n, _mono(n, _nz(rng), 0, 1), _mono(n, _nz(rng), 1, 1))
    fields = [[p_const(n, 1), {}, p_diff(g, 0)]]
    integral = p_add(p_var(n, 2), g, -1)
    scalars = {"f1": integral, "f2": p_add(p_mul(p_var(n, 1), p_var(n, 1)),
                                           p_const(n, 1)),
               "f3": p_add(p_mul(p_var(n, 1), integral), p_var(n, 1))}
    distr3 = distribution_op(f"distr3r{r}", n, fields, scalars)
    # the first structure in a process pays for warming sympy's caches;
    # a fixed order puts that cost on the costliest member in every round
    return [lie["lin"], exact3, exact4, exact2, lie["const"], distr3,
            *rational_negatives()]


def _pfaffian4(w: dict) -> dict:
    return p_add(p_add(p_mul(w[(0, 1)], w[(2, 3)]),
                       p_mul(w[(0, 2)], w[(1, 3)]), -1),
                 p_mul(w[(0, 3)], w[(1, 2)]))


def rational_negatives() -> list[dict]:
    """Fixed non-Dirac inputs, the same in every round and for every seed:
    each reports ERROR in the dirac suite (fault F2)."""
    n = 3
    x = [p_var(n, i) for i in range(n)]
    nonclosed = {(0, 1): {}, (0, 2): {}, (1, 2): x[0]}     # x1 dx2^dx3
    ops = [frame_op("negframe", n, nonclosed)]
    names, chart = _chart("negform", n)
    ops.append(_op("negform", {"kind": "form", "n": n, "omega": nonclosed,
                               "scalars": {}},
                   ["dirac"], [chart,
                               f"form omega = {_two_form_text(nonclosed, names)}",
                               "dirac D = graph_presymplectic(omega)"]))
    # v = (x2, x3, x1): v . curl v = -(x1 + x2 + x3) != 0
    pi = {(1, 2): x[1], (0, 2): {e: -c for e, c in x[2].items()},
          (0, 1): x[0]}
    ops.append(poisson_op("negpoisson", n, pi, {}, ["dirac"]))
    fields = [[p_const(n, 1), {}, {}], [{}, p_const(n, 1), x[0]]]
    ops.append(distribution_op("negdistr", n, fields, {}, ["dirac"]))
    for op in ops:
        op["fault"] = "F2"
    return ops


# ---------------------------------------------------------------------------
# Cech atlases on the standard plane


CECH_SUITES = ["prequant", "quantize"]


def cech_op(name: str, us: list[dict], consts: dict, suites) -> dict:
    """sigma_j = pull(-p dq + d u_j), w_jk = u_j - u_k + c_jk on every pair."""
    names = ["q", "p"]
    m = len(us)
    lines = [f"chart {name} dim 2 coords q p", "scalar f1 = q",
             "scalar f2 = p", "form omega = dq /\\ dp",
             "dirac D = graph_presymplectic(omega)", "complement H = auto"]
    lines += [f"patch U{j + 1}" for j in range(m)]
    for j, u in enumerate(us):
        dq, dp = p_diff(u, 0), p_diff(u, 1)
        extra = "".join(f" + ({p_text(c, names)})*d{v}"
                        for c, v in ((dq, "q"), (dp, "p")) if c)
        lines.append(f"sigma U{j + 1} = pull(-p*dq{extra})")
    for (j, k) in itertools.combinations(range(m), 2):
        c = consts[(j, k)]
        w = p_text(p_add(us[j], us[k], -1), names)
        lines.append(f"cochain U{j + 1} U{k + 1} = {w} + ({c})")
    if "quantize" in suites:
        lines += ["polarization P = span((d_p, -dq))", "halfdensity v1 = 1"]
    spec = {"kind": "cech", "us": us,
            "consts": {k: str(v) for k, v in consts.items()}}
    return _op(name, spec, list(suites), lines)


def _cech_consts(rng, m: int, integral: bool) -> dict:
    """Nonzero integer constants c_jk, so every Cech sum c_jk + c_kl - c_jl
    is an integer; a fractional member adds k/5 to one pair."""
    consts = {key: Fraction(rng.choice([-2, -1, 1, 2]))
              for key in itertools.combinations(range(m), 2)}
    if not integral:
        key = rng.choice(sorted(consts))
        consts[key] += Fraction(rng.randint(1, 4), 5)
    return consts


def cech_round(seed: int, round_index: int) -> list[dict]:
    """One round of the cech-atlases workload (see README)."""
    rng = _rng("cech-atlases", seed, round_index)
    r = round_index
    ops = []
    # positives: u_j = a q on one patch, 0 on the others.  With the middle
    # patch carrying it, g12 g23 = g13 needs cos^2 + sin^2 = 1, which only
    # the sampled equality decides; on an end patch it holds canonically
    for k, carrier in enumerate((1, 0, 2, 0)):
        us = [{}, {}, {}]
        us[carrier] = {(1, 0): rng.choice([-3, -2, -1, 1, 2, 3])}
        ops.append(cech_op(f"cechpos{k}u{carrier + 1}r{r}", us,
                           _cech_consts(rng, 3, True), CECH_SUITES))
    # negative: a fractional Cech sum on four patches
    us = [random_poly(rng, 2, 2, 2) for _ in range(4)]
    ops.append(cech_op(f"cechfracr{r}", us, _cech_consts(rng, 4, False),
                       ["prequant"]))
    return ops + cech_negatives()


def cech_negatives() -> list[dict]:
    """A fixed direct-transition atlas whose connection 1-sections differ by
    dq on an overlap with constant transition: fault F3."""
    lines = ["chart transbad dim 2 coords q p", "form omega = dq /\\ dp",
             "dirac D = graph_presymplectic(omega)", "complement H = auto",
             "patch U1", "patch U2", "sigma U1 = pull(-p*dq)",
             "sigma U2 = pull(-p*dq + dq)", "transition U1 U2 = 1"]
    op = _op("transbad", {"kind": "transition",
                          "sigma_diff": {(1, 0): 1}, "g": 1},
             ["prequant"], lines)
    op["fault"] = "F3"
    return [op]
